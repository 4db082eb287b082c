"""Command-line driver: simulate, classify, fibering, well-depth, validate.

Exit codes: 0 success (completed horizon), 10 blow-up observed (an expected
scientific outcome, distinguished from failure), 1 configuration error,
2 runtime failure, 3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import traceback

import numpy as np

from . import artifacts, dynamics, fracops, validate as validate_mod, variational
from .config import ConfigError, ExperimentConfig
from .svgplot import Series, plot_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VALIDATE = 3
EXIT_BLOWUP = 10

# the fibering scan's eps range and point count: the fibering command's
# defaults, and the scan that simulate writes
FIBERING_SCAN = (1e-2, 1e2, 121)


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    updates = {}
    if getattr(args, "out", None):
        updates["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "psi_variant", None):
        updates["psi_variant"] = args.psi_variant
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _setup(cfg: ExperimentConfig, well: bool = True):
    """Build the run's objects, failing by name before any work: parameters
    outside the admissibility window (only where the command needs the well
    depth), a grid of another dimension than params.N, and a grid whose
    kernel would not fit in physical memory."""
    params = cfg.build_params()
    if well and not params.well_regime:
        raise ConfigError(f"admissibility window fails: {params.window_violation}; "
                          "the well depth needs parameters inside it")
    grid = cfg.build_grid()
    if grid.ndim != params.N:
        raise ConfigError(f"params.N = {params.N} but the grid (counts {list(grid.counts)}) "
                          f"is {grid.ndim}-D")
    need, have = fracops.peak_bytes(grid.node_count), _physical_memory()
    if have is not None and need > have:
        raise ConfigError(f"grid counts {list(grid.counts)} ({grid.node_count} nodes) needs "
                          f"about {need} bytes for the kernel's weight tables and buffers, "
                          f"more than the {have} bytes of physical memory")
    Kp, Kq = cfg.build_kirchhoff()
    u0, v0 = cfg.build_initial_pair(grid)
    return params, grid, Kp, Kq, u0, v0


def _well_estimate(cfg, params, grid, Kp, Kq):
    return variational.estimate_well_depth(
        grid, params, Kp, Kq, seed=cfg.seed, variant=cfg.psi_variant, **cfg.well_depth)


def _classification(cfg, params, grid, Kp, Kq, u0, v0):
    """The well estimate, the classification, and the initial pair's ray it
    was read from, for the fibering artifacts."""
    est = _well_estimate(cfg, params, grid, Kp, Kq)
    ray = variational.FiberingRay.from_pair(u0, v0, params, Kp, Kq)
    return est, variational.classify_initial_data(u0, v0, ray, est.d, cfg.psi_variant), ray


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg)
    _, cls, _ = _classification(cfg, params, grid, Kp, Kq, u0, v0)
    print(artifacts.json_text(cls.to_json_dict()))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg)
    est, cls, ray = _classification(cfg, params, grid, Kp, Kq, u0, v0)

    controls = dynamics.IntegratorControls(**cfg.integrator)
    trace = dynamics.integrate(u0, v0, params, Kp, Kq, controls)

    run_dir = cfg.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_csv(run_dir / "initial_u.csv", _field_columns(u0))
    artifacts.write_csv(run_dir / "initial_v.csv", _field_columns(v0))
    # the trace's columns without the squared rates |u_t|^2, |v_t|^2
    artifacts.write_csv(run_dir / "trace.csv", {
        c: trace[c] for c in dynamics.SimTrace.COLUMNS if c not in ("ut_sq", "vt_sq")})

    cls_json, outcome_json = cls.to_json_dict(), trace.outcome.to_json_dict()
    fit_json = (dataclasses.asdict(dynamics.decay_fit(trace))
                if trace.outcome.kind == "CompletedHorizon" else None)
    artifacts.write_json(run_dir / "outcome.json", {
        **outcome_json, "t_max_bound": cls_json["t_max_bound"], "decay_fit": fit_json})

    fit = fit_json or {}
    summary = {
        "classification": cls_json,
        "outcome": outcome_json,
        "decay_fit": fit_json,
        # always pairs of numbers, never a bare verdict
        "bound_comparisons": {
            "t_detect_vs_t_max_bound": {"t_detect": outcome_json.get("t_detect"),
                                        "t_max_bound": cls_json["t_max_bound"]},
            "fitted_vs_predicted_decay": {
                "fitted_kind": fit.get("kind"), "fitted_rate_or_exponent": fit.get("rate"),
                "predicted_kind": fit.get("predicted_kind"),
                "predicted_exponent": fit.get("predicted_exponent")},
        },
        "well_depth": {"d": est.d, "samples": est.sample_count,
                       "bracketing_failures": est.bracketing_failures},
        "residual_max_abs": float(np.max(np.abs(trace["residual"]))),
    }
    artifacts.write_json(run_dir / "summary.json", summary)
    _emit_plots(run_dir, trace)
    if u0.max_abs() > 0.0 or v0.max_abs() > 0.0:  # a zero pair has no fibering ray
        _write_fibering(run_dir, cfg, ray, *FIBERING_SCAN)

    print(f"outcome: {trace.outcome.kind} at t={trace.outcome.t:.6g} "
          f"(verdict {cls.verdict}); artifacts in {run_dir}")
    return EXIT_BLOWUP if trace.outcome.kind == "BlowUp" else EXIT_OK


def _emit_plots(run_dir, trace):
    ts, phis, mass = trace["t"], trace["phi"], trace.mass
    plot_svg(run_dir / "phi_linear.svg", [Series(ts, phis, "phi")],
             title="energy vs time", xlabel="t", ylabel="phi")
    plot_svg(run_dir / "phi_log.svg", [Series(ts, phis, "phi")],
             title="energy vs time (log)", xlabel="t", ylabel="phi", ylog=True)
    plot_svg(run_dir / "mass.svg", [Series(ts, mass, "|u|^2+|v|^2")],
             title="squared-norm sum vs time", xlabel="t", ylabel="mass")


def _field_columns(field):
    """A field's CSV columns: x (and y) of each node, then its value."""
    return {**dict(zip(("x", "y"), field.domain.coords.T)), "value": field.values}


def _write_fibering(run_dir, cfg, ray, eps_lo, eps_hi, count):
    """Scan the ray on ``count`` log-spaced points of [eps_lo, eps_hi], then
    write the scan and its plot, with eps* marked, under ``run_dir``.  A grid
    that rounds to floats that do not increase, and an eps whose ray values
    overflow, are config errors, raised before ``run_dir`` is made."""
    try:
        cols = ray.scan(np.exp(np.linspace(math.log(eps_lo), math.log(eps_hi), count)))
    except ValueError as exc:   # the grid check is the scan's only ValueError
        raise ConfigError(f"--eps-min {eps_lo}, --eps-max {eps_hi} and --points {count} "
                          f"give a bad grid: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"--eps-max {eps_hi} is too large: a power of eps on the ray "
                          "overflows a float") from exc
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_csv(run_dir / "fibering.csv", cols)
    marks, note = [], ""
    try:
        star = ray.epsilon_star(cfg.psi_variant)
        if eps_lo <= star.value <= eps_hi:
            marks.append((star.value, ray.phi(star.value), "eps*"))
        else:
            note = " (eps* outside scanned range)"
    except variational.BracketingError:
        note = " (eps* not bracketed)"
    plot_svg(
        run_dir / "fibering.svg",
        [Series(cols["eps"], cols[name], name)
         for name in ("phi", "psi_consistent", "psi_printed")],
        title="fibering scan" + note, xlabel="eps", ylabel="value", xlog=True,
        marks=marks,
    )


def cmd_fibering(args) -> int:
    lo, hi, points = args.eps_min, args.eps_max, args.points
    if points < 1:
        raise ConfigError(f"--points must be at least 1, got {points}")
    if not 0.0 < lo < hi < math.inf:
        raise ConfigError(f"need 0 < --eps-min < --eps-max < inf, got {lo}, {hi}")
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg, well=False)
    if u0.max_abs() == 0.0 and v0.max_abs() == 0.0:
        raise ValueError("fibering scan needs a nonzero pair")
    ray = variational.FiberingRay.from_pair(u0, v0, params, Kp, Kq)
    run_dir = cfg.run_dir()
    _write_fibering(run_dir, cfg, ray, lo, hi, points)
    print(f"fibering scan with {points} points written to {run_dir}")
    return EXIT_OK


def cmd_well_depth(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, _, _ = _setup(cfg)
    est = _well_estimate(cfg, params, grid, Kp, Kq)
    run_dir = cfg.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_csv(run_dir / "well_samples.csv", {
        "label": [s.label for s in est.samples],
        "eps_star": [s.eps_star for s in est.samples],
        "phi_at_star": [s.phi_at_star for s in est.samples]})
    print(artifacts.json_text({
        "d": est.d, "samples": est.sample_count, "attempted": est.attempted,
        "bracketing_failures": est.bracketing_failures, "seed": est.seed,
        "note": "upper estimate from sampled directions",
    }))
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validate_mod.run_suites(scope=args.scope, psi_variant=args.psi_variant)
    if not results:
        print(f"no suite matches scope {args.scope!r}", file=sys.stderr)
        return EXIT_CONFIG
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.checks} checks")
        for note in r.notes:
            print(f"        note: {note}")
        for msg in r.failures[:4]:
            print(f"        {msg}")
    print(f"suites: {len(results) - len(failed)}/{len(results)} passed")
    if failed:
        print("failing: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_VALIDATE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwell",
        description="Numerical laboratory for a coupled fractional Kirchhoff "
                    "flow with logarithmic coupling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, help="experiment config JSON")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--psi-variant", choices=variational.PSI_VARIANTS,
                        dest="psi_variant", help="Nehari variant override")

    sp = sub.add_parser("simulate", help="integrate the flow and write run artifacts")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("classify", help="classify initial data (no integration)")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("fibering", help="scan the fibering ray of the initial pair")
    common(sp)
    lo, hi, points = FIBERING_SCAN
    sp.add_argument("--eps-min", type=float, default=lo)
    sp.add_argument("--eps-max", type=float, default=hi)
    sp.add_argument("--points", type=int, default=points)
    sp.set_defaults(fn=cmd_fibering)

    sp = sub.add_parser("well-depth", help="sample the well depth estimate")
    common(sp)
    sp.set_defaults(fn=cmd_well_depth)

    sp = sub.add_parser("validate", help="run the invariant suites")
    sp.add_argument("--scope", default="all", help="substring filter on suite names")
    sp.add_argument("--psi-variant", choices=variational.PSI_VARIANTS,
                    dest="psi_variant", default=variational.PSI_VARIANTS[0])
    sp.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
