"""Command-line driver: simulate, classify, fibering, well-depth, validate.

Exit codes: 0 success (completed horizon), 10 blow-up observed (an expected
scientific outcome, distinguished from failure), 1 configuration error,
2 runtime failure, 3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback

import numpy as np

from . import artifacts, dynamics, validate as validate_mod, variational
from .config import ConfigError, ExperimentConfig
from .svgplot import Series, plot_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VALIDATE = 3
EXIT_BLOWUP = 10


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


def _setup(cfg: ExperimentConfig):
    params = cfg.build_params()
    grid = cfg.build_grid()
    Kp, Kq = cfg.build_kirchhoff()
    u0, v0 = cfg.build_initial_pair(grid)
    return params, grid, Kp, Kq, u0, v0


def _well_estimate(cfg, params, grid, Kp, Kq):
    wd = cfg.well_depth
    return variational.estimate_well_depth(
        grid, params, Kp, Kq,
        directions=int(wd["directions"]), seed=cfg.seed, modes=int(wd["modes"]),
        refine_iters=int(wd.get("refine_iters", 0)), variant=cfg.psi_variant,
    )


def _classification(cfg, params, grid, Kp, Kq, u0, v0):
    est = _well_estimate(cfg, params, grid, Kp, Kq)
    d_star = variational.compute_d_star(est.d, u0, v0, params)
    cls = variational.classify_initial_data(
        u0, v0, params, Kp, Kq, d_star, variant=cfg.psi_variant, d=est.d
    )
    return est, cls


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg)
    _, cls = _classification(cfg, params, grid, Kp, Kq, u0, v0)
    print(json.dumps(cls.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg)
    est, cls = _classification(cfg, params, grid, Kp, Kq, u0, v0)

    controls = dynamics.IntegratorControls(
        **{k: None if v is None else float(v) for k, v in cfg.integrator.items()})
    trace = dynamics.integrate(u0, v0, params, Kp, Kq, controls)

    run_dir = cfg.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_field_csv(run_dir / "initial_u.csv", u0)
    artifacts.write_field_csv(run_dir / "initial_v.csv", v0)
    artifacts.write_trace_csv(run_dir / "trace.csv", trace)

    fit = None
    if trace.outcome.kind == "CompletedHorizon":
        fit = dynamics.decay_fit(trace)
    outcome_payload = trace.outcome.to_json_dict()
    outcome_payload["t_max_bound"] = (
        None if math.isinf(cls.t_max_bound) else cls.t_max_bound
    )
    outcome_payload["decay_fit"] = None if fit is None else dataclasses.asdict(fit)
    artifacts.write_json(run_dir / "outcome.json", outcome_payload)

    summary = {
        "classification": cls.to_json_dict(),
        "outcome": trace.outcome.to_json_dict(),
        "decay_fit": None if fit is None else dataclasses.asdict(fit),
        "bound_comparisons": _bound_comparisons(cls, trace, fit),
        "well_depth": {"d": est.d, "samples": est.sample_count,
                       "bracketing_failures": est.bracketing_failures},
        "residual_max_abs": (
            dynamics.energy_identity_residual(trace).max_abs
            if len(trace.records) >= 2 else 0.0
        ),
    }
    artifacts.write_json(run_dir / "summary.json", summary)
    _emit_plots(run_dir, cfg, params, Kp, Kq, u0, v0, trace)

    print(f"outcome: {trace.outcome.kind} at t={trace.outcome.t:.6g} "
          f"(verdict {cls.verdict}); artifacts in {run_dir}")
    return EXIT_BLOWUP if trace.outcome.kind == "BlowUp" else EXIT_OK


def _bound_comparisons(cls, trace, fit) -> dict:
    """Always pairs of numbers, never a bare verdict."""
    out = {}
    out["t_detect_vs_t_max_bound"] = {
        "t_detect": trace.outcome.t if trace.outcome.kind == "BlowUp" else None,
        "t_max_bound": None if math.isinf(cls.t_max_bound) else cls.t_max_bound,
    }
    out["fitted_vs_predicted_decay"] = {
        "fitted_kind": None if fit is None else fit.kind,
        "fitted_rate_or_exponent": None if fit is None else fit.rate,
        "predicted_kind": None if fit is None else fit.predicted_kind,
        "predicted_exponent": None if fit is None else fit.predicted_exponent,
    }
    return out


def _emit_plots(run_dir, cfg, params, Kp, Kq, u0, v0, trace):
    ts, phis, mass = trace.times, trace.phis, trace.mass
    plot_svg(run_dir / "phi_linear.svg", [Series(ts, phis, "phi")],
             title="energy vs time", xlabel="t", ylabel="phi")
    plot_svg(run_dir / "phi_log.svg", [Series(ts, phis, "phi")],
             title="energy vs time (log)", xlabel="t", ylabel="phi", ylog=True)
    plot_svg(run_dir / "mass.svg", [Series(ts, mass, "|u|^2+|v|^2")],
             title="squared-norm sum vs time", xlabel="t", ylabel="mass")
    try:
        _fibering_artifacts(run_dir, cfg, params, Kp, Kq, u0, v0,
                            eps_lo=1e-2, eps_hi=1e2, count=121)
    except (ValueError, variational.BracketingError):
        pass  # zero pair etc.: the scan is auxiliary to a simulate run


def _fibering_artifacts(run_dir, cfg, params, Kp, Kq, u0, v0, eps_lo, eps_hi, count):
    eps_grid = np.exp(np.linspace(math.log(eps_lo), math.log(eps_hi), count))
    # one ray of the pair serves the scan, eps* and its mark
    ray, rows = variational._scan_pair(u0, v0, params, Kp, Kq, eps_grid)
    artifacts.write_fibering_csv(run_dir / "fibering.csv", rows)
    marks = []
    note = ""
    try:
        star = variational._epsilon_star(ray, cfg.psi_variant)
        if eps_lo <= star.value <= eps_hi:
            marks.append((star.value, ray.phi(star.value), "eps*"))
        else:
            note = " (eps* outside scanned range)"
    except variational.BracketingError:
        note = " (eps* not bracketed)"
    es = np.array([r["eps"] for r in rows])
    plot_svg(
        run_dir / "fibering.svg",
        [
            Series(es, np.array([r["phi"] for r in rows]), "phi"),
            Series(es, np.array([r["psi_consistent"] for r in rows]), "psi_consistent"),
            Series(es, np.array([r["psi_printed"] for r in rows]), "psi_printed"),
        ],
        title="fibering scan" + note, xlabel="eps", ylabel="value", xlog=True,
        marks=marks,
    )
    return rows


def cmd_fibering(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, u0, v0 = _setup(cfg)
    run_dir = cfg.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    rows = _fibering_artifacts(run_dir, cfg, params, Kp, Kq, u0, v0,
                               args.eps_min, args.eps_max, args.points)
    print(f"fibering scan with {len(rows)} points written to {run_dir}")
    return EXIT_OK


def cmd_well_depth(args) -> int:
    cfg = _load_config(args)
    params, grid, Kp, Kq, _, _ = _setup(cfg)
    est = _well_estimate(cfg, params, grid, Kp, Kq)
    run_dir = cfg.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_well_samples_csv(run_dir / "well_samples.csv", est)
    print(json.dumps({
        "d": est.d, "samples": est.sample_count, "attempted": est.attempted,
        "bracketing_failures": est.bracketing_failures, "seed": est.seed,
        "note": "upper estimate from sampled directions",
    }, indent=2, sort_keys=True))
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
        sp.add_argument("--psi-variant", choices=("consistent", "printed"),
                        dest="psi_variant", help="Nehari variant override")

    sp = sub.add_parser("simulate", help="integrate the flow and write run artifacts")
    common(sp)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("classify", help="classify initial data (no integration)")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("fibering", help="scan the fibering ray of the initial pair")
    common(sp)
    sp.add_argument("--eps-min", type=float, default=1e-2)
    sp.add_argument("--eps-max", type=float, default=1e2)
    sp.add_argument("--points", type=int, default=121)
    sp.set_defaults(fn=cmd_fibering)

    sp = sub.add_parser("well-depth", help="sample the well depth estimate")
    common(sp)
    sp.set_defaults(fn=cmd_well_depth)

    sp = sub.add_parser("validate", help="run the invariant suites")
    sp.add_argument("--scope", default="all", help="substring filter on suite names")
    sp.add_argument("--psi-variant", choices=("consistent", "printed"),
                    dest="psi_variant", default="consistent")
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
