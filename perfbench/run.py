#!/usr/bin/env python3
"""fracwell benchmark: two seeded CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``fracwell`` from its
``src``.  One client drives the public CLI in process, one command at a time
(a closed loop), with BLAS/OpenMP threads pinned to 1.  The workload's
operations run in passes over the workload for ``--seconds``, and every
operation's output is checked (``check.py``).  Set-up is timed in separate
child processes (``probe.py``).

End-to-end metrics: ``wall_s``, the median wall time of a complete untraced
pass over the workload (every pass's time and the quartiles are printed);
``setup_s``, the median over child processes of the time from start until the
workload is ready (fracwell imported, configs loaded, grids, coefficients,
initial pairs and weight tables built); ``peak_rss_mb``, this process's peak
resident memory; ``ok_ratio``, the share of operations that pass the check,
i.e. 1 - fail_ratio (an end-to-end metric may never read 0).

The first pass always completes; after it no operation starts that would, at
its slowest so far, end past ``--seconds``, so the last pass may be partial.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (the first two complete) and reports the per-layer
metrics from complete passes; spans go to
``perfbench/_work/<workload>/spans.npz``.  Both print every metric by name and
unit, then the run manifest, and as the last line one JSON result.
``--workload all`` runs every workload in turn.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import probe
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
DP5_STAGES_PER_STEP = 6     # rhs evaluations per attempted step after the first (FSAL)

# Per-layer metrics reported as the per-pass span sums or counts of the same name.
SPAN_METRICS = {
    "fracops.apply_operator.calls": "count", "fracops.apply_operator.self_s": "s",
    "fracops.bracket.calls": "count", "fracops.bracket.self_s": "s",
    "fracops.pair_terms": "count", "fracops.bytes_computed": "bytes",
    "variational.energy_report.calls": "count", "variational.energy_report.self_s": "s",
    "variational.fibering_scan.s": "s",
    "variational.estimate_well_depth.s": "s", "variational.estimate_well_depth.self_s": "s",
    "dynamics.integrate.s": "s", "dynamics.integrate.self_s": "s",
    "dynamics.rhs.calls": "count", "dynamics.rhs.self_s": "s",
    "artifacts.write.s": "s", "artifacts.bytes": "bytes", "svgplot.plot_svg.s": "s",
}


def import_fracwell():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = probe.SRC
    sys.path.insert(0, str(src))
    try:
        import fracwell
        from fracwell import artifacts, cli, dynamics, fracops, variational
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fracwell from {src}: {exc}")
    if not Path(fracwell.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: fracwell resolved to {fracwell.__file__}, not {src}")
    return fracwell, fracops, (cli, dynamics, variational, artifacts)


def write_configs(ops, work: Path) -> list[Path]:
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    paths = []
    for i, op in enumerate(ops):
        path = cfg_dir / f"{i:02d}-{op.label}.json"
        path.write_text(json.dumps(op.config, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def measure_setup(config_dir: Path) -> list[float]:
    """Seconds from child start until the workload is ready, per child."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(probe.__file__).resolve()), str(config_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT,
        )
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


class Run:
    """One workload in one process: its operations, passes and results."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.fracwell, self.fracops, self.modules = import_fracwell()
        self.ops = workloads.build(workload, seed)
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.config_paths = write_configs(self.ops, self.work)
        self.oracle = check.RayOracle(self.fracwell)
        self.reference = check.load_reference(workload) if seed == check.DEFAULT_SEED else {}
        self.recorder = spans.Recorder()
        self.passes: list[dict] = []
        self.failures: list[str] = []
        self.slowest: dict[str, float] = {}   # per operation, checks included

    def run_op(self, op, config_path: Path, traced: bool) -> dict:
        out_dir = self.work / "ops" / op.label
        argv = ["simulate", "--config", str(config_path), "--out", str(out_dir)]
        main = self.modules[0].main
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if traced:
                    with spans.installed(self.recorder, self.modules):
                        rc = self.recorder.wrap(spans.CLI_SPAN, main)(argv)
                else:
                    rc = main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a raising op is a failed op
            seconds = time.perf_counter() - t0
            return {"label": op.label, "seconds": seconds, "failures": [f"raised {exc!r}"],
                    "facts": {}}
        seconds = time.perf_counter() - t0
        run_dir = out_dir / f"run-seed{self.seed}"
        failures, facts = check.check_op(rc, run_dir, config_path, self.oracle)
        if op.label in self.reference:
            failures += check.compare_reference(facts, self.reference[op.label])
        return {"label": op.label, "seconds": seconds, "rc": rc, "failures": failures,
                "facts": facts, "run_dir": run_dir}

    def run_pass(self, traced: bool, deadline: float) -> bool:
        """The workload's operations in order, stopping before one that would,
        at its slowest so far, end past ``deadline``.  True when all ran."""
        misses = probe.table_misses(self.fracops)
        results = []
        for op, path in zip(self.ops, self.config_paths):
            t0 = time.perf_counter()
            if t0 + self.slowest.get(op.label, 0.0) > deadline:
                break
            if traced:
                self.recorder.begin_op(len(self.passes))
            results.append(self.run_op(op, path, traced))
            self.slowest[op.label] = max(self.slowest.get(op.label, 0.0),
                                         time.perf_counter() - t0)
        complete = len(results) == len(self.ops)
        if results:
            self.passes.append({"traced": traced, "complete": complete, "ops": results,
                                "wall_s": sum(r["seconds"] for r in results),
                                "table_misses": probe.table_misses(self.fracops) - misses})
        for r in results:
            self.failures += [f"{r['label']}: {msg}" for msg in r["failures"]]
        return complete

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until ``seconds`` have elapsed; with ``trace``, alternately
        untraced and traced.  The first pass (two with ``trace``) completes
        whatever the deadline."""
        deadline = time.perf_counter() + seconds
        required = 2 if trace else 1
        while len(self.passes) < required or time.perf_counter() < deadline:
            index = len(self.passes)
            if not self.run_pass(trace and index % 2 == 1,
                                 math.inf if index < required else deadline):
                return

    def negative_control(self) -> bool:
        """A perturbed copy of the first operation's artifacts must fail the check."""
        first = next((r for r in self.passes[0]["ops"] if "run_dir" in r), None)
        if first is None:
            return False
        op = next(o for o in self.ops if o.label == first["label"])
        copy_dir = self.work / "negative-control"
        shutil.copytree(first["run_dir"], copy_dir)
        check.perturb(copy_dir)
        failures, _ = check.check_op(first["rc"], copy_dir,
                                     self.config_paths[self.ops.index(op)], self.oracle)
        return bool(failures)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def untraced_walls(run: Run) -> list[float]:
    return [p["wall_s"] for p in run.passes if not p["traced"] and p["complete"]]


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    ops = [r for p in run.passes for r in p["ops"]]
    failed = sum(1 for r in ops if r["failures"])
    return {
        "wall_s": (statistics.median(untraced_walls(run)), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }


def per_layer(run: Run, setup_builds: tuple[int, float]) -> dict:
    traced = [p for p in run.passes if p["traced"] and p["complete"]]
    untraced = [p for p in run.passes if not p["traced"] and p["complete"]]
    layer = run.recorder.per_pass()
    rows = []
    for index, p in enumerate(run.passes):
        if not (p["traced"] and p["complete"]):
            continue
        c = layer[index]
        accepted = sum(r["facts"].get("steps_accepted", 0) for r in p["ops"])
        attempted = (c["dynamics.rhs.calls"] - c["dynamics.integrate.calls"]) / DP5_STAGES_PER_STEP
        fracops_self = sum(c[f"{name}.self_s"] for name in spans.FRACOPS_SPANS)
        row = {name: (c[name], unit) for name, unit in SPAN_METRICS.items()}
        row.update({
            "fracops.weight_table.builds": (setup_builds[0] + p["table_misses"], "count"),
            "fracops.weight_table.s": (setup_builds[1], "s"),
            "fracops.self_share": (fracops_self / p["wall_s"], "ratio"),
            "variational.ray_psi_evals": (c["variational.FiberingRay.psi.calls"], "count"),
            "variational.well_yield": (
                c["variational.nehari_found"] / c["variational.directions_attempted"]
                if c["variational.directions_attempted"] else 0.0, "ratio"),
            "dynamics.steps_accepted": (accepted, "count"),
            "dynamics.steps_rejected": (attempted - accepted, "count"),
            "dynamics.accept_ratio": (accepted / attempted if attempted else 0.0, "ratio"),
            "cli.self_s": (c[f"{spans.CLI_SPAN}.self_s"], "s"),
        })
        rows.append(row)
    metrics = {name: (statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    op_s = [r["seconds"] for p in traced for r in p["ops"]]
    q1, med, q3 = quartiles(op_s)
    metrics["cli.op_s"] = (med, "s")
    metrics["cli.op_s.spread"] = ((q3 - q1) / med, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced), "s")
    return dict(sorted(metrics.items()))  # each layer's counts beside its timings


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(run: Run) -> dict:
    import numpy

    return {
        "workload": run.workload, "seed": run.seed,
        "fracwell": run.fracwell.__version__, "numpy": numpy.__version__,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "configs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in run.config_paths},
        "passes": {"untraced": sum(1 for p in run.passes if not p["traced"]),
                   "traced": sum(1 for p in run.passes if p["traced"])},
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    setup_times = measure_setup(run.work / "configs")
    builds = probe.setup(run.fracwell, run.fracops, run.config_paths)
    run.measure(seconds, trace)
    control_flagged = run.negative_control()
    e2e = end_to_end(run, setup_times)
    walls = untraced_walls(run)
    q1, _, q3 = quartiles(walls)
    print(f"== {workload}  seed {seed}  {len(run.passes)} passes of {len(run.ops)} ops")
    print_metrics("end-to-end (complete untraced passes):", e2e)
    print(f"  {len(walls)} complete untraced pass walls (s): "
          f"{' '.join(f'{w:.4f}' for w in walls)}; quartiles {q1:.6g} .. {q3:.6g}; "
          f"setup_s over {len(setup_times)} children {min(setup_times):.4g} .. "
          f"{max(setup_times):.4g} s; fail_ratio {1.0 - e2e['ok_ratio'][0]:.6g}")
    layers = {}
    if trace:
        layers = per_layer(run, builds)
        print_metrics("per-layer (traced passes; per pass, median over passes):", layers)
        run.recorder.save(run.work / "spans.npz")
    print(f"output check: {len(run.failures)} failed checks; negative control "
          f"{'flagged' if control_flagged else 'NOT flagged'}")
    for msg in run.failures[:10]:
        print(f"  FAIL {msg}")
    info = manifest(run)
    (run.work / "manifest.json").write_text(json.dumps(info, indent=2) + "\n")
    print("manifest: " + json.dumps(info, sort_keys=True))
    ops = [r for p in run.passes for r in p["ops"]]
    failed = sum(1 for r in ops if r["failures"])
    return {
        "correct": failed == 0 and control_flagged,
        "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in (layers if trace else e2e).items()},
        "facts": {r["label"]: r["facts"] for r in run.passes[0]["ops"]},
    }


def record_reference() -> None:
    ref = {}
    for name in workloads.WORKLOADS:
        result = run_workload(name, check.DEFAULT_SEED, 0.0, False)
        ref[name] = {label: {k: v for k, v in facts.items() if k in check.REFERENCE_KEYS}
                     for label, facts in result["facts"].items()}
    check.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from one pass per workload at the default seed")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.record_reference:
        record_reference()
        return 0

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
        del result["facts"]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
