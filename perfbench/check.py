"""Output checker behind ``ok_ratio``.

Every ``simulate`` operation is checked from its exit code and artifacts:

- the exit code matches the outcome: 0 for a completed horizon, 10 for BlowUp;
- ``summary.json`` ``residual_max_abs`` is within the tolerance of the
  ``energy-dissipation`` validate suite, 1e-5 (1 + max |phi|).  The suite
  writes 1 + |phi(0)|, which is the same on a decaying run; a blow-up run
  moves through energies far beyond |phi(0)|, and the residual is integrator
  error relative to those;
- ``trace.csv`` phi is non-increasing within that suite's slack,
  1e-7 (1 + |phi(0)|);
- the well depth ``d`` is positive;
- every ``fibering.csv`` row matches ``FiberingRay.from_pair(u0, v0)``
  evaluated through the public API, within RAY_TOL relative to
  |value| + psi_scale(eps).

At the default seed the scalar facts of each operation are also compared with
``reference.json``, recorded at the commit that defined the benchmark, within
REFERENCE_TOL relative.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-5
PHI_SLACK = 1e-7
RAY_TOL = 1e-9
REFERENCE_TOL = 1e-6
DEFAULT_SEED = 1
REFERENCE_KEYS = ("kind", "phi0", "phi_end", "d")
EXIT_FOR_OUTCOME = {"CompletedHorizon": 0, "BlowUp": 10}
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_csv(path)
    k = header.index(name)
    return np.array([float(r[k]) for r in rows])


class RayOracle:
    """FiberingRay of each config's initial pair, built once per config file."""

    def __init__(self, fracwell):
        self.fracwell = fracwell
        self._rays = {}

    def ray(self, config_path: Path):
        if config_path not in self._rays:
            cfg = self.fracwell.ExperimentConfig.load(config_path)
            params, grid = cfg.build_params(), cfg.build_grid()
            kp, kq = cfg.build_kirchhoff()
            u0, v0 = cfg.build_initial_pair(grid)
            self._rays[config_path] = self.fracwell.FiberingRay.from_pair(u0, v0, params, kp, kq)
        return self._rays[config_path]


def _check_fibering_rows(path: Path, ray, failures: list[str]) -> None:
    header, rows = read_csv(path)
    for row in rows:
        rec = dict(zip(header, map(float, row)))
        eps = rec["eps"]
        for key, fn in (("phi", ray.phi), ("psi_consistent", ray.psi_consistent),
                        ("psi_printed", ray.psi_printed)):
            want = float(fn(eps))
            if not abs(rec[key] - want) <= RAY_TOL * (abs(want) + ray.psi_scale(eps)):
                failures.append(f"fibering.csv {key} at eps={eps:.6g}: {rec[key]!r} != ray {want!r}")
                return


def _simulate(rc, run_dir: Path, failures: list[str]) -> dict:
    outcome = json.loads((run_dir / "outcome.json").read_text())
    summary = json.loads((run_dir / "summary.json").read_text())
    kind = outcome["kind"]
    if EXIT_FOR_OUTCOME.get(kind) != rc:
        failures.append(f"exit code {rc} does not match outcome {kind}")
    phis = column(run_dir / "trace.csv", "phi")
    resid = summary["residual_max_abs"]
    if not resid <= RESIDUAL_TOL * (1.0 + float(np.max(np.abs(phis)))):
        failures.append(f"residual_max_abs {resid!r} > {RESIDUAL_TOL} (1 + max |phi|)")
    rise = float(np.max(np.diff(phis), initial=0.0))
    if not rise <= PHI_SLACK * (1.0 + abs(phis[0])):
        failures.append(f"phi increased by {rise!r} between accepted steps")
    d = summary["well_depth"]["d"]
    if not (isinstance(d, float) and math.isfinite(d) and d > 0.0):
        failures.append(f"well depth d = {d!r} is not positive")
    facts = {"kind": kind, "phi0": float(phis[0]), "d": d, "steps_accepted": len(phis) - 1}
    if kind == "CompletedHorizon":
        facts["phi_end"] = float(phis[-1])
    return facts


def check_op(rc, run_dir: Path, config_path: Path,
             oracle: RayOracle) -> tuple[list[str], dict]:
    """Failure messages (empty when the operation is correct) and its facts."""
    failures: list[str] = []
    try:
        facts = _simulate(rc, run_dir, failures)
        _check_fibering_rows(run_dir / "fibering.csv", oracle.ray(config_path), failures)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        failures.append(f"unreadable output: {exc!r}")
        facts = {}
    return failures, facts


def load_reference(workload: str) -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text()).get(workload, {})


def compare_reference(facts: dict, reference: dict) -> list[str]:
    failures = []
    for key, want in reference.items():
        got = facts.get(key)
        if isinstance(want, float):
            ok = isinstance(got, float) and abs(got - want) <= REFERENCE_TOL * abs(want)
        else:
            ok = got == want
        if not ok:
            failures.append(f"{key} = {got!r}, reference {want!r}")
    return failures


def perturb(run_dir: Path) -> None:
    """Corrupt one artifact the checks read, for the negative control."""
    path = run_dir / "trace.csv"
    header, rows = read_csv(path)
    k = header.index("phi")
    phi0 = float(rows[0][k])
    rows[-1][k] = repr(phi0 + 1.0 + abs(phi0))
    write_csv(path, header, rows)
