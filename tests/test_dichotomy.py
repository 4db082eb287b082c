"""The classifier's verdicts against the flow's outcomes.

``classify_initial_data`` says ``GlobalDecay`` or ``BlowUp`` only below the
well-depth threshold and ``Indeterminate`` between its two edges.  On each
decaying example config, with both amplitudes set to a, ``fracwell simulate``
is run just inside and just outside each edge: a ``GlobalDecay`` verdict must
give a completed horizon and a ``BlowUp`` verdict a blow-up, and on either
side of the flow's flip the indeterminate band holds both outcomes.  On
``decay`` the verdict edges, the flip and the amplitude where psi0 = 0 are
bisected and checked in the order the table of ROADMAP item 3 gives.
"""

import json
from pathlib import Path

import pytest

from fracwell import (
    ExperimentConfig, FiberingRay, IntegratorControls, classify_initial_data,
    estimate_well_depth, integrate, sample_field,
)
from fracwell.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (config, amplitude, verdict, outcome) at M = 48 and seed 1
CASES = [
    ("decay", 0.90, "GlobalDecay", "CompletedHorizon"),
    ("decay", 0.95, "Indeterminate", "CompletedHorizon"),
    ("decay", 1.75, "Indeterminate", "BlowUp"),
    ("decay", 1.85, "BlowUp", "BlowUp"),
    ("kirchhoff_decay", 0.30, "GlobalDecay", "CompletedHorizon"),
    ("kirchhoff_decay", 0.40, "Indeterminate", "CompletedHorizon"),
    ("kirchhoff_decay", 1.80, "Indeterminate", "BlowUp"),
    ("kirchhoff_decay", 1.90, "BlowUp", "BlowUp"),
]


@pytest.mark.parametrize("name, amplitude, verdict, outcome", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_verdict_against_flow_outcome(tmp_path, name, amplitude, verdict, outcome):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    assert raw["grid"]["counts"] == [48] and raw["seed"] == 1
    raw["initial_u"]["amplitude"] = raw["initial_v"]["amplitude"] = amplitude
    raw["output_dir"] = str(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path)]) == (10 if outcome == "BlowUp" else 0)
    summary = json.loads((tmp_path / "run-seed1" / "summary.json").read_text())
    assert (summary["classification"]["verdict"], summary["outcome"]["kind"]) == (
        verdict, outcome)


def bisect(holds, lo, hi, tol):
    """[lo, hi] narrowed to width tol around the point where ``holds``, true
    at lo and false at hi, turns false."""
    assert holds(lo) and not holds(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo, hi


def test_edges_flip_and_nehari_point_are_ordered():
    # measured to 1e-3: GlobalDecay edge 0.9272 < flip 1.2974 < psi0 = 0 at
    # 1.3989 < BlowUp edge 1.7896, and d = 0.934 <= phi0 = 0.993 at the flip
    cfg = ExperimentConfig.load(CONFIGS / "decay.json")
    params, grid = cfg.build_params(), cfg.build_grid()
    Kp, Kq = cfg.build_kirchhoff()
    d = estimate_well_depth(grid, params, Kp, Kq, seed=cfg.seed, variant=cfg.psi_variant,
                            **cfg.well_depth).d

    def classify(a):
        u = sample_field(grid, "sine", a)
        return classify_initial_data(u, u, FiberingRay.from_pair(u, u, params, Kp, Kq), d)

    def decays(a):
        u = sample_field(grid, "sine", a)
        trace = integrate(u, u, params, Kp, Kq, IntegratorControls(**cfg.integrator))
        return trace.outcome.kind == "CompletedHorizon"

    unit = sample_field(grid, "sine")
    nehari = FiberingRay.from_pair(unit, unit, params, Kp, Kq).epsilon_star().value
    decay_edge = bisect(lambda a: classify(a).verdict == "GlobalDecay", 0.5, nehari, 1e-4)
    blowup_edge = bisect(lambda a: classify(a).verdict != "BlowUp", nehari, 3.0, 1e-4)
    flip = bisect(decays, decay_edge[0], blowup_edge[1], 1e-2)
    assert decay_edge[1] < flip[0] and flip[1] < nehari < blowup_edge[0]
    # psi0 > 0 below the Nehari point, so phi0 rises along the flip's bracket
    assert d <= classify(flip[0]).phi0
