"""The classifier's verdicts against the flow's outcomes.

``classify_initial_data`` says ``GlobalDecay`` or ``BlowUp`` only below the
well-depth threshold and ``Indeterminate`` between its two edges.  On each
decaying example config, with both amplitudes set to a, ``fracwell simulate``
is run just inside and just outside each edge: a ``GlobalDecay`` verdict must
give a completed horizon and a ``BlowUp`` verdict a blow-up, and on either
side of the flow's flip the indeterminate band holds both outcomes.
"""

import json
from pathlib import Path

import pytest

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
