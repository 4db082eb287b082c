"""The per-process memo of ``estimate_well_depth``.

The estimate reads only the grid, the parameters, the two coefficients, the
sampler settings and the psi variant, never the initial data, so a repeated
call returns the stored estimate.  ``conftest.py`` empties the memo before
every test.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fracwell import KirchhoffFn, build_grid, estimate_well_depth, validate_params, variational
from fracwell.cli import main
from fracwell.params import ParamError
from fracwell.variational import BracketingError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def memo():
    return estimate_well_depth.cache_info()


def test_warm_call_is_the_cold_estimate_without_a_pass(monkeypatch, grid32, flagship_params,
                                                       unit_kirchhoff):
    cold = estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                               directions=10, seed=5)
    calls = []
    real = variational.pair_values
    monkeypatch.setattr(variational, "pair_values", lambda *a: calls.append(a) or real(*a))
    warm = estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                               directions=10, seed=5)
    assert warm is cold and calls == []
    assert (memo().hits, memo().misses) == (1, 1)


@pytest.mark.parametrize("name", ["decay", "blowup", "kirchhoff_decay"])
def test_warm_simulate_matches_a_cold_one(tmp_path, capsys, name):
    config = CONFIGS / f"{name}.json"
    runs = []
    for _ in range(2):
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        run_dir = tmp_path / "run-seed1"
        runs.append((code, capsys.readouterr().out, [
            hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
            for f in ("trace.csv", "summary.json", "outcome.json", "fibering.csv")]))
    assert (memo().hits, memo().misses) == (1, 1)
    assert runs[1] == runs[0]


def test_errors_are_raised_on_every_call(monkeypatch, grid32, flagship_params, unit_kirchhoff):
    ops = validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=3.0, mode="operations")
    for _ in range(2):
        with pytest.raises(ParamError, match="well-regime"):
            estimate_well_depth(grid32, ops, unit_kirchhoff, unit_kirchhoff, directions=5)
    projections = []

    def nothing_bracketed(rays, variant):
        projections.append(variant)
        n = len(rays.bracket_u)
        return np.ones(n), np.zeros(n, dtype=int), np.ones(n, dtype=int)

    monkeypatch.setattr(variational, "_project_rays", nothing_bracketed)
    for _ in range(2):
        with pytest.raises(BracketingError, match="no Nehari point"):
            estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                                directions=5)
    assert len(projections) == 2 and memo().currsize == 0


def test_each_key_part_is_its_own_entry(grid32, flagship_params, unit_kirchhoff):
    base = dict(grid=grid32, params=flagship_params, K_p=unit_kirchhoff, K_q=unit_kirchhoff,
                directions=5, seed=2, modes=6, refine_iters=0, variant="consistent")
    changed = dict(
        grid=build_grid(1.0, 24),
        params=validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.1),
        K_p=KirchhoffFn.constant(2.0), K_q=KirchhoffFn.constant(2.0), directions=6, seed=3,
        modes=5, refine_iters=1, variant="printed")
    first = estimate_well_depth(**base)
    estimates = [first]
    for key, value in changed.items():
        estimates.append(estimate_well_depth(**{**base, key: value}))
        assert memo().misses == len(estimates), key
    assert memo().hits == 0 and memo().currsize == len(changed) + 1
    assert estimate_well_depth(**base) is first


def test_equal_keys_spelled_differently_give_equal_cold_estimates(grid32):
    # keys that compare equal share an entry, so their cold estimates must agree
    spellings = [
        (validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0),
         KirchhoffFn.affine_power(1.0, 0.0, 1.0)),
        (validate_params(N=1, s=0.5, p=3, q=3.5, sigma=4, beta=-0.0),
         KirchhoffFn.affine_power(1, 0, 1)),
    ]
    assert spellings[0] == spellings[1] and hash(spellings[0]) == hash(spellings[1])
    cold = []
    for params, K in spellings:
        estimate_well_depth.cache_clear()
        cold.append(estimate_well_depth(grid32, params, K, K, directions=20, seed=4))
    assert cold[0] == cold[1]
    assert [np.float64(s.phi_at_star).tobytes() for s in cold[0].samples] == [
        np.float64(s.phi_at_star).tobytes() for s in cold[1].samples]
    assert estimate_well_depth(grid32, *spellings[0], spellings[0][1], directions=20,
                               seed=4) is cold[1]


def test_memo_is_bounded(flagship_params, unit_kirchhoff):
    grid = build_grid(1.0, 8)
    bound = variational._WELL_MEMO_SIZE
    for seed in range(bound + 3):
        estimate_well_depth(grid, flagship_params, unit_kirchhoff, unit_kirchhoff,
                            directions=1, seed=seed)
        assert memo().currsize == min(seed + 1, bound)
    assert memo().maxsize == bound and memo().misses == bound + 3
