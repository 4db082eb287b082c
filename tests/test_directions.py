"""The batched well-depth directions and ray sums against one pair at a time.

``estimate_well_depth`` draws, normalizes and sums all its directions as
stacked arrays (``_direction_chunks``, ``_ray_rows``).  The oracles below are
the per-direction code the batch replaced, kept verbatim: every field, both
brackets and the four coupling sums must match it bit for bit, since the
well depth d feeds the classification threshold and every artifact.
"""

import numpy as np
import pytest

from fracwell import (
    GridField, bracket, build_grid, discrete_norm, sample_field,
    validate_params,
)
from fracwell.grids import random_smooth_field
from fracwell.variational import _coupling_rows, _direction_chunks, _ray_rows

PARAMS = validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)
PARAMS_2D = validate_params(N=2, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0, mode="operations")


def _normalized(u: GridField) -> GridField | None:
    n = discrete_norm(u, 2.0)
    if n < 1e-14:
        return None
    return u.scaled(1.0 / n)


def direction_pairs(grid, count, seed, modes=6):
    """Three preset direction pairs, then up to ``count`` random ones, all
    normalized, each as (label, (u, v))."""
    sine = _normalized(sample_field(grid, "sine"))
    bump = _normalized(sample_field(grid, "bump"))
    yield "preset:sine-sine", (sine, sine)
    yield "preset:bump-bump", (bump, bump)
    yield "preset:sine-bump", (sine, bump)
    root = np.random.SeedSequence(seed)
    for k, child in enumerate(root.spawn(count)):
        rng = np.random.default_rng(child)
        u = _normalized(random_smooth_field(grid, rng, modes))
        v = _normalized(random_smooth_field(grid, rng, modes))
        if u is None or v is None:
            continue
        yield f"random:{k}", (u, v)


def lone_couplings(u, v, sigma):
    """The four coupling integrals of one pair, as they were taken per pair."""
    uu, vv = u.values, v.values
    prod = np.abs(uu) * np.abs(vv)
    mask = prod > 0.0
    lg = np.zeros_like(prod)
    lg[mask] = np.log(prod[mask])
    au, av = np.abs(uu), np.abs(vv)
    c = au ** sigma * av ** sigma
    hi = (au * av) ** (sigma + 1.0)
    hN = u.domain.cell_measure
    return dict(coupling_mass=float(np.sum(c) * hN),
                log_coupling=float(np.sum(c[mask] * lg[mask]) * hN),
                coupling_high=float(np.sum(hi) * hN),
                log_coupling_high=float(np.sum(hi[mask] * lg[mask]) * hN))


def lone_sums(u, v, params):
    return dict(bracket_u=bracket(u, params.p, params.s), bracket_v=bracket(v, params.q, params.s),
                **lone_couplings(u, v, params.sigma))


def assert_rows_match(U, V, grid, params):
    got = _ray_rows(U, V, grid, params)
    for i, (u, v) in enumerate(zip(U, V)):
        want = lone_sums(GridField(grid, u), GridField(grid, v), params)
        for name, value in want.items():
            assert np.float64(got[name][i]).tobytes() == np.float64(value).tobytes(), (i, name)


@pytest.mark.parametrize("grid, params, count", [
    (build_grid(1.0, 48), PARAMS, 50),                   # chunks of 21 pairs: 21, 21, 8
    (build_grid([1.0, 1.0], [6, 6]), PARAMS_2D, 30),     # chunks of 28 pairs: 28, 2
], ids=["1d-M48", "2d-6x6"])
def test_batched_directions_equal_one_pair_at_a_time(grid, params, count):
    chunks = list(_direction_chunks(grid, count, seed=5, modes=4))
    assert len(chunks) > 2
    labels = [label for chunk in chunks for label in chunk[0]]
    rows = [(u, v) for _, U, V in chunks for u, v in zip(U, V)]
    want = list(direction_pairs(grid, count, seed=5, modes=4))
    assert labels == [label for label, _ in want]
    for (u, v), (_, (want_u, want_v)) in zip(rows, want, strict=True):
        assert u.tobytes() == want_u.values.tobytes()
        assert v.tobytes() == want_v.values.tobytes()
    for _, U, V in chunks:
        assert_rows_match(U, V, grid, params)


def test_batched_sums_with_vanishing_products():
    # rows where u v = 0 at some nodes (a partial mask), at every node, or nowhere
    grid = build_grid(1.0, 48)
    rng = np.random.default_rng(8)
    U, V = rng.normal(size=(2, 40, 48))
    U[1:30:3, ::5] = 0.0
    V[2:30:3, 7::4] = -0.0
    U[3, :] = 0.0
    V[4, :24] = 0.0
    mask = (U * V) != 0.0
    assert 0 < np.count_nonzero(~mask.all(axis=1)) < 40 and not mask[3].any()
    assert_rows_match(U, V, grid, PARAMS)


def test_coupling_rows_sum_partial_masks_compacted():
    # the compacted sum differs from the zero-filled row's in the last bits
    grid = build_grid(1.0, 48)
    rng = np.random.default_rng(9)
    U, V = rng.lognormal(size=(2, 64, 48))
    U[:, 1::3] = 0.0
    got = _coupling_rows(U, V, PARAMS.sigma, grid.cell_measure)
    filled = [lone_couplings(GridField(grid, u), GridField(grid, v), PARAMS.sigma)
              for u, v in zip(U, V)]
    prod = U * V
    lg = np.log(prod, out=np.zeros_like(prod), where=prod > 0.0)
    c = U ** PARAMS.sigma * V ** PARAMS.sigma
    zero_filled = np.sum(c * lg, axis=1) * grid.cell_measure
    want = np.array([f["log_coupling"] for f in filled])
    assert zero_filled.tobytes() != want.tobytes()       # the data tells them apart
    for name in ("log_coupling", "log_coupling_high"):
        assert got[name].tobytes() == np.array([f[name] for f in filled]).tobytes()


def test_pair_values_stacks_in_pieces():
    # 23 rows at M=40 walk in pieces of 10, 10 and 3 per field
    grid = build_grid(1.0, 40)
    U, V = np.random.default_rng(10).normal(size=(2, 23, 40))
    assert_rows_match(U, V, grid, PARAMS)
