"""The batched Nehari projection against a scalar bisection per ray.

``estimate_well_depth`` projects every sampled direction at once through
``variational._project_rays``.  The oracle below is the scalar bisection the
batch replaced, kept verbatim: the batch must reproduce its eps*, iteration
count, phi at eps* and bracketing failures bit for bit, because the well
depth d feeds the classification threshold and every artifact downstream.
"""

import dataclasses
import math

import numpy as np
import pytest

from fracwell import (
    BracketingError, EpsilonStar, FiberingRay, GridField, KirchhoffFn, build_grid,
    validate_params,
)
from fracwell import variational
from fracwell.grids import random_smooth_field
from fracwell.variational import _direction_chunks, _project_rays


def scalar_epsilon_star(ray, variant, eps_min=1e-8, eps_max=1e8, rel_tol=1e-10):
    f = lambda e: ray.psi(e, variant)
    f1 = f(1.0)
    iters = 0
    if f1 == 0.0:
        return EpsilonStar(1.0, 0.0, ray.psi_scale(1.0), 0)
    if f1 > 0.0:
        lo, hi = 1.0, 2.0
        while f(hi) > 0.0:
            lo, hi = hi, hi * 2.0
            iters += 1
            if hi > eps_max:
                raise BracketingError("fibering root not bracketed above")
    else:
        lo, hi = 0.5, 1.0
        while f(lo) <= 0.0:
            lo, hi = lo * 0.5, lo
            iters += 1
            if lo < eps_min:
                raise BracketingError("fibering root not bracketed below")
    # invariant: f(lo) > 0 >= f(hi); bisect in log space
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
        if iters > 400:
            break
    star = math.sqrt(lo * hi)
    return EpsilonStar(star, f(star), ray.psi_scale(star), iters)


def oracle(ray, variant, **kw):
    """(eps*, iterations, side, phi at eps*) of the scalar bisection."""
    try:
        star = scalar_epsilon_star(ray, variant, **kw)
    except BracketingError as exc:
        return None, None, 1 if "above" in str(exc) else -1, None
    return star.value, star.iterations, 0, ray.phi(star.value)


COEFFICIENTS = {
    "unit": (KirchhoffFn.constant(1.0),
             dict(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)),
    "affine_power": (KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25),
                     dict(N=1, s=0.5, p=3.0, q=3.5, sigma=4.4, beta=0.25)),
    "log1p": (KirchhoffFn.log1p(beta=1.0),
              dict(N=1, s=0.5, p=2.0, q=2.5, sigma=4.0, beta=1.0, mode="operations")),
    "table": (KirchhoffFn.from_table([0.0, 0.5, 2.0, 10.0], [1.0, 1.2, 2.0, 3.0], beta=0.5),
              dict(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)),
}


@pytest.fixture(scope="module", params=sorted(COEFFICIENTS))
def rays(request):
    """63 sampled rays, then five made-up ones (see MADE_UP).

    The sampled directions are scaled from 1e-2 to 1e2, so that eps* spreads
    over four decades and the bracket expands both ways before bisecting."""
    K, kw = COEFFICIENTS[request.param]
    params = validate_params(**kw)
    grid = build_grid(1.0, 24)
    pairs = [(u, v) for _, U, V in _direction_chunks(grid, 60, seed=11) for u, v in zip(U, V)]
    sampled = [FiberingRay.from_pair(GridField(grid, a * u), GridField(grid, a * v),
                                     params, K, K)
               for a, (u, v) in zip(np.logspace(-2.0, 2.0, 63), pairs)]
    assert len(sampled) == 63
    return sampled + [dataclasses.replace(sampled[0], **sums) for sums in MADE_UP]


def _sums(bracket=0.0, mass=0.0, log=0.0):
    return dict(bracket_u=bracket, bracket_v=2.0 * bracket, coupling_mass=mass,
                log_coupling=log, coupling_high=mass, log_coupling_high=log)


# With no seminorm, psi(eps) = -2 eps^(2 sigma [+ 2]) (log + 2 log(eps) mass),
# which is exactly 0 where log = -2 log(eps) mass.
MADE_UP = [
    _sums(),                                          # psi = 0 at eps = 1
    _sums(bracket=1.0),                               # no coupling: no root above
    _sums(mass=1.0, log=100.0),                       # psi <= 0 down to 1e-8: none below
    _sums(mass=1.0, log=-(2.0 * np.log(2.0))),        # psi(2) = 0: stop expanding up
    _sums(mass=1.0, log=-(2.0 * np.log(0.5))),        # psi(1/2) = 0: keep expanding down
]


def batch_results(rays, variant):
    batch = FiberingRay.stack(rays)
    star, iters, side = _project_rays(batch, variant)
    found = np.flatnonzero(side == 0)
    phis = dict(zip(found.tolist(), batch.take(found).phi(star[found])))
    return [(float(star[i]), int(iters[i]), 0, phis[i]) if side[i] == 0
            else (None, None, int(side[i]), None) for i in range(len(rays))]


@pytest.mark.parametrize("variant", ["consistent", "printed"])
def test_batch_equals_scalar_bisection_bitwise(rays, variant):
    want = [oracle(ray, variant) for ray in rays]
    assert batch_results(rays, variant) == want
    # every case of the rules is exercised
    exact, above, below, zero_up, zero_down = want[-5:]
    assert exact == (1.0, 0, 0, 0.0)
    assert (above[2], below[2]) == (1, -1)
    assert zero_up[0] == pytest.approx(2.0) and zero_down[0] == pytest.approx(0.5)
    assert len({w[1] for w in want[:-5]}) > 5


def test_iteration_cap(rays, monkeypatch):
    # with rel_tol = 0 the bisection only stops at the 400-iteration cap
    want = [oracle(ray, "consistent", rel_tol=0.0) for ray in rays[:8]]
    assert {w[1] for w in want} == {401}
    monkeypatch.setattr(variational, "_REL_TOL", 0.0)
    assert batch_results(rays[:8], "consistent") == want


def test_ray_powers_match_scalar_calls(rays):
    # the batch's eps powers go through libm pow, so array evaluation equals
    # the scalar calls of a lone ray bit for bit
    batch = FiberingRay.stack(rays[:63])
    eps = np.exp(np.linspace(-5.0, 5.0, 63))
    for method in ("phi", "psi_consistent", "psi_printed", "psi_scale"):
        got = getattr(batch, method)(eps)
        want = [getattr(ray, method)(e) for ray, e in zip(rays, eps.tolist())]
        assert got.tolist() == want, method


@pytest.mark.parametrize("counts", [[40], [6, 5]])
def test_random_field_equals_inline_sines(counts):
    # the cached sine table reproduces the per-call formula bit for bit
    grid = build_grid([1.2, 1.0][:len(counts)], counts)
    x, modes = grid.coords, 4
    want = np.zeros(grid.node_count)
    rng = np.random.default_rng(3)
    if grid.ndim == 1:
        for k in range(1, modes + 1):
            want += rng.normal() / k ** 2 * np.sin(k * np.pi * x[:, 0] / grid.extents[0])
    else:
        for k in range(1, modes + 1):
            for l in range(1, modes + 1):
                want += rng.normal() / (k ** 2 + l ** 2) * np.sin(
                    k * np.pi * x[:, 0] / grid.extents[0]
                ) * np.sin(l * np.pi * x[:, 1] / grid.extents[1])
    got = random_smooth_field(grid, np.random.default_rng(3), modes)
    assert np.array_equal(got.values, want)
