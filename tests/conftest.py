import numpy as np
import pytest

from fracwell import KirchhoffFn, build_grid, validate_params, variational
from fracwell.grids import random_smooth_field


@pytest.fixture(autouse=True)
def cold_well_depth():
    """Every test starts with an empty well-depth memo, so no test reads an
    estimate that an earlier test computed and each one's count of passes,
    rays and misses is its own."""
    variational.estimate_well_depth.cache_clear()


@pytest.fixture(scope="session")
def flagship_params():
    """Admissible exponent tuple used throughout: N=1, s=0.5, p=3, q=3.5, sigma=4."""
    return validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)


@pytest.fixture(scope="session")
def unit_kirchhoff():
    return KirchhoffFn.constant(1.0)


@pytest.fixture(scope="session")
def grid2():
    """Two cells on (0, 1): nodes {0.25, 0.75}, h = 0.5."""
    return build_grid(1.0, 2)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(1.0, 32)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(1.0, 48)


def random_pair(grid, seed, modes=5):
    rng = np.random.default_rng(seed)
    return (random_smooth_field(grid, rng, modes),
            random_smooth_field(grid, rng, modes))
