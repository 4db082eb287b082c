import dataclasses
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwell import (
    ExperimentConfig, KirchhoffFn, dynamics, fracops, validate_params, variational,
)
from fracwell import (
    GridField, apply_operator, bilinear_form, bracket, build_grid,
    gagliardo_sum, inner, sample_field,
)
from fracwell.fracops import (
    apply_operator_naive, gagliardo_sum_naive, kernel, weight_table,
)
from fracwell.grids import GridError

# 2-cell grid on (0,1): nodes {0.25, 0.75}, distance 0.5, h = 0.5.
# With p=2, s=0.5, N=1 the kernel exponent is N+sp = 2, so the pair weight is
# 1/0.25 = 4 and all values below are single-pair hand computations.


@pytest.fixture
def step(grid2):
    return GridField(grid2, np.array([1.0, 0.0]))


class TestHandValues:
    def test_gagliardo_two_nodes(self, step):
        assert gagliardo_sum(step, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_bracket_two_nodes(self, step):
        assert bracket(step, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_bilinear_cross(self, grid2, step):
        w = GridField(grid2, np.array([0.0, 1.0]))
        assert bilinear_form(step, w, 2.0, 0.5) == pytest.approx(-2.0, rel=1e-15)

    def test_operator_values_and_duality(self, step):
        Lu = apply_operator(step, 2.0, 0.5)
        assert np.allclose(Lu.values, [4.0, -4.0])
        assert inner(Lu, step) == pytest.approx(gagliardo_sum(step, 2.0, 0.5), rel=1e-15)


class TestDegenerateInputs:
    def test_zero_field(self, grid2):
        z = GridField(grid2, np.zeros(2))
        assert gagliardo_sum(z, 3.0, 0.5) == 0.0
        assert np.all(apply_operator(z, 3.0, 0.5).values == 0.0)

    def test_constant_field(self):
        g = build_grid(1.0, 9)
        c = sample_field(g, "constant", 4.2)
        assert gagliardo_sum(c, 2.5, 0.4) == 0.0

    def test_bilinear_with_constant_direction(self, grid32):
        rng = np.random.default_rng(0)
        u = GridField(grid32, rng.normal(size=32))
        c = sample_field(grid32, "constant", 3.0)
        assert bilinear_form(u, c, 3.0, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_exponent_preconditions(self, step):
        with pytest.raises(ValueError, match="p > 1"):
            gagliardo_sum(step, 1.0, 0.5)
        with pytest.raises(ValueError, match="fractional order"):
            gagliardo_sum(step, 2.0, 1.5)

    def test_domain_mismatch(self, grid2, grid32):
        u = GridField(grid2, np.ones(2))
        w = GridField(grid32, np.ones(32))
        with pytest.raises(GridError):
            bilinear_form(u, w, 2.0, 0.5)


@pytest.mark.parametrize("p", [2.0, 3.0, 3.5])
@pytest.mark.parametrize("make_grid", [lambda: build_grid(1.0, 24),
                                       lambda: build_grid([1.0, 1.0], [6, 6])])
class TestIdentities:
    def test_duality(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 10))
        u = GridField(grid, rng.normal(size=grid.node_count))
        w = GridField(grid, rng.normal(size=grid.node_count))
        bf = bilinear_form(u, w, p, 0.5)
        assert abs(inner(apply_operator(u, p, 0.5), w) - bf) <= 1e-12 * (1 + abs(bf))

    def test_form_diagonal_is_seminorm_sum(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 7))
        u = GridField(grid, rng.normal(size=grid.node_count))
        gag = gagliardo_sum(u, p, 0.5)
        assert bilinear_form(u, u, p, 0.5) == pytest.approx(gag, rel=1e-13)

    def test_bracket_gradient_vs_finite_differences(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 3))
        u = GridField(grid, rng.normal(size=grid.node_count))
        Lu = apply_operator(u, p, 0.5)
        hN = grid.cell_measure
        for idx in rng.choice(grid.node_count, size=4, replace=False):
            d = 1e-6 * (1.0 + abs(u.values[idx]))
            up, um = u.values.copy(), u.values.copy()
            up[idx] += d
            um[idx] -= d
            fd = (bracket(GridField(grid, up), p, 0.5)
                  - bracket(GridField(grid, um), p, 0.5)) / (2 * d)
            assert fd == pytest.approx(hN * Lu.values[idx], rel=1e-5)

    def test_scaling(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 5))
        u = GridField(grid, rng.normal(size=grid.node_count))
        gag = gagliardo_sum(u, p, 0.5)
        eps = 0.731
        assert gagliardo_sum(u.scaled(eps), p, 0.5) == pytest.approx(
            eps ** p * gag, rel=1e-13)


def test_p2_linearity(grid32):
    rng = np.random.default_rng(8)
    u = GridField(grid32, rng.normal(size=32))
    w = GridField(grid32, rng.normal(size=32))
    a, b = 1.7, -0.4
    combo = GridField(grid32, a * u.values + b * w.values)
    expected = a * apply_operator(u, 2.0, 0.5).values + b * apply_operator(w, 2.0, 0.5).values
    assert np.allclose(apply_operator(combo, 2.0, 0.5).values, expected, rtol=1e-12)


def test_vectorized_matches_naive_loops():
    for grid in (build_grid(1.0, 16), build_grid([1.0, 1.0], [4, 4])):
        rng = np.random.default_rng(13)
        u = GridField(grid, rng.normal(size=grid.node_count))
        for p in (2.0, 3.0):
            fast = gagliardo_sum(u, p, 0.5)
            slow = gagliardo_sum_naive(u, p, 0.5)
            assert fast == pytest.approx(slow, rel=1e-12)
            assert np.allclose(apply_operator(u, p, 0.5).values,
                               apply_operator_naive(u, p, 0.5).values, rtol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5])
@pytest.mark.parametrize("grid", [build_grid(1.0, 20), build_grid([1.0, 1.0], [5, 5])],
                         ids=["1d", "2d"])
class TestFusedPass:
    @staticmethod
    def field(grid, p):
        # rounded values repeat, so the difference table holds d = 0 pairs
        # off the diagonal (the 1 < p < 2 power |d|^(p-1) is then 0^(p-1))
        rng = np.random.default_rng(int(p * 11))
        vals = np.round(rng.normal(size=grid.node_count), 1)
        assert len(np.unique(vals)) < grid.node_count
        return GridField(grid, vals)

    def test_equals_separate_passes_exactly(self, p, grid):
        u = self.field(grid, p)
        Lu, gag = fracops._dense_pass(u.values, kernel(u.domain, p, 0.4), True, True)
        assert Lu.shape == (grid.node_count,)
        assert np.array_equal(Lu, apply_operator(u, p, 0.4).values)
        assert gag / p == bracket(u, p, 0.4) == gagliardo_sum(u, p, 0.4) / p

    def test_equals_out_of_place_expressions_exactly(self, p, grid):
        # the in-place buffers must reproduce the plain numpy expressions
        # bit for bit, or the integrator's step sequence changes
        u = self.field(grid, p)
        W = weight_table(grid, p, 0.4)
        du = u.values[:, None] - u.values[None, :]
        h = grid.cell_measure
        Lu, gag = fracops._dense_pass(u.values, kernel(u.domain, p, 0.4), True, True)
        assert gag / p == float(np.sum(np.abs(du) ** p * W) * h ** 2) / p
        assert np.array_equal(
            Lu, 2.0 * h * np.sum(np.sign(du) * np.abs(du) ** (p - 1.0) * W, axis=1))

    def test_matches_naive_loops(self, p, grid):
        u = self.field(grid, p)
        Lu, gag = fracops._dense_pass(u.values, kernel(u.domain, p, 0.4), True, True)
        assert gag == pytest.approx(gagliardo_sum_naive(u, p, 0.4), rel=1e-12)
        slow = apply_operator_naive(u, p, 0.4).values
        assert np.all(np.abs(Lu - slow) <= 1e-12 * (1.0 + np.abs(slow)))


def test_box_seminorm_convergence_order():
    # decay.json's initial pair (sine, amplitude 0.5) on M = 48 ... 768: the
    # order log2 of successive differences of the bracket reads about p(1-s)
    # (1.55, 1.54, 1.53 against 1.5 for u) and q(1-s) (1.82, 1.81, 1.81
    # against 1.75 for v)
    cfg = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "configs" / "decay.json")
    params = cfg.build_params()
    brackets = []
    for m in (48, 96, 192, 384, 768):
        grid = dataclasses.replace(cfg, grid={"extents": [1.0], "counts": [m]}).build_grid()
        u, v = cfg.build_initial_pair(grid)
        brackets.append((bracket(u, params.p, params.s), bracket(v, params.q, params.s)))
    b = np.array(brackets)
    orders = np.log2((b[:-2] - b[1:-1]) / (b[1:-1] - b[2:]))
    assert np.all((1.4 <= orders[:, 0]) & (orders[:, 0] <= 1.7)), orders[:, 0]
    assert np.all((1.7 <= orders[:, 1]) & (orders[:, 1] <= 1.9)), orders[:, 1]


SMALL_GRIDS = [build_grid(1.0, m) for m in range(2, 13)] + [
    build_grid([1.0, 1.0], [2, 2]), build_grid([1.0, 1.0], [3, 3]),
    build_grid([1.5, 2.0], [3, 4])]


@st.composite
def small_fields(draw):
    grid = draw(st.sampled_from(SMALL_GRIDS))
    values = draw(st.lists(
        st.floats(-10.0, 10.0, allow_subnormal=False) | st.sampled_from([0.0, 1.0]),
        min_size=grid.node_count, max_size=grid.node_count))
    return GridField(grid, np.array(values))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(u=small_fields(), p=st.floats(1.0, 4.0, exclude_min=True), s=st.floats(0.05, 0.95))
def test_fused_pass_matches_naive_loops_property(u, p, s):
    # p in (1, 4], 1 < p < 2 included; relative error <= 1e-12, the operator's
    # measured against the sum of its terms' magnitudes (rows may cancel)
    Lu, fused = fracops._dense_pass(u.values, kernel(u.domain, p, s), True, True)
    gag = gagliardo_sum_naive(u, p, s)
    assert abs(fused - gag) <= 1e-12 * gag
    du = np.abs(np.subtract.outer(u.values, u.values))
    W = weight_table(u.domain, p, s)
    scale = 2.0 * u.domain.cell_measure * np.sum(du ** (p - 1.0) * W, axis=1)
    slow = apply_operator_naive(u, p, s).values
    assert np.all(np.abs(Lu - slow) <= 1e-12 * scale)


def test_workspace_reuse_leaves_earlier_results_alone():
    rng = np.random.default_rng(4)
    g16, g24 = build_grid(1.0, 16), build_grid(1.0, 24)
    u, w = (GridField(g16, rng.normal(size=16)) for _ in range(2))
    Lu, A = fracops._dense_pass(u.values, kernel(g16, 3.0, 0.5), True, True)
    kept = Lu.copy()
    buffers = list(fracops._local.buffers)
    assert len(buffers) == 2
    Lw, B = fracops._dense_pass(w.values, kernel(g16, 3.0, 0.5), True, True)
    assert np.array_equal(Lu, kept) and not np.array_equal(Lw, kept)
    assert all(a is b for a, b in zip(fracops._local.buffers, buffers))   # same M: reused
    z = GridField(g24, rng.normal(size=24))
    Lz, C = fracops._dense_pass(z.values, kernel(g24, 2.5, 0.5), True, True)   # new M: reallocated
    assert fracops._local.buffers[0].shape == (24, 24)
    assert np.all(np.abs(Lz - apply_operator_naive(z, 2.5, 0.5).values)
                  <= 1e-12 * (1.0 + np.abs(Lz)))
    assert C == pytest.approx(gagliardo_sum_naive(z, 2.5, 0.5), rel=1e-12)
    again, A2 = fracops._dense_pass(u.values, kernel(g16, 3.0, 0.5), True, True)
    assert np.array_equal(again, kept) and A2 == A
    assert np.array_equal(Lu, kept)
    # another thread passes in a workspace of its own and leaves this one alone
    mine = list(fracops._local.buffers)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(
        (fracops._dense_pass(u.values, kernel(g16, 3.0, 0.5), True, True),
         list(fracops._local.buffers))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (other, A3), theirs = seen[0]
    assert np.array_equal(other, kept) and A3 == A
    assert not any(a is b for a in theirs for b in mine)
    assert all(a is b for a, b in zip(fracops._local.buffers, mine))


# ---------------------------------------------------------------------------
# the dense pass per field, on fields and stacks; a pair's passes run u's
# pass, then v's, on the calling thread
# ---------------------------------------------------------------------------

def _bits(result):
    """The exact bytes of one ``_dense_pass`` result (signed zeros included)."""
    values, gag = result
    return (None if values is None else values.tobytes()), np.float64(gag).tobytes()


def _pair(grid, seed):
    rng = np.random.default_rng(seed)
    return (GridField(grid, rng.normal(size=grid.node_count)),
            GridField(grid, rng.normal(size=grid.node_count)))


def _pair_pass(u, p, v, q, s, operator, seminorm=True):
    """The dense passes of two fields on their kernels, u's then v's."""
    return (fracops._dense_pass(u.values, kernel(u.domain, p, s), operator, seminorm),
            fracops._dense_pass(v.values, kernel(v.domain, q, s), operator, seminorm))


# (operator, seminorm): both, the sums alone, and the operator alone, whose
# values must not depend on whether the sums were taken
PASS_OUTPUTS = pytest.mark.parametrize("operator, seminorm",
                                       [(True, True), (False, True), (True, False)],
                                       ids=["True", "False", "operator-only"])


@PASS_OUTPUTS
@pytest.mark.parametrize("m", [48, 100])
def test_dense_pass_walks_a_stack_in_pieces(m, operator, seminorm):
    # two full pieces and a one-row tail: 15 rows at M=48, 3 at M=100
    step = max(1, fracops._STACK_BYTES // (8 * m * m))
    grid = build_grid(1.0, m)
    U, V = np.random.default_rng(m).normal(size=(2, 2 * step + 1, m))
    for rows, k in ((U, kernel(grid, 3.0, 0.4)), (V, kernel(grid, 3.5, 0.4))):
        values, gag = fracops._dense_pass(rows, k, operator, seminorm)
        assert (values is None) != operator and (gag is None) != seminorm
        for i, row in enumerate(rows):
            lone = fracops._dense_pass(row, k, operator, True)
            if seminorm:
                assert gag.shape == (len(rows),)
                assert _bits((None if values is None else values[i], gag[i])) == _bits(lone), i
            else:   # the operator alone equals the one taken with the sums
                assert values[i].tobytes() == lone[0].tobytes(), i


@pytest.mark.parametrize("p, q", [(1.5, 3.0), (3.0, 2.0)])
def test_dense_pass_signed_zeros_and_ties(p, q):
    # -0.0 - 0.0 = -0.0: the operator's copysign term may carry the sign of
    # that zero where sign(d)|d|^(p-1) gives +0.0; they must still compare equal
    grid = build_grid(1.0, 12)
    u = GridField(grid, np.array([0.0, -0.0, 1.5, 1.5, -1.5, 0.0,
                                  -0.0, 2.0, 1.5, -0.0, 0.25, 0.25]))
    v = GridField(grid, -u.values[::-1])
    du = np.subtract.outer(u.values, u.values)
    zeros = (du == 0.0) & ~np.eye(12, dtype=bool)
    assert np.signbit(du[zeros]).any() and not np.signbit(du[zeros]).all()
    h = grid.cell_measure
    for w, e in ((u, p), (v, q)):
        values, gag = fracops._dense_pass(w.values, kernel(grid, e, 0.4), True, True)
        d = np.subtract.outer(w.values, w.values)
        W = weight_table(grid, e, 0.4)
        assert np.array_equal(
            values, 2.0 * h * np.sum(np.sign(d) * np.abs(d) ** (e - 1.0) * W, axis=1))
        assert np.float64(gag).tobytes() == np.float64(
            float(np.sum(np.abs(d) ** e * W) * h ** 2)).tobytes()
        Lw, _ = fracops._dense_pass(w.values, kernel(grid, e, 0.4), True, False)
        assert np.array_equal(Lw, values)


def test_dense_pass_raises_on_a_table_of_the_wrong_shape():
    # the bad table fails inside the pass itself, on a field or a stack; the
    # next good call on the same workspace gives the results taken before
    grid = build_grid(1.0, 10)
    u, v = _pair(grid, 5)
    stack = np.array([u.values, v.values])
    k = kernel(grid, 3.0, 0.5)
    k_bad = fracops.Kernel(weight_table(build_grid(1.0, 4), 3.0, 0.5), grid.cell_measure, 3.0)
    for values in (u.values, stack):
        want = _bits(fracops._dense_pass(values, k, True, True))
        with pytest.raises(ValueError, match="broadcast"):
            fracops._dense_pass(values, k_bad, True, True)
        assert _bits(fracops._dense_pass(values, k, True, True)) == want


@pytest.mark.parametrize("q", [3.0, 3.5])   # the |d|·d branch and the sign-bit branch
def test_dense_pass_runs_under_the_callers_errstate(q):
    # only v's pass overflows: it follows the caller's np.errstate
    grid = build_grid(1.0, 10)
    u, v = _pair(grid, 6)
    k_u, k_v = kernel(grid, 3.0, 0.5), kernel(grid, q, 0.5)
    huge = v.values * 1e200
    with np.errstate(over="raise"):
        _, gag_u = fracops._dense_pass(u.values, k_u, True, True)
        for seminorm in (True, False):
            with pytest.raises(FloatingPointError):
                fracops._dense_pass(huge, k_v, True, seminorm)
    with np.errstate(over="ignore", invalid="ignore"):
        _, gag_v = fracops._dense_pass(huge, k_v, True, True)
    assert np.isfinite(gag_u) and gag_v == np.inf


@pytest.mark.parametrize("counts", [[512], [24, 24]], ids=["1d-M512", "2d-24x24"])
def test_weight_table_is_built_in_place(counts):
    # a build holds the table, and in 2-D one more axis's squares, at its
    # peak; its bytes are those of the full difference-array formula
    grid = build_grid([1.0] * len(counts), counts)
    x = grid.coords
    for exponent in (2.5, 2.75, 3.5):
        tracemalloc.start()
        try:
            table = fracops._weight_table.__wrapped__(grid, exponent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (grid.ndim + 0.1) * table.nbytes
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(dist, 1.0)
        want = dist ** (-exponent)
        np.fill_diagonal(want, 0.0)
        assert table.tobytes() == want.tobytes()


def test_pair_pass_from_concurrent_callers():
    # more callers than cores, each in its own workspace, get their own results
    pairs = [_pair(build_grid(1.0, 6 + k), k) for k in range(4)]
    expected = [(_bits(fracops._dense_pass(u.values, kernel(u.domain, 3.0, 0.5), True, True)),
                 _bits(fracops._dense_pass(v.values, kernel(v.domain, 2.5, 0.5), True, True)))
                for u, v in pairs]
    wrong = []

    def caller(k):
        u, v = pairs[k]
        for _ in range(50):
            ru, rv = _pair_pass(u, 3.0, v, 2.5, 0.5, True)
            if (_bits(ru), _bits(rv)) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []


def test_pair_pass_builds_a_shared_weight_table_once():
    # with p == q both fields' tables are one: the cache misses once, not once per field
    grid = build_grid(1.0, 400)         # a table no other test asks for
    u, v = _pair(grid, 37)
    params = validate_params(N=1, s=0.37, p=2.75, q=2.75, sigma=4.0, beta=0.0,
                             mode="operations")
    before = fracops._weight_table.cache_info()
    K = KirchhoffFn.constant(1.0)
    variational.FiberingRay.from_pair(u, v, params, K, K)
    after = fracops._weight_table.cache_info()
    assert after.misses - before.misses == 1


def test_kernel_holds_the_shared_weight_table():
    grid = build_grid([1.5, 2.0], [3, 4])
    k = kernel(grid, 2.5, 0.3)
    assert k.W is weight_table(grid, 2.5, 0.3)
    assert k.W is fracops._weight_table(grid, 2.0 + 0.3 * 2.5)
    assert (k.hN, k.p) == (grid.cell_measure, 2.5)


def test_flow_builds_one_weight_table_per_exponent():
    # a flow resolves the kernels of u and v once: one table per exponent,
    # shared with every later flow and kernel on the grid
    grid = build_grid(1.0, 401)         # tables no other test asks for
    params = validate_params(N=1, s=0.37, p=2.75, q=3.25, sigma=4.0, beta=0.0,
                             mode="operations")
    K = KirchhoffFn.constant(1.0)
    before = fracops._weight_table.cache_info()
    flow = dynamics.Flow.on(grid, params, K, K)
    again = dynamics.Flow.on(grid, params, K, K)
    after = fracops._weight_table.cache_info()
    assert after.misses - before.misses == 2
    assert flow.k_p.W is again.k_p.W is weight_table(grid, 2.75, 0.37)
    assert flow.k_q.W is again.k_q.W is weight_table(grid, 3.25, 0.37)
    assert (flow.k_p.p, flow.k_q.p) == (2.75, 3.25)


# ---------------------------------------------------------------------------
# the exact rewrites inside ``_dense_pass``, checked bit for bit on edge
# values; a numpy that rounds one of them differently fails here, by name
# ---------------------------------------------------------------------------

EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-162, -1e-162,
                  1e-300, -1e-300, 1e160, -1e160, 1e300, -1e300, 1.0, -1.5, 3.25,
                  np.inf, -np.inf, np.nan])


def _edge_differences():
    """Every edge value, every difference of two, and 20,000 normal values
    spread over the exponent range: the d a pass can meet."""
    rng = np.random.default_rng(25)
    spread = rng.normal(size=20_000) * 10.0 ** rng.uniform(-300, 300, size=20_000)
    with np.errstate(invalid="ignore"):
        return np.concatenate([EDGES, np.subtract.outer(EDGES, EDGES).ravel(), spread])


def _same_bits(a, b):
    """Equal bytes wherever a is not NaN, and NaN at the same places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_abs_times_d_is_the_copysign_of_the_square():
    d = _edge_differences()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.copysign(np.power(np.abs(d), 2.0), d)
        got = d.copy()
        got *= np.abs(d)
    assert _same_bits(want, got)
    assert np.signbit(got[1]) and not np.signbit(got[0])       # the signs of zero


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_sign_bit_copy_is_copysign(r):
    d = _edge_differences()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = np.power(np.abs(d), r)
    assert not np.signbit(t).any()
    want = np.copysign(t, d)
    got = d.copy()
    fracops._copy_sign(t, got)
    nan = np.isnan(t)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()


@pytest.mark.parametrize("shape", [(20,), (3, 20)], ids=["field", "stack"])
def test_row_broadcast_subtract_is_the_broadcast_subtract(shape):
    rng = np.random.default_rng(7)
    values = rng.permutation(np.resize(EDGES, 60))[:np.prod(shape)].reshape(shape)
    with np.errstate(invalid="ignore"):
        want = np.subtract(values[..., :, None], values[..., None, :])
        got = np.empty(want.shape)
        got[...] = values[..., :, None]
        np.subtract(got, values[..., None, :], out=got)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5])
def test_dense_pass_equals_the_textbook_expressions(p):
    # fields with zeros of both signs, subnormals, ties and values whose
    # powers overflow; the operator's textbook term is copysign(|d|^(p-1), d)
    grid = build_grid(1.0, 24)
    k, h = kernel(grid, p, 0.4), grid.cell_measure
    rng = np.random.default_rng(int(2 * p))
    fields = rng.normal(size=(5, 24))
    fields[:, :8] = [0.0, -0.0, 5e-324, -1e-310, 1.5, 1.5, 1e-300, -1e-300]
    fields[4, 8:10] = 1e300, -1e300
    with np.errstate(over="ignore", invalid="ignore"):
        stack_op, stack_gag = fracops._dense_pass(fields, k, True, True)
        for i, u in enumerate(fields):
            d = u[:, None] - u[None, :]
            op = 2.0 * h * np.sum(np.copysign(np.abs(d) ** (p - 1.0), d) * k.W, axis=1)
            gag = float(np.sum(np.abs(d) ** p * k.W) * h ** 2)
            lone_op, lone_gag = fracops._dense_pass(u, k, True, True)
            assert _same_bits(op, lone_op) and _same_bits(gag, lone_gag), i
            assert _same_bits(op, stack_op[i]) and _same_bits(gag, stack_gag[i]), i
