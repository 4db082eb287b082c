import os
import signal
import sys
import threading
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwell import fracops
from fracwell import (
    GridField, apply_operator, bilinear_form, bracket, build_grid,
    gagliardo_sum, inner, operator_and_bracket, sample_field,
)
from fracwell.fracops import apply_operator_naive, gagliardo_sum_naive, weight_table
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


def test_translation_invariance():
    # the kernel depends on node distances only; the shifted coordinates round
    # to doubles, so agreement holds to the cancellation level, not exactly
    base = build_grid(1.0, 20)
    shifted = build_grid(1.0, 20, origins=7.5)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=20)
    for p in (2.0, 3.5):
        assert gagliardo_sum(GridField(base, vals), p, 0.5) == pytest.approx(
            gagliardo_sum(GridField(shifted, vals), p, 0.5), rel=1e-12)
        assert np.allclose(apply_operator(GridField(base, vals), p, 0.5).values,
                           apply_operator(GridField(shifted, vals), p, 0.5).values,
                           rtol=1e-12)


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
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert Lu.domain == grid
        assert np.array_equal(Lu.values, apply_operator(u, p, 0.4).values)
        assert A == bracket(u, p, 0.4) == gagliardo_sum(u, p, 0.4) / p

    def test_equals_out_of_place_expressions_exactly(self, p, grid):
        # the in-place buffers must reproduce the plain numpy expressions
        # bit for bit, or the integrator's step sequence changes
        u = self.field(grid, p)
        W = weight_table(grid, p, 0.4)
        du = u.values[:, None] - u.values[None, :]
        h = grid.cell_measure
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert A == float(np.sum(np.abs(du) ** p * W) * h ** 2) / p
        assert np.array_equal(
            Lu.values, 2.0 * h * np.sum(np.sign(du) * np.abs(du) ** (p - 1.0) * W, axis=1))

    def test_matches_naive_loops(self, p, grid):
        u = self.field(grid, p)
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert A * p == pytest.approx(gagliardo_sum_naive(u, p, 0.4), rel=1e-12)
        slow = apply_operator_naive(u, p, 0.4).values
        assert np.all(np.abs(Lu.values - slow) <= 1e-12 * (1.0 + np.abs(slow)))


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
    Lu, A = operator_and_bracket(u, p, s)
    gag = gagliardo_sum_naive(u, p, s)
    assert abs(A * p - gag) <= 1e-12 * gag
    du = np.abs(np.subtract.outer(u.values, u.values))
    W = weight_table(u.domain, p, s)
    scale = 2.0 * u.domain.cell_measure * np.sum(du ** (p - 1.0) * W, axis=1)
    slow = apply_operator_naive(u, p, s).values
    assert np.all(np.abs(Lu.values - slow) <= 1e-12 * scale)


def test_workspace_reuse_leaves_earlier_results_alone():
    rng = np.random.default_rng(4)
    g16, g24 = build_grid(1.0, 16), build_grid(1.0, 24)
    u, w = (GridField(g16, rng.normal(size=16)) for _ in range(2))
    Lu, A = operator_and_bracket(u, 3.0, 0.5)
    kept = Lu.values.copy()
    buffers = list(fracops._local.buffers)
    assert len(buffers) == 2
    Lw, B = operator_and_bracket(w, 3.0, 0.5)
    assert np.array_equal(Lu.values, kept) and not np.array_equal(Lw.values, kept)
    assert all(a is b for a, b in zip(fracops._local.buffers, buffers))   # same M: reused
    z = GridField(g24, rng.normal(size=24))
    Lz, C = operator_and_bracket(z, 2.5, 0.5)                          # new M: reallocated
    assert fracops._local.buffers[0].shape == (24, 24)
    assert np.all(np.abs(Lz.values - apply_operator_naive(z, 2.5, 0.5).values)
                  <= 1e-12 * (1.0 + np.abs(Lz.values)))
    assert C * 2.5 == pytest.approx(gagliardo_sum_naive(z, 2.5, 0.5), rel=1e-12)
    again, A2 = operator_and_bracket(u, 3.0, 0.5)
    assert np.array_equal(again.values, kept) and A2 == A
    assert np.array_equal(Lu.values, kept)
    # another thread passes in a workspace of its own and leaves this one alone
    mine = list(fracops._local.buffers)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(
        (operator_and_bracket(u, 3.0, 0.5), list(fracops._local.buffers))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (other, A3), theirs = seen[0]
    assert np.array_equal(other.values, kept) and A3 == A
    assert not any(a is b for a in theirs for b in mine)
    assert all(a is b for a, b in zip(fracops._local.buffers, mine))


# ---------------------------------------------------------------------------
# pair pass: v's pass on the worker thread
# ---------------------------------------------------------------------------

def _bits(result):
    """The exact bytes of one ``_dense_pass`` result (signed zeros included)."""
    values, gag = result
    return (None if values is None else values.tobytes()), np.float64(gag).tobytes()


def _pair(grid, seed):
    rng = np.random.default_rng(seed)
    return (GridField(grid, rng.normal(size=grid.node_count)),
            GridField(grid, rng.normal(size=grid.node_count)))


@pytest.mark.parametrize("operator", [True, False])
@pytest.mark.parametrize("grid, threshold, threaded", [
    (build_grid(1.0, 8), 8, True),
    (build_grid([1.0, 2.0], [2, 4]), 8, True),
    (build_grid(1.0, 256), 257, False),
    (build_grid([1.0, 1.0], [16, 16]), 257, False),
], ids=["1d-M8-forced", "2d-M8-forced", "1d-M256-serial", "2d-M256-serial"])
def test_pair_pass_bitwise_equals_two_serial_passes(monkeypatch, grid, threshold,
                                                     threaded, operator):
    u, v = _pair(grid, grid.node_count)
    expected = (fracops._dense_pass(u, 3.0, 0.4, operator, True),
                fracops._dense_pass(v, 3.5, 0.4, operator, True))
    ran_on = []
    serial_pass = fracops._dense_pass

    def recording_pass(w, *args):
        ran_on.append((w is u, threading.get_ident()))
        return serial_pass(w, *args)

    monkeypatch.setattr(fracops, "_dense_pass", recording_pass)
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", threshold)
    ru, rv = fracops.pair_pass(u, 3.0, v, 3.5, 0.4, operator)
    assert (_bits(ru), _bits(rv)) == (_bits(expected[0]), _bits(expected[1]))
    threads = dict(ran_on)
    assert threads[True] == threading.get_ident()                 # u on the caller
    assert (threads[False] != threading.get_ident()) == threaded  # v on the worker


@pytest.mark.parametrize("p, q", [(1.5, 3.0), (3.0, 2.0)])
def test_pair_pass_signed_zeros_and_ties(monkeypatch, p, q):
    # -0.0 - 0.0 = -0.0: the operator's copysign term may carry the sign of
    # that zero where sign(d)|d|^(p-1) gives +0.0; they must still compare equal
    grid = build_grid(1.0, 12)
    u = GridField(grid, np.array([0.0, -0.0, 1.5, 1.5, -1.5, 0.0,
                                  -0.0, 2.0, 1.5, -0.0, 0.25, 0.25]))
    v = GridField(grid, -u.values[::-1])
    du = np.subtract.outer(u.values, u.values)
    zeros = (du == 0.0) & ~np.eye(12, dtype=bool)
    assert np.signbit(du[zeros]).any() and not np.signbit(du[zeros]).all()
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", 0)
    h = grid.cell_measure
    for (values, gag), w, e in zip(fracops.pair_pass(u, p, v, q, 0.4, True), (u, v), (p, q)):
        d = np.subtract.outer(w.values, w.values)
        W = weight_table(grid, e, 0.4)
        assert np.array_equal(
            values, 2.0 * h * np.sum(np.sign(d) * np.abs(d) ** (e - 1.0) * W, axis=1))
        assert np.float64(gag).tobytes() == np.float64(
            float(np.sum(np.abs(d) ** e * W) * h ** 2)).tobytes()
        Lw, bracket_w = operator_and_bracket(w, e, 0.4)
        assert np.array_equal(Lw.values, values) and bracket_w == gag / e


def test_pair_pass_raises_worker_and_caller_errors(monkeypatch):
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", 0)
    u, v = _pair(build_grid(1.0, 10), 5)
    with pytest.raises(ValueError, match="p > 1") as info:
        fracops.pair_pass(u, 3.0, v, 1.0, 0.5, True)
    assert "_serve" in [frame.name for frame in traceback.extract_tb(info.tb)]
    with pytest.raises(ValueError, match="p > 1"):
        fracops.pair_pass(u, 0.5, v, 3.0, 0.5, True)      # caller side: worker drained
    ru, rv = fracops.pair_pass(u, 3.0, v, 2.5, 0.5, True)
    assert _bits(ru) == _bits(fracops._dense_pass(u, 3.0, 0.5, True, True))
    assert _bits(rv) == _bits(fracops._dense_pass(v, 2.5, 0.5, True, True))


def test_pair_pass_from_concurrent_callers(monkeypatch):
    # more callers than cores share the one worker; each gets its own results
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", 0)
    pairs = [_pair(build_grid(1.0, 6 + k), k) for k in range(4)]
    expected = [(_bits(fracops._dense_pass(u, 3.0, 0.5, True, True)),
                 _bits(fracops._dense_pass(v, 2.5, 0.5, True, True))) for u, v in pairs]
    wrong = []

    def caller(k):
        u, v = pairs[k]
        for _ in range(50):
            ru, rv = fracops.pair_pass(u, 3.0, v, 2.5, 0.5, True)
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


def test_forked_child_runs_a_threaded_pass(monkeypatch):
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", 0)
    u, v = _pair(build_grid(1.0, 16), 9)
    expected = tuple(map(_bits, fracops.pair_pass(u, 3.0, v, 3.5, 0.5, True)))
    assert fracops._worker is not None      # the parent's worker is running
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # a child waiting on its parent's worker, which it does not have,
            # is killed by the alarm instead of hanging the suite
            signal.alarm(30)
            got = tuple(map(_bits, fracops.pair_pass(u, 3.0, v, 3.5, 0.5, True)))
            code = 0 if got == expected else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


def test_pair_pass_builds_a_shared_weight_table_once(monkeypatch):
    monkeypatch.setattr(fracops, "_THREADED_MIN_NODES", 0)
    grid = build_grid(1.0, 400)         # a table no other test asks for
    u, v = _pair(grid, 37)
    before = fracops._weight_table.cache_info()
    fracops.pair_pass(u, 2.75, v, 2.75, 0.37, True)
    after = fracops._weight_table.cache_info()
    assert after.misses - before.misses == 1
