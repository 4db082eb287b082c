import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracwell import (
    KirchhoffFn, check_hypotheses, k_antideriv, k_eval, scaling_suite,
)
from fracwell.kirchhoff import KirchhoffError


class TestEvaluation:
    def test_affine_power_value(self):
        K = KirchhoffFn.affine_power(1.0, 1.0, 1.0)
        assert k_eval(K, 2.0) == pytest.approx(3.0)
        assert k_eval(K, 0.0) == pytest.approx(1.0)

    def test_log1p_vanishes_at_zero(self):
        assert k_eval(KirchhoffFn.log1p(), 0.0) == 0.0

    def test_negative_argument_rejected(self):
        with pytest.raises(KirchhoffError):
            k_eval(KirchhoffFn.constant(), -0.1)

    def test_array_evaluation(self):
        K = KirchhoffFn.affine_power(2.0, 3.0, 2.0)
        z = np.array([0.0, 1.0, 2.0])
        assert np.allclose(k_eval(K, z), 2.0 + 3.0 * z ** 2)

    def test_invalid_kind(self):
        with pytest.raises(KirchhoffError, match="unknown Kirchhoff kind"):
            KirchhoffFn(kind="quadratic")

    @pytest.mark.parametrize("key", ["a", "b", "c", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_values_must_be_finite(self, key, value):
        # a NaN a or b made the well depth inf and phi0 NaN without an error
        args = {"a": 1.0, "b": 1.0, "c": 1.0, "beta": 0.0, key: value}
        with pytest.raises(KirchhoffError, match=f"'{key}' must be a finite number"):
            KirchhoffFn.affine_power(**args)

    @pytest.mark.parametrize("z, k", [([0.0, math.nan], [1.0, 2.0]),
                                      ([0.0, 1.0], [1.0, math.inf])])
    def test_table_values_must_be_finite(self, z, k):
        with pytest.raises(KirchhoffError, match="must be finite"):
            KirchhoffFn.from_table(z, k, beta=0.0)


@pytest.mark.parametrize("K", [
    KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25),
    KirchhoffFn.affine_power(0.5, 2.0, 3.0, beta=3.0),
    KirchhoffFn.log1p(beta=1.0),
    KirchhoffFn.from_table([0.1, 0.5, 2.0, 10.0], [1.0, 1.2, 2.0, 3.0], beta=0.5),
], ids=["affine_quarter", "affine_cubic", "log1p", "table"])
class TestScalarFastPath:
    """A float argument skips the array checks; its result must still be the
    array path's bit for bit, since the fibering ray mixes both."""

    Z = np.concatenate([[0.0], np.logspace(-12.0, 12.0, 2001)])

    @pytest.mark.parametrize("fn", [k_eval, k_antideriv])
    def test_bitwise_equal_to_array_path(self, K, fn):
        arr = fn(K, self.Z)
        assert [fn(K, z) for z in self.Z.tolist()] == arr.tolist()
        assert [fn(K, z) for z in self.Z] == arr.tolist()        # np.float64
        assert all(type(fn(K, z)) is float for z in (0.3, np.float64(0.3)))

    @pytest.mark.parametrize("fn", [k_eval, k_antideriv])
    def test_negative_float_rejected(self, K, fn):
        for z in (-1e-300, np.float64(-2.0)):
            with pytest.raises(KirchhoffError, match="negative argument"):
                fn(K, z)


class TestAntiderivative:
    def test_affine_closed_form(self):
        K = KirchhoffFn.affine_power(1.0, 1.0, 1.0)
        assert k_antideriv(K, 2.0) == pytest.approx(4.0)

    def test_zero_argument(self):
        for K in (KirchhoffFn.constant(), KirchhoffFn.log1p()):
            assert k_antideriv(K, 0.0) == 0.0

    def test_log1p_closed_form(self):
        assert k_antideriv(KirchhoffFn.log1p(), 1.0) == pytest.approx(2 * math.log(2) - 1)

    def test_table_exact_for_piecewise_linear(self):
        # an affine coefficient tabulated on its own breakpoints integrates exactly
        z = np.linspace(0.0, 10.0, 21)
        K_exact = KirchhoffFn.affine_power(2.0, 0.5, 1.0, beta=1.0)
        K_tab = KirchhoffFn.from_table(z, k_eval(K_exact, z), beta=1.0)
        for zz in (0.0, 0.3, 2.75, 10.0):
            assert k_antideriv(K_tab, zz) == pytest.approx(k_antideriv(K_exact, zz), rel=1e-14)
        # beyond the table the coefficient extends as a constant
        assert k_antideriv(K_tab, 12.0) == pytest.approx(
            k_antideriv(K_tab, 10.0) + k_eval(K_tab, 10.0) * 2.0, rel=1e-14)

    def test_consistency_with_derivative(self):
        rng = np.random.default_rng(1)
        for K in (KirchhoffFn.affine_power(1.0, 2.0, 1.7, beta=2.0),
                  KirchhoffFn.log1p(beta=1.0)):
            for _ in range(100):
                z = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
                d = 1e-6 * (1.0 + z)
                fd = (k_antideriv(K, z + d) - k_antideriv(K, z - d)) / (2 * d)
                assert fd == pytest.approx(k_eval(K, z), rel=1e-6)


@st.composite
def tables(draw):
    """A tabulated coefficient: 2 to 8 increasing nodes from z >= 0, values >= 0."""
    n = draw(st.integers(2, 8))
    start = draw(st.just(0.0) | st.floats(0.0, 5.0))
    gaps = draw(st.lists(st.floats(1e-2, 10.0), min_size=n - 1, max_size=n - 1))
    k = draw(st.lists(st.just(0.0) | st.floats(0.0, 10.0), min_size=n, max_size=n))
    return KirchhoffFn.from_table(start + np.concatenate([[0.0], np.cumsum(gaps)]), k, beta=0.0)


def interpolant_integral(K, z):
    """Integral over [0, z] of the table's piecewise-linear interpolant,
    constant outside the table: the trapezoid rule on the breakpoints."""
    tz = np.asarray(K.table_z)
    nodes = np.concatenate([[0.0], tz[tz < z], [z]])
    vals = np.interp(nodes, tz, np.asarray(K.table_k))
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(nodes)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(K=tables(), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_table_antiderivative_property(K, picks):
    tz, tk = np.asarray(K.table_z), np.asarray(K.table_k)
    z = np.sort(np.concatenate([[0.0], tz, np.asarray(picks) * (1.5 * tz[-1] + 1.0)]))
    khat = k_antideriv(K, z)
    # the exact integral of the interpolant, constant-extrapolated at both ends
    want = np.array([interpolant_integral(K, x) for x in z])
    assert np.allclose(khat, want, rtol=1e-12, atol=1e-12)
    # non-decreasing, as K >= 0
    assert np.all(np.diff(khat) >= 0.0)
    # forward difference quotients approach K: within the interpolant's
    # largest slope times the step, plus the rounding of two values
    slope = float(np.max(np.abs(np.diff(tk) / np.diff(tz))))
    for x, hx in zip(z, khat):
        step = 1e-6 * (1.0 + x)
        quotient = (k_antideriv(K, x + step) - hx) / step
        assert abs(quotient - k_eval(K, x)) <= slope * step + 1e-14 * (1.0 + hx) / step


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
       c=st.just(1.0) | st.floats(0.0, 1.0),
       A=st.floats(0.0, allow_infinity=False, allow_subnormal=True))
@example(a=2.5, c=1.0, A=0.0)
@example(a=2.5, c=1.0, A=5e-324)
@example(a=1.0, c=1.0, A=1e300)
@example(a=5e-324, c=0.0, A=1.7976931348623157e308)
def test_constant_coefficient_is_its_constant_bit_for_bit(a, c, A):
    # dynamics.rhs uses K.a in place of K(A) when both coefficients are constant
    K = KirchhoffFn.affine_power(a, 0.0, c)
    assert K.is_constant and (c != 1.0 or K == KirchhoffFn.constant(a))
    assert np.float64(k_eval(K, A)).tobytes() == np.float64(a).tobytes()


@pytest.mark.parametrize("K, constant", [
    (KirchhoffFn.constant(2.5), True),
    (KirchhoffFn.affine_power(1.0, 0.0, 0.5), True),
    (KirchhoffFn.affine_power(1.0, 0.0, 0.0), True),
    (KirchhoffFn.affine_power(1.0, 0.0, 2.0), True),
    (KirchhoffFn.affine_power(1.0, 0.0, -1.0), True),
    (KirchhoffFn.affine_power(1.0, 1e-300, 1.0), False),
    (KirchhoffFn.log1p(), False),
    (KirchhoffFn.from_table([0.0, 1.0], [1.0, 1.0], beta=0.0), False),
], ids=["constant", "c-half", "c-zero", "c-two", "c-negative", "b-positive", "log1p", "table"])
def test_is_constant_is_derived_and_read_only(K, constant):
    assert K.is_constant is constant
    with pytest.raises(AttributeError):
        K.is_constant = not constant


@pytest.mark.parametrize("c, z", [(2.0, 1e200), (2.0, math.inf), (-1.0, 0.0),
                                  (-1.0, 1e-300), (3.0, 5e-324)],
                         ids=["c-two-huge", "c-two-inf", "c-negative-zero", "c-negative-tiny",
                              "c-three-subnormal"])
def test_b_zero_is_its_constant_where_z_power_is_not_finite(c, z):
    # a + 0 * z^c would be NaN where z^c overflows (c > 1) or is infinite at
    # z = 0 (c < 0); with b = 0 neither K nor its antiderivative forms it
    K = KirchhoffFn.affine_power(2.5, 0.0, c)
    assert K.is_constant
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert k_eval(K, z) == 2.5 and k_antideriv(K, z) == 2.5 * z
        assert np.array_equal(k_eval(K, np.array([z, 1.0])), [2.5, 2.5])
        assert np.array_equal(k_antideriv(K, np.array([z, 1.0])), [2.5 * z, 2.5])


class TestHypotheses:
    def test_affine_with_matching_beta(self):
        rep = check_hypotheses(KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0))
        assert rep.both_ok

    def test_affine_with_too_small_beta(self):
        # K(z)/z = 1/z + z has a minimum at z = 1: not monotone
        rep = check_hypotheses(KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0), beta=1.0)
        assert rep.monotone_ok and not rep.homogeneity_ok

    def test_log1p(self):
        rep = check_hypotheses(KirchhoffFn.log1p(beta=1.0))
        assert rep.both_ok

    def test_constant_boundary_case(self):
        assert check_hypotheses(KirchhoffFn.constant(2.0)).both_ok

    def test_empty_sample_rejected(self):
        with pytest.raises(KirchhoffError, match="two samples"):
            check_hypotheses(KirchhoffFn.constant(), count=1)


class TestScalingSuite:
    def _all_ok(self, checks):
        return all(c.ok for c in checks if c.applicable)

    def test_constant_coefficient_equality_case(self):
        # constant K with beta 0: the antiderivative sandwich is an equality
        checks = {c.name: c for c in scaling_suite(KirchhoffFn.constant(1.0), 0.0, 0.5, 3.0)}
        assert checks["khat_between"].ok
        assert abs(checks["khat_between"].residual) <= 1e-12
        assert self._all_ok(checks.values())

    def test_affine_upper_scale_example(self):
        # K(t) = 1 + t, beta 1, mu 2, z 1: K(2) = 3 <= 2 * K(1) = 4
        K = KirchhoffFn.affine_power(1.0, 1.0, 1.0, beta=1.0)
        checks = {c.name: c for c in scaling_suite(K, 1.0, 2.0, 1.0)}
        assert checks["k_scale_upper"].applicable and checks["k_scale_upper"].ok
        assert not checks["k_scale_lower"].applicable

    def test_mu_one_degenerate_equalities(self):
        K = KirchhoffFn.log1p(beta=1.0)
        for c in scaling_suite(K, 1.0, 1.0, 2.5):
            assert c.ok
            if c.name in ("k_scale_lower", "k_scale_upper",
                          "khat_scale_lower", "khat_scale_upper"):
                assert abs(c.residual) <= 1e-12

    def test_negative_mu_rejected(self):
        with pytest.raises(KirchhoffError):
            scaling_suite(KirchhoffFn.constant(), 0.0, -1.0, 1.0)

    @pytest.mark.parametrize("family", ["affine", "log1p"])
    def test_thousand_random_pairs(self, family):
        rng = np.random.default_rng(42 if family == "affine" else 43)
        violations = 0
        for _ in range(1000):
            if family == "affine":
                c = rng.uniform(0.2, 3.0)
                K = KirchhoffFn.affine_power(
                    a=rng.uniform(0.1, 5.0), b=rng.uniform(0.1, 5.0), c=c,
                    beta=c * rng.uniform(1.0, 1.5))
            else:
                K = KirchhoffFn.log1p(beta=rng.uniform(1.0, 3.0))
            mu = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            z = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
            violations += sum(
                1 for chk in scaling_suite(K, K.beta, mu, z) if chk.applicable and not chk.ok
            )
        assert violations == 0


def test_antiderivative_midpoint_convexity():
    # Khat is convex exactly when K is non-decreasing
    rng = np.random.default_rng(7)
    K = KirchhoffFn.affine_power(1.0, 2.0, 1.3, beta=1.3)
    for _ in range(200):
        x = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        y = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        mid = k_antideriv(K, 0.5 * (x + y))
        avg = 0.5 * (k_antideriv(K, x) + k_antideriv(K, y))
        assert mid <= avg * (1 + 1e-12)


def test_beta_validation():
    with pytest.raises(KirchhoffError):
        KirchhoffFn.constant().__class__(kind="log1p", beta=-0.5)
