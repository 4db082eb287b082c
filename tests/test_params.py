import math

import pytest
from hypothesis import given, settings, strategies as st

from fracwell import ParamError, critical_exponent, validate_params


def test_flagship_tuple_accepted():
    p = validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)
    assert p.well_regime
    # N <= s*p, so both critical exponents are infinite
    assert math.isinf(p.p_crit) and math.isinf(p.q_crit)


def test_sigma_below_window_reports_inequality():
    with pytest.raises(ParamError, match=r"max\(2, p\(beta\+1\), q\(beta\+1\)\)"):
        validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=3.0, beta=0.0)


def test_operations_mode_accepts_with_flag():
    p = validate_params(N=1, s=0.5, p=2.0, q=2.0, sigma=4.0, beta=0.0, mode="operations")
    assert not p.well_regime


def test_first_violation_is_named_in_order():
    with pytest.raises(ParamError, match="p < q"):
        validate_params(N=1, s=0.5, p=3.5, q=3.0, sigma=4.0)
    # N=2 always trips the 2*sigma cap for admissible orderings
    with pytest.raises(ParamError, match="2\\*sigma"):
        validate_params(N=2, s=0.5, p=3.0, q=3.5, sigma=4.0)


def test_critical_exponent_values():
    assert critical_exponent(2, 0.5, 3.0) == pytest.approx(12.0)
    assert math.isinf(critical_exponent(1, 0.5, 2.0))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(N=3, s=0.5, p=3.0, q=3.5, sigma=4.0), "N must be"),
        (dict(N=1, s=1.2, p=3.0, q=3.5, sigma=4.0), "s must lie"),
        (dict(N=1, s=0.5, p=0.9, q=3.5, sigma=4.0), "exceed 1"),
        (dict(N=1, s=0.5, p=3.0, q=3.5, sigma=0.5), "sigma must exceed"),
        (dict(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=-1.0), "beta"),
        (dict(N=1, s=0.5, p=math.nan, q=3.5, sigma=4.0), "finite"),
    ],
)
def test_precondition_errors(kwargs, match):
    with pytest.raises(ParamError, match=match):
        validate_params(**kwargs)


def test_bad_mode_rejected():
    with pytest.raises(ParamError, match="mode"):
        validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, mode="lenient")


def test_decay_envelope_helpers():
    p = validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)
    assert p.poly_decay_exponent == pytest.approx(3.5 / 1.5)
    assert not p.exponential_regime  # q > 2/(beta+1) in the admissible window


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       p=st.floats(1.0, 20.0, exclude_min=True), dq=st.floats(1e-6, 20.0),
       sigma=st.floats(1.0, 100.0, exclude_min=True), beta=st.floats(0.0, 10.0))
def test_window_is_empty_in_two_dimensions(s, p, dq, sigma, beta):
    """No exponent tuple is admissible for N = 2.

    The window needs sigma > max(2, p(beta+1), q(beta+1)) >= q > p, and also
    2 sigma <= p(1 + 2/N), which for N = 2 reads sigma <= p.  Both cannot
    hold, so every 1 < p < q, sigma > 1 and beta >= 0 at any s leaves
    ``well_regime`` False, and ``simulate``, ``classify`` and ``well-depth``
    never run in 2-D.
    """
    q = p + dq
    assert not validate_params(N=2, s=s, p=p, q=q, sigma=sigma, beta=beta,
                               mode="operations").well_regime
