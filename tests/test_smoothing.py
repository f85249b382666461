"""Tests for the ramp smoother and the plug-in rule's constant built from it.

The ramp and its derivative are test oracles (``tests/oracles.py``); the
estimator reads only the ratio of two moment constants of the complementary
ramp, which is checked against numerical quadrature of an independently
written ramp, so a typo in either place shows up as a mismatch.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import itilde, itilde_deriv
from scipy.integrate import quad

from ivqr.bandwidth import _VAR_BIAS_RATIO


def ramp_cdf(v):
    # complementary ramp written out longhand, independent of the package
    if v <= -1.0:
        return 0.0
    if v >= 1.0:
        return 1.0
    return (1.0 + v) / 2.0


def test_constants_match_quadrature():
    int_g2, err1 = quad(lambda v: ramp_cdf(v) ** 2, -1.0, 1.0)
    int_gpv2, err2 = quad(lambda v: 0.5 * v**2, -1.0, 1.0)
    assert err1 < 1e-10 and err2 < 1e-10
    assert 1.0 / 3.0 == pytest.approx(1.0 - int_g2, abs=1e-12)
    assert 1.0 / 9.0 == pytest.approx(int_gpv2**2, abs=1e-12)
    assert _VAR_BIAS_RATIO == pytest.approx((1.0 - int_g2) / int_gpv2**2, rel=1e-12)


def test_constants_exact_fractions():
    # (1 - int G^2) / (int G'(v) v^2)^2 in closed form, exactly 3.0 in floating point
    assert _VAR_BIAS_RATIO == (1.0 / 3.0) / (1.0 / 9.0) == 3.0


def test_itilde_anchor_values():
    assert itilde(-1.0) == 1.0
    assert itilde(0.0) == 0.5
    assert itilde(1.0) == 0.0
    assert itilde(-50.0) == 1.0
    assert itilde(50.0) == 0.0


def test_itilde_matches_complementary_ramp():
    grid = np.linspace(-3, 3, 601)
    expected = 1.0 - np.array([ramp_cdf(v) for v in grid])
    np.testing.assert_allclose(itilde(grid), expected, atol=0)


def test_array_shapes_preserved():
    v = np.linspace(-2, 2, 12).reshape(3, 4)
    assert itilde(v).shape == (3, 4)
    assert itilde_deriv(v).shape == (3, 4)
    assert isinstance(itilde(0.3), float)
    assert isinstance(itilde_deriv(0.3), float)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_itilde_bounded(v):
    assert 0.0 <= itilde(v) <= 1.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_itilde_symmetry(v):
    # I(v) + I(-v) = 1 for every v, including outside the window
    assert itilde(v) + itilde(-v) == pytest.approx(1.0, abs=1e-15)


@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_itilde_monotone_and_lipschitz(a, b):
    lo, hi = min(a, b), max(a, b)
    assert itilde(lo) >= itilde(hi)
    assert abs(itilde(hi) - itilde(lo)) <= 0.5 * (hi - lo) + 1e-12


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_deriv_matches_finite_difference(v):
    # skip neighbourhoods of the kinks, where the two-sided difference
    # straddles pieces with different slopes
    if min(abs(v - 1.0), abs(v + 1.0)) < 1e-4:
        return
    eps = 1e-6
    fd = (itilde(v + eps) - itilde(v - eps)) / (2 * eps)
    assert itilde_deriv(v) == pytest.approx(fd, abs=1e-9)


def test_deriv_zero_at_kinks():
    assert itilde_deriv(-1.0) == 0.0
    assert itilde_deriv(1.0) == 0.0
    assert itilde_deriv(0.0) == -0.5
