"""The time-quadrature oracle's sampled Fourier coefficients, norms and
truncation remainders, and the quarter turn that the mode systems use for the
time derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhbounds.systems import quarter_turn
from reference_bounds import sample_periodic

# the composite Gauss rule of the samples: 64 panels of 8 points
PANELS, ORDER = 64, 8

coeff_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
)


def _parts(cos, sin):
    """(cosine, sine) parts of modes 1..K, stacked as the mode systems do, (2, K)."""
    k = min(len(cos), len(sin))
    return np.array([cos[:k], sin[:k]], dtype=float)


def _modes(samples, k_max):
    """(cosine, sine) pairs of modes 0..k_max, (k_max + 1, 2)."""
    return np.array([samples.mode(k) for k in range(k_max + 1)])


def test_pure_sine_extraction():
    got = _modes(sample_periodic(np.sin, 1.0, PANELS, ORDER), 4)
    expect = np.zeros((5, 2))
    expect[1, 1] = 1.0
    assert np.abs(got - expect).max() < 1e-12


def test_band_limited_exact():
    u = lambda t: 0.7 - 1.3 * np.cos(2 * t) + 0.4 * np.sin(5 * t)
    got = _modes(sample_periodic(u, 1.0, PANELS, ORDER), 6)
    expect = np.zeros((7, 2))
    expect[0, 0], expect[2, 0], expect[5, 1] = 0.7, -1.3, 0.4
    assert np.abs(got - expect).max() < 1e-12


def test_rejects_negative_kmax():
    samples = sample_periodic(np.sin, 1.0, PANELS, ORDER)
    with pytest.raises(ValueError):
        samples.mode(-1)
    with pytest.raises(ValueError):
        samples.tail(-1)


def test_perp_example():
    # the quarter turn of mode k, k omega sigma (c, s) -> (-s, c), gives the
    # coefficients of minus the time derivative: u = 0.3 + cos(2 t) has
    # du/dt = -2 sin(2 t)
    derivative = sample_periodic(lambda t: -2 * np.sin(2 * t), 1.0, PANELS, ORDER).mode(2)
    turned = quarter_turn(np.array([1.0, 0.0]), 2 * 1.0)
    assert np.allclose(turned, [0.0, 2.0], rtol=0, atol=0)
    assert np.allclose(turned, -np.array(derivative), rtol=0, atol=1e-12)
    # mode 0 has one part and kws = 0
    assert np.array_equal(quarter_turn(np.array([0.3]), 0.0), [-0.0])


@given(coeff_arrays, coeff_arrays, st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_perp_involution_and_isometry(cos, sin, kws):
    u = _parts(cos, sin)
    twice = quarter_turn(quarter_turn(u, kws), kws)
    assert np.allclose(twice, -(kws**2) * u, rtol=1e-12, atol=1e-12)
    turned = quarter_turn(u, kws)
    assert abs(np.vdot(turned, turned) - kws**2 * np.vdot(u, u)) <= 1e-12 * (1 + kws**2 * np.vdot(u, u))


@given(coeff_arrays, coeff_arrays, st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_orthogonality_relations(cos, sin, sigma):
    # <sigma u_t, u> = 0 mode by mode, for any weight
    u = _parts(cos, sin)
    kws = sigma * np.arange(1, u.shape[1] + 1)
    assert abs(np.vdot(quarter_turn(u, 1.0) * kws, u)) < 1e-10


@given(coeff_arrays, coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_half_derivative_identity(uc, us, vc, vs):
    # (T/2) sum_k k omega <u_k, v_k> = <u_t, v_perp>: per mode, the time
    # derivative turns by k omega and v_perp by one unit
    k = min(len(uc), len(us), len(vc), len(vs))
    u, v = _parts(uc[:k], us[:k]), _parts(vc[:k], vs[:k])
    kw = 1.7 * np.arange(1, k + 1)
    lhs = np.sum(kw * (u * v).sum(axis=0))
    rhs = np.vdot(quarter_turn(u, 1.0) * kw, quarter_turn(v, 1.0))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_parseval_for_band_limited():
    # the sampled norm over one period against Parseval of the coefficients
    u = lambda t: 0.5 + np.cos(t) + 2.0 * np.cos(3 * t) - np.sin(2 * t) + 0.5 * np.sin(3 * t)
    samples = sample_periodic(u, 1.0, PANELS, ORDER)
    c = _modes(samples, 3)
    parseval = 2 * np.pi * (c[0, 0] ** 2 + 0.5 * float(np.sum(c[1:] ** 2)))
    assert abs(samples.norm2() - parseval) < 1e-12 * parseval
    assert abs(samples.norm2() - 2 * np.pi * (0.25 + 0.5 * (1 + 4 + 1 + 0.25))) < 1e-12


def test_remainder_band_limited_is_zero():
    u = lambda t: 0.5 + np.cos(t) + 2 * np.cos(2 * t) + 0.5 * np.sin(t)
    samples = sample_periodic(u, 1.0, PANELS, ORDER)
    assert abs(samples.tail(2)) < 1e-12
    assert abs(samples.tail(1) - np.pi * 4.0) < 1e-12  # (T/2) 2^2, T = 2 pi


def test_remainder_monotone_in_modes():
    samples = sample_periodic(lambda t: np.exp(np.cos(t)), 1.0, PANELS, ORDER)
    values = [samples.tail(n) for n in range(6)]
    assert all(values[i + 1] <= values[i] + 1e-14 for i in range(5))
    assert values[0] > values[5] > 0


def test_sampled_mode_matches_coefficients():
    # every mode against adaptive quadrature of its defining integral
    from scipy.integrate import quad

    omega = 1.3
    u = lambda t: np.exp(np.sin(t)) * np.cos(3 * t)  # noqa: E731
    samples = sample_periodic(u, omega, panels=32, order=10)
    period = 2 * np.pi / omega
    for k in range(8):
        cos, sin = (2 / period * quad(lambda t: u(t) * f(k * omega * t), 0, period, limit=200)[0]
                    for f in (np.cos, np.sin))
        expect = (cos / 2, 0.0) if k == 0 else (cos, sin)
        assert np.allclose(samples.mode(k), expect, rtol=0, atol=1e-12), k
