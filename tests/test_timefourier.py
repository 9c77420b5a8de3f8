import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhbounds.timefourier import (
    TimeSignalCoeffs,
    dt,
    fourier_coeffs,
    inner_half_deriv,
    inner_l2,
    overall_from_modes,
    parseval_norm2,
    perp,
    remainder_parseval,
    sample_periodic,
)

coeff_arrays = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=6
)


def _signal(c0, cos, sin, omega=1.0):
    return TimeSignalCoeffs(omega=omega, c0=c0, cos=np.array(cos), sin=np.array(sin))


def test_pure_sine_extraction():
    got = fourier_coeffs(np.sin, 1.0, 4)
    assert abs(got.sin[0] - 1.0) < 1e-12
    assert abs(got.c0) < 1e-12
    assert np.abs(got.cos).max() < 1e-12
    assert np.abs(got.sin[1:]).max() < 1e-12


def test_band_limited_exact():
    u = lambda t: 0.7 - 1.3 * np.cos(2 * t) + 0.4 * np.sin(5 * t)
    got = fourier_coeffs(u, 1.0, 6)
    assert abs(got.c0 - 0.7) < 1e-12
    assert abs(got.cos[1] + 1.3) < 1e-12
    assert abs(got.sin[4] - 0.4) < 1e-12


def test_rejects_negative_kmax():
    with pytest.raises(ValueError):
        fourier_coeffs(np.sin, 1.0, -1)


def test_perp_example():
    u = _signal(0.3, [1.0], [0.0])
    v = perp(u)
    assert v.c0 == 0.0
    assert v.cos[0] == 0.0 and v.sin[0] == -1.0


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=50, deadline=None)
def test_perp_involution_and_isometry(cos, sin):
    k = min(len(cos), len(sin))
    u = _signal(0.0, cos[:k], sin[:k])
    twice = perp(perp(u))
    assert np.allclose(twice.cos, -u.cos) and np.allclose(twice.sin, -u.sin)
    assert abs(inner_half_deriv(perp(u), perp(u)) - inner_half_deriv(u, u)) < 1e-12


@given(coeff_arrays, coeff_arrays, st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_orthogonality_relations(cos, sin, sigma):
    k = min(len(cos), len(sin))
    u = _signal(1.0, cos[:k], sin[:k])
    # <sigma u_t, u> = 0 and <sigma u_perp, u> = 0
    assert abs(inner_l2(dt(u), u, sigma)) < 1e-10
    assert abs(inner_l2(perp(u), u, sigma)) < 1e-10
    # <sigma d^1/2 u, d^1/2 u_perp> = 0
    assert abs(inner_half_deriv(u, perp(u), sigma)) < 1e-10


@given(coeff_arrays, coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=50, deadline=None)
def test_half_derivative_identity(uc, us, vc, vs):
    k = min(len(uc), len(us), len(vc), len(vs))
    u = _signal(0.4, uc[:k], us[:k])
    v = _signal(-0.2, vc[:k], vs[:k])
    lhs = inner_half_deriv(u, v, 1.7)
    rhs = inner_l2(dt(u), perp(v), 1.7)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_parseval_for_band_limited():
    u = _signal(0.5, [1.0, 0.0, 2.0], [0.0, -1.0, 0.5])
    t = np.linspace(0, 2 * np.pi, 20001)[:-1]
    quad = np.mean(u(t) ** 2)
    assert abs(parseval_norm2(u) - quad) < 1e-6


def test_remainder_band_limited_is_zero():
    u = _signal(0.5, [1.0, 2.0], [0.5, 0.0])
    total = 2 * np.pi * parseval_norm2(u)
    rem = remainder_parseval(total, u, 2, spatial_norm2=0.25)
    assert abs(rem.value) < 1e-12


def test_remainder_monotone_in_modes():
    u = fourier_coeffs(lambda t: np.exp(np.cos(t)), 1.0, 10)
    total = 2 * np.pi * parseval_norm2(fourier_coeffs(lambda t: np.exp(np.cos(t)), 1.0, 60))
    values = [remainder_parseval(total, u, n, 1.0).value for n in range(6)]
    assert all(values[i + 1] <= values[i] + 1e-14 for i in range(5))


def test_remainder_needs_enough_coefficients():
    u = _signal(0.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        remainder_parseval(1.0, u, 5, 1.0)


def test_overall_from_modes():
    T = 2 * np.pi
    assert overall_from_modes(0.0, [], T, remainder=3.5) == 3.5
    assert abs(overall_from_modes(0.0, [2.0], T) - 2 * np.pi) < 1e-14
    assert abs(overall_from_modes(1.0, [2.0, 4.0], T, 1.0) - (T + 3 * T + 1)) < 1e-12


def test_sampled_mode_matches_coefficients():
    u = lambda t: np.exp(np.sin(t)) * np.cos(3 * t)  # noqa: E731
    table = fourier_coeffs(u, 1.3, 7, panels=32, order=10)
    samples = sample_periodic(u, 1.3, panels=32, order=10)
    for k in range(8):
        assert np.allclose(samples.mode(k), table.mode(k), rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        samples.mode(-1)
    with pytest.raises(ValueError):
        samples.table(-1)
