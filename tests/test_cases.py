import dataclasses

import numpy as np
import pytest

from mhbounds import femcore
from mhbounds.cases import CaseBind, ExampleCase, box_mode_coefficient, make_case
from mhbounds.femcore import FemContext
from mhbounds import mesh as meshmod
from reference_bounds import spacetime_cost, time_mode_pair
from reference_systems import scalar_mode_solve

PI = np.pi


@pytest.mark.parametrize(
    "ident,n_modes,expected",
    [
        (1, 3, 63694.86),
        (1, 8, 106.06),
        (2, 6, 44094.84),
        (2, 10, 10597.20),
        (5, 6, 4796.54),
        (5, 10, 1149.65),
    ],
)
def test_truncation_remainders(ident, n_modes, expected):
    rem = make_case(ident).remainder(n_modes)
    assert abs(rem - expected) < 1e-3 * expected


def test_indicator_case_remainder_closed_form():
    case = make_case(3)
    rem = case.remainder(4)
    ks = np.arange(5, 2_000_000, 2)
    brute = 0.5 * 1.0 * np.sum(4.0 / (PI**2 * ks.astype(float) ** 2)) * 0.25
    assert abs(rem - brute) < 1e-5 * brute  # brute truncation ~ 1/k_max


def test_indicator_coefficients():
    case = make_case(3)
    pairs = np.array([case.mode_pair(k) for k in range(9)])
    assert np.all(pairs[:, 1] == 0)
    assert pairs[0, 0] == 0.5
    assert abs(pairs[1, 0] + 2 / PI) < 1e-15
    for k in (2, 4, 6, 8):
        assert abs(pairs[k, 0]) < 1e-15
    assert abs(box_mode_coefficient(3) - 2 / (3 * PI)) < 1e-15


def test_gradient_case_components_match_indicator():
    case = make_case(6)
    assert case.mode_pair(2) == (0.0, 0.0)
    spatial = case.spatial_vector
    x = np.array([0.7, 0.2])
    y = np.array([0.8, 0.8])
    gx, gy = spatial(x, y)
    assert np.array_equal(gx, gy)
    assert gx[0] == 1.0 and gx[1] == 0.0


def test_exact_states_satisfy_control_relation():
    # u = dy/dt + 2 pi^2 y for states with the eigenfunction profile
    for ident in (1, 2, 4, 5):
        case = make_case(ident)
        t = np.linspace(0.1, 6.0, 40)
        h = 1e-6
        dy = (case.exact_y_time(t + h) - case.exact_y_time(t - h)) / (2 * h)
        u = dy + 2 * PI**2 * case.exact_y_time(t)
        assert np.abs(u - case.exact_u_time(t)).max() < 1e-4 * np.abs(u).max()


@pytest.mark.parametrize(
    "ident,k,expected",
    [
        (1, 0, 126764.9314),
        (1, 1, 479654.7307),
        (2, 0, 355658.3071),
        (4, 0, 9433.2976),
        (5, 0, 26382.6136),
    ],
)
def test_reference_costs_frozen(ident, k, expected):
    # frozen from the independent time-quadrature oracle
    assert abs(make_case(ident).reference_cost(k) - expected) < 1e-5 * expected


def test_reference_routes_agree():
    # exact-state projection versus the continuous mode solve from the data
    for ident in (1, 2, 4, 5):
        case = make_case(ident)
        kappa = case.eigen_kappa
        for k in (0, 1, 3):
            c, s = case.mode_pair(k)
            if case.problem == "I":
                a_c, a_s, b_c, b_s = scalar_mode_solve(
                    "I", k, case.lam, case.omega, 1.0, 1.0, kappa, c, s
                )
                misfit = ((a_c - c) ** 2 + (a_s - s) ** 2) * 0.25
            else:
                a_c, a_s, b_c, b_s = scalar_mode_solve(
                    "II", k, case.lam, case.omega, 1.0, 1.0, kappa, c / PI, s / PI
                )
                misfit = ((a_c - c / PI) ** 2 + (a_s - s / PI) ** 2) * (kappa * 0.25)
            via_solve = 0.5 * misfit + (b_c**2 + b_s**2) * 0.25 / (2 * case.lam)
            via_state = case.reference_cost(k)
            # the closed-form pair is admissible but its adjoint is not
            # time-periodic, so its cost sits a squared-distance above the
            # true optimum of the mode system
            assert via_solve <= via_state + 1e-9 * via_state
            tol = 1e-9 if ident in (1, 4) else 5e-4  # cases 2/5 are not time-periodic
            assert abs(via_solve - via_state) < tol * max(via_state, 1e-12)


def test_case_construction():
    with pytest.raises(ValueError):
        make_case(7)
    case = make_case(1, lam=1.0, omega=2.0)
    assert case.lam == 1.0 and case.omega == 2.0
    assert abs(case.period - PI) < 1e-15
    # the closed-form solution holds at the case's own lambda and omega only
    assert not case.has_analytic_reference
    assert make_case(4, lam=0.1, omega=1.0).has_analytic_reference
    assert not make_case(4, omega=2.0).has_analytic_reference
    with pytest.raises(ValueError):
        make_case(3).reference_cost(0)


@pytest.mark.parametrize("name", ["lam", "omega"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_make_case_rejects_bad_parameters(name, value):
    with pytest.raises(ValueError, match=name):
        make_case(1, **{name: value})


def test_bind_rejects_odd_grid_for_indicator_cases():
    ctx = FemContext(meshmod.build(3))
    with pytest.raises(ValueError):
        CaseBind(make_case(3), ctx)
    with pytest.raises(ValueError):
        CaseBind(make_case(6), ctx)


def test_error_norms_decrease(ctx8, ctx16):
    from mhbounds.systems import build_matrices, build_mode_system
    from reference_systems import direct_solve

    case = make_case(1)
    errs = []
    for ctx in (ctx8, ctx16):
        mats = build_matrices(ctx)
        bind = CaseBind(case, ctx)
        sysk = build_mode_system("I", mats, 1, case.lam, case.omega, bind.rhs(1))
        sol = direct_solve(sysk, "I", case.lam, case.omega)
        l2, h1 = bind.error_norms(1, sol, femcore.Scratch())
        assert l2 > 0 and h1 > 0
        errs.append((l2, h1))
    assert errs[1][0] < errs[0][0] / 8  # about fourth order in the squared L2 error
    assert errs[1][1] < errs[0][1] / 3  # about second order in the squared H1 error


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_mode_pair_matches_coefficient_table(ident):
    # mode_pair(k) is the quadrature of mode k alone, from the time factor
    # sampled once per case; it equals mode k of a fresh sampling
    case = make_case(ident)
    table = np.array([time_mode_pair(case.time_factor, case.omega, k) for k in range(10)])
    scale = np.abs(table).max()
    for k in range(10):
        got, expect = case.mode_pair(k), table[k]
        assert np.allclose(got, expect, rtol=0, atol=1e-14 * scale), (k, got, expect)


@pytest.mark.parametrize("ident", [1, 4, 6])
@pytest.mark.parametrize("rows", [1, 5])
def test_bind_in_row_blocks_matches_one_block(monkeypatch, ident, rows):
    # loads, projections and remainder do not depend on how many cell rows
    # are sampled at a time
    ctx = FemContext(meshmod.build(12))
    case = make_case(ident)
    whole = CaseBind(case, ctx)
    monkeypatch.setattr(femcore, "SAMPLE_ROWS", rows)
    blocked = CaseBind(case, ctx)
    names = ("load_s", "s_vert") if case.problem == "I" else ("gload_v", "v_mean", "v_div")
    for name in names:
        a, b = getattr(whole, name), getattr(blocked, name)
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name
    assert abs(whole.rest - blocked.rest) <= 1e-14 * whole.rest


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_analytic_reference_from_case_samples(ident):
    # reference_cost and exact_state_mode read the exact state, control and
    # data time factors sampled once per case, and agree with the reference
    # quadrature, which samples them again on every call
    calls = []

    def counted(f):
        def sampled(t):
            calls.append(f.__name__)
            return f(t)
        return sampled

    case = make_case(ident)
    sampled_case = dataclasses.replace(case, **{
        name: counted(getattr(case, name)) for name in ("time_factor", "exact_y_time", "exact_u_time")})
    if case.problem == "I":
        misfit_norm2, scale = case.spatial_norm2, 1.0
    else:
        misfit_norm2, scale = case.eigen_kappa * 0.25, case.data_scale
    for k in range(9):
        expect = spacetime_cost(
            k, case.lam, case.omega, case.exact_y_time, case.exact_u_time, case.time_factor,
            misfit_norm2, 0.25, data_scale=scale,
        )
        assert abs(sampled_case.reference_cost(k) - expect) <= 1e-13 * expect, k
        pair = time_mode_pair(case.exact_y_time, case.omega, k)
        assert np.allclose(sampled_case.exact_state_mode(k), pair, rtol=0, atol=1e-14 * max(np.abs(pair).max(), 1.0)), k
    assert sorted(calls) == sorted(
        f.__name__ for f in (case.time_factor, case.exact_y_time, case.exact_u_time)
    )
