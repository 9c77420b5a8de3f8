import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhbounds import femcore, fluxrecon
from mhbounds.cases import TIME_PANELS, CaseBind, box_mode_coefficient, make_case
from mhbounds.femcore import FemContext
from mhbounds import mesh as meshmod
from mhbounds.timefourier import sample_periodic
from reference_assembly import build_mesh, vector_at_centroids
from reference_bounds import spacetime_cost, time_mode_pair, u_cubic, y_cubic
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
    spatial = case.profile
    x = np.array([0.7, 0.2])
    y = np.array([0.8, 0.8])
    gx, gy = spatial(x, y)
    assert np.array_equal(gx, gy)
    assert gx[0] == 1.0 and gx[1] == 0.0


def test_exact_states_satisfy_control_relation():
    # the oracle pair of examples 1 and 4 is 2 pi-periodic with a periodic
    # derivative, and u = dy/dt + 2 pi^2 y for the eigenfunction profile
    t = np.linspace(0.1, 6.0, 40)
    h = 1e-6
    dy = (y_cubic(t + h) - y_cubic(t - h)) / (2 * h)
    u = dy + 2 * PI**2 * y_cubic(t)
    assert np.abs(u - u_cubic(t)).max() < 1e-4 * np.abs(u).max()
    for f in (y_cubic, u_cubic):
        assert abs(f(0.0)) == 0.0 and abs(f(2 * PI)) < 1e-12


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
    # frozen from the time-quadrature reference; that of examples 2 and 5,
    # whose exact pair was not time-periodic, lies 6.4e-7 and 5.8e-6 above
    # the closed form
    assert abs(make_case(ident).reference_cost(k) - expected) < 1e-5 * expected


def test_reference_routes_agree():
    # the closed form versus the continuous mode solve from the data
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
            assert abs(via_solve - via_state) < 1e-9 * max(via_state, 1e-12)


def _scalar_optimum(case, k):
    """(cost, state pair) of mode k from the 4 x 4 mode system on the
    eigenfunction, for the data sampled anew."""
    lead = 1.0 if case.problem == "I" else case.eigen_kappa
    d = case.data_scale * np.array(time_mode_pair(case.time_factor, case.omega, k))
    a_c, a_s, b_c, b_s = scalar_mode_solve(case.problem, k, case.lam, case.omega, case.sigma, case.nu,
                                           case.eigen_kappa, *d)
    a = np.array([a_c, a_s])
    # the control is the adjoint over lambda; both profiles have squared norm 1/4
    cost = 0.5 * lead * 0.25 * float((a - d) @ (a - d)) + 0.25 * (b_c**2 + b_s**2) / (2 * case.lam)
    return cost, a


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2, 4, 5]),
    lam=st.floats(1e-4, 10.0),
    omega=st.floats(0.1, 100.0),
    k=st.integers(0, 8),
)
def test_closed_form_is_the_scalar_mode_optimum(ident, lam, omega, k):
    # at any lambda and omega the per-mode cost and state are the optimum
    # of the scalar mode system
    case = make_case(ident, lam=lam, omega=omega)
    cost, state = _scalar_optimum(case, k)
    assert abs(case.reference_cost(k) - cost) <= 1e-12 * cost
    scale = case.data_scale * np.abs(case.mode_pair(k)).max()
    assert np.abs(np.array(case.exact_state_mode(k)) - state).max() <= 1e-12 * scale


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2, 4, 5]),
    lam=st.floats(1e-4, 10.0),
    omega=st.floats(0.1, 100.0),
)
def test_overall_reference_within_its_tail_bound(ident, lam, omega):
    # the total is the sum of the scalar optima over modes 0..K, K =
    # TIME_PANELS, plus the tail modes' optimal cost, which lies between
    # lam / (lam + G_{K+1}) and 1 times the data's tail energy, for
    # 0.5 ||profile||^2 per unit
    case = make_case(ident, lam=lam, omega=omega)
    K = TIME_PANELS
    signal = sample_periodic(case.time_factor, case.omega, panels=K, order=12)
    head = sum((1.0 if k == 0 else 0.5) * case.period * _scalar_optimum(case, k)[0] for k in range(K + 1))
    tail = 0.5 * case.spatial_norm2 * signal.tail(K)
    gain = case.gain(K + 1)
    lower, upper = head + lam / (lam + gain) * tail, head + tail
    total = case.overall_reference()
    assert lower * (1 - 1e-12) <= total <= upper * (1 + 1e-12)


def test_case_construction():
    with pytest.raises(ValueError):
        make_case(7)
    case = make_case(1, lam=1.0, omega=2.0)
    assert case.lam == 1.0 and case.omega == 2.0
    assert abs(case.period - PI) < 1e-15
    # the closed form holds at any lambda and omega of an eigenfunction case
    assert case.has_analytic_reference
    assert make_case(4, omega=2.0).has_analytic_reference
    for ident in (3, 6):
        assert not make_case(ident).has_analytic_reference
        with pytest.raises(ValueError):
            make_case(ident).reference_cost(0)


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
    for name in ("load", "y_vert") if case.problem == "I" else ("load", "g_mean", "g_div"):
        a, b = (bind.load if name == "load" else bind.planes[name] for bind in (whole, blocked))
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name
    assert abs(whole.rest - blocked.rest) <= 1e-14 * whole.rest


@pytest.mark.parametrize("n", [2, 8, 40, 70])
def test_indicator_flux_averages_centroid_values(n):
    # example 6's data jump only on the mesh lines of an even grid, so each
    # triangle's projected mean, which the flux averages, is its centroid
    # value; 40 and 70 end in a partial block of sampled cell rows
    assert 40 % femcore.SAMPLE_ROWS and 70 % femcore.SAMPLE_ROWS
    case = make_case(6)
    mesh = meshmod.build(n)
    flux = CaseBind(case, FemContext(mesh)).planes["g_flux"]
    expect = fluxrecon.grid_average(mesh, vector_at_centroids(build_mesh(n), case.profile))
    for plane in ("horiz", "vert", "diag"):
        assert np.array_equal(getattr(flux, plane), getattr(expect, plane)), plane


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_analytic_reference_from_case_samples(ident):
    # reference_cost, exact_state_mode and overall_reference read the time
    # factor sampled once per case, and equal the scalar optimum for the
    # time factor sampled anew
    calls = []

    def counted(t):
        calls.append(t.size)
        return case.time_factor(t)

    case = make_case(ident)
    sampled_case = dataclasses.replace(case, time_factor=counted)
    for k in range(9):
        cost, state = _scalar_optimum(case, k)
        assert abs(sampled_case.reference_cost(k) - cost) <= 1e-13 * cost, k
        assert np.allclose(sampled_case.exact_state_mode(k), state, rtol=0, atol=1e-14 * np.abs(state).max()), k
    sampled_case.overall_reference()
    assert len(calls) == 1


@pytest.mark.parametrize("ident", [1, 4])
def test_closed_form_matches_time_domain_oracle(ident):
    # at their own lambda and omega the optimal pair of examples 1 and 4 is
    # (y_cubic, u_cubic) times the eigenfunction: their per-mode costs and
    # states, and the total over one period, by time quadrature
    case = make_case(ident)
    misfit_norm2 = case.spatial_norm2 if case.problem == "I" else case.eigen_kappa * 0.25
    for k in range(9):
        expect = spacetime_cost(k, case.lam, case.omega, y_cubic, u_cubic, case.time_factor,
                                misfit_norm2, 0.25, data_scale=case.data_scale)
        assert abs(case.reference_cost(k) - expect) <= 1e-14 * expect, k
        pair = time_mode_pair(y_cubic, case.omega, k)
        assert np.allclose(case.exact_state_mode(k), pair, rtol=0, atol=1e-14 * max(np.abs(pair).max(), 1.0)), k
    y, u, g = (sample_periodic(f, case.omega, panels=TIME_PANELS, order=12)
               for f in (y_cubic, u_cubic, case.time_factor))
    misfit = dataclasses.replace(y, values=y.values - case.data_scale * g.values)
    expect = 0.5 * misfit.norm2() * misfit_norm2 + 0.5 * case.lam * u.norm2() * 0.25
    assert abs(case.overall_reference() - expect) <= 1e-13 * expect
