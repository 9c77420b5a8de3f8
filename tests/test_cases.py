import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhbounds import femcore, fluxrecon
from mhbounds.cases import SUM_MODES, TRIG, CaseBind, box_mode_coefficient, make_case
from mhbounds.femcore import FemContext
from mhbounds import mesh as meshmod
from reference_assembly import build_mesh, vector_at_centroids
from reference_bounds import sample_periodic, spacetime_cost, time_mode_pair, u_cubic, y_cubic
from reference_systems import scalar_mode_solve

PI = np.pi
# panels of the time-quadrature oracle: at most one period of a mode up to
# this index per panel
ORACLE_PANELS = 256


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


def _bracket(case, head, tail, K):
    """Bounds on the total cost from the scalar optima `head` of modes 0..K
    and the data's tail energy past K: the tail modes cost between
    lam / (lam + G_{K+1}) and 1 times their energy, for 0.5 ||profile||^2
    per unit."""
    tail = 0.5 * case.spatial_norm2 * tail
    return head + case.lam / (case.lam + case.gain(K + 1)) * tail, head + tail


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2, 4, 5]),
    lam=st.floats(1e-4, 10.0),
    omega=st.floats(0.1, 100.0),
)
def test_overall_reference_within_its_tail_bound(ident, lam, omega):
    # the bracket at K = ORACLE_PANELS, its head and tail from the
    # time-quadrature oracle
    case = make_case(ident, lam=lam, omega=omega)
    K = ORACLE_PANELS
    signal = sample_periodic(case.time_factor, case.omega, panels=K, order=12)
    T = case.params.period
    head = sum((1.0 if k == 0 else 0.5) * T * _scalar_optimum(case, k)[0] for k in range(K + 1))
    lower, upper = _bracket(case, head, signal.tail(K), K)
    total = case.overall_reference()
    assert lower * (1 - 1e-12) <= total <= upper * (1 + 1e-12)


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_overall_reference_to_1e8_at_small_lambda_and_omega(ident):
    # at lambda = 1e-4, omega = 0.1 the gain decays slowly in k, and the
    # bracket at K = 256 is up to 2.5e-2 wide; at the K where the sum stops at
    # the latest it is below 1e-8, from the closed-form mode energies that
    # test_mode_pair_matches_oracle checks, and holds the total
    case = make_case(ident, lam=1e-4, omega=0.1)
    K = SUM_MODES - 1
    energy = case._energies(np.arange(K + 1))
    gain = case.gain(np.arange(K + 1))
    head = 0.5 * case.spatial_norm2 * float(energy @ (case.lam / (case.lam + gain)))
    lower, upper = _bracket(case, head, case.time_norm2 - float(energy.sum()), K)
    assert upper - lower <= 1e-8 * lower
    total = case.overall_reference()
    assert lower * (1 - 1e-12) <= total <= upper * (1 + 1e-12)


def test_case_construction():
    with pytest.raises(ValueError):
        make_case(7)
    case = make_case(1, lam=1.0, omega=2.0)
    assert case.lam == 1.0 and case.omega == 2.0
    assert abs(case.params.period - PI) < 1e-15
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


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_make_case_rejects_overflowing_time_data(ident):
    # e^t over the period 2 pi / omega: its squared norm overflows above
    # T = 355, so omega = 0.001 is refused and omega = 0.02 kept
    with pytest.raises(ValueError, match="omega = 0.001 is too small"):
        make_case(ident, omega=0.001)
    assert np.isfinite(make_case(ident, omega=0.02).time_norm2)


def test_make_case_names_the_parameter_at_fault():
    # a data norm within the cap leaves 1 / lambda at fault; one that
    # overflows is said to, not printed as nan
    with pytest.raises(ValueError, match="lambda = 1e-300 is too small for omega = 6.28319: .* is 0.125,"):
        make_case(3, lam=1e-300)
    with pytest.raises(ValueError, match="omega = 0.001 is too small") as exc:
        make_case(1, omega=0.001)
    assert "nan" not in str(exc.value) and "overflows" in str(exc.value)


def test_remainder_rejects_negative_index():
    for ident in (1, 3):
        with pytest.raises(ValueError, match="nonnegative"):
            make_case(ident).remainder(-1)


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
        sysk = build_mode_system(case.params, mats, 1, bind.rhs(1))
        sol = direct_solve(sysk, case.params)
        l2, h1 = bind.error_norms(1, sol, femcore.Scratch())
        assert l2 > 0 and h1 > 0
        errs.append((l2, h1))
    assert errs[1][0] < errs[0][0] / 8  # about fourth order in the squared L2 error
    assert errs[1][1] < errs[0][1] / 3  # about second order in the squared H1 error


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_mode_pair_matches_coefficient_table(ident):
    # the closed-form mode_pair(k) against the time-quadrature oracle at the
    # case's own omega
    case = make_case(ident)
    table = np.array([time_mode_pair(case.time_factor, case.omega, k) for k in range(10)])
    scale = np.abs(table).max()
    for k in range(10):
        got, expect = case.mode_pair(k), table[k]
        assert np.allclose(got, expect, rtol=0, atol=1e-14 * scale), (k, got, expect)


@pytest.mark.parametrize("ident", [1, 4, 6])
@pytest.mark.parametrize("rows", [1, 5])
def test_bind_in_row_blocks_matches_one_block(monkeypatch, ident, rows):
    # loads, projections and remainder, and a load of `ctx.load`, do not
    # depend on how many cell rows are sampled at a time
    def f(x, y):
        return np.exp(x) * np.cos(3 * y)

    ctx = FemContext(meshmod.build(12))
    case = make_case(ident)
    whole, whole_load = CaseBind(case, ctx), ctx.load(f)
    monkeypatch.setattr(femcore, "SAMPLE_ROWS", rows)
    blocked, blocked_load = CaseBind(case, ctx), ctx.load(f)
    assert np.abs(whole_load - blocked_load).max() <= 1e-14 * np.abs(whole_load).max()
    for name in ("load", "y_vert") if case.problem == "I" else ("load", "g_mean", "g_div"):
        a, b = (bind.load if name == "load" else bind.planes[name] for bind in (whole, blocked))
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max(), name
    assert abs(whole.rest - blocked.rest) <= 1e-14 * whole.rest


@pytest.mark.parametrize("ident", [1, 4, 6])
def test_binding_transient_memory_stays_bounded(ident):
    # besides what it keeps (load, projection planes, flux, state load),
    # CaseBind holds one block's sample and image buffers while it binds,
    # and within a margin f's values of one block with their temporaries,
    # the node grid the loads are summed on and 64 KiB of small arrays; no
    # (2, 3, n, n) per-triangle array fits in that margin
    n = 128
    case, mesh = make_case(ident), meshmod.build(n)
    tracemalloc.start()
    try:
        bind = CaseBind(case, FemContext(mesh))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [bind.load] + [bind.planes[name] for name in ("y_vert", "g_mean", "g_div") if name in bind.planes]
    if "g_flux" in bind.planes:
        flux = bind.planes["g_flux"]
        arrays += [flux.horiz, flux.vert, flux.diag]
    if bind.state_load is not None and bind.state_load is not bind.load:
        arrays.append(bind.state_load)
    kept = sum(a.nbytes for a in arrays)
    maps = bind.ctx._vector_map if case.problem == "II" else bind.ctx._scalar_map
    cells = femcore.SAMPLE_ROWS * n
    block = 2 * sum(maps.shape[1:]) * cells * 8  # image (2, D, R n) and samples (2, PQ, R n)
    values = 2 * len(femcore.QUAD_W) * cells * 8  # one (2, Q, R, n) array
    margin = 2 * values + (n + 1) ** 2 * 8 + 64 * 1024
    assert margin < 2 * 3 * n * n * 8
    assert peak <= kept + block + margin, (peak, kept, block, margin)


@pytest.mark.parametrize("n", [2, 8, 40, 70])
def test_indicator_flux_averages_centroid_values(n):
    # example 6's data jump only on the mesh lines of an even grid, so each
    # triangle's projected mean, which the flux averages, is its centroid
    # value; 70 ends in a partial block of sampled cell rows
    assert 70 % femcore.SAMPLE_ROWS
    case = make_case(6)
    mesh = meshmod.build(n)
    flux = CaseBind(case, FemContext(mesh)).planes["g_flux"]
    expect = fluxrecon.grid_average(mesh, vector_at_centroids(build_mesh(n), case.profile))
    for plane in ("horiz", "vert", "diag"):
        assert np.array_equal(getattr(flux, plane), getattr(expect, plane)), plane


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_analytic_reference_from_case_samples(ident):
    # reference_cost, exact_state_mode and overall_reference read the time
    # factor evaluated once per case, and equal the scalar optimum for the
    # time factor sampled anew by the oracle
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
    y, u, g = (sample_periodic(f, case.omega, panels=ORACLE_PANELS, order=12)
               for f in (y_cubic, u_cubic, case.time_factor))
    misfit = dataclasses.replace(y, values=y.values - case.data_scale * g.values)
    expect = 0.5 * misfit.norm2() * misfit_norm2 + 0.5 * case.lam * u.norm2() * 0.25
    assert abs(case.overall_reference() - expect) <= 1e-13 * expect


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2, 4, 5]),
    omega=st.floats(0.1, 100.0),
    k=st.integers(0, ORACLE_PANELS),
)
def test_mode_pair_matches_oracle(ident, omega, k):
    # the closed-form coefficients and norm against the time-quadrature
    # oracle, with half a period of mode 256 per panel, on the scale of the
    # time factor's root mean square
    _assert_matches_oracle(make_case(ident, omega=omega), k)


@pytest.mark.parametrize("omega", [1e3, 1e8, 1e50])
@pytest.mark.parametrize("ident", [1, 4])
def test_short_periods_keep_their_digits(ident, omega):
    # examples 1 and 4 vanish at t = 0, where the eight-point coefficients'
    # sum is off by their rounding; on a short period that would be all of
    # the time factor, but the Taylor series starts from the sample there
    case = make_case(ident, omega=omega)
    for k in range(4):
        _assert_matches_oracle(case, k)


def _assert_matches_oracle(case, k):
    signal = sample_periodic(case.time_factor, case.omega, panels=2 * ORACLE_PANELS, order=12)
    rms = np.sqrt(signal.norm2() / signal.period)
    assert np.abs(np.array(case.mode_pair(k)) - signal.mode(k)).max() <= 1e-13 * rms
    assert abs(case.time_norm2 - signal.norm2()) <= 1e-13 * signal.norm2()


@pytest.mark.parametrize("ident", [1, 2, 4, 5])
def test_trig_coefficients_reproduce_the_time_factor(ident):
    # the eight samples give every coefficient only if time_factor(t) e^{-t}
    # is a trig polynomial of degree at most 3; at random t the series
    # reproduces it to rounding, and a factor of degree 4 fails
    rng = np.random.default_rng(ident)
    t = rng.uniform(0.0, 20.0, 200)

    def series(case):
        return np.real(np.exp(1j * np.multiply.outer(t, TRIG)) @ case._trig_coefs)

    case = make_case(ident)
    expect = case.time_factor(t) * np.exp(-t)
    assert np.abs(series(case) - expect).max() <= 1e-14 * np.abs(expect).max()
    quartic = dataclasses.replace(case, time_factor=lambda t: np.exp(t) * np.sin(t) ** 4)
    assert np.abs(series(quartic) - np.sin(t) ** 4).max() > 0.1


@pytest.mark.parametrize("ident", range(1, 7))
def test_data_norm_is_the_energy_of_all_modes(ident):
    # ||data||_T^2, which make_case keeps below overflow, is mode 0's energy
    # plus the tail energy of every mode above it
    case = make_case(ident)
    mean = case.mode_pair(0)[0]
    total = case.remainder(0) + case.params.period * mean**2 * case.spatial_norm2
    assert case.data_norm2 == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("ident", range(1, 7))
def test_profile_projection_norm_is_the_spatial_norm(ident):
    # the exact norm of the profile's projection plus the stored rest, its
    # squared quadrature norm, is the profile's squared L2 norm to rounding
    # on every grid: the fine reference's cost reads it as spatial_norm2
    from mhbounds.bounds import _p1_norm2, _rt0_norm2

    case = make_case(ident)
    for n in range(2, 9, 1 if case.has_analytic_reference else 2):
        ctx = FemContext(build_mesh(n))
        bind = CaseBind(case, ctx)
        if case.problem == "I":
            exact = _p1_norm2(ctx, np.zeros((1, n + 1, n + 1)), np.empty((2, 1, n, n)),
                              vert=bind.planes["y_vert"][None])
        else:
            exact = _rt0_norm2(ctx, bind.planes["g_mean"][None], bind.planes["g_div"][None])
        assert abs(exact + bind.rest - case.spatial_norm2) <= 1e-14 * case.spatial_norm2
