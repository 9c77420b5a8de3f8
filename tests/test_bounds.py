import numpy as np
import pytest

from mhbounds import fluxrecon, mesh as meshmod, oracle
from mhbounds.bounds import (
    BoundParams,
    ModeData,
    aggregate,
    combined_norm_weights,
    efficiency_indices,
    evaluate_mode,
    m1_index,
    majorant_form,
    optimize_majorant_params,
)
from mhbounds.cases import CaseBind, make_case
from mhbounds.femcore import FemContext
from mhbounds.saddlesolve import direct_solve
from mhbounds.systems import build_matrices, build_mode_system


def _params(lam=0.1, omega=1.0, **kw):
    return BoundParams(lam=lam, omega=omega, **kw)


def _random_config(rng):
    n = int(rng.integers(3, 7))
    k = int(rng.integers(0, 6))
    lam = float(10 ** rng.uniform(-3, 1))
    omega = float(rng.uniform(0.3, 5.0))
    sigma = float(rng.uniform(0.5, 2.0))
    nu = float(rng.uniform(0.5, 2.0))
    problem = "I" if rng.random() < 0.5 else "II"
    return problem, n, k, lam, omega, sigma, nu


def _solve_random(rng, problem, n, k, lam, omega, sigma, nu):
    ctx = FemContext(meshmod.build(n))
    mats = build_matrices(ctx, sigma, nu)
    params = BoundParams(lam=lam, omega=omega, sigma=sigma, nu=nu)
    if problem == "I":
        d_c = rng.standard_normal(ctx.mesh.num_nodes)
        d_s = rng.standard_normal(ctx.mesh.num_nodes)
        rhs_c = (ctx.M_full @ d_c)[ctx.mesh.interior_nodes]
        rhs_s = (ctx.M_full @ d_s)[ctx.mesh.interior_nodes]
        data = ModeData(
            k=k,
            y_qp_c=ctx.p1_at_qp(d_c),
            y_qp_s=None if k == 0 else ctx.p1_at_qp(d_s),
        )
    else:
        w_c = rng.standard_normal(ctx.mesh.num_nodes)
        w_s = rng.standard_normal(ctx.mesh.num_nodes)
        g_c, g_s = ctx.p1_grad(w_c), ctx.p1_grad(w_s)
        rhs_c = (ctx.K_full @ w_c)[ctx.mesh.interior_nodes]
        rhs_s = (ctx.K_full @ w_s)[ctx.mesh.interior_nodes]
        qp_c = np.broadcast_to(g_c[:, None, :], ctx.qp.shape).copy()
        qp_s = np.broadcast_to(g_s[:, None, :], ctx.qp.shape).copy()
        data = ModeData(
            k=k,
            g_qp_c=qp_c,
            g_qp_s=None if k == 0 else qp_s,
            g_edge_c=fluxrecon.reconstruct_p0(ctx.mesh, g_c).coeffs,
            g_edge_s=None if k == 0 else fluxrecon.reconstruct_p0(ctx.mesh, g_s).coeffs,
        )
    system = build_mode_system(problem, mats, k, lam, omega, rhs_c,
                               None if k == 0 else rhs_s)
    sol = direct_solve(system)
    return ctx, mats, params, sol, data


def test_closed_form_beats_grid_search(rng):
    params = _params()
    for _ in range(25):
        A, B, C = rng.uniform(0.01, 100.0, size=3)
        alpha, beta = optimize_majorant_params(A, B, C, params)
        ours = majorant_form(A, B, C, alpha, beta, params)
        _, _, best = oracle.grid_search_alpha_beta(A, B, C, params)
        assert ours <= best * (1 + 1e-10)


def test_closed_form_beats_unit_parameters(rng):
    params = _params()
    for _ in range(100):
        A, B, C = rng.uniform(0.0, 50.0, size=3)
        alpha, beta = optimize_majorant_params(A, B, C, params)
        opt = majorant_form(A, B, C, alpha, beta, params)
        assert opt <= majorant_form(A, B, C, 1.0, 1.0, params) + 1e-12


def test_parameter_guards():
    params = _params()
    # no flux residual: the beta -> infinity limit value is attained
    alpha, beta = optimize_majorant_params(2.0, 0.0, 3.0, params)
    assert beta == params.beta_cap
    value = majorant_form(2.0, 0.0, 3.0, alpha, beta, params)
    H = params.c_friedrichs**4 * 9.0 / (2 * params.mu1**2)
    limit = 1.0 + np.sqrt(2 * H * 2.0) + H
    assert abs(value - limit) < 1e-5 * limit
    # everything zero: alpha pinned at the floor, value reduces to P
    alpha, beta = optimize_majorant_params(0.0, 0.0, 0.0, params)
    assert alpha == params.alpha_floor
    assert majorant_form(0.0, 0.0, 0.0, alpha, beta, params, P=7.0) == 7.0


def test_gamma_positive(rng):
    params = _params()
    for _ in range(50):
        a, b = 10 ** rng.uniform(-6, 6, size=2)
        assert params.gamma(a, b) > 0


def test_flux_residual_grows_under_perturbation(ctx8, rng):
    # convexity: moving away from any point in at least one of the two
    # opposite directions increases the distance to the gradient field
    w = rng.standard_normal(ctx8.mesh.num_nodes)
    tau = fluxrecon.reconstruct(ctx8, w)
    grad = ctx8.p1_grad(w)

    def r2(flux):
        return np.sqrt(ctx8.vec_norm2(fluxrecon.at_qp(ctx8, flux) - grad[:, None, :]))

    base = r2(tau)
    for _ in range(20):
        delta = rng.standard_normal(ctx8.mesh.num_edges)
        plus = r2(fluxrecon.RTFlux(ctx8.mesh, tau.coeffs + delta))
        minus = r2(fluxrecon.RTFlux(ctx8.mesh, tau.coeffs - delta))
        assert max(plus, minus) > base


def test_mixed_term_identities(rng):
    # problem I pairing evaluates to 2/lam ||p||^2 at the discrete solution;
    # problem II pairing vanishes there
    for seed in range(5):
        local = np.random.default_rng(seed)
        problem, n, k, lam, omega, sigma, nu = _random_config(local)
        ctx, mats, params, sol, data = _solve_random(local, problem, n, k, lam, omega, sigma, nu)
        mb = evaluate_mode(problem, ctx, mats, params, sol, data)
        scale = max(abs(mb.mixed), 2 * mb.control_energy, 1e-12)
        if problem == "I":
            assert abs(mb.mixed - 4 * mb.control_energy) < 1e-8 * scale
        else:
            assert abs(mb.mixed) < 1e-8 * max(scale, abs(mb.misfit))


def test_sandwich_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        problem, n, k, lam, omega, sigma, nu = _random_config(rng)
        ctx, mats, params, sol, data = _solve_random(rng, problem, n, k, lam, omega, sigma, nu)
        mb = evaluate_mode(problem, ctx, mats, params, sol, data)
        assert mb.minorant <= mb.majorant + 1e-9 * abs(mb.majorant)
        assert mb.m1 >= mb.m_plain >= -1e-9 * abs(mb.majorant)


def test_scaling_covariance():
    rng = np.random.default_rng(3)
    problem, n, k, lam, omega, sigma, nu = "I", 5, 2, 0.3, 1.4, 1.0, 1.0
    ctx, mats, params, sol, data = _solve_random(rng, problem, n, k, lam, omega, sigma, nu)
    base = evaluate_mode(problem, ctx, mats, params, sol, data)
    for s in (2.0, 10.0):
        from mhbounds.systems import ModeSolution

        scaled_sol = ModeSolution(
            k=k, lam=lam, y_c=s * sol.y_c, p_c=s * sol.p_c,
            y_s=s * sol.y_s, p_s=s * sol.p_s,
        )
        scaled_data = ModeData(
            k=k, y_qp_c=s * data.y_qp_c, y_qp_s=s * data.y_qp_s
        )
        mb = evaluate_mode(problem, ctx, mats, params, scaled_sol, scaled_data)
        assert abs(mb.majorant - s**2 * base.majorant) < 1e-9 * s**2 * abs(base.majorant)
        assert abs(mb.minorant - s**2 * base.minorant) < 1e-9 * s**2 * abs(base.majorant)


def test_bracketing_example1_coarse(ctx16):
    case = make_case(1)
    params = _params(case.lam, case.omega)
    mats = build_matrices(ctx16)
    bind = CaseBind(case, ctx16)
    for k in (0, 1):
        rc, rs = bind.rhs(k)
        system = build_mode_system("I", mats, k, case.lam, case.omega, rc, rs)
        sol = direct_solve(system)
        mb = evaluate_mode("I", ctx16, mats, params, sol, bind.mode_data(k))
        ref = bind.reference_cost(k)
        assert mb.minorant <= ref * (1 + 1e-3)
        assert mb.majorant >= ref * (1 - 1e-3)


def test_aggregate_shape():
    params = _params()
    rng = np.random.default_rng(0)
    _, _, params2, sol, data = _solve_random(rng, "I", 4, 0, 0.1, 1.0, 1.0, 1.0)
    ctx, mats, params2, sol, data = _solve_random(rng, "I", 4, 0, 0.1, 1.0, 1.0, 1.0)
    b0 = evaluate_mode("I", ctx, mats, params2, sol, data)
    total = aggregate([b0], params2, remainder=10.0)
    T = params2.period
    assert abs(total.minorant - (T * b0.minorant + 5.0)) < 1e-12 * max(1, abs(total.minorant))
    expected_tail = 0.5 * (1 + params2.alpha_tail) * 10.0
    assert abs(total.majorant - (T * b0.majorant + expected_tail)) < 1e-12 * max(1, abs(total.majorant))
    with pytest.raises(ValueError):
        aggregate([], params2, 0.0)


def test_combined_norm_weights():
    params = _params(lam=0.1, omega=1.0)
    c = 0.1 * params.mu1**2 / (2 * params.c_friedrichs**2)
    assert combined_norm_weights("I", params, 0) == (0.5, c)
    assert combined_norm_weights("I", params, 3) == (0.5 + 3 * c, c)
    assert combined_norm_weights("II", params, 0) == (0.0, 0.5 + c)
    assert combined_norm_weights("II", params, 3) == (3 * c, 0.5 + c)


def test_efficiency_indices_trivial():
    idx = efficiency_indices(2.0, 2.0, 2.0)
    assert idx["ieff_minorant"] == 1.0
    assert idx["ieff_majorant"] == 1.0
    assert idx["ieff_ratio"] == 1.0
    idx = efficiency_indices(1.0, 2.0, None)
    assert np.isnan(idx["ieff_minorant"])
    assert m1_index(1.0, None) != m1_index(1.0, None)  # nan
    assert m1_index(0.0, 1.0) == 0.0
