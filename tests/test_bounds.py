from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mhbounds import bounds, fluxrecon, mesh as meshmod
from mhbounds.bench import ExperimentConfig, run
from mhbounds.bounds import (
    ALPHA_TAIL,
    C_FRIEDRICHS,
    _rt0_norm2,
    aggregate,
    combined_norm_weights,
    efficiency_indices,
    ModeTerms,
    evaluate_mode,
    m1_index,
    mode_bounds,
    optimal_majorant,
)
from mhbounds.cases import CaseBind, make_case
from mhbounds.femcore import FemContext, Scratch
from mhbounds.saddlesolve import build_precond_I, build_precond_II, minres
from mhbounds.systems import ModeSolution, ProblemParams, build_matrices, build_mode_system, mode_parts
from reference_assembly import (
    build_mesh, cell_gradients, data_at_qp, gradient_load_from_qp, load_from_qp, p1_at_qp, p1_grad,
    quadrature_weights,
)
from reference_bounds import (
    QuadratureData, evaluate_mode_reference, grid_search_alpha_beta, majorant_form, optimal_parameters, project,
    rt0_from_callable, rt0_reconstruct,
)
from reference_systems import direct_solve


# the coercivity constant min(nu, sigma) / sqrt(2) at sigma = nu = 1
MU1 = 1.0 / np.sqrt(2.0)


def _steps(steps, surrogate_inverse):
    """`minres` keywords for exactly `steps` Krylov steps: MinRes takes a
    fixed step count, GMRES that many steps toward tol = 0."""
    return dict(tol=0.0, maxiter=steps) if surrogate_inverse else dict(tol=1e-8, maxiter=200, fixed_iters=steps)


def _random_config(rng):
    n = int(rng.integers(3, 7))
    k = int(rng.integers(0, 6))
    lam = float(10 ** rng.uniform(-3, 1))
    omega = float(rng.uniform(0.3, 5.0))
    sigma = float(rng.uniform(0.5, 2.0))
    nu = float(rng.uniform(0.5, 2.0))
    problem = "I" if rng.random() < 0.5 else "II"
    return problem, n, k, lam, omega, sigma, nu


def _solve_random(rng, problem, n, k, lam, omega, sigma, nu, steps=None, noise=0.0,
                  surrogate_inverse=False):
    """Random data on an n x n grid, solved directly or by `steps` Krylov steps:
    MinRes with the paper's preconditioner, or with `surrogate_inverse` GMRES
    with A~_k^{-1}.

    The data are one random profile times a random (cosine, sine) pair, the
    form of every case's data.  The profile is a random P1 field (problem I)
    or its gradient (problem II), plus `noise` times a random value at every
    quadrature point, which leaves a remainder outside the per-triangle
    projections.  Returns the quadrature samples of the data, with the
    right-hand side their loads.
    """
    ctx = FemContext(build_mesh(n))
    mats = build_matrices(ctx, sigma, nu)
    params = ProblemParams(problem, lam, omega)
    coef = rng.standard_normal(2)[: mode_parts(k)]
    shape = quadrature_weights(ctx).shape
    if problem == "I":
        y_qp = p1_at_qp(ctx, rng.standard_normal(ctx.mesh.num_nodes))
        if noise:
            y_qp += noise * rng.standard_normal(shape)
        load = load_from_qp(ctx.mesh, y_qp)
        data = QuadratureData(coef, y_qp=y_qp)
    else:
        g = p1_grad(ctx, rng.standard_normal(ctx.mesh.num_nodes))
        g_qp = np.broadcast_to(g[:, None, :], shape + (2,)).copy()
        if noise:
            g_qp += noise * rng.standard_normal(shape + (2,))
        load = gradient_load_from_qp(ctx.mesh, g_qp)
        data = QuadratureData(coef, g_qp=g_qp, g_edge=rt0_reconstruct(ctx.mesh, g))
    system = build_mode_system(params, mats, k, np.multiply.outer(coef, load))
    if steps is None:
        sol = direct_solve(system, params)
    else:
        build = build_precond_I if problem == "I" else build_precond_II
        precond = build(params, mats, k, surrogate_inverse=surrogate_inverse)
        sol, _ = minres(system, precond, scratch=Scratch(), **_steps(steps, surrogate_inverse))
    return ctx, mats, params, sol, data


def _bounds(params, mats, ctx, sol, data, scratch):
    """The mode's bounds, from the terms `evaluate_mode` gives."""
    return mode_bounds(evaluate_mode(params, mats, ctx, sol, data, scratch=scratch), params, mats.mu1)


def _closed_form(A, r1, r2, mu1, P):
    return optimal_majorant(A, C_FRIEDRICHS * r1 + r2, P, mu1)


def test_closed_form_beats_grid_search(rng):
    # the closed form lies below the explicit-parameter form at every point
    # of the 40 x 40 log grid and at alpha = beta = 1
    for _ in range(25):
        A, r1, r2, P = rng.uniform(0.0, 100.0, size=4)
        ours = _closed_form(A, r1, r2, MU1, P)
        assert ours <= grid_search_alpha_beta(A, r1, r2, MU1, P)[2] * (1 + 1e-13)
        assert ours <= majorant_form(A, r1, r2, 1.0, 1.0, MU1, P) * (1 + 1e-13)


def test_closed_form_attains_reference_at_optimum(rng):
    # at the textbook minimizers alpha*, beta* the explicit form equals the
    # closed form, over inputs spanning 16 orders of magnitude
    for _ in range(200):
        mu1 = float(rng.uniform(0.5, 2.0, size=2).min()) / np.sqrt(2.0)  # min(nu, sigma) / sqrt(2)
        A, r1, r2, P = 10 ** rng.uniform(-8, 8, size=4)
        ref = majorant_form(A, r1, r2, *optimal_parameters(A, r1, r2, mu1), mu1, P)
        assert abs(_closed_form(A, r1, r2, mu1, P) - ref) <= 1e-13 * ref


def test_closed_form_limits():
    # a zero misfit, flux residual or equation residual, or all three, give
    # the explicit form's limit at its textbook parameters (inf, or 0/0),
    # and with all three zero exactly the control energy
    for A, r1, r2 in ((0.0, 3.0, 2.0), (2.0, 3.0, 0.0), (2.0, 0.0, 3.0), (0.0, 3.0, 0.0), (0.0, 0.0, 0.0)):
        ours = _closed_form(A, r1, r2, MU1, P=7.0)
        ref = majorant_form(A, r1, r2, *optimal_parameters(A, r1, r2, MU1), MU1, P=7.0)
        assert np.isfinite(ours) and abs(ours - ref) <= 1e-15 * ref, (A, r1, r2)
    assert _closed_form(0.0, 0.0, 0.0, MU1, P=7.0) == 7.0


def test_flux_residual_grows_under_perturbation(ctx8, rng):
    # convexity: moving away from any point in at least one of the two
    # opposite directions increases the distance to the gradient field
    mesh = ctx8.mesh
    n = mesh.n
    grad = cell_gradients(mesh, rng.standard_normal((n + 1, n + 1)))
    tau = fluxrecon.grid_average(mesh, grad)

    def r2(flux):
        out = np.empty((2, 2, n, n)), np.empty((2, n, n))
        centre, div = fluxrecon.grid_affine_form(mesh, flux, out)
        return np.sqrt(_rt0_norm2(ctx8, centre - grad, div))

    base = r2(tau)
    for _ in range(20):
        delta = [rng.standard_normal(a.shape) for a in (tau.horiz, tau.vert, tau.diag)]
        planes = (tau.horiz, tau.vert, tau.diag)
        plus = r2(fluxrecon.GridFlux(*(a + d for a, d in zip(planes, delta))))
        minus = r2(fluxrecon.GridFlux(*(a - d for a, d in zip(planes, delta))))
        assert max(plus, minus) > base


def test_mixed_term_identities(rng, scratch):
    # at the discrete solution the adjoint row gives bilin = -||p||_M^2 / lam,
    # so problem I's mixed term is 2/lam ||p||^2 and problem II's vanishes
    for seed in range(5):
        local = np.random.default_rng(seed)
        problem, n, k, lam, omega, sigma, nu = _random_config(local)
        ctx, mats, params, sol, data = _solve_random(local, problem, n, k, lam, omega, sigma, nu)
        terms = evaluate_mode(params, mats, ctx, sol, project(ctx, data), scratch=scratch)
        quad = terms.p_mass / lam
        assert abs(terms.bilin + quad) < 1e-8 * max(abs(terms.bilin), quad, 1e-12)


@pytest.mark.parametrize("problem", ["I", "II"])
def test_mode_bounds_on_hand_set_terms(problem):
    # with r1 ... r4 = 0 the majorant is misfit/2 + P and the minorant
    # misfit/2 + P - (p_mass / lam -+ bilin), P = p_mass / (2 lam), the sign
    # - for problem I and + for problem II; a nonzero r1 raises the majorant
    params = ProblemParams(problem, 0.5, 1.0)
    terms = ModeTerms(2, misfit=4.0, r1=0.0, r2=0.0, r3=0.0, r4=0.0, p_mass=2.0, bilin=0.75)
    mb = mode_bounds(terms, params, MU1)
    mixed = 4.0 - 0.75 if problem == "I" else 4.0 + 0.75
    assert (mb.k, mb.majorant, mb.m1_extra) == (2, 2.0 + 2.0, 0.0)
    assert mb.minorant == 2.0 + 2.0 - mixed
    raised = mode_bounds(ModeTerms(2, 4.0, 0.1, 0.0, 0.0, 0.0, 2.0, 0.75), params, MU1)
    assert raised.majorant > mb.majorant and raised.m1_extra > 0


def test_sandwich_random_configs(scratch):
    rng = np.random.default_rng(7)
    for _ in range(30):
        problem, n, k, lam, omega, sigma, nu = _random_config(rng)
        ctx, mats, params, sol, data = _solve_random(rng, problem, n, k, lam, omega, sigma, nu)
        mb = _bounds(params, mats, ctx, sol, project(ctx, data), scratch)
        assert mb.minorant <= mb.majorant + 1e-9 * abs(mb.majorant)
        assert _m1(mb) >= mb.majorant - mb.minorant >= -1e-9 * abs(mb.majorant)


def test_scaling_covariance(scratch):
    rng = np.random.default_rng(3)
    problem, n, k, lam, omega, sigma, nu = "I", 5, 2, 0.3, 1.4, 1.0, 1.0
    ctx, mats, params, sol, data = _solve_random(rng, problem, n, k, lam, omega, sigma, nu, noise=0.3)
    base = _bounds(params, mats, ctx, sol, project(ctx, data), scratch)
    for s in (2.0, 10.0):
        scaled_sol = ModeSolution(k=k, y=s * sol.y, p=s * sol.p)
        scaled_data = project(ctx, QuadratureData(s * data.coef, y_qp=data.y_qp))
        mb = _bounds(params, mats, ctx, scaled_sol, scaled_data, scratch)
        assert abs(mb.majorant - s**2 * base.majorant) < 1e-9 * s**2 * abs(base.majorant)
        assert abs(mb.minorant - s**2 * base.minorant) < 1e-9 * s**2 * abs(base.majorant)


def test_bracketing_example1_coarse(ctx16, scratch):
    case = make_case(1)
    params = case.params
    mats = build_matrices(ctx16)
    bind = CaseBind(case, ctx16)
    for k in (0, 1):
        system = build_mode_system(params, mats, k, bind.rhs(k))
        sol = direct_solve(system, params)
        mb = _bounds(params, mats, ctx16, sol, bind.mode_data(k), scratch)
        ref = case.reference_cost(k)
        assert mb.minorant <= ref * (1 + 1e-3)
        assert mb.majorant >= ref * (1 - 1e-3)


def test_aggregate_shape(scratch):
    rng = np.random.default_rng(0)
    ctx, mats, params, sol, data = _solve_random(rng, "I", 4, 0, 0.1, 1.0, 1.0, 1.0)
    b0 = _bounds(params, mats, ctx, sol, project(ctx, data), scratch)
    total = aggregate([b0], params, remainder=10.0)
    T = params.period
    assert abs(total.minorant - (T * b0.minorant + 5.0)) < 1e-12 * max(1, abs(total.minorant))
    expected_tail = 0.5 * (1 + ALPHA_TAIL) * 10.0
    assert abs(total.majorant - (T * b0.majorant + expected_tail)) < 1e-12 * max(1, abs(total.majorant))
    assert total.m1_extra == T * b0.m1_extra
    with pytest.raises(ValueError):
        aggregate([], params, 0.0)


def test_aggregate_weights_each_mode_by_its_parts(scratch):
    # mode 0 weighs T and every higher mode T/2, whatever modes are missing
    # between them, and a list without mode 0 is refused
    rng = np.random.default_rng(1)
    modes = []
    for k in (3, 0, 1):
        ctx, mats, params, sol, data = _solve_random(rng, "I", 4, k, 0.1, 1.0, 1.0, 1.0)
        modes.append(_bounds(params, mats, ctx, sol, project(ctx, data), scratch))
    b3, b0, b1 = modes
    T = params.period
    total = aggregate(modes, params, remainder=10.0)
    for name, tail in (("minorant", 5.0), ("majorant", 0.5 * (1 + ALPHA_TAIL) * 10.0), ("m1_extra", 0.0)):
        expect = T * getattr(b0, name) + T / 2 * (getattr(b1, name) + getattr(b3, name)) + tail
        assert abs(getattr(total, name) - expect) <= 1e-13 * abs(expect)
    with pytest.raises(ValueError, match="k=0"):
        aggregate([b1, b3], params, 0.0)


def test_combined_norm_weights():
    c = 0.1 * MU1**2 / (2 * C_FRIEDRICHS**2)
    one, two = ProblemParams("I", 0.1, 1.0), ProblemParams("II", 0.1, 1.0)
    assert combined_norm_weights(one, MU1, 0) == (0.5, c)
    assert combined_norm_weights(one, MU1, 3) == (0.5 + 3 * c, c)
    assert combined_norm_weights(two, MU1, 0) == (0.0, 0.5 + c)
    assert combined_norm_weights(two, MU1, 3) == (3 * c, 0.5 + c)


def test_efficiency_indices_trivial():
    idx = efficiency_indices(2.0, 2.0, 2.0)
    assert idx["ieff_minorant"] == 1.0
    assert idx["ieff_majorant"] == 1.0
    assert idx["ieff_ratio"] == 1.0
    idx = efficiency_indices(1.0, 2.0, None)
    assert np.isnan(idx["ieff_minorant"])
    assert m1_index(1.0, None) != m1_index(1.0, None)  # nan
    assert m1_index(0.0, 1.0) == 0.0


def _m1(mb):
    """The error majorant of a mode: its bound gap plus m1_extra."""
    return mb.majorant - mb.minorant + mb.m1_extra


def _assert_terms_match(new, ref, lam, rtol=1e-12):
    """Every ModeTerms field of `new` equals `ref` to rtol; the pairing
    relative to ||p||_M^2 / lam too, as its terms cancel."""
    assert new.k == ref.k
    for name in ("misfit", "r1", "r2", "r3", "r4", "p_mass", "bilin"):
        a, b = getattr(new, name), getattr(ref, name)
        scale = max(abs(b), ref.p_mass / lam) if name == "bilin" else abs(b)
        assert abs(a - b) <= rtol * scale, (name, a, b)


@pytest.mark.parametrize("problem", ["I", "II"])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("steps", [None, 1, 2, 3])
def test_evaluate_mode_matches_quadrature_reference(problem, k, steps, scratch):
    # converged (direct) solutions and MinRes iterates stopped early, with
    # random lambda, omega, sigma, nu and data that the projections do not
    # reproduce; the reference reads the samples the projections came from
    rng = np.random.default_rng(100 * k + (steps or 0) + (50 if problem == "II" else 0))
    for _ in range(3):
        n = int(rng.integers(2, 9))
        lam = float(10 ** rng.uniform(-3, 1))
        omega = float(rng.uniform(0.3, 5.0))
        sigma, nu = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
        ctx, mats, params, sol, data = _solve_random(
            rng, problem, n, k, lam, omega, sigma, nu, steps=steps, noise=0.5
        )
        projected = project(ctx, data)
        new = evaluate_mode(params, mats, ctx, sol, projected, scratch=scratch)
        ref = evaluate_mode_reference(params, mats, ctx, sol, data)
        _assert_terms_match(new, ref, lam)
        # the noise has squared norm 0.25 per component, times the squared
        # time coefficients, most of it outside the projections
        assert projected.rest > 0.05 * float(data.coef @ data.coef)


@pytest.mark.parametrize("problem", ["I", "II"])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("steps", [None, 1, 2])
@pytest.mark.parametrize("n,rows", [(5, 8), (7, 2), (6, 2), (7, 3), (4, 1)],
                         ids=["grid-in-one-block", "partial-last-block", "even-blocks",
                              "three-row-blocks", "one-row-blocks"])
def test_row_blocks_match_quadrature_reference(monkeypatch, problem, k, steps, n, rows, scratch):
    # the same bounds whether a block holds the whole grid, the last block
    # is partial, or every block is a single cell row, for converged
    # solutions and GMRES iterates stopped after one or two steps
    monkeypatch.setattr(bounds, "BOUND_CELLS", rows * n)
    rng = np.random.default_rng([n, rows, k, steps or 0, len(problem)])
    lam = float(10 ** rng.uniform(-3, 1))
    omega = float(rng.uniform(0.3, 5.0))
    sigma, nu = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    ctx, mats, params, sol, data = _solve_random(
        rng, problem, n, k, lam, omega, sigma, nu, steps=steps, noise=0.5, surrogate_inverse=True
    )
    new = evaluate_mode(params, mats, ctx, sol, project(ctx, data), scratch=scratch)
    _assert_terms_match(new, evaluate_mode_reference(params, mats, ctx, sol, data), lam)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_blocks_match_boundary_corners_problem_II(monkeypatch, rows, scratch):
    # problem II matches the boundary divergence of the bottom strip in the
    # first block, of the top strip in the last and of both columns in
    # every block; the lower corner triangle of cell (0, n-1) lies on the
    # bottom strip and the right column, the upper one of cell (n-1, 0) on
    # the top strip and the left column.  With a zero state and data, and
    # an adjoint that is zero but at the two interior nodes next to those
    # corners, the averaged adjoint flux leaves its divergence defects
    # around the corners, where the match has to remove them.
    n, k = 3, 2
    monkeypatch.setattr(bounds, "BOUND_CELLS", rows * n)
    ctx = FemContext(build_mesh(n))
    mats = build_matrices(ctx)
    params = ProblemParams("II", 0.5, 1.3)
    y = np.zeros((2, (n - 1) ** 2))
    p = np.zeros((2, (n - 1) ** 2))
    p[:, n - 2] = (1.0, -2.0)  # interior node next to the lower right corner
    p[:, (n - 2) * (n - 1)] = (3.0, 0.5)  # and next to the upper left one
    sol = ModeSolution(k, y, p)
    shape = quadrature_weights(ctx).shape + (2,)
    data = QuadratureData(np.ones(2), g_qp=np.zeros(shape), g_edge=np.zeros(ctx.mesh.num_edges))
    ref = evaluate_mode_reference(params, mats, ctx, sol, data)
    assert ref.r3 > 0
    _assert_terms_match(evaluate_mode(params, mats, ctx, sol, project(ctx, data), scratch=scratch), ref,
                        params.lam)


@pytest.mark.parametrize("ident,n", [(4, 7), (4, 16), (5, 7), (5, 16), (6, 8), (6, 16)])
@pytest.mark.parametrize("k", [0, 3])
def test_problem_II_block_terms_do_not_depend_on_the_block_height(monkeypatch, ident, n, k):
    # the squared misfit and r1 ... r4 of problem II, whose adjoint flux is
    # matched on the boundary strip block by block, from blocks of 1, 2 and
    # 3 cell rows equal those from one block; an odd n puts both corner
    # triangles and a one-row last block on the strip match
    case = make_case(ident)
    ctx = FemContext(meshmod.build(n))
    data = CaseBind(case, ctx).mode_data(k)
    rng = np.random.default_rng([ident, n, k])
    y, p = rng.standard_normal((2, mode_parts(k), (n - 1) ** 2))
    sol = ModeSolution(k, y, p)
    mats = build_matrices(ctx)

    def terms(rows):
        monkeypatch.setattr(bounds, "BOUND_CELLS", rows * n)
        return bounds._block_terms(case.params, mats, ctx, sol, data, Scratch())

    whole = terms(n)
    for rows in (1, 2, 3):
        got = terms(rows)
        for name, value in whole.items():
            assert abs(got[name] - value) <= 1e-13 * abs(value), (rows, name, got[name], value)


@pytest.mark.parametrize("ident", [1, 4])
def test_evaluate_mode_matches_reference_on_cases(ident, scratch):
    case = make_case(ident)
    ctx = FemContext(build_mesh(12))
    mats = build_matrices(ctx)
    bind = CaseBind(case, ctx)
    params = case.params
    build = build_precond_I if case.problem == "I" else build_precond_II
    # the case's data at the quadrature points and its edge fluxes, which
    # CaseBind projects once and does not keep
    if case.problem == "I":
        profile = dict(y_qp=data_at_qp(ctx, case.profile))
    else:
        edges = rt0_from_callable(ctx.mesh, case.profile)
        profile = dict(g_qp=data_at_qp(ctx, case.profile), g_edge=edges)
    for k in (0, 1):
        system = build_mode_system(params, mats, k, bind.rhs(k))
        precond = build(params, mats, k, surrogate_inverse=False)
        sol, _ = minres(system, precond, tol=1e-10, maxiter=200, scratch=scratch)
        samples = QuadratureData(np.array(case.mode_pair(k))[: mode_parts(k)], **profile)
        _assert_terms_match(
            evaluate_mode(params, mats, ctx, sol, bind.mode_data(k), scratch=scratch),
            evaluate_mode_reference(params, mats, ctx, sol, samples), params.lam,
        )


@lru_cache(maxsize=8)
def _case_grid(ident, n, lam=None, omega=None):
    case = make_case(ident, lam=lam, omega=omega)
    ctx = FemContext(meshmod.build(n))
    return case, ctx, build_matrices(ctx), CaseBind(case, ctx)


def _stopped_bounds(ident, n, k, steps, surrogate_inverse=False, lam=None, omega=None):
    """Bounds of mode k after exactly `steps` Krylov steps from zero, or
    for steps None of the solve run to tolerance 1e-10, with J*.

    The steps are MinRes preconditioned by the paper's block-diagonal
    preconditioner, or with `surrogate_inverse` the solver's GMRES
    preconditioned by A~_k^{-1}.  `lam` and `omega` override the case's own.
    """
    case, ctx, mats, bind = _case_grid(ident, n, lam, omega)
    params = case.params
    system = build_mode_system(params, mats, k, bind.rhs(k))
    build = build_precond_I if case.problem == "I" else build_precond_II
    precond = build(params, mats, k, surrogate_inverse=surrogate_inverse)
    scratch = Scratch()
    steps_kw = dict(tol=1e-10, maxiter=200) if steps is None else _steps(steps, surrogate_inverse)
    sol, stats = minres(system, precond, scratch=scratch, **steps_kw)
    assert steps is not None or stats.converged
    return _bounds(params, mats, ctx, sol, bind.mode_data(k), scratch), case.reference_cost(k)


_LAMBDAS = st.floats(1e-4, 10.0)
_OMEGAS = st.floats(0.1, 100.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2]),
    n=st.integers(2, 32),
    k=st.integers(0, 4),
    steps=st.integers(0, 8),
    surrogate_inverse=st.booleans(),
)
# the zero iterate on the smallest grid with an interior node
@example(ident=1, n=2, k=0, steps=0, surrogate_inverse=False)
@example(ident=2, n=2, k=0, steps=0, surrogate_inverse=False)
def test_sandwich_any_iterate_problem_I(ident, n, k, steps, surrogate_inverse):
    mb, exact = _stopped_bounds(ident, n, k, steps, surrogate_inverse)
    assert mb.minorant <= exact <= mb.majorant


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([4, 5]),
    n=st.integers(2, 32),
    k=st.integers(0, 4),
    steps=st.integers(0, 8),
    surrogate_inverse=st.booleans(),
)
# the configuration of the known defect below, after one GMRES step
@example(ident=4, n=32, k=0, steps=1, surrogate_inverse=True)
def test_sandwich_any_iterate_problem_II(ident, n, k, steps, surrogate_inverse):
    # one step of the paper's MinRes is the known defect below
    assume(surrogate_inverse or steps != 1)
    mb, exact = _stopped_bounds(ident, n, k, steps, surrogate_inverse)
    assert mb.minorant <= exact <= mb.majorant


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the problem II majorant of evaluate_mode can fall "
    "below the optimal cost for an unconverged iterate",
)
def test_sandwich_problem_II_after_one_step():
    # example 4, n=32, k=0 stopped after one MinRes step: the majorant
    # (about 5.2e3) lies below the analytic optimal cost (about 9.4e3)
    mb, exact = _stopped_bounds(4, 32, 0, 1)
    assert mb.minorant <= exact <= mb.majorant


@pytest.mark.xfail(
    strict=True,
    reason="known defect: aggregate adds half the truncation remainder to the "
    "overall minorant, but the tail modes' optimal cost is only known to lie "
    "between 0 and half the remainder",
)
@pytest.mark.parametrize("ident", [4, 5])
def test_overall_minorant_below_optimal_cost_at_small_truncation(ident):
    # at n=32 the overall minorant of example 4 is 1.37 (N=0) and 1.09 (N=1)
    # times the analytic optimal cost, that of example 5 1.33 and 1.04
    rep = run(ExperimentConfig(example=ident, grid=32, modes=(0, 1), overall=(0, 1)))
    exact = make_case(ident).overall_reference()
    assert all(row.minorant <= exact for row in rep.overall_rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2, 4, 5]),
    lam=_LAMBDAS,
    omega=_OMEGAS,
    n=st.integers(2, 32),
    k=st.integers(0, 8),
)
def test_sandwich_converged_over_lambda_and_omega(ident, lam, omega, n, k):
    # the closed-form J* holds at any lambda and omega, and the bounds of
    # the converged solve enclose it for both problems
    mb, exact = _stopped_bounds(ident, n, k, None, surrogate_inverse=True, lam=lam, omega=omega)
    assert mb.minorant <= exact <= mb.majorant


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([1, 2]),
    lam=_LAMBDAS,
    omega=_OMEGAS,
    n=st.integers(2, 32),
    k=st.integers(0, 8),
    steps=st.integers(0, 8),
)
def test_sandwich_any_minres_iterate_problem_I_over_lambda_and_omega(ident, lam, omega, n, k, steps):
    mb, exact = _stopped_bounds(ident, n, k, steps, lam=lam, omega=omega)
    assert mb.minorant <= exact <= mb.majorant


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ident=st.sampled_from([4, 5]),
    lam=_LAMBDAS,
    omega=_OMEGAS,
    n=st.integers(2, 32),
    k=st.integers(0, 8),
    steps=st.integers(0, 8),
    surrogate_inverse=st.booleans(),
)
def test_sandwich_any_iterate_problem_II_over_lambda_and_omega(ident, lam, omega, n, k, steps,
                                                                surrogate_inverse):
    # one step of the paper's MinRes is the known defect above
    assume(surrogate_inverse or steps != 1)
    mb, exact = _stopped_bounds(ident, n, k, steps, surrogate_inverse, lam=lam, omega=omega)
    assert mb.minorant <= exact <= mb.majorant
