"""The brute-force references of the tests: element matrices, the direct
mode solve, the log-grid search for the majorant parameters, the scalar
mode solve and the time quadrature of the exact costs."""

import numpy as np

from mhbounds.bounds import C_FRIEDRICHS
from mhbounds.femcore import element_matrices
from mhbounds.systems import ProblemParams, build_matrices, build_mode_system
from reference_assembly import build_mesh
from reference_bounds import grid_search_alpha_beta, spacetime_cost
from reference_systems import dense, direct_solve, fresh_apply, scalar_mode_solve


def test_element_matrices_basics():
    K, M = element_matrices(build_mesh(2))
    # constants are in the kernel of both class stiffness matrices
    assert np.abs(K.sum(axis=2)).max() < 1e-15
    assert np.array_equal(K, K.transpose(0, 2, 1))
    # each class mass matrix integrates the constant 1 to the triangle area
    assert np.allclose(M.sum(axis=(1, 2)), 0.5**2 / 2, rtol=1e-15, atol=0)


def test_dense_solve(ctx2, ctx8):
    # the direct solve of a mode system agrees with a dense solve and
    # reproduces the right-hand side
    params = ProblemParams("I", 0.1, 1.0)
    for ctx, rhs in ((ctx2, np.array([[2.0], [-1.0]])), (ctx8, np.ones((2, 49)))):
        system = build_mode_system(params, build_matrices(ctx), 1, rhs)
        sol = direct_solve(system, params)
        x = np.concatenate([sol.y.ravel(), sol.p.ravel()])
        assert np.allclose(x, np.linalg.solve(dense(system), system.rhs), rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(fresh_apply(system.matrix, x) - system.rhs) < 1e-10 * np.linalg.norm(system.rhs)


def test_grid_search_zero_flux_residual():
    mu1 = 1.0 / np.sqrt(2.0)
    A, r1, r2 = 2.0, 3.0, 0.0
    alpha, beta, value = grid_search_alpha_beta(A, r1, r2, mu1)
    assert beta == 1e6  # at the grid maximum
    # at the returned alpha, the beta -> infinity limit of the form
    limit = (1 + alpha) / 2 * A + (1 + alpha) / (2 * alpha * mu1**2) * (
        C_FRIEDRICHS**2
    ) ** 2 * r1**2
    assert abs(value - limit) < 1e-6 * limit


def test_grid_search_argmin_scaling_invariance():
    mu1 = 1.0 / np.sqrt(2.0)
    a1, b1, _ = grid_search_alpha_beta(2.0, 3.0, 1.0, mu1)
    a2, b2, _ = grid_search_alpha_beta(2.0 * 25, 15.0, 5.0, mu1)
    assert a1 == a2 and b1 == b2


def test_scalar_mode_solve_mode0():
    lam, kappa = 0.1, 2 * np.pi**2
    a, _, b, _ = scalar_mode_solve("I", 0, lam, 1.0, 1.0, 1.0, kappa, 1.0)
    assert abs(a - 1.0 / (1 + lam * kappa**2)) < 1e-12
    assert abs(b + lam * kappa * a) < 1e-12


def test_spacetime_cost_trivial_and_convergence():
    y = lambda t: np.exp(np.sin(t))
    zero = lambda t: np.zeros_like(t)
    val = spacetime_cost(1, 0.1, 1.0, y, zero, y, 0.25, 0.25)
    assert abs(val) < 1e-20
    u = lambda t: np.exp(t / 7.0) * np.sin(t)
    coarse = spacetime_cost(2, 0.1, 1.0, y, u, zero, 0.25, 0.25, panels=128, order=8)
    fine = spacetime_cost(2, 0.1, 1.0, y, u, zero, 0.25, 0.25, panels=256, order=16)
    assert abs(coarse - fine) < 1e-6 * abs(fine)
