import numpy as np
import pytest

from mhbounds import mesh as meshmod, oracle
from mhbounds.bounds import BoundParams
from mhbounds.femcore import FemContext
from reference_systems import stencil_csr


def test_element_matrices_basics():
    K_lo, K_up, M = oracle.element_matrices(0.5)
    assert np.abs(K_lo.sum(axis=1)).max() < 1e-15
    assert np.abs(K_up.sum(axis=1)).max() < 1e-15
    assert abs(M.sum() - 0.5**2 / 2) < 1e-15
    with pytest.raises(ValueError):
        oracle.element_matrices(0.0)


def test_dense_assembly_matches_sparse():
    for n in (2, 3, 5):
        mesh = meshmod.build(n)
        Kd, Md = oracle.assemble_dense(mesh, nu=1.7, sigma=0.6)
        ctx = FemContext(mesh)
        Ks = 1.7 * stencil_csr(ctx.K).toarray()
        Ms = 0.6 * stencil_csr(ctx.M).toarray()
        assert np.abs(Kd - Ks).max() < 1e-13
        assert np.abs(Md - Ms).max() < 1e-13
    # the one-interior-node stiffness entry
    Kd, _ = oracle.assemble_dense(meshmod.build(2))
    assert abs(Kd[0, 0] - 4.0) < 1e-14


def test_dense_solve():
    assert np.allclose(oracle.dense_solve(np.eye(3), np.array([1.0, 2, 3])), [1, 2, 3])
    with pytest.raises(ValueError):
        oracle.dense_solve(np.ones((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        oracle.dense_solve(np.eye(5000), np.zeros(5000))


def test_grid_search_zero_flux_residual():
    params = BoundParams(lam=0.1, omega=1.0)
    A, B, C = 2.0, 0.0, 3.0
    alpha, beta, value = oracle.grid_search_alpha_beta(A, B, C, params)
    assert beta == 1e6  # at the grid maximum
    # at the returned alpha, the beta -> infinity limit of the form
    limit = (1 + alpha) / 2 * A + (1 + alpha) / (2 * alpha * params.mu1**2) * (
        params.c_friedrichs**2
    ) ** 2 * C**2
    assert abs(value - limit) < 1e-6 * limit


def test_grid_search_argmin_scaling_invariance():
    params = BoundParams(lam=0.1, omega=1.0)
    a1, b1, _ = oracle.grid_search_alpha_beta(2.0, 1.0, 3.0, params)
    a2, b2, _ = oracle.grid_search_alpha_beta(2.0 * 25, 5.0, 15.0, params)
    assert a1 == a2 and b1 == b2


def test_scalar_mode_solve_mode0():
    lam, kappa = 0.1, 2 * np.pi**2
    a, _, b, _ = oracle.scalar_mode_solve("I", 0, lam, 1.0, 1.0, 1.0, kappa, 1.0)
    assert abs(a - 1.0 / (1 + lam * kappa**2)) < 1e-12
    assert abs(b + lam * kappa * a) < 1e-12


def test_spacetime_cost_trivial_and_convergence():
    y = lambda t: np.exp(np.sin(t))
    zero = lambda t: np.zeros_like(t)
    val = oracle.spacetime_cost(1, 0.1, 1.0, y, zero, y, 0.25, 0.25)
    assert abs(val) < 1e-20
    u = lambda t: np.exp(t / 7.0) * np.sin(t)
    coarse = oracle.spacetime_cost(2, 0.1, 1.0, y, u, zero, 0.25, 0.25, panels=128, order=8)
    fine = oracle.spacetime_cost(2, 0.1, 1.0, y, u, zero, 0.25, 0.25, panels=256, order=16)
    assert abs(coarse - fine) < 1e-6 * abs(fine)
