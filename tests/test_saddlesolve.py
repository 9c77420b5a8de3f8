import tracemalloc
from contextlib import contextmanager
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.fft as sfft
import scipy.linalg
import scipy.sparse as sp

from mhbounds import mesh as meshmod
from mhbounds import saddlesolve
from mhbounds.bench import ExperimentConfig, _Solver, main, run
from mhbounds.cases import CaseBind, make_case
from mhbounds.femcore import FemContext, Scratch
from mhbounds.saddlesolve import (
    _dst,
    _grid_symbols,
    _sine_blocks,
    build_precond_I,
    build_precond_II,
    gmres_raw,
    minres,
    minres_raw,
)
from mhbounds.systems import (
    ModeMatrices, ModeSystem, build_matrices, build_mode_system, mode_coefficients, mode_parts,
)
from reference_systems import DenseOperator, DensePrecond, dense, direct_solve, fresh_apply, stencil_csr

LAM, OMEGA = 0.1, 1.0


def test_identity_precond_small_system(ctx2, scratch):
    mats = build_matrices(ctx2)
    sysk = build_mode_system("I", mats, 1, LAM, OMEGA, np.array([[2.0], [-1.0]]))
    x, stats = minres_raw(sysk.matrix, sysk.rhs, DensePrecond(np.eye(4)), tol=1e-12, maxiter=10,
                          fixed_iters=None, scratch=scratch)
    ref = direct_solve(sysk, "I", LAM, OMEGA)
    assert stats.iterations <= 4  # Krylov dimension bound
    assert stats.converged
    assert abs(x[0] - ref.y[0, 0]) < 1e-9


def test_zero_rhs(ctx8, scratch):
    mats = build_matrices(ctx8)
    n = ctx8.K.shape[0]
    sysk = build_mode_system("I", mats, 1, LAM, OMEGA, np.zeros((2, n)))
    P = build_precond_I(mats, 1, LAM, OMEGA, surrogate_inverse=False)
    sol, stats = minres(sysk, P, tol=1e-8, maxiter=200, scratch=scratch)
    assert stats.iterations == 0
    assert np.abs(sol.y).max() == 0.0


def _monotone(stats) -> bool:
    """The solver's recorded residuals never grow (up to rounding)."""
    r = stats.residuals
    return all(r[i + 1] <= r[i] * (1 + 1e-12) for i in range(len(r) - 1))


def test_monotone_residuals(ctx8, rng, scratch):
    mats = build_matrices(ctx8)
    n = ctx8.K.shape[0]
    sysk = build_mode_system("I", mats, 2, LAM, OMEGA, rng.standard_normal((2, n)))
    P = build_precond_I(mats, 2, LAM, OMEGA, surrogate_inverse=False)
    _, stats = minres(sysk, P, tol=1e-12, maxiter=200, scratch=scratch)
    assert _monotone(stats)
    _, stats_id = minres_raw(sysk.matrix, sysk.rhs, DensePrecond(np.eye(sysk.rhs.size)),
                             tol=1e-10, maxiter=200, fixed_iters=None, scratch=scratch)
    assert _monotone(stats_id)


def test_precond_entries_mode0(ctx2):
    # D0 = M + sqrt(lam) K at lam=1 on the one-interior-node grid
    mats = build_matrices(ctx2)
    P = build_precond_I(mats, 0, 1.0, OMEGA, surrogate_inverse=False)
    out = fresh_apply(P.apply, np.array([1.0, 0.0]))
    assert abs(out[0] - 1.0 / 4.125) < 1e-14
    # adjoint block is D0/lam
    out2 = fresh_apply(P.apply, np.array([0.0, 1.0]))
    assert abs(out2[1] - 1.0 / 4.125) < 1e-14


def test_precond_II_blocks_scalar(ctx2):
    # on the one-interior-node grid every block is a scalar, read off as
    # the reciprocal of what apply returns for a unit vector
    mats = build_matrices(ctx2)

    def block(P, i):
        e = np.zeros(P.diag.size)  # a block-diagonal kind holds one value per unknown
        e[i] = 1.0
        return 1.0 / fresh_apply(P.apply, e)[i]

    # family 0, k=0: diag(K, nu K + M/lam)
    P0 = build_precond_II(mats, 0, LAM, OMEGA, family=0, surrogate_inverse=False)
    assert abs(block(P0, 0) - 4.0) < 1e-14
    assert abs(block(P0, 1) - (4.0 + 0.125 / LAM)) < 1e-14
    # family 0, k=1 Schur block: nu K + M/lam + (k w s)^2 M K^-1 M
    P1 = build_precond_II(mats, 1, LAM, OMEGA, family=0, surrogate_inverse=False)
    d = 4.0 + 0.125 / LAM + OMEGA**2 * 0.125 * 0.25 * 0.125
    assert abs(block(P1, 2) - d) < 1e-13
    # family 1, k=1 leading block: K + (k w s)^2 lam M + nu^2 lam K M^-1 K
    P2 = build_precond_II(mats, 1, LAM, OMEGA, family=1, surrogate_inverse=False)
    r = 4.0 + OMEGA**2 * LAM * 0.125 + LAM * 4.0 * 8.0 * 4.0
    assert abs(block(P2, 0) - r) < 1e-12


def test_precond_positive_definite(ctx8, rng):
    mats = build_matrices(ctx8)
    size = 2 * mode_parts(2) * ctx8.K.shape[0]
    for P in (
        build_precond_I(mats, 2, LAM, OMEGA, surrogate_inverse=False),
        build_precond_II(mats, 2, LAM, OMEGA, family=0, surrogate_inverse=False),
        build_precond_II(mats, 2, LAM, OMEGA, family=1, surrogate_inverse=False),
    ):
        for _ in range(100):
            v = rng.standard_normal(size)
            assert v @ fresh_apply(P.apply, v) > 0


def _dense_apply(P, size):
    """The preconditioner on `size` unknowns as a dense matrix, column by column."""
    return np.column_stack([fresh_apply(P.apply, col) for col in np.eye(size)])


def _sine_basis(m):
    """The orthonormal 2-D DST-I matrix on m x m interior nodes (its own inverse)."""
    S = sfft.dst(np.eye(m), type=1, norm="ortho", axis=0)
    return np.kron(S, S)


def test_preconditioned_spectrum_uniform_in_lambda(rng):
    # generalized eigenvalues of (A, P) stay in a band [-b,-a] u [a,b]
    # whose width ratio does not blow up across the lambda sweep
    import scipy.linalg

    ctx = FemContext(meshmod.build(8))
    mats = build_matrices(ctx)
    n = ctx.K.shape[0]
    spreads = []
    for lam in (1e-4, 1e-2, 1.0):
        sysk = build_mode_system("I", mats, 1, lam, OMEGA, np.zeros((2, n)))
        P = build_precond_I(mats, 1, lam, OMEGA, surrogate_inverse=False)
        P_dense = np.linalg.inv(_dense_apply(P, sysk.rhs.size))
        theta = scipy.linalg.eigh(dense(sysk), (P_dense + P_dense.T) / 2, eigvals_only=True)
        mags = np.abs(theta)
        spreads.append(mags.max() / mags.min())
    spreads = np.array(spreads)
    assert spreads.max() < 10
    assert spreads.max() / spreads.min() < 2


def test_minres_agrees_with_direct(ctx16, scratch):
    case = make_case(1)
    mats = build_matrices(ctx16)
    bind = CaseBind(case, ctx16)
    for k in (0, 1, 4, 8):
        sysk = build_mode_system("I", mats, k, case.lam, case.omega, bind.rhs(k))
        P = build_precond_I(mats, k, case.lam, case.omega, surrogate_inverse=False)
        sol, stats = minres(sysk, P, tol=1e-10, maxiter=200, scratch=scratch)
        ref = direct_solve(sysk, "I", case.lam, case.omega)
        e = sol.y[0] - ref.y[0]
        num = np.sqrt(e @ fresh_apply(mats.M, e))
        den = np.sqrt(ref.y[0] @ fresh_apply(mats.M, ref.y[0]))
        assert num < 1e-8 * den
        assert stats.iterations <= 30


def test_paper_mode_runs_fixed_iterations(ctx16, scratch):
    case = make_case(1)
    mats = build_matrices(ctx16)
    bind = CaseBind(case, ctx16)
    sysk = build_mode_system("I", mats, 1, case.lam, case.omega, bind.rhs(1))
    P = build_precond_I(mats, 1, case.lam, case.omega, surrogate_inverse=False)
    _, stats = minres(sysk, P, tol=1e-8, maxiter=200, scratch=scratch, fixed_iters=8)
    assert stats.iterations == 8
    assert stats.converged


@pytest.fixture(scope="module")
def example1_mode1(ctx16):
    """Example 1's mode 1 system at n=16 with the paper's preconditioner
    (MinRes) and the surrogate inverse (GMRES)."""
    case = make_case(1)
    mats = build_matrices(ctx16)
    system = build_mode_system("I", mats, 1, case.lam, case.omega, CaseBind(case, ctx16).rhs(1))
    return system, [build_precond_I(mats, 1, case.lam, case.omega, surrogate_inverse=inverse)
                    for inverse in (False, True)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(s=st.integers(-20, 20))
@example(s=10)
@example(s=17)
def test_solvers_are_scale_free(example1_mode1, s):
    # scaling the right-hand side by 10^s scales the solution and moves
    # neither solver's step count nor its stopping tests; a MinRes breakdown
    # test on the data's scale stops after 1-2 steps at 1e10 and 1e17
    system, preconds = example1_mode1
    for precond, solve in zip(preconds, (minres_raw, gmres_raw)):
        x0, stats0 = solve(system.matrix, system.rhs, precond, 1e-10, 200, None, Scratch())
        x, stats = solve(system.matrix, system.rhs * 10.0**s, precond, 1e-10, 200, None, Scratch())
        assert stats.converged and not stats.breakdown
        assert stats.iterations == stats0.iterations
        assert np.abs(x / 10.0**s - x0).max() <= 1e-12 * np.abs(x0).max()


def test_direct_solve_reports_singular():
    # [[A, -A], [-A, -A]] repeats its first row
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    mats = ModeMatrices(K=A, M=A, KM=None, sigma=1.0, nu=1.0)
    bad = ModeSystem(k=0, mats=mats, matrix=None, rhs=np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError):
        direct_solve(bad, "I", 1.0, 1.0)


def test_breakdown_is_clean_termination(rng, scratch):
    # rhs inside a small invariant subspace: exact convergence, no breakdown
    D = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr()
    b = np.zeros(4)
    b[1] = 1.0
    x, stats = minres_raw(DenseOperator(D), b, DensePrecond(np.eye(4)), tol=1e-14, maxiter=10,
                          fixed_iters=None, scratch=scratch)
    assert stats.iterations <= 2
    assert not stats.breakdown
    assert abs(x[1] - 0.5) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_sine_transform_diagonalizes_stiffness(n, rng):
    ctx = FemContext(meshmod.build(n))
    mu_K, _ = _grid_symbols(build_matrices(ctx))
    v = rng.standard_normal(ctx.K.shape[0])
    coef = sfft.dstn(v.reshape(mu_K.shape), type=1, norm="ortho")
    Kv = sfft.dstn(mu_K * coef, type=1, norm="ortho").ravel()
    ref = fresh_apply(ctx.K, v)
    assert np.linalg.norm(Kv - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("block", ["default", "5 rows", "3 planes"])
@pytest.mark.parametrize("m", [1, 2, 3, 31, 64, 127])
def test_sine_transform_matches_scipy(m, block, rng, monkeypatch):
    # the numpy-only transform is scipy's orthonormal 2-D DST-I of every
    # plane, transposed, in place and out of place, also where its blocks
    # split the planes or the rows of one plane unevenly; and it is its
    # own inverse
    if block != "default":
        rows = 5 if block == "5 rows" else 3 * m
        monkeypatch.setattr(saddlesolve, "SINE_BLOCK", rows * (2 * m + 2))
    for parts in (1, 2, 4):
        x = rng.standard_normal((parts, m, m))
        expect = sfft.dstn(x, type=1, norm="ortho", axes=(1, 2)).transpose(0, 2, 1)
        with Scratch().lend(x.shape, *_sine_blocks(x.shape)) as (half, *blocks):
            out = np.empty_like(x)
            _dst(x, out, half, blocks)
            assert np.abs(out - expect).max() <= 1e-14 * np.abs(expect).max()
            twice = x.copy()
            _dst(twice, twice, half, blocks)
            assert np.array_equal(twice, out)
            _dst(twice, twice, half, blocks)
            assert np.abs(twice - x).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("k", [0, 2])
def test_symbol_planes_are_symmetric(ctx8, k):
    # apply multiplies the transposed sine coefficients by the symbols as
    # they are, so every plane of every preconditioner equals its transpose
    mats = build_matrices(ctx8, sigma=1.5, nu=0.7)
    for surrogate_inverse in (False, True):
        for P in (
            build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=surrogate_inverse),
            *(build_precond_II(mats, k, LAM, OMEGA, surrogate_inverse=surrogate_inverse, family=f)
              for f in (0, 1)),
        ):
            planes = [*P.diag.reshape(-1, *P.diag.shape[-2:]), *P.scales]
            assert planes and all(np.array_equal(plane, plane.T) for plane in planes)


@pytest.mark.parametrize("n", [5, 64])
def test_grid_symbols_are_symmetric(n):
    # the symbols, outer sums and products of one cosine vector, and every
    # plane of the preconditioners built from them equal their transposes
    # bit for bit, and the symbols are 4 - 2 (cos a + cos b) and
    # h^2/12 (6 + 2 cos a + 2 cos b + 2 cos a cos b)
    mats = build_matrices(FemContext(meshmod.build(n)), sigma=1.5, nu=0.7)
    mu_K, mu_M = _grid_symbols(mats)
    planes = [mu_K, mu_M]
    for k in (0, 2):
        for surrogate_inverse in (False, True):
            for P in (
                build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=surrogate_inverse),
                *(build_precond_II(mats, k, LAM, OMEGA, surrogate_inverse=surrogate_inverse, family=f)
                  for f in (0, 1)),
            ):
                planes += [*P.diag.reshape(-1, *P.diag.shape[-2:]), *P.scales]
    assert all(np.array_equal(plane, plane.T) for plane in planes)
    c = np.cos(np.pi * np.arange(1, n) / n)
    a, b = c[:, None], c[None, :]
    assert np.abs(mu_K - (4.0 - 2.0 * (a + b))).max() <= 1e-15 * 8
    expect = (6.0 + 2.0 * a + 2.0 * b + 2.0 * a * b) / (12.0 * n * n)
    assert np.abs(mu_M - expect).max() <= 1e-15 * np.abs(expect).max()


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_mass_surrogate_spectrally_equivalent(n):
    ctx = FemContext(meshmod.build(n))
    _, mu_M = _grid_symbols(build_matrices(ctx))
    S = _sine_basis(mu_M.shape[0])
    M_tilde = S @ np.diag(mu_M.ravel()) @ S
    theta = scipy.linalg.eigh(stencil_csr(ctx.M).toarray(), M_tilde, eigvals_only=True)
    assert 0.6 <= theta.min() and theta.max() <= 1.4


@pytest.mark.parametrize("k", [0, 3])
def test_precond_apply_inverts_matvec(ctx8, rng, k):
    # apply inverts the product with the paper's block-diagonal
    # preconditioners, built densely from K and the mass surrogate M~
    sigma, nu = 1.5, 0.7
    mats = build_matrices(ctx8, sigma=sigma, nu=nu)
    m = ctx8.K.m
    S = _sine_basis(m)
    _, mu_M = _grid_symbols(mats)
    K = stencil_csr(ctx8.K).toarray()
    Mt = S @ np.diag(mu_M.ravel()) @ S
    Mt_inv, K_inv = np.linalg.inv(Mt), np.linalg.inv(K)
    kws, sq, parts = k * OMEGA * sigma, np.sqrt(LAM), 1 + min(k, 1)
    D = sq * nu * K + (kws * sq + 1.0) * Mt
    S_k = nu * K + Mt / LAM + kws**2 * Mt @ K_inv @ Mt
    R_k = K + kws**2 * LAM * Mt + nu**2 * LAM * K @ Mt_inv @ K
    for P, state, adjoint in (
        (build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=False), D, D / LAM),
        (build_precond_II(mats, k, LAM, OMEGA, family=0, surrogate_inverse=False), K, S_k),
        (build_precond_II(mats, k, LAM, OMEGA, family=1, surrogate_inverse=False), R_k, Mt / LAM),
    ):
        matvec = scipy.linalg.block_diag(*[state] * parts, *[adjoint] * parts)
        v = rng.standard_normal(2 * parts * m * m)
        assert np.linalg.norm(fresh_apply(P.apply, matvec @ v) - v) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("problem", ["I", "II"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_abs_precond_is_inverse_absolute_value(n, problem, k):
    # the surrogate inverse against the dense surrogate operator
    # K (x) coef_K + M~ (x) coef_M, at random lambda, omega, sigma and nu
    rng = np.random.default_rng([n, k, len(problem)])
    lam, omega = 10 ** rng.uniform(-3, 1), rng.uniform(0.3, 5.0)
    mats = build_matrices(FemContext(meshmod.build(n)), *rng.uniform(0.5, 2.0, size=2))
    S = _sine_basis(n - 1)
    mu_K, mu_M = _grid_symbols(mats)
    coef_K, coef_M = mode_coefficients(problem, mats, k, lam, omega)
    A = np.kron(coef_K, S @ np.diag(mu_K.ravel()) @ S) + np.kron(coef_M, S @ np.diag(mu_M.ravel()) @ S)
    build = build_precond_I if problem == "I" else build_precond_II
    G = _dense_apply(build(mats, k, lam, omega, surrogate_inverse=True), len(A))
    assert np.abs(G @ A - np.eye(len(A))).max() <= 1e-12
    expect = np.linalg.inv(A)
    assert np.abs(G - expect).max() <= 1e-12 * np.abs(expect).max()
    assert np.abs(G - G.T).max() <= 1e-13 * np.abs(G).max()


def test_abs_precond_robust_at_small_lambda():
    # example 3 (lambda = 0.01) at n=64, k=1 took 22 steps of MinRes with
    # the paper's block-diagonal preconditioner and 8 with |A~_k|^{-1}
    rep = run(ExperimentConfig(example=3, grid=64, modes=(1,)))
    stats = rep.mode_reports[1].stats
    assert stats.converged and stats.iterations <= 4


@pytest.mark.parametrize("example", [1, 3, 4])
@pytest.mark.parametrize("k", [0, 1])
def test_converged_solve_reports_euclidean_residual(example, k):
    # ||b - A x|| / ||b|| recomputed with the mode stencil from the solution
    tol = 1e-10
    solver = _Solver(make_case(example), 32, ExperimentConfig(example=example, grid=32, tol=tol))
    sol, stats = solver.solve_mode(k, None)
    case = solver.case
    system = build_mode_system(case.problem, solver.mats, k, case.lam, case.omega, solver.bind.rhs(k))
    x = np.concatenate([sol.y, sol.p]).ravel()
    ratio = np.linalg.norm(system.rhs - fresh_apply(system.matrix, x)) / np.linalg.norm(system.rhs)
    assert stats.converged and ratio <= 2 * tol
    assert abs(ratio - stats.relative_residual) <= 1e-3 * ratio


def _nonsymmetric_system(n=40):
    rng = np.random.default_rng(7)
    A = np.diag(np.linspace(1.0, 4.0, n)) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    # a perturbed inverse, so the preconditioned operator is near the identity
    P = np.linalg.inv(A + 0.05 * rng.standard_normal((n, n)) / np.sqrt(n))
    return A, DensePrecond(P), rng.standard_normal(n)


def test_gmres_solves_nonsymmetric_system(scratch):
    A, P, b = _nonsymmetric_system()
    x, stats = gmres_raw(DenseOperator(A), b, P, tol=1e-10, maxiter=50, fixed_iters=None,
                         scratch=scratch)
    relres = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert stats.converged and not stats.breakdown
    assert relres <= 1e-10
    assert stats.relative_residual == pytest.approx(relres, rel=1e-9)
    assert _monotone(stats)
    assert len(stats.residuals) == stats.iterations + 1


def test_gmres_restarted_reaches_same_solution(monkeypatch, scratch):
    A, P, b = _nonsymmetric_system()
    x, stats = gmres_raw(DenseOperator(A), b, P, tol=1e-12, maxiter=50, fixed_iters=None,
                         scratch=scratch)
    monkeypatch.setattr(saddlesolve, "GMRES_RESTART", 2)
    x2, stats2 = gmres_raw(DenseOperator(A), b, P, tol=1e-12, maxiter=50, fixed_iters=None,
                           scratch=scratch)
    assert stats.converged and stats2.converged
    assert stats2.iterations >= stats.iterations
    assert np.linalg.norm(x2 - x) <= 1e-9 * np.linalg.norm(x)


def test_gmres_fixed_steps(scratch):
    A, P, b = _nonsymmetric_system()
    x, stats = gmres_raw(DenseOperator(A), b, P, tol=1e-10, maxiter=200, fixed_iters=0, scratch=scratch)
    assert stats.iterations == 0 and np.abs(x).max() == 0.0
    assert stats.relative_residual == 1.0
    for steps in (1, 3):
        x, stats = gmres_raw(DenseOperator(A), b, P, tol=1e-10, maxiter=200, fixed_iters=steps,
                             scratch=scratch)
        assert stats.iterations == steps and stats.converged
        relres = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert stats.relative_residual == pytest.approx(relres, rel=1e-12)


def test_gmres_invariant_subspace_is_convergence(scratch):
    # rhs inside a two-dimensional invariant subspace of A P = D
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.array([0.0, 1.0, 1.0, 0.0])
    x, stats = gmres_raw(DenseOperator(D), b, DensePrecond(np.eye(4)), tol=1e-14, maxiter=10,
                         fixed_iters=None, scratch=scratch)
    assert stats.iterations == 2
    assert stats.converged and not stats.breakdown
    assert np.abs(x - [0.0, 0.5, 1.0 / 3.0, 0.0]).max() <= 1e-14


def test_stats_flags_are_python_bools(ctx8, rng, scratch):
    mats = build_matrices(ctx8)
    n = ctx8.K.shape[0]
    sysk = build_mode_system("I", mats, 1, LAM, OMEGA, rng.standard_normal((2, n)))
    for surrogate_inverse in (True, False):
        P = build_precond_I(mats, 1, LAM, OMEGA, surrogate_inverse=surrogate_inverse)
        for kwargs in (dict(tol=1e-10, maxiter=200), dict(tol=1e-8, maxiter=1),
                       dict(tol=1e-8, maxiter=200, fixed_iters=2)):
            _, stats = minres(sysk, P, scratch=scratch, **kwargs)
            assert type(stats.converged) is bool and type(stats.breakdown) is bool
            assert type(stats.relative_residual) is float


def test_precond_II_family1_mode0_converges(rng, scratch):
    # the state block carries R_0 and the adjoint block M/lam, as for k > 0
    ctx = FemContext(meshmod.build(16))
    mats = build_matrices(ctx)
    n = ctx.K.shape[0]
    sysk = build_mode_system("II", mats, 0, LAM, OMEGA, rng.standard_normal((1, n)))
    P = build_precond_II(mats, 0, LAM, OMEGA, family=1, surrogate_inverse=False)
    sol, stats = minres(sysk, P, tol=1e-10, maxiter=300, scratch=scratch)
    ref = direct_solve(sysk, "II", LAM, OMEGA)
    assert stats.converged
    assert stats.iterations <= 40
    for a, b in ((sol.y, ref.y), (sol.p, ref.p)):
        assert np.linalg.norm(a - b) <= 1e-7 * np.linalg.norm(b)


@pytest.mark.parametrize("example", [1, 4])
@pytest.mark.parametrize("grid", [2, 3])
def test_run_on_tiny_grids(example, grid):
    rep = run(ExperimentConfig(example=example, grid=grid, modes=(0, 1)))
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert np.isfinite(row.minorant) and np.isfinite(row.majorant)


@pytest.mark.parametrize("example", [1, 4])
def test_grid_one_is_rejected(example, capsys):
    # a 1x1 grid has no interior node, so y = p = 0 and the quadrature of
    # the data alone sets the bounds (for example 1 a minorant above J*):
    # the configuration, run and the command line refuse it alike
    config = ExperimentConfig(example=example, grid=1, modes=(0, 1))
    message = "grid must be at least 2, got 1: a smaller grid has no interior node"
    assert config.validate() == [message]
    with pytest.raises(ValueError, match=message):
        run(config)
    assert main(["--example", str(example), "--grid", "1", "--modes", "0,1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("k", [0, 2])
def test_precond_apply_in_place(ctx8, rng, k):
    # with an output and a scratch holding stale values, every preconditioner
    # gives its result in a fresh scratch bit for bit and leaves its input alone
    mats = build_matrices(ctx8)
    size = 2 * mode_parts(k) * ctx8.K.shape[0]
    scratch = Scratch()
    for P in (
        build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=False),
        build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=True),
        build_precond_II(mats, k, LAM, OMEGA, family=1, surrogate_inverse=False),
        build_precond_II(mats, k, LAM, OMEGA, surrogate_inverse=True),
    ):
        with scratch.lend((3 * size,)) as (stale,):
            stale[...] = np.nan
        r = rng.standard_normal(size)
        kept = r.copy()
        out = np.empty(size)
        assert P.apply(r, out=out, scratch=scratch) is out
        assert np.array_equal(out, P.apply(r, out=np.empty(size), scratch=Scratch()))
        assert np.array_equal(r, kept)


def test_gmres_with_a_used_scratch_is_bit_equal(ctx8, rng):
    # a solve in a scratch that earlier solves of other sizes left stale
    # values in gives the solve in a fresh scratch bit for bit
    mats = build_matrices(ctx8)
    n = ctx8.K.shape[0]
    scratch = Scratch()
    for k in (3, 0, 1):
        sysk = build_mode_system("I", mats, k, LAM, OMEGA, rng.standard_normal((mode_parts(k), n)))
        P = build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=True)
        used, stats = minres(sysk, P, tol=1e-12, maxiter=200, scratch=scratch)
        fresh, _ = minres(sysk, P, tol=1e-12, maxiter=200, scratch=Scratch())
        assert stats.converged
        assert np.array_equal(used.y, fresh.y) and np.array_equal(used.p, fresh.p)


class RecordingScratch(Scratch):
    """A scratch that counts the floats it has lent and the most lent at once."""

    def __init__(self):
        super().__init__()
        self.lent = self.peak = 0

    @contextmanager
    def lend(self, *shapes):
        size = sum(prod(shape) for shape in shapes)
        with super().lend(*shapes) as views:
            self.lent += size
            self.peak = max(self.peak, self.lent)
            try:
                yield views
            finally:
                self.lent -= size


def _example1_mode1(n: int, surrogate_inverse: bool):
    """Example 1's mode 1 system on an n x n grid, and its preconditioner."""
    case = make_case(1)
    ctx = FemContext(meshmod.build(n))
    mats = build_matrices(ctx)
    system = build_mode_system("I", mats, 1, case.lam, case.omega, CaseBind(case, ctx).rhs(1))
    return system, build_precond_I(mats, 1, case.lam, case.omega, surrogate_inverse=surrogate_inverse)


def test_gmres_lends_each_vector_while_it_is_live():
    # an s-step cycle holds v_0..v_s and z_0..z_{s-1}; step j lends z_j for
    # its apply, and the scaled updates and the transients of one apply or
    # one stencil product come and go on top
    system, P = _example1_mode1(32, surrogate_inverse=True)
    dim = system.rhs.size
    one_apply, one_product = RecordingScratch(), RecordingScratch()
    P.apply(system.rhs, out=np.empty(dim), scratch=one_apply)
    system.matrix(system.rhs, out=np.empty(dim), scratch=one_product)
    assert one_apply.peak == 2 * dim + _sine_block_size(P)
    held_at_apply, images, held_at_product = [], set(), []

    def apply(r, out, scratch):
        held_at_apply.append(scratch.lent)
        images.add(out.ctypes.data)
        return P.apply(r, out=out, scratch=scratch)

    def product(v, out, scratch):
        held_at_product.append(scratch.lent)
        return system.matrix(v, out=out, scratch=scratch)

    scratch = RecordingScratch()
    x, stats = gmres_raw(product, system.rhs, SimpleNamespace(apply=apply), 1e-10, 200, None, scratch)
    s = stats.iterations
    assert stats.converged and s >= 2
    assert len(images) == s
    assert held_at_apply == [(2 * j + 2) * dim for j in range(s)]
    # the last product is the true residual, after the x update
    assert held_at_product[-1] == (2 * s + 1) * dim
    assert scratch.peak <= (2 * s + 1) * dim + max(one_apply.peak, one_product.peak)
    assert scratch.lent == 0
    fresh, _ = gmres_raw(system.matrix, system.rhs, P, 1e-10, 200, None, Scratch())
    assert np.array_equal(x, fresh)


def _sine_block_size(P) -> int:
    """Floats in the block of padded rows and spectra of P's transforms."""
    return sum(prod(shape) for shape in _sine_blocks(P._parts_shape))


def test_definite_apply_lends_one_vector():
    # the paper's block-diagonal preconditioners have no coupling terms to
    # gather, so an apply lends the transforms' half-transformed planes and
    # one block of their padded rows alone
    system, P = _example1_mode1(32, surrogate_inverse=False)
    scratch = RecordingScratch()
    P.apply(system.rhs, out=np.empty(system.rhs.size), scratch=scratch)
    assert scratch.peak == system.rhs.size + _sine_block_size(P)


def _assert_warm_solve_allocates_its_solution_alone(surrogate_inverse, fixed_iters):
    """A second solve of example 1's mode 1 at n=128 in the scratch of the
    first traces less than 1.5 vectors, and equals a fresh-scratch solve
    bit for bit."""
    system, P = _example1_mode1(128, surrogate_inverse)
    scratch = Scratch()
    minres(system, P, tol=1e-10, maxiter=300, scratch=scratch, fixed_iters=fixed_iters)
    tracemalloc.start()
    try:
        warm, stats = minres(system, P, tol=1e-10, maxiter=300, scratch=scratch, fixed_iters=fixed_iters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.converged
    assert peak < 1.5 * system.rhs.nbytes
    fresh, _ = minres(system, P, tol=1e-10, maxiter=300, scratch=Scratch(), fixed_iters=fixed_iters)
    assert np.array_equal(warm.y, fresh.y) and np.array_equal(warm.p, fresh.p)
    return stats


def test_warm_paper_mode_solve_allocates_its_solution_alone():
    # the paper-mode MinRes takes its work vectors and the terms of its
    # updates from the scratch, so a warm solve's traced peak is about one
    # vector, the solution; the stale values the first solve left there
    # do not move it
    stats = _assert_warm_solve_allocates_its_solution_alone(surrogate_inverse=False, fixed_iters=8)
    assert stats.iterations == 8


def test_warm_gmres_solve_allocates_its_solution_alone():
    # so do the GMRES basis, its images and the scaled updates
    _assert_warm_solve_allocates_its_solution_alone(surrogate_inverse=True, fixed_iters=None)


@pytest.mark.parametrize("lam", [0.0, -0.1])
@pytest.mark.parametrize("surrogate_inverse", [False, True])
def test_builders_reject_nonpositive_lambda(ctx8, lam, surrogate_inverse):
    # every preconditioner divides by lambda or takes its square root, so
    # lambda <= 0 raises instead of giving a non-finite or indefinite symbol
    mats = build_matrices(ctx8)
    for k in (0, 1):
        with pytest.raises(ValueError, match="lam"):
            build_precond_I(mats, k, lam, OMEGA, surrogate_inverse=surrogate_inverse)
        for family in (0, 1):
            with pytest.raises(ValueError, match="lam"):
                build_precond_II(mats, k, lam, OMEGA, surrogate_inverse=surrogate_inverse, family=family)


def test_definite_preconditioners_pick_minres(ctx8):
    # the paper's block-diagonal preconditioners have no coupling terms and
    # are definite (MinRes); the surrogate inverse couples the parts (GMRES)
    mats = build_matrices(ctx8)
    for k in (0, 2):
        for family in (0, 1):
            assert build_precond_II(mats, k, LAM, OMEGA, family=family, surrogate_inverse=False).definite
        assert build_precond_I(mats, k, LAM, OMEGA, surrogate_inverse=False).definite
        for build in (build_precond_I, build_precond_II):
            assert not build(mats, k, LAM, OMEGA, surrogate_inverse=True).definite


# -- starts from the seed modes ------------------------------------------------


def test_gmres_from_exact_solution_takes_no_step(scratch):
    # a start that already meets the tolerance is returned as it is
    A, P, b = _nonsymmetric_system()
    exact = np.linalg.solve(A, b)
    x, stats = gmres_raw(DenseOperator(A), b, P, tol=1e-10, maxiter=50, fixed_iters=None,
                         scratch=scratch, x0=exact.copy())
    assert stats.iterations == 0 and stats.converged
    assert np.array_equal(x, exact)
    relres = np.linalg.norm(b - A @ exact) / np.linalg.norm(b)
    assert stats.start_residual == stats.relative_residual == pytest.approx(relres, rel=1e-9)
    assert stats.residuals == [pytest.approx(relres * np.linalg.norm(b), rel=1e-12)]


def _seed_rows(solver, seeds) -> np.ndarray:
    """The states' and adjoints' parts of the seed modes' solutions from zero,
    (2, S, m * m), as `_Solver.solve_modes` copies them."""
    sols = [solver.solve_mode(k, None)[0] for k in seeds]
    return np.stack([np.concatenate([s.y for s in sols]), np.concatenate([s.p for s in sols])])


def _seed_start(solver, rows) -> saddlesolve.SeedStart:
    case = solver.case
    return saddlesolve.SeedStart(case.problem, solver.mats, case.lam, case.omega, solver.bind.load,
                                 list(rows), Scratch())


def _mode_system(solver, k):
    case = solver.case
    return build_mode_system(case.problem, solver.mats, k, case.lam, case.omega, solver.bind.rhs(k))


def test_start_residual_of_zero_exact_and_seeded_starts():
    # start_residual is that of the starting iterate; iterations counts the
    # steps taken from it
    solver = _Solver(make_case(1), 32, ExperimentConfig(example=1, grid=32, tol=1e-10))
    start = _seed_start(solver, _seed_rows(solver, (1, 2)))
    system = _mode_system(solver, 5)
    precond = build_precond_I(solver.mats, 5, solver.case.lam, solver.case.omega, surrogate_inverse=True)
    bnorm = np.linalg.norm(system.rhs)
    zero, zero_stats = minres(system, precond, tol=1e-10, maxiter=50, scratch=Scratch())
    assert zero_stats.start_residual == 1.0 and zero_stats.iterations >= 2
    x0 = start(5, solver.bind.mode_coefs(5))
    seeded_residual = np.linalg.norm(system.rhs - fresh_apply(system.matrix, x0)) / bnorm
    seeded, seeded_stats = minres(system, precond, tol=1e-10, maxiter=50, scratch=Scratch(), start=x0)
    assert seeded_stats.start_residual == pytest.approx(seeded_residual, rel=1e-6)
    assert seeded_residual < 1e-6 and seeded_stats.iterations == 1
    assert seeded_stats.converged and seeded_stats.relative_residual <= 1e-10
    exact = np.concatenate([seeded.y, seeded.p]).ravel()
    _, exact_stats = minres(system, precond, tol=1e-10, maxiter=50, scratch=Scratch(), start=exact.copy())
    assert exact_stats.iterations == 0
    assert exact_stats.start_residual == exact_stats.relative_residual == seeded_stats.relative_residual
    # paper mode's MinRes takes no start
    with pytest.raises(ValueError, match="GMRES"):
        minres(system, build_precond_I(solver.mats, 5, solver.case.lam, solver.case.omega, False),
               tol=1e-10, maxiter=50, scratch=Scratch(), start=x0)


def _dense_start_residual(solver, start, k) -> float:
    """||b - A x|| / ||b|| of the x that a dense QR least-squares fit finds
    over the span of `start`'s basis rows, each in every part of its field."""
    system = _mode_system(solver, k)
    parts, m2 = mode_parts(k), solver.mats.M.shape[0]
    columns = []
    for field, basis in enumerate(start.bases):
        for part in range(parts):
            for u in basis:
                column = np.zeros((2, parts, m2))
                column[field, part] = u
                columns.append(column.ravel())
    image = np.array([fresh_apply(system.matrix, c) for c in columns]).T
    q, r = np.linalg.qr(image)
    coef = np.linalg.solve(r, q.T @ system.rhs)
    x = np.array(columns).T @ coef
    return np.linalg.norm(system.rhs - fresh_apply(system.matrix, x)) / np.linalg.norm(system.rhs)


@pytest.mark.parametrize("draw", range(6))
def test_seed_start_is_a_least_squares_fit(draw, monkeypatch):
    # the start built from the R factor of the seeds' products leaves at
    # most twice the residual of a dense QR fit over the same rows, plus
    # 1e-13 ||b||: from seed solutions (residuals down to 1e-12) and from
    # random seed fields, for both problems at random lambda and omega
    monkeypatch.setattr(saddlesolve, "START_CUT", np.inf)
    rng = np.random.default_rng(draw)
    example = (1, 4, 2, 5, 3, 6)[draw]
    lam, omega = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-0.5, 1)
    solver = _Solver(make_case(example, lam=lam, omega=omega), 16,
                     ExperimentConfig(example=example, grid=16, lam=lam, omega=omega))
    seeds = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))
    rows = _seed_rows(solver, seeds)
    for fields in (rows, rng.standard_normal(rows.shape)):
        start = _seed_start(solver, fields.copy())
        for k in (0, 1, 6, 9):
            coefs = solver.bind.mode_coefs(k)
            if not np.any(coefs):
                assert start(k, coefs) is None
                continue
            system = _mode_system(solver, k)
            x0 = start(k, coefs)
            assert x0 is not None and x0.shape == system.rhs.shape
            residual = np.linalg.norm(system.rhs - fresh_apply(system.matrix, x0)) / np.linalg.norm(system.rhs)
            assert residual <= 2 * _dense_start_residual(solver, start, k) + 1e-13


def test_seed_start_drops_zero_seeds():
    # indicator data vanish at even k > 0, so a seed k = 2 is zero and adds
    # no basis row; without any seed row a start is None
    solver = _Solver(make_case(3), 16, ExperimentConfig(example=3, grid=16))
    start = _seed_start(solver, _seed_rows(solver, (1, 2)))
    assert [len(u) for u in start.bases] == [2, 2]
    for u in start.bases:
        assert np.allclose(u @ u.T, np.eye(len(u)), rtol=0, atol=1e-14)
    empty = _seed_start(solver, _seed_rows(solver, (2, 4)))
    assert [len(u) for u in empty.bases] == [0, 0]
    assert empty(1, solver.bind.mode_coefs(1)) is None


def test_start_cut_leaves_weak_starts_at_zero(monkeypatch):
    # a start whose residual would exceed START_CUT is not used
    solver = _Solver(make_case(3), 16, ExperimentConfig(example=3, grid=16))
    start = _seed_start(solver, _seed_rows(solver, (1, 3)))
    monkeypatch.setattr(saddlesolve, "START_CUT", np.inf)
    x0 = start(5, solver.bind.mode_coefs(5))
    system = _mode_system(solver, 5)
    residual = np.linalg.norm(system.rhs - fresh_apply(system.matrix, x0)) / np.linalg.norm(system.rhs)
    monkeypatch.setattr(saddlesolve, "START_CUT", 0.5 * residual)
    assert start(5, solver.bind.mode_coefs(5)) is None
