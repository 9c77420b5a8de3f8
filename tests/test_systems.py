import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mhbounds import mesh as meshmod
from mhbounds.femcore import FemContext
from mhbounds.systems import (
    ProblemParams, build_matrices, build_mode_system, mode_coefficients, mode_parts, quarter_turn,
)
from reference_systems import assemble, dense, direct_solve, fresh_apply, stencil_csr

LAM, OMEGA = 0.1, 1.0
PARAMS = {problem: ProblemParams(problem, LAM, OMEGA) for problem in ("I", "II")}


def _mats(ctx, sigma=1.0, nu=1.0):
    return build_matrices(ctx, sigma, nu)


def _coefficients_by_blocks(params, mats, k):
    """The (2P, 2P) coefficients of K and M as np.block assembles them from
    (P, P) blocks: [[lead_K, -nu], [-nu, 0]] and [[lead_M, -J], [J, -1/lam]],
    J the quarter turn."""
    eye = np.eye(mode_parts(k))
    turn = quarter_turn(eye, k * params.omega * mats.sigma)
    lead_K, lead_M = (0.0, 1.0) if params.problem == "I" else (1.0, 0.0)
    coef_K = np.block([[lead_K * eye, -mats.nu * eye], [-mats.nu * eye, 0 * eye]])
    coef_M = np.block([[lead_M * eye, -turn], [turn, -eye / params.lam]])
    return coef_K, coef_M


@pytest.mark.parametrize("problem", ["I", "II"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_mode_coefficients_match_block_form(ctx2, problem, k):
    mats = _mats(ctx2, sigma=1.7, nu=0.6)
    params = ProblemParams(problem, 0.03, 2.5)
    for got, expect in zip(mode_coefficients(params, mats, k), _coefficients_by_blocks(params, mats, k)):
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)


def test_mode0_block_layout(ctx2):
    mats = _mats(ctx2)
    sys0 = build_mode_system(PARAMS["I"], mats, 0, np.array([[1.0]]))
    expect = np.array([[0.125, -4.0], [-4.0, -1.25]])
    assert np.abs(dense(sys0) - expect).max() < 1e-14
    assert np.allclose(sys0.rhs, [1.0, 0.0])


def test_mode1_scalar_matrix_and_solve(ctx2):
    mats = _mats(ctx2)
    M, K = 0.125, 4.0
    sysk = build_mode_system(PARAMS["I"], mats, 1, np.array([[2.0], [-1.0]]))
    expect = np.array(
        [
            [M, 0, -K, OMEGA * M],
            [0, M, -OMEGA * M, -K],
            [-K, -OMEGA * M, -M / LAM, 0],
            [OMEGA * M, -K, 0, -M / LAM],
        ]
    )
    assert np.abs(dense(sysk) - expect).max() < 1e-14
    x = np.linalg.solve(expect, sysk.rhs)
    sol = direct_solve(sysk, PARAMS["I"])
    got = np.concatenate([sol.y.ravel(), sol.p.ravel()])
    assert np.abs(got - x).max() < 1e-12


def test_mode1_problem_ii_scalar(ctx2):
    mats = _mats(ctx2)
    M, K = 0.125, 4.0
    sysk = build_mode_system(PARAMS["II"], mats, 1, np.array([[1.0], [0.5]]))
    expect = np.array(
        [
            [K, 0, -K, OMEGA * M],
            [0, K, -OMEGA * M, -K],
            [-K, -OMEGA * M, -M / LAM, 0],
            [OMEGA * M, -K, 0, -M / LAM],
        ]
    )
    assert np.abs(dense(sysk) - expect).max() < 1e-14
    x = np.linalg.solve(expect, sysk.rhs)
    sol = direct_solve(sysk, PARAMS["II"])
    got = np.concatenate([sol.y.ravel(), sol.p.ravel()])
    assert np.abs(got - x).max() < 1e-12


def test_zero_data_zero_solution(ctx8):
    mats = _mats(ctx8)
    n = ctx8.K.shape[0]
    for problem in ("I", "II"):
        sysk = build_mode_system(PARAMS[problem], mats, 2, np.zeros((2, n)))
        sol = direct_solve(sysk, PARAMS[problem])
        assert np.abs(sol.y).max() == 0.0
        assert np.abs(sol.p).max() == 0.0


def test_operator_symmetry(ctx8, rng):
    mats = _mats(ctx8, sigma=1.3, nu=0.7)
    n = ctx8.K.shape[0]
    for problem in ("I", "II"):
        params = ProblemParams(problem, 0.05, 2.0)
        sysk = build_mode_system(params, mats, 3, np.zeros((2, n)))
        A = sysk.matrix
        scale = abs(assemble(sysk, params)).max()
        for _ in range(100):
            x = rng.standard_normal(sysk.rhs.size)
            y = rng.standard_normal(sysk.rhs.size)
            Ax, Ay = fresh_apply(A, x), fresh_apply(A, y)
            assert abs(Ax @ y - x @ Ay) < 1e-13 * scale * np.linalg.norm(x) * np.linalg.norm(y)


def test_schur_elimination_mode0(ctx8, rng):
    # (M + lam K M^-1 K) y = rhs after eliminating the adjoint
    mats = _mats(ctx8)
    n = ctx8.K.shape[0]
    rhs = rng.standard_normal(n)
    sys0 = build_mode_system(PARAMS["I"], mats, 0, rhs[None])
    y = direct_solve(sys0, PARAMS["I"]).y[0]
    Minv = spla.factorized(stencil_csr(mats.M).tocsc())
    lhs = fresh_apply(mats.M, y) + LAM * fresh_apply(mats.K, Minv(fresh_apply(mats.K, y)))
    assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(rhs)


def test_weak_form_residual(ctx8, rng):
    mats = _mats(ctx8)
    n = ctx8.K.shape[0]
    sysk = build_mode_system(PARAMS["I"], mats, 1, rng.standard_normal((2, n)))
    x = spla.spsolve(assemble(sysk, PARAMS["I"]).tocsc(), sysk.rhs)
    r = fresh_apply(sysk.matrix, x) - sysk.rhs
    for _ in range(20):
        z = rng.standard_normal(len(r))
        assert abs(z @ r) < 1e-8 * np.linalg.norm(z) * np.linalg.norm(sysk.rhs)


def test_problem_ii_tracking_trend(ctx8, rng):
    # for data grad(w), the state tends to w in the energy seminorm as the
    # control penalty vanishes (monotone trend over a decade sweep)
    mats = _mats(ctx8)
    w = rng.standard_normal(ctx8.K.shape[0])
    rhs = fresh_apply(mats.K, w)
    errs = []
    for lam in (100.0, 10.0, 1.0, 0.1):
        params = ProblemParams("II", lam, OMEGA)
        sys0 = build_mode_system(params, mats, 0, rhs[None])
        e = direct_solve(sys0, params).y[0] - w
        errs.append(np.sqrt(e @ fresh_apply(mats.K, e)))
    assert errs[3] < errs[2] < errs[1] < errs[0]


@pytest.mark.parametrize("problem,lam,omega,name", [
    ("III", LAM, OMEGA, "problem tag"), ("", LAM, OMEGA, "problem tag"),
    *(("I", bad, OMEGA, "lam") for bad in (0.0, -1.0, np.inf, np.nan)),
    *(("II", LAM, bad, "omega") for bad in (0.0, -1.0, np.inf, np.nan)),
])
def test_problem_params_reject_bad_constants(problem, lam, omega, name):
    with pytest.raises(ValueError, match=name):
        ProblemParams(problem, lam, omega)


def test_invalid_inputs(ctx2):
    mats = _mats(ctx2)
    with pytest.raises(ValueError):
        build_mode_system(PARAMS["I"], mats, -1, np.array([[1.0]]))
    with pytest.raises(ValueError):
        build_mode_system(PARAMS["I"], mats, 1, np.array([[1.0]]))  # mode 1 has two parts
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            build_matrices(ctx2, sigma=bad)
        with pytest.raises(ValueError):
            build_matrices(ctx2, nu=bad)


@pytest.mark.parametrize("n", [1, 2, 3, 16])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("problem", ["I", "II"])
def test_operator_matches_assembly(problem, k, n, rng):
    # n = 1 has no interior node and n = 2 one
    ctx = FemContext(meshmod.build(n))
    mats = _mats(ctx, sigma=1.3, nu=0.7)
    params = ProblemParams(problem, 0.05, 2.0)
    sysk = build_mode_system(params, mats, k, np.zeros((mode_parts(k), ctx.K.shape[0])))
    A, ref = sysk.matrix, assemble(sysk, params)
    assert A.nnz == ref.nnz
    x, y = rng.standard_normal((2, sysk.rhs.size))
    Ax, Ay = fresh_apply(A, x), fresh_apply(A, y)
    assert np.linalg.norm(Ax - ref @ x) <= 1e-13 * np.linalg.norm(ref @ x)
    assert abs(x @ Ay - y @ Ax) <= 1e-13 * np.abs(ref.data).max(initial=0) * np.linalg.norm(x) * np.linalg.norm(y)
