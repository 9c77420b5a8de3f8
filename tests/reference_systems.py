"""Assembled block matrices of the mode systems and a sparse direct solver.

This is the `sp.bmat` assembly that the matrix-free block stencil of
`systems.build_mode_system` replaced, with its separate mode-0 and mode-k
layouts, and the sparse LU solver that was the oracle of the MinRes tests.
The tests compare the operator and the iterative solutions against it,
passing the problem tag, lambda and omega the system was built with.
`stencil_csr` assembles the interior K and M from their stencils, and
`bands_csr` the stiffness and mass on any block of nodes (all of them
included) from the stencil bands of the whole grid.  `scalar_mode_solve` is
the continuous mode system for data whose spatial profile is a
Dirichlet-Laplacian eigenfunction.  `DenseOperator` and `DensePrecond`
let the Krylov solvers run on small dense or sparse matrices, and
`fresh_apply` applies an operator into fresh buffers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mhbounds.femcore import Scratch, Stencil, _stencil_bands, element_matrices
from mhbounds.systems import ModeSolution, ModeSystem


def bands_csr(bands: dict, lo: int, hi: int) -> sp.csr_matrix:
    """CSR matrix of the stencil on the nodes with row and column in [lo, hi).

    Couplings to nodes outside the block are dropped, which restricts to the
    interior nodes for (lo, hi) = (1, n).  Rows are lexicographic, and the
    bands in (dr, dc) order give sorted column indices.
    """
    m = hi - lo
    row, col = np.ogrid[:m, :m]
    node = np.arange(m * m, dtype=np.int32).reshape(m, m)
    offsets = sorted(bands)
    keep = np.stack(
        [(0 <= row + dr) & (row + dr < m) & (0 <= col + dc) & (col + dc < m) for dr, dc in offsets],
        axis=-1,
    )
    values = np.stack([bands[o][lo:hi, lo:hi] for o in offsets], axis=-1)
    columns = np.stack([node + (dr * m + dc) for dr, dc in offsets], axis=-1)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=-1).ravel(), out=indptr[1:])
    return sp.csr_matrix((values[keep], columns[keep], indptr), shape=(m * m, m * m))


def full_matrices(mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The unit-coefficient stiffness and mass on all nodes, before the
    Dirichlet restriction, from the stencil bands."""
    n = mesh.n
    K, M = (bands_csr(_stencil_bands(a, n), 0, n + 1) for a in element_matrices(mesh))
    return K, M


def stencil_csr(op) -> sp.csr_matrix:
    """The CSR matrix of a scalar stencil on the m x m interior nodes; a
    sparse matrix passes through."""
    if not isinstance(op, Stencil):
        return sp.csr_matrix(op)
    m = op.m
    return bands_csr({o: np.full((m, m), w) for o, w in op.weights.items()}, 0, m)


def assemble(system: ModeSystem, problem: str, lam: float, omega: float) -> sp.csr_matrix:
    """The block matrix of the system of `problem` at lam and omega,
    unknowns ordered (y_c, y_s, p_c, p_s)."""
    mats = system.mats
    K, M = stencil_csr(mats.K), stencil_csr(mats.M)
    lead = M if problem == "I" else K
    Kn = mats.nu * K
    Ms = mats.sigma * M
    if system.k == 0:
        return sp.bmat([[lead, -Kn], [-Kn, -(1.0 / lam) * M]], format="csr")
    kw = system.k * omega
    Z = None
    return sp.bmat(
        [
            [lead, Z, -Kn, kw * Ms],
            [Z, lead, -kw * Ms, -Kn],
            [-Kn, -kw * Ms, -(1.0 / lam) * M, Z],
            [kw * Ms, -Kn, Z, -(1.0 / lam) * M],
        ],
        format="csr",
    )


def fresh_apply(op, v: np.ndarray) -> np.ndarray:
    """op(v, out, scratch) into a fresh output with a fresh scratch: op is a
    stencil (a mass, a stiffness or a mode operator) or a preconditioner's
    `apply`."""
    return op(v, np.empty(v.shape), Scratch())


def dense(system: ModeSystem) -> np.ndarray:
    """The operator of the system as a dense matrix, column by column."""
    return np.column_stack([fresh_apply(system.matrix, e) for e in np.eye(system.rhs.size)])


class DenseOperator:
    """A dense or sparse matrix, called as the Krylov solvers call the mode stencil."""

    def __init__(self, A):
        self.A = A

    def __call__(self, v, out, scratch):
        out[...] = self.A @ v
        return out


class DensePrecond:
    """A dense matrix, applied as the Krylov solvers apply a preconditioner."""

    def __init__(self, P):
        self.P = P

    def apply(self, r, out, scratch):
        return np.matmul(self.P, r, out=out)


def direct_solve(system: ModeSystem, problem: str, lam: float, omega: float) -> ModeSolution:
    """Sparse LU solution of the assembled system (see `assemble`); raises
    on singular systems or poor residuals."""
    A = assemble(system, problem, lam, omega)
    x = spla.factorized(A.tocsc())(system.rhs)
    resid = np.linalg.norm(A @ x - system.rhs)
    scale = np.linalg.norm(system.rhs)
    if scale > 0 and resid > 1e-10 * scale:
        raise RuntimeError(f"direct solve residual {resid:.2e} exceeds tolerance")
    y, p = x.reshape(2, -1, system.mats.M.shape[0])
    return ModeSolution(system.k, y, p)


def scalar_mode_solve(problem, k, lam, omega, sigma, nu, kappa, data_c, data_s=0.0):
    """Continuous mode solution when the data's spatial profile is a
    Dirichlet-Laplacian eigenfunction with eigenvalue kappa.

    All mode operators act within the span of the eigenfunction, so the
    coupled system collapses to 4 scalar unknowns (y_cos, y_sin, p_cos,
    p_sin); for mode 0 the sine pair decouples and vanishes with data_s.
    For problem II, `data_c/s` is the coefficient of grad(eigenfunction) in
    the desired gradient.
    """
    lead = 1.0 if problem == "I" else kappa
    kws = k * omega * sigma
    A = np.array([
        [lead, 0.0, -nu * kappa, kws],
        [0.0, lead, -kws, -nu * kappa],
        [-nu * kappa, -kws, -1.0 / lam, 0.0],
        [kws, -nu * kappa, 0.0, -1.0 / lam],
    ])
    a_c, a_s, b_c, b_s = np.linalg.solve(A, [lead * data_c, lead * data_s, 0.0, 0.0])
    return a_c, a_s, b_c, b_s
