"""Per-mode block saddle-point systems for the two optimization problems.

Problem I tracks a desired state (mass-matrix leading blocks), problem II a
desired gradient (stiffness leading blocks).  Unknown ordering is
(y_cos, y_sin, p_cos, p_sin); the sine parts are absent for mode 0.  The
control never appears as an unknown; it is recovered as u = -p / lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .femcore import FemContext

PROBLEMS = ("I", "II")


@dataclass
class ModeMatrices:
    """Interior-node matrices entering every mode system."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    K_nu: sp.csr_matrix
    M_sigma: sp.csr_matrix
    sigma: float
    nu: float


def build_matrices(ctx: FemContext, sigma: float = 1.0, nu: float = 1.0) -> ModeMatrices:
    if sigma <= 0 or nu <= 0:
        raise ValueError("coefficients must be positive constants")
    return ModeMatrices(
        K=ctx.K, M=ctx.M, K_nu=(nu * ctx.K).tocsr(), M_sigma=(sigma * ctx.M).tocsr(),
        sigma=sigma, nu=nu,
    )


@dataclass
class ModeSystem:
    """Symmetric indefinite block system of one Fourier mode."""

    problem: str
    k: int
    lam: float
    omega: float
    mats: ModeMatrices
    matrix: sp.csr_matrix
    rhs: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.mats.M.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ModeSolution:
    """Nodal coefficients of one mode's state and adjoint (interior nodes)."""

    k: int
    lam: float
    y_c: np.ndarray
    p_c: np.ndarray
    y_s: np.ndarray | None = None
    p_s: np.ndarray | None = None

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """State and adjoint with the cosine and sine parts on a leading axis, (P, m)."""
        if self.y_s is None:
            return self.y_c[None, :], self.p_c[None, :]
        return np.stack([self.y_c, self.y_s]), np.stack([self.p_c, self.p_s])

    @property
    def u_c(self) -> np.ndarray:
        return -self.p_c / self.lam

    @property
    def u_s(self) -> np.ndarray | None:
        return None if self.p_s is None else -self.p_s / self.lam


def build_mode_system(
    problem: str,
    mats: ModeMatrices,
    k: int,
    lam: float,
    omega: float,
    rhs_c: np.ndarray,
    rhs_s: np.ndarray | None = None,
) -> ModeSystem:
    """Assemble the block operator and right-hand side for mode k.

    `rhs_c`/`rhs_s` are the data load vectors: (data, phi_i) for problem I,
    (data, grad phi_i) for problem II.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem tag {problem!r}")
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    lead = mats.M if problem == "I" else mats.K
    Kn = mats.K_nu
    Ms = mats.M_sigma
    n = lead.shape[0]
    if k == 0:
        A = sp.bmat([[lead, -Kn], [-Kn, -(1.0 / lam) * mats.M]], format="csr")
        rhs = np.concatenate([rhs_c, np.zeros(n)])
    else:
        if rhs_s is None:
            rhs_s = np.zeros(n)
        kw = k * omega
        Z = None
        A = sp.bmat(
            [
                [lead, Z, -Kn, kw * Ms],
                [Z, lead, -kw * Ms, -Kn],
                [-Kn, -kw * Ms, -(1.0 / lam) * mats.M, Z],
                [kw * Ms, -Kn, Z, -(1.0 / lam) * mats.M],
            ],
            format="csr",
        )
        rhs = np.concatenate([rhs_c, rhs_s, np.zeros(n), np.zeros(n)])
    return ModeSystem(
        problem=problem, k=k, lam=lam, omega=omega, mats=mats, matrix=A, rhs=rhs
    )


def split_solution(system: ModeSystem, x: np.ndarray) -> ModeSolution:
    n = system.n_interior
    if system.k == 0:
        return ModeSolution(k=0, lam=system.lam, y_c=x[:n], p_c=x[n:])
    return ModeSolution(
        k=system.k,
        lam=system.lam,
        y_c=x[:n],
        y_s=x[n : 2 * n],
        p_c=x[2 * n : 3 * n],
        p_s=x[3 * n :],
    )


def join_solution(system: ModeSystem, sol: ModeSolution) -> np.ndarray:
    if system.k == 0:
        return np.concatenate([sol.y_c, sol.p_c])
    return np.concatenate([sol.y_c, sol.y_s, sol.p_c, sol.p_s])
