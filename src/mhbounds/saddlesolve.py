"""Preconditioned MinRes for the matrix-free mode systems.

Every block of the block-diagonal preconditioners is diagonal in the 2-D
type-I sine basis of the interior grid: the stiffness matrix exactly (it is
the 5-point stencil on this mesh), the mass matrix through a spectrally
equivalent tensor-product surrogate.  Problem II's Schur complements, which
contain M K^{-1} M or K M^{-1} K, are then diagonal too.  A preconditioner is
a stacked symbol array applied by one fast sine transform pair (the fast
Poisson solver of Buzbee, Golub and Nielson); no factorization is built.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .systems import ModeMatrices, ModeSolution, ModeSystem, mode_parts


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float
    converged: bool
    breakdown: bool = False
    residuals: list = field(default_factory=list)

    def monotone(self) -> bool:
        r = self.residuals
        return all(r[i + 1] <= r[i] * (1 + 1e-12) for i in range(len(r) - 1))


class BlockDiagPrecond:
    """Symmetric positive definite block-diagonal preconditioner.

    `symbol` holds the DST-I eigenvalues of the blocks, shape (blocks, m, m)
    with m = n - 1 interior nodes per side, blocks in the unknown ordering
    of the mode system.  Between one orthonormal DST-I pair over all blocks,
    `apply` divides by the symbol and `matvec` multiplies by it.
    """

    def __init__(self, symbol: np.ndarray):
        self.symbol = symbol
        self.dim = symbol.size

    def _transform(self, v: np.ndarray, op) -> np.ndarray:
        coef = sfft.dstn(v.reshape(self.symbol.shape), type=1, norm="ortho", axes=(1, 2))
        return sfft.dstn(op(coef, self.symbol), type=1, norm="ortho", axes=(1, 2)).ravel()

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._transform(r, np.divide)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._transform(v, np.multiply)


class IdentityPrecond:
    def apply(self, r: np.ndarray) -> np.ndarray:
        return r

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return v


def _grid_symbols(mats: ModeMatrices) -> tuple[np.ndarray, np.ndarray]:
    """DST-I eigenvalues of K and of the tensor mass surrogate M~.

    On the uniform right-triangle mesh the interior stiffness matrix is the
    5-point stencil, so mu_K is exact.  The 7-point mass stencil couples
    each node to one diagonal pair only; averaging it with the other
    diagonal pair gives M~ = h^2/12 (6 + 2 cos a + 2 cos b + 2 cos a cos b),
    spectrally equivalent to M.
    """
    m = mats.K.m
    h = 1.0 / (m + 1)
    c = np.cos(np.pi * np.arange(1, m + 1) * h)
    ca, cb = c[:, None], c[None, :]
    mu_K = 4.0 - 2.0 * ca - 2.0 * cb
    mu_M = h * h / 12.0 * (6.0 + 2.0 * ca + 2.0 * cb + 2.0 * ca * cb)
    return mu_K, mu_M


def _blocks(state: np.ndarray, adjoint: np.ndarray, k: int) -> BlockDiagPrecond:
    """Stack the (y, p) blocks of mode k, each repeated for its P parts."""
    parts = mode_parts(k)
    return BlockDiagPrecond(np.stack([state] * parts + [adjoint] * parts))


def build_precond_I(mats: ModeMatrices, k: int, lam: float, omega: float) -> BlockDiagPrecond:
    """diag(D_k, D_k, D_k/lam, D_k/lam) with D_k = sqrt(lam) nu K + k w sqrt(lam) sigma M + M."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    mu_K, mu_M = _grid_symbols(mats)
    sq = np.sqrt(lam)
    D = sq * mats.nu * mu_K + (k * omega * sq * mats.sigma + 1.0) * mu_M
    return _blocks(D, D / lam, k)


def build_precond_II(
    mats: ModeMatrices, k: int, lam: float, omega: float, family: int = 0
) -> BlockDiagPrecond:
    """Schur-complement preconditioners for problem II (constant sigma, nu).

    family 0: diag(K, K, S_k, S_k), S_k = nu K + M/lam + (k w sigma)^2 M K^{-1} M
    family 1: diag(R_k, R_k, M/lam, M/lam), R_k = K + (k w sigma)^2 lam M + nu^2 lam K M^{-1} K
    """
    mu_K, mu_M = _grid_symbols(mats)
    nu = mats.nu
    kws = k * omega * mats.sigma
    if family == 0:
        S = nu * mu_K + mu_M / lam + kws**2 * mu_M**2 / mu_K
        return _blocks(mu_K, S, k)
    if family == 1:
        R = mu_K + kws**2 * lam * mu_M + nu**2 * lam * mu_K**2 / mu_M
        return _blocks(R, mu_M / lam, k)
    raise ValueError("family must be 0 or 1")


def minres(
    system: ModeSystem,
    precond=None,
    tol: float = 1e-8,
    maxiter: int = 200,
    fixed_iters: int | None = None,
) -> tuple[ModeSolution, SolveStats]:
    """Preconditioned minimal residual iteration.

    Stops when the preconditioned residual drops below tol * initial, after
    maxiter steps, or after exactly `fixed_iters` steps when given.  Lanczos
    breakdown with a nonconverged residual is reported in the stats.
    """
    x, stats = minres_raw(
        system.matrix, system.rhs, precond, tol=tol, maxiter=maxiter, fixed_iters=fixed_iters
    )
    y, p = x.reshape(2, mode_parts(system.k), -1)
    return ModeSolution(system.k, y, p), stats


def minres_raw(A, b, precond=None, tol=1e-8, maxiter=200, fixed_iters=None):
    if precond is None:
        precond = IdentityPrecond()
    start = time.perf_counter()
    n = b.shape[0]
    x = np.zeros(n)
    if n == 0:
        return x, SolveStats(0, 0.0, 0.0, True, residuals=[0.0])

    limit = fixed_iters if fixed_iters is not None else maxiter
    eps = np.finfo(float).eps

    r2 = b.copy()
    y = precond.apply(r2)
    beta1_sq = float(np.dot(r2, y))
    if beta1_sq < 0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    trace = [beta1]
    if beta1 == 0.0:
        return x, SolveStats(0, 0.0, time.perf_counter() - start, True, residuals=trace)

    oldb = 0.0
    beta = beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r1 = r2.copy()
    breakdown = False
    itn = 0
    while itn < limit:
        itn += 1
        v = y / beta
        y = A @ v
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = precond.apply(r2)
        oldb = beta
        beta_sq = float(np.dot(r2, y))
        if beta_sq < 0:
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar * gbar + beta * beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w
        trace.append(abs(phibar))

        if fixed_iters is None and abs(phibar) <= tol * beta1:
            break
        if beta <= eps * beta1:
            # Krylov space exhausted; converged if the residual is negligible
            breakdown = abs(phibar) > tol * beta1
            break

    relres = abs(phibar) / beta1
    converged = relres <= tol or (fixed_iters is not None and itn == fixed_iters)
    return x, SolveStats(
        iterations=itn,
        relative_residual=relres,
        wall_time=time.perf_counter() - start,
        converged=converged and not breakdown,
        breakdown=breakdown,
        residuals=trace,
    )
