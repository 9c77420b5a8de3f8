"""Per-mode saddle-point systems of the two optimization problems, matrix-free.

The unknowns of mode k are stacked as (2, P, m * m): state y and adjoint p,
each with its cosine part and, for k > 0, its sine part (P = 2; mode 0 has
P = 1).  Every mode has the one operator [[L, -nu K - J M], [-nu K + J M,
-M / lam]], with the leading block L = M for problem I (a desired state) or
K for problem II (a desired gradient), and J the quarter turn of the time
derivative, k omega sigma (-sine part, +cosine part); mode 0 is kw = 0.  It
is applied as a stencil on the node grid, so no matrix is stored.  The
control never appears as an unknown; it is recovered as u = -p / lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .femcore import FemContext, Stencil

PROBLEMS = ("I", "II")


@dataclass(frozen=True)
class ProblemParams:
    """The constants of a cost functional: its problem tag, "I" (a desired
    state) or "II" (a desired gradient), its control weight lam and the
    frequency omega of its period.  The PDE's sigma and nu are the
    `ModeMatrices`'."""

    problem: str
    lam: float
    omega: float

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem tag {self.problem!r}")
        for name in ("lam", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


def mode_parts(k: int) -> int:
    """Number P of stacked parts of mode k: the cosine part, and the sine part for k > 0."""
    return 1 + min(k, 1)


def quarter_turn(parts: np.ndarray, kws: float, out: np.ndarray | None = None) -> np.ndarray:
    """Time-derivative coupling of stacked (cosine, sine) parts, (P, ...) -> (P, ...),
    written to `out` (which must not overlap `parts`) when given.

    The cosine part pairs with -(sine part) and the sine part with
    +(cosine part), both scaled by kws = k omega sigma.
    """
    sign = kws * np.array([-1.0, 1.0])[: len(parts)]
    return np.multiply(sign.reshape((-1,) + (1,) * (parts.ndim - 1)), parts[::-1], out=out)


@dataclass
class ModeMatrices:
    """Interior-node stiffness K and mass M, as stencils, both as the one
    stencil KM that applies them in one pass (see `FemContext`), and the
    constant coefficients sigma and nu."""

    K: Stencil
    M: Stencil
    KM: Stencil
    sigma: float
    nu: float

    @property
    def mu1(self) -> float:
        """min(nu, sigma) / sqrt(2), the coercivity constant of the bounds."""
        return min(self.nu, self.sigma) / np.sqrt(2.0)


def build_matrices(ctx: FemContext, sigma: float = 1.0, nu: float = 1.0) -> ModeMatrices:
    if not all(math.isfinite(c) and c > 0 for c in (sigma, nu)):
        raise ValueError("coefficients must be positive and finite constants")
    return ModeMatrices(K=ctx.K, M=ctx.M, KM=ctx.KM, sigma=sigma, nu=nu)


@dataclass
class ModeSystem:
    """Operator and right-hand side of one Fourier mode, on flat stacked unknowns."""

    k: int
    mats: ModeMatrices
    matrix: Stencil
    rhs: np.ndarray


@dataclass
class ModeSolution:
    """Nodal coefficients of one mode's state and adjoint on the interior
    nodes, with the cosine and sine parts stacked, (P, m * m) each."""

    k: int
    y: np.ndarray
    p: np.ndarray


def mode_coefficients(params: ProblemParams, mats: ModeMatrices, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2P, 2P) coefficients of K and of M in the operator of mode k.

    The operator is K (x) coef_K + M (x) coef_M on the stacked (y, p) x
    (cosine, sine) unknowns.
    """
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    parts = mode_parts(k)
    diag = np.arange(parts)
    coef_K, coef_M = np.zeros((2, 2 * parts, 2 * parts))
    coef_K[diag, diag], coef_M[diag, diag] = (0.0, 1.0) if params.problem == "I" else (1.0, 0.0)
    coef_K[diag, parts + diag] = coef_K[parts + diag, diag] = -mats.nu
    coef_M[parts + diag, parts + diag] = -1.0 / params.lam
    # the time coupling: J M on the state in the adjoint's rows, -J M on the
    # adjoint in the state's
    coef_M[parts:, :parts] = turn = quarter_turn(np.eye(parts), k * params.omega * mats.sigma)
    coef_M[:parts, parts:] = -turn
    return coef_K, coef_M


def build_mode_system(params: ProblemParams, mats: ModeMatrices, k: int, rhs: np.ndarray) -> ModeSystem:
    """The operator and right-hand side of mode k.

    The operator is the stencil of K and M with (2P, 2P) blocks as weights:
    at each offset, the K weight times the coefficients of K in the block
    operator plus the M weight times those of M.  `rhs` holds the stacked
    data load vectors (P, m * m): (data, phi_i) for problem I,
    (data, grad phi_i) for problem II.
    """
    coef_K, coef_M = mode_coefficients(params, mats, k)
    parts = mode_parts(k)
    if rhs.shape != (parts, mats.M.shape[0]):
        raise ValueError(f"mode {k} needs a right-hand side of shape {(parts, mats.M.shape[0])}")
    K, M = mats.K.weights, mats.M.weights
    blocks = {o: K.get(o, 0.0) * coef_K + M.get(o, 0.0) * coef_M for o in K.keys() | M.keys()}
    return ModeSystem(
        k=k, mats=mats, matrix=Stencil(blocks, mats.M.m),
        rhs=np.concatenate([rhs, np.zeros_like(rhs)]).ravel(),
    )
