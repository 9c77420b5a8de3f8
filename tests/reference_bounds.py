"""Quadrature reference for the per-mode bound evaluation.

This is the loop-over-parts evaluation that `bounds.evaluate_mode` replaced:
every residual is sampled at the 7 quadrature points of every triangle and
integrated by the degree-5 rule, with the cosine and sine parts handled one
after the other.  The tests compare the batched exact-integral evaluation
against it term by term; both return a `ModeTerms`, so the bound formulas
(`bounds.mode_bounds`) are not repeated here.  It is self-contained (its
own edge-numbered RT0 helpers; of `fluxrecon` it takes only the `GridFlux`
container) so that a change to `fluxrecon` cannot move both sides at once.
It reads the data as samples at
the quadrature points of one profile, scaled per part by the mode's time
coefficients (`QuadratureData`); `project` turns the same samples into the
per-triangle projections that `evaluate_mode` reads.

The edge-plane path of problem II's adjoint flux, an average of the
gradients over a block of cell rows and a match of the boundary-edge
planes (`grid_average_rows`, `grid_match_boundary_divergence`), is kept
here as the oracle of the per-triangle form that replaced it.

It also holds the majorant at explicit parameters alpha, beta, with their
textbook minimizers, against which `bounds.optimal_majorant` is checked, the
brute-force reference of those parameters (a log-grid search) and that of the
exact per-mode costs (time quadrature of an analytic optimal pair).  The
optimal pair of examples 1 and 4 at their own lambda = 0.1 and omega = 1,
`y_cubic` and `u_cubic`, is that independent time-domain oracle.  The time
quadrature is a composite Gauss sampler (`sample_periodic`): the Fourier
coefficients, norms and tails of a periodic signal, from samples at the nodes
of many panels, against which the closed forms of `cases` are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mhbounds.bounds import C_FRIEDRICHS, ModeData, ModeTerms
from mhbounds.fluxrecon import GridFlux
from reference_assembly import (
    norm2, p1_at_qp, p1_grad, project_p1, project_rt0, quadrature_points, to_full, vec_norm2,
)
from reference_systems import stencil_csr


@dataclass
class QuadratureData:
    """Mode data as quadrature-point samples of one profile, part p being the
    profile times coef[p] (coef (P,) the mode's time coefficients): the
    desired state's profile y_qp (T, Q), or the desired gradient's g_qp
    (T, Q, 2) with its edge fluxes g_edge (E,)."""

    coef: np.ndarray
    y_qp: Optional[np.ndarray] = None
    g_qp: Optional[np.ndarray] = None
    g_edge: Optional[np.ndarray] = None


def plane_ids(mesh):
    """Edge ids on the horizontal, vertical and diagonal planes of a
    GridFlux, placed by the end nodes of each edge."""
    n, side = mesh.n, mesh.n + 1
    low, high = mesh.edges.T
    row, col = np.divmod(low, side)
    planes = (np.full((n + 1, n), -1), np.full((n, n + 1), -1), np.full((n, n), -1))
    for plane, step in zip(planes, (1, side, side + 1)):
        e = np.flatnonzero(high - low == step)
        plane[row[e], col[e]] = e
    assert all(np.all(plane >= 0) for plane in planes)
    return planes


def edge_planes(mesh, coeffs) -> GridFlux:
    """Edge-numbered coefficients (..., E) on the GridFlux planes."""
    return GridFlux(*(coeffs[..., ids] for ids in plane_ids(mesh)))


def edge_coeffs(mesh, flux: GridFlux) -> np.ndarray:
    """The GridFlux planes as edge-numbered coefficients (..., E), the
    inverse of `edge_planes`."""
    lead = flux.diag.shape[:-2]
    out = np.empty(lead + (mesh.num_edges,))
    for ids, plane in zip(plane_ids(mesh), (flux.horiz, flux.vert, flux.diag)):
        out[..., ids] = plane
    return out


def project(ctx, samples: QuadratureData) -> ModeData:
    """The ModeData of `evaluate_mode` built from quadrature samples: the
    profile's projections, with the same time coefficients."""
    coef = samples.coef
    if samples.y_qp is not None:
        vert, rest = project_p1(ctx, samples.y_qp)
        return ModeData(coef=coef, rest=float(coef @ coef * rest.sum()), y_vert=vert)
    mean, div, rest = project_rt0(ctx, samples.g_qp)
    return ModeData(coef=coef, rest=float(coef @ coef * rest), g_mean=mean, g_div=div,
                    g_flux=edge_planes(ctx.mesh, samples.g_edge))


def tri_scalars(planes):
    """Class planes (..., 2, n, n) in the triangle numbering, (..., T)."""
    cells = np.moveaxis(planes, -3, -1)
    return cells.reshape(cells.shape[:-3] + (-1,))


def tri_rows(planes):
    """Class planes (..., 2, K, n, n) in the triangle numbering, (..., T, K)."""
    cells = np.moveaxis(planes, (-2, -1), (-4, -3))
    return cells.reshape(cells.shape[:-4] + (-1, cells.shape[-1]))


def rt0_reconstruct(mesh, field):
    """Edge-averaged normal-flux dofs of a per-triangle constant field (T, 2)."""
    t0 = mesh.edge_tris[:, 0]
    t1 = mesh.edge_tris[:, 1]
    flux0 = np.einsum("ed,ed->e", field[t0], mesh.edge_normal)
    flux1 = np.where(
        t1 >= 0,
        np.einsum("ed,ed->e", field[np.maximum(t1, 0)], mesh.edge_normal),
        flux0,
    )
    return 0.5 * (flux0 + flux1) * mesh.edge_length


def rt0_from_callable(mesh, g):
    """Normal-flux dofs of continuous vector data g(x, y) -> (gx, gy), by
    the value at each edge midpoint."""
    mid = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
    gx, gy = g(mid[:, 0], mid[:, 1])
    return (gx * mesh.edge_normal[:, 0] + gy * mesh.edge_normal[:, 1]) * mesh.edge_length


def rt0_divergence(mesh, coeffs):
    signed = coeffs[mesh.tri_edges] * mesh.tri_edge_sign
    return signed.sum(axis=1) / (0.5 * mesh.h * mesh.h)


def rt0_at_points(mesh, coeffs, points):
    """RT0 field with edge dofs `coeffs` at per-triangle points (T, Q, 2).

    The function attached to edge e (opposite local vertex i) inside
    triangle t is sign * (x - P_i) / (2 A).
    """
    area2 = mesh.h * mesh.h
    opp = mesh.nodes[mesh.triangles]
    coef = coeffs[mesh.tri_edges] * mesh.tri_edge_sign / area2
    total = coef.sum(axis=1)
    offset = np.einsum("tk,tkd->td", coef, opp)
    return total[:, None, None] * points - offset[:, None, :]


def _match_boundary_divergence(mesh, coeffs, target_div):
    area = 0.5 * mesh.h * mesh.h
    is_boundary_edge = mesh.edge_tris[:, 1] < 0
    tri_bnd = is_boundary_edge[mesh.tri_edges]
    n_bnd = tri_bnd.sum(axis=1)
    tris = np.flatnonzero(n_bnd > 0)
    div = rt0_divergence(mesh, coeffs)
    defect = (target_div[tris] - div[tris]) * area / n_bnd[tris]
    for t, d in zip(tris, defect):
        for local in range(3):
            if tri_bnd[t, local]:
                e = mesh.tri_edges[t, local]
                coeffs[e] += mesh.tri_edge_sign[t, local] * d


# -- the edge-plane path of problem II's adjoint flux --------------------------


def grid_average_rows(mesh, field: np.ndarray, rows: slice) -> GridFlux:
    """Edge-average per-triangle constant vector fields, class planes
    (..., 2, 2, H, n), on the edges of the cell rows `rows`, R of them:
    horizontal planes (..., R+1, n), the others (..., R, n+1) and (..., R, n).

    `field` covers those rows and one more on each side where the mesh has
    one, since a horizontal edge averages across two cell rows.  Interior
    edges take the mean of the two one-sided normal traces, boundary edges
    the single trace.
    """
    n, h = mesh.n, mesh.h
    r0, r1, _ = rows.indices(n)
    count, below = r1 - r0, min(r0, 1)  # block rows, halo rows below them
    lead = field.shape[:-4]
    horiz, vert, diag = np.empty(lead + (count + 1, n)), np.empty(lead + (count, n + 1)), np.empty(lead + (count, n))
    fx, fy = field[..., 0, :, :], field[..., 1, :, :]  # (..., class, H, n)
    half = 0.5 * h
    # horizontal edge e of the block is the bottom of the lower triangle of
    # field row below + e and the top of the upper triangle of the row under it
    lo, hi = int(r0 == 0), count + int(r1 < n)
    inner = horiz[..., lo:hi, :]
    np.add(fy[..., 0, below + lo : below + hi, :], fy[..., 1, below + lo - 1 : below + hi - 1, :], out=inner)
    inner *= -half
    if r0 == 0:
        np.multiply(-h, fy[..., 0, 0, :], out=horiz[..., 0, :])
    if r1 == n:
        np.multiply(-h, fy[..., 1, below + count - 1, :], out=horiz[..., count, :])
    # a vertical edge is the right side of a lower and the left of an upper triangle
    fx, fy = fx[..., below : below + count, :], fy[..., below : below + count, :]
    np.multiply(h, fx[..., 1, :, 0], out=vert[..., 0])
    np.add(fx[..., 0, :, :-1], fx[..., 1, :, 1:], out=vert[..., 1:-1])
    vert[..., 1:-1] *= half
    np.multiply(h, fx[..., 0, :, -1], out=vert[..., -1])
    np.subtract(fx[..., 0, :, :], fy[..., 0, :, :], out=diag)
    diag += fx[..., 1, :, :]
    diag -= fy[..., 1, :, :]
    diag *= half
    return GridFlux(horiz, vert, diag)


def grid_match_boundary_divergence(mesh, flux: GridFlux, target_div: np.ndarray, rows: slice) -> None:
    """Adjust the boundary-edge planes of `flux`, on the cell rows `rows` as
    `grid_average_rows` gives them, so that boundary triangles hit
    target_div, class planes (..., 2, R, n).

    The defect of each boundary triangle, all taken before any edge moves,
    is split equally among its boundary edges: two for the corner
    triangles, lower of cell (0, n-1) and upper of cell (n-1, 0).  The
    bottom strip is matched in the block that holds row 0, the top strip in
    the one that holds row n-1, and the left and right columns in every
    block.
    """
    n, area = mesh.n, mesh.tri_area
    r0, r1, _ = rows.indices(n)
    h, v, d = flux.horiz, flux.vert, flux.diag
    lower, upper = target_div[..., 0, :, :], target_div[..., 1, :, :]
    # shares of the column rows and along a strip; a corner triangle's is 2
    ends = np.ones(n)
    ends[-1] = 2.0
    starts = ends[::-1]
    # area times the defect of each strip: target minus the outward edge sum
    right = (area * lower[..., :, -1] - (v[..., :, -1] - d[..., :, -1] + h[..., :-1, -1])) / starts[r0:r1]
    left = (area * upper[..., :, 0] - (d[..., :, 0] - h[..., 1:, 0] - v[..., :, 0])) / ends[r0:r1]
    if r0 == 0:
        bottom = (area * lower[..., 0, :] - (v[..., 0, 1:] - d[..., 0, :] + h[..., 0, :])) / ends
    if r1 == n:
        top = (area * upper[..., -1, :] - (d[..., -1, :] - h[..., -1, :] - v[..., -1, :-1])) / starts
    v[..., :, -1] += right
    v[..., :, 0] -= left
    if r0 == 0:
        h[..., 0, :] += bottom
    if r1 == n:
        h[..., -1, :] -= top


def evaluate_mode_reference(params, mats, ctx, sol, data) -> ModeTerms:
    """The bound terms of `bounds.evaluate_mode` by 7-point quadrature, from
    the quadrature samples `data` (a QuadratureData)."""
    mesh = ctx.mesh
    points = quadrature_points(mesh)
    K, M = stencil_csr(mats.K), stencil_csr(mats.M)
    k = sol.k
    problem, lam = params.problem, params.lam
    kw = k * params.omega
    nu, sigma = mats.nu, mats.sigma

    def part(arr, j):
        return None if arr is None else data.coef[j] * arr

    sol_y_c, sol_p_c = sol.y[0], sol.p[0]
    sol_y_s, sol_p_s = (sol.y[1], sol.p[1]) if k > 0 else (None, None)
    Kn, Ms = nu * K, sigma * M
    y_c, p_c = to_full(ctx, sol_y_c), to_full(ctx, sol_p_c)
    y_s = to_full(ctx, sol_y_s) if sol_y_s is not None else None
    p_s = to_full(ctx, sol_p_s) if sol_p_s is not None else None
    comp = [(y_c, p_c, part(data.y_qp, 0), part(data.g_qp, 0), part(data.g_edge, 0), -1.0, y_s, p_s)]
    if k > 0:
        comp.append((y_s, p_s, part(data.y_qp, 1), part(data.g_qp, 1), part(data.g_edge, 1), +1.0, y_c, p_c))

    r1_sq = r2_sq = r3_sq = r4_sq = 0.0
    misfit = 0.0
    for w, q, yd_qp, gd_qp, gd_edge, perp_sign, w_other, q_other in comp:
        grad_w = p1_grad(ctx, w)
        grad_q = p1_grad(ctx, q)
        q_qp = p1_at_qp(ctx, q)

        tau = rt0_reconstruct(mesh, nu * grad_w)
        r1_vals = rt0_divergence(mesh, tau)[:, None] - q_qp / lam
        if k > 0:
            r1_vals = r1_vals + perp_sign * kw * sigma * p1_at_qp(ctx, w_other)
        r1_sq += norm2(ctx, r1_vals)
        r2_sq += vec_norm2(ctx, rt0_at_points(mesh, tau, points) - nu * grad_w[:, None, :])

        if problem == "I":
            w_qp = p1_at_qp(ctx, w)
            misfit += norm2(ctx, w_qp - yd_qp)
            rho = rt0_reconstruct(mesh, nu * grad_q)
            r3_vals = rt0_divergence(mesh, rho)[:, None] + w_qp - yd_qp
            r4_vals = rt0_at_points(mesh, rho, points) - nu * grad_q[:, None, :]
        else:
            misfit += vec_norm2(ctx, grad_w[:, None, :] - gd_qp)
            rho = rt0_reconstruct(mesh, nu * grad_q - grad_w) + gd_edge
            if k > 0:
                target_div = -perp_sign * kw * sigma * q_other[mesh.triangles].mean(axis=1)
            else:
                target_div = np.zeros(mesh.num_triangles)
            _match_boundary_divergence(mesh, rho, target_div)
            r3_vals = rt0_divergence(mesh, rho)[:, None] + np.zeros_like(q_qp)
            target = (nu * grad_q - grad_w)[:, None, :] + gd_qp
            r4_vals = rt0_at_points(mesh, rho, points) - target
        if k > 0:
            r3_vals = r3_vals + perp_sign * kw * sigma * p1_at_qp(ctx, q_other)
        r3_sq += norm2(ctx, r3_vals)
        r4_sq += vec_norm2(ctx, r4_vals)

    p_mass = float(sol_p_c @ (M @ sol_p_c))
    bilin = float(sol_y_c @ (Kn @ sol_p_c))
    if k > 0:
        p_mass += float(sol_p_s @ (M @ sol_p_s))
        bilin += float(sol_y_s @ (Kn @ sol_p_s))
        bilin += kw * (float(sol_y_s @ (Ms @ sol_p_c)) - float(sol_y_c @ (Ms @ sol_p_s)))
    residuals = np.sqrt([r1_sq, r2_sq, r3_sq, r4_sq])
    return ModeTerms(k, misfit, *residuals, p_mass=p_mass, bilin=bilin)


# -- the majorant at explicit parameters, and its brute-force minimum --------


def _times(weight, x):
    """weight * x, with 0 * inf = 0 * nan = 0: where a parameter's textbook
    value is 0, inf or 0/0, the term it weights is zero."""
    return weight * x if x else 0.0


def _inverse(x):
    return 1 / x if x else np.inf


def majorant_form(A, r1, r2, alpha, beta, mu1, P: float = 0.0) -> float:
    """The majorant at parameters alpha, beta in [0, inf], continued to the
    ends of that range by its limits.

    A = squared data misfit, r1 = equation residual norm, r2 = flux residual
    norm, P = the control energy:
    (1+alpha)/2 A + P + (1+alpha)(1+beta) C_F^2 / (2 alpha mu1^2)
    (r2^2 + C_F^2 r1^2 / beta).
    """
    weight = C_FRIEDRICHS**2 / (2 * mu1**2)
    residual = _times(1 + beta, r2**2) + _times(1 + _inverse(beta), C_FRIEDRICHS**2 * r1**2)
    return P + _times((1 + alpha) / 2, A) + weight * _times(1 + _inverse(alpha), residual)


def optimal_parameters(A, r1, r2, mu1) -> tuple[float, float]:
    """The textbook minimizers of `majorant_form`: beta* = C_F r1 / r2 and
    alpha* = sqrt(2 H / A), H = C_F^2 (C_F r1 + r2)^2 / (2 mu1^2); a zero
    denominator gives inf, and 0/0 nan."""
    H = C_FRIEDRICHS**2 * (C_FRIEDRICHS * r1 + r2) ** 2 / (2 * mu1**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(np.float64(2 * H) / A), np.float64(C_FRIEDRICHS * r1) / r2


def grid_search_alpha_beta(A, r1, r2, mu1, P: float = 0.0, points: int = 40):
    """Minimize `majorant_form` over a log-spaced grid."""
    grid = np.logspace(-6.0, 6.0, points)
    best = (np.inf, None, None)
    for a in grid:
        for b in grid:
            val = majorant_form(A, r1, r2, a, b, mu1, P=P)
            if val < best[0]:
                best = (val, a, b)
    return best[1], best[2], best[0]


def gauss_panels(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class SampledSignal:
    """One period of a T-periodic signal at the nodes of a composite Gauss
    rule; every Fourier coefficient is one weighted sum over the samples."""

    omega: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def _sums(self, ks: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The mean and the cosine and sine coefficients of modes ks."""
        period = self.period
        c0 = float(np.dot(self.weights, self.values)) / period
        phases = np.multiply.outer(ks, self.nodes) * self.omega
        cos = (2.0 / period) * (np.cos(phases) * self.values) @ self.weights
        sin = (2.0 / period) * (np.sin(phases) * self.values) @ self.weights
        return c0, cos, sin

    def mode(self, k: int) -> tuple[float, float]:
        """(cosine, sine) pair of mode k alone; mode 0 returns (mean, 0).

        Raises:
            ValueError: if k < 0.
        """
        if k < 0:
            raise ValueError("mode index must be nonnegative")
        c0, cos, sin = self._sums(np.arange(k, k + 1) if k else np.arange(0))
        return (c0, 0.0) if k == 0 else (float(cos[0]), float(sin[0]))

    def norm2(self) -> float:
        """Integral of the squared signal over one period."""
        return float(np.dot(self.weights, self.values**2))

    def tail(self, n_modes: int) -> float:
        """The energy of the modes above n_modes: the squared norm over one
        period minus that of modes 0..n_modes by Parseval, T c0^2 for mode 0
        and (T/2) (cos_k^2 + sin_k^2) for the others.

        Raises:
            ValueError: if n_modes < 0.
        """
        if n_modes < 0:
            raise ValueError("mode index must be nonnegative")
        period = self.period
        c0, cos, sin = self._sums(np.arange(1, n_modes + 1))
        retained = period * c0**2 + 0.5 * period * float(np.sum(cos**2 + sin**2))
        return self.norm2() - retained


def sample_periodic(u: Callable, omega: float, panels: int, order: int) -> SampledSignal:
    """Samples of u over one period at the nodes of `gauss_panels`.  A mode
    up to index `panels` has at most one period per panel, which a 12-point
    Gauss rule integrates to about 1e-12 of the signal's size; at half a
    period per panel, to rounding."""
    t, w = gauss_panels(0.0, 2.0 * np.pi / omega, panels, order)
    return SampledSignal(omega=omega, nodes=t, weights=w, values=u(t))


def time_mode_pair(f, omega: float, k: int, panels: int = 256, order: int = 12):
    """(cosine, sine) Fourier coefficient pair of a time factor, sampled anew
    on every call."""
    return sample_periodic(f, omega, panels, order).mode(k)


def spacetime_cost(k, lam, omega, y_time, u_time, data_time, misfit_norm2, control_norm2,
                   data_scale=1.0, panels=256, order=12) -> float:
    """Exact per-mode cost of an analytic optimal pair, by time quadrature.

    The state, control and data share one spatial profile; `misfit_norm2`
    scales the squared misfit coefficient (for gradient tracking this is
    the squared norm of the profile's gradient and `data_scale` maps the
    data's time coefficients onto that gradient).
    """
    yc, ys = time_mode_pair(y_time, omega, k, panels, order)
    uc, us = time_mode_pair(u_time, omega, k, panels, order)
    dc, ds = time_mode_pair(data_time, omega, k, panels, order)
    misfit = (yc - data_scale * dc) ** 2 + (ys - data_scale * ds) ** 2
    energy = uc**2 + us**2
    return 0.5 * misfit * misfit_norm2 + 0.5 * lam * energy * control_norm2


def y_cubic(t):
    """Time factor of the optimal state of examples 1 and 4, e^t sin^3 t."""
    return np.exp(t) * np.sin(t) ** 3


def u_cubic(t):
    """Time factor of their optimal control, y' + 2 pi^2 y."""
    s, c = np.sin(t), np.cos(t)
    return np.exp(t) * ((1 + 2 * np.pi**2) * s**3 + 3 * s * s * c)
