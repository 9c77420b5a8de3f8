"""Guaranteed two-sided bounds for the cost functionals, evaluated per mode.

For every Fourier mode the discrete state/adjoint pair, together with
averaged-flux reconstructions, yields a fully computable upper bound
(majorant) and lower bound (minorant) on the optimal cost, plus an upper
bound on the control-state discretization error in a weighted H1-type norm.

The majorant holds for every pair of parameters alpha, beta > 0 and is taken
at its infimum over both, which has a closed form (see `optimal_majorant`).

The per-triangle work of a mode runs over blocks of cell rows, in buffers
lent once per mode and reused by every block, so its memory does not grow
with the grid and a worker's modes reuse the same pages.  An averaged flux
tau = avg(nu grad u) enters the residuals through tau - nu grad u per
triangle and its divergence, both of which come from the jumps of the
normal gradient across the edges, second differences of four nodes, and
the signed sum of the outward edge fluxes (see `fluxrecon`); the flux
itself is never formed on the edges.  Problem II's adjoint flux adds to
that form the form of the data's edge fluxes, and on the boundary strip the
fluxes through the boundary edges that match its divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from . import fluxrecon
from .femcore import FemContext, Scratch
from .mesh import CLASS_CORNERS
from .systems import ModeMatrices, ModeSolution, mode_parts, quarter_turn

# Friedrichs constant of the unit square, ||v|| <= C_F ||grad v|| on H^1_0
C_FRIEDRICHS = 1.0 / (np.sqrt(2.0) * np.pi)
# weight (1 + ALPHA_TAIL) / 2 of the truncation remainder in the overall
# majorant; its infimum is the limit ALPHA_TAIL -> 0
ALPHA_TAIL = 1e-8
# cells per block of the bound evaluation: the block buffers of a k > 0 mode
# take about 46 (problem I) or 54 (problem II) doubles per cell (3-3.5 MB),
# n=128 takes two blocks and n=1024 128 of them
BOUND_CELLS = 8192


@dataclass
class BoundParams:
    """Problem constants entering the bound formulas; mu1 = min(nu, sigma)/sqrt(2)."""

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


def optimal_majorant(misfit: float, sta: float, control_energy: float, params: BoundParams) -> float:
    """The majorant at its optimal parameters.

    With the squared data misfit A, the state residual sta = C_F r1 + r2 and
    the control energy P, the majorant at alpha, beta > 0 is
    (1+alpha)/2 A + P + (1+alpha)(1+beta) C_F^2 / (2 alpha mu1^2)
    (r2^2 + C_F^2 r1^2 / beta).  beta* = C_F r1 / r2 turns its residual term
    into (1+alpha)/alpha H with H = (C_F sta / mu1)^2 / 2, and
    alpha* = sqrt(2 H / A) leaves P + 1/2 (sqrt(A) + C_F sta / mu1)^2, the
    infimum, which is also the limit where A, r1 or r2 is zero.
    """
    return control_energy + 0.5 * (np.sqrt(misfit) + C_FRIEDRICHS / params.mu1 * sta) ** 2


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

    The data's cosine and sine parts are one profile scaled by the mode's
    time coefficients `coef` (P,) (P = 1 for mode 0, 2 otherwise).  The
    profile enters through its per-triangle projections (see
    `FemContext.project_data`), never scaled in place: the row blocks of
    `evaluate_mode` scale the rows they read.  Per-triangle arrays are class
    planes (see `femcore`).  Problem I carries the vertex values of the
    desired state's P1 projection, y_vert (2, 3, n, n); problem II the RT0
    projection of the desired gradient, g_mean + g_div/2 (x - c) with
    g_mean (2, 2, n, n) and g_div (2, n, n), and the edge-flux degrees of
    freedom of the same data, g_flux, whose per-triangle form the adjoint
    flux adds.
    `rest` is the squared quadrature norm of what the projections leave over
    of the mode's data, summed over the parts: the residuals are piecewise
    polynomials orthogonal to it, so it adds to each data term.
    """

    coef: np.ndarray
    rest: float = 0.0
    y_vert: Optional[np.ndarray] = None
    g_mean: Optional[np.ndarray] = None
    g_div: Optional[np.ndarray] = None
    g_flux: Optional[fluxrecon.GridFlux] = None


@dataclass
class ModeBounds:
    """Bound evaluation of a single mode."""

    k: int
    minorant: float
    majorant: float
    residuals: ResidualSet
    misfit: float
    control_energy: float
    mixed: float
    m1_extra: float


def _p1_norm2(ctx: FemContext, grid: np.ndarray, work: np.ndarray, shift=None, vert=None) -> float:
    """Exact squared L2 norm of stacked fields that are P1 per triangle.

    On each triangle of R cell rows the field is the nodal field `grid`
    (P, R+1, n+1), plus the per-triangle constant `shift` (P, 2, R, n), minus
    the per-triangle vertex values `vert` (P, 2, 3, R, n); either may be
    absent.  Per triangle the P1 mass form gives area/12 (sum a_i^2 +
    (sum a_i)^2), summed one class and one local vertex at a time over
    slices of the grid, in `work` (2, P, R, n).
    """
    rows, n = grid.shape[-2] - 1, grid.shape[-1] - 1
    a, sums = work
    total = 0.0
    for cls, corners in enumerate(CLASS_CORNERS):
        for i, (r, c) in enumerate(corners):
            corner = grid[..., r : r + rows, c : c + n]
            if shift is not None:
                np.add(corner, shift[..., cls, :, :], out=a)
            else:
                np.copyto(a, corner)
            if vert is not None:
                a -= vert[..., cls, i, :, :]
            total += np.vdot(a, a)
            if i:
                sums += a
            else:
                np.copyto(sums, a)
        total += np.vdot(sums, sums)
    return ctx.mesh.tri_area / 12 * float(total)


def _rt0_norm2(ctx: FemContext, const: np.ndarray, div: np.ndarray) -> float:
    """Exact squared L2 norm of tau(x) = const + div/2 (x - c) per triangle,
    from class planes const (P, 2, 2, R, n) and div (P, 2, R, n).

    The linear part has zero mean, so the cross term vanishes.
    """
    return ctx.mesh.tri_area * float(
        np.vdot(const, const) + 0.25 * ctx.offset_moment * np.vdot(div, div)
    )


def _scaled(coef: np.ndarray, profile: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The mode's data parts coef[p] profile, into out (P, ...)."""
    return np.multiply(coef.reshape((-1,) + (1,) * profile.ndim), profile, out=out)


def _block_shapes(problem: str, parts: int, rows: int, read: int, n: int) -> dict:
    """Shapes of the buffers of a block of `rows` cell rows that reads `read`
    cell rows (the block and its halo), for `parts` stacked parts."""
    P, R, H, N = parts, rows, read, n + 1
    shapes = dict(
        y_rows=(P, H + 1, N), p_rows=(P, H + 1, N),  # node rows of y and p
        work=(2, P, R, n),  # P1 norm sums, products
        centre=(P, 2, 2, R, n), div=(P, 2, R, n),  # a flux's centroid values and divergences
        horiz=(P, R + 1, n), vert=(P, R, N), diag=(P, R, n),  # a flux's edge planes
        dx=(P, R + 1, n), dy=(P, H, N),  # node differences along rows and columns
        nodal=(P, R + 1, N), term=(P, R + 1, N),  # a nodal residual and a term of it
    )
    if problem == "I":
        shapes.update(y_vert=(P, 2, 3, R, n))
    else:
        # the data's projection, the node rows of the adjoint flux's
        # potential and the form of the data's edge fluxes
        shapes.update(g_mean=(P, 2, 2, R, n), g_div=(P, 2, R, n), w_rows=(P, H + 1, N),
                      edge_centre=(2, 2, R, n), edge_div=(2, R, n))
    return shapes


def _add_block(problem: str, ctx: FemContext, params: BoundParams, sol: ModeSolution,
               data: ModeData, rows: slice, buf: dict, terms: dict) -> None:
    """Add the squared misfit and r1^2 ... r4^2 over the cell rows `rows` to
    `terms`, working in the block buffers `buf` (see `_block_shapes`).

    An averaged flux avg(nu grad u) enters r2 and r4 only through its
    difference from nu grad u per triangle, and r1 and r3 through its
    divergence, which is that difference's: both come from the jumps of the
    normal gradient across the block's edges (see `fluxrecon`), second
    differences of the node rows of the block and of one cell row on each
    side of it.  Problem II's adjoint flux adds the form of the data's edge
    fluxes and the boundary match to it.
    """
    mesh = ctx.mesh
    lam, nu = params.lam, params.nu
    kws = sol.k * params.omega * params.sigma
    first = max(rows.start - 1, 0)
    inner = (Ellipsis, slice(rows.start - first, rows.stop - first), slice(None))
    here = (Ellipsis, rows, slice(None))  # the block's rows of a whole-grid plane
    nodes = slice(rows.start - first, rows.stop - first + 1)
    y_rows = ctx.node_grid(sol.y, first, out=buf["y_rows"])
    y_nodes = y_rows[:, nodes]
    p_rows = ctx.node_grid(sol.p, first, out=buf["p_rows"])
    p_nodes = p_rows[:, nodes]
    work = buf["work"]
    flux = fluxrecon.GridFlux(buf["horiz"], buf["vert"], buf["diag"])

    def correction(grid, scale):
        """The form of avg(grad u) - grad u per triangle of the P1 fields u
        on the node rows `grid`, times `scale`."""
        fluxrecon.grid_jumps(grid, rows, out=flux, work=(buf["dx"], buf["dy"]))
        return fluxrecon.grid_affine_form(mesh, flux, (buf["centre"], buf["div"]),
                                          signs=fluxrecon.JUMP_SIGN, scale=0.5 * scale)

    # state flux tau: the average of nu grad(y)
    centre, div = correction(y_rows, nu)
    # div(tau) + time coupling - p / lam: P1 per triangle
    nodal = quarter_turn(y_nodes, kws, out=buf["nodal"])
    nodal -= np.divide(p_nodes, lam, out=buf["term"])
    terms["r1"] += _p1_norm2(ctx, nodal, work, shift=div)
    terms["r2"] += _rt0_norm2(ctx, centre, div)

    if problem == "I":
        # the state minus the data's projection: P1 per triangle
        y_vert = _scaled(data.coef, data.y_vert[here], buf["y_vert"])
        terms["misfit"] += _p1_norm2(ctx, y_nodes, work, vert=y_vert)
        # adjoint flux rho: the average of nu grad(p)
        centre, div = correction(p_rows, nu)
        # div(rho) + time coupling + state - data: P1 per triangle against
        # the data's projection
        nodal = quarter_turn(p_nodes, kws, out=buf["nodal"])
        nodal += y_nodes
        terms["r3"] += _p1_norm2(ctx, nodal, work, shift=div, vert=y_vert)
        terms["r4"] += _rt0_norm2(ctx, centre, div)
        return

    # grad(y) minus the data's projection: RT0 per triangle, the gradients
    # from the node differences the state's jumps left, those along the
    # legs of each class triangle
    g_mean = _scaled(data.coef, data.g_mean[here], buf["g_mean"])
    g_div = _scaled(data.coef, data.g_div[here], buf["g_div"])
    dx, dy = buf["dx"], buf["dy"][inner]
    for (cls, axis), diff in zip(np.ndindex(2, 2), (dx[:, :-1], dy[..., 1:], dx[:, 1:], dy[..., :-1])):
        np.divide(diff, mesh.h, out=centre[:, cls, axis])
    terms["misfit"] += _rt0_norm2(ctx, np.subtract(centre, g_mean, out=centre), g_div)

    # the adjoint flux rho approximates the target grad(w) + g_d,
    # w = nu p - y: the average of grad(w) plus the data's edge fluxes, so
    # rho - grad(w) per triangle is half the jumps' form of w plus the form
    # of the data's fluxes on the block's edges; its exact divergence is
    # minus the time-derivative term, so the boundary fluxes are matched to
    # that per boundary triangle (interior normal continuity untouched, so
    # still in H(div)).  The match reads only the divergence, so `centre`
    # holds rho - grad(w) - g_mean from the start.
    w_rows = np.multiply(p_rows, nu, out=buf["w_rows"])
    w_rows -= y_rows
    centre, div = correction(w_rows, 1.0)
    g = data.g_flux
    g_rows = fluxrecon.GridFlux(g.horiz[rows.start : rows.stop + 1], g.vert[rows], g.diag[rows])
    edge_centre, edge_div = fluxrecon.grid_affine_form(mesh, g_rows, (buf["edge_centre"], buf["edge_div"]))
    centre -= g_mean
    centre += _scaled(data.coef, edge_centre, g_mean)
    div += _scaled(data.coef, edge_div, work.reshape(div.shape))
    nodal = quarter_turn(p_nodes, kws, out=buf["nodal"])
    fluxrecon.grid_match_boundary(mesh, (centre, div), nodal, rows)
    # div(rho) + time coupling: P1 per triangle
    terms["r3"] += _p1_norm2(ctx, nodal, work, shift=div)
    # rho - target - g_d: RT0 per triangle against the data's projection
    terms["r4"] += _rt0_norm2(ctx, centre, np.subtract(div, g_div, out=g_div))


def _block_terms(problem: str, ctx: FemContext, params: BoundParams, sol: ModeSolution,
                 data: ModeData, scratch: Scratch) -> dict:
    """The squared misfit and r1^2 ... r4^2, summed over blocks of whole
    cell rows of about BOUND_CELLS cells (see `_add_block`), in buffers lent
    by `scratch`."""
    n = ctx.mesh.n
    parts = len(sol.y)
    terms = dict.fromkeys(("misfit", "r1", "r2", "r3", "r4"), 0.0)
    block = max(1, min(n, BOUND_CELLS // n))
    sizes = [(prod(s),) for s in _block_shapes(problem, parts, block, min(block + 2, n), n).values()]
    with scratch.lend(*sizes) as flat:
        for r0 in range(0, n, block):
            rows = slice(r0, min(r0 + block, n))
            read = min(rows.stop + 1, n) - max(r0 - 1, 0)
            shapes = _block_shapes(problem, parts, rows.stop - r0, read, n)
            buf = {name: f[: prod(s)].reshape(s) for f, (name, s) in zip(flat, shapes.items())}
            _add_block(problem, ctx, params, sol, data, rows, buf, terms)
    # the data's remainder is orthogonal to every piecewise polynomial
    terms["misfit"] += data.rest
    terms["r3" if problem == "I" else "r4"] += data.rest
    return terms


def evaluate_mode(
    problem: str,
    ctx: FemContext,
    mats: ModeMatrices,
    params: BoundParams,
    sol: ModeSolution,
    data: ModeData,
    scratch: Scratch,
) -> ModeBounds:
    """Residuals, majorant, minorant and error majorant of mode k.

    The cosine and sine parts are evaluated together, stacked on a leading
    axis.  Residuals that are piecewise polynomial (P1 or RT0 per triangle)
    are integrated exactly in closed form; so are the misfit and the
    residual that contains the data, against the data's per-triangle
    projection, plus the stored norm of the projection's remainder.

    The per-triangle terms are summed over blocks of whole cell rows, about
    BOUND_CELLS cells each (see `_add_block`).  The block buffers, and those
    of the mixed term's stiffness and mass products, taken in one pass, are
    lent by `scratch`.
    """
    k = sol.k
    lam, nu = params.lam, params.nu
    cf, mu1 = C_FRIEDRICHS, params.mu1
    kws = k * params.omega * params.sigma

    terms = _block_terms(problem, ctx, params, sol, data, scratch)
    res = ResidualSet(*(np.sqrt(terms[name]) for name in ("r1", "r2", "r3", "r4")))
    misfit = terms["misfit"]

    ys, ps = sol.y, sol.p
    with scratch.lend((2,) + ps.shape, ps.shape) as (products, pairing):
        kp, mp = mats.KM(ps, out=products, scratch=scratch)
        p_mass = float(np.vdot(ps, mp))
        # bilinear pairing of state against adjoint, with the time-derivative
        # coupling  k omega sigma (y_s . M p_c - y_c . M p_s)
        quarter_turn(mp, kws, out=pairing)
        kp *= nu
        pairing += kp
        bilin = float(np.vdot(ys, pairing))
    control_energy = p_mass / (2 * lam)
    quad = p_mass / lam
    # Problem I subtracts the pairing (benchmark-calibrated orientation,
    # equal to 2/lam ||p||^2 at the discrete solution); problem II uses the
    # orientation under which the term vanishes at the discrete solution.
    mixed = quad - bilin if problem == "I" else quad + bilin

    adj = cf * res.r3 + res.r4
    sta = cf * res.r1 + res.r2
    minorant = (
        0.5 * misfit
        + control_energy
        - mixed
        - cf**2 / (mu1**2 * lam) * adj**2
        - sta * adj / mu1
    )

    return ModeBounds(
        k=k,
        minorant=minorant,
        majorant=optimal_majorant(misfit, sta, control_energy, params),
        residuals=res,
        misfit=misfit,
        control_energy=control_energy,
        mixed=mixed,
        m1_extra=3 * lam / (4 * cf**2) * sta**2,
    )


@dataclass
class OverallBounds:
    """T-weighted aggregation of per-mode bounds with the truncation tail."""

    minorant: float
    majorant: float
    m1_extra: float


def aggregate(mode_bounds: list[ModeBounds], params: BoundParams, remainder: float) -> OverallBounds:
    """Combine mode bounds, mode k weighted by T / mode_parts(k): T for
    mode 0 and T/2 for the higher modes.

    The remainder enters the minorant with weight 1/2 and the majorant with
    (1 + ALPHA_TAIL)/2; the error majorant aggregates without a remainder.
    """
    by_k = sorted(mode_bounds, key=lambda b: b.k)
    if not by_k or by_k[0].k != 0:
        raise ValueError("aggregation requires the k=0 mode")
    weighted = [(params.period / mode_parts(b.k), b) for b in by_k]
    lower = sum(w * b.minorant for w, b in weighted) + 0.5 * remainder
    upper = sum(w * b.majorant for w, b in weighted) + 0.5 * (1 + ALPHA_TAIL) * remainder
    m1_extra = sum(w * b.m1_extra for w, b in weighted)
    return OverallBounds(minorant=lower, majorant=upper, m1_extra=m1_extra)


def combined_norm_weights(problem: str, params: BoundParams, k: int) -> tuple[float, float]:
    """(w_l2, w_h1) of the weighted error norm of mode k.

    The squared mode error norm is w_l2 ||e_k||^2 + w_h1 ||grad e_k||^2.
    """
    c = params.lam * params.mu1**2 / (2 * C_FRIEDRICHS**2)
    if problem == "I":
        return 0.5 + k * params.omega * c, c
    return k * params.omega * c, 0.5 + c


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
