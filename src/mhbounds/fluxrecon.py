"""Lowest-order Raviart-Thomas flux reconstruction.

A reconstructed flux is stored as one normal-flux degree of freedom per
edge (the integral of the normal component over the edge, with respect to
the mesh's global edge normal).  The normal component is single-valued
across interior edges by construction, the field is linear per triangle,
and its divergence is constant per triangle.

`GridFlux` holds the degrees of freedom on three planes, one per edge kind
of the uniform mesh, and every per-mode operation on it (averaging, the
boundary divergence match, the per-triangle form) is a sum of plane slices.
Each of them also works on a block of cell rows, the planes of the edges
of those rows, and writes into given buffers, so the bound evaluation can
run block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femcore import FemContext
from .mesh import CLASS_EDGE_SIGN


@dataclass
class GridFlux:
    """Raviart-Thomas field of lowest order on the three edge planes of a
    UniformMesh, with any leading axes stacking fields.

    horiz[..., r, c], (..., n+1, n): edge (r, c)-(r, c+1), normal (0, -1);
    vert[..., r, c], (..., n, n+1): edge (r, c)-(r+1, c), normal (1, 0);
    diag[..., r, c], (..., n, n): edge (r, c)-(r+1, c+1), normal (1, -1)/sqrt(2).
    Each entry is the integral of the normal component over the edge.
    """

    horiz: np.ndarray
    vert: np.ndarray
    diag: np.ndarray

    def outward(self) -> tuple[tuple, tuple]:
        """The planes of the edges opposite local vertices 0, 1, 2 of the
        lower and of the upper triangles of all cells, (..., n, n) each;
        CLASS_EDGE_SIGN turns them into outward fluxes."""
        h, v, d = self.horiz, self.vert, self.diag
        return (v[..., :, 1:], d, h[..., :-1, :]), (h[..., 1:, :], v[..., :, :-1], d)


def grid_average(mesh, field: np.ndarray, rows: slice = slice(None), out: GridFlux | None = None) -> GridFlux:
    """Edge-average per-triangle constant vector fields, given as class planes
    (..., 2, 2, H, n) (class, then component), -> GridFlux.

    Interior edges take the mean of the two one-sided normal traces,
    boundary edges the single trace.  The result holds the edges of the cell
    rows `rows` (all by default), R of them: horizontal planes (..., R+1, n),
    the others (..., R, n+1) and (..., R, n), written to `out` when given.
    `field` covers those rows and one more on each side where the mesh has
    one, since a horizontal edge averages across two cell rows.
    """
    n, h = mesh.n, mesh.h
    r0, r1, _ = rows.indices(n)
    count, below = r1 - r0, min(r0, 1)  # block rows, halo rows below them
    lead = field.shape[:-4]
    if out is None:
        out = GridFlux(np.empty(lead + (count + 1, n)), np.empty(lead + (count, n + 1)),
                       np.empty(lead + (count, n)))
    horiz, vert, diag = out.horiz, out.vert, out.diag
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
    return out


def grid_from_callable(mesh, g) -> GridFlux:
    """Edge degrees of freedom of continuous vector data, by midpoint value."""
    n, h = mesh.n, mesh.h
    line = np.arange(n + 1) * h
    mid = 0.5 * (line[:-1] + line[1:])

    def at(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape)
        return [np.broadcast_to(v, shape) for v in g(x, y)]

    horiz = -h * at(mid[None, :], line[:, None])[1]
    vert = h * at(line[None, :], mid[:, None])[0]
    gx, gy = at(mid[None, :], mid[:, None])
    return GridFlux(horiz, vert, h * (gx - gy))


def grid_match_boundary_divergence(mesh, flux: GridFlux, target_div: np.ndarray, rows: slice) -> None:
    """Adjust boundary-edge coefficients so boundary triangles hit target_div,
    given as class planes (..., 2, R, n).

    One-sided edge averaging leaves an O(1) divergence defect on the
    boundary strip; since boundary edges carry no continuity constraint,
    their degrees of freedom are free to absorb it.  The defect of each
    boundary triangle is split equally among its boundary edges: two for
    the corner triangles, lower of cell (0, n-1) and upper of cell (n-1, 0).
    `flux` and `target_div` hold the cell rows `rows`, as
    `grid_average` gives them: the bottom strip is matched in the block that
    holds row 0, the top strip in the one that holds row n-1, and the left
    and right columns in every block.
    """
    n, area = mesh.n, mesh.tri_area
    r0, r1, _ = rows.indices(n)
    h, v, d = flux.horiz, flux.vert, flux.diag
    lower, upper = target_div[..., 0, :, :], target_div[..., 1, :, :]
    # shares of the column rows and along a strip; a corner triangle's is 2
    ends = np.ones(n)
    ends[-1] = 2.0
    starts = ends[::-1]
    # area times the defect of each strip: target minus the outward edge sum,
    # all taken before any edge moves, since a corner sits on two strips
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


def grid_affine_form(ctx: FemContext, flux: GridFlux, out: tuple,
                     work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid values (..., 2, 2, R, n) and divergences (..., 2, R, n) of RT0
    fields on R cell rows, as class planes, written to `out` = (centre, div);
    `work` (..., R, n) takes the products.

    Inside each triangle an RT0 field is tau(x) = tau(c) + div/2 (x - c),
    so the pair determines it exactly.
    """
    form = CLASS_EDGE_SIGN[:, :, None] * ctx.class_rt0_form  # per unit global flux
    centre, div = out
    for cls, planes in enumerate(flux.outward()):
        outs = (centre[..., cls, 0, :, :], centre[..., cls, 1, :, :], div[..., cls, :, :])
        for plane, weights in zip(outs, form[cls].T):
            np.multiply(weights[0], planes[0], out=plane)
            for weight, edge in zip(weights[1:], planes[1:]):
                plane += np.multiply(weight, edge, out=work)
    return centre, div
