"""Lowest-order Raviart-Thomas flux reconstruction.

A reconstructed flux is stored as one normal-flux degree of freedom per
edge (the integral of the normal component over the edge, with respect to
the mesh's global edge normal).  The normal component is single-valued
across interior edges by construction, the field is linear per triangle,
and its divergence is constant per triangle.

`GridFlux` holds the degrees of freedom on three planes, one per edge kind
of the uniform mesh, and every per-mode operation on it (averaging, the
boundary divergence match, the per-triangle form) is a sum of plane slices.
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

    def __add__(self, other: "GridFlux") -> "GridFlux":
        return GridFlux(self.horiz + other.horiz, self.vert + other.vert, self.diag + other.diag)

    def scaled(self, coef: np.ndarray) -> "GridFlux":
        """Stacked copies of this field, one per entry of coef, (P,)."""
        return GridFlux(*(np.multiply.outer(coef, a) for a in (self.horiz, self.vert, self.diag)))

    def outward(self) -> tuple[tuple, tuple]:
        """The planes of the edges opposite local vertices 0, 1, 2 of the
        lower and of the upper triangles of all cells, (..., n, n) each;
        CLASS_EDGE_SIGN turns them into outward fluxes."""
        h, v, d = self.horiz, self.vert, self.diag
        return (v[..., :, 1:], d, h[..., :-1, :]), (h[..., 1:, :], v[..., :, :-1], d)


def grid_average(mesh, field: np.ndarray) -> GridFlux:
    """Edge-average per-triangle constant vector fields, given as class planes
    (..., 2, 2, n, n) (class, then component), -> GridFlux.

    Interior edges take the mean of the two one-sided normal traces,
    boundary edges the single trace.
    """
    n, h = mesh.n, mesh.h
    lead = field.shape[:-4]
    fx, fy = field[..., 0, :, :], field[..., 1, :, :]  # (..., class, n, n)
    half = 0.5 * h
    # a horizontal edge is the bottom of a lower and the top of an upper triangle
    horiz = np.empty(lead + (n + 1, n))
    horiz[..., 0, :] = -h * fy[..., 0, 0, :]
    horiz[..., 1:-1, :] = -half * (fy[..., 0, 1:, :] + fy[..., 1, :-1, :])
    horiz[..., -1, :] = -h * fy[..., 1, -1, :]
    # a vertical edge is the right side of a lower and the left of an upper triangle
    vert = np.empty(lead + (n, n + 1))
    vert[..., 0] = h * fx[..., 1, :, 0]
    vert[..., 1:-1] = half * (fx[..., 0, :, :-1] + fx[..., 1, :, 1:])
    vert[..., -1] = h * fx[..., 0, :, -1]
    across = fx - fy
    diag = half * (across[..., 0, :, :] + across[..., 1, :, :])
    return GridFlux(horiz, vert, diag)


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


def grid_match_boundary_divergence(mesh, flux: GridFlux, target_div: np.ndarray) -> None:
    """Adjust boundary-edge coefficients so boundary triangles hit target_div,
    given as class planes (..., 2, n, n).

    One-sided edge averaging leaves an O(1) divergence defect on the
    boundary strip; since boundary edges carry no continuity constraint,
    their degrees of freedom are free to absorb it.  The defect of each
    boundary triangle is split equally among its boundary edges: two for
    the corner triangles, lower of cell (0, n-1) and upper of cell (n-1, 0).
    """
    n, area = mesh.n, mesh.tri_area
    h, v, d = flux.horiz, flux.vert, flux.diag
    lower, upper = target_div[..., 0, :, :] * area, target_div[..., 1, :, :] * area
    # shares along a strip that ends (or starts) in a corner triangle
    ends = np.ones(n)
    ends[-1] = 2.0
    starts = ends[::-1]
    # area times the defect of each strip: target minus the outward edge sum,
    # all taken before any edge moves, since a corner sits on two strips
    bottom = (lower[..., 0, :] - (v[..., 0, 1:] - d[..., 0, :] + h[..., 0, :])) / ends
    right = (lower[..., :, -1] - (v[..., :, -1] - d[..., :, -1] + h[..., :-1, -1])) / starts
    top = (upper[..., -1, :] - (d[..., -1, :] - h[..., -1, :] - v[..., -1, :-1])) / starts
    left = (upper[..., :, 0] - (d[..., :, 0] - h[..., 1:, 0] - v[..., :, 0])) / ends
    h[..., 0, :] += bottom
    v[..., :, -1] += right
    h[..., -1, :] -= top
    v[..., :, 0] -= left


def grid_affine_form(ctx: FemContext, flux: GridFlux) -> tuple[np.ndarray, np.ndarray]:
    """Centroid values (..., 2, 2, n, n) and divergences (..., 2, n, n) of RT0
    fields, as class planes.

    Inside each triangle an RT0 field is tau(x) = tau(c) + div/2 (x - c),
    so the pair determines it exactly.
    """
    diag = flux.diag
    lead, n = diag.shape[:-2], diag.shape[-1]
    form = CLASS_EDGE_SIGN[:, :, None] * ctx.class_rt0_form  # per unit global flux
    centre = np.empty(lead + (2, 2, n, n))
    div = np.empty(lead + (2, n, n))
    for cls, planes in enumerate(flux.outward()):
        outs = (centre[..., cls, 0, :, :], centre[..., cls, 1, :, :], div[..., cls, :, :])
        for out, weights in zip(outs, form[cls].T):
            np.multiply(weights[0], planes[0], out=out)
            out += weights[1] * planes[1]
            out += weights[2] * planes[2]
    return centre, div
