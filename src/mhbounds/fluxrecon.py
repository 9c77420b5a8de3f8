"""Lowest-order Raviart-Thomas flux reconstruction.

A reconstructed flux is stored as one normal-flux degree of freedom per
edge (the integral of the normal component over the edge, with respect to
the mesh's global edge normal).  The normal component is single-valued
across interior edges by construction, the field is linear per triangle,
and its divergence is constant per triangle.

`GridFlux` holds the degrees of freedom on three planes, one per edge kind
of the uniform mesh.  The data's edge fluxes are formed on them once per
bind (`grid_from_callable`, or `grid_average` of per-triangle constants);
every per-mode operation (the jumps, the per-triangle form and the
boundary divergence match) is a sum of plane slices on a block of cell
rows, written into given buffers, so the bound evaluation can run block
by block.

The per-triangle form of an RT0 field is the signed sum of its outward edge
fluxes (`grid_affine_form`).  The edge average tau of nu grad(u), u P1,
needs no edge degrees of freedom of its own: on each triangle T, tau minus
the constant nu grad(u_T) is the RT0 field whose outward flux through an
interior edge is nu/2 times the jump of the normal gradient across it,
(grad u' - grad u_T) . n |e| with u' the other side's, and 0 through a
boundary edge.  Each jump is a second difference of four nodes
(`grid_jumps`), the same seen from either side.  A boundary edge has one
triangle, so fluxes added through it move that triangle's form alone
(`grid_match_boundary`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CLASS_CORNERS, CLASS_EDGE_SIGN

# the signs that turn the planes of `grid_jumps` into outward fluxes: a jump
# is outward on both sides of its edge
JUMP_SIGN = np.ones((2, 3))

# (i, s) per class, x then y component: the centroid value of an RT0 field
# on a class triangle is s (3 phi_i - S) / (3 h) for its outward edge fluxes
# phi and their sum S, i the vertex off the line of the other two along the
# component (lower triangle (v00, v10, v11), upper (v00, v11, v01))
_CENTRE_EDGES = (((0, 1.0), (2, -1.0)), ((1, -1.0), (0, 1.0)))


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


def grid_average(mesh, field: np.ndarray) -> GridFlux:
    """Edge-average per-triangle constant vector fields, given as class planes
    (..., 2, 2, n, n) (class, then component), -> GridFlux.

    Interior edges take the mean of the two one-sided normal traces,
    boundary edges the single trace.
    """
    half = 0.5 * mesh.h
    fx, fy = field[..., 0, :, :], field[..., 1, :, :]  # (..., class, n, n)
    # a horizontal edge is the bottom of a lower triangle and the top of the
    # upper one below it, a vertical edge the right side of a lower and the
    # left of an upper triangle
    horiz = np.concatenate([2 * fy[..., 0, :1, :], fy[..., 0, 1:, :] + fy[..., 1, :-1, :],
                            2 * fy[..., 1, -1:, :]], axis=-2)
    vert = np.concatenate([2 * fx[..., 1, :, :1], fx[..., 0, :, :-1] + fx[..., 1, :, 1:],
                           2 * fx[..., 0, :, -1:]], axis=-1)
    diag = fx[..., 0, :, :] - fy[..., 0, :, :] + fx[..., 1, :, :] - fy[..., 1, :, :]
    return GridFlux(-half * horiz, half * vert, half * diag)


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


def grid_jumps(grid: np.ndarray, rows: slice, out: GridFlux, work: tuple) -> GridFlux:
    """Jumps of the normal gradient of stacked P1 fields across the edges of
    the cell rows `rows`, times the edge length, on GridFlux planes written
    to `out`: (grad u' - grad u) . n |e| with n pointing out of u, for the
    triangles u and u' on the two sides of an interior edge, and 0 on a
    boundary edge.

    `grid` (..., H+1, n+1) holds the node rows of the block and of one cell
    row on each side where the mesh has one; `work` = (dx, dy) takes the
    node differences along the block's node rows (..., R+1, n) and along the
    columns of all of them (..., H, n+1).  With them the jumps are second
    differences of four nodes: u[r+1,c+1] - u[r,c+1] - u[r,c] + u[r-1,c]
    across horizontal edge (r, c), u[r+1,c+1] - u[r+1,c] - u[r,c] + u[r,c-1]
    across vertical edge (r, c), and 2 (u[r+1,c] + u[r,c+1] - u[r+1,c+1] -
    u[r,c]) across diagonal edge (r, c).  The planes are outward fluxes on
    both sides (`JUMP_SIGN`).
    """
    n = grid.shape[-1] - 1
    r0, r1, _ = rows.indices(n)
    first = max(r0 - 1, 0)  # the node row grid[..., 0, :] holds
    dx, dy = work
    block = grid[..., r0 - first : r1 - first + 1, :]
    np.subtract(block[..., 1:], block[..., :-1], out=dx)
    np.subtract(grid[..., 1:, :], grid[..., :-1, :], out=dy)
    horiz, vert, diag = out.horiz, out.vert, out.diag
    lo, hi = max(r0, 1), min(r1, n - 1)  # the block's interior edge rows
    horiz[..., : lo - r0, :] = 0.0
    horiz[..., hi - r0 + 1 :, :] = 0.0
    np.subtract(dy[..., lo - first : hi - first + 1, 1:], dy[..., lo - first - 1 : hi - first, :-1],
                out=horiz[..., lo - r0 : hi - r0 + 1, :])
    vert[..., [0, -1]] = 0.0
    np.subtract(dx[..., 1:, 1:], dx[..., :-1, :-1], out=vert[..., 1:-1])
    np.subtract(dx[..., :-1, :], dx[..., 1:, :], out=diag)
    diag *= 2.0
    return out


def grid_affine_form(mesh, flux: GridFlux, out: tuple, signs: np.ndarray = CLASS_EDGE_SIGN,
                     scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Centroid values (..., 2, 2, R, n) and divergences (..., 2, R, n) of RT0
    fields on R cell rows, as class planes, written to `out` = (centre, div).

    The outward flux phi_i of a field through the edge opposite local vertex
    i is `scale` times the sign signs[class, i] (+-1) times its plane in
    `flux.outward()`: the global edge signs for degrees of freedom, the
    `JUMP_SIGN` for jumps.  With S the sum of the phi_i, div = S / A, and
    the centroid value sum_i phi_i (c - P_i) / (2 A) has the components
    +-(3 phi_i - S) / (3 h) (see `_CENTRE_EDGES`).  Inside each triangle an
    RT0 field is tau(x) = tau(c) + div/2 (x - c), so the pair determines it
    exactly.
    """
    centre, div = out
    for cls, (planes, sign) in enumerate(zip(flux.outward(), signs)):
        total = div[..., cls, :, :]
        np.multiply(planes[0], sign[0], out=total)
        for plane, s in zip(planes[1:], sign[1:]):
            (np.add if s > 0 else np.subtract)(total, plane, out=total)
        for axis, (i, s) in enumerate(_CENTRE_EDGES[cls]):
            value = centre[..., cls, axis, :, :]
            np.multiply(planes[i], 3 * s * sign[i], out=value)
            (np.subtract if s > 0 else np.add)(value, total, out=value)
    centre *= scale / (3 * mesh.h)
    div *= scale / mesh.tri_area
    return centre, div


def grid_match_boundary(mesh, form: tuple, source: np.ndarray, rows: slice) -> None:
    """Add outward fluxes through the boundary edges to RT0 fields on the
    cell rows `rows`, given by their per-triangle form `form` = (centre,
    div) (see `grid_affine_form`), in place, so that the divergence of every
    boundary triangle becomes its target: minus the centroid value there of
    the P1 fields `source` on the block's node rows (..., R+1, n+1).

    One-sided edge averaging leaves an O(1) divergence defect on the
    boundary strip; since boundary edges carry no continuity constraint,
    their fluxes are free to absorb it, and as each has one triangle,
    nothing else moves.  The defect A (target - div) of each boundary
    triangle, all taken before any edge moves, is split equally among its
    boundary edges: two for the corner triangles, lower of cell (0, n-1) and
    upper of cell (n-1, 0).  A share s through the edge opposite local
    vertex i moves the divergence by s / A and the centroid value by
    s (3 [i = j] - 1) / (3 h) along each component of `_CENTRE_EDGES`: by
    s / (3 h) times (2, 1) on a right, (-1, -2) on a bottom, (-2, -1) on a
    left and (1, 2) on a top edge.  The bottom strip is matched in the block
    that holds cell row 0, the top strip in the one that holds row n-1, and
    the left and right columns in every block.
    """
    centre, div = form
    n, area = mesh.n, mesh.tri_area
    r0, r1, _ = rows.indices(n)
    # (class, first cell row and column, rows and columns, local vertex
    # opposite the boundary edge) of the right and left columns, and of the
    # bottom and top rows where the block holds them
    strips = [(0, 0, n - 1, r1 - r0, 1, 0), (1, 0, 0, r1 - r0, 1, 1)]
    if r0 == 0:
        strips.append((0, 0, 0, 1, n, 2))
    if r1 == n:
        strips.append((1, r1 - r0 - 1, 0, 1, n, 0))
    moves = []
    for cls, r, c, height, width, i in strips:
        cells = (slice(r, r + height), slice(c, c + width))
        centroid = sum(source[..., r + dr : r + dr + height, c + dc : c + dc + width]
                       for dr, dc in CLASS_CORNERS[cls]) / 3
        share = area * (-centroid - div[(..., cls) + cells])
        row, col = ((0, n - 1), (n - 1, 0))[cls]  # the class's corner cell
        if r <= row - r0 < r + height and c <= col < c + width:
            share[..., row - r0 - r, col - c] /= 2
        moves.append((cls, cells, i, share))
    for cls, cells, i, share in moves:
        div[(..., cls) + cells] += share / area
        for axis, (j, s) in enumerate(_CENTRE_EDGES[cls]):
            centre[(..., cls, axis) + cells] += s * (3 * (i == j) - 1) / (3 * mesh.h) * share
