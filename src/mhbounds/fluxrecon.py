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

The per-triangle form of an RT0 field is the signed sum of its outward edge
fluxes (`grid_affine_form`).  The edge average tau of nu grad(u), u P1,
needs no edge degrees of freedom of its own: on each triangle T, tau minus
the constant nu grad(u_T) is the RT0 field whose outward flux through an
interior edge is nu/2 times the jump of the normal gradient across it,
(grad u' - grad u_T) . n |e| with u' the other side's, and 0 through a
boundary edge.  Each jump is a second difference of four nodes
(`grid_jumps`), the same seen from either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CLASS_EDGE_SIGN

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
