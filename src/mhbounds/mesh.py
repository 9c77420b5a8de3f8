"""Uniform right-triangle mesh of the unit square.

Every square cell of an n x n grid is split along the bottom-left ->
top-right diagonal, so all triangles fall into two congruent orientation
classes and every element matrix is one of two constants.  Nodes are
numbered lexicographically by (row, column), cell (r, c) holds triangles
2 (r n + c) (lower) and 2 (r n + c) + 1 (upper), and edges are numbered by
(low node, high node).  Every index array is built in closed form from
this numbering, by slicing the (n+1) x (n+1) node grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


# (row, column) offsets of the local vertices within their cell: the lower
# triangle (v00, v10, v11), then the upper one (v00, v11, v01)
CLASS_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))

# +1 where the global normal of the edge opposite local vertex i points out
# of the triangle: global normals are (0, -1) on horizontal, (1, 0) on
# vertical and (1, -1)/sqrt(2) on diagonal edges
CLASS_EDGE_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])


class _IndexArray:
    """A `UniformMesh` index array, read from the arrays `index_arrays`
    builds on first use and the mesh then keeps."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, mesh, owner=None):
        return self if mesh is None else mesh._index[self.name]


@dataclass(frozen=True)
class UniformMesh:
    """Triangulation of (0,1)^2 into 2 n^2 right triangles.

    Only n and h are stored.  The index arrays below are built together, by
    `index_arrays`, the first time one of them is read; the solves and the
    bound evaluation work on the node grid and never read them.

    Attributes:
        n: number of cells per side.
        h: mesh size, 1/n.
        nodes: node coordinates, shape (num_nodes, 2).
        triangles: node indices per triangle, counterclockwise, shape (T, 3).
        edges: node index pairs (low index first), shape (E, 2).
        edge_tris: triangles adjacent to each edge, shape (E, 2); the second
            entry is -1 for boundary edges.
        edge_length: edge lengths, shape (E,).
        edge_normal: global unit normal per edge (edge direction rotated
            clockwise by 90 degrees), shape (E, 2).
        tri_edges: global edge index opposite each local vertex, shape (T, 3).
        tri_edge_sign: +1 where the global edge normal points out of the
            triangle, -1 otherwise, shape (T, 3).
        boundary_node: True for nodes on the boundary, shape (num_nodes,).
        interior_nodes: indices of interior nodes in lexicographic order.
    """

    n: int
    h: float

    @cached_property
    def _index(self) -> dict:
        return index_arrays(self.n)

    nodes = _IndexArray()
    triangles = _IndexArray()
    edges = _IndexArray()
    edge_tris = _IndexArray()
    edge_length = _IndexArray()
    edge_normal = _IndexArray()
    tri_edges = _IndexArray()
    tri_edge_sign = _IndexArray()
    boundary_node = _IndexArray()
    interior_nodes = _IndexArray()

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def num_triangles(self) -> int:
        return 2 * self.n * self.n

    @property
    def num_edges(self) -> int:
        return self.n * (3 * self.n + 2)

    @property
    def num_interior(self) -> int:
        return (self.n - 1) ** 2

    @property
    def tri_area(self) -> float:
        return 0.5 * self.h * self.h


def cell_corners(grid: np.ndarray, n: int) -> np.ndarray:
    """Node-grid values at the triangle vertices, (..., n+1, n+1) -> (..., n, n, 2, 3).

    Axes -4 and -3 are the cell row and column, axis -2 the class; reshaped
    to (..., 2 n^2, 3) this is the `triangles` numbering.
    """
    out = np.empty(grid.shape[:-2] + (n, n, 2, 3), dtype=grid.dtype)
    for cls, corners in enumerate(CLASS_CORNERS):
        for local, (r, c) in enumerate(corners):
            out[..., cls, local] = grid[..., r : r + n, c : c + n]
    return out


def add_cell_corners(values: np.ndarray, n: int) -> np.ndarray:
    """Sum per-vertex triangle values onto the node grid, the transpose of
    `cell_corners`: (..., n, n, 2, 3) -> (..., n+1, n+1)."""
    out = np.zeros(values.shape[:-4] + (n + 1, n + 1))
    for cls, corners in enumerate(CLASS_CORNERS):
        for local, (r, c) in enumerate(corners):
            out[..., r : r + n, c : c + n] += values[..., cls, local]
    return out


def build(n: int) -> UniformMesh:
    """The uniform mesh with n cells per side; its index arrays are built on first read.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"grid parameter must be a positive integer, got {n}")
    return UniformMesh(n=n, h=1.0 / n)


def index_arrays(n: int) -> dict:
    """The index arrays of the mesh with n cells per side, by name (see `UniformMesh`)."""
    h = 1.0 / n
    side = n + 1
    ix, iy = np.meshgrid(np.arange(side), np.arange(side))
    nodes = np.column_stack([ix.ravel() * h, iy.ravel() * h])
    node_grid = np.arange(side * side).reshape(side, side)
    triangles = cell_corners(node_grid, n).reshape(-1, 3)

    # Edges sorted by (low node, high node): node (r, c) owns its
    # horizontal, vertical and diagonal edge, in that order, where each
    # exists.  ids[r, c, kind] is the global index of that edge.
    row, col = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    has = np.stack([col < n, row < n, (row < n) & (col < n)], axis=-1)
    ids = np.cumsum(has.ravel()).reshape(side, side, 3) - 1
    owner, kind = np.divmod(np.flatnonzero(has), 3)
    edges = np.column_stack([owner, owner + np.array([1, side, side + 1])[kind]])

    # edge i is opposite local vertex i: the lower triangle of cell (r, c)
    # has (vertical at c+1, diagonal, horizontal), the upper one
    # (horizontal at r+1, vertical, diagonal)
    horiz, vert, diag = ids[..., 0], ids[..., 1], ids[..., 2]
    cells = (slice(0, n), slice(0, n))
    tri_edges = np.stack(
        [
            np.stack([vert[:n, 1:], diag[cells], horiz[cells]], axis=-1),
            np.stack([horiz[1:, :n], vert[cells], diag[cells]], axis=-1),
        ],
        axis=2,
    ).reshape(-1, 3)

    # the two triangles of an edge see it at different local indices, so
    # each pass over one local index writes every edge at most once, and
    # the triangle with the lower local index comes first
    num_tris = triangles.shape[0]
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    tri_ids = np.arange(num_tris)
    for local in range(3):
        e = tri_edges[:, local]
        second = edge_tris[e, 0] >= 0
        edge_tris[e[~second], 0] = tri_ids[~second]
        edge_tris[e[second], 1] = tri_ids[second]

    # edge vectors (high node minus low node) from the node spacing, which
    # is h only up to rounding; step[n] pads the edges that do not exist
    row_of, col_of = np.divmod(owner, side)
    step = np.append(np.diff(np.arange(side) * h), 0.0)
    vec = np.column_stack([step[col_of] * (kind != 1), step[row_of] * (kind != 0)])
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    edge_normal = np.column_stack([vec[:, 1], -vec[:, 0]]) / edge_length[:, None]

    on_boundary = ((row == 0) | (row == n) | (col == 0) | (col == n)).ravel()
    interior_nodes = np.flatnonzero(~on_boundary)

    return dict(
        nodes=nodes,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        edge_length=edge_length,
        edge_normal=edge_normal,
        tri_edges=tri_edges,
        tri_edge_sign=np.tile(CLASS_EDGE_SIGN, (n * n, 1)),
        boundary_node=on_boundary,
        interior_nodes=interior_nodes,
    )
