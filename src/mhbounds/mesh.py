"""Uniform right-triangle mesh of the unit square.

Every square cell of an n x n grid is split along the bottom-left ->
top-right diagonal, so all triangles fall into two congruent orientation
classes and every element matrix is one of two constants.  Nodes sit on
the (n+1) x (n+1) node grid, indexed by (row, column), and cell (r, c)
holds a lower and an upper triangle.  Nothing is stored per node, edge or
triangle: every per-triangle quantity is laid out by cell and class and
read by slicing the node grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# (row, column) offsets of the local vertices within their cell: the lower
# triangle (v00, v10, v11), then the upper one (v00, v11, v01)
CLASS_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))

# +1 where the global normal of the edge opposite local vertex i points out
# of the triangle: global normals are (0, -1) on horizontal, (1, 0) on
# vertical and (1, -1)/sqrt(2) on diagonal edges
CLASS_EDGE_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])


@dataclass(frozen=True)
class UniformMesh:
    """Triangulation of (0,1)^2 into 2 n^2 right triangles.

    Attributes:
        n: number of cells per side.
        h: mesh size, 1/n.
    """

    n: int
    h: float

    @property
    def tri_area(self) -> float:
        return 0.5 * self.h * self.h


def add_cell_corners(values: np.ndarray, n: int) -> np.ndarray:
    """Sum per-vertex triangle values onto the node grid,
    (..., n, n, 2, 3) -> (..., n+1, n+1).

    Axes -4 and -3 of `values` are the cell row and column, axis -2 the
    class and axis -1 the local vertex of `CLASS_CORNERS`.
    """
    out = np.zeros(values.shape[:-4] + (n + 1, n + 1))
    for cls, corners in enumerate(CLASS_CORNERS):
        for local, (r, c) in enumerate(corners):
            out[..., r : r + n, c : c + n] += values[..., cls, local]
    return out


def build(n: int) -> UniformMesh:
    """The uniform mesh with n cells per side.

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"grid parameter must be a positive integer, got {n}")
    return UniformMesh(n=n, h=1.0 / n)
