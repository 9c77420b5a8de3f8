"""P1 finite element assembly and spatial quadrature on the uniform mesh.

The stiffness and mass matrices are the 5-point and 7-point stencils of
the two constant element matrices, built directly in CSR and applied to
interior fields by slicing the node grid; load vectors are summed onto the
node grid by slicing.  Loads and data-bearing norms use a 7-point rule
that is exact for polynomials of total degree 5 (so squares of the
piecewise-quadratic integrands appearing in the bound evaluation are
integrated exactly).

Homogeneous Dirichlet conditions are imposed by restriction to interior
nodes; `full=True` variants keep all nodes for pre-elimination checks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import CLASS_CORNERS, add_cell_corners, cell_corners

# 7-point degree-5 rule on the reference triangle, barycentric coordinates
# and weights normalized to sum to 1.
_S15 = np.sqrt(15.0)
_A1 = (6.0 + _S15) / 21.0
_A2 = (6.0 - _S15) / 21.0
_W1 = (155.0 + _S15) / 1200.0
_W2 = (155.0 - _S15) / 1200.0
QUAD_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _A1, 1 - 2 * _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [1 - 2 * _A1, _A1, _A1],
        [_A2, _A2, 1 - 2 * _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [1 - 2 * _A2, _A2, _A2],
    ]
)
QUAD_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def _class_geometry(corners: np.ndarray):
    """P1 basis gradients (2, 3, 2) and areas (2,) of the two class triangles."""
    edge = np.roll(corners, -1, axis=1) - np.roll(corners, -2, axis=1)
    side1, side2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    area2 = side1[:, 0] * side2[:, 1] - side2[:, 0] * side1[:, 1]
    grads = np.stack([edge[..., 1], -edge[..., 0]], axis=-1) / area2[:, None, None]
    return grads, 0.5 * area2


def _stencil_bands(local: np.ndarray, n: int) -> dict:
    """Per-class element matrices (2, 3, 3) summed over all cells.

    Returns {(dr, dc): (n+1, n+1) grid}: entry [r, c] couples node (r, c)
    with node (r + dr, c + dc).  Zero element entries make no band, so the
    stiffness gets the 5-point and the mass the 7-point stencil.
    """
    bands = {}
    for cls, corners in enumerate(CLASS_CORNERS):
        for i, (ri, ci) in enumerate(corners):
            for j, (rj, cj) in enumerate(corners):
                if local[cls, i, j] != 0:
                    band = bands.setdefault((rj - ri, cj - ci), np.zeros((n + 1, n + 1)))
                    band[ri : ri + n, ci : ci + n] += local[cls, i, j]
    return bands


def _stencil_csr(bands: dict, lo: int, hi: int) -> sp.csr_matrix:
    """CSR matrix of the stencil on the nodes with row and column in [lo, hi).

    Couplings to nodes outside the block are dropped, which restricts to the
    interior nodes for (lo, hi) = (1, n).  Rows are lexicographic, and the
    bands in (dr, dc) order give sorted column indices.
    """
    m = hi - lo
    row, col = np.ogrid[:m, :m]
    node = np.arange(m * m, dtype=np.int32).reshape(m, m)
    offsets = sorted(bands)
    keep = np.stack(
        [(0 <= row + dr) & (row + dr < m) & (0 <= col + dc) & (col + dc < m) for dr, dc in offsets],
        axis=-1,
    )
    values = np.stack([bands[o][lo:hi, lo:hi] for o in offsets], axis=-1)
    columns = np.stack([node + (dr * m + dc) for dr, dc in offsets], axis=-1)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=-1).ravel(), out=indptr[1:])
    return sp.csr_matrix((values[keep], columns[keep], indptr), shape=(m * m, m * m))


# interior rows per band of a stencil product: the stacked shifted slices
# of one band stay in cache, and the temporaries stay small on large grids
STENCIL_ROWS = 16


class Stencil:
    """An operator on the m x m interior nodes given by a constant stencil.

    `weights` maps an offset (dr, dc) to the weight that couples node (r, c)
    with node (r + dr, c + dc): a scalar, applied to each part of a stacked
    field alike, or a (Q, Q) block coupling the Q parts.  The boundary nodes
    are the zero padding of the node grid, so a product is the sum of the
    shifted slices of one padded grid times their weights, taken as one
    matrix product per band of rows.  `nnz` counts the entries the
    assembled matrix would store.
    """

    def __init__(self, weights: dict, m: int):
        self.m = m
        self.weights = weights
        self._offsets = sorted(weights)
        self._blocks = np.array([weights[o] for o in self._offsets])
        self.nnz = sum(
            np.count_nonzero(w) * max(m - abs(dr), 0) * max(m - abs(dc), 0)
            for (dr, dc), w in zip(self._offsets, self._blocks)
        )

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Product with stacked interior fields, (Q, m * m) -> (Q, m * m)."""
        m, parts = self.m, len(v)
        blocks = self._blocks
        if blocks.ndim == 1:
            blocks = blocks[:, None, None] * np.eye(parts)
        coef = blocks.transpose(1, 0, 2).reshape(parts, -1)
        grid = np.zeros((parts, m + 2, m + 2))
        grid[:, 1:-1, 1:-1] = v.reshape(parts, m, m)
        out = np.empty((parts, m, m))
        for r0 in range(0, m, STENCIL_ROWS):
            r1 = min(r0 + STENCIL_ROWS, m)
            shifted = np.stack(
                [grid[:, 1 + r0 + dr : 1 + r1 + dr, 1 + dc : 1 + dc + m] for dr, dc in self._offsets]
            )
            out[:, r0:r1] = (coef @ shifted.reshape(coef.shape[1], -1)).reshape(parts, r1 - r0, m)
        return out.reshape(v.shape)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product of a block stencil with the flat vector of its stacked parts."""
        return self(x.reshape(self._blocks.shape[1], -1)).ravel()


class FemContext:
    """Cached mesh-dependent arrays shared by assembly and bound evaluation.

    Triangle t of the uniform mesh belongs to orientation class t % 2, and
    every per-triangle geometric map is one of two constants; the `class_*`
    arrays hold them with the class on the leading axis.

    Attributes:
        mesh: the underlying UniformMesh.
        K, M: unit-coefficient stiffness/mass on interior nodes.
        K_stencil, M_stencil: the same two matrices applied by grid slicing.
        K_full, M_full: pre-elimination variants on all nodes.
        qp: quadrature point coordinates, (T, Q, 2).
        qw: per-point weights scaled by area, (T, Q) (a read-only view).
        class_grads: P1 basis gradients per class, (2, 3, 2).
        class_rt0_form: centroid value (c - P_i) / (2 A) and divergence
            1 / A of the RT0 basis function with unit outward flux through
            the edge opposite local vertex i, per class, (2, 3, 3).
        class_qp_offsets: quadrature points minus the centroid, (2, Q, 2).
        offset_moment: mean of |x - c|^2 over a triangle.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        n, h = mesh.n, mesh.h
        # class triangles of cell (0, 0), as (x, y) = h (column, row)
        unit = np.array(CLASS_CORNERS, dtype=float)[..., ::-1]
        corners = h * unit
        self.class_grads, area = _class_geometry(corners)
        centroid = corners.mean(axis=1, keepdims=True)
        area = area[:, None, None]
        self.class_rt0_form = np.concatenate(
            [(centroid - corners) / (2 * area), np.broadcast_to(1 / area, (2, 3, 1))], axis=-1
        )
        self.class_qp_offsets = QUAD_BARY @ corners - centroid
        self.offset_moment = float(QUAD_W @ np.sum(self.class_qp_offsets[0] ** 2, axis=1))

        # quadrature points: cell origin (c h, r h) plus the class points
        origin = np.arange(n) * h
        class_qp = QUAD_BARY @ corners  # (2, Q, 2)
        qp = np.empty((n, n) + class_qp.shape)
        qp[..., 0] = origin[None, :, None, None] + class_qp[..., 0]
        qp[..., 1] = origin[:, None, None, None] + class_qp[..., 1]
        self.qp = qp.reshape(mesh.num_triangles, len(QUAD_W), 2)
        self.qw = np.broadcast_to(mesh.tri_area * QUAD_W, self.qp.shape[:2])

        # the unit stiffness is scale free, so take it on the unit cell,
        # where its entries 0, +-1/2 and 1 are exact
        unit_grads, unit_area = _class_geometry(unit)
        local = (
            np.einsum("cid,cjd,c->cij", unit_grads, unit_grads, unit_area),
            np.broadcast_to(mesh.tri_area / 12 * (1 + np.eye(3)), (2, 3, 3)),
        )
        stiffness, mass = (_stencil_bands(a, n) for a in local)
        self.K_full, self.M_full = (_stencil_csr(b, 0, n + 1) for b in (stiffness, mass))
        self.K, self.M = (_stencil_csr(b, 1, n) for b in (stiffness, mass))
        # the centre node of a 2 x 2 cell grid touches all six triangles
        # around it, as every interior node does
        self.K_stencil, self.M_stencil = (
            Stencil({o: band[1, 1] for o, band in _stencil_bands(a, 2).items()}, n - 1) for a in local
        )

    # -- nodal field helpers -------------------------------------------------

    def to_full(self, v_int: np.ndarray) -> np.ndarray:
        """Zero-extend an interior coefficient vector to all nodes."""
        out = np.zeros(self.mesh.num_nodes)
        out[self.mesh.interior_nodes] = v_int
        return out

    def interpolate(self, f: Callable) -> np.ndarray:
        """Nodal interpolant of f(x, y), full vector."""
        return f(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1])

    def vertex_values(self, v_int: np.ndarray) -> np.ndarray:
        """Vertex values of stacked interior-node P1 fields, (P, m) -> (P, T, 3).

        Slices the (n+1) x (n+1) node grid, without an index gather.
        """
        n = self.mesh.n
        parts = v_int.shape[0]
        grid = np.zeros((parts, n + 1, n + 1))
        grid[:, 1:-1, 1:-1] = v_int.reshape(parts, n - 1, n - 1)
        return cell_corners(grid, n).reshape(parts, 2 * n * n, 3)

    def _node_sums(self, contrib: np.ndarray, full: bool) -> np.ndarray:
        """Sum per-triangle vertex contributions (T, 3) onto the nodes."""
        n = self.mesh.n
        grid = add_cell_corners(contrib.reshape(n, n, 2, 3), n)
        return grid.ravel() if full else grid[1:-1, 1:-1].ravel()

    def p1_at_qp(self, v_full: np.ndarray) -> np.ndarray:
        """P1 field values at the quadrature points, (T, Q)."""
        vert = v_full[self.mesh.triangles]  # (T, 3)
        return np.einsum("tk,qk->tq", vert, QUAD_BARY)

    def p1_grad(self, v_full: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient of a P1 field, (T, 2)."""
        return per_class(v_full[self.mesh.triangles], self.class_grads)

    def data_at_qp(self, f: Callable) -> np.ndarray:
        """Scalar data values at the quadrature points, (T, Q)."""
        return f(self.qp[:, :, 0], self.qp[:, :, 1])

    def vector_data_at_qp(self, g: Callable) -> np.ndarray:
        """Vector data values at the quadrature points, (T, Q, 2)."""
        gx, gy = g(self.qp[:, :, 0], self.qp[:, :, 1])
        out = np.empty(self.qp.shape)
        out[:, :, 0] = gx
        out[:, :, 1] = gy
        return out

    # -- integration ---------------------------------------------------------

    def integrate(self, values_qp: np.ndarray) -> float:
        """Integral over the domain of per-quadrature-point values (T, Q)."""
        return float(np.sum(self.qw * values_qp))

    def norm2(self, values_qp: np.ndarray) -> float:
        return self.integrate(values_qp**2)

    def vec_norm2(self, values_qp: np.ndarray) -> float:
        """Squared L2 norm of a vector field given at quadrature points."""
        return self.integrate(np.sum(values_qp**2, axis=2))

    # -- load vectors ----------------------------------------------------------

    def load(self, f: Callable, full: bool = False) -> np.ndarray:
        """Load vector (f, phi_i) by quadrature."""
        return self.load_from_qp(self.data_at_qp(f), full)

    def load_from_qp(self, values_qp: np.ndarray, full: bool = False) -> np.ndarray:
        """Load vector from data already sampled at quadrature points."""
        return self._node_sums((values_qp * self.qw) @ QUAD_BARY, full)

    def gradient_load(self, g: Callable, full: bool = False) -> np.ndarray:
        """Load vector (g, grad phi_i) for vector-valued data g."""
        vals = self.vector_data_at_qp(g)
        return self.gradient_load_from_qp(vals, full)

    def gradient_load_from_qp(self, values_qp: np.ndarray, full: bool = False) -> np.ndarray:
        weighted = self.mesh.tri_area * np.einsum("tqd,q->td", values_qp, QUAD_W)
        return self._node_sums(per_class(weighted, self.class_grads.transpose(0, 2, 1)), full)


def per_class(values: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Contract per-triangle rows with their class map, (..., T, K) -> (..., T, D).

    `maps` is (2, K, D): row t of the result is values[t] @ maps[t % 2].
    Consecutive triangles pair up, so this is one matrix product of the
    (..., T/2, 2K) rows with the block-diagonal (2K, 2D) class matrix.
    """
    *lead, tris, width = values.shape
    depth = maps.shape[-1]
    block = np.zeros((2 * width, 2 * depth))
    block[:width, :depth] = maps[0]
    block[width:, depth:] = maps[1]
    return (values.reshape(-1, 2 * width) @ block).reshape(*lead, tris, depth)


def p1_eval_at(mesh, v_full: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate a nodal P1 field at arbitrary points of the unit square.

    Exact on mesh lines, so prolongation onto a nested refinement is exact.
    """
    n = mesh.n
    side = n + 1
    x = np.clip(pts[:, 0], 0.0, 1.0) * n
    y = np.clip(pts[:, 1], 0.0, 1.0) * n
    cx = np.minimum(x.astype(np.int64), n - 1)
    cy = np.minimum(y.astype(np.int64), n - 1)
    xi = x - cx
    eta = y - cy
    v00 = v_full[cy * side + cx]
    v10 = v_full[cy * side + cx + 1]
    v01 = v_full[(cy + 1) * side + cx]
    v11 = v_full[(cy + 1) * side + cx + 1]
    lower = v00 * (1 - xi) + v10 * (xi - eta) + v11 * eta
    upper = v00 * (1 - eta) + v11 * xi + v01 * (eta - xi)
    return np.where(xi >= eta, lower, upper)


def prolong(coarse_mesh, v_full_coarse: np.ndarray, fine_mesh) -> np.ndarray:
    """Nodal values of a coarse P1 field on a finer mesh (exact when nested)."""
    return p1_eval_at(coarse_mesh, v_full_coarse, fine_mesh.nodes)


def l2_norm_squared(ctx: FemContext, field) -> float:
    """Exact squared L2 norm of a piecewise polynomial field.

    `field` is a descriptor tuple:
        ("const", value)        constant scalar field,
        ("p1", full_coeffs)     nodal P1 field,
        ("p0", tri_values)      per-triangle constants,
        ("qp", values, degree)  values at quadrature points with a declared
                                per-triangle polynomial degree.

    Raises:
        ValueError: when the declared degree exceeds what the quadrature
            integrates exactly after squaring (degree > 2).
    """
    kind = field[0]
    if kind == "const":
        return float(field[1]) ** 2
    if kind == "p1":
        return ctx.norm2(ctx.p1_at_qp(field[1]))
    if kind == "p0":
        vals = np.broadcast_to(field[1][:, None], ctx.qw.shape)
        return ctx.norm2(vals)
    if kind == "qp":
        _, values, degree = field
        if degree > 2:
            raise ValueError(f"piecewise degree {degree} not integrated exactly")
        return ctx.norm2(values)
    raise ValueError(f"unknown field descriptor {kind!r}")
