"""P1 finite element assembly and spatial quadrature on the uniform mesh.

Element stiffness and mass matrices are exact closed forms; load vectors
and data-bearing norms use a 7-point rule that is exact for polynomials of
total degree 5 (so squares of the piecewise-quadratic integrands appearing
in the bound evaluation are integrated exactly).

Homogeneous Dirichlet conditions are imposed by restriction to interior
nodes; `full=True` variants keep all nodes for pre-elimination checks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

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


def _tri_geometry(mesh):
    """Per-triangle P1 gradients (T, 3, 2) and signed areas (T,)."""
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    b = np.stack(
        [
            p[:, 1, 1] - p[:, 2, 1],
            p[:, 2, 1] - p[:, 0, 1],
            p[:, 0, 1] - p[:, 1, 1],
        ],
        axis=1,
    )
    c = np.stack(
        [
            p[:, 2, 0] - p[:, 1, 0],
            p[:, 0, 0] - p[:, 2, 0],
            p[:, 1, 0] - p[:, 0, 0],
        ],
        axis=1,
    )
    area2 = (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    grads = np.stack([b, c], axis=2) / area2[:, None, None]
    return grads, 0.5 * area2


def _scatter_symmetric(mesh, local, full):
    """Assemble (T, 3, 3) local blocks into a CSR matrix."""
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.num_nodes, mesh.num_nodes)
    ).tocsr()
    if full:
        return mat
    idx = mesh.interior_nodes
    return mat[idx][:, idx].tocsr()


def assemble_stiffness(mesh, nu: float = 1.0, full: bool = False) -> sp.csr_matrix:
    """Stiffness matrix with entries nu * (grad phi_i, grad phi_j)."""
    grads, area = _tri_geometry(mesh)
    local = nu * np.einsum("tid,tjd,t->tij", grads, grads, area)
    return _scatter_symmetric(mesh, local, full)


def assemble_mass(mesh, sigma: float = 1.0, full: bool = False) -> sp.csr_matrix:
    """Mass matrix with entries sigma * (phi_i, phi_j)."""
    _, area = _tri_geometry(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = sigma * area[:, None, None] * base[None, :, :]
    return _scatter_symmetric(mesh, local, full)


class FemContext:
    """Cached mesh-dependent arrays shared by assembly and bound evaluation.

    Triangle t of the uniform mesh belongs to orientation class t % 2, and
    every per-triangle geometric map is one of two constants; the `class_*`
    arrays hold them with the class on the leading axis.

    Attributes:
        mesh: the underlying UniformMesh.
        K, M: unit-coefficient stiffness/mass on interior nodes.
        K_full, M_full: pre-elimination variants on all nodes.
        grads: per-triangle P1 basis gradients, (T, 3, 2).
        area: per-triangle areas, (T,).
        qp: quadrature point coordinates, (T, Q, 2).
        qw: per-point weights scaled by area, (T, Q).
        class_grads: P1 basis gradients per class, (2, 3, 2).
        class_rt0_form: centroid value (c - P_i) / (2 A) and divergence
            1 / A of the RT0 basis function with unit outward flux through
            the edge opposite local vertex i, per class, (2, 3, 3).
        class_qp_offsets: quadrature points minus the centroid, (2, Q, 2).
        offset_moment: mean of |x - c|^2 over a triangle.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.grads, self.area = _tri_geometry(mesh)
        p = mesh.nodes[mesh.triangles]
        self.qp = np.einsum("qk,tkd->tqd", QUAD_BARY, p)
        self.qw = self.area[:, None] * QUAD_W[None, :]
        corners = p[:2]
        centroid = corners.mean(axis=1, keepdims=True)
        self.class_grads = self.grads[:2]
        area = self.area[:2, None, None]
        self.class_rt0_form = np.concatenate(
            [(centroid - corners) / (2 * area), np.broadcast_to(1 / area, (2, 3, 1))], axis=-1
        )
        self.class_qp_offsets = QUAD_BARY @ corners - centroid
        self.offset_moment = float(QUAD_W @ np.sum(self.class_qp_offsets[0] ** 2, axis=1))
        self.K_full = assemble_stiffness(mesh, 1.0, full=True)
        self.M_full = assemble_mass(mesh, 1.0, full=True)
        idx = mesh.interior_nodes
        self.K = self.K_full[idx][:, idx].tocsr()
        self.M = self.M_full[idx][:, idx].tocsr()

    # -- nodal field helpers -------------------------------------------------

    def to_full(self, v_int: np.ndarray) -> np.ndarray:
        """Zero-extend an interior coefficient vector to all nodes."""
        out = np.zeros(self.mesh.num_nodes)
        out[self.mesh.interior_nodes] = v_int
        return out

    def to_interior(self, v_full: np.ndarray) -> np.ndarray:
        return v_full[self.mesh.interior_nodes]

    def interpolate(self, f: Callable) -> np.ndarray:
        """Nodal interpolant of f(x, y), full vector."""
        return f(self.mesh.nodes[:, 0], self.mesh.nodes[:, 1])

    def vertex_values(self, v_int: np.ndarray) -> np.ndarray:
        """Vertex values of stacked interior-node P1 fields, (P, m) -> (P, T, 3).

        Slices the (n+1) x (n+1) node grid, without an index gather: cell
        (cx, cy) holds the lower triangle (v00, v10, v11) and then the upper
        one (v00, v11, v01), as `mesh.triangles` numbers them.
        """
        n = self.mesh.n
        parts = v_int.shape[0]
        grid = np.zeros((parts, n + 1, n + 1))
        grid[:, 1:-1, 1:-1] = v_int.reshape(parts, n - 1, n - 1)
        v00, v10 = grid[:, :-1, :-1], grid[:, :-1, 1:]
        v01, v11 = grid[:, 1:, :-1], grid[:, 1:, 1:]
        out = np.empty((parts, n, n, 2, 3))
        for cls, corners in enumerate(((v00, v10, v11), (v00, v11, v01))):
            for local, v in enumerate(corners):
                out[:, :, :, cls, local] = v
        return out.reshape(parts, 2 * n * n, 3)

    def p1_at_qp(self, v_full: np.ndarray) -> np.ndarray:
        """P1 field values at the quadrature points, (T, Q)."""
        vert = v_full[self.mesh.triangles]  # (T, 3)
        return np.einsum("tk,qk->tq", vert, QUAD_BARY)

    def p1_grad(self, v_full: np.ndarray) -> np.ndarray:
        """Piecewise-constant gradient of a P1 field, (T, 2)."""
        vert = v_full[self.mesh.triangles]
        return np.einsum("tk,tkd->td", vert, self.grads)

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
        vals = self.data_at_qp(f) * self.qw  # (T, Q)
        contrib = np.einsum("tq,qk->tk", vals, QUAD_BARY)
        out = np.zeros(self.mesh.num_nodes)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out if full else out[self.mesh.interior_nodes]

    def load_from_qp(self, values_qp: np.ndarray, full: bool = False) -> np.ndarray:
        """Load vector from data already sampled at quadrature points."""
        vals = values_qp * self.qw
        contrib = np.einsum("tq,qk->tk", vals, QUAD_BARY)
        out = np.zeros(self.mesh.num_nodes)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out if full else out[self.mesh.interior_nodes]

    def gradient_load(self, g: Callable, full: bool = False) -> np.ndarray:
        """Load vector (g, grad phi_i) for vector-valued data g."""
        vals = self.vector_data_at_qp(g)
        return self.gradient_load_from_qp(vals, full)

    def gradient_load_from_qp(self, values_qp: np.ndarray, full: bool = False) -> np.ndarray:
        weighted = np.einsum("tq,tqd->td", self.qw, values_qp)  # (T, 2)
        contrib = np.einsum("td,tkd->tk", weighted, self.grads)
        out = np.zeros(self.mesh.num_nodes)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out if full else out[self.mesh.interior_nodes]


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


def assemble_load(mesh, f: Callable, full: bool = False) -> np.ndarray:
    return FemContext(mesh).load(f, full)


def assemble_gradient_load(mesh, g: Callable, full: bool = False) -> np.ndarray:
    return FemContext(mesh).gradient_load(g, full)


def export_matrix_market(matrix: sp.spmatrix, path) -> None:
    """Dump a sparse matrix in Matrix Market coordinate format (debug aid)."""
    from scipy.io import mmwrite

    mmwrite(str(path), sp.coo_matrix(matrix))


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
