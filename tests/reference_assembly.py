"""Generic unstructured set-up, the reference for the node-grid one.

`build_mesh` gives the uniform mesh the index arrays of an unstructured
one: it numbers edges by `np.unique` over the sorted vertex pairs of every
triangle and finds their triangles by a stable argsort.  The assembly
gathers `nodes[triangles]`, forms per-triangle element matrices and
scatters them as COO blocks; the loads are summed by `np.add.at`.  Nothing
here reads the structure of the grid beyond `mesh.triangles` and
`mesh.nodes`, so the tests can check `FemContext` and the sliced fluxes
against it.  A `build_mesh` mesh also carries `n`, `h` and `tri_area`, all
that `FemContext` reads, so a context can be built on it.

The nodal-field helpers below (zero extension, interpolation, values and
gradients by `triangles` gathers, the triangle-order sampler `data_at_qp`
and the 7-point quadrature norms) work on all-node vectors and
per-quadrature-point samples in the triangle numbering, the layouts the
reference evaluations use; the run path never forms either.  So do the
per-triangle load terms and P1 / RT0 projections of whole sample arrays,
each its own pass over the samples, and the sum of per-triangle vertex
values onto the node grid, against which the streaming pass of
`FemContext.project_data` is checked, and the centroid values of vector
data, whose edge average is the indicator data's flux.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from types import SimpleNamespace

from mhbounds.femcore import QUAD_BARY, QUAD_W
from mhbounds.mesh import CLASS_CORNERS


def build_mesh(n: int) -> SimpleNamespace:
    """The uniform mesh with n cells per side, with its index arrays.

    Besides n, h, tri_area and the num_* counts: node coordinates `nodes`
    numbered by (row, column); `triangles` (T, 3), counterclockwise, cell
    (r, c) holding triangles 2 (r n + c) (lower) and 2 (r n + c) + 1; sorted
    `edges` (E, 2), low node first, with lengths, global unit normals (the
    edge direction turned clockwise) and their triangles `edge_tris` (E, 2),
    -1 second on the boundary; `tri_edges` (T, 3), the edge opposite each
    local vertex, with `tri_edge_sign` +1 where its normal points out;
    `boundary_node` flags and the lexicographic `interior_nodes`.
    """
    h = 1.0 / n
    side = n + 1
    ix, iy = np.meshgrid(np.arange(side), np.arange(side))
    nodes = np.column_stack([ix.ravel() * h, iy.ravel() * h])

    # cell (cx, cy): lower triangle (v00, v10, v11), upper (v00, v11, v01)
    cx, cy = np.meshgrid(np.arange(n), np.arange(n))
    cx = cx.ravel()
    cy = cy.ravel()
    v00 = cy * side + cx
    v10 = v00 + 1
    v01 = v00 + side
    v11 = v01 + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])

    # edge i is opposite local vertex i
    pairs = np.concatenate(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]]
    )
    edges, tri_edges_flat = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    num_tris = triangles.shape[0]
    tri_edges = tri_edges_flat.reshape(3, num_tris).T.copy()

    num_edges = edges.shape[0]
    edge_tris = np.full((num_edges, 2), -1, dtype=np.int64)
    tri_ids = np.tile(np.arange(num_tris), 3)
    order = np.argsort(tri_edges_flat, kind="stable")
    sorted_tris = tri_ids[order]
    first = np.searchsorted(tri_edges_flat[order], np.arange(num_edges))
    counts = np.diff(np.append(first, 3 * num_tris))
    edge_tris[:, 0] = sorted_tris[first]
    two = counts == 2
    edge_tris[two, 1] = sorted_tris[first[two] + 1]

    vec = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    edge_normal = np.column_stack([vec[:, 1], -vec[:, 0]]) / edge_length[:, None]

    # outward test: normal against (edge midpoint - opposite vertex)
    mid = 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])
    tri_edge_sign = np.empty((num_tris, 3))
    for local in range(3):
        e = tri_edges[:, local]
        opp = nodes[triangles[:, local]]
        dot = np.einsum("ij,ij->i", edge_normal[e], mid[e] - opp)
        tri_edge_sign[:, local] = np.where(dot > 0.0, 1.0, -1.0)

    # by row and column index: a coordinate test misses the nodes whose
    # n * (1 / n) rounds below 1 (n = 49, 98, 196)
    on_boundary = ((ix == 0) | (ix == n) | (iy == 0) | (iy == n)).ravel()
    return SimpleNamespace(
        n=n,
        h=h,
        tri_area=0.5 * h * h,
        num_nodes=side * side,
        num_triangles=num_tris,
        num_edges=num_edges,
        num_interior=(n - 1) ** 2,
        nodes=nodes,
        triangles=triangles,
        edges=edges,
        edge_tris=edge_tris,
        edge_length=edge_length,
        edge_normal=edge_normal,
        tri_edges=tri_edges,
        tri_edge_sign=tri_edge_sign,
        boundary_node=on_boundary,
        interior_nodes=np.flatnonzero(~on_boundary),
    )


def tri_geometry(mesh):
    """Per-triangle P1 gradients (T, 3, 2) and signed areas (T,)."""
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]],
        axis=1,
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]],
        axis=1,
    )
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    grads = np.stack([b, c], axis=2) / area2[:, None, None]
    return grads, 0.5 * area2


def quadrature_points(mesh) -> np.ndarray:
    """Quadrature point coordinates per triangle, (T, Q, 2)."""
    return np.einsum("qk,tkd->tqd", QUAD_BARY, mesh.nodes[mesh.triangles])


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


def assemble_stiffness(mesh, full: bool = False) -> sp.csr_matrix:
    """Stiffness matrix with entries (grad phi_i, grad phi_j)."""
    grads, area = tri_geometry(mesh)
    local = np.einsum("tid,tjd,t->tij", grads, grads, area)
    return _scatter_symmetric(mesh, local, full)


def assemble_mass(mesh, full: bool = False) -> sp.csr_matrix:
    """Mass matrix with entries (phi_i, phi_j)."""
    _, area = tri_geometry(mesh)
    local = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    return _scatter_symmetric(mesh, local, full)


def _add_at(mesh, contrib):
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out[mesh.interior_nodes]


def load_from_qp(mesh, values_qp: np.ndarray) -> np.ndarray:
    """Load vector (f, phi_i) from values at the quadrature points (T, Q)."""
    _, area = tri_geometry(mesh)
    vals = values_qp * (area[:, None] * QUAD_W[None, :])
    return _add_at(mesh, np.einsum("tq,qk->tk", vals, QUAD_BARY))


def gradient_load_from_qp(mesh, values_qp: np.ndarray) -> np.ndarray:
    """Load vector (g, grad phi_i) from vector values at the quadrature points (T, Q, 2)."""
    grads, area = tri_geometry(mesh)
    weighted = np.einsum("tq,tqd->td", area[:, None] * QUAD_W[None, :], values_qp)
    return _add_at(mesh, np.einsum("td,tkd->tk", weighted, grads))


# -- nodal fields and quadrature norms ---------------------------------------


def to_full(ctx, v_int: np.ndarray) -> np.ndarray:
    """Zero-extend an interior coefficient vector to all nodes."""
    out = np.zeros(ctx.mesh.num_nodes)
    out[ctx.mesh.interior_nodes] = v_int
    return out


def interpolate(ctx, f) -> np.ndarray:
    """Nodal interpolant of f(x, y), all-node vector."""
    return f(ctx.mesh.nodes[:, 0], ctx.mesh.nodes[:, 1])


def p1_at_qp(ctx, v_full: np.ndarray) -> np.ndarray:
    """P1 field values at the quadrature points, (T, Q)."""
    return np.einsum("tk,qk->tq", v_full[ctx.mesh.triangles], QUAD_BARY)


def p1_grad(ctx, v_full: np.ndarray) -> np.ndarray:
    """Piecewise-constant gradient of a P1 field by the class maps, (T, 2)."""
    return per_class(v_full[ctx.mesh.triangles], ctx.class_grads)


def p1_eval_at(grid: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate P1 fields given on the node grid, (..., n+1, n+1), at the
    points (x, y) of the unit square; x and y broadcast against each other.

    Exact on mesh lines, so prolongation onto a nested refinement is exact.
    The corners of each point's cell are gathered by one 2-D fancy index,
    the reference for the row-then-column takes of `femcore.prolong`.
    """
    n = grid.shape[-1] - 1
    x = np.clip(x, 0.0, 1.0) * n
    y = np.clip(y, 0.0, 1.0) * n
    cx = np.minimum(x.astype(np.int64), n - 1)
    cy = np.minimum(y.astype(np.int64), n - 1)
    xi = x - cx
    eta = y - cy
    v00 = grid[..., cy, cx]
    v10 = grid[..., cy, cx + 1]
    v01 = grid[..., cy + 1, cx]
    v11 = grid[..., cy + 1, cx + 1]
    lower = v00 * (1 - xi) + v10 * (xi - eta) + v11 * eta
    upper = v00 * (1 - eta) + v11 * xi + v01 * (eta - xi)
    return np.where(xi >= eta, lower, upper)


def data_at_qp(ctx, f) -> np.ndarray:
    """Data values at the quadrature points in the triangle numbering: (T, Q),
    or (T, Q, 2) when f returns a pair.

    f is called on coordinates x (1, n, 2, Q) and y (n, 1, 2, Q): the cell
    origins (c h, r h) of one row and one column of cells plus the class
    points, broadcasting to (n, n, 2, Q).
    """
    origin = np.arange(ctx.mesh.n) * ctx.mesh.h
    x = origin[None, :, None, None] + ctx.class_qp[..., 0]
    y = origin[:, None, None, None] + ctx.class_qp[..., 1]
    shape = np.broadcast_shapes(x.shape, y.shape)
    values = f(x, y)
    if isinstance(values, tuple):
        values = np.stack([np.broadcast_to(v, shape) for v in values], axis=-1)
    else:
        values = np.broadcast_to(values, shape)
    return values.reshape((-1,) + values.shape[3:])


def quadrature_weights(ctx) -> np.ndarray:
    """Per-point weights scaled by area, (T, Q) (a read-only view)."""
    mesh = ctx.mesh
    return np.broadcast_to(mesh.tri_area * QUAD_W, (mesh.num_triangles, len(QUAD_W)))


def integrate(ctx, values_qp: np.ndarray) -> float:
    """Integral over the domain of per-quadrature-point values (T, Q)."""
    return float(np.sum(quadrature_weights(ctx) * values_qp))


def norm2(ctx, values_qp: np.ndarray) -> float:
    return integrate(ctx, values_qp**2)


def vec_norm2(ctx, values_qp: np.ndarray) -> float:
    """Squared L2 norm of a vector field given at quadrature points, (T, Q, 2)."""
    return integrate(ctx, np.sum(values_qp**2, axis=2))


def l2_norm_squared(ctx, field) -> float:
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
        return norm2(ctx, p1_at_qp(ctx, field[1]))
    if kind == "p0":
        return norm2(ctx, np.broadcast_to(field[1][:, None], quadrature_weights(ctx).shape))
    if kind == "qp":
        _, values, degree = field
        if degree > 2:
            raise ValueError(f"piecewise degree {degree} not integrated exactly")
        return norm2(ctx, values)
    raise ValueError(f"unknown field descriptor {kind!r}")


# -- per-triangle load terms and projections of samples ----------------------


def vector_at_centroids(mesh, g) -> np.ndarray:
    """Vector data g(x, y) at the triangle centroids, as class planes
    (2, 2, n, n) (class, then component)."""
    x, y = mesh.nodes[mesh.triangles].mean(axis=1).T
    return class_planes(np.column_stack(g(x, y)), mesh.n)


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


def class_planes(values: np.ndarray, n: int) -> np.ndarray:
    """Per-triangle rows in the triangle numbering as class planes,
    (..., T, K) -> (..., 2, K, R, n) for the T = 2 R n triangles of R cell rows."""
    cells = values.reshape(values.shape[:-2] + (-1, n, 2, values.shape[-1]))
    return np.ascontiguousarray(np.moveaxis(cells, (-4, -3), (-2, -1)))


def load_terms(ctx, values_qp: np.ndarray) -> np.ndarray:
    """Per-triangle load terms (f, lambda_i)_T of samples (T, Q), (T, 3)."""
    return (values_qp * (ctx.mesh.tri_area * QUAD_W)) @ QUAD_BARY


def gradient_load_terms(ctx, values_qp: np.ndarray) -> np.ndarray:
    """Per-triangle gradient load terms (g, grad lambda_i)_T of vector samples (T, Q, 2), (T, 3)."""
    weighted = ctx.mesh.tri_area * np.einsum("tqd,q->td", values_qp, QUAD_W)
    return per_class(weighted, ctx.class_grads.transpose(0, 2, 1))


def project_p1(ctx, values_qp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle projection of samples (..., T, Q) onto P1, and its remainder.

    The projection is orthogonal in the quadrature inner product, which
    is exact on P1 x P1: with the moments m_i = A sum_q w_q f_q
    lambda_i(x_q), the vertex values are 12 / A (m - sum(m) / 4).
    Returns the vertex values as class planes (..., 2, 3, n, n) and the
    squared quadrature norm of what the projection leaves over, summed
    over triangles (...).
    """
    moments = (values_qp * QUAD_W) @ QUAD_BARY  # m / A
    vert = 12 * (moments - moments.sum(axis=-1, keepdims=True) / 4)
    rest = values_qp - vert @ QUAD_BARY.T
    rest_norm2 = ctx.mesh.tri_area * ((rest * rest) @ QUAD_W).sum(axis=-1)
    return class_planes(vert, ctx.mesh.n), rest_norm2


def project_rt0(ctx, values_qp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle projection of vector samples (..., T, Q, 2) onto RT0.

    On each triangle the local RT0 space a + b (x - c) has the constants
    orthogonal to x - c, so the projection is the mean a plus the slope
    b = mean(f . (x - c)) / mean(|x - c|^2).  Returns, as class planes,
    the mean (..., 2, 2, n, n) and the divergence 2 b (..., 2, n, n), and
    the squared quadrature norm of the remainder, summed over triangles (...).
    """
    *lead, tris, points, _ = values_qp.shape
    pairs = values_qp.reshape(*lead, tris // 2, 2, points, 2)
    offsets = ctx.class_qp_offsets
    mean = np.einsum("...qd,q->...d", pairs, QUAD_W)
    weighted = offsets * QUAD_W[:, None] / ctx.offset_moment
    slope = np.einsum("...cqd,cqd->...c", pairs, weighted)
    rest = pairs - mean[..., None, :] - slope[..., None, None] * offsets
    rest_norm2 = ((rest * rest).sum(axis=-1) @ QUAD_W).reshape(*lead, -1).sum(axis=-1)
    form = np.concatenate([mean, 2 * slope[..., None]], axis=-1).reshape(*lead, tris, 3)
    planes = class_planes(form, ctx.mesh.n)
    return planes[..., :2, :, :], planes[..., 2, :, :], ctx.mesh.tri_area * rest_norm2
