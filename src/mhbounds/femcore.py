"""P1 finite element assembly and spatial quadrature on the uniform mesh.

The stiffness and mass matrices are the 5-point and 7-point stencils of
the two constant element matrices, applied to interior fields by slicing
the node grid; no matrix is assembled.  Where both are applied to the same
stacked fields, one pass over the seven shifted slices of the padded grid
gives both products, by one (2, 7) coefficient over the slices of all
parts (`FemContext.KM`).  Data are bound in one streaming
pass over blocks of cell rows: scalar and vector data alike are sampled
at a block's quadrature points, one product per class with a
class-constant matrix maps the samples to their load terms, per-triangle
projection and remainder, and the load terms are summed onto the node
grid by slicing before the next block is sampled.  Loads and data-bearing
norms use a 7-point rule that is exact for polynomials of total degree 5
(so squares of the piecewise-quadratic integrands appearing in the bound
evaluation are integrated exactly).

Homogeneous Dirichlet conditions are imposed by restriction to interior
nodes.  Every per-triangle array is laid out by the cell numbering, and
every coordinate is a cell origin plus a point of the class triangle.

Every per-triangle array is held as class planes: (..., 2, n, n) for one
value and (..., 2, K, n, n) for K values per triangle, the orientation
class first, then the cell row and column, so every operation on them is
a plane slice.  Samples at the Q quadrature points of a block of R cell
rows are the class planes (2, Q, R, n).
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod
from typing import Callable

import numpy as np

from .mesh import CLASS_CORNERS

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


def element_matrices(mesh) -> tuple[np.ndarray, np.ndarray]:
    """Unit-coefficient P1 stiffness and mass element matrices per class, (2, 3, 3) each.

    The stiffness is scale free, so it is taken on the unit cell, where its
    entries 0, +-1/2 and 1 are exact.
    """
    unit = np.array(CLASS_CORNERS, dtype=float)[..., ::-1]
    unit_grads, unit_area = _class_geometry(unit)
    return (
        np.einsum("cid,cjd,c->cij", unit_grads, unit_grads, unit_area),
        np.broadcast_to(mesh.tri_area / 12 * (1 + np.eye(3)), (2, 3, 3)),
    )


# interior rows per band of a stencil product: the stacked shifted slices
# of one band stay in cache, and the temporaries stay small on large grids
STENCIL_ROWS = 16

# cell rows per block when data are sampled, mapped and summed onto the
# node grid without keeping the samples: one block of samples and its image
# under the class maps is alive at a time, which bounds the set-up's
# transient memory on large grids (8 rows set up faster than 16 or 32 from
# n = 128 to 1024, and fault in the fewest pages)
SAMPLE_ROWS = 8


class Scratch:
    """Float64 memory that one thread lends to the steps of a mode in turn.

    A mode's Krylov solve and then its bound evaluation take their buffers
    with `lend`, which hands out views past those still lent and takes them
    back when its `with` block ends.  The views come from a list of blocks
    that is only ever extended: a request that does not fit in the rest of
    a block goes to the next one, and past the last a new block is added,
    twice as large as all the others together.  No block is replaced or
    freed before the scratch, so every mode after the first works on pages
    that an earlier one has already touched instead of faulting in fresh
    ones, and a lent view stays valid until it is given back.  Lent views
    hold whatever the last borrower left there.
    """

    def __init__(self):
        self._blocks: list[np.ndarray] = []
        self._at = (0, 0)  # block and offset of the first element not lent

    @contextmanager
    def lend(self, *shapes):
        """Views of the given shapes, one after the other."""
        start = self._at
        try:
            yield [self._take(prod(shape)).reshape(shape) for shape in shapes]
        finally:
            self._at = start

    def _take(self, size: int) -> np.ndarray:
        block, offset = self._at
        while block < len(self._blocks) and offset + size > self._blocks[block].size:
            block, offset = block + 1, 0
        if block == len(self._blocks):
            self._blocks.append(np.empty(max(size, 2 * sum(b.size for b in self._blocks))))
        self._at = (block, offset + size)
        return self._blocks[block][offset : offset + size]


class Stencil:
    """An operator on the m x m interior nodes given by a constant stencil.

    `weights` maps an offset (dr, dc) to the weight that couples node (r, c)
    with node (r + dr, c + dc): a scalar, applied to each part of a stacked
    field alike; a vector of L scalars, the weights of L such stencils
    applied in one pass; or a (Q, Q) block coupling the Q parts.  The
    boundary nodes are the zero padding of the node grid, so a product is
    the sum of the shifted slices of one padded grid times their weights,
    taken as one matrix product per band of rows: with scalar weights an
    (L, offsets) coefficient over the slices of all parts at once, with
    blocks a (Q, offsets Q) one.  `shape` is that of the matrix acting on
    one flat part (scalar weights) or on the flat stacked parts (blocks),
    and `nnz` counts the entries the assembled matrices would store.
    """

    def __init__(self, weights: dict, m: int):
        self.m = m
        self.weights = weights
        self._offsets = sorted(weights)
        blocks = np.array([weights[o] for o in self._offsets], dtype=float)
        self._coupled = blocks.ndim == 3
        self._parts = blocks.shape[1] if self._coupled else 1
        self._coef = (blocks.transpose(1, 0, 2).reshape(self._parts, -1) if self._coupled
                      else blocks.reshape(len(blocks), -1).T)
        self.shape = (self._parts * m * m,) * 2
        self.nnz = sum(
            np.count_nonzero(w) * max(m - abs(dr), 0) * max(m - abs(dc), 0)
            for (dr, dc), w in zip(self._offsets, blocks)
        )

    def __call__(self, v: np.ndarray, out: np.ndarray, scratch: Scratch) -> np.ndarray:
        """Product with stacked interior fields v, (Q, m * m), or with their
        flat concatenation, written to `out` (C-contiguous): the shape of v,
        or (L, Q, m * m) for vector weights, the L products in order.

        The padded grid and the stacked slices of a band are lent by
        `scratch`.
        """
        m = self.m
        coef = self._coef
        parts = self._parts if self._coupled else len(v) if v.ndim == 2 else 1
        # the coupled product's rows are the parts; a scalar product's are
        # the L stencils, per part
        product = (out.reshape(parts, m * m) if self._coupled
                   else out.reshape(len(coef), parts, m * m).transpose(1, 0, 2))
        band = min(STENCIL_ROWS, m)
        with scratch.lend((parts, m + 2, m + 2), (len(self._offsets) * parts * band * m,)) as (grid, stack):
            grid[:, [0, -1], :] = 0.0
            grid[:, :, [0, -1]] = 0.0
            grid[:, 1:-1, 1:-1] = v.reshape(parts, m, m)
            for r0 in range(0, m, STENCIL_ROWS):
                r1 = min(r0 + STENCIL_ROWS, m)
                shifted = stack[: len(self._offsets) * parts * (r1 - r0) * m].reshape(-1, parts, r1 - r0, m)
                np.stack(
                    [grid[:, 1 + r0 + dr : 1 + r1 + dr, 1 + dc : 1 + dc + m] for dr, dc in self._offsets],
                    out=shifted,
                )
                if self._coupled:
                    np.matmul(coef, shifted.reshape(coef.shape[1], -1), out=product[:, r0 * m : r1 * m])
                else:
                    columns = shifted.reshape(len(self._offsets), parts, -1).transpose(1, 0, 2)
                    np.matmul(coef, columns, out=product[..., r0 * m : r1 * m])
        return out


class FemContext:
    """Cached mesh-dependent arrays shared by assembly and bound evaluation.

    Triangle t of the uniform mesh belongs to orientation class t % 2, and
    every per-triangle geometric map is one of two constants; the `class_*`
    arrays hold them with the class on the leading axis.

    Attributes:
        mesh: the underlying UniformMesh.
        K, M: unit-coefficient stiffness/mass on interior nodes, as stencils
            applied by grid slicing.
        KM: both as one stencil of vector weights, whose product with
            stacked fields (Q, m * m) is (2, Q, m * m), K's then M's, from
            one pass over the shifted slices.
        class_grads: P1 basis gradients per class, (2, 3, 2).
        class_qp: quadrature points of the class triangles of cell (0, 0),
            (2, Q, 2).
        class_qp_offsets: quadrature points minus the centroid, (2, Q, 2).
        offset_moment: mean of |x - c|^2 over a triangle.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        n, h = mesh.n, mesh.h
        # class triangles of cell (0, 0), as (x, y) = h (column, row)
        unit = np.array(CLASS_CORNERS, dtype=float)[..., ::-1]
        corners = h * unit
        self.class_grads, _ = _class_geometry(corners)
        centroid = corners.mean(axis=1, keepdims=True)
        self.class_qp = QUAD_BARY @ corners
        self.class_qp_offsets = self.class_qp - centroid
        self.offset_moment = float(QUAD_W @ np.sum(self.class_qp_offsets[0] ** 2, axis=1))
        self._scalar_map, self._vector_map = self._sample_maps()

        # the centre node of a 2 x 2 cell grid touches all six triangles
        # around it, as every interior node does
        K, M = ({o: band[1, 1] for o, band in _stencil_bands(a, 2).items()} for a in element_matrices(mesh))
        self.K, self.M = Stencil(K, n - 1), Stencil(M, n - 1)
        self.KM = Stencil({o: (K.get(o, 0.0), M.get(o, 0.0)) for o in K.keys() | M.keys()}, n - 1)

    def _sample_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear maps from one triangle's quadrature samples to what
        `project_data` keeps of them, per class: scalar (2, 3 + 3 + Q, Q) and
        vector (2, 3 + 2 + 1 + 2Q, 2Q), whose columns take the samples of
        the x components, then those of the y components.

        Scalar rows: the load terms A sum_q w_q f_q lambda_i(x_q), the P1
        vertex values 12 / A (m - sum(m) / 4) of the moments
        m_i = A sum_q w_q f_q lambda_i(x_q), and the remainder f_q minus the
        projection at x_q.  Vector rows: the gradient load terms
        A sum_q w_q g_q . grad lambda_i, the mean sum_q w_q g_q, the
        divergence 2 b of the slope b = sum_q w_q g_q . (x_q - c) /
        offset_moment, and the remainder g_q - mean - b (x_q - c), ordered
        (point, component).
        """
        points, area = len(QUAD_W), self.mesh.tri_area
        weight = QUAD_W[:, None]
        bary = weight * QUAD_BARY
        vert = 12 * (bary - weight / 4)
        scalar = np.hstack([area * bary, vert, np.eye(points) - vert @ QUAD_BARY.T]).T

        offsets = self.class_qp_offsets.reshape(2, 2 * points)
        mean = (weight[..., None] * np.eye(2)).reshape(2 * points, 2)
        slope = np.repeat(QUAD_W, 2) * offsets / self.offset_moment
        resid = np.eye(2 * points) - np.tile(mean, points) - slope[:, :, None] * offsets[:, None, :]
        grad_load = area * weight[..., None] * self.class_grads.transpose(0, 2, 1)[:, None]
        vector = np.concatenate(
            [
                grad_load.reshape(2, 2 * points, 3),
                np.broadcast_to(mean, (2,) + mean.shape),
                2 * slope[..., None],
                resid,
            ],
            axis=-1,
        )
        # the samples' columns go from (point, component) to (component, point)
        vector = vector.reshape(2, points, 2, -1).transpose(0, 3, 2, 1).reshape(2, -1, 2 * points)
        return np.stack([scalar, scalar]), np.ascontiguousarray(vector)

    # -- nodal field helpers -------------------------------------------------

    def node_grid(self, v_int: np.ndarray, first: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Stacked interior fields (P, m) on the zero-padded node grid,
        (P, n+1, n+1), or on its rows first, first + 1, ... that `out`
        (P, rows, n+1) holds."""
        n = self.mesh.n
        parts = v_int.shape[0]
        if out is None:
            out = np.empty((parts, n + 1 - first, n + 1))
        last = first + out.shape[-2] - 1
        out[..., [0, -1]] = 0.0
        if first == 0:
            out[:, 0] = 0.0
        if last == n:
            out[:, -1] = 0.0
        lo, hi = max(first, 1), min(last, n - 1)  # the rows with interior nodes
        out[:, lo - first : hi - first + 1, 1:-1] = v_int.reshape(parts, n - 1, n - 1)[:, lo - 1 : hi]
        return out

    # -- data at the quadrature points -----------------------------------------

    def project_data(self, f: Callable, vector: bool):
        """Load vector and per-triangle projection of data f, whose samples are not kept.

        Returns (load, planes, rest).  For scalar data, load holds
        (f, phi_i) and planes = [vertex values (2, 3, n, n)] of the P1
        projection, orthogonal in the quadrature inner product, which is
        exact on P1 x P1.  For vector data, load holds (g, grad phi_i) and
        planes = [mean (2, 2, n, n), divergence (2, n, n)] of the RT0
        projection mean + div/2 (x - c), the tau(c) + div/2 (x - c) form of
        `fluxrecon`.  rest is the squared quadrature norm of what the
        projection leaves over, sum_q w_q (r_q . r_q) over its values r_q
        at the quadrature points.  Each block of cell rows gives all of it
        from one product per class with the class maps (see `_sample_maps`
        and `_mapped_blocks`).
        """
        n = self.mesh.n
        maps = self._vector_map if vector else self._scalar_map
        # rows of the maps: 3 load terms, 3 plane values, the remainder
        parts = (slice(3, 5), 5) if vector else (slice(3, 6),)
        shapes = ((2, 2, n, n), (2, n, n)) if vector else ((2, 3, n, n),)
        planes = [np.empty(shape) for shape in shapes]
        weights = np.repeat(QUAD_W, 2 if vector else 1)  # of the remainder's rows
        nodes, rest = np.zeros((n + 1, n + 1)), 0.0
        for rows, out in self._mapped_blocks(f, maps, nodes):
            for plane, part in zip(planes, parts):
                plane[..., rows, :] = out[:, part]
            resid = out[:, 6:].reshape(2, len(weights), -1)
            rest += float(weights @ np.einsum("cqt,cqt->q", resid, resid))
        return nodes[1:-1, 1:-1].ravel(), planes, self.mesh.tri_area * rest

    def load(self, f: Callable) -> np.ndarray:
        """Load vector (f, phi_i) by quadrature: the load rows of the scalar class maps."""
        n = self.mesh.n
        nodes = np.zeros((n + 1, n + 1))
        for _ in self._mapped_blocks(f, self._scalar_map[:, :3], nodes):
            pass
        return nodes[1:-1, 1:-1].ravel()

    def _mapped_blocks(self, f: Callable, maps: np.ndarray, nodes: np.ndarray):
        """(rows, the class maps applied to the samples of f) for each block of
        SAMPLE_ROWS cell rows, in order, as class planes (2, D, R, n), with
        the first three rows, the load terms of the local vertices, added to
        the node grid `nodes` (n+1, n+1) as each block is mapped.

        f is called on coordinates x (2, Q, 1, n) and y (2, Q, R, 1): the
        cell origins (c h, r h) of one row and one column of cells plus the
        points of the class triangles, broadcasting to the class planes
        (2, Q, R, n) of its values, or of each of its pair of values for
        vector data.  `maps` (2, D, PQ) are the class maps of the P = 1 or 2
        components' samples.  The samples are copied into one buffer and
        their image written to another, both reused by every block, so a
        block is valid only until the next one is produced.
        """
        n, h = self.mesh.n, self.mesh.h
        depth, width = maps.shape[1:]
        points = len(QUAD_W)
        parts = width // points
        origin = np.arange(n) * h
        x = origin + self.class_qp[..., 0, None, None]
        size = min(SAMPLE_ROWS, n) * n
        image, samples = np.empty(2 * depth * size), np.empty(2 * width * size)
        for start in range(0, n, SAMPLE_ROWS):
            stop = min(start + SAMPLE_ROWS, n)
            cells = (stop - start) * n
            y = origin[start:stop, None] + self.class_qp[..., 1, None, None]
            values = f(x, y)
            block = samples[: 2 * width * cells].reshape(2, parts, points, stop - start, n)
            for part in range(parts):
                block[:, part] = values[part] if parts > 1 else values
            del values  # f's own arrays go before the next block is sampled
            out = image[: 2 * depth * cells].reshape(2, depth, cells)
            for cls in range(2):
                np.matmul(maps[cls], block[cls].reshape(width, cells), out=out[cls])
            out = out.reshape(2, depth, stop - start, n)
            _add_to_corners(nodes, out[:, :3], start)
            yield slice(start, stop), out


def _add_to_corners(nodes: np.ndarray, terms: np.ndarray, start: int) -> None:
    """Add per-vertex terms of the triangles of cell rows start, start + 1,
    ..., class planes (2, 3, R, n), to the node grid `nodes` (n+1, n+1)."""
    rows, n = terms.shape[-2:]
    for cls, corners in enumerate(CLASS_CORNERS):
        for local, (r, c) in enumerate(corners):
            nodes[start + r : start + rows + r, c : c + n] += terms[cls, local]


def prolong(grid: np.ndarray, n_fine: int) -> np.ndarray:
    """P1 fields on a node grid, (..., n+1, n+1), evaluated at the nodes of
    the grid with n_fine cells per side, (..., n_fine+1, n_fine+1) (exact
    when nested).

    The fine grid's coordinate axes, as the fine mesh places its nodes, are
    the same along rows and columns, so the corners of the coarse cell that
    holds each fine node are gathered by two 1-D takes, rows then columns.
    """
    n = grid.shape[-1] - 1
    t = np.clip(np.arange(n_fine + 1) * (1.0 / n_fine), 0.0, 1.0) * n
    cell = np.minimum(t.astype(np.int64), n - 1)
    frac = t - cell
    xi, eta = frac[None, :], frac[:, None]
    low, high = (grid.take(cell + d, axis=-2) for d in (0, 1))
    v00, v10 = (low.take(cell + d, axis=-1) for d in (0, 1))
    v01, v11 = (high.take(cell + d, axis=-1) for d in (0, 1))
    lower = v00 * (1 - xi) + v10 * (xi - eta) + v11 * eta
    upper = v00 * (1 - eta) + v11 * xi + v01 * (eta - xi)
    return np.where(xi >= eta, lower, upper)
