"""P1 finite element assembly and spatial quadrature on the uniform mesh.

The stiffness and mass matrices are the 5-point and 7-point stencils of
the two constant element matrices, applied to interior fields by slicing
the node grid; no matrix is assembled.  Load vectors are summed onto the
node grid by slicing.  Data are sampled one block of cell rows at a time,
and one product with a class-constant matrix maps a block's samples to
their load terms, per-triangle projection and remainder.  Loads and
data-bearing norms use a 7-point rule that is exact for polynomials of
total degree 5 (so squares of the piecewise-quadratic integrands appearing
in the bound evaluation are integrated exactly).

Homogeneous Dirichlet conditions are imposed by restriction to interior
nodes.  Every per-triangle array is laid out by the cell numbering, and
every coordinate is a cell origin plus a point of the class triangle.

Per-triangle arrays come in two layouts.  Quadrature-point samples follow
the triangle numbering, (..., T, Q).  The bound evaluation holds its
per-triangle fields as class planes, (..., 2, n, n) for one value and
(..., 2, K, n, n) for K values per triangle: the orientation class first,
then the cell row and column, so every operation on them is a plane slice.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import prod
from typing import Callable

import numpy as np

from .mesh import CLASS_CORNERS, add_cell_corners

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

# cell rows per block when data are sampled and projected without keeping
# the samples: one block of samples and its image under the class maps is
# alive at a time, which bounds the set-up's transient memory on large grids
SAMPLE_ROWS = 32


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
    field alike, or a (Q, Q) block coupling the Q parts.  The boundary nodes
    are the zero padding of the node grid, so a product is the sum of the
    shifted slices of one padded grid times their weights, taken as one
    matrix product per band of rows.  `shape` is that of the matrix acting
    on the flat stacked parts, and `nnz` counts the entries the assembled
    matrix would store.
    """

    def __init__(self, weights: dict, m: int):
        self.m = m
        self.weights = weights
        self._offsets = sorted(weights)
        self._blocks = np.array([weights[o] for o in self._offsets])
        self._parts = 1 if self._blocks.ndim == 1 else self._blocks.shape[1]
        self.shape = (self._parts * m * m,) * 2
        self.nnz = sum(
            np.count_nonzero(w) * max(m - abs(dr), 0) * max(m - abs(dc), 0)
            for (dr, dc), w in zip(self._offsets, self._blocks)
        )

    def __call__(self, v: np.ndarray, out: np.ndarray, scratch: Scratch) -> np.ndarray:
        """Product with stacked interior fields, (Q, m * m) -> (Q, m * m), or
        with their flat concatenation.

        The product is written to `out` (C-contiguous, the shape of v); the
        padded grid and the stacked slices of a band are lent by `scratch`.
        """
        m = self.m
        blocks = self._blocks
        if blocks.ndim == 1:
            parts = len(v) if v.ndim == 2 else 1
            blocks = blocks[:, None, None] * np.eye(parts)
        else:
            parts = self._parts
        coef = blocks.transpose(1, 0, 2).reshape(parts, -1)
        product = out.reshape(parts, m * m)
        band = min(STENCIL_ROWS, m)
        with scratch.lend((parts, m + 2, m + 2), (len(self._offsets) * parts * band * m,)) as (grid, stack):
            grid[:, [0, -1], :] = 0.0
            grid[:, :, [0, -1]] = 0.0
            grid[:, 1:-1, 1:-1] = v.reshape(parts, m, m)
            for r0 in range(0, m, STENCIL_ROWS):
                r1 = min(r0 + STENCIL_ROWS, m)
                shifted = stack[: coef.shape[1] * (r1 - r0) * m].reshape(-1, parts, r1 - r0, m)
                np.stack(
                    [grid[:, 1 + r0 + dr : 1 + r1 + dr, 1 + dc : 1 + dc + m] for dr, dc in self._offsets],
                    out=shifted,
                )
                np.matmul(coef, shifted.reshape(coef.shape[1], -1), out=product[:, r0 * m : r1 * m])
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
        class_grads: P1 basis gradients per class, (2, 3, 2).
        class_rt0_form: centroid value (c - P_i) / (2 A) and divergence
            1 / A of the RT0 basis function with unit outward flux through
            the edge opposite local vertex i, per class, (2, 3, 3).
        class_centroids: centroids of the class triangles of cell (0, 0),
            (2, 2).
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
        self.class_grads, area = _class_geometry(corners)
        centroid = corners.mean(axis=1, keepdims=True)
        self.class_centroids = centroid[:, 0]
        area = area[:, None, None]
        self.class_rt0_form = np.concatenate(
            [(centroid - corners) / (2 * area), np.broadcast_to(1 / area, (2, 3, 1))], axis=-1
        )
        self.class_qp = QUAD_BARY @ corners
        self.class_qp_offsets = self.class_qp - centroid
        self.offset_moment = float(QUAD_W @ np.sum(self.class_qp_offsets[0] ** 2, axis=1))
        self._scalar_map, self._vector_map = (
            _block_map(maps) for maps in self._sample_maps()
        )

        # the centre node of a 2 x 2 cell grid touches all six triangles
        # around it, as every interior node does
        self.K, self.M = (
            Stencil({o: band[1, 1] for o, band in _stencil_bands(a, 2).items()}, n - 1)
            for a in element_matrices(mesh)
        )

    def _sample_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The linear maps from one triangle's quadrature samples to what
        `project_data` keeps of them, per class.

        Scalar (2, Q, 3 + 3 + Q): the load terms A sum_q w_q f_q lambda_i(x_q),
        the P1 vertex values 12 / A (m - sum(m) / 4) of the moments
        m_i = A sum_q w_q f_q lambda_i(x_q), and the remainder f_q minus the
        projection at x_q.  Vector (2, 2Q, 3 + 2 + 1 + 2Q), samples ordered
        (point, component): the gradient load terms A sum_q w_q g_q . grad
        lambda_i, the mean sum_q w_q g_q, the divergence 2 b of the slope
        b = sum_q w_q g_q . (x_q - c) / offset_moment, and the remainder
        g_q - mean - b (x_q - c).
        """
        points, area = len(QUAD_W), self.mesh.tri_area
        weight = QUAD_W[:, None]
        bary = weight * QUAD_BARY
        vert = 12 * (bary - weight / 4)
        scalar = np.hstack([area * bary, vert, np.eye(points) - vert @ QUAD_BARY.T])

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
        return np.broadcast_to(scalar, (2,) + scalar.shape), vector

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

    def cell_gradients(self, grid: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradients of P1 fields on R + 1 rows of the node grid,
        (..., R+1, n+1) -> class planes of the R cell rows between them,
        (..., 2, 2, R, n) (class, then component), written to `out`.

        Each class gradient is a pair of node differences along the legs of
        its triangle, taken by slicing the node grid.
        """
        low, high = grid[..., :-1, :], grid[..., 1:, :]  # rows r and r + 1
        np.subtract(low[..., 1:], low[..., :-1], out=out[..., 0, 0, :, :])
        np.subtract(high[..., 1:], low[..., 1:], out=out[..., 0, 1, :, :])
        np.subtract(high[..., 1:], high[..., :-1], out=out[..., 1, 0, :, :])
        np.subtract(high[..., :-1], low[..., :-1], out=out[..., 1, 1, :, :])
        out /= self.mesh.h
        return out

    def _node_sums(self, planes: np.ndarray) -> np.ndarray:
        """Sum per-triangle vertex contributions, class planes (2, 3, n, n),
        onto the interior nodes."""
        cells = np.moveaxis(planes, (0, 1), (-2, -1))
        return add_cell_corners(cells, self.mesh.n)[1:-1, 1:-1].ravel()

    # -- data at the quadrature points -----------------------------------------

    def _qp_axes(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """x (1, n, 2, Q) and y (R, 1, 2, Q) of the quadrature points in the
        cell rows `rows`: the cell origins (c h, r h) plus the class points,
        broadcasting to (R, n, 2, Q)."""
        origin = np.arange(self.mesh.n) * self.mesh.h
        x = origin[None, :, None, None] + self.class_qp[..., 0]
        y = origin[rows, None, None, None] + self.class_qp[..., 1]
        return x, y

    def data_at_qp(self, f: Callable, rows: slice) -> np.ndarray:
        """Scalar data values at the quadrature points of the cell rows `rows`,
        (T, Q) for T triangles of those rows.

        f is called on coordinate arrays that broadcast against each other,
        one row and one column of cells each.
        """
        x, y = self._qp_axes(rows)
        return np.broadcast_to(f(x, y), np.broadcast_shapes(x.shape, y.shape)).reshape(-1, len(QUAD_W))

    def vector_data_at_centroids(self, g: Callable) -> np.ndarray:
        """Vector data values at the triangle centroids, as class planes
        (2, 2, n, n) (class, then component); g is called as in `data_at_qp`."""
        n = self.mesh.n
        origin = np.arange(n) * self.mesh.h
        x = origin[None, None, :] + self.class_centroids[:, 0, None, None]
        y = origin[None, :, None] + self.class_centroids[:, 1, None, None]
        return np.stack([np.broadcast_to(v, (2, n, n)) for v in g(x, y)], axis=1)

    def vector_data_at_qp(self, g: Callable, rows: slice) -> np.ndarray:
        """Vector data values at the quadrature points of the cell rows `rows`,
        (T, Q, 2)."""
        x, y = self._qp_axes(rows)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = np.empty(shape + (2,))
        for d, values in enumerate(g(x, y)):
            out[..., d] = values
        return out.reshape(-1, len(QUAD_W), 2)

    def project_data(self, f: Callable, vector: bool = False):
        """Load vector and per-triangle projection of data f, whose samples are not kept.

        Returns (load, planes, rest).  For scalar data, load holds
        (f, phi_i) and planes = [vertex values (2, 3, n, n)] of the P1
        projection, orthogonal in the quadrature inner product, which is
        exact on P1 x P1.  For vector data, load holds (g, grad phi_i) and
        planes = [mean (2, 2, n, n), divergence (2, n, n)] of the RT0
        projection mean + div/2 (x - c), the tau(c) + div/2 (x - c) form of
        `fluxrecon`.  rest is the squared quadrature norm of what the
        projection leaves over, summed from its values at the quadrature
        points.  Each block of SAMPLE_ROWS cell rows of samples gives all of
        it in one product with the class maps (see `_sample_maps`).
        """
        n = self.mesh.n
        maps = self._vector_map if vector else self._scalar_map
        # columns of the maps: 3 load terms, 3 plane values, the remainder
        parts = (slice(3, 5), 5) if vector else (slice(3, 6),)
        weights = np.repeat(QUAD_W, 2 if vector else 1)  # of the remainder's columns
        loads = np.empty((2, 3, n, n))
        planes, rest = [], 0.0
        for rows, out in self._mapped_samples(f, maps, vector):
            loads[:, :, rows] = out[:, :3]
            if not planes:
                planes = [np.empty(out[:, part].shape[:-2] + (n, n)) for part in parts]
            for plane, part in zip(planes, parts):
                plane[..., rows, :] = out[:, part]
            resid = out[:, 6:]
            np.square(resid, out=resid)
            rest += float(weights @ resid.sum(axis=(-2, -1)).sum(axis=0))
        return self._node_sums(loads), planes, self.mesh.tri_area * rest

    def load(self, f: Callable) -> np.ndarray:
        """Load vector (f, phi_i) by quadrature: the load columns of the scalar class maps."""
        n = self.mesh.n
        loads = np.empty((2, 3, n, n))
        for rows, out in self._mapped_samples(f, self._scalar_map[:, :3]):
            loads[:, :, rows] = out
        return self._node_sums(loads)

    def _mapped_samples(self, f: Callable, maps: np.ndarray, vector: bool = False):
        """(rows, the class maps applied to the samples of f) for each block of
        SAMPLE_ROWS cell rows, in order, as class planes (2, D, R, n).

        `maps` (2, D, 2S) is the transposed block-diagonal class map of the
        S samples of a lower and an upper triangle.  Every block is written
        to one buffer, so it is valid only until the next one is produced.
        """
        n = self.mesh.n
        sample = self.vector_data_at_qp if vector else self.data_at_qp
        cols = maps.reshape(-1, maps.shape[-1])
        buffer = np.empty(len(cols) * min(SAMPLE_ROWS, n) * n)
        for start in range(0, n, SAMPLE_ROWS):
            rows = slice(start, min(start + SAMPLE_ROWS, n))
            pairs = sample(f, rows).reshape(-1, cols.shape[1])
            out = buffer[: len(cols) * len(pairs)].reshape(len(cols), len(pairs))
            np.matmul(cols, pairs.T, out=out)
            yield rows, out.reshape(2, -1, rows.stop - start, n)


def _block_map(maps: np.ndarray) -> np.ndarray:
    """Per-class maps (2, S, D) of one triangle's samples as the transposed
    block-diagonal map (2, D, 2S) of a lower and an upper triangle's."""
    samples, depth = maps.shape[1:]
    block = np.zeros((2, depth, 2, samples))
    block[0, :, 0] = maps[0].T
    block[1, :, 1] = maps[1].T
    return block.reshape(2, depth, 2 * samples)


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
