"""Krylov solvers for the matrix-free mode systems and their preconditioners.

Every preconditioner is diagonal in the 2-D type-I sine basis of the
interior grid up to a symmetric (2P, 2P) matrix per frequency, so it is
applied by one fast sine transform pair (the fast Poisson solver of Buzbee,
Golub and Nielson) around a small per-frequency product; no factorization
is built, and each transform is two passes of numpy real FFTs over
zero-padded rows.  The stiffness matrix K is diagonal in that basis exactly
(it is the 5-point stencil on this mesh), the mass matrix M through a
spectrally equivalent tensor-product surrogate M~.

With M replaced by M~, the mode operator becomes the surrogate operator
A~_k.  In the complex form z = cosine part + i sine part, A~_k is one
Hermitian 2 x 2 matrix on (y, p) per frequency, so its inverse A~_k^{-1}
has a closed form, applied as two (2P, 2P) products per frequency.  It is
indefinite like A_k, and the eigenvalues of A_k A~_k^{-1} cluster around
+1, so every tolerance-driven solve runs GMRES right-preconditioned by it
(Saad and Schultz 1986), which gains on that cluster at every step.  The
paper's block-diagonal preconditioners, whose Schur complements contain
M K^{-1} M or K M^{-1} K, multiply by the reciprocal of their symbol; they
are positive definite and reproduce its fixed-step MinRes runs.
`build_precond_I/II` build either kind as one `SpectralPrecond`, and
`minres` picks the solver from its `definite` flag.

GMRES stops on the Euclidean relative residual ||b - A x|| / ||b||,
recomputed from its iterate; MinRes measures its residual in the norm of
the preconditioner's inverse.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from .femcore import Scratch
from .systems import ModeMatrices, ModeSolution, ModeSystem, mode_coefficients, mode_parts

# Basis vectors GMRES keeps before it restarts from the true residual.  The
# basis and its preconditioned images are its largest memory: a full cycle
# holds 17 basis vectors and 16 images, 33 vectors of 33.5 MB or 1.1 GB for
# a k > 0 mode at n=1024; no solve measured so far (random data, lambda
# down to 1e-4) takes more than 14 steps, so none restarts.
GMRES_RESTART = 16

# floats of zero-padded rows per block of a sine transform pass (256 kB):
# a block and its spectra stay in cache, and they are all the memory a
# transform takes beside the half-transformed planes
SINE_BLOCK = 1 << 15

# A later mode starts from the seeds' combination only where that leaves at
# most this relative residual: a start costs an operator product and a small
# least-squares fit, and the weaker starts of indicator data (2e-2 to 4e-1
# for example 3 at n = 64) save no GMRES step over its 82 modes.
START_CUT = 1e-2

# a row whose part outside the rows before it is below this share of its
# norm is rounding noise (or zero), and Gram-Schmidt drops it
ORTHO_DROP = 1e-12


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float
    converged: bool
    breakdown: bool = False
    residuals: list = field(default_factory=list)
    start_residual: float = 1.0  # of the starting iterate; 1 from zero, 0 for b = 0


class SpectralPrecond:
    """Symmetric preconditioner diagonal in the DST-I basis up to a (Q, Q)
    matrix per frequency, Q the stacked parts of the mode system in its
    unknown ordering.

    `apply` takes the sine coefficients c (Q, m, m) of the input, m = n - 1
    interior nodes per side, forms diag c - sum_i scales[i] (coefs[i] c) per
    frequency, and transforms back, one orthonormal DST-I pair over all
    parts.  `diag` is (Q, m, m) or one plane (m, m) for all parts, each
    scale a plane and each coupling matrix (Q, Q).  Every plane is
    symmetric in its two frequencies, so it multiplies the transposed
    coefficients `_dst` gives as they are, and the second transform
    restores the orientation.  Without coupling terms it is the paper's
    positive definite block-diagonal kind (`definite`, for MinRes).  The
    scratch lends one vector, which takes the half-transformed planes of
    both transforms and holds c between them, and one block of padded rows
    and their spectra; only the coupling terms take a second lent vector,
    so an apply allocates nothing.
    """

    def __init__(self, diag: np.ndarray, coefs: tuple = (), scales: tuple = ()):
        self.diag, self.coefs, self.scales = diag, coefs, scales
        self.definite = not coefs
        self._parts_shape = (len(coefs[0]) if coefs else len(diag),) + diag.shape[-2:]

    def apply(self, r: np.ndarray, out: np.ndarray, scratch: Scratch) -> np.ndarray:
        """P r, written to `out` (C-contiguous, not overlapping r)."""
        shape = self._parts_shape
        with scratch.lend(shape, *_sine_blocks(shape)) as (coef, *blocks):
            _dst(r.reshape(shape), coef, coef, blocks)
            product = out.reshape(shape)
            np.multiply(self.diag, coef, out=product)
            if self.coefs:
                with scratch.lend(shape) as (work,):
                    flat, terms = coef.reshape(shape[0], -1), work.reshape(shape[0], -1)
                    for block, scale in zip(self.coefs, self.scales):
                        np.matmul(block, flat, out=terms)
                        work *= scale
                        product -= work
            _dst(product, product, coef, blocks)
        return out


def _sine_blocks(shape: tuple) -> tuple:
    """The shapes of the block of padded rows (2m + 2 floats each) and of
    their spectra (as float pairs) that `_dst` of planes `shape` (Q, m, m)
    works through: as many whole planes as fit in SINE_BLOCK floats, or as
    many rows of one plane, at least one."""
    parts, m, _ = shape
    rows = max(SINE_BLOCK // (2 * m + 2), 1)
    planes = min(parts, max(rows // m, 1))
    rows = min(rows, m)
    return (planes, rows, 2 * m + 2), (planes, rows, 2 * m + 4)


def _dst(planes: np.ndarray, out: np.ndarray, half: np.ndarray, blocks: tuple) -> None:
    """The orthonormal 2-D DST-I of each plane of (Q, m, m), transposed,
    written to `out`.

    A pass copies each block of rows to x_1..x_m of zero-padded rows
    x_0..x_{2m+1}; the imaginary parts of entries 1..m of their real FFT are
    minus the rows' DST-I.  The first pass writes them transposed into
    `half`, the second transforms the rows of `half` into `out` and scales
    them by 2 / (m + 1), so the two signs cancel.  `blocks` are views of
    the `_sine_blocks` shapes; `half` must not overlap `planes`, `out` may
    be either.
    """
    m = planes.shape[-1]
    pad, spec = blocks[0], blocks[1].view(complex)
    pad[..., 0] = 0.0
    pad[..., m + 1 :] = 0.0
    _sine_pass(planes, half, pad, spec, None)
    _sine_pass(half, out, pad, spec, 2.0 / (m + 1))


def _sine_pass(src: np.ndarray, dest: np.ndarray, pad: np.ndarray, spec: np.ndarray, scale) -> None:
    """Minus the DST-I of every row of `src`, written transposed plane by
    plane into `dest` if `scale` is None, else times `scale` into the same
    rows of `dest`."""
    m = src.shape[-1]
    planes, rows = pad.shape[:2]
    for q in range(0, len(src), planes):
        for r in range(0, m, rows):
            x = src[q : q + planes, r : r + rows]
            padded, spectra = pad[: len(x), : x.shape[1]], spec[: len(x), : x.shape[1]]
            padded[..., 1 : m + 1] = x
            np.fft.rfft(padded, out=spectra)
            coefs = spectra.imag[..., 1 : m + 1]
            if scale is None:
                dest[q : q + planes, :, r : r + rows] = coefs.transpose(0, 2, 1)
            else:
                np.multiply(coefs, scale, out=dest[q : q + planes, r : r + rows])


def _grid_symbols(mats: ModeMatrices) -> tuple[np.ndarray, np.ndarray]:
    """DST-I eigenvalues of K and of the tensor mass surrogate M~.

    On the uniform right-triangle mesh the interior stiffness matrix is the
    5-point stencil, so mu_K is exact.  The 7-point mass stencil couples
    each node to one diagonal pair only; averaging it with the other
    diagonal pair gives M~ = h^2/12 (6 + 2 cos a + 2 cos b + 2 cos a cos b)
    = h^2/6 ((1 + cos a)(1 + cos b) + 2), spectrally equivalent to M.  Both
    are an outer sum or product of one vector with itself, so every plane
    equals its transpose exactly.
    """
    m = mats.K.m
    h = 1.0 / (m + 1)
    c = np.cos(np.pi * np.arange(1, m + 1) * h)
    mu_K = np.add.outer(2.0 - 2.0 * c, 2.0 - 2.0 * c)
    mu_M = np.multiply.outer(1.0 + c, 1.0 + c)
    mu_M += 2.0
    mu_M *= h * h / 6.0
    return mu_K, mu_M


def _check_lam(lam: float) -> None:
    """Every preconditioner divides by lam (or takes its square root)."""
    if not lam > 0:
        raise ValueError("lam must be positive")


def _blocks(state: np.ndarray, adjoint: np.ndarray, k: int) -> SpectralPrecond:
    """The block-diagonal preconditioner with the symbols of the (y, p)
    blocks of mode k, each repeated for its P parts: it multiplies by their
    reciprocals."""
    parts = mode_parts(k)
    return SpectralPrecond(1.0 / np.stack([state] * parts + [adjoint] * parts))


def _surrogate_inverse(
    problem: str, mats: ModeMatrices, k: int, lam: float, omega: float
) -> SpectralPrecond:
    """A~_k^{-1}, the inverse of the surrogate operator of mode k.

    Per frequency A~_k is H = [[a, b], [conj(b), -c]] on (y, p) in complex
    form, with a = mu_M (problem I) or mu_K (problem II), c = mu_M / lam and
    b = -nu mu_K - i k w sigma mu_M.  With its trace t = a - c and
    q = a c + |b|^2 > 0, minus its determinant, H^2 = t H + q I, so
    H^{-1} = (H - t I) / q.  The real form of H on the cosine and sine
    parts is the mode operator's coefficient blocks with K and M replaced by
    their symbols, and the formula holds for it unchanged: diag = -t / q
    and the coupling terms coef_K and coef_M with scales -(mu_K, mu_M) / q.
    """
    mu_K, mu_M = _grid_symbols(mats)
    coef_K, coef_M = mode_coefficients(problem, mats, k, lam, omega)

    def H(i, j):
        return coef_K[i, j] * mu_K + coef_M[i, j] * mu_M

    parts = mode_parts(k)
    a, c = H(0, 0), -H(-1, -1)
    # |b|^2 is the squared norm of the first row of the (y, p) block
    q = a * c + sum(H(0, j) ** 2 for j in range(parts, 2 * parts))
    return SpectralPrecond((c - a) / q, (coef_K, coef_M), (mu_K / -q, mu_M / -q))


def build_precond_I(
    mats: ModeMatrices, k: int, lam: float, omega: float, surrogate_inverse: bool
) -> SpectralPrecond:
    """Problem I: the paper's diag(D_k, D_k, D_k/lam, D_k/lam) with
    D_k = sqrt(lam) nu K + k w sqrt(lam) sigma M + M, or with
    `surrogate_inverse` the inverse A~_k^{-1} of the surrogate operator."""
    _check_lam(lam)
    if surrogate_inverse:
        return _surrogate_inverse("I", mats, k, lam, omega)
    mu_K, mu_M = _grid_symbols(mats)
    sq = np.sqrt(lam)
    D = sq * mats.nu * mu_K + (k * omega * sq * mats.sigma + 1.0) * mu_M
    return _blocks(D, D / lam, k)


def build_precond_II(
    mats: ModeMatrices,
    k: int,
    lam: float,
    omega: float,
    surrogate_inverse: bool,
    family: int = 0,
) -> SpectralPrecond:
    """Problem II: the paper's Schur-complement preconditioners (constant
    sigma, nu), or with `surrogate_inverse` the inverse A~_k^{-1} of the
    surrogate operator, for which `family` is not read.

    family 0: diag(K, K, S_k, S_k), S_k = nu K + M/lam + (k w sigma)^2 M K^{-1} M
    family 1: diag(R_k, R_k, M/lam, M/lam), R_k = K + (k w sigma)^2 lam M + nu^2 lam K M^{-1} K
    """
    _check_lam(lam)
    if family not in (0, 1):
        raise ValueError("family must be 0 or 1")
    if surrogate_inverse:
        return _surrogate_inverse("II", mats, k, lam, omega)
    mu_K, mu_M = _grid_symbols(mats)
    nu = mats.nu
    kws = k * omega * mats.sigma
    if family == 0:
        S = nu * mu_K + mu_M / lam + kws**2 * mu_M**2 / mu_K
        return _blocks(mu_K, S, k)
    R = mu_K + kws**2 * lam * mu_M + nu**2 * lam * mu_K**2 / mu_M
    return _blocks(R, mu_M / lam, k)


def minres(
    system: ModeSystem,
    precond: SpectralPrecond,
    tol: float,
    maxiter: int,
    scratch: Scratch,
    fixed_iters: int | None = None,
    start: np.ndarray | None = None,
) -> tuple[ModeSolution, SolveStats]:
    """Solve one mode system with the Krylov method that fits `precond`.

    The surrogate inverse A~_k^{-1} is indefinite, so it preconditions
    GMRES (`gmres_raw`), which stops when ||b - A x|| <= tol ||b||; the
    paper's `definite` preconditioners precondition MinRes (`minres_raw`),
    which stops on the residual in the preconditioner's norm.  Both stop
    after maxiter steps, or take exactly `fixed_iters` steps when given, and
    `SolveStats.relative_residual` is the ratio they stop on.  Their work
    vectors are lent by `scratch`.  GMRES starts from `start` (flat stacked
    unknowns, updated in place into the solution) when given, MinRes always
    from zero.
    """
    args = (system.matrix, system.rhs, precond, tol, maxiter, fixed_iters, scratch)
    if not precond.definite:
        x, stats = gmres_raw(*args, start)
    elif start is None:
        x, stats = minres_raw(*args)
    else:
        raise ValueError("only a GMRES solve takes a starting iterate")
    y, p = x.reshape(2, mode_parts(system.k), -1)
    return ModeSolution(system.k, y, p), stats


class SeedStart:
    """Starting iterates for later modes from the solutions of seed modes.

    Every mode has the same K and M, its operator is affine in
    kws = k omega sigma, and its right-hand side is the data's pair
    d = cosine + i sine coefficient times one load l.  In the complex form
    z = cosine part + i sine part the quarter turn is multiplication by
    i kws, so A_k is complex linear, and each equation of it applies K and
    M to each field with a complex coefficient (real for k = 0).  Mode k
    starts from x0 = (U_y a, U_p b): `fields` holds the rows of the seeds'
    state parts and of their adjoint parts, which are orthonormalized in
    place, kept rows first, into the `bases` U_y and U_p, and the complex
    coefficients a and b (real for k = 0) minimize ||b_k - A_k x0||.

    The residual of x0 is a combination F^T c of the rows
    F = (K U_y, M U_y, K U_p, M U_p, l), with c linear in (a, b) and d.
    Orthonormalizing F's rows gives F = C Q, so its norm is ||C^T c||, and a
    mode solves a dense least-squares problem of at most 68 rows and 16
    real unknowns, affine in k, for d = 1, and scales its minimizer by d.
    Every factorization here is Gram-Schmidt's, so no LAPACK routine but
    the small solves GMRES already makes is run.  The transient F is lent
    by `scratch`.
    """

    def __init__(self, problem: str, mats: ModeMatrices, lam: float, omega: float,
                 load: np.ndarray, fields: list, scratch: Scratch):
        self._size = load.size
        with scratch.lend(load.shape) as (term,):
            self.bases = [rows[: len(_orthonormalize(rows, term)[0])] for rows in fields]
            ranks = [len(u) for u in self.bases]
            depth = 2 * sum(ranks) + 1
            with scratch.lend((depth, load.size)) as (images,):
                at = 0
                for basis in self.bases:
                    if len(basis):
                        products = images[at : at + 2 * len(basis)].reshape((2,) + basis.shape)
                        mats.KM(basis, out=products, scratch=scratch)
                    at += 2 * len(basis)
                images[at] = load
                R = _orthonormalize(images, term)[1].T  # F^T c = Q^T R c
        # the (equation, field) couplings: each block's cosine entries, the
        # same for every mode, and its sine rows' at k = 1, the quarter turn
        # i kws per unit k; R T takes (a, b) to each equation's residual
        coefs = mode_coefficients(problem, mats, 1, lam, omega)
        products = []
        for couplings in ([c[::2, ::2] for c in coefs], [c[1::2, ::2] for c in coefs]):
            T = np.zeros((2, depth, sum(ranks)))
            row = col = 0
            for field, rank in enumerate(ranks):
                diag = np.arange(rank)
                for op, coupling in enumerate(couplings):
                    T[:, row + op * rank + diag, col + diag] = coupling[:, field, None]
                row, col = row + 2 * rank, col + rank
            products.append(R @ T)
        self._real, self._turn = products
        self._target = R[:, -1]  # the load's, in the first equation

    def fit(self, k: int) -> np.ndarray | None:
        """The coefficients (Re z, Im z), or z for k = 0, of mode k's start
        for the data pair d = 1, or None without seed rows or where they
        would leave a relative residual above START_CUT."""
        real, turn = self._real, self._turn
        if not real.shape[-1]:
            return None
        if k:
            # the real and imaginary parts of each equation over (Re z, Im z)
            equations, rows, unknowns = real.shape
            lhs = np.empty((equations, 2, rows, 2, unknowns))
            lhs[:, 0, :, 0] = lhs[:, 1, :, 1] = real
            lhs[:, 1, :, 0] = k * turn
            lhs[:, 0, :, 1] = -k * turn
            lhs = lhs.reshape(-1, 2 * unknowns)
        else:
            lhs = real.reshape(-1, real.shape[-1])
        rhs = np.zeros(len(lhs))
        rhs[: len(self._target)] = self._target
        columns = np.ascontiguousarray(lhs.T)
        kept, C = _orthonormalize(columns, np.empty(len(rhs)))
        q = columns[: len(kept)]
        projection = q @ rhs
        if not np.linalg.norm(rhs - projection @ q) <= START_CUT * np.linalg.norm(rhs):
            return None
        z = np.zeros(len(columns))
        z[kept] = np.linalg.solve(C[kept].T, projection)
        return z

    def __call__(self, k: int, coefs: np.ndarray) -> np.ndarray | None:
        """Mode k's start (flat stacked unknowns, a new array) for data
        coefficients `coefs` (P,), or None for zero data or where `fit`
        gives none."""
        z = self.fit(k) if np.any(coefs) else None
        if z is None:
            return None
        # times d: the cosine and sine parts of (Re z + i Im z) d, or z d for k = 0
        if k:
            z = np.array([[coefs[0], -coefs[1]], [coefs[1], coefs[0]]]) @ z.reshape(2, -1)
        else:
            z = coefs[:, None] * z
        x = np.empty((2, len(z), self._size))
        col = 0
        for out, basis in zip(x, self.bases):
            np.matmul(z[:, col : col + len(basis)], basis, out=out)
            col += len(basis)
        return x.reshape(-1)


def _orthonormalize(rows: np.ndarray, term: np.ndarray) -> tuple[list, np.ndarray]:
    """Orthonormalize the rows of `rows` (n, m) in place by classical
    Gram-Schmidt run twice, moving the kept rows to the front: a row whose
    part outside the rows kept before it is at most ORTHO_DROP of its norm
    is dropped.  Returns the indices of the kept rows and the coefficients
    C (n, r) with each row as it was equal to C's row times the r kept ones,
    but for the dropped parts; `term` (m,) takes the projections."""
    kept = []
    C = np.zeros((len(rows), len(rows)))
    for i in range(len(rows)):
        v = rows[len(kept)]
        if i > len(kept):
            v[:] = rows[i]
        size = np.sqrt(v @ v)
        basis = rows[: len(kept)]
        for _ in range(2):
            c = basis @ v
            C[i, : len(kept)] += c
            v -= np.matmul(c, basis, out=term)
        norm = np.sqrt(v @ v)
        if norm > ORTHO_DROP * size:
            v /= norm
            C[i, len(kept)] = norm
            kept.append(i)
    return kept, C[:, : len(kept)]


def gmres_raw(A, b, precond, tol, maxiter, fixed_iters, scratch, x0=None):
    """Right-preconditioned GMRES with modified Gram-Schmidt and Givens rotations.

    x = x0 + P u minimizes ||b - A x|| over the Krylov space of A P and
    r0 = b - A x0, with P = `precond.apply` and A called as the mode stencil
    is, A(v, out=, scratch=); x0 is zero when not given, and otherwise
    updated in place into x.  A start that already meets tol takes no step
    (unless `fixed_iters` asks for some).  A cycle ends when the rotated
    residual estimate drops below tol ||b|| or after GMRES_RESTART steps; x is then updated by
    sum_j y_j z_j from the products z_j = P v_j that the steps took, and the
    next cycle restarts from the true residual b - A x, until that meets
    tol, maxiter steps are spent or exactly `fixed_iters` steps (when not
    None) are taken.
    An invariant Krylov space (h_{j+1,j} = 0) ends the solve; it is a
    breakdown only if the residual is not small.

    Every work vector is lent by `scratch` only while it is live: step j
    lends z_j as it applies the preconditioner and v_{j+1} as the product
    that becomes it, both kept for the next cycle, and the vector taking
    the scaled terms of the Gram-Schmidt and x updates is lent around them
    alone.  So an s-step cycle holds v_0..v_s and z_0..z_{s-1}, and only x
    is new.
    """
    start = time.perf_counter()
    dim = b.shape[0]
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(dim), SolveStats(0, 0.0, time.perf_counter() - start, True, residuals=[0.0],
                                         start_residual=0.0)

    limit = fixed_iters if fixed_iters is not None else maxiter
    target = tol * bnorm
    eps = np.finfo(float).eps
    itn = 0
    invariant = False
    with ExitStack() as held:
        basis, images = [], []

        def held_vector(vectors: list, j: int) -> np.ndarray:
            """vectors[j], lent for the rest of the solve the first time a step
            needs it."""
            if j == len(vectors):
                vectors.append(held.enter_context(scratch.lend((dim,)))[0])
            return vectors[j]

        # the first residual
        if x0 is None:
            x = np.zeros(dim)
            np.copyto(held_vector(basis, 0), b)
            rnorm = bnorm
        else:
            x = x0
            r = held_vector(basis, 0)
            A(x, out=r, scratch=scratch)
            np.subtract(b, r, out=r)
            rnorm = float(np.linalg.norm(r))
        trace = [rnorm]
        start_residual = rnorm / bnorm
        met = fixed_iters is None and rnorm <= target
        while itn < limit and not invariant and not met:
            basis[0] /= rnorm
            # the Hessenberg matrix, reduced to upper triangular by the rotations
            R = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
            cs, sn = np.zeros(GMRES_RESTART), np.zeros(GMRES_RESTART)
            g = np.zeros(GMRES_RESTART + 1)
            g[0] = rnorm
            j = 0
            while j < GMRES_RESTART and itn < limit:
                z = held_vector(images, j)
                precond.apply(basis[j], out=z, scratch=scratch)
                w = held_vector(basis, j + 1)
                A(z, out=w, scratch=scratch)
                wnorm = np.linalg.norm(w)
                h = R[:, j]
                # `scaled` takes the in-place updates, so no step allocates one
                with scratch.lend((dim,)) as (scaled,):
                    for i, v in enumerate(basis[: j + 1]):
                        h[i] = np.dot(v, w)
                        w -= np.multiply(v, h[i], out=scaled)
                h[j + 1] = np.linalg.norm(w)
                for i in range(j):
                    h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
                invariant = h[j + 1] <= eps * wnorm
                rho = max(np.hypot(h[j], h[j + 1]), eps * wnorm)
                cs[j], sn[j] = h[j] / rho, h[j + 1] / rho
                next_norm = h[j + 1]
                h[j], h[j + 1] = rho, 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] *= cs[j]
                j += 1
                itn += 1
                trace.append(float(abs(g[j])))
                if invariant or (fixed_iters is None and abs(g[j]) <= target):
                    break
                if j < GMRES_RESTART and itn < limit:
                    w /= next_norm
            coef = np.linalg.solve(R[:j, :j], g[:j])
            with scratch.lend((dim,)) as (scaled,):
                for z, c in zip(images[:j], coef):
                    x += np.multiply(z, c, out=scaled)
            # the true residual b - A x, as the next cycle's first vector
            r = basis[0]
            A(x, out=r, scratch=scratch)
            np.subtract(b, r, out=r)
            rnorm = float(np.linalg.norm(r))
            met = fixed_iters is None and rnorm <= target

    relres = rnorm / bnorm
    breakdown = bool(invariant and relres > tol)
    converged = relres <= tol or (fixed_iters is not None and itn == fixed_iters)
    return x, SolveStats(
        iterations=itn,
        relative_residual=relres,
        wall_time=time.perf_counter() - start,
        converged=bool(converged and not breakdown),
        breakdown=breakdown,
        residuals=trace,
        start_residual=start_residual,
    )


def minres_raw(A, b, precond, tol, maxiter, fixed_iters, scratch):
    """Preconditioned MinRes (Paige and Saunders), with A called and the
    steps counted as in `gmres_raw`.  The products A v, the preconditioner
    applies, the direction vectors and the scaled terms of every update
    rotate through vectors lent by `scratch`, as do the buffers of A and of
    the transforms; only x is new."""
    start = time.perf_counter()
    n = b.shape[0]
    x = np.zeros(n)
    if n == 0:
        return x, SolveStats(0, 0.0, 0.0, True, residuals=[0.0], start_residual=0.0)

    limit = fixed_iters if fixed_iters is not None else maxiter
    eps = np.finfo(float).eps
    with scratch.lend(*[(n,)] * 8) as (applied, spare, r1, r2, v, w, w2, term):
        # applied: P r2, which the products A v never share; spare: the next
        # product A v, then the r1 it replaces (r1 is first read at step 2);
        # term: a scaled vector
        np.copyto(r2, b)
        y = precond.apply(r2, out=applied, scratch=scratch)
        beta1_sq = float(np.dot(r2, y))
        if beta1_sq < 0:
            raise ValueError("preconditioner is not positive definite")
        beta1 = np.sqrt(beta1_sq)
        trace = [beta1]
        if beta1 == 0.0:
            return x, SolveStats(0, 0.0, time.perf_counter() - start, True, residuals=trace,
                                 start_residual=0.0)

        oldb = 0.0
        beta = beta1
        tnorm = 0.0  # the largest entry of the Lanczos matrix so far, of A's scale
        dbar = epsln = 0.0
        phibar = beta1
        cs, sn = -1.0, 0.0
        w.fill(0.0)
        w2.fill(0.0)
        breakdown = False
        itn = 0
        while itn < limit:
            itn += 1
            np.divide(y, beta, out=v)
            y = A(v, out=spare, scratch=scratch)
            if itn >= 2:
                y -= np.multiply(r1, beta / oldb, out=term)
            alfa = float(np.dot(v, y))
            y -= np.multiply(r2, alfa / beta, out=term)
            r1, r2, spare = r2, y, r1
            y = precond.apply(r2, out=applied, scratch=scratch)
            oldb = beta
            beta_sq = float(np.dot(r2, y))
            if beta_sq < 0:
                raise ValueError("preconditioner is not positive definite")
            beta = np.sqrt(beta_sq)
            tnorm = max(tnorm, abs(alfa), beta)

            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln = sn * beta
            dbar = -cs * beta
            gamma = max(np.sqrt(gbar * gbar + beta * beta), eps)
            cs = gbar / gamma
            sn = beta / gamma
            phi = cs * phibar
            phibar = sn * phibar

            # w = (v - oldeps w1 - delta w2) / gamma, with w1 = w2 and w2 = w
            # of the step before, into the vector w1 no longer needs
            w1, w2 = w2, w
            w = np.multiply(w1, oldeps, out=w1)
            np.subtract(v, w, out=w)
            w -= np.multiply(w2, delta, out=term)
            w /= gamma
            x += np.multiply(w, phi, out=term)
            trace.append(abs(phibar))

            if fixed_iters is None and abs(phibar) <= tol * beta1:
                break
            if beta <= eps * tnorm:
                # Krylov space exhausted; converged if the residual is negligible
                breakdown = abs(phibar) > tol * beta1
                break

    relres = float(abs(phibar) / beta1)
    converged = relres <= tol or (fixed_iters is not None and itn == fixed_iters)
    return x, SolveStats(
        iterations=itn,
        relative_residual=relres,
        wall_time=time.perf_counter() - start,
        converged=bool(converged and not breakdown),
        breakdown=bool(breakdown),
        residuals=trace,
    )
