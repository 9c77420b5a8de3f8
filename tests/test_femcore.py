import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhbounds.cases import make_case
from mhbounds.femcore import (
    QUAD_BARY, QUAD_W, SAMPLE_ROWS, FemContext, Scratch, _add_to_corners, _stencil_bands, element_matrices,
    prolong,
)
from mhbounds.systems import ProblemParams, build_matrices, build_mode_system
import reference_assembly as ref
from reference_bounds import tri_rows, tri_scalars
from reference_systems import bands_csr, fresh_apply, full_matrices, stencil_csr


def test_single_interior_node_entries(ctx2):
    assert ctx2.K.shape == (1, 1)
    assert abs(stencil_csr(ctx2.K)[0, 0] - 4.0) < 1e-14
    assert abs(stencil_csr(ctx2.M)[0, 0] - 0.125) < 1e-14


def test_coefficient_scaling(ctx8, rng):
    # nu scales the state-adjoint coupling -nu K, sigma the time-derivative
    # coupling -k omega sigma M; apply the mode-1 operator to p_c alone
    mats = build_matrices(ctx8, sigma=3.0, nu=2.0)
    n = ctx8.K.shape[0]
    p = rng.standard_normal(n)
    system = build_mode_system(ProblemParams("II", 0.1, 1.0), mats, 1, np.zeros((2, n)))
    x = np.concatenate([np.zeros(2 * n), p, np.zeros(n)])
    y_c, y_s = fresh_apply(system.matrix, x)[: 2 * n].reshape(2, n)
    Kp, Mp = fresh_apply(ctx8.K, p), fresh_apply(ctx8.M, p)
    assert np.abs(y_c + 2 * Kp).max() < 1e-14 * np.abs(Kp).max()
    assert np.abs(y_s + 3 * Mp).max() < 1e-14 * np.abs(Mp).max()
    assert full_matrices(ctx8.mesh)[1].toarray().min() >= 0


@pytest.mark.parametrize("n", [2, 5, 40])
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_stiffness_and_mass_in_one_pass(n, parts, rng):
    # KM's product of stacked fields is K's, then M's, of each part, into a
    # lent view of a larger buffer as the seed start takes it; n = 40
    # applies the stencils in three bands of rows, the last one short
    ctx = FemContext(ref.build_mesh(n))
    v = rng.standard_normal((parts, ctx.K.shape[0]))
    K, M = stencil_csr(ctx.K), stencil_csr(ctx.M)
    rows = np.full((2 * parts + 2, v.shape[1]), np.nan)
    got = ctx.KM(v, out=rows[1 : 2 * parts + 1].reshape((2,) + v.shape), scratch=Scratch())
    assert np.isnan(rows[[0, -1]]).all()
    for q, part in enumerate(v):
        for product, A, single in ((got[0, q], K, ctx.K), (got[1, q], M, ctx.M)):
            expect = A @ part
            scale = np.abs(expect).max()
            assert np.abs(product - expect).max() <= 1e-14 * scale
            assert np.abs(product - fresh_apply(single, part)).max() <= 1e-14 * scale
    assert ctx.KM.nnz == ctx.K.nnz + ctx.M.nnz


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 32])
def test_stencils_match_scatter_assembly(n, rng):
    # n = 1 has no interior node and n = 2 one; n = 32 applies the stencils
    # in two bands of rows, the last one short
    mesh = ref.build_mesh(n)
    ctx = FemContext(mesh)
    # the interior CSR matrices of the stencil bands of the whole grid, and
    # those of the stencils' own weights
    interior = [bands_csr(_stencil_bands(a, n), 1, n) for a in element_matrices(mesh)]
    K_full, M_full = full_matrices(mesh)
    v = rng.standard_normal((3, ctx.K.shape[0]))
    for apply, A, B in [
        (ctx.K, interior[0], ref.assemble_stiffness(mesh)),
        (ctx.M, interior[1], ref.assemble_mass(mesh)),
    ]:
        expect = v @ B.toarray().T
        assert np.abs(fresh_apply(apply, v) - expect).max(initial=0) <= 1e-14 * np.abs(expect).max(initial=0)
        assert apply.nnz == A.nnz
        assert apply.shape == A.shape
        assert np.array_equal(stencil_csr(apply).toarray(), A.toarray())
    for A, B in [
        (interior[0], ref.assemble_stiffness(mesh)),
        (interior[1], ref.assemble_mass(mesh)),
        (K_full, ref.assemble_stiffness(mesh, full=True)),
        (M_full, ref.assemble_mass(mesh, full=True)),
    ]:
        a, b = A.toarray(), B.toarray()
        assert np.abs(a - b).max(initial=0) <= 1e-15 * np.abs(b).max(initial=0)
        assert np.all(A.data != 0)
        assert A.has_sorted_indices and A.has_canonical_format
        assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32


def test_constants_in_stiffness_kernel(ctx16):
    ones = np.ones(ctx16.mesh.num_nodes)
    K_full, M_full = full_matrices(ctx16.mesh)
    assert np.abs(K_full @ ones).max() < 1e-13
    # partition of unity: total mass is the domain area
    assert abs(ones @ (M_full @ ones) - 1.0) < 1e-13


def test_symmetry_and_definiteness(ctx16, rng):
    for A in (stencil_csr(ctx16.K), stencil_csr(ctx16.M)):
        d = abs(A - A.T)
        assert d.max() < 1e-14
        for _ in range(100):
            v = rng.standard_normal(A.shape[0])
            assert v @ (A @ v) > 0


def _gradient_load(ctx, g):
    """Load vector (g, grad phi_i) of vector data g."""
    return ctx.project_data(g, vector=True)[0]


def test_load_vectors(ctx2, ctx16):
    zero = ctx16.load(lambda x, y: np.zeros_like(x))
    assert np.all(zero == 0)
    const = ctx16.load(lambda x, y: np.ones_like(x))
    assert np.allclose(const, ctx16.mesh.h**2, atol=1e-15)
    assert ctx2.load(lambda x, y: np.ones_like(x)).shape == (1,)
    g = _gradient_load(ctx2, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert g.shape == (1,)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_sliced_loads_match_add_at(n, rng):
    # per-triangle load terms added onto the node grid in place, in blocks
    # of 1, 3 and 16 cell rows, against np.add.at over the triangles
    mesh = ref.build_mesh(n)
    ctx = FemContext(mesh)
    values = rng.standard_normal(ref.quadrature_weights(ctx).shape)
    vectors = rng.standard_normal(ref.quadrature_weights(ctx).shape + (2,))
    for terms, expect in [
        (ref.load_terms(ctx, values), ref.load_from_qp(mesh, values)),
        (ref.gradient_load_terms(ctx, vectors), ref.gradient_load_from_qp(mesh, vectors)),
    ]:
        planes = ref.class_planes(terms, n)
        for rows in (1, 3, 16):
            nodes = np.zeros((n + 1, n + 1))
            for start in range(0, n, rows):
                _add_to_corners(nodes, planes[..., start : start + rows, :], start)
            got = nodes[1:-1, 1:-1].ravel()
            assert got.shape == expect.shape
            assert np.abs(got - expect).max(initial=0) <= 1e-14 * np.abs(expect).max(initial=0)


def test_rayleigh_quotient_eigenfunction():
    m = ref.build_mesh(64)
    ctx = FemContext(m)
    v = ctx.load(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    rq = (v @ fresh_apply(ctx.K, v)) / (v @ fresh_apply(ctx.M, v))
    assert abs(rq - 2 * np.pi**2) / (2 * np.pi**2) < 0.005


def test_gradient_load(ctx16):
    zero = _gradient_load(ctx16, lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    assert np.all(zero == 0)

    def grad_ss(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    g = _gradient_load(ctx16, grad_ss)
    interp = ref.interpolate(ctx16, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    K_full = full_matrices(ctx16.mesh)[0]
    expect = (K_full @ interp)[ctx16.mesh.interior_nodes]
    assert np.abs(g - expect).max() < 10 * ctx16.mesh.h**2


def test_gradient_load_symmetry_cancellation(ctx2):
    g = _gradient_load(ctx2, lambda x, y: (np.ones_like(x), np.ones_like(x)))
    assert np.abs(g).max() < 1e-15


def test_gradient_load_order(rng):
    # against the stiffness-times-interpolant oracle, refining once
    errs = []
    for n in (8, 16):
        ctx = FemContext(ref.build_mesh(n))

        def grad_ss(x, y):
            return (
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            )

        g = _gradient_load(ctx, grad_ss)
        interp = ref.interpolate(ctx, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        expect = (full_matrices(ctx.mesh)[0] @ interp)[ctx.mesh.interior_nodes]
        errs.append(np.abs(g - expect).max())
    assert errs[1] < errs[0] / 3.0  # observed order about 2


def test_norm_descriptors(ctx8, rng):
    assert abs(ref.l2_norm_squared(ctx8, ("const", 1.0)) - 1.0) < 1e-15
    x_interp = ref.interpolate(ctx8, lambda x, y: x)
    assert abs(ref.l2_norm_squared(ctx8, ("p1", x_interp)) - 1.0 / 3.0) < 1e-14
    v = rng.standard_normal(ctx8.mesh.num_nodes)
    assert abs(ref.l2_norm_squared(ctx8, ("p1", v)) - v @ (full_matrices(ctx8.mesh)[1] @ v)) < 1e-13
    with pytest.raises(ValueError):
        ref.l2_norm_squared(ctx8, ("qp", np.ones_like(ref.quadrature_weights(ctx8)), 3))
    with pytest.raises(ValueError):
        ref.l2_norm_squared(ctx8, ("mystery", None))


def test_galerkin_consistency_order():
    # u^T K u -> integral of |grad u|^2 at second order
    exact = np.pi**2 / 2  # for sin(pi x) sin(pi y)
    errs = []
    for n in (8, 16, 32):
        ctx = FemContext(ref.build_mesh(n))
        u = ref.interpolate(ctx, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        errs.append(abs(u @ (full_matrices(ctx.mesh)[0] @ u) - exact))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 1.8


def test_p1_eval_and_prolong(rng):
    coarse = ref.build_mesh(4)
    fine = ref.build_mesh(8)
    v = rng.standard_normal(coarse.num_nodes)
    grid = v.reshape(5, 5)
    # exact at the coarse nodes themselves
    assert np.allclose(ref.p1_eval_at(grid, coarse.nodes[:, 0], coarse.nodes[:, 1]), v, atol=1e-14)
    # the fine grid's axes give its nodes, in the mesh's numbering
    w = prolong(grid, 8).ravel()
    assert np.array_equal(w, ref.p1_eval_at(grid, fine.nodes[:, 0], fine.nodes[:, 1]))
    # nested prolongation preserves integrals of the field exactly
    (K_c, M_c), (K_f, M_f) = full_matrices(coarse), full_matrices(fine)
    ones_c = np.ones(coarse.num_nodes)
    ones_f = np.ones(fine.num_nodes)
    assert abs(v @ (M_c @ ones_c) - w @ (M_f @ ones_f)) < 1e-14
    assert abs(v @ (K_c @ v) - w @ (K_f @ w)) < 1e-12
    # stacked fields are prolonged one by one
    stacked = rng.standard_normal((2, 5, 5))
    assert np.array_equal(prolong(stacked, 8)[1], prolong(stacked[1], 8))
    # the row-then-column takes gather what the 2-D fancy index does, also
    # onto a grid that is not nested
    for n, n_fine in ((8, 16), (8, 12), (64, 128)):
        grid = rng.standard_normal((2, n + 1, n + 1))
        axis = np.arange(n_fine + 1) * (1.0 / n_fine)
        assert np.array_equal(prolong(grid, n_fine), ref.p1_eval_at(grid, axis[None, :], axis[:, None]))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_node_grid_corners_match_triangle_gather(n, rng):
    # the node grid holds the all-node field in the mesh's node numbering,
    # and summing per-vertex triangle values onto it is the transpose of
    # the triangles gather
    ctx = FemContext(ref.build_mesh(n))
    mesh = ctx.mesh
    v_int = rng.standard_normal((2, mesh.num_interior))
    expect = np.stack([ref.to_full(ctx, v) for v in v_int])
    assert np.array_equal(ctx.node_grid(v_int).reshape(expect.shape), expect)
    values = rng.standard_normal((2, mesh.num_triangles, 3))
    expect = np.zeros((2, mesh.num_nodes))
    for part in range(2):
        np.add.at(expect[part], mesh.triangles, values[part])
    got = ref.add_cell_corners(values.reshape(2, n, n, 2, 3), n).reshape(expect.shape)
    assert np.allclose(got, expect, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cell_gradients_match_class_maps(n, rng):
    ctx = FemContext(ref.build_mesh(n))
    v_int = rng.standard_normal((2, ctx.mesh.num_interior))
    expect = np.stack([ref.p1_grad(ctx, ref.to_full(ctx, v)) for v in v_int])
    got = ref.cell_gradients(ctx.mesh, ctx.node_grid(v_int))
    assert np.allclose(tri_rows(got), expect, rtol=0, atol=1e-13 * n)


@pytest.mark.parametrize("n", [1, 4])
def test_class_maps_match_per_triangle_geometry(n, rng):
    ctx = FemContext(ref.build_mesh(n))
    mesh = ctx.mesh
    grads, area = ref.tri_geometry(mesh)
    corners = mesh.nodes[mesh.triangles]
    centroid = corners.mean(axis=1, keepdims=True)
    qp = ref.quadrature_points(mesh)
    cls = np.arange(mesh.num_triangles) % 2
    # every triangle's geometry is its class's
    assert np.allclose(grads, ctx.class_grads[cls], rtol=0, atol=1e-12 * n)
    assert np.allclose(area, mesh.tri_area, rtol=1e-14, atol=0)
    assert np.allclose(ref.quadrature_weights(ctx), area[:, None] * QUAD_W, rtol=1e-14, atol=0)
    # the data are sampled at the class planes (2, Q, R, n) of the points
    # of each block of cell rows
    blocks = []
    ctx.load(lambda x, y: blocks.append(np.broadcast_arrays(x, y)) or x)
    points = np.stack([np.concatenate(axis, axis=-2) for axis in zip(*blocks)], axis=-1)
    expect = np.moveaxis(ref.class_planes(np.moveaxis(qp, -1, 0), n), 0, -1)
    assert np.allclose(points, expect, rtol=0, atol=1e-15)
    points = np.stack([ref.data_at_qp(ctx, lambda x, y: x), ref.data_at_qp(ctx, lambda x, y: y)], axis=-1)
    assert np.allclose(points, qp, rtol=0, atol=1e-15)
    assert np.allclose(ref.data_at_qp(ctx, lambda x, y: (x, y)), qp, rtol=0, atol=1e-15)
    assert np.allclose(qp - centroid, ctx.class_qp_offsets[cls], rtol=0, atol=1e-14)
    # per_class applies the class map row by row
    vert = rng.standard_normal((3, mesh.num_triangles, 3))
    expect = np.einsum("ptk,tkd->ptd", vert, grads)
    assert np.allclose(ref.per_class(vert, ctx.class_grads), expect, rtol=1e-13, atol=1e-13 * n)
    w = rng.standard_normal(mesh.num_nodes)
    expect = np.einsum("tk,tkd->td", w[mesh.triangles], grads)
    assert np.allclose(ref.p1_grad(ctx, w), expect, rtol=1e-13, atol=1e-13 * n)
    # mean of |x - c|^2 over a triangle is (sum of squared sides) / 36,
    # h^2 / 9 for the right isosceles triangles with legs h
    assert abs(ctx.offset_moment - mesh.h**2 / 9) < 1e-15


def test_exact_p1_norm_matches_mass_matrix(ctx8, rng):
    from mhbounds.bounds import _p1_norm2

    v = rng.standard_normal((2, ctx8.mesh.num_interior))
    expect = sum(float(u @ fresh_apply(ctx8.M, u)) for u in v)
    grid = ctx8.node_grid(v)
    n = ctx8.mesh.n
    work = np.empty((2, 2, n, n))
    assert abs(_p1_norm2(ctx8, grid, work) - expect) < 1e-13 * expect
    # a per-triangle shift and discontinuous vertex values, against the
    # quadrature of the same P1 field
    shift = rng.standard_normal((2, 2, n, n))
    vert = rng.standard_normal((2, 2, 3, n, n))
    values = grid.reshape(2, -1)[:, ctx8.mesh.triangles] + tri_scalars(shift)[..., None] - tri_rows(vert)
    expect = sum(ref.norm2(ctx8, part @ QUAD_BARY.T) for part in values)
    assert abs(_p1_norm2(ctx8, grid, work, shift, vert) - expect) < 1e-13 * expect


def _sampled(ctx, values):
    """A data callable that returns the given samples, (T, Q) or (T, Q, 2)
    in the triangle numbering, at the quadrature points `FemContext` asks
    for, one block of cell rows at a time, as class planes (2, Q, R, n);
    the row of a point is that of its cell origin."""
    n, h = ctx.mesh.n, ctx.mesh.h
    planes = np.moveaxis(values.reshape((n, n, 2, len(QUAD_W)) + values.shape[2:]), (0, 1), (2, 3))

    def f(x, y):
        block = planes[:, :, np.floor(y[0, 0, :, 0] / h).astype(int)]
        return block if block.ndim == 4 else (block[..., 0], block[..., 1])

    return f


def _assert_close(got, expect, rtol, scale=None):
    scale = np.abs(expect).max(initial=0) if scale is None else scale
    assert got.shape == expect.shape
    assert np.abs(got - expect).max(initial=0) <= rtol * scale


def _assert_projection_matches_reference(ctx, f, vector, samples):
    """`project_data` of data f against the separate passes of the reference
    over its samples in the triangle numbering: the load vector and the
    planes to 1e-12 of their size, rest to 1e-10 of itself above the
    rounding floor of the samples' norm, where the projection is exact."""
    mesh = ctx.mesh
    load, planes, rest = ctx.project_data(f, vector)
    if vector:
        vectors = samples
        mean, div = planes
        expect_mean, expect_div, expect_rest = ref.project_rt0(ctx, vectors)
        _assert_close(load, ref.gradient_load_from_qp(mesh, vectors), 1e-12)
        _assert_close(mean, expect_mean, 1e-12)
        # the divergence times h is the size of the slope's part of the field
        scale = max(np.abs(expect_div).max(), np.abs(expect_mean).max() * mesh.n)
        _assert_close(div, expect_div, 1e-12, scale)
        floor = ref.vec_norm2(ctx, vectors)
    else:
        values = samples
        expect_vert, expect_rest = ref.project_p1(ctx, values)
        expect_load = ref.load_from_qp(mesh, values)
        _assert_close(load, expect_load, 1e-12)
        _assert_close(ctx.load(f), expect_load, 1e-12)
        _assert_close(planes[0], expect_vert, 1e-12)
        floor = ref.norm2(ctx, values)
    assert rest >= 0
    assert abs(rest - expect_rest) <= 1e-10 * expect_rest + 1e-28 * floor


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 5, 40, 70]), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_fused_projection_matches_reference(n, seed, scale):
    # n = 70 ends in a partial block of cell rows
    assert 70 % SAMPLE_ROWS
    ctx = FemContext(ref.build_mesh(n))
    rng = np.random.default_rng(seed)
    shape = ref.quadrature_weights(ctx).shape
    for vector, values in [(False, rng.standard_normal(shape)), (True, rng.standard_normal(shape + (2,)))]:
        _assert_projection_matches_reference(ctx, _sampled(ctx, scale * values), vector, scale * values)


@pytest.mark.parametrize("n", [40, 70])
@pytest.mark.parametrize("example", [1, 3, 4, 6])
def test_fused_projection_of_example_data(n, example):
    # the indicator data of examples 3 and 6 change only across mesh lines,
    # so their projections are exact: rest and divergence are rounding
    case = make_case(example)
    ctx = FemContext(ref.build_mesh(n))
    _assert_projection_matches_reference(ctx, case.profile, case.problem == "II", ref.data_at_qp(ctx, case.profile))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), parts=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_projections_leave_orthogonal_remainder(n, parts, seed, scale):
    # the remainder of each per-triangle projection has zero moments against
    # local P1 (problem I) and local RT0 (problem II), so the squared
    # quadrature norm splits into the projection's exact norm plus it
    from mhbounds.bounds import _p1_norm2, _rt0_norm2

    ctx = FemContext(ref.build_mesh(n))
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((parts,) + ref.quadrature_weights(ctx).shape)
    vert, rest = (np.stack(a) for a in zip(*(
        (vert, rest)
        for _, (vert,), rest in (ctx.project_data(_sampled(ctx, part), vector=False) for part in values)
    )))
    remainder = values - tri_rows(vert) @ QUAD_BARY.T
    moments = (remainder * ref.quadrature_weights(ctx)) @ QUAD_BARY
    total = sum(ref.norm2(ctx, part) for part in values)
    assert np.abs(moments).max() <= 1e-13 * np.sqrt(total * ctx.mesh.tri_area)
    assert np.allclose(rest, [ref.norm2(ctx, part) for part in remainder], rtol=1e-13, atol=0)
    exact = _p1_norm2(ctx, np.zeros((parts, n + 1, n + 1)), np.empty((2, parts, n, n)), vert=vert)
    assert abs(exact + rest.sum() - total) <= 1e-13 * total

    vectors = scale * rng.standard_normal((parts,) + ref.quadrature_weights(ctx).shape + (2,))
    mean, div, rest = (np.stack(a) for a in zip(*(
        (mean, div, rest)
        for _, (mean, div), rest in (ctx.project_data(_sampled(ctx, part), vector=True) for part in vectors)
    )))
    points = ref.quadrature_points(ctx.mesh)
    offsets = points - points.mean(axis=1, keepdims=True)
    projection = tri_rows(mean)[..., None, :] + 0.5 * tri_scalars(div)[..., None, None] * offsets
    remainder = vectors - projection
    weights = ref.quadrature_weights(ctx)[..., None]
    total = sum(ref.vec_norm2(ctx, part) for part in vectors)
    bound = 1e-13 * np.sqrt(total * ctx.mesh.tri_area)
    assert np.abs((remainder * weights).sum(axis=-2)).max() <= bound
    assert np.abs((remainder * offsets * weights).sum(axis=(-2, -1))).max() <= bound * ctx.mesh.h
    assert np.allclose(rest, [ref.vec_norm2(ctx, part) for part in remainder], rtol=1e-13, atol=0)
    assert abs(_rt0_norm2(ctx, mean, div) + rest.sum() - total) <= 1e-13 * total


def test_scratch_lends_disjoint_views_and_reuses_them():
    scratch = Scratch()
    with scratch.lend((3, 4), (5,)) as (a, b):
        with scratch.lend((100,)) as (c,):  # larger than the first block
            views = [a, b, c]
            for i, view in enumerate(views):
                view[...] = i
            assert [np.all(view == i) for i, view in enumerate(views)] == [True] * 3
            assert not any(np.shares_memory(x, y) for i, x in enumerate(views) for y in views[i + 1:])
        blocks = list(scratch._blocks)
    # given back, the same memory is lent again, and no block is replaced
    with scratch.lend((3, 4)) as (again,):
        assert np.shares_memory(again, a)
    with scratch.lend((12,), (100,)) as (_, big):
        assert np.shares_memory(big, c)
    assert all(x is y for x, y in zip(scratch._blocks, blocks))


@pytest.mark.parametrize("n", [2, 3, 16, 40])
def test_stencil_product_into_lent_buffers(n, rng):
    # a product written to `out` with the padded grid lent by a scratch that
    # holds stale values equals the product in a fresh scratch, for scalar
    # and block stencils, stacked and flat
    ctx = FemContext(ref.build_mesh(n))
    mats = build_matrices(ctx)
    m2 = ctx.K.shape[0]
    system = build_mode_system(ProblemParams("II", 0.1, 1.0), mats, 1, np.zeros((2, m2)))
    scratch = Scratch()
    with scratch.lend((4 * m2 + 8 * (n + 1) ** 2,)) as (stale,):
        stale[...] = np.nan
    for op, v in ((ctx.M, rng.standard_normal((2, m2))), (ctx.K, rng.standard_normal(m2)),
                  (system.matrix, rng.standard_normal(4 * m2))):
        out = np.empty_like(v)
        assert op(v, out=out, scratch=scratch) is out
        assert np.array_equal(out, op(v, out=np.empty_like(v), scratch=Scratch()))
