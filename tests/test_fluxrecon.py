"""The sliced `GridFlux` fluxes against the edge-numbered RT0 reference."""

import numpy as np
import pytest

from mhbounds import fluxrecon
from mhbounds.femcore import FemContext
from mhbounds.mesh import CLASS_CORNERS, CLASS_EDGE_SIGN
from reference_assembly import build_mesh, class_planes, interpolate, p1_grad, quadrature_points, vec_norm2
from reference_bounds import (
    _match_boundary_divergence, edge_coeffs, edge_planes, rt0_at_points, rt0_divergence, rt0_from_callable,
    rt0_reconstruct, tri_rows, tri_scalars,
)


def _averaged(ctx, w_full, nu=1.0):
    """Edge coefficients (E,) of the GridFlux average of nu * grad(w), w a nodal P1 field."""
    grads = nu * p1_grad(ctx, w_full)
    return edge_coeffs(ctx.mesh, fluxrecon.grid_average(ctx.mesh, class_planes(grads, ctx.mesh.n)))


def _affine_form(ctx, flux):
    """`grid_affine_form` of a flux on R cell rows, into fresh buffers."""
    lead, (rows, n) = flux.diag.shape[:-2], flux.diag.shape[-2:]
    out = np.empty(lead + (2, 2, rows, n)), np.empty(lead + (2, rows, n))
    return fluxrecon.grid_affine_form(ctx.mesh, flux, out)


def _divergence(ctx, coeffs):
    """Per-triangle divergences (..., T) of edge coefficients (..., E), by `grid_affine_form`."""
    return tri_scalars(_affine_form(ctx, edge_planes(ctx.mesh, coeffs))[1])


def normal_jumps(mesh, coeffs):
    """Mismatch of the normal component across interior edges (should be 0),
    from the field of each adjacent triangle at the edge midpoint."""
    mid = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
    values = rt0_at_points(mesh, coeffs, mid[mesh.tri_edges])  # (T, 3, 2)
    traces = np.einsum("tkd,tkd->tk", values, mesh.edge_normal[mesh.tri_edges])
    first = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.num_triangles)[:, None]
    jumps = np.zeros(mesh.num_edges)
    np.add.at(jumps, mesh.tri_edges, np.where(first, traces, -traces))
    return jumps[mesh.edge_tris[:, 1] >= 0]


def test_linear_potential_exact(ctx8):
    mesh = ctx8.mesh
    w = 0.3 + 1.7 * mesh.nodes[:, 0] - 0.9 * mesh.nodes[:, 1]
    tau = _averaged(ctx8, w, nu=2.0)
    grad = 2.0 * p1_grad(ctx8, w)
    err = rt0_at_points(mesh, tau, quadrature_points(mesh)) - grad[:, None, :]
    assert np.abs(err).max() < 1e-13
    assert np.abs(_divergence(ctx8, tau)).max() < 1e-11


def test_boundary_edge_one_sided(ctx8, rng):
    mesh = ctx8.mesh
    w = rng.standard_normal(mesh.num_nodes)
    tau = _averaged(ctx8, w)
    grads = p1_grad(ctx8, w)
    boundary = np.flatnonzero(mesh.edge_tris[:, 1] < 0)
    for e in boundary:
        t = mesh.edge_tris[e, 0]
        expect = grads[t] @ mesh.edge_normal[e] * mesh.edge_length[e]
        assert abs(tau[e] - expect) < 1e-14 * max(abs(expect), 1.0)


def test_single_edge_divergence(ctx8):
    mesh8 = ctx8.mesh
    coeffs = np.zeros(mesh8.num_edges)
    interior = np.flatnonzero(mesh8.edge_tris[:, 1] >= 0)
    e = interior[7]
    coeffs[e] = 1.0
    div = _divergence(ctx8, coeffs)
    area = 0.5 * mesh8.h**2
    t0, t1 = mesh8.edge_tris[e]
    vals = sorted([div[t0], div[t1]])
    assert abs(vals[0] + 1 / area) < 1e-10 and abs(vals[1] - 1 / area) < 1e-10
    others = np.delete(div, [t0, t1])
    assert np.abs(others).max() == 0.0


def test_gauss_identity_per_triangle(ctx8, rng):
    # integral of the divergence equals the boundary flux, edge by edge
    mesh = ctx8.mesh
    coeffs = rng.standard_normal(mesh.num_edges)
    div = _divergence(ctx8, coeffs)
    area = 0.5 * mesh.h**2
    signed = (coeffs[mesh.tri_edges] * mesh.tri_edge_sign).sum(axis=1)
    assert np.abs(div * area - signed).max() < 1e-13
    # and the representation's normal flux integrates to the coefficient:
    # on edge e the normal component is coeffs[e]/length, constant
    mid = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
    for e in rng.integers(0, mesh.num_edges, size=10):
        t = mesh.edge_tris[e, 0]
        val = rt0_at_points(mesh, coeffs, mid[e][None, None, :].repeat(mesh.num_triangles, 0))[t, 0]
        assert abs(val @ mesh.edge_normal[e] * mesh.edge_length[e] - coeffs[e]) < 1e-12


def test_affine_form_matches_pointwise_evaluation(ctx8, rng):
    # tau(c) + div/2 (x - c) reproduces the RT0 field at every quadrature
    # point, for stacked fields
    mesh = ctx8.mesh
    coeffs = rng.standard_normal((2, mesh.num_edges))
    centre, div = _affine_form(ctx8, edge_planes(mesh, coeffs))
    centre, div = tri_rows(centre), tri_scalars(div)
    offsets = quadrature_points(mesh) - quadrature_points(mesh).mean(axis=1, keepdims=True)
    for part in range(2):
        expect = rt0_at_points(mesh, coeffs[part], quadrature_points(mesh))
        got = centre[part][:, None, :] + 0.5 * div[part][:, None, None] * offsets
        assert np.abs(got - expect).max() < 1e-12 * np.abs(expect).max()


def test_stacked_reconstruction_matches_single(ctx8, rng):
    fields = class_planes(rng.standard_normal((2, ctx8.mesh.num_triangles, 2)), 8)
    stacked = fluxrecon.grid_average(ctx8.mesh, fields)
    for part in range(2):
        single = fluxrecon.grid_average(ctx8.mesh, fields[part])
        for a, b in zip((stacked.horiz, stacked.vert, stacked.diag), (single.horiz, single.vert, single.diag)):
            assert np.array_equal(a[part], b)


def test_normal_continuity(ctx8, rng):
    w = rng.standard_normal(ctx8.mesh.num_nodes)
    assert np.abs(normal_jumps(ctx8.mesh, _averaged(ctx8, w))).max() < 1e-13


def test_reconstruction_convergence():
    errs = []
    for n in (8, 16, 32):
        ctx = FemContext(build_mesh(n))
        w = interpolate(ctx, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        tau = _averaged(ctx, w)
        grad = p1_grad(ctx, w)
        errs.append(np.sqrt(vec_norm2(ctx, rt0_at_points(ctx.mesh, tau, quadrature_points(ctx.mesh)) - grad[:, None, :])))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 0.9


def test_callable_dofs_constant_field(mesh8):
    flux = fluxrecon.grid_from_callable(mesh8, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -1.0)))
    expect = (2.0 * mesh8.edge_normal[:, 0] - mesh8.edge_normal[:, 1]) * mesh8.edge_length
    assert np.abs(edge_coeffs(mesh8, flux) - expect).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_grid_fluxes_match_edge_arrays(n, rng):
    # the sliced path against the edge-numbered, gather-based reference:
    # averaged fluxes of stacked fields, their per-triangle form, the data
    # edge fluxes of both kinds, and the boundary divergence match
    mesh = build_mesh(n)
    ctx = FemContext(mesh)
    fields = rng.standard_normal((2, mesh.num_triangles, 2))
    grid = fluxrecon.grid_average(mesh, class_planes(fields, n))
    coeffs = np.stack([rt0_reconstruct(mesh, part) for part in fields])
    _assert_planes_equal(grid, edge_planes(mesh, coeffs))
    centre, div = _affine_form(ctx, grid)
    centroids = quadrature_points(mesh)[:, :1]  # the first point of the rule
    expect_centre = np.stack([rt0_at_points(mesh, part, centroids)[:, 0] for part in coeffs])
    expect_div = np.stack([rt0_divergence(mesh, part) for part in coeffs])
    assert np.abs(tri_rows(centre) - expect_centre).max() <= 1e-13 * np.abs(expect_centre).max()
    assert np.abs(tri_scalars(div) - expect_div).max() <= 1e-13 * np.abs(expect_div).max()

    def g(x, y):
        return np.cos(3 * x) * np.sin(2 * y), x * x - y

    _assert_planes_equal(fluxrecon.grid_from_callable(mesh, g), edge_planes(mesh, rt0_from_callable(mesh, g)))
    constant = fluxrecon.grid_from_callable(mesh, lambda x, y: (2.0, -1.0))
    _assert_planes_equal(constant, edge_planes(mesh, rt0_from_callable(mesh, lambda x, y: (2.0, -1.0))))

    target = rng.standard_normal((2, 2, n, n))
    coeffs = rng.standard_normal((2, mesh.num_edges))
    grid = edge_planes(mesh, coeffs)
    fluxrecon.grid_match_boundary_divergence(mesh, grid, target, slice(None))
    for part in range(2):
        _match_boundary_divergence(mesh, coeffs[part], tri_scalars(target[part]))
    _assert_planes_equal(grid, edge_planes(mesh, coeffs))
    # every boundary triangle, the two corner ones included, hits its target
    div = _affine_form(ctx, grid)[1]
    corners = [(0, 0, n - 1), (1, n - 1, 0)]
    for cls, r, c in corners + [(0, 0, 0), (1, n - 1, n - 1), (0, n // 2, n - 1), (1, n // 2, 0)]:
        assert np.allclose(div[:, cls, r, c], target[:, cls, r, c], rtol=1e-12, atol=1e-12)


def _assert_planes_equal(got, expect):
    for a, b in zip((got.horiz, got.vert, got.diag), (expect.horiz, expect.vert, expect.diag)):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0) <= 1e-14 * max(np.abs(b).max(initial=0), 1.0)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("rows", [1, 2, 5])
def test_fluxes_in_row_blocks_match_whole_grid(n, rows, rng):
    # averaging, the boundary divergence match and the per-triangle form,
    # block by block of cell rows, give the whole-grid planes; every
    # boundary triangle, the two corner ones included, hits its target
    ctx = FemContext(build_mesh(n))
    mesh = ctx.mesh
    field = rng.standard_normal((2, 2, 2, n, n))
    target = rng.standard_normal((2, 2, n, n))
    whole = fluxrecon.grid_average(mesh, field)
    fluxrecon.grid_match_boundary_divergence(mesh, whole, target, slice(None))
    centre, div = _affine_form(ctx, whole)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block = slice(r0, r1)
        read = slice(max(r0 - 1, 0), min(r1 + 1, n))  # the block and its halo
        flux = fluxrecon.grid_average(mesh, field[..., read, :], block)
        fluxrecon.grid_match_boundary_divergence(mesh, flux, target[..., block, :], block)
        expect = fluxrecon.GridFlux(whole.horiz[:, r0 : r1 + 1], whole.vert[:, block], whole.diag[:, block])
        _assert_planes_equal(flux, expect)
        got_centre, got_div = _affine_form(ctx, flux)
        assert np.abs(got_centre - centre[..., block, :]).max() <= 1e-14 * np.abs(centre).max()
        assert np.abs(got_div - div[..., block, :]).max() <= 1e-14 * np.abs(div).max()
    corners = [(0, 0, n - 1), (1, n - 1, 0)]
    for cls, r, c in corners + [(0, 0, 0), (1, n - 1, n - 1), (0, n // 2, n - 1), (1, n // 2, 0)]:
        assert np.allclose(div[:, cls, r, c], target[:, cls, r, c], rtol=1e-12, atol=1e-12)


def _affine_form_by_basis(mesh, flux):
    """The per-triangle form (centre, div) of RT0 fields on R cell rows, a
    sum over the RT0 basis functions: the one with unit outward flux through
    the edge opposite local vertex i has centroid value (c - P_i) / (2 A)
    and divergence 1 / A."""
    corners = mesh.h * np.array(CLASS_CORNERS, dtype=float)[..., ::-1]  # (x, y) = h (column, row)
    basis = (corners.mean(axis=1, keepdims=True) - corners) / (2 * mesh.tri_area)
    lead, (rows, n) = flux.diag.shape[:-2], flux.diag.shape[-2:]
    centre, div = np.zeros(lead + (2, 2, rows, n)), np.zeros(lead + (2, rows, n))
    for cls, planes in enumerate(flux.outward()):
        for plane, sign, value in zip(planes, CLASS_EDGE_SIGN[cls], basis[cls]):
            centre[..., cls, 0, :, :] += sign * value[0] * plane
            centre[..., cls, 1, :, :] += sign * value[1] * plane
            div[..., cls, :, :] += sign / mesh.tri_area * plane
    return centre, div


def _average_chain(ctx, grid, rows, nu):
    """The form of avg(nu grad u) - nu grad u per triangle of the cell rows
    `rows`, the way the jump form replaced: the gradients of the node rows
    `grid` (the block's and one cell row's on each side), their edge
    average, its form by the basis, minus the block's gradients."""
    n = ctx.mesh.n
    first = max(rows.start - 1, 0)
    grads = nu * ctx.cell_gradients(grid, np.empty(grid.shape[:-2] + (2, 2, grid.shape[-2] - 1, n)))
    centre, div = _affine_form_by_basis(ctx.mesh, fluxrecon.grid_average(ctx.mesh, grads, rows))
    return centre - grads[..., rows.start - first : rows.stop - first, :], div


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("parts", [1, 2])
def test_jump_form_matches_average_chain(n, parts):
    # tau - nu grad u from the normal-gradient jumps against the average ->
    # form -> subtract chain, on every block of every block height 1..n
    # that the bound evaluation's row blocks can take (BOUND_CELLS // n
    # rows), for random node fields, boundary nodes included
    rng = np.random.default_rng([n, parts])
    ctx = FemContext(build_mesh(n))
    nu = float(rng.uniform(0.5, 2.0))
    u = rng.standard_normal((parts, n + 1, n + 1))
    for height in range(1, n + 1):
        for r0 in range(0, n, height):
            rows = slice(r0, min(r0 + height, n))
            block, first, last = rows.stop - r0, max(r0 - 1, 0), min(rows.stop + 1, n)
            grid = u[:, first : last + 1]
            jumps = fluxrecon.GridFlux(np.full((parts, block + 1, n), np.nan), np.full((parts, block, n + 1), np.nan),
                                       np.full((parts, block, n), np.nan))
            work = np.empty((parts, block + 1, n)), np.empty((parts, last - first, n + 1))
            fluxrecon.grid_jumps(grid, rows, out=jumps, work=work)
            out = np.empty((parts, 2, 2, block, n)), np.empty((parts, 2, block, n))
            centre, div = fluxrecon.grid_affine_form(ctx.mesh, jumps, out, signs=fluxrecon.JUMP_SIGN, scale=0.5 * nu)
            expect_centre, expect_div = _average_chain(ctx, grid, rows, nu)
            assert np.abs(centre - expect_centre).max() <= 1e-13 * np.abs(expect_centre).max()
            assert np.abs(div - expect_div).max() <= 1e-13 * np.abs(expect_div).max()

