import numpy as np
import pytest

from mhbounds import mesh as meshmod
from mhbounds.femcore import (
    FemContext,
    assemble_gradient_load,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    l2_norm_squared,
    p1_eval_at,
    per_class,
    prolong,
)


def test_single_interior_node_entries(ctx2):
    assert ctx2.K.shape == (1, 1)
    assert abs(ctx2.K[0, 0] - 4.0) < 1e-14
    assert abs(ctx2.M[0, 0] - 0.125) < 1e-14


def test_coefficient_scaling(mesh2):
    K1 = assemble_stiffness(mesh2, 1.0, full=True)
    K2 = assemble_stiffness(mesh2, 2.0, full=True)
    assert abs((K2 - 2 * K1)).max() < 1e-14
    M1 = assemble_mass(mesh2, 1.0, full=True)
    M3 = assemble_mass(mesh2, 3.0, full=True)
    assert abs((M3 - 3 * M1)).max() < 1e-14
    assert M1.toarray().min() >= 0


def test_constants_in_stiffness_kernel(ctx16):
    ones = np.ones(ctx16.mesh.num_nodes)
    assert np.abs(ctx16.K_full @ ones).max() < 1e-13
    # partition of unity: total mass is the domain area
    assert abs(ones @ (ctx16.M_full @ ones) - 1.0) < 1e-13


def test_symmetry_and_definiteness(ctx16, rng):
    for A in (ctx16.K, ctx16.M):
        d = abs(A - A.T)
        assert d.max() < 1e-14
        for _ in range(100):
            v = rng.standard_normal(A.shape[0])
            assert v @ (A @ v) > 0


def test_load_vectors(ctx16):
    zero = ctx16.load(lambda x, y: np.zeros_like(x))
    assert np.all(zero == 0)
    const = ctx16.load(lambda x, y: np.ones_like(x))
    assert np.allclose(const, ctx16.mesh.h**2, atol=1e-15)


def test_rayleigh_quotient_eigenfunction():
    m = meshmod.build(64)
    ctx = FemContext(m)
    v = ctx.load(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    rq = (v @ (ctx.K @ v)) / (v @ (ctx.M @ v))
    assert abs(rq - 2 * np.pi**2) / (2 * np.pi**2) < 0.005


def test_gradient_load(ctx16):
    zero = ctx16.gradient_load(lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    assert np.all(zero == 0)

    def grad_ss(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    g = ctx16.gradient_load(grad_ss)
    interp = ctx16.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    ref = (ctx16.K_full @ interp)[ctx16.mesh.interior_nodes]
    assert np.abs(g - ref).max() < 10 * ctx16.mesh.h**2


def test_gradient_load_symmetry_cancellation(ctx2):
    g = ctx2.gradient_load(lambda x, y: (np.ones_like(x), np.ones_like(x)))
    assert np.abs(g).max() < 1e-15


def test_gradient_load_order(rng):
    # against the stiffness-times-interpolant oracle, refining once
    errs = []
    for n in (8, 16):
        ctx = FemContext(meshmod.build(n))

        def grad_ss(x, y):
            return (
                np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            )

        g = ctx.gradient_load(grad_ss)
        interp = ctx.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        ref = (ctx.K_full @ interp)[ctx.mesh.interior_nodes]
        errs.append(np.abs(g - ref).max())
    assert errs[1] < errs[0] / 3.0  # observed order about 2


def test_norm_descriptors(ctx8, rng):
    assert abs(l2_norm_squared(ctx8, ("const", 1.0)) - 1.0) < 1e-15
    x_interp = ctx8.interpolate(lambda x, y: x)
    assert abs(l2_norm_squared(ctx8, ("p1", x_interp)) - 1.0 / 3.0) < 1e-14
    v = rng.standard_normal(ctx8.mesh.num_nodes)
    assert abs(l2_norm_squared(ctx8, ("p1", v)) - v @ (ctx8.M_full @ v)) < 1e-13
    with pytest.raises(ValueError):
        l2_norm_squared(ctx8, ("qp", np.ones_like(ctx8.qw), 3))
    with pytest.raises(ValueError):
        l2_norm_squared(ctx8, ("mystery", None))


def test_galerkin_consistency_order():
    # u^T K u -> integral of |grad u|^2 at second order
    exact = np.pi**2 / 2  # for sin(pi x) sin(pi y)
    errs = []
    for n in (8, 16, 32):
        ctx = FemContext(meshmod.build(n))
        u = ctx.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        errs.append(abs(u @ (ctx.K_full @ u) - exact))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 1.8


def test_module_level_wrappers(mesh2):
    v = assemble_load(mesh2, lambda x, y: np.ones_like(x))
    assert v.shape == (1,)
    g = assemble_gradient_load(mesh2, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert g.shape == (1,)


def test_p1_eval_and_prolong(rng):
    coarse = meshmod.build(4)
    fine = meshmod.build(8)
    v = rng.standard_normal(coarse.num_nodes)
    # exact at the coarse nodes themselves
    assert np.allclose(p1_eval_at(coarse, v, coarse.nodes), v, atol=1e-14)
    # nested prolongation preserves integrals of the field exactly
    ctx_c, ctx_f = FemContext(coarse), FemContext(fine)
    w = prolong(coarse, v, fine)
    ones_c = np.ones(coarse.num_nodes)
    ones_f = np.ones(fine.num_nodes)
    assert abs(v @ (ctx_c.M_full @ ones_c) - w @ (ctx_f.M_full @ ones_f)) < 1e-14
    assert abs(v @ (ctx_c.K_full @ v) - w @ (ctx_f.K_full @ w)) < 1e-12


def test_matrix_market_export(tmp_path, ctx2):
    from mhbounds.femcore import export_matrix_market

    path = tmp_path / "K.mtx"
    export_matrix_market(ctx2.K_full, path)
    text = path.read_text()
    assert text.startswith("%%MatrixMarket")
    assert f"{ctx2.mesh.num_nodes} {ctx2.mesh.num_nodes}" in text


@pytest.mark.parametrize("n", [1, 2, 5])
def test_vertex_values_match_triangle_gather(n, rng):
    ctx = FemContext(meshmod.build(n))
    v_int = rng.standard_normal((2, ctx.mesh.num_interior))
    expect = np.stack([ctx.to_full(v)[ctx.mesh.triangles] for v in v_int])
    assert np.array_equal(ctx.vertex_values(v_int), expect)


@pytest.mark.parametrize("n", [1, 4])
def test_class_maps_match_per_triangle_geometry(n, rng):
    ctx = FemContext(meshmod.build(n))
    mesh = ctx.mesh
    corners = mesh.nodes[mesh.triangles]
    centroid = corners.mean(axis=1, keepdims=True)
    cls = np.arange(mesh.num_triangles) % 2
    # every triangle's geometry is its class's
    assert np.allclose(ctx.grads, ctx.class_grads[cls], rtol=0, atol=1e-12 * n)
    assert np.allclose(ctx.qp - centroid, ctx.class_qp_offsets[cls], rtol=0, atol=1e-14)
    assert np.allclose((centroid - corners) / (2 * mesh.tri_area),
                       ctx.class_rt0_form[cls, :, :2], rtol=0, atol=1e-12 * n)
    assert np.allclose(ctx.class_rt0_form[..., 2], 1 / mesh.tri_area, rtol=1e-14)
    # per_class applies the class map row by row
    vert = rng.standard_normal((3, mesh.num_triangles, 3))
    expect = np.einsum("ptk,tkd->ptd", vert, ctx.grads)
    assert np.allclose(per_class(vert, ctx.class_grads), expect, rtol=1e-13, atol=1e-13 * n)
    # mean of |x - c|^2 over a triangle is (sum of squared sides) / 36,
    # h^2 / 9 for the right isosceles triangles with legs h
    assert abs(ctx.offset_moment - mesh.h**2 / 9) < 1e-15


def test_exact_p1_norm_matches_mass_matrix(ctx8, rng):
    from mhbounds.bounds import _p1_norm2

    v = rng.standard_normal((2, ctx8.mesh.num_interior))
    expect = sum(float(u @ (ctx8.M @ u)) for u in v)
    assert abs(_p1_norm2(ctx8, ctx8.vertex_values(v)) - expect) < 1e-13 * expect
