import numpy as np
import pytest

from mhbounds import mesh as meshmod
from reference_assembly import MESH_ARRAYS, build_mesh


@pytest.mark.parametrize(
    "n,nodes,tris,interior",
    [(1, 4, 2, 0), (2, 9, 8, 1), (16, 289, 512, 225), (49, 2500, 4802, 2304)],
)
def test_counts(n, nodes, tris, interior):
    m = meshmod.build(n)
    assert m.num_nodes == nodes
    assert m.num_triangles == tris
    assert m.num_interior == interior


def test_rejects_zero():
    with pytest.raises(ValueError):
        meshmod.build(0)


def test_signed_areas_and_total(mesh16):
    p = mesh16.nodes[mesh16.triangles]
    area2 = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]
    ) * (p[:, 1, 1] - p[:, 0, 1])
    assert np.all(area2 > 0)
    assert np.allclose(area2, mesh16.h**2)
    assert abs(0.5 * area2.sum() - 1.0) < 1e-14


def test_boundary_flags(mesh16):
    on = (
        (mesh16.nodes[:, 0] == 0)
        | (mesh16.nodes[:, 0] == 1)
        | (mesh16.nodes[:, 1] == 0)
        | (mesh16.nodes[:, 1] == 1)
    )
    assert np.array_equal(mesh16.boundary_node, on)
    assert np.all(~mesh16.boundary_node[mesh16.interior_nodes])


def test_edge_count_euler(mesh2):
    # V - E + F = 1 for the open complex
    assert mesh2.num_edges == 16
    assert mesh2.num_nodes - mesh2.num_edges + mesh2.num_triangles == 1


def test_edge_incidence_symmetric(mesh8):
    for t in range(mesh8.num_triangles):
        for local in range(3):
            e = mesh8.tri_edges[t, local]
            assert t in mesh8.edge_tris[e]
    counts = (mesh8.edge_tris >= 0).sum(axis=1)
    boundary = mesh8.edge_tris[:, 1] < 0
    assert np.all(counts[boundary] == 1)
    assert np.all(counts[~boundary] == 2)


def test_shared_diagonal_edge(mesh2):
    # the two triangles of cell (0,0) return the same diagonal edge
    lower, upper = 0, 1
    nodes_l = set(mesh2.triangles[lower])
    nodes_u = set(mesh2.triangles[upper])
    shared = nodes_l & nodes_u
    diag = None
    for local in range(3):
        e = mesh2.tri_edges[lower, local]
        if set(mesh2.edges[e]) == shared:
            diag = e
    assert diag is not None
    assert diag in mesh2.tri_edges[upper]
    assert set(mesh2.edge_tris[diag]) == {lower, upper}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 33])
def test_closed_form_matches_sorted_numbering(n):
    closed, ref = meshmod.build(n), build_mesh(n)
    assert (closed.n, closed.h) == (ref.n, ref.h)
    assert len(MESH_ARRAYS) == 10
    for name in MESH_ARRAYS:
        a, b = getattr(closed, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        if a.dtype.kind == "f":
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


def test_index_arrays_built_once_on_first_read(monkeypatch):
    # a mesh holds n and h; its index arrays are built together the first
    # time one is read, and then kept
    calls = []
    build_index = meshmod.index_arrays

    def counted(n):
        calls.append(n)
        return build_index(n)

    monkeypatch.setattr(meshmod, "index_arrays", counted)
    mesh = meshmod.build(5)
    assert (mesh.num_nodes, mesh.num_triangles, mesh.num_edges, mesh.num_interior) == (36, 50, 85, 16)
    assert calls == []
    for name in MESH_ARRAYS:
        assert getattr(mesh, name) is getattr(mesh, name)
    assert calls == [5]
    assert mesh.num_edges == mesh.edges.shape[0]
    assert mesh.num_interior == mesh.interior_nodes.shape[0]
