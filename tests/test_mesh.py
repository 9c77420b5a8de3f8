"""The reference mesh's index arrays, and their agreement with the class
layout (`CLASS_CORNERS`, `CLASS_EDGE_SIGN`) that the run path slices by."""

import numpy as np
import pytest

from mhbounds import mesh as meshmod
from reference_assembly import build_mesh


@pytest.mark.parametrize(
    "n,nodes,tris,interior",
    [(1, 4, 2, 0), (2, 9, 8, 1), (16, 289, 512, 225), (49, 2500, 4802, 2304)],
)
def test_counts(n, nodes, tris, interior):
    m = build_mesh(n)
    assert m.num_nodes == nodes == len(m.nodes)
    assert m.num_triangles == tris == len(m.triangles)
    assert m.num_interior == interior == len(m.interior_nodes)
    assert m.num_edges == n * (3 * n + 2) == len(m.edges)


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
    # by position, to half a cell: the coordinate n * (1 / n) of the last
    # row and column need not round to 1 (it does not for n = 49 and 98)
    for mesh in (mesh16, build_mesh(49), build_mesh(98)):
        x, y = mesh.nodes.T
        near = 0.5 * mesh.h
        on = (x < near) | (x > 1 - near) | (y < near) | (y > 1 - near)
        assert np.array_equal(mesh.boundary_node, on)
        assert mesh.boundary_node.sum() == 4 * mesh.n
        assert np.array_equal(mesh.interior_nodes, np.flatnonzero(~on))


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 33, 49])
def test_closed_form_matches_sorted_numbering(n):
    # the closed forms the run path slices by (the node grid, the class
    # corners and edge signs) against the numbering found by sorting
    grid, ref = meshmod.build(n), build_mesh(n)
    assert (grid.n, grid.h, grid.tri_area) == (ref.n, ref.h, ref.tri_area)
    side = n + 1
    row, col = np.divmod(np.arange(side * side), side)
    assert np.array_equal(ref.nodes, np.column_stack([col * grid.h, row * grid.h]))
    node_grid = np.arange(side * side).reshape(side, side)
    cells = ref.triangles.reshape(n, n, 2, 3)
    for cls, corners in enumerate(meshmod.CLASS_CORNERS):
        for local, (r, c) in enumerate(corners):
            assert np.array_equal(cells[:, :, cls, local], node_grid[r : r + n, c : c + n])
    assert np.array_equal(ref.tri_edge_sign, np.tile(meshmod.CLASS_EDGE_SIGN, (n * n, 1)))
    on_boundary = (row == 0) | (row == n) | (col == 0) | (col == n)
    assert np.array_equal(ref.boundary_node, on_boundary)
    assert np.array_equal(ref.interior_nodes, np.flatnonzero(~on_boundary))
    # edges are horizontal, vertical or diagonal with length h up to rounding
    step = np.diff(ref.edges, axis=1).ravel()
    assert set(np.unique(step)) <= {1, side, side + 1}
    assert np.allclose(ref.edge_length, np.where(step == side + 1, np.sqrt(2.0), 1.0) * grid.h,
                       rtol=1e-14, atol=0)
