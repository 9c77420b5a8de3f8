"""Lowest-order Raviart-Thomas flux reconstruction.

A reconstructed flux is stored as one normal-flux degree of freedom per
edge (the integral of the normal component over the edge, with respect to
the mesh's global edge normal).  The normal component is single-valued
across interior edges by construction, the field is linear per triangle,
and its divergence is constant per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femcore import FemContext, per_class


@dataclass
class RTFlux:
    """Raviart-Thomas field of lowest order on a UniformMesh.

    coeffs[e] = integral over edge e of (flux . global_normal_e).
    """

    mesh: object
    coeffs: np.ndarray

    def __add__(self, other: "RTFlux") -> "RTFlux":
        return RTFlux(self.mesh, self.coeffs + other.coeffs)

    def __sub__(self, other: "RTFlux") -> "RTFlux":
        return RTFlux(self.mesh, self.coeffs - other.coeffs)

    def __mul__(self, s: float) -> "RTFlux":
        return RTFlux(self.mesh, s * self.coeffs)

    __rmul__ = __mul__


def reconstruct_p0(mesh, field: np.ndarray) -> RTFlux:
    """Edge-average per-triangle constant vector fields, (..., T, 2) -> RTFlux.

    Interior edges take the arithmetic mean of the two one-sided normal
    traces; boundary edges the single trace.  Leading axes stack fields.
    """
    t0 = mesh.edge_tris[:, 0]
    t1 = np.where(mesh.edge_tris[:, 1] >= 0, mesh.edge_tris[:, 1], t0)
    nx, ny = mesh.edge_normal.T

    def trace(tris):
        side = np.take(field, tris, axis=-2)
        return side[..., 0] * nx + side[..., 1] * ny

    return RTFlux(mesh, 0.5 * (trace(t0) + trace(t1)) * mesh.edge_length)


def reconstruct(ctx: FemContext, w_full: np.ndarray, nu: float = 1.0) -> RTFlux:
    """Averaged-flux reconstruction of nu * grad(w) for a nodal P1 field."""
    return reconstruct_p0(ctx.mesh, nu * ctx.p1_grad(w_full))


def reconstruct_from_callable(mesh, g) -> RTFlux:
    """Edge degrees of freedom of continuous vector data, by midpoint value."""
    mid = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
    gx, gy = g(mid[:, 0], mid[:, 1])
    normal_flux = gx * mesh.edge_normal[:, 0] + gy * mesh.edge_normal[:, 1]
    return RTFlux(mesh, normal_flux * mesh.edge_length)


def affine_form(ctx: FemContext, flux: RTFlux) -> tuple[np.ndarray, np.ndarray]:
    """Centroid values (..., T, 2) and divergences (..., T) of RT0 fields.

    Inside each triangle an RT0 field is tau(x) = tau(c) + div/2 (x - c),
    so the pair determines it exactly.
    """
    mesh = flux.mesh
    outward = np.take(flux.coeffs, mesh.tri_edges, axis=-1) * mesh.tri_edge_sign
    form = per_class(outward, ctx.class_rt0_form)
    return form[..., :2], form[..., 2]
