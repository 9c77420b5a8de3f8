"""The six benchmark data sets and their reference solutions.

Cases 1-3 track a desired state (problem I), cases 4-6 a desired gradient
(problem II).  All data factorize as time_factor(t) * spatial profile;
cases 1/2/4/5 are analytic in time with the eigenfunction
sin(pi x) sin(pi y) in space, cases 3/6 carry indicator-function data with
closed-form Fourier coefficients (odd cosine modes only).
On the eigenfunction each Fourier mode is one scalar Tikhonov problem, so
cases 1/2/4/5 have exact references in closed form at any lambda and omega
(`ExampleCase.gain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fluxrecon
from .bounds import ModeData
from .femcore import FemContext, Scratch
from .systems import mode_parts
from .timefourier import SampledSignal, sample_periodic

PI = np.pi
PI2 = PI * PI
PI4 = PI2 * PI2
KAPPA = 2.0 * PI2  # first Dirichlet-Laplacian eigenvalue on the unit square
# Panels of the time sampler: a mode up to this index has at most one period
# per panel, which the panel's 12-point Gauss rule integrates to rounding.
TIME_PANELS = 256


def _sin_sin(x, y):
    return np.sin(PI * x) * np.sin(PI * y)


def _corner_box(x, y):
    return ((x >= 0.5) & (y >= 0.5)).astype(float)


def _grad_sin_sin_over_pi(x, y):
    return np.cos(PI * x) * np.sin(PI * y), np.sin(PI * x) * np.cos(PI * y)


def _corner_box_pair(x, y):
    v = _corner_box(x, y)
    return v, v


def _g1(t):
    s, c = np.sin(t), np.cos(t)
    return np.exp(t) * s * 0.1 * ((12 + 4 * PI4) * s * s - 6 * c * (c + s))


def _g2(t):
    return np.exp(t) * 0.2 * ((5 + 2 * PI4) * np.sin(t) - np.cos(t))


def _box_time(t):
    tau = np.mod(t, 1.0)
    return ((tau >= 0.25) & (tau <= 0.75)).astype(float)


def _g4(t):
    s, c = np.sin(t), np.cos(t)
    return np.exp(t) * s * (-3 * c * (c + s) + (10 * PI2 + 1 + 2 * PI4) * s * s) / (10 * PI)


def _g5(t):
    return -np.exp(t) * (0.1 * np.cos(t) - (PI2 + 0.2 * PI4) * np.sin(t)) / PI


def box_mode_coefficient(k: int) -> float:
    """Cosine coefficient of the on-off time factor (period 1, on [1/4, 3/4]).

    Vanishes exactly for even k >= 2; odd modes alternate +-2/(k pi).
    """
    if k == 0:
        return 0.5
    if k % 2 == 0:
        return 0.0
    return (np.sin(1.5 * k * PI) - np.sin(0.5 * k * PI)) / (k * PI)


@dataclass(frozen=True)
class ExampleCase:
    """One benchmark data set with its parameters and reference machinery;
    its data are time_factor(t) times `profile`(x, y), which returns the pair
    of components of a desired gradient for problem II."""

    ident: int
    problem: str
    lam: float
    omega: float
    time_factor: Callable
    analytic_modes: bool  # closed-form time coefficients (indicator data)
    profile: Callable
    spatial_norm2: float = 0.25
    eigen_kappa: Optional[float] = None
    data_scale: float = 1.0  # coefficient of grad(profile) per unit time coefficient
    sigma: float = 1.0
    nu: float = 1.0

    @property
    def period(self) -> float:
        return 2.0 * PI / self.omega

    @cached_property
    def _time_samples(self) -> SampledSignal:
        """The time factor over one period, sampled once per case."""
        return sample_periodic(self.time_factor, self.omega, panels=TIME_PANELS, order=12)

    def mode_pair(self, k: int) -> tuple[float, float]:
        """(cosine, sine) coefficients of mode k of the time factor alone."""
        if self.analytic_modes:
            return box_mode_coefficient(k), 0.0
        return self._time_samples.mode(k)

    def remainder(self, n_modes: int) -> float:
        """Tail energy (T/2) sum_{k>N} ||data mode||^2."""
        if self.analytic_modes:
            # only odd cosine modes: sum_{odd k <= N} 1/k^2 against pi^2/8
            ks = np.arange(1, n_modes + 1)
            partial = float(np.sum(1.0 / ks[ks % 2 == 1] ** 2))
            tail = (4.0 / PI2) * (PI2 / 8.0 - partial)
            return float(0.5 * self.period * tail * self.spatial_norm2)
        return self._time_samples.tail(n_modes) * self.spatial_norm2

    @property
    def has_analytic_reference(self) -> bool:
        """The data lie on one Dirichlet eigenfunction (see `gain`)."""
        return self.eigen_kappa is not None

    def gain(self, k: int) -> float:
        """G_k = 1 / ((k omega sigma)^2 + (nu kappa)^2), times kappa for
        problem II, elementwise for an array of k.  Mode k on the eigenfunction
        is min 0.5 |y - d|^2 + 0.5 lam |y|^2 / G_k over the tracked state's pair
        y (its gradient's for problem II), d the data's, solved by
        y = G_k / (lam + G_k) d at the cost 0.5 |d|^2 lam / (lam + G_k).

        Raises:
            ValueError: for a case without an eigenfunction profile.
        """
        if not self.has_analytic_reference:
            raise ValueError(f"case {self.ident} has no analytic reference")
        kappa = self.eigen_kappa
        gain = 1.0 / ((k * self.omega * self.sigma) ** 2 + (self.nu * kappa) ** 2)
        return gain if self.problem == "I" else kappa * gain

    def reference_cost(self, k: int) -> float:
        """Exact optimal cost of mode k, 0.5 |d_k|^2 ||profile||^2 lam / (lam + G_k)."""
        d = np.array(self.mode_pair(k))
        return 0.5 * float(d @ d) * self.spatial_norm2 * self.lam / (self.lam + self.gain(k))

    def exact_state_mode(self, k: int) -> tuple[float, float]:
        """Fourier pair of the exact state's time factor, the data's pair
        mapped onto the state's profile and kept by G_k / (lam + G_k)."""
        gain = self.gain(k)
        c, s = self.mode_pair(k)
        keep = self.data_scale * gain / (self.lam + gain)
        return keep * c, keep * s

    def overall_reference(self) -> float:
        """Exact total cost 0.5 ||profile||^2 (||g||_T^2 - sum_k w_k |d_k|^2
        G_k / (lam + G_k)), w_k |d_k|^2 the Parseval energy of mode k.  The
        sum ends at the first K whose remaining terms, at most
        G_{K+1} / (lam + G_{K+1}) tail(K), are below the rounding of
        ||g||_T^2, or at K = TIME_PANELS; the result exceeds the optimum by
        at most that bound times 0.5 ||profile||^2."""
        signal = self._time_samples
        total = signal.norm2()
        energy = signal.energies(TIME_PANELS)
        gain = self.gain(np.arange(TIME_PANELS + 2))
        keep = gain / (self.lam + gain)
        rest = keep[1:] * (total - np.cumsum(energy))  # the bound after each K
        below = np.flatnonzero(rest <= np.finfo(float).eps * total)
        last = below[0] if below.size else TIME_PANELS
        return 0.5 * self.spatial_norm2 * (total - float(energy[: last + 1] @ keep[: last + 1]))


_CASE_SPECS = {
    1: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g1,
            analytic_modes=False, profile=_sin_sin, spatial_norm2=0.25,
            eigen_kappa=KAPPA),
    2: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g2,
            analytic_modes=False, profile=_sin_sin, spatial_norm2=0.25,
            eigen_kappa=KAPPA),
    3: dict(problem="I", lam=0.01, omega=2 * PI, time_factor=_box_time,
            analytic_modes=True, profile=_corner_box, spatial_norm2=0.25),
    4: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g4,
            analytic_modes=False, profile=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI),
    5: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g5,
            analytic_modes=False, profile=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI),
    6: dict(problem="II", lam=0.01, omega=2 * PI, time_factor=_box_time,
            analytic_modes=True, profile=_corner_box_pair, spatial_norm2=0.5),
}


def make_case(ident: int, lam: float | None = None, omega: float | None = None) -> ExampleCase:
    """Benchmark case by id 1..6, optionally overriding lambda and omega.

    Raises:
        ValueError: for an unknown id or a non-finite or non-positive
            lambda or omega.
    """
    if ident not in _CASE_SPECS:
        raise ValueError(f"unknown example id {ident}")
    spec = dict(_CASE_SPECS[ident])
    for name, value in (("lam", lam), ("omega", omega)):
        if value is not None:
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
            spec[name] = value
    return ExampleCase(ident=ident, **spec)


class CaseBind:
    """A case attached to a discretization: right-hand sides, per-triangle
    data projections, and analytic-reference error norms.

    The data profile is sampled at the quadrature points once, in one
    streaming pass over blocks of cell rows, for its load vector `load`,
    summed onto the node grid block by block, its projection (P1 vertex
    values for a desired state; RT0 mean, divergence and edge flux for a
    desired gradient) as the `ModeData` fields in `planes`, and the squared
    norm `rest` of what the projection leaves over; the samples are not
    kept (see `FemContext.project_data`).  Every mode's data are that
    profile times the mode's time coefficients.  `state_load` is the load
    of the exact state's profile, which the analytic error norms read.
    """

    def __init__(self, case: ExampleCase, ctx: FemContext):
        self.case = case
        self.ctx = ctx
        mesh = ctx.mesh
        if case.analytic_modes and mesh.n % 2 == 1:
            raise ValueError("indicator data requires an even grid")
        vector = case.problem == "II"
        self.load, planes, self.rest = ctx.project_data(case.profile, vector=vector)
        self.planes = dict(zip(("g_mean", "g_div") if vector else ("y_vert",), planes))
        self.state_load = self.load
        if vector:
            # indicator data jump only on the mesh lines of an even grid, so
            # each triangle's mean is its centroid value
            self.planes["g_flux"] = (fluxrecon.grid_average(mesh, planes[0]) if case.analytic_modes
                                     else fluxrecon.grid_from_callable(mesh, case.profile))
            # the exact state's profile is sin(pi x) sin(pi y)
            self.state_load = ctx.load(_sin_sin) if case.has_analytic_reference else None

    def _mode_coefs(self, k: int) -> np.ndarray:
        """The (cosine, sine) time coefficients of the data, one per part, (P,)."""
        return np.array(self.case.mode_pair(k))[: mode_parts(k)]

    def rhs(self, k: int) -> np.ndarray:
        """Stacked data load vectors of mode k, (P, m)."""
        return self._mode_coefs(k)[:, None] * self.load

    def mode_data(self, k: int) -> ModeData:
        """The mode's time coefficients with the unscaled profile projection."""
        coef = self._mode_coefs(k)
        return ModeData(coef=coef, rest=float(coef @ coef) * self.rest, **self.planes)

    def error_norms(self, k: int, sol, scratch: Scratch) -> tuple[float, float]:
        """(||e||^2, ||grad e||^2) of the state mode against the exact one.

        Uses (grad S, grad v_h) = kappa (S, v_h) for the eigenfunction
        profile, so only the profile's load vector is needed.  The mass and
        stiffness products borrow their buffers from `scratch`.
        """
        case = self.case
        a = np.array(case.exact_state_mode(k))[: mode_parts(k)]
        # the exact part's profile terms: a^2 ||S||^2 - 2 a (S, y_h)
        profile = float(0.25 * a @ a - 2 * a @ (sol.y @ self.state_load))
        with scratch.lend(sol.y.shape) as (product,):
            l2 = profile + float(np.vdot(sol.y, self.ctx.M(sol.y, out=product, scratch=scratch)))
            h1 = case.eigen_kappa * profile + float(
                np.vdot(sol.y, self.ctx.K(sol.y, out=product, scratch=scratch)))
        return l2, h1
