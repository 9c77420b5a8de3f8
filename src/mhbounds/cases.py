"""The six benchmark data sets and their reference solutions.

Cases 1-3 track a desired state (problem I), cases 4-6 a desired gradient
(problem II).  All data factorize as time_factor(t) * spatial profile;
cases 1/2/4/5 are analytic in time with the eigenfunction
sin(pi x) sin(pi y) in space, cases 3/6 carry indicator-function data with
closed-form Fourier coefficients (odd cosine modes only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


def _y_cubic(t):
    return np.exp(t) * np.sin(t) ** 3


def _u_cubic(t):
    s, c = np.sin(t), np.cos(t)
    return np.exp(t) * ((1 + 2 * PI2) * s**3 + 3 * s * s * c)


def _y_lin(t):
    return np.exp(t) * np.sin(t)


def _u_lin(t):
    return np.exp(t) * ((1 + 2 * PI2) * np.sin(t) + np.cos(t))


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
    """One benchmark data set with its parameters and reference machinery."""

    ident: int
    problem: str
    lam: float
    omega: float
    time_factor: Callable
    analytic_modes: bool  # closed-form time coefficients (indicator data)
    spatial_scalar: Optional[Callable] = None
    spatial_vector: Optional[Callable] = None
    spatial_norm2: float = 0.25
    eigen_kappa: Optional[float] = None
    data_scale: float = 1.0  # coefficient of grad(profile) per unit time coefficient
    exact_y_time: Optional[Callable] = None
    exact_u_time: Optional[Callable] = None
    sigma: float = 1.0
    nu: float = 1.0

    @property
    def period(self) -> float:
        return 2.0 * PI / self.omega

    @cached_property
    def _time_samples(self) -> SampledSignal:
        """The time factor over one period, sampled once per case."""
        return sample_periodic(self.time_factor, self.omega, panels=256, order=12)

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
        return self.exact_y_time is not None

    @cached_property
    def _exact_samples(self) -> tuple[SampledSignal, SampledSignal]:
        """The exact state's and control's time factors over one period,
        sampled once per case at the nodes of `_time_samples`, whose node
        and weight arrays they share."""
        if not self.has_analytic_reference:
            raise ValueError(f"case {self.ident} has no analytic reference")
        rule = self._time_samples
        return tuple(replace(rule, values=f(rule.nodes)) for f in (self.exact_y_time, self.exact_u_time))

    def _cost(self, misfit2: float, control2: float) -> float:
        """The cost 0.5 ||y - y_d||^2 + 0.5 lam ||u||^2 of the analytic
        solution from the squared time norms of its misfit factor y - s y_d
        and its control factor.

        The state, control and data share one spatial profile, so each
        squared norm is the time part's times the profile's: for the misfit
        its squared norm (for gradient tracking that of its gradient, with
        the data scale s mapping the data's time factor onto it), for the
        control 0.25.
        """
        misfit_norm2 = self.spatial_norm2 if self.problem == "I" else self.eigen_kappa * 0.25
        return 0.5 * misfit2 * misfit_norm2 + 0.5 * self.lam * control2 * 0.25

    def reference_cost(self, k: int) -> float:
        """Exact per-mode optimal cost, from the mode pairs of the time factors."""
        y, u = (np.array(s.mode(k)) for s in self._exact_samples)
        misfit = y - self.data_scale * np.array(self._time_samples.mode(k))
        return self._cost(float(misfit @ misfit), float(u @ u))

    def overall_reference(self) -> float:
        """Exact total cost, by the time quadrature of the sampled factors."""
        y, u = self._exact_samples
        misfit = replace(y, values=y.values - self.data_scale * self._time_samples.values)
        return self._cost(misfit.norm2(), u.norm2())

    def exact_state_mode(self, k: int) -> tuple[float, float]:
        """Fourier pair of the exact state's time factor."""
        return self._exact_samples[0].mode(k)


_CASE_SPECS = {
    1: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g1,
            analytic_modes=False, spatial_scalar=_sin_sin, spatial_norm2=0.25,
            eigen_kappa=KAPPA, exact_y_time=_y_cubic, exact_u_time=_u_cubic),
    2: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g2,
            analytic_modes=False, spatial_scalar=_sin_sin, spatial_norm2=0.25,
            eigen_kappa=KAPPA, exact_y_time=_y_lin, exact_u_time=_u_lin),
    3: dict(problem="I", lam=0.01, omega=2 * PI, time_factor=_box_time,
            analytic_modes=True, spatial_scalar=_corner_box, spatial_norm2=0.25),
    4: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g4,
            analytic_modes=False, spatial_vector=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI,
            exact_y_time=_y_cubic, exact_u_time=_u_cubic),
    5: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g5,
            analytic_modes=False, spatial_vector=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI,
            exact_y_time=_y_lin, exact_u_time=_u_lin),
    6: dict(problem="II", lam=0.01, omega=2 * PI, time_factor=_box_time,
            analytic_modes=True, spatial_vector=_corner_box_pair, spatial_norm2=0.5),
}


def make_case(ident: int, lam: float | None = None, omega: float | None = None) -> ExampleCase:
    """Benchmark case by id 1..6, optionally overriding lambda and omega.

    The closed-form solution of cases 1, 2, 4 and 5 solves their own lambda
    and omega only, so a case with another one has no analytic reference.

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
            if value != spec[name]:
                spec.update(exact_y_time=None, exact_u_time=None)
            spec[name] = value
    return ExampleCase(ident=ident, **spec)


class CaseBind:
    """A case attached to a discretization: right-hand sides, per-triangle
    data projections, and analytic-reference error norms.

    The data profile is sampled at the quadrature points once, one block of
    cell rows at a time, for its load vector and its projection (P1 for a
    desired state, RT0 for a desired gradient); the samples are not kept
    (see `FemContext.project_data`).  The projection is held unscaled, and
    every mode's data are that profile times the mode's time coefficients
    (see `ModeData`).
    """

    def __init__(self, case: ExampleCase, ctx: FemContext):
        self.case = case
        self.ctx = ctx
        mesh = ctx.mesh
        if case.analytic_modes and mesh.n % 2 == 1:
            raise ValueError("indicator data requires an even grid")
        if case.problem == "I":
            self.load_s, (self.s_vert,), self.rest = ctx.project_data(case.spatial_scalar)
        else:
            self.gload_v, (self.v_mean, self.v_div), self.rest = ctx.project_data(
                case.spatial_vector, vector=True)
            if case.analytic_modes:
                # indicator data jump on edges: average the flux from the
                # centroid values
                field = ctx.vector_data_at_centroids(case.spatial_vector)
                self.v_flux = fluxrecon.grid_average(mesh, field)
            else:
                self.v_flux = fluxrecon.grid_from_callable(mesh, case.spatial_vector)
            # state profile quantities for the analytic error norms
            if case.has_analytic_reference:
                self.load_s = ctx.load(_sin_sin)

    def _mode_coefs(self, k: int) -> np.ndarray:
        """The (cosine, sine) time coefficients of the data, one per part, (P,)."""
        return np.array(self.case.mode_pair(k))[: mode_parts(k)]

    def rhs(self, k: int) -> np.ndarray:
        """Stacked data load vectors of mode k, (P, m)."""
        base = self.load_s if self.case.problem == "I" else self.gload_v
        return self._mode_coefs(k)[:, None] * base

    def mode_data(self, k: int) -> ModeData:
        """The mode's time coefficients with the unscaled profile projection."""
        coef = self._mode_coefs(k)
        rest = float(coef @ coef) * self.rest
        if self.case.problem == "I":
            return ModeData(coef=coef, rest=rest, y_vert=self.s_vert)
        return ModeData(coef=coef, rest=rest, g_mean=self.v_mean, g_div=self.v_div, g_flux=self.v_flux)

    def error_norms(self, k: int, sol, scratch: Scratch) -> tuple[float, float]:
        """(||e||^2, ||grad e||^2) of the state mode against the exact one.

        Uses (grad S, grad v_h) = kappa (S, v_h) for the eigenfunction
        profile, so only the profile's load vector is needed.  The mass and
        stiffness products borrow their buffers from `scratch`.
        """
        case = self.case
        if not case.has_analytic_reference:
            raise ValueError("no analytic reference")
        a = np.array(case.exact_state_mode(k))[: mode_parts(k)]
        # the exact part's profile terms: a^2 ||S||^2 - 2 a (S, y_h)
        profile = float(0.25 * a @ a - 2 * a @ (sol.y @ self.load_s))
        with scratch.lend(sol.y.shape) as (product,):
            l2 = profile + float(np.vdot(sol.y, self.ctx.M(sol.y, out=product, scratch=scratch)))
            h1 = case.eigen_kappa * profile + float(
                np.vdot(sol.y, self.ctx.K(sol.y, out=product, scratch=scratch)))
        return l2, h1
