"""The six benchmark data sets and their reference solutions.

Cases 1-3 track a desired state (problem I), cases 4-6 a desired gradient
(problem II).  All data factorize as time_factor(t) * spatial profile;
cases 1/2/4/5 are analytic in time with the eigenfunction
sin(pi x) sin(pi y) in space, cases 3/6 carry indicator-function data with
closed-form Fourier coefficients (odd cosine modes only).
The time factors of cases 1/2/4/5 are e^t times a trig polynomial of degree
at most 3, so each of their Fourier coefficients and their norm over one
period is a short sum in closed form.  On the eigenfunction each Fourier mode
is one scalar Tikhonov problem, so these cases have exact references in closed
form at any lambda and omega (`ExampleCase.gain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fluxrecon
from .bounds import ModeData
from .femcore import FemContext, Scratch
from .systems import ProblemParams, mode_parts

PI = np.pi
PI2 = PI * PI
PI4 = PI2 * PI2
KAPPA = 2.0 * PI2  # first Dirichlet-Laplacian eigenvalue on the unit square
TRIG = np.arange(-3, 4)  # the frequencies a of the time factors' e^t e^{i a t} terms
# The exact total cost sums its modes in chunks of SUM_CHUNK, up to SUM_MODES
# modes; at lambda = 1e-4, omega = 0.1 example 5 needs about 2^17 of them for
# a rest below 1e-8 of the total.
SUM_CHUNK = 256
SUM_MODES = 2**17
TAYLOR_TERMS = 32  # of the time factors' Taylor series on periods below 1
# The bound terms are the data's squared norm over the period times factors
# up to about 1 / lambda (the minorant's adjoint residual term), summed over
# a few modes; a case keeps them this far below the largest float.
DATA_NORM_CAP = 1e290


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


def _exact_dot(floats: list, ints: list) -> float:
    """sum_i floats_i ints_i in exact integer arithmetic, rounded once."""
    ratios = [x.as_integer_ratio() for x in floats]
    scale = max(d for _, d in ratios)  # a power of two, as every denominator is
    return sum(n * (scale // d) * m for (n, d), m in zip(ratios, ints)) / scale


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
    profile: Callable
    spatial_norm2: float = 0.25
    eigen_kappa: Optional[float] = None  # None for the indicator data of cases 3 and 6
    data_scale: float = 1.0  # coefficient of grad(profile) per unit time coefficient
    sigma: float = 1.0
    nu: float = 1.0

    @cached_property
    def params(self) -> ProblemParams:
        """The cost's constants (see `ProblemParams`, which checks them)."""
        return ProblemParams(self.problem, self.lam, self.omega)

    @cached_property
    def _samples(self) -> np.ndarray:
        """p(t) = time_factor(t) e^{-t} at t = 2 pi j / 8, j = 0..7."""
        t = 2.0 * PI * np.arange(8) / 8
        return self.time_factor(t) * np.exp(-t)

    @cached_property
    def _trig_coefs(self) -> np.ndarray:
        """c_a of p(t) = sum_a c_a e^{i a t}, a in TRIG; of degree at most 3,
        p has no frequency that the eight samples alias."""
        c = np.fft.fft(self._samples) / 8
        return np.concatenate([c[5:], c[:4]])

    @cached_property
    def _taylor(self) -> np.ndarray:
        """g's Taylor coefficients at 0, sum_a c_a alpha_a^m / m! with
        alpha_a = 1 + i a, m < TAYLOR_TERMS; the first is the sample p(0), as
        the sum of the c_a is off by their rounding, all of g's size on a
        short period where g vanishes at 0 (examples 1 and 4)."""
        m = np.arange(TAYLOR_TERMS)
        taylor = (1.0 + 1j * TRIG) ** m[:, None] @ self._trig_coefs / np.cumprod(np.maximum(m, 1.0))
        taylor[0] = self._samples[0]
        return taylor

    @cached_property
    def _numerator(self) -> np.ndarray:
        """Coefficients of N(nu) = sum_a w_a prod_{b != a} (alpha_b - i nu),
        w_a = c_a expm1(alpha_a T), lowest first, each summed exactly from
        the floats w_a: mode k's coefficient (1/T) sum_a w_a / (alpha_a - i nu)
        at nu = k omega (as e^{-i nu T} = 1) is (1/T) N(nu) / prod_a
        (alpha_a - i nu), and where g joins smoothly across the period's end
        the top coefficients cancel that a high mode's terms would."""
        x = TRIG / self.omega  # e^{i a T} with the whole turns of a T taken off
        w = self._trig_coefs * np.expm1(self.params.period + 2j * PI * (x - np.round(x)))
        # -prod_{b != a} (nu - (b - i)), of Gaussian integers exact in floats
        polys = -np.array([np.polynomial.polynomial.polyfromroots(np.delete(TRIG - 1j, i))
                           for i in range(TRIG.size)])
        real, imag = (np.rint(part).astype(int).T.tolist() for part in (polys.real, polys.imag))
        parts = w.real.tolist() + w.imag.tolist()
        return np.array([complex(_exact_dot(parts, r + [-v for v in i]), _exact_dot(parts, i + r))
                         for r, i in zip(real, imag)])

    def _coefficients(self, ks) -> np.ndarray:
        """Complex coefficients (1/T) int_0^T g(t) e^{-i k omega t} dt of modes
        ks: N / prod from `_numerator`, or below T = 1, where N's terms cancel
        as g does near 0, sum_m a_m T^m J_m(k) from `_taylor`, with J_m(k) =
        int_0^1 s^m e^{-2 pi i k s} ds = 1 / (m + 1) for k = 0 and else
        (m J_{m-1} - 1) / (2 pi i k) from J_0 = 0; its rounding grows by
        m / (2 pi k) a step, T^m / m! falls faster."""
        k = np.asarray(ks, dtype=float)[..., None]
        T = self.params.period
        if T >= 1.0:
            nu = k * self.omega
            denominator = np.prod(1.0 + 1j * (TRIG - nu), axis=-1)
            return np.polynomial.polynomial.polyval(nu[..., 0], self._numerator) / denominator / T
        turn = 2j * PI * np.where(k == 0, 1.0, k)
        moments = [np.where(k == 0, 1.0 + 0j, 0.0)]
        for m in range(1, TAYLOR_TERMS):
            moments.append(np.where(k == 0, 1.0 / (m + 1), (m * moments[-1] - 1.0) / turn))
        return np.concatenate(moments, axis=-1) @ (self._taylor * T ** np.arange(TAYLOR_TERMS))

    def _energies(self, ks: np.ndarray) -> np.ndarray:
        """Parseval energies T |g_0|^2 and 2 T |g_k|^2 of modes ks."""
        return np.where(ks > 0, 2.0, 1.0) * self.params.period * np.abs(self._coefficients(ks)) ** 2

    @cached_property
    def time_norm2(self) -> float:
        """||g||_T^2 = sum_{a,b} c_a conj(c_b) expm1(z T) / z, z = 2 + i (a - b),
        not finite where e^{2T} overflows; below T = 1, where the terms cancel
        as g does near 0, the integral of the square of g's Taylor series."""
        c, T = self._trig_coefs, self.params.period
        if T < 1.0:
            powers = np.add.outer(np.arange(TAYLOR_TERMS), np.arange(TAYLOR_TERMS)) + 1
            return float(np.real(self._taylor @ (T**powers / powers) @ self._taylor.conj()))
        z = 2.0 + 1j * np.subtract.outer(TRIG, TRIG)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.real(c @ (np.expm1(z * T) / z) @ c.conj()))

    @property
    def data_norm2(self) -> float:
        """The data's squared norm over one period, ||g||_T^2 ||profile||^2;
        the on-off factor of cases 3 and 6 is on for half of it."""
        time = self.time_norm2 if self.has_analytic_reference else 0.5 * self.params.period
        return time * self.spatial_norm2

    def mode_pair(self, k: int) -> tuple[float, float]:
        """(cosine, sine) coefficients of mode k of the time factor alone,
        2 (Re, -Im) of its complex coefficient, and (mean, 0) for mode 0."""
        if not self.has_analytic_reference:
            return box_mode_coefficient(k), 0.0
        g = self._coefficients(k)
        return (float(g.real), 0.0) if k == 0 else (2.0 * float(g.real), -2.0 * float(g.imag))

    def remainder(self, n_modes: int) -> float:
        """Tail energy (T/2) sum_{k>N} ||data mode||^2.

        Raises:
            ValueError: if n_modes < 0.
        """
        if n_modes < 0:
            raise ValueError("mode index must be nonnegative")
        if not self.has_analytic_reference:
            # only odd cosine modes: sum_{odd k <= N} 1/k^2 against pi^2/8
            ks = np.arange(1, n_modes + 1)
            partial = float(np.sum(1.0 / ks[ks % 2 == 1] ** 2))
            tail = (4.0 / PI2) * (PI2 / 8.0 - partial)
            return float(0.5 * self.params.period * tail * self.spatial_norm2)
        retained = float(np.sum(self._energies(np.arange(n_modes + 1))))
        return (self.time_norm2 - retained) * self.spatial_norm2

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
        G_k / (lam + G_k)), w_k |d_k|^2 the Parseval energy of mode k, summed
        SUM_CHUNK modes at a time up to the first K whose rest, at most
        G_{K+1} / (lam + G_{K+1}) tail(K), is below the rounding of
        ||g||_T^2, or up to K = SUM_MODES - 1.  It exceeds the optimum by at
        most that rest times 0.5 ||profile||^2: about 1e-16 of the total at
        each case's own lambda and omega, and below 1e-8 of it for examples
        1, 2, 4 and 5 at lambda = 1e-4, omega = 0.1."""
        total = tail = self.time_norm2
        retained = 0.0
        for start in range(0, SUM_MODES, SUM_CHUNK):
            ks = np.arange(start, start + SUM_CHUNK + 1)
            energy, gain = self._energies(ks[:-1]), self.gain(ks)
            keep = gain / (self.lam + gain)
            rest = keep[1:] * (tail - np.cumsum(energy))  # the bound after each K
            below = np.flatnonzero(rest <= np.finfo(float).eps * total)
            last = below[0] + 1 if below.size else SUM_CHUNK
            retained += float(energy[:last] @ keep[:last])
            if below.size:
                break
            tail -= float(np.sum(energy))
        return 0.5 * self.spatial_norm2 * (total - retained)


_CASE_SPECS = {
    1: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g1, profile=_sin_sin,
            spatial_norm2=0.25, eigen_kappa=KAPPA),
    2: dict(problem="I", lam=0.1, omega=1.0, time_factor=_g2, profile=_sin_sin,
            spatial_norm2=0.25, eigen_kappa=KAPPA),
    3: dict(problem="I", lam=0.01, omega=2 * PI, time_factor=_box_time, profile=_corner_box,
            spatial_norm2=0.25),
    4: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g4, profile=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI),
    5: dict(problem="II", lam=0.1, omega=1.0, time_factor=_g5, profile=_grad_sin_sin_over_pi,
            spatial_norm2=0.5, eigen_kappa=KAPPA, data_scale=1.0 / PI),
    6: dict(problem="II", lam=0.01, omega=2 * PI, time_factor=_box_time, profile=_corner_box_pair,
            spatial_norm2=0.5),
}


def make_case(ident: int, lam: float | None = None, omega: float | None = None) -> ExampleCase:
    """Benchmark case by id 1..6, optionally overriding lambda and omega.

    Raises:
        ValueError: for an unknown id, a non-finite or non-positive lambda
            or omega, or a pair for which the data's squared norm over the
            period 2 pi / omega, times max(1, 1 / lambda), is above
            DATA_NORM_CAP (or overflows), so the bounds could overflow; the
            message names lambda where the norm alone is within the cap.
    """
    if ident not in _CASE_SPECS:
        raise ValueError(f"unknown example id {ident}")
    spec = dict(_CASE_SPECS[ident])
    spec.update((name, value) for name, value in (("lam", lam), ("omega", omega)) if value is not None)
    case = ExampleCase(ident=ident, **spec)
    params = case.params  # checks lambda and omega before the data's norm reads them
    norm2 = case.data_norm2
    if not max(1.0, 1.0 / params.lam) * norm2 <= DATA_NORM_CAP:
        # the norm alone within the cap leaves 1 / lambda at fault
        names = (f"lambda = {params.lam:g}", f"omega = {params.omega:g}")
        small, other = names if norm2 <= DATA_NORM_CAP else names[::-1]
        size = f"is {norm2:.3g}" if np.isfinite(norm2) else "overflows"
        raise ValueError(f"{small} is too small for {other}: the squared norm of the data of example "
                         f"{ident} over the period {params.period:g} {size}, which leaves the bounds "
                         "too little room below overflow")
    return case


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
        analytic = case.has_analytic_reference
        if not analytic and mesh.n % 2 == 1:
            raise ValueError("indicator data requires an even grid")
        vector = case.problem == "II"
        self.load, planes, self.rest = ctx.project_data(case.profile, vector=vector)
        self.planes = dict(zip(("g_mean", "g_div") if vector else ("y_vert",), planes))
        self.state_load = self.load
        if vector:
            # indicator data jump only on the mesh lines of an even grid, so
            # each triangle's mean is its centroid value
            self.planes["g_flux"] = (fluxrecon.grid_from_callable(mesh, case.profile) if analytic
                                     else fluxrecon.grid_average(mesh, planes[0]))
            # the exact state's profile is sin(pi x) sin(pi y)
            self.state_load = ctx.load(_sin_sin) if analytic else None

    def mode_coefs(self, k: int) -> np.ndarray:
        """The (cosine, sine) time coefficients of the data, one per part, (P,)."""
        return np.array(self.case.mode_pair(k))[: mode_parts(k)]

    def rhs(self, k: int) -> np.ndarray:
        """Stacked data load vectors of mode k, (P, m)."""
        return self.mode_coefs(k)[:, None] * self.load

    def mode_data(self, k: int) -> ModeData:
        """The mode's time coefficients with the unscaled profile projection."""
        coef = self.mode_coefs(k)
        return ModeData(coef=coef, rest=float(coef @ coef) * self.rest, **self.planes)

    def optimal_cost(self, k: int, y: np.ndarray) -> float:
        """Cost of mode k at the discrete optimum with the state parts y (P, m),
        0.5 (||d_k||^2 - (d_k, y)) with the data's load for (d_k, y).

        At the optimum, the adjoint row of the mode system gives
        y . (nu K + time coupling) p = -p . M p / lam, which turns the state
        row into y . L y = y . b - p . M p / lam (L the mass or stiffness
        matrix the misfit reads, b the load); the misfit is exactly
        y . L y - 2 y . b + ||d_k||^2 (the quadrature is exact on products of
        P1 fields, and the projections are orthogonal in it), so the cost
        0.5 misfit + p . M p / (2 lam) is this.  ||d_k||^2 is the quadrature
        norm, equal to |c_k|^2 ||profile||^2 to rounding on every grid.
        """
        coef = self.mode_coefs(k)
        return 0.5 * float(coef @ coef * self.case.spatial_norm2 - coef @ (y @ self.load))

    def error_norms(self, k: int, sol, scratch: Scratch) -> tuple[float, float]:
        """(||e||^2, ||grad e||^2) of the state mode against the exact one.

        Uses (grad S, grad v_h) = kappa (S, v_h) for the eigenfunction
        profile, so only the profile's load vector is needed.  The stiffness
        and mass products, taken in one pass, borrow their buffers from
        `scratch`.
        """
        case = self.case
        a = np.array(case.exact_state_mode(k))[: mode_parts(k)]
        # the exact part's profile terms: a^2 ||S||^2 - 2 a (S, y_h)
        profile = float(0.25 * a @ a - 2 * a @ (sol.y @ self.state_load))
        with scratch.lend((2,) + sol.y.shape) as (products,):
            ky, my = self.ctx.KM(sol.y, out=products, scratch=scratch)
            return profile + float(np.vdot(sol.y, my)), case.eigen_kappa * profile + float(np.vdot(sol.y, ky))
