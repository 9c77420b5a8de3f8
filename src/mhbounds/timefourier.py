"""Fourier machinery in the time direction.

Coefficient extraction of periodic signals sampled once at the nodes of a
composite Gauss rule, norms over one period from the same samples, and the
truncation remainder of a Fourier series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class TimeSignalCoeffs:
    """Truncated Fourier representation of a T-periodic signal.

    u(t) = c0 + sum_k (cos_k * cos(k w t) + sin_k * sin(k w t)).
    """

    omega: float
    c0: float
    cos: np.ndarray
    sin: np.ndarray

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def k_max(self) -> int:
        return len(self.cos)

    def mode(self, k: int) -> tuple[float, float]:
        """(cosine, sine) pair of mode k; mode 0 returns (c0, 0)."""
        if k == 0:
            return self.c0, 0.0
        return float(self.cos[k - 1]), float(self.sin[k - 1])


def gauss_panels(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class SampledSignal:
    """One period of a T-periodic signal at the nodes of a composite Gauss
    rule; every Fourier coefficient is one weighted sum over the samples."""

    omega: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def _sums(self, ks: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The mean and the cosine and sine coefficients of modes ks."""
        period = self.period
        c0 = float(np.dot(self.weights, self.values)) / period
        phases = np.multiply.outer(ks, self.nodes) * self.omega
        cos = (2.0 / period) * (np.cos(phases) * self.values) @ self.weights
        sin = (2.0 / period) * (np.sin(phases) * self.values) @ self.weights
        return c0, cos, sin

    def table(self, k_max: int) -> TimeSignalCoeffs:
        """Coefficients of modes 0..k_max.

        Raises:
            ValueError: if k_max < 0.
        """
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        c0, cos, sin = self._sums(np.arange(1, k_max + 1))
        return TimeSignalCoeffs(omega=self.omega, c0=c0, cos=cos, sin=sin)

    def mode(self, k: int) -> tuple[float, float]:
        """(cosine, sine) pair of mode k alone; mode 0 returns (mean, 0).

        Raises:
            ValueError: if k < 0.
        """
        if k < 0:
            raise ValueError("mode index must be nonnegative")
        c0, cos, sin = self._sums(np.arange(k, k + 1) if k else np.arange(0))
        return (c0, 0.0) if k == 0 else (float(cos[0]), float(sin[0]))

    def norm2(self) -> float:
        """Integral of the squared signal over one period."""
        return float(np.dot(self.weights, self.values**2))


def sample_periodic(u: Callable, omega: float, panels: int = 64, order: int = 8) -> SampledSignal:
    """Samples of u over one period at the nodes of `gauss_panels`."""
    t, w = gauss_panels(0.0, 2.0 * np.pi / omega, panels, order)
    return SampledSignal(omega=omega, nodes=t, weights=w, values=u(t))


@dataclass
class RemainderTerm:
    """Truncation tail (T/2) * sum_{k>N} ||data mode k||^2."""

    value: float


def remainder_parseval(time_norm2: float, coeffs: TimeSignalCoeffs, n_modes: int,
                       spatial_norm2: float) -> RemainderTerm:
    """Tail energy via Parseval: total minus the retained modes.

    `time_norm2` is the integral of the squared time factor over one period
    (see `SampledSignal.norm2`); the data is the time factor times a fixed
    spatial profile with squared norm `spatial_norm2`.
    """
    if n_modes > coeffs.k_max:
        raise ValueError("need coefficients up to the truncation index")
    period = coeffs.period
    retained = period * coeffs.c0**2 + 0.5 * period * float(
        np.sum(coeffs.cos[:n_modes] ** 2 + coeffs.sin[:n_modes] ** 2)
    )
    value = (time_norm2 - retained) * spatial_norm2
    return RemainderTerm(value=float(value))
