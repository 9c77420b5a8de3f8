"""Fourier machinery in the time direction.

Coefficient extraction of periodic signals sampled once at the nodes of a
composite Gauss rule, norms over one period from the same samples, and the
tail of their Fourier series past a truncation index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


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

    def energies(self, n_modes: int) -> np.ndarray:
        """Parseval energies T c0^2 and (T/2) (cos_k^2 + sin_k^2) of modes
        0..n_modes; e^{i k omega t} is stepped by one complex product per
        mode, far cheaper than evaluating it, at about k rounding units."""
        weighted = self.weights * self.values
        step = np.exp(1j * self.omega * self.nodes)
        phase = np.ones_like(step)
        sums = np.empty(n_modes + 1, dtype=complex)
        for k in range(n_modes + 1):
            sums[k] = weighted @ phase
            phase *= step
        energy = (2.0 / self.period) * np.abs(sums) ** 2
        energy[0] *= 0.5
        return energy

    def tail(self, n_modes: int) -> float:
        """The energy of the modes above n_modes: the squared norm over one
        period minus that of modes 0..n_modes by Parseval, T c0^2 for mode 0
        and (T/2) (cos_k^2 + sin_k^2) for the others.

        Raises:
            ValueError: if n_modes < 0.
        """
        if n_modes < 0:
            raise ValueError("mode index must be nonnegative")
        period = self.period
        c0, cos, sin = self._sums(np.arange(1, n_modes + 1))
        retained = period * c0**2 + 0.5 * period * float(np.sum(cos**2 + sin**2))
        return self.norm2() - retained


def sample_periodic(u: Callable, omega: float, panels: int, order: int) -> SampledSignal:
    """Samples of u over one period at the nodes of `gauss_panels`."""
    t, w = gauss_panels(0.0, 2.0 * np.pi / omega, panels, order)
    return SampledSignal(omega=omega, nodes=t, weights=w, values=u(t))
