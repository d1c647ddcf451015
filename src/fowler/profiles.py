"""Travelling-wave profiles: the background states perturbations ride on.

A profile phi moving at speed c enters the dynamics as phi(x - c t),
periodized over the box.  Profiles are inputs here: constants, tanh fronts,
Gaussian bumps, or arbitrary sampled fields; nothing in this package
constructs travelling waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, RealField, real_spectrum

__all__ = ["WaveProfile", "PROFILE_KINDS"]

PROFILE_KINDS = ("constant", "tanh-front", "gaussian-bump", "sampled")

#: sup_values samples the profile on a box this many times finer than the grid
SUP_OVERSAMPLING = 16

#: sup_values evaluates an analytic kind this many points (1 MiB) at a time
SUP_CHUNK = 1 << 17


@dataclass(frozen=True)
class WaveProfile:
    """Background profile phi and its wave speed.

    amplitude/width/offset parametrize the analytic kinds; `samples` carries
    the field for kind="sampled" (width and offset are ignored there).
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    offset: float = 0.0
    speed: float = 0.0
    samples: RealField | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {PROFILE_KINDS}")
        if self.kind == "sampled" and self.samples is None:
            raise ValueError("sampled profile requires samples")
        params = (self.amplitude, self.width, self.offset, self.speed)
        if not all(math.isfinite(v) for v in params):
            raise ValueError(
                f"amplitude, width, offset and speed must be finite, got {params}"
            )
        if self.kind in ("tanh-front", "gaussian-bump") and not (self.width > 0):
            raise ValueError(f"profile width must be positive, got {self.width}")

    def _analytic(self, y: np.ndarray, derivative: int) -> np.ndarray:
        """phi (derivative 0) or phi' (derivative 1) of an analytic kind."""
        A, w = self.amplitude, self.width
        if self.kind == "constant":
            return np.full_like(y, A) if derivative == 0 else np.zeros_like(y)
        u = (y - self.offset) / w
        if self.kind == "tanh-front":
            if derivative == 0:
                return A * np.tanh(u)
            with np.errstate(over="ignore"):  # cosh overflows where sech^2 is 0
                return (A / w) * (1.0 / np.cosh(u) ** 2)
        # gaussian-bump
        bump = A * np.exp(-(u**2))
        if derivative == 0:
            return bump
        return bump * (-2.0 * u / w)

    def evaluate(self, t: float, grid: Grid) -> RealField:
        """Samples of phi(x - c t) on the grid, argument wrapped into the box."""
        if self.kind == "sampled":
            if self.samples.grid != grid:
                raise ValueError("sampled profile lives on a different grid")
            if self.speed * t == 0.0:
                return self.samples
            # translation is a phase in the spectrum (periodic by nature);
            # irfft keeps only the real part of the (real) Nyquist coefficient
            # times its phase, which is the cosine of the real interpolant
            spectrum = real_spectrum(grid)
            shift = np.exp(-2j * np.pi * spectrum.frequencies * (self.speed * t))
            coeffs = spectrum.forward(self.samples.values)
            return RealField(grid, spectrum.inverse(coeffs * shift))
        y = grid.points - self.speed * t
        half = 0.5 * grid.length
        y = (y + half) % grid.length - half
        return RealField(grid, self._analytic(y, 0))

    def sup_values(self, grid: Grid) -> tuple[float, float]:
        """(sup|phi|, sup|phi'|) over a SUP_OVERSAMPLING x finer box: the two
        terms of the C^1_b norm."""
        if self.kind == "sampled":
            spectrum = real_spectrum(grid)
            F = spectrum.forward(self.samples.values)
            return tuple(
                float(np.abs(spectrum.oversampled(multiplier * F, SUP_OVERSAMPLING)).max())
                for multiplier in (1.0, spectrum.derivative)
            )
        m = grid.n * SUP_OVERSAMPLING
        sups = [0.0, 0.0]
        for start in range(0, m, SUP_CHUNK):
            x = -0.5 * grid.length + (grid.length / m) * np.arange(start, min(start + SUP_CHUNK, m))
            for order in (0, 1):
                sups[order] = max(sups[order], float(np.abs(self._analytic(x, order)).max()))
        return tuple(sups)
