"""Travelling-wave profiles: the background states perturbations ride on.

A profile phi moving at speed c enters the dynamics as phi(x - c t),
periodized over the box.  Profiles are inputs here: constants, tanh fronts,
Gaussian bumps, or arbitrary sampled fields; nothing in this package
constructs travelling waves.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, RealField, real_spectrum
from .record import Record

__all__ = ["WaveProfile", "PROFILE_KINDS"]

PROFILE_KINDS = ("constant", "tanh-front", "gaussian-bump", "sampled")

#: sup_values samples the profile on a box this many times finer than the grid
SUP_OVERSAMPLING = 16

#: sup_values evaluates an analytic kind this many points (64 KiB arrays) at a
#: time: its temporaries stay cache-sized and never set a command's peak memory
SUP_CHUNK = 1 << 13


def _abs_max(values: np.ndarray) -> float:
    return float(np.abs(values).max())


class WaveProfile(Record):
    """Background profile phi and its wave speed.

    amplitude/width/offset parametrize the analytic kinds; `samples` carries
    the field for kind="sampled" (width and offset are ignored there).
    """

    __slots__ = ("kind", "amplitude", "width", "offset", "speed", "samples")

    def __init__(self, kind: str, amplitude: float = 1.0, width: float = 1.0,
                 offset: float = 0.0, speed: float = 0.0, samples: RealField | None = None):
        self._fill(kind, amplitude, width, offset, speed, samples)
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
            spectrum = real_spectrum(grid)
            coeffs = spectrum.forward(self.samples.values)
            return RealField(grid, spectrum.shifted(coeffs, -self.speed * t))
        y = grid.points - self.speed * t
        half = 0.5 * grid.length
        y = (y + half) % grid.length - half
        return RealField(grid, self._analytic(y, 0))

    def sup_values(self, grid: Grid) -> tuple[float, float]:
        """(sup|phi|, sup|phi'|) over a SUP_OVERSAMPLING x finer box: the two
        terms of the C^1_b norm.  A sampled profile's finer box is
        SUP_OVERSAMPLING shifted copies of the grid, n points each."""
        if self.kind == "sampled":
            spectrum = real_spectrum(grid)
            coeffs = spectrum.forward(self.samples.values)
            # map drops each copy before the next is formed
            sup = max(map(_abs_max, spectrum.shifted_copies(coeffs, SUP_OVERSAMPLING)))
            coeffs *= spectrum.derivative  # phi' in place: one spectrum alive at a time
            return sup, max(map(_abs_max, spectrum.shifted_copies(coeffs, SUP_OVERSAMPLING)))
        m = grid.n * SUP_OVERSAMPLING
        sups = [0.0, 0.0]
        for start in range(0, m, SUP_CHUNK):
            x = -0.5 * grid.length + (grid.length / m) * np.arange(start, min(start + SUP_CHUNK, m))
            for order in (0, 1):
                sups[order] = max(sups[order], _abs_max(self._analytic(x, order)))
        return tuple(sups)
