"""Travelling-wave profiles: the background states perturbations ride on.

A profile phi moving at speed c enters the dynamics as phi(x - c t),
periodized over the box.  Profiles are inputs here: constants, tanh fronts,
Gaussian bumps, or arbitrary sampled fields; nothing in this package
constructs travelling waves.  A tanh front is a periodic front pair, which
does not jump where the box wraps, and every kind's C^1_b norm is read from
the samples the stepper steps (sup_values).
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

    def evaluate(self, t: float, grid: Grid) -> RealField:
        """Samples of phi(x - c t) on the grid, argument wrapped into the box.
        A tanh front is the front at the offset (wrapped too) plus a return
        front at the box edge: periodic to 2e^{-2d/w}, d the front's distance
        to the edge, with slope A/w at both fronts."""
        if self.kind == "sampled":
            if self.samples.grid != grid:
                raise ValueError("sampled profile lives on a different grid")
            if self.speed * t == 0.0:
                return self.samples
            spectrum = real_spectrum(grid)
            coeffs = spectrum.forward(self.samples.values)
            return RealField(grid, spectrum.shifted(coeffs, -self.speed * t))
        A, w = self.amplitude, self.width
        if self.kind == "constant":
            return RealField(grid, np.full(grid.n, A))
        y = grid.points - self.speed * t
        half = 0.5 * grid.length
        y = (y + half) % grid.length - half
        if self.kind == "gaussian-bump":
            return RealField(grid, A * np.exp(-(((y - self.offset) / w) ** 2)))
        x0 = (self.offset + half) % grid.length - half
        pair = np.tanh((y - x0) / w) - np.tanh((y - half) / w) - np.tanh((y + half) / w)
        return RealField(grid, A * pair)

    def sup_values(self, grid: Grid) -> tuple[float, float]:
        """(sup|phi|, sup|phi'|), the C^1_b norm's terms, of the interpolant of
        evaluate(0.0, grid) over a SUP_OVERSAMPLING x finer box: that many
        shifted n-point copies of the grid.  Samples near the double range
        are scaled by a power of two first and the sups back: exact, and a
        sup past the double range is inf, never nan."""
        values = self.evaluate(0.0, grid).values
        # the spectrum reaches |phi| L, and phi' on the grid |phi| n^3 / L
        # before the transform's 1/n: the scaling keeps both below 2^1000
        exponent = max(math.frexp(_abs_max(values))[1] + abs(math.frexp(grid.length)[1])
                       + 3 * grid.n.bit_length() - 1000, 0)
        if exponent:
            values = np.ldexp(values, -exponent)
        spectrum = real_spectrum(grid)
        # each pass's spectrum is referenced by its generator alone, which steps
        # a copy of it, and map drops each copy before the next is formed
        sup = max(map(_abs_max, spectrum.shifted_copies(
            spectrum.forward(values), SUP_OVERSAMPLING)))
        slope = max(map(_abs_max, spectrum.shifted_copies(
            spectrum.forward(values) * spectrum.derivative, SUP_OVERSAMPLING)))
        half = exponent // 2  # 2^exponent itself may be past the double range
        return tuple(s * 2.0**half * 2.0 ** (exponent - half) for s in (sup, slope))
