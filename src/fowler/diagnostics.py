"""Norms, growth bounds, and residual reports for trajectories and fields.

The central a-priori estimate is the L2 growth bound

    ||v(t)|| <= e^{(alpha0 + C_phi) t} ||v0||,

with alpha0 the maximal linear growth rate and C_phi half the C^1_b norm of
the background profile.  The bound holds exactly for true solutions, so the
checker treats a violation (beyond a 1e-8 roundoff allowance) as a solver
bug, not as physics.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .grid import Grid, RealField
from .profiles import WaveProfile
from .record import Record

__all__ = [
    "DiagnosticsRecord",
    "EnergyBoundParams",
    "EnergyBoundReport",
    "l2_norm",
    "energy_bound_check",
    "c1b_norm",
]

# violations beyond this fraction of the bound are hard failures
BOUND_TOLERANCE = 1e-8


class DiagnosticsRecord(Record):
    """Per-time diagnostics attached to a trajectory record."""

    __slots__ = ("t", "l2", "energy_bound", "mass", "mass_drift", "picard_iters",
                 "picard_ratio", "spectral_tail")

    def __init__(self, t: float, l2: float, energy_bound: float, mass: float,
                 mass_drift: float, picard_iters: int, picard_ratio: float,
                 spectral_tail: float):
        self._fill(t, l2, energy_bound, mass, mass_drift, picard_iters, picard_ratio,
                   spectral_tail)
        fields = (self.t, self.l2, self.mass, self.mass_drift, self.picard_ratio,
                  self.spectral_tail)
        # energy_bound may be +inf: EnergyBoundParams.bound saturates there
        if not (all(math.isfinite(v) for v in fields) and self.energy_bound >= 0.0):
            raise ValueError(f"diagnostics record has non-finite entries: {self}")


class EnergyBoundParams(NamedTuple):
    alpha0: float
    c_phi: float
    v0_norm: float

    def bound(self, t: float) -> float:
        if t == 0.0:  # also for C_phi = inf, where the rate times t is no number
            return self.v0_norm
        try:
            value = math.exp((self.alpha0 + self.c_phi) * t) * self.v0_norm
        except OverflowError:  # saturates: a bound that loose bounds nothing, and is no fault
            return math.inf
        return math.inf if math.isnan(value) else value  # inf * 0 saturates too


class EnergyBoundReport(Record):
    __slots__ = ("margins", "ok", "first_violation")

    def __init__(self, margins: np.ndarray, ok: bool, first_violation: int | None):
        self._fill(margins, ok, first_violation)


def l2_norm(f: RealField) -> float:
    """sqrt(dx * sum f^2); Parseval-consistent with the spectral norm."""
    return float(np.sqrt(f.grid.spacing * np.sum(f.values**2)))


def energy_bound_check(traj) -> EnergyBoundReport:
    """Margin energy_bound - ||v(t)|| per record; fails on the first
    violation beyond BOUND_TOLERANCE * energy_bound.

    Each record carries the bound at its own time since the run's start, so
    the check reads the records alone: a resumed trajectory, whose records
    carry the bound of the run it resumes, is checked on that run's clock.
    """
    if not traj.records:
        raise ValueError("empty trajectory")
    bounds = np.array([r.energy_bound for r in traj.records])
    margins = bounds - np.array([r.l2 for r in traj.records])
    bad = margins < -BOUND_TOLERANCE * bounds
    first = int(np.argmax(bad)) if bad.any() else None
    return EnergyBoundReport(margins=margins, ok=not bad.any(), first_violation=first)


@functools.lru_cache(maxsize=1)
def c1b_norm(p: WaveProfile, grid: Grid) -> float:
    """sup|phi| + sup|phi'|, sups over the 16x finer box (profiles.sup_values).

    Sampling the finer box is the cost, and a run asks twice (its
    derived constants and its stepping loop), so the norm is kept for the
    last (profile, grid) asked; sampled profiles hash their samples by identity.
    """
    s0, s1 = p.sup_values(grid)
    return s0 + s1
