import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from fowler.grid import RealField, RealSpectrum, make_grid

# the same examples on every run, and no per-example time limit: a first
# call may warm numpy or a cache
settings.register_profile("fowler", derandomize=True, deadline=None, database=None)
settings.load_profile("fowler")


def gamma_two_thirds_oracle() -> float:
    """Independent quadrature of the Euler integral for Gamma(2/3).

    Substituting t = u^3 removes the endpoint singularity; the near-roundoff
    tolerance makes quad warn even though the estimate is good to ~1e-14.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda u: 3.0 * u * math.exp(-(u**3)), 0.0, 30.0,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )
    return val


def band_limited_field(grid, rng, k_lo=8, k_hi=48, envelope_width=3.5, amplitude=1.0):
    """Random smooth field: a trig polynomial under a decaying envelope.

    The envelope makes the samples drop below 1e-8 of the peak at the box
    boundary (integral-route contract) while keeping the spectrum effectively
    confined to |xi| <= k_hi/L plus a narrow Gaussian blur.
    """
    x = grid.points
    acc = np.zeros(grid.n)
    count = k_hi - k_lo + 1
    for k in range(k_lo, k_hi + 1):
        a, b = rng.standard_normal(2) / np.sqrt(count)
        acc += a * np.cos(2 * np.pi * k * x / grid.length) + b * np.sin(
            2 * np.pi * k * x / grid.length
        )
    values = amplitude * np.exp(-((x / envelope_width) ** 2)) * acc
    return RealField(grid, values)


def spy_transforms(monkeypatch) -> list[str]:
    """Record each RealSpectrum.forward / inverse call by name, in order."""
    calls = []
    for name in ("forward", "inverse"):
        original = getattr(RealSpectrum, name)
        monkeypatch.setattr(RealSpectrum, name,
                            lambda self, a, _f=original, _n=name: calls.append(_n) or _f(self, a))
    return calls


@pytest.fixture(scope="session")
def grid_1024():
    return make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def grid_2048():
    return make_grid(2048, 40.0)
