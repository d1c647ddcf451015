import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import settings

from fowler.grid import RealField, RealSpectrum, make_grid
from fowler.kernel import grad_kernel_norms

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


def fine_samples(spectrum, coeffs, factor) -> np.ndarray:
    """Samples of the interpolant with half-spectrum coeffs on the factor x
    finer grid of the same box, from factor shifted n-point copies: fine
    node j * factor + i is sample j of the copy shifted by i dx / factor."""
    step = spectrum.grid.spacing / factor
    return np.stack([spectrum.shifted(coeffs, i * step) for i in range(factor)], axis=1).ravel()


def spy_transforms(monkeypatch) -> list[str]:
    """Record each RealSpectrum.forward / inverse call by name, in order."""
    calls = []
    for name in ("forward", "inverse"):
        original = getattr(RealSpectrum, name)
        monkeypatch.setattr(RealSpectrum, name,
                            lambda self, a, *rest, _f=original, _n=name:
                            calls.append(_n) or _f(self, a, *rest))
    return calls


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees allocated while fn(*args, **kwargs)
    runs; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def grid_1024():
    return make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def grid_2048():
    return make_grid(2048, 40.0)


#: the small-time window over which diagnostics.K0 and K1 are pinned: the dt
#: scale, where the per-step contraction bound needs them
CONTROL_WINDOW = (1e-4, 1e-2)


@pytest.fixture(scope="session")
def stepping_norm_fit():
    """The refit that diagnostics.K0 and K1 pin: 9 log-spaced times over
    CONTROL_WINDOW, on a grid fine enough to resolve the smallest."""
    times = np.logspace(math.log10(CONTROL_WINDOW[0]), math.log10(CONTROL_WINDOW[1]), 9)
    return grad_kernel_norms(times, make_grid(8192, 40.0))
