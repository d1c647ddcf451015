"""Half-spectrum routes against full-spectrum references.

Each reference below is written on the full FFT spectrum (forward_transform,
inverse_transform, spectral_derivative) and handles the unpaired Nyquist
mode explicitly through its cosine, where the package relies on irfft
dropping the imaginary part of that entry.
"""

import numpy as np
import pytest

from fowler.grid import (
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    make_grid,
    oversample,
    spectral_derivative,
)
from fowler.kernel import kernel_field
from fowler.operator import QuadratureSpec, apply_nonlocal_integral, default_quadrature, psi_symbol
from fowler.profiles import WaveProfile

from conftest import band_limited_field


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def reference_kernel(t, grid):
    psi = psi_symbol(grid.frequencies)
    ny = grid.nyquist_index
    psi[ny] = psi[ny].real
    return inverse_transform(SpectralField(grid, np.exp(-t * psi))).values


def reference_integral(f, q):
    grid = f.grid
    F = forward_transform(f)
    phi = f.values
    dphi = inverse_transform(spectral_derivative(F, 1)).values
    d2phi = inverse_transform(spectral_derivative(F, 2)).values
    z, w = q.nodes_weights()
    xi, ny = grid.frequencies, grid.nyquist_index
    shift = np.exp(2j * np.pi * np.outer(z, xi))
    shift[:, ny] = np.cos(2.0 * np.pi * z * xi[ny])
    shifted = np.array(
        [inverse_transform(SpectralField(grid, F.coeffs * row)).values for row in shift]
    )
    prefactor = (4.0 / 9.0) * (2.0 * np.pi) ** (2.0 / 3.0)
    integrand = shifted - phi[None, :] - np.outer(z, dphi)
    body = prefactor * ((w * np.abs(z) ** (-7.0 / 3.0)) @ integrand)
    inner = prefactor * 0.75 * d2phi * q.z_min ** (2.0 / 3.0)
    centered = phi - F.coeffs[0].real / grid.length
    outer = prefactor * (
        -0.75 * q.z_max ** (-4.0 / 3.0) * centered + 3.0 * q.z_max ** (-1.0 / 3.0) * dphi
    )
    return body + inner + outer


def reference_oversample(f, factor):
    """Pad the full spectrum with zeros, splitting the Nyquist coefficient
    evenly over +n/2 and -n/2."""
    n, m = f.grid.n, f.grid.n * factor
    fine = make_grid(m, f.grid.length)
    C = forward_transform(f).coeffs
    padded = np.zeros(m, dtype=np.complex128)
    padded[: n // 2] = C[: n // 2]
    padded[m - n // 2 + 1 :] = C[n // 2 + 1 :]
    padded[n // 2] = padded[m - n // 2] = 0.5 * C[n // 2].real
    return inverse_transform(SpectralField(fine, padded)).values


def reference_shift(samples, a):
    """samples translated by a, Nyquist mode through its cosine."""
    grid = samples.grid
    xi, ny = grid.frequencies, grid.nyquist_index
    shift = np.exp(-2j * np.pi * xi * a)
    shift[ny] = np.cos(2.0 * np.pi * xi[ny] * a)
    return inverse_transform(SpectralField(grid, forward_transform(samples).coeffs * shift)).values


@pytest.mark.parametrize("t", [1e-3, 0.05, 0.5])
def test_kernel_field_matches_full_spectrum(t, grid_1024):
    values = kernel_field(t, grid_1024).field.values
    assert rel_err(values, reference_kernel(t, grid_1024)) <= 1e-13


def test_integral_route_matches_full_spectrum(grid_1024):
    # the reference sums one shifted copy of the field per quadrature node;
    # the route under test applies the summed multiplier once
    g = grid_1024
    rng = np.random.default_rng(42)
    fields = [band_limited_field(g, rng) for _ in range(5)]
    fields.append(RealField(g, rng.standard_normal(g.n)))
    rules = [default_quadrature(g), QuadratureSpec(20.0, 1e-3, 32), QuadratureSpec(20.0, 0.256, 16)]
    for q in rules:
        for f in fields:
            ref = reference_integral(f, q)
            assert rel_err(apply_nonlocal_integral(f, q).values, ref) <= 1e-10


@pytest.mark.parametrize("n, factor", [(8, 2), (64, 8), (1024, 16)])
def test_oversample_matches_full_spectrum(n, factor):
    rng = np.random.default_rng(n)
    f = RealField(make_grid(n, 13.0), rng.standard_normal(n))
    x_fine, values = oversample(f, factor)
    assert np.array_equal(x_fine, make_grid(n * factor, 13.0).points)
    assert rel_err(values, reference_oversample(f, factor)) <= 1e-13


def test_sampled_profile_shift_matches_full_spectrum():
    rng = np.random.default_rng(4)
    g = make_grid(128, 16.0)
    samples = RealField(g, rng.standard_normal(g.n))
    p = WaveProfile(kind="sampled", samples=samples, speed=0.7)
    for t in (0.013, 0.5, 3.1):
        ref = reference_shift(samples, p.speed * t)
        assert rel_err(p.evaluate(t, g).values, ref) <= 1e-13
