"""Half-spectrum routes against full-spectrum references.

Each reference below is written on the full FFT spectrum of
reference_spectrum (forward_transform, inverse_transform,
spectral_derivative) and handles the unpaired Nyquist mode explicitly
through its cosine, where the package relies on irfft dropping the
imaginary part of that entry.
"""

import numpy as np
import pytest

from fowler.grid import RealField, make_grid, real_spectrum
from fowler.kernel import (
    FINE,
    RESOLUTION_LIMIT,
    _brackets,
    kernel_field,
    nyquist_resolution_defect,
)
from fowler.operator import QuadratureSpec, apply_nonlocal_integral, psi_symbol, symbol_table
from fowler.profiles import WaveProfile

from conftest import band_limited_field, fine_samples
from reference_spectrum import (
    SpectralField,
    forward_transform,
    frequencies,
    inverse_transform,
    nyquist_index,
    reference_oversample,
    spectral_derivative,
)


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def reference_kernel_spectrum(t, grid):
    psi = psi_symbol(frequencies(grid))
    ny = nyquist_index(grid)
    psi[ny] = psi[ny].real
    return SpectralField(grid, np.exp(-t * psi))


def reference_kernel(t, grid):
    return inverse_transform(reference_kernel_spectrum(t, grid)).values


def reference_integral(f, q):
    grid = f.grid
    F = forward_transform(f)
    phi = f.values
    dphi = inverse_transform(spectral_derivative(F, 1)).values
    d2phi = inverse_transform(spectral_derivative(F, 2)).values
    z, w = q.nodes_weights()
    xi, ny = frequencies(grid), nyquist_index(grid)
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


def reference_shift(samples, a):
    """samples translated by a, Nyquist mode through its cosine."""
    grid = samples.grid
    xi, ny = frequencies(grid), nyquist_index(grid)
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
    rules = [QuadratureSpec(g.length / 2, 1e-4, 48), QuadratureSpec(20.0, 1e-3, 32), QuadratureSpec(20.0, 0.256, 16)]
    for q in rules:
        for f in fields:
            ref = reference_integral(f, q)
            assert rel_err(apply_nonlocal_integral(f, q).values, ref) <= 1e-10


@pytest.mark.parametrize("n, factor", [(8, 2), (64, 8), (1024, 16)])
def test_oversample_matches_full_spectrum(n, factor):
    rng = np.random.default_rng(n)
    f = RealField(make_grid(n, 13.0), rng.standard_normal(n))
    spectrum = real_spectrum(f.grid)
    values = fine_samples(spectrum, spectrum.forward(f.values), factor)
    assert rel_err(values, reference_oversample(forward_transform(f), factor)) <= 1e-13


@pytest.mark.parametrize("n, length", [(1024, 40.0), (2048, 10.0), (8192, 40.0), (16384, 40.0)])
def test_kernel_brackets_match_full_spectrum(n, length):
    # the sign changes of dK/dx on FINE shifted n-point copies are those of
    # the FINE x zero-padded full spectrum, at every time kernel-report
    # tabulates that the grid resolves, and so are the bracket-end values
    grid = make_grid(n, length)
    spectrum = real_spectrum(grid)
    times = [t for t in np.logspace(-4, 0, 17)
             if nyquist_resolution_defect(t, grid) <= RESOLUTION_LIMIT]
    assert len(times) >= 9
    for t in times:
        dF = spectrum.derivative * np.exp(-t * symbol_table(grid))
        nodes, d_lo, d_hi = _brackets(dF, spectrum)
        fine = reference_oversample(spectral_derivative(reference_kernel_spectrum(t, grid), 1),
                                    FINE)
        sign = fine >= 0
        expected = np.flatnonzero(sign != np.roll(sign, -1))
        assert np.array_equal(nodes, expected), (n, length, t)
        scale = np.abs(fine).max()
        assert np.abs(d_lo - fine[expected]).max() <= 1e-13 * scale
        assert np.abs(d_hi - np.roll(fine, -1)[expected]).max() <= 1e-13 * scale


def test_sampled_profile_shift_matches_full_spectrum():
    rng = np.random.default_rng(4)
    g = make_grid(128, 16.0)
    samples = RealField(g, rng.standard_normal(g.n))
    p = WaveProfile(kind="sampled", samples=samples, speed=0.7)
    for t in (0.013, 0.5, 3.1):
        ref = reference_shift(samples, p.speed * t)
        assert rel_err(p.evaluate(t, g).values, ref) <= 1e-13
