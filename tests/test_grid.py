"""Transform conventions, spectral calculus, and their exactness properties."""

import numpy as np
import pytest

from fowler.grid import (
    RealField,
    SpectralField,
    circular_convolve,
    forward_transform,
    inverse_transform,
    make_grid,
    oversample,
    real_spectrum,
    spectral_derivative,
)
from fowler.diagnostics import l2_norm


def test_make_grid_basic():
    g = make_grid(8, 8.0)
    assert g.spacing == 1.0
    assert g.points[0] == -4.0
    assert g.n * g.spacing == g.length


def test_make_grid_spacing():
    g = make_grid(1024, 40.0)
    assert g.spacing == 0.0390625


@pytest.mark.parametrize(
    "n, length, match",
    [
        (7, 1.0, "even"),
        (4, 1.0, "at least 8"),
        (16, 0.0, "positive"),
        (16, -2.0, "positive"),
        (16, np.inf, "finite"),
        (16, np.nan, "finite"),
    ],
)
def test_make_grid_rejects(n, length, match):
    with pytest.raises(ValueError, match=match):
        make_grid(n, length)


def test_grid_points_and_frequencies():
    g = make_grid(16, 8.0)
    assert np.allclose(g.points, -4.0 + 0.5 * np.arange(16))
    # integer wavenumbers over L, FFT order
    assert g.frequencies[1] == pytest.approx(1.0 / 8.0)
    assert g.frequencies[-1] == pytest.approx(-1.0 / 8.0)
    assert g.frequencies[g.nyquist_index] == pytest.approx(-1.0)


def test_field_validation():
    g = make_grid(8, 8.0)
    with pytest.raises(ValueError, match="finite"):
        RealField(g, np.full(8, np.nan))
    with pytest.raises(ValueError, match="samples"):
        RealField(g, np.zeros(7))
    f = RealField(g, np.zeros(8))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # immutable


def test_forward_constant():
    g = make_grid(64, 12.5)
    F = forward_transform(RealField(g, np.ones(64)))
    assert F.coefficient(0) == pytest.approx(12.5, abs=1e-12)
    rest = np.delete(F.coeffs, 0)
    assert np.abs(rest).max() < 1e-12


def test_forward_single_cosine():
    g = make_grid(64, 20.0)
    f = RealField(g, np.cos(2 * np.pi * g.points / g.length))
    F = forward_transform(f)
    assert F.coefficient(1) == pytest.approx(g.length / 2, abs=1e-10)
    assert F.coefficient(-1) == pytest.approx(g.length / 2, abs=1e-10)
    others = np.abs(F.coeffs) > 1e-10
    assert others.sum() == 2


def test_forward_gaussian_matches_continuous_transform():
    # F(e^{-pi x^2})(xi) = e^{-pi xi^2}; box large enough for 1e-12 accuracy
    g = make_grid(1024, 40.0)
    F = forward_transform(RealField(g, np.exp(-np.pi * g.points**2)))
    exact = np.exp(-np.pi * g.frequencies**2)
    assert np.abs(F.coeffs - exact).max() < 1e-12


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    g = make_grid(256, 17.0)
    f = RealField(g, rng.standard_normal(256))
    back = inverse_transform(forward_transform(f))
    rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-12


def test_inverse_constant():
    g = make_grid(32, 6.0)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[0] = 6.0
    f = inverse_transform(SpectralField(g, coeffs))
    assert np.allclose(f.values, 1.0, atol=1e-13)


def test_inverse_rejects_broken_hermitian_pairing():
    g = make_grid(32, 6.0)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = 1j
    coeffs[-1] = 1j  # conj(i) = -i, so this pairing is broken
    with pytest.raises(ValueError, match="Hermitian"):
        inverse_transform(SpectralField(g, coeffs))


def test_derivative_of_constant_is_zero():
    g = make_grid(32, 9.0)
    F = forward_transform(RealField(g, np.ones(32)))
    for order in (1, 2):
        d = inverse_transform(spectral_derivative(F, order))
        assert np.abs(d.values).max() < 1e-13


def test_second_derivative_eigenfunction():
    g = make_grid(64, 11.0)
    f = np.cos(2 * np.pi * g.points / g.length)
    d2 = inverse_transform(spectral_derivative(forward_transform(RealField(g, f)), 2))
    assert np.allclose(d2.values, -((2 * np.pi / g.length) ** 2) * f, atol=1e-12)


def test_first_derivative_gaussian():
    g = make_grid(1024, 40.0)
    x = g.points
    f = RealField(g, np.exp(-np.pi * x**2))
    d1 = inverse_transform(spectral_derivative(forward_transform(f), 1))
    assert np.abs(d1.values - (-2 * np.pi * x) * np.exp(-np.pi * x**2)).max() < 1e-10


def test_derivative_order_validation():
    g = make_grid(16, 4.0)
    F = forward_transform(RealField(g, np.zeros(16)))
    with pytest.raises(ValueError, match="order"):
        spectral_derivative(F, 3)


def test_parseval():
    rng = np.random.default_rng(11)
    g = make_grid(128, 25.0)
    f = RealField(g, rng.standard_normal(128))
    F = forward_transform(f)
    physical_side = g.spacing * np.sum(f.values**2)
    spectral_side = np.sum(np.abs(F.coeffs) ** 2) / g.length
    assert physical_side == pytest.approx(spectral_side, rel=1e-12)


def test_linearity():
    rng = np.random.default_rng(13)
    g = make_grid(64, 10.0)
    a, b = rng.standard_normal(2)
    f1 = rng.standard_normal(64)
    f2 = rng.standard_normal(64)
    lhs = forward_transform(RealField(g, a * f1 + b * f2)).coeffs
    rhs = a * forward_transform(RealField(g, f1)).coeffs + b * forward_transform(
        RealField(g, f2)
    ).coeffs
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12


def test_translation_phase():
    rng = np.random.default_rng(17)
    g = make_grid(64, 16.0)
    f = rng.standard_normal(64)
    shift_cells = 5
    a = shift_cells * g.spacing
    shifted = np.roll(f, shift_cells)  # f(x - a) on the periodic grid
    lhs = forward_transform(RealField(g, shifted)).coeffs
    rhs = np.exp(-2j * np.pi * g.frequencies * a) * forward_transform(RealField(g, f)).coeffs
    assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(rhs).max() + 1e-13


def test_circular_convolve_gaussians():
    # e^{-pi x^2} * e^{-pi x^2} = 2^{-1/2} e^{-pi x^2 / 2}
    g = make_grid(1024, 40.0)
    f = RealField(g, np.exp(-np.pi * g.points**2))
    conv = circular_convolve(f, f)
    exact = np.exp(-np.pi * g.points**2 / 2) / np.sqrt(2)
    assert np.abs(conv.values - exact).max() < 1e-12


def test_oversample_reproduces_band_limited_field():
    g = make_grid(32, 8.0)
    func = lambda x: 0.3 + np.cos(2 * np.pi * x / 8.0) - 0.5 * np.sin(3 * 2 * np.pi * x / 8.0)
    x_fine, vals = oversample(RealField(g, func(g.points)), 16)
    assert len(x_fine) == 32 * 16
    assert np.abs(vals - func(x_fine)).max() < 1e-12


# --- half-spectrum (real) transforms against the full-spectrum reference ----

def full_spectrum_evaluation(F, x):
    """Interpolant summed over every stored mode, Nyquist through its cosine."""
    xi = F.grid.frequencies
    ny = F.grid.nyquist_index
    weights = np.exp(2j * np.pi * np.outer(x, xi))
    weights[:, ny] = np.cos(2 * np.pi * x * xi[ny])
    return (weights @ F.coeffs).real / F.grid.length


@pytest.mark.parametrize("n", [8, 1024])
def test_real_spectrum_matches_full_transform(n):
    rng = np.random.default_rng(n)
    g = make_grid(n, 13.0)
    spectrum = real_spectrum(g)
    for _ in range(3):
        f = RealField(g, rng.standard_normal(n))
        F = forward_transform(f)
        half = spectrum.forward(f.values)
        assert half.shape == (n // 2 + 1,)
        scale = np.abs(F.coeffs).max()
        assert np.abs(half - F.coeffs[: n // 2 + 1]).max() <= 1e-13 * scale
        assert np.array_equal(spectrum.frequencies[:-1], g.frequencies[: n // 2])
        back = spectrum.inverse(half)
        assert np.linalg.norm(back - f.values) <= 1e-13 * np.linalg.norm(f.values)
        assert spectrum.l2_norm(half) == pytest.approx(l2_norm(f), rel=1e-13)
        x = rng.uniform(-0.5 * g.length, 0.5 * g.length, 37)
        ref = full_spectrum_evaluation(F, x)
        assert np.abs(spectrum.evaluate(half, x) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_real_spectrum_derivative_and_mask():
    rng = np.random.default_rng(5)
    g = make_grid(64, 11.0)
    spectrum = real_spectrum(g)
    F = forward_transform(RealField(g, rng.standard_normal(64)))
    dF = spectral_derivative(F, 1)
    assert spectrum.derivative[-1] == 0.0
    assert np.array_equal(spectrum.derivative * F.coeffs[:33], dF.coeffs[:33])
    d2F = spectral_derivative(F, 2)
    assert spectrum.laplacian[-1] != 0.0
    scale = np.abs(d2F.coeffs).max()
    assert np.abs(spectrum.laplacian * F.coeffs[:33] - d2F.coeffs[:33]).max() <= 1e-14 * scale
    k = np.arange(33)
    assert np.array_equal(spectrum.dealias_mask, (k <= 64 // 3).astype(float))
    assert real_spectrum(make_grid(64, 11.0)) is spectrum
