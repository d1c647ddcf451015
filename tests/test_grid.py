"""The half-spectrum transform convention, spectral calculus, and exactness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fowler.grid import RealField, circular_convolve, make_grid, real_spectrum
from fowler.diagnostics import l2_norm

from conftest import fine_samples
from reference_spectrum import (
    SpectralField,
    forward_transform,
    frequencies,
    inverse_transform,
    nyquist_index,
    spectral_derivative,
)


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


@pytest.mark.parametrize("n", [64, 2**17])
def test_make_grid_accepts_a_box_iff_its_tables_are_finite(n):
    # the Laplacian's Nyquist entry (pi n / L)^2 is the largest table entry,
    # finite down to L = pi n / sqrt(max double): 1.5e-152 at n = 64
    limit = math.pi * n / math.sqrt(np.finfo(float).max)
    for length in (1e-308, limit * (1 - 1e-9)):
        with pytest.raises(ValueError, match="too small"):
            make_grid(n, length)
    for length in (limit * (1 + 1e-9), 1e-144):
        spectrum = real_spectrum(make_grid(n, length))  # RuntimeWarnings are errors here
        for table in (spectrum.frequencies, spectrum.derivative, spectrum.laplacian):
            assert np.all(np.isfinite(table))
        assert np.all(np.isfinite(spectrum.inverse(spectrum.forward(np.ones(n)))))


def test_grid_points_and_frequencies():
    g = make_grid(16, 8.0)
    assert np.allclose(g.points, -4.0 + 0.5 * np.arange(16))
    # integer wavenumbers over L, k = 0..n/2; the last entry is the Nyquist
    xi = real_spectrum(g).frequencies
    assert len(xi) == 9
    assert xi[1] == pytest.approx(1.0 / 8.0)
    assert xi[-1] == pytest.approx(1.0)


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
    C = real_spectrum(g).forward(np.ones(64))
    assert C[0] == pytest.approx(12.5, abs=1e-12)  # the mass dx * sum f
    assert np.abs(C[1:]).max() < 1e-12


def test_forward_single_cosine():
    g = make_grid(64, 20.0)
    C = real_spectrum(g).forward(np.cos(2 * np.pi * g.points / g.length))
    # the k = -1 partner is the conjugate of C[1] and is not stored
    assert C[1] == pytest.approx(g.length / 2, abs=1e-10)
    assert (np.abs(C) > 1e-10).sum() == 1


def test_forward_gaussian_matches_continuous_transform():
    # F(e^{-pi x^2})(xi) = e^{-pi xi^2}; box large enough for 1e-12 accuracy
    g = make_grid(1024, 40.0)
    spectrum = real_spectrum(g)
    C = spectrum.forward(np.exp(-np.pi * g.points**2))
    exact = np.exp(-np.pi * spectrum.frequencies**2)
    assert np.abs(C - exact).max() < 1e-12


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    g = make_grid(256, 17.0)
    spectrum = real_spectrum(g)
    f = rng.standard_normal(256)
    back = spectrum.inverse(spectrum.forward(f))
    assert np.linalg.norm(back - f) / np.linalg.norm(f) < 1e-12


def test_inverse_constant():
    g = make_grid(32, 6.0)
    coeffs = np.zeros(17, dtype=complex)
    coeffs[0] = 6.0
    assert np.allclose(real_spectrum(g).inverse(coeffs), 1.0, atol=1e-13)


def test_derivative_of_constant_is_zero():
    g = make_grid(32, 9.0)
    spectrum = real_spectrum(g)
    C = spectrum.forward(np.ones(32))
    for multiplier in (spectrum.derivative, spectrum.laplacian):
        assert np.abs(spectrum.inverse(multiplier * C)).max() < 1e-13


def test_second_derivative_eigenfunction():
    g = make_grid(64, 11.0)
    spectrum = real_spectrum(g)
    f = np.cos(2 * np.pi * g.points / g.length)
    d2 = spectrum.inverse(spectrum.laplacian * spectrum.forward(f))
    assert np.allclose(d2, -((2 * np.pi / g.length) ** 2) * f, atol=1e-12)


def test_first_derivative_gaussian():
    g = make_grid(1024, 40.0)
    spectrum = real_spectrum(g)
    x = g.points
    d1 = spectrum.inverse(spectrum.derivative * spectrum.forward(np.exp(-np.pi * x**2)))
    assert np.abs(d1 - (-2 * np.pi * x) * np.exp(-np.pi * x**2)).max() < 1e-10


def test_parseval():
    rng = np.random.default_rng(11)
    g = make_grid(128, 25.0)
    f = rng.standard_normal(128)
    C = real_spectrum(g).forward(f)
    physical_side = g.spacing * np.sum(f**2)
    spectral_side = real_spectrum(g).mode_energy(C).sum() / g.length
    assert physical_side == pytest.approx(spectral_side, rel=1e-12)


def test_linearity():
    rng = np.random.default_rng(13)
    g = make_grid(64, 10.0)
    forward = real_spectrum(g).forward
    a, b = rng.standard_normal(2)
    f1 = rng.standard_normal(64)
    f2 = rng.standard_normal(64)
    lhs = forward(a * f1 + b * f2)
    rhs = a * forward(f1) + b * forward(f2)
    assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-12


def test_translation_phase():
    rng = np.random.default_rng(17)
    g = make_grid(64, 16.0)
    spectrum = real_spectrum(g)
    f = rng.standard_normal(64)
    shift_cells = 5
    a = shift_cells * g.spacing
    shifted = np.roll(f, shift_cells)  # f(x - a) on the periodic grid
    lhs = spectrum.forward(shifted)
    rhs = np.exp(-2j * np.pi * spectrum.frequencies * a) * spectrum.forward(f)
    assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(rhs).max() + 1e-13


@pytest.mark.parametrize("n", [64, 1000])
def test_shifted_translates_the_samples(n):
    g = make_grid(n, 40.0)
    spectrum = real_spectrum(g)
    f = np.random.default_rng(n).standard_normal(n)
    coeffs = spectrum.forward(f)
    assert np.array_equal(spectrum.shifted(coeffs, 0.0), spectrum.inverse(coeffs))
    # the samples at x_j + k dx are f_{j+k}
    for k in (1, -3, 7):
        assert np.abs(spectrum.shifted(coeffs, k * g.spacing) - np.roll(f, -k)).max() <= 1e-13


def assert_copies_are_the_shifts(spectrum, coeffs, m):
    # copy j is shifted(coeffs, j dx / m) to roundoff (the stepped phase
    # drifts by a few eps over m steps), copy 0 is inverse(coeffs) bit for
    # bit, and the caller's coefficients are left as they were
    kept = coeffs.copy()
    copies = list(spectrum.shifted_copies(coeffs, m))
    assert len(copies) == m
    assert np.array_equal(copies[0], spectrum.inverse(coeffs))
    for j, copy in enumerate(copies):
        want = spectrum.shifted(coeffs, j * spectrum.grid.spacing / m)
        assert np.abs(copy - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(coeffs, kept)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("n", [64, 1024, 16384])
def test_shifted_copies_step_the_shift_phase(n, m):
    g = make_grid(n, 40.0)
    spectrum = real_spectrum(g)
    rng = np.random.default_rng(n + m)
    for values in (np.exp(-g.points**2), rng.standard_normal(n)):
        assert_copies_are_the_shifts(spectrum, spectrum.forward(values), m)


def test_shifted_copies_take_the_callers_phase():
    # a caller that holds shift_phase(dx / m) gets the same copies
    g = make_grid(256, 40.0)
    spectrum = real_spectrum(g)
    coeffs = spectrum.forward(np.random.default_rng(3).standard_normal(256))
    given_phase = spectrum.shifted_copies(coeffs, 8, spectrum.shift_phase(g.spacing / 8))
    for copy in spectrum.shifted_copies(coeffs, 8):
        assert np.array_equal(next(given_phase), copy)
    assert next(given_phase, None) is None


def test_circular_convolve_gaussians():
    # e^{-pi x^2} * e^{-pi x^2} = 2^{-1/2} e^{-pi x^2 / 2}
    g = make_grid(1024, 40.0)
    f = RealField(g, np.exp(-np.pi * g.points**2))
    conv = circular_convolve(f, f)
    exact = np.exp(-np.pi * g.points**2 / 2) / np.sqrt(2)
    assert np.abs(conv.values - exact).max() < 1e-12


def test_oversample_reproduces_band_limited_field():
    # 16 shifted copies hold the nodes of the 16x finer grid
    g = make_grid(32, 8.0)
    func = lambda x: 0.3 + np.cos(2 * np.pi * x / 8.0) - 0.5 * np.sin(3 * 2 * np.pi * x / 8.0)
    spectrum = real_spectrum(g)
    vals = fine_samples(spectrum, spectrum.forward(func(g.points)), 16)
    x_fine = make_grid(32 * 16, 8.0).points
    assert len(vals) == 32 * 16
    assert np.abs(vals - func(x_fine)).max() < 1e-12


# --- the full-spectrum reference: its own guards, then the half spectrum
# --- against it

def test_inverse_rejects_broken_hermitian_pairing():
    g = make_grid(32, 6.0)
    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = 1j
    coeffs[-1] = 1j  # conj(i) = -i, so this pairing is broken
    with pytest.raises(ValueError, match="Hermitian"):
        inverse_transform(SpectralField(g, coeffs))


def test_derivative_order_validation():
    g = make_grid(16, 4.0)
    F = forward_transform(RealField(g, np.zeros(16)))
    with pytest.raises(ValueError, match="order"):
        spectral_derivative(F, 3)


def full_spectrum_evaluation(F, x):
    """Interpolant summed over every stored mode, Nyquist through its cosine."""
    xi = frequencies(F.grid)
    ny = nyquist_index(F.grid)
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
        assert np.array_equal(spectrum.frequencies[:-1], frequencies(g)[: n // 2])
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
    # the 2/3 rule's band k < dealias_modes keeps exactly |k| <= n/3
    k = np.arange(33)
    assert np.array_equal(k < spectrum.dealias_modes, k <= 64 // 3)
    assert real_spectrum(make_grid(64, 11.0)) is spectrum


@pytest.mark.parametrize("n", [8, 1024, 16384])
def test_l2_norm_single_pass_matches_mode_energy(n):
    # random spectra with nonzero, complex DC and Nyquist entries: the
    # single pass subtracts the unpaired entries exactly as the weights do
    rng = np.random.default_rng(n + 7)
    spectrum = real_spectrum(make_grid(n, 13.0))
    for scale in (1e-150, 1.0, 1e150):
        c = scale * (rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1))
        c[0] *= 50.0
        c[-1] *= 50.0
        ref = np.sqrt(spectrum.mode_energy(c).sum() / spectrum.grid.length)
        assert spectrum.l2_norm(c) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_l2_norm_overflow_is_non_finite_without_warning():
    spectrum = real_spectrum(make_grid(64, 13.0))
    c = np.full(33, 1e200 + 1e200j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(spectrum.l2_norm(c))
        c[1:-1] = 0.0
        assert not np.isfinite(spectrum.l2_norm(c))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("modes", [None, 22])
def test_l2_norm_of_non_finite_band_is_non_finite_without_warning(bad, modes):
    # the sum after einsum is Python float arithmetic: inf and nan pass
    # through math.sqrt, which neither raises nor warns on them
    spectrum = real_spectrum(make_grid(64, 13.0))
    for entry in (0, 1, 21, 32):
        c = np.ones(33, dtype=np.complex128)[:modes]
        if entry >= c.size:
            continue
        for value in (bad, complex(1.0, bad)):
            c[entry] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                norm = spectrum.l2_norm(c)
            assert math.isnan(norm) or norm == math.inf


@pytest.mark.parametrize("modes", [None, 3, 342, 513, 600])
def test_forward_returns_arrays_that_own_their_memory(modes):
    # a band is a compact product, not a view that pins the whole rfft
    # output; the full spectrum is the rfft output itself
    spectrum = real_spectrum(make_grid(1024, 13.0))
    v = np.random.default_rng(5).standard_normal(1024)
    coeffs = spectrum.forward(v, modes)
    assert coeffs.base is None and coeffs.flags.owndata
    assert coeffs.shape == (min(modes or 513, 513),)
    assert np.array_equal(coeffs, spectrum.forward(v)[: coeffs.size])


#: random even n >= 8, box length and field seed; no draw allocates much
GRID_CASES = st.tuples(st.integers(4, 1024).map(lambda half: 2 * half),
                       st.floats(1.0, 100.0), st.integers(0, 2**32 - 1))


@given(case=GRID_CASES, band=st.integers(1, 513), m=st.integers(1, 16))
def test_shifted_copies_of_random_bands(case, band, m):
    # random band-limited fields: the leading band of modes kept, up to all
    n, length, seed = case
    spectrum = real_spectrum(make_grid(n, length))
    coeffs = spectrum.forward(np.random.default_rng(seed).standard_normal(n))
    coeffs[band:] = 0.0
    assert_copies_are_the_shifts(spectrum, coeffs, m)


@given(case=GRID_CASES)
def test_dealiased_band_is_the_masked_spectrum(case):
    # forward's leading band of dealias_modes entries is the 2/3-rule
    # spectrum without its zeros: the same field bit for bit, the same mode
    # energies, and the same norm up to einsum's accumulation order, which
    # depends on the array's length (at most 1.1 eps seen over 3000 fields)
    n, length, seed = case
    spectrum = real_spectrum(make_grid(n, length))
    v = np.random.default_rng(seed).standard_normal(n)
    modes = spectrum.dealias_modes
    band = spectrum.forward(v, modes)
    masked = spectrum.forward(v) * (np.arange(spectrum.size) <= n // 3).astype(float)
    assert band.shape == (n // 3 + 1,)
    assert np.array_equal(band, masked[:modes])
    assert np.array_equal(spectrum.inverse(band), spectrum.inverse(masked))
    energy = spectrum.mode_energy(masked)
    assert np.array_equal(spectrum.mode_energy(band), energy[:modes])
    assert not energy[modes:].any()
    assert spectrum.l2_norm(band) == pytest.approx(spectrum.l2_norm(masked),
                                                   rel=4 * np.finfo(float).eps, abs=0.0)


@given(case=GRID_CASES)
def test_full_spectrum_counts_its_nyquist_entry_once(case):
    # white noise has a Nyquist mode; counted twice, it would move the
    # norm by about 1/n relative, far beyond the Parseval tolerance
    n, length, seed = case
    grid = make_grid(n, length)
    spectrum = real_spectrum(grid)
    v = np.random.default_rng(seed).standard_normal(n)
    F = spectrum.forward(v)
    energy = spectrum.mode_energy(F)
    parseval = l2_norm(RealField(grid, v))
    assert spectrum.l2_norm(F) == pytest.approx(parseval, rel=1e-12)
    assert np.sqrt(energy.sum() / length) == pytest.approx(parseval, rel=1e-12)
    assert energy[0] == F[0].real ** 2 and energy[-1] == F[-1].real ** 2
    assert np.array_equal(energy[1:-1], 2.0 * (F[1:-1].real ** 2 + F[1:-1].imag ** 2))
