"""Kernel properties: mass, realness, sign, semigroup law, norm scalings."""

import numpy as np
import pytest

from fowler.grid import RealField, RealSpectrum, circular_convolve, make_grid, real_spectrum
from fowler.kernel import (
    FINE,
    _gradient_l1,
    grad_kernel_norms,
    kernel_field,
    convolve_kernel,
    nyquist_resolution_defect,
    semigroup_residual,
)
from fowler.operator import ALPHA0, XI_STAR, psi_symbol, symbol_table

from conftest import band_limited_field, spy_transforms, traced_peak
from reference_spectrum import forward_transform, hermitian_defect


@pytest.fixture(scope="module")
def fine_grid():
    # resolves kernels down to t = 1e-4 (Nyquist weight ~ e^{-650})
    return make_grid(8192, 40.0)


def l2(f: RealField) -> float:
    return float(np.sqrt(f.grid.spacing * np.sum(f.values**2)))


@pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
def test_kernel_mass_is_one(t, grid_1024):
    snap = kernel_field(t, grid_1024)
    assert snap.mass == pytest.approx(1.0, abs=1e-10)


def test_kernel_rejects_nonpositive_time(grid_1024):
    with pytest.raises(ValueError, match="positive"):
        kernel_field(0.0, grid_1024)
    with pytest.raises(ValueError, match="positive"):
        kernel_field(-0.1, grid_1024)


@pytest.mark.parametrize("t", [0.1, 0.5])
def test_kernel_takes_negative_values(t, grid_1024):
    snap = kernel_field(t, grid_1024)
    assert snap.field.values.min() < 0.0


def test_kernel_realness(grid_1024):
    # the full-spectrum transform of the sampled kernel is Hermitian and
    # reproduces the half-spectrum table e^{-t psi} on k = 0..n/2
    snap = kernel_field(0.05, grid_1024)
    back = forward_transform(snap.field).coeffs
    expected = np.exp(-0.05 * symbol_table(grid_1024))
    assert hermitian_defect(back) < 1e-12
    assert np.abs(back[: grid_1024.n // 2 + 1] - expected).max() < 1e-10


def test_kernel_identity_limit(grid_1024):
    rng = np.random.default_rng(23)
    f = band_limited_field(grid_1024, rng, k_lo=1, k_hi=8)
    errs = [l2(RealField(grid_1024, convolve_kernel(t, f).values - f.values))
            for t in (0.1, 0.01, 0.001)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2 * l2(f)


def test_convolve_preserves_constants(grid_1024):
    c = 1.7
    f = RealField(grid_1024, np.full(grid_1024.n, c))
    for t in (0.05, 0.5, 1.0):
        out = convolve_kernel(t, f)
        assert np.abs(out.values - c).max() < 1e-10


def test_convolve_linear_growth_bound(grid_1024):
    rng = np.random.default_rng(29)
    for t in (0.1, 1.0):
        for _ in range(10):
            f = RealField(grid_1024, rng.standard_normal(grid_1024.n))
            assert l2(convolve_kernel(t, f)) <= np.exp(ALPHA0 * t) * l2(f) * (1 + 1e-12)


def test_single_unstable_mode_growth(grid_1024):
    g = grid_1024
    k = int(round(XI_STAR * g.length))
    xi = k / g.length
    assert psi_symbol(xi).real < 0
    f = RealField(g, np.cos(2 * np.pi * xi * g.points))
    t = 0.2
    out = convolve_kernel(t, f)
    # mode magnitude grows by exactly e^{-Re psi(xi) t}
    C = real_spectrum(g).forward(out.values)[k]
    C0 = real_spectrum(g).forward(f.values)[k]
    assert abs(C / C0) == pytest.approx(np.exp(-psi_symbol(xi).real * t), rel=1e-12)


@pytest.mark.parametrize("s, t", [(0.1, 0.4), (0.05, 0.05), (0.25, 0.25)])
def test_semigroup_residual(s, t, grid_1024):
    assert semigroup_residual(s, t, grid_1024) < 1e-10


def test_self_convolution_transforms_once(grid_1024, monkeypatch):
    f = kernel_field(0.1, grid_1024).field
    twin = RealField(grid_1024, f.values)  # equal samples, another object
    by_pair = circular_convolve(f, twin)
    calls = spy_transforms(monkeypatch)
    by_self = circular_convolve(f, f)
    assert calls == ["forward", "inverse"]
    assert np.array_equal(by_self.values, by_pair.values)


def test_semigroup_residual_small_s_limit(fine_grid):
    residuals = [semigroup_residual(eps, 0.2, fine_grid) for eps in (0.02, 0.01, 0.005)]
    assert all(r < 1e-10 for r in residuals)


def test_grad_norm_scalings(fine_grid):
    t = np.logspace(-4, -2, 9)
    fit = grad_kernel_norms(t, fine_grid)
    assert fit.slope_l2 == pytest.approx(-0.75, abs=0.05)
    assert fit.slope_l1 == pytest.approx(-0.5, abs=0.05)
    assert np.isfinite(fit.K0) and np.isfinite(fit.K1)


def test_grad_norm_envelopes_bounded(fine_grid):
    t = np.logspace(-4, 0, 17)
    fit = grad_kernel_norms(t, fine_grid)
    # t^{3/4} l2 and t^{1/2} l1 stay uniformly bounded over [1e-4, 1]
    assert np.all(fit.times**0.75 * fit.l2_grad <= fit.K0 + 1e-12)
    assert np.all(fit.times**0.5 * fit.l1_grad <= fit.K1 + 1e-12)
    assert fit.K0 < 20.0
    assert fit.K1 < 40.0


def test_grad_norms_resolution_guard():
    coarse = make_grid(256, 40.0)
    with pytest.raises(ValueError, match="under-resolved"):
        grad_kernel_norms([1e-4, 1e-3], coarse)
    assert nyquist_resolution_defect(1e-4, coarse) > 1e-12


def test_nyquist_defect_builds_no_table():
    # probing a grid the CLI may not use leaves nothing cached, and the
    # single-frequency psi rounds like the table entry
    g = make_grid(1024, 40.0)
    psi_nyquist = symbol_table.__wrapped__(g)[-1].real
    symbol_table.cache_clear()
    real_spectrum.cache_clear()
    for t in (2e-6, 1e-4, 0.1):
        assert nyquist_resolution_defect(t, g) == float(np.exp(-t * psi_nyquist))
    assert symbol_table.cache_info().currsize == 0
    assert real_spectrum.cache_info().currsize == 0


@pytest.mark.parametrize("times, reason", [
    ([1e-4], "at least two sample times"),
    ([0.0, 1e-4], "must be positive"),
    ([-1e-4, 1e-4], "must be positive"),
], ids=["one-time", "zero-time", "negative-time"])
def test_grad_norms_reject_bad_sample_times(fine_grid, times, reason):
    with pytest.raises(ValueError, match=reason):
        grad_kernel_norms(times, fine_grid)


def test_grad_norms_l2_by_parseval(fine_grid, monkeypatch):
    # ||dK/dx||_L2 comes from the half spectrum (the norm of the sampled
    # derivative, sqrt(dx sum |K'|^2), is the same by the discrete Parseval
    # identity): the only inverse transforms are the FINE shifted n-point
    # copies that the L1 norm brackets its extrema on, and no forward one
    times = [1e-4, 3e-4]
    spectrum = real_spectrum(fine_grid)
    sampled = [l2(RealField(fine_grid, spectrum.inverse(
        spectrum.derivative * spectrum.forward(kernel_field(t, fine_grid).field.values))))
        for t in times]
    calls = spy_transforms(monkeypatch)
    shifted = RealSpectrum.shifted
    monkeypatch.setattr(RealSpectrum, "shifted",
                        lambda self, *args: calls.append("shifted") or shifted(self, *args))
    fit = grad_kernel_norms(times, fine_grid)
    assert calls == ["shifted", "inverse"] * (FINE * len(times))
    assert fit.l2_grad == pytest.approx(sampled, rel=1e-12)


def test_grad_norms_need_two_times_in_fitting_decade(fine_grid):
    # logspace(-4, 0, 3) puts only t = 1e-4 in [1e-4, 1e-3]: no slope to fit
    with pytest.raises(ValueError, match="fitting decade"):
        grad_kernel_norms(np.logspace(-4, 0, 3), fine_grid)


def test_grad_norms_cache_no_fine_grid(fine_grid):
    # the extrema search on the FINE x finer grid must not leave a
    # RealSpectrum of another grid in the cache: only the input grid's stays
    real_spectrum.cache_clear()
    grad_kernel_norms([1e-4, 3e-4], fine_grid)
    real_spectrum(fine_grid)  # a hit: the one cached entry is the input grid
    assert real_spectrum.cache_info().currsize == 1


def test_grad_norms_memory_is_a_few_copies(fine_grid):
    # the FINE x finer grid is held as n-point copies (64 KiB at n = 8192),
    # three alive at a time: never the 512 KiB fine derivative in one piece
    grad_kernel_norms(np.logspace(-4, 0, 17), fine_grid)  # tables cached
    assert traced_peak(grad_kernel_norms, np.logspace(-4, 0, 17), fine_grid) <= 0.6 * 2**20


def test_grad_norms_self_converged(fine_grid):
    finer = make_grid(2 * fine_grid.n, fine_grid.length)
    t = [1e-4, 3e-4]
    a = grad_kernel_norms(t, fine_grid)
    b = grad_kernel_norms(t, finer)
    assert np.abs(a.l2_grad - b.l2_grad).max() / b.l2_grad.max() < 1e-8
    assert np.abs(a.l1_grad - b.l1_grad).max() / b.l1_grad.max() < 1e-8


@pytest.mark.parametrize("kind", [np.cos, np.sin])
def test_gradient_l1_of_pure_modes(kind):
    # the zeros of f' sit on or within roundoff of the fine-grid nodes,
    # where the FFT samples and the dense sum may disagree in sign
    g = make_grid(64, 40.0)
    spectrum = real_spectrum(g)
    for k in range(1, 22):
        F = spectrum.forward(kind(2 * np.pi * k * g.points / g.length))
        l1 = _gradient_l1(F, spectrum.derivative * F, spectrum)
        assert l1 == pytest.approx(4.0 * k, rel=1e-12), (kind.__name__, k)


def test_grad_norms_dense_evaluations(fine_grid, monkeypatch):
    # the extrema polish costs a handful of dense trig sums per time, not a
    # fixed number of bisection rounds
    calls = []
    original = RealSpectrum.evaluate
    monkeypatch.setattr(
        RealSpectrum, "evaluate", lambda self, *args: calls.append(1) or original(self, *args)
    )
    grad_kernel_norms(np.logspace(-4, 0, 17), fine_grid)
    assert len(calls) <= 200
