"""Profile kinds, validation, and moving-frame evaluation."""

import math

import numpy as np
import pytest

from fowler.grid import RealField, make_grid, real_spectrum
from fowler.profiles import SUP_CHUNK, SUP_OVERSAMPLING, WaveProfile

from conftest import traced_peak
from reference_spectrum import forward_transform, reference_oversample, spectral_derivative


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        WaveProfile(kind="square-wave")


def test_sampled_requires_samples():
    with pytest.raises(ValueError, match="samples"):
        WaveProfile(kind="sampled")


def test_nonpositive_width_rejected():
    with pytest.raises(ValueError, match="width"):
        WaveProfile(kind="tanh-front", width=0.0)


def test_constant_evaluation():
    g = make_grid(64, 10.0)
    p = WaveProfile(kind="constant", amplitude=1.5, speed=3.0)
    for t in (0.0, 0.7):
        assert np.allclose(p.evaluate(t, g).values, 1.5)


def test_moving_front_translates():
    g = make_grid(256, 40.0)
    p = WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0, speed=2.0)
    t = 1.25
    values = p.evaluate(t, g).values
    # interior matches the unwrapped translate; the far side wraps around
    interior = g.points > -17.0
    assert np.allclose(values[interior], np.tanh(g.points[interior] - 2.5), atol=1e-12)
    wrapped = g.points < -17.5
    assert np.all(values[wrapped] > 0.9)


def test_moving_profile_wraps_periodically():
    g = make_grid(256, 40.0)
    p = WaveProfile(kind="gaussian-bump", amplitude=1.0, width=1.0, speed=1.0)
    full_period = p.evaluate(g.length / p.speed, g)
    assert np.allclose(full_period.values, p.evaluate(0.0, g).values, atol=1e-12)


def test_sampled_profile_shift_matches_roll():
    g = make_grid(128, 16.0)
    rng = np.random.default_rng(2)
    base = rng.standard_normal(128)
    p = WaveProfile(kind="sampled", samples=RealField(g, base), speed=1.0)
    # moving by exactly 8 cells
    t = 8 * g.spacing / p.speed
    shifted = p.evaluate(t, g)
    assert np.allclose(shifted.values, np.roll(base, 8), atol=1e-10)


@pytest.mark.parametrize("speed", [2.0**40 + 1.0, 1e308])
def test_sampled_profile_shift_wraps_into_the_box(speed):
    # c t is wrapped into the box before it enters the phase, as the analytic
    # kinds wrap x - c t: 2^40 + 1 is 8 cells past a whole number of periods,
    # and a c t near the double range gives finite samples, not nan
    g = make_grid(128, 16.0)
    base = np.random.default_rng(2).standard_normal(128)
    shifted = WaveProfile(kind="sampled", samples=RealField(g, base), speed=speed).evaluate(1.0, g)
    assert np.all(np.isfinite(shifted.values))
    if speed == 2.0**40 + 1.0:
        assert np.allclose(shifted.values, np.roll(base, 8), atol=1e-10)


@pytest.mark.parametrize("speed, t", [(1.3, 0.7), (-2.1, 0.33), (2.0**40 + 1.0, 1.0), (1e308, 0.5)])
def test_moving_sampled_profile_is_the_phase_shifted_spectrum(speed, t):
    # the translation phase e^{-2 i pi xi_k c t}, c t wrapped into the box
    g = make_grid(128, 16.0)
    base = np.random.default_rng(3).standard_normal(128)
    spectrum = real_spectrum(g)
    phase = np.exp(-2j * np.pi * spectrum.frequencies * math.remainder(speed * t, g.length))
    expected = spectrum.inverse(spectrum.forward(base) * phase)
    p = WaveProfile(kind="sampled", samples=RealField(g, base), speed=speed)
    assert np.array_equal(p.evaluate(t, g).values, expected)


def test_sup_values_orders():
    g = make_grid(512, 40.0)
    p = WaveProfile(kind="tanh-front", amplitude=2.0, width=0.5)
    s0, s1 = p.sup_values(g)
    assert s0 == pytest.approx(2.0, rel=1e-9)
    assert s1 == pytest.approx(4.0, rel=1e-6)


@pytest.mark.parametrize("n", [512, 1000, 16384])
def test_sup_values_in_chunks_match_one_pass(n):
    # one chunk at n = 512, a partial last chunk at 1000, 32 chunks at
    # 16384: the same nodes, so the same maxima to the bit
    g = make_grid(n, 40.0)
    m = n * SUP_OVERSAMPLING
    assert (m + SUP_CHUNK - 1) // SUP_CHUNK == {512: 1, 1000: 2, 16384: 32}[n]
    assert m % SUP_CHUNK == (0 if n != 1000 else 16000 - SUP_CHUNK)
    x = -0.5 * g.length + (g.length / m) * np.arange(m)
    for kind in ("tanh-front", "gaussian-bump", "constant"):
        p = WaveProfile(kind=kind, amplitude=1.3, width=0.7, offset=0.31)
        assert p.sup_values(g) == tuple(
            float(np.abs(p._analytic(x, order)).max()) for order in (0, 1)
        )


@pytest.mark.parametrize("kind", ["tanh-front", "gaussian-bump", "constant", "sampled"])
def test_sup_values_memory_is_a_few_chunks(kind):
    # 16 n = 262144 points are sampled in chunks of SUP_CHUNK, so the peak
    # is a few 64 KiB temporaries, not one array per sampled point; a
    # sampled profile's chunks are its SUP_OVERSAMPLING shifted n-point copies
    g = make_grid(16384, 40.0)
    p = WaveProfile(kind=kind, amplitude=1.3, width=0.7, offset=0.31,
                    samples=RealField(g, np.exp(-g.points**2)))
    p.sup_values(g)  # the grid's spectral tables are built outside the peak
    assert traced_peak(p.sup_values, g) <= (0.75 if kind == "sampled" else 0.5) * 2**20


@pytest.mark.parametrize("n", [64, 1000, 16384])
def test_sampled_sup_values_match_the_oversampled_grid(n):
    # the shifted copies hold the nodes of the SUP_OVERSAMPLING x finer grid
    g = make_grid(n, 40.0)
    values = np.exp(-g.points**2) + 0.1 * np.random.default_rng(n).standard_normal(n)
    F = forward_transform(RealField(g, values))
    fine = [float(np.abs(reference_oversample(c, SUP_OVERSAMPLING)).max())
            for c in (F, spectral_derivative(F, 1))]
    sups = WaveProfile(kind="sampled", samples=RealField(g, values)).sup_values(g)
    for got, want in zip(sups, fine):
        assert abs(got - want) <= 4 * np.spacing(want)
