"""Profile kinds, validation, moving-frame evaluation, and the C^1_b norm
terms read from the samples the stepper steps."""

import math

import numpy as np
import pytest

from fowler.grid import RealField, make_grid, real_spectrum
from fowler.diagnostics import c1b_norm
from fowler.profiles import SUP_OVERSAMPLING, WaveProfile

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
    # 14 widths from the return front, the profile is the unwrapped
    # translate; the return front carries it back to 0 at the translated box
    # edge, so no step between neighbours, the one across the box edge
    # included, exceeds the slope A/w
    interior = np.abs(g.points) < 3.5
    assert np.allclose(values[interior], np.tanh(g.points[interior] - 2.5), atol=1e-12)
    wrapped = g.points < -17.5
    assert np.all((values[wrapped] > 0.0) & (values[wrapped] < 1.0))
    assert np.abs(np.diff(values, append=values[0])).max() <= g.spacing


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


@pytest.mark.parametrize("kind", ["tanh-front", "gaussian-bump", "constant", "sampled"])
def test_sup_values_memory_is_a_few_chunks(kind):
    # 16 n = 262144 points are sampled as SUP_OVERSAMPLING shifted n-point
    # copies of the grid, so the peak is a few 128 KiB arrays, not one array
    # per sampled point; every kind takes the same path
    g = make_grid(16384, 40.0)
    p = WaveProfile(kind=kind, amplitude=1.3, width=0.7, offset=0.31,
                    samples=RealField(g, np.exp(-g.points**2)))
    p.sup_values(g)  # the grid's spectral tables are built outside the peak
    assert traced_peak(p.sup_values, g) <= 0.75 * 2**20


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


def interpolant_sups(values: np.ndarray, grid) -> tuple[float, float]:
    """(sup|phi|, sup|phi'|) of the trigonometric interpolant of values on the
    SUP_OVERSAMPLING x finer box, by the full-spectrum reference transforms."""
    F = forward_transform(RealField(grid, values))
    return tuple(float(np.abs(reference_oversample(c, SUP_OVERSAMPLING)).max())
                 for c in (F, spectral_derivative(F, 1)))


#: (kind, offset, speed): a front and a bump well inside the box, one
#: moving; the closed forms of their two sups
PERIODIC = [("tanh-front", 0.0, 0.0), ("tanh-front", -6.3, 1.3), ("gaussian-bump", 2.1, 0.0),
            ("constant", 0.0, 0.0)]


@pytest.mark.parametrize("kind, offset, speed", PERIODIC + [("gaussian-bump", 17.0, -0.4),
                                                            ("sampled", 0.0, 0.7)])
@pytest.mark.parametrize("n", [256, 2048])
def test_c_phi_is_half_the_norm_of_the_stepped_profile(kind, offset, speed, n):
    # every kind: the C^1_b norm is read from the samples the stepper steps,
    # through their interpolant on the SUP_OVERSAMPLING x finer box; a bump
    # that the box edge cuts (offset 17) gets the norm of what is stepped
    g = make_grid(n, 40.0)
    samples = RealField(g, np.tanh(g.points) + 0.1 * np.sin(2 * np.pi * 3 * g.points / 40.0))
    p = WaveProfile(kind=kind, amplitude=1.3, width=0.8, offset=offset, speed=speed,
                    samples=samples)
    want = interpolant_sups(p.evaluate(0.0, g).values, g)
    got = p.sup_values(g)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13 * max(b, 1.0)
    assert c1b_norm(p, g) == sum(got)


@pytest.mark.parametrize("kind, offset, speed", PERIODIC)
def test_periodic_profiles_meet_their_closed_forms(kind, offset, speed):
    # where the profile is periodic, the interpolant's sups are the closed
    # forms: A and A/w for the front pair, A and A sqrt(2/e)/w for a bump,
    # A and 0 for a constant
    g = make_grid(2048, 40.0)
    A, w = 1.3, 0.8
    p = WaveProfile(kind=kind, amplitude=A, width=w, offset=offset, speed=speed)
    slope = {"tanh-front": A / w, "gaussian-bump": A * math.sqrt(2.0 / math.e) / w,
             "constant": 0.0}[kind]
    s0, s1 = p.sup_values(g)
    assert abs(s0 - A) <= 1e-6 and abs(s1 - slope) <= 1e-6


def test_an_edge_cut_bump_has_a_larger_norm_than_its_closed_form():
    # a bump that the box edge cuts jumps where the box wraps: the stepped
    # profile's slope is far above the whole-line A sqrt(2/e)/w
    g = make_grid(1024, 40.0)
    p = WaveProfile(kind="gaussian-bump", amplitude=1.3, width=3.0, offset=17.0)
    assert p.sup_values(g)[1] > 10 * 1.3 * math.sqrt(2.0 / math.e) / 3.0


@pytest.mark.parametrize("length", [40.0, 1e-100, 1e300])
@pytest.mark.parametrize("amplitude", [1e154, 1e308])
def test_sup_values_of_huge_samples_are_not_nan(length, amplitude):
    # samples that are finite but near the double range, on an ordinary,
    # a tiny and a huge box: the transforms of the samples scaled by a power
    # of two do not overflow, and the scaling back is exact, so sup|phi| is
    # finite and close to the samples' peak, and C_phi is a number or inf,
    # never nan
    g = make_grid(64, length)
    values = amplitude * np.tanh(np.linspace(-20.0, 20.0, 64, endpoint=False))
    for p in (WaveProfile(kind="sampled", samples=RealField(g, values)),
              WaveProfile(kind="tanh-front", amplitude=amplitude, width=length / 40.0),
              WaveProfile(kind="gaussian-bump", amplitude=amplitude, width=length / 40.0)):
        s0, s1 = p.sup_values(g)
        assert amplitude * 0.9 <= s0 <= amplitude * 1.3 and not math.isnan(s1)
        assert not math.isnan(c1b_norm(p, g))
    huge = WaveProfile(kind="sampled", samples=RealField(make_grid(64, 40.0), 1e308 * np.tanh(
        np.linspace(-20.0, 20.0, 64, endpoint=False))))
    assert c1b_norm(huge, huge.samples.grid) == math.inf


@pytest.mark.parametrize("power", [-900, -3, 5, 1000])
def test_sup_values_scale_exactly_with_the_samples(power):
    # scaling the samples by a power of two scales both sups by it, bit for
    # bit, also where sup_values scales samples of 2^1000 down itself
    g = make_grid(256, 40.0)
    values = np.exp(-g.points**2) + 0.1 * np.random.default_rng(7).standard_normal(256)
    base = WaveProfile(kind="sampled", samples=RealField(g, values)).sup_values(g)
    scaled = WaveProfile(kind="sampled", samples=RealField(g, np.ldexp(values, power)))
    assert scaled.sup_values(g) == tuple(math.ldexp(s, power) for s in base)


def test_sampled_profile_on_another_grid_is_refused():
    # the norm is read through evaluate, which refuses samples of another
    # grid instead of reading them as if they lived on it
    samples = RealField(make_grid(64, 40.0), np.tanh(np.linspace(-20.0, 20.0, 64, endpoint=False)))
    p = WaveProfile(kind="sampled", samples=samples)
    with pytest.raises(ValueError, match="different grid"):
        p.sup_values(make_grid(64, 20.0))
