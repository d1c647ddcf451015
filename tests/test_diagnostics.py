"""Norms, bound checks, profile sup-norms, and the spectral-tail record."""

import math

import numpy as np
import pytest
from scipy import integrate

from fowler.config import InitialCondition, SimConfig
from fowler.diagnostics import (
    DiagnosticsRecord,
    EnergyBoundParams,
    c1b_norm,
    energy_bound_check,
    l2_norm,
)
from fowler.evolution import Trajectory, evolve
from fowler.grid import RealField, make_grid
from fowler.operator import ALPHA0
from fowler.profiles import WaveProfile


def test_l2_norm_constant():
    g = make_grid(64, 8.0)
    assert l2_norm(RealField(g, np.ones(64))) == pytest.approx(math.sqrt(8.0), rel=1e-12)


def test_l2_norm_gaussian_quadrature_anchor(grid_1024):
    # ||e^{-pi x^2}||_{L2} = 2^{-1/4}, cross-checked by direct quadrature
    oracle, _ = integrate.quad(lambda x: math.exp(-2 * math.pi * x * x), -np.inf, np.inf,
                               epsabs=1e-14)
    assert math.sqrt(oracle) == pytest.approx(2.0 ** -0.25, abs=1e-12)
    f = RealField(grid_1024, np.exp(-np.pi * grid_1024.points**2))
    assert l2_norm(f) == pytest.approx(2.0 ** -0.25, abs=1e-12)


def test_l2_norm_scaling(grid_1024):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid_1024.n)
    assert l2_norm(RealField(grid_1024, 2 * f)) == pytest.approx(
        2 * l2_norm(RealField(grid_1024, f)), rel=1e-14
    )


def _toy_trajectory(grid, scale=1.0):
    params = EnergyBoundParams(alpha0=1.0, c_phi=0.5, v0_norm=1.0)
    traj = Trajectory(params=params)
    for i, t in enumerate([0.0, 0.1, 0.2]):
        values = np.full(grid.n, scale * math.exp(t) / math.sqrt(grid.length))
        f = RealField(grid, values)
        rec = DiagnosticsRecord(
            t=t, l2=l2_norm(f), energy_bound=params.bound(t), mass=0.0,
            mass_drift=0.0, picard_iters=1, picard_ratio=0.1, spectral_tail=0.0,
        )
        traj.append(f, rec)
    return traj, params


def test_trajectory_rejects_non_increasing_times():
    traj, _ = _toy_trajectory(make_grid(64, 8.0))
    last = traj.records[-1]
    for t in (last.t, last.t - 0.05):
        with pytest.raises(ValueError, match="strictly increasing"):
            traj.append(traj.fields[-1], last._replace(t=t))
    assert traj.times == [0.0, 0.1, 0.2]
    assert len(traj.fields) == len(traj.records) == 3


def test_energy_bound_check_passes_and_fails():
    g = make_grid(64, 8.0)
    ok_traj, _ = _toy_trajectory(g, scale=1.0)
    assert energy_bound_check(ok_traj).ok
    bad_traj, _ = _toy_trajectory(g, scale=10.0)
    report = energy_bound_check(bad_traj)
    assert not report.ok
    assert report.first_violation == 0


def _records_at(params, times, factor):
    """A trajectory whose norm at each time is factor times params' bound."""
    traj = Trajectory(params=params)
    for t in times:
        bound = params.bound(t)
        traj.append(None, DiagnosticsRecord(
            t=t, l2=factor * bound, energy_bound=bound, mass=0.0, mass_drift=0.0,
            picard_iters=1, picard_ratio=0.0, spectral_tail=0.0,
        ))
    return traj


def test_energy_bound_check_fails_just_over_the_bound_and_passes_at_it():
    # criterion 8 allows the check roundoff and nothing more: the bound holds
    # exactly for true solutions, so a norm 1e-6 relative over it is a fault
    params = EnergyBoundParams(alpha0=ALPHA0, c_phi=0.75, v0_norm=0.3)
    times = [0.0, 0.25, 0.5, 1.0]
    at = energy_bound_check(_records_at(params, times, 1.0))
    assert at.ok and at.first_violation is None
    assert np.all(at.margins == 0.0)
    over = energy_bound_check(_records_at(params, times, 1.0 + 1e-6))
    assert not over.ok and over.first_violation == 0
    traj = _records_at(params, times, 1.0)
    traj.records[2] = traj.records[2]._replace(l2=(1.0 + 1e-6) * traj.records[2].energy_bound)
    report = energy_bound_check(traj)
    assert not report.ok and report.first_violation == 2


def test_energy_bound_is_its_closed_form():
    # ||v0|| e^{(alpha0 + C_phi) t}; with alpha0 + C_phi = ln 2 it doubles
    # per unit time
    params = EnergyBoundParams(alpha0=0.25 * math.log(2.0), c_phi=0.75 * math.log(2.0),
                               v0_norm=3.0)
    for t, expected in [(0.0, 3.0), (0.5, 3.0 * math.sqrt(2.0)), (1.0, 6.0), (3.0, 24.0),
                        (10.0, 3072.0)]:
        assert params.bound(t) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_energy_bound_zero_trajectory(grid_1024):
    cfg = SimConfig(
        grid=grid_1024,
        profile=WaveProfile(kind="tanh-front"),
        v0=InitialCondition(kind="zero"),
        t_end=0.02, dt=1e-2,
    )
    traj = evolve(cfg)
    report = energy_bound_check(traj)
    assert report.ok
    assert np.allclose(report.margins, [traj.params.bound(t) for t in traj.times])


def test_energy_bound_check_on_restarted_run(grid_1024):
    # a resumed run has no start record and records the bound of the run it
    # resumes, on that run's clock; the check reads each record's own bound
    # and nothing else, so a norm pushed past the recorded bound must fail
    cfg = SimConfig(
        grid=grid_1024,
        profile=WaveProfile(kind="tanh-front"),
        v0=InitialCondition(kind="gaussian", amplitude=0.1),
        t_end=0.02, dt=1e-2, output_stride=1,
    )
    first = evolve(cfg)
    traj = evolve(cfg, resume=first)
    assert traj.times == [3 * cfg.dt, 4 * cfg.dt]
    assert [r.energy_bound for r in traj.records] == [first.params.bound(t) for t in traj.times]
    traj.params = None
    assert energy_bound_check(traj).ok
    last = traj.records[-1]
    traj.records[-1] = last._replace(l2=1.01 * last.energy_bound)
    report = energy_bound_check(traj)
    assert not report.ok
    assert report.first_violation == len(traj.records) - 1


def test_energy_bound_monotone_in_t():
    params = EnergyBoundParams(alpha0=1.8, c_phi=1.0, v0_norm=0.5)
    ts = np.linspace(0, 2, 20)
    bounds = [params.bound(t) for t in ts]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_c1b_constant_profile(grid_1024):
    p = WaveProfile(kind="constant", amplitude=-2.5)
    assert c1b_norm(p, grid_1024) == pytest.approx(2.5, rel=1e-12)


def test_c1b_tanh_front(grid_1024):
    A, w = 1.0, 1.0
    p = WaveProfile(kind="tanh-front", amplitude=A, width=w)
    assert c1b_norm(p, grid_1024) == pytest.approx(A + A / w, rel=1e-6)
    p2 = WaveProfile(kind="tanh-front", amplitude=2.0, width=0.5)
    assert c1b_norm(p2, grid_1024) == pytest.approx(2.0 + 4.0, rel=1e-6)


def test_c1b_gaussian_bump(grid_1024):
    A, w = 1.5, 2.0
    p = WaveProfile(kind="gaussian-bump", amplitude=A, width=w)
    expected = A + A * math.sqrt(2.0) / (w * math.sqrt(math.e))
    assert c1b_norm(p, grid_1024) == pytest.approx(expected, rel=1e-6)


def test_c1b_subadditive_for_sampled_profiles(grid_1024):
    rng = np.random.default_rng(19)
    g = grid_1024
    for _ in range(3):
        a = np.exp(-((g.points / 4) ** 2)) * rng.standard_normal()
        b = np.cos(2 * np.pi * 3 * g.points / g.length) * rng.standard_normal()
        pa = WaveProfile(kind="sampled", samples=RealField(g, a))
        pb = WaveProfile(kind="sampled", samples=RealField(g, b))
        pab = WaveProfile(kind="sampled", samples=RealField(g, a + b))
        assert c1b_norm(pab, g) <= c1b_norm(pa, g) + c1b_norm(pb, g) + 1e-10


def _linear_tails(grid, v0, dt, t_end, stride):
    """spectral_tail of each record of a linear-only run without dealiasing
    (the 2/3 mask would zero every mode the tail counts)."""
    cfg = SimConfig(
        grid=grid, profile=WaveProfile(kind="constant", amplitude=0.0), v0=v0,
        t_end=t_end, dt=dt, output_stride=stride, dealias=False, linear_only=True,
    )
    traj = evolve(cfg)
    return traj.times, [r.spectral_tail for r in traj.records]


def test_spectral_decay_band_limited(grid_1024):
    v0 = InitialCondition(kind="mode", mode_k=5, amplitude=1.0)
    _, tails = _linear_tails(grid_1024, v0, dt=1e-3, t_end=0.01, stride=5)
    assert max(tails) < 1e-20


def test_spectral_decay_white_noise_damped(grid_1024):
    v0 = InitialCondition(kind="white-noise", amplitude=1.0, seed=3)
    times, tails = _linear_tails(grid_1024, v0, dt=1e-2, t_end=0.1, stride=10)
    assert times == pytest.approx([0.0, 0.1])
    assert tails[0] > 1e-3
    assert tails[-1] < 1e-6


def test_spectral_tail_monotone_under_linear_flow(grid_1024):
    # times picked so the tail stays above the double-precision floor
    v0 = InitialCondition(kind="white-noise", amplitude=1.0, seed=5)
    times, tails = _linear_tails(grid_1024, v0, dt=2e-3, t_end=8e-3, stride=1)
    assert times[1:] == pytest.approx([0.002, 0.004, 0.006, 0.008])
    assert all(a > b for a, b in zip(tails[1:], tails[2:]))
    assert tails[-1] > 0.0


def test_record_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        DiagnosticsRecord(t=0.0, l2=math.nan, energy_bound=1.0, mass=0.0,
                          mass_drift=0.0, picard_iters=0, picard_ratio=0.0,
                          spectral_tail=0.0)


def test_energy_bound_of_an_infinite_rate_is_never_nan():
    # C_phi = inf: (alpha0 + C_phi) * 0 and inf * ||v0|| = inf * 0 are no
    # numbers; the bound is ||v0|| at t = 0 and +inf after, zero data included
    params = EnergyBoundParams(alpha0=1.8, c_phi=math.inf, v0_norm=0.5)
    assert params.bound(0.0) == 0.5 and params.bound(0.02) == math.inf
    zero = params._replace(v0_norm=0.0)
    assert zero.bound(0.0) == 0.0 and zero.bound(0.02) == math.inf


def test_energy_bound_saturates_at_inf():
    # e^{(alpha0 + C_phi) t} overflows a double: the bound is +inf, which
    # still bounds zero data, and a record carries it; a nan or negative
    # bound is refused
    params = EnergyBoundParams(alpha0=1.8, c_phi=1000.0, v0_norm=0.5)
    assert params.bound(0.7) < math.inf and params.bound(0.8) == math.inf
    assert params._replace(v0_norm=0.0).bound(0.8) == math.inf
    record = dict(t=0.8, l2=1.0, mass=0.0, mass_drift=0.0, picard_iters=0,
                  picard_ratio=0.0, spectral_tail=0.0)
    assert DiagnosticsRecord(energy_bound=params.bound(0.8), **record).energy_bound == math.inf
    for bad in (math.nan, -math.inf, -1.0):
        with pytest.raises(ValueError, match="finite"):
            DiagnosticsRecord(energy_bound=bad, **record)
