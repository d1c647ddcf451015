"""Norms, bound checks, profile sup-norms, and the spectral-tail record."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from fowler.diagnostics import (
    DiagnosticsRecord,
    EnergyBoundParams,
    c1b_norm,
    energy_bound_check,
    l2_norm,
)
from fowler.evolution import InitialCondition, SimConfig, Trajectory, evolve
from fowler.grid import RealField, make_grid
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
            traj.append(traj.fields[-1], replace(last, t=t))
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
    # a restart at t_offset = 5 records the bound on its own clock (0.118 at
    # its last record, where the bound at absolute time 5.02 is 1.5e5): a
    # norm pushed past the recorded bound must fail the check
    cfg = SimConfig(
        grid=grid_1024,
        profile=WaveProfile(kind="tanh-front"),
        v0=InitialCondition(kind="gaussian", amplitude=0.1),
        t_end=0.02, dt=1e-2,
    )
    traj = evolve(cfg, t_offset=5.0)
    assert energy_bound_check(traj).ok
    last = traj.records[-1]
    assert last.energy_bound < 1e-3 * traj.params.bound(last.t)
    traj.records[-1] = replace(last, l2=1.01 * last.energy_bound)
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
