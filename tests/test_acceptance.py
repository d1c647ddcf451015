"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion holds; pytest reports any
failure with the offending numbers.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize

from fowler.diagnostics import c1b_norm, energy_bound_check, l2_norm
from fowler.evolution import (
    InitialCondition,
    SimConfig,
    contraction_time_bound,
    evolve,
    evolve_full,
)
from fowler.grid import RealField, make_grid
from reference_spectrum import forward_transform
from fowler.kernel import (
    convolve_kernel,
    grad_kernel_norms,
    kernel_field,
    semigroup_residual,
)
from fowler.operator import (
    A_I,
    ALPHA0,
    B_I,
    GAMMA_TWO_THIRDS,
    XI_C,
    XI_STAR,
    QuadratureSpec,
    apply_nonlocal_fourier,
    apply_nonlocal_integral,
    psi_symbol,
    sobolev_norm,
)
from fowler.profiles import WaveProfile

from conftest import band_limited_field, gamma_two_thirds_oracle


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def tanh_trajectory():
    grid = make_grid(1024, 40.0)
    cfg = SimConfig(
        grid=grid,
        profile=WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0, speed=0.0),
        v0=InitialCondition(kind="gaussian", amplitude=0.1, width=1.0),
        t_end=1.0,
        dt=1e-3,
        output_stride=10,
    )
    start = time.perf_counter()
    traj = evolve(cfg)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def consistency_runs():
    grid = make_grid(1024, 40.0)
    profile = WaveProfile(kind="constant", amplitude=0.8, speed=0.0)
    kw = dict(
        grid=grid,
        profile=profile,
        v0=InitialCondition(kind="gaussian", amplitude=0.2, width=1.0),
        t_end=0.5,
        dt=1e-3,
        output_stride=100,
    )
    pert = evolve(SimConfig(**kw))
    full = evolve_full(SimConfig(**kw))
    return grid, profile, pert, full


def test_criterion_01_operator_equivalence(grid_2048):
    start = time.perf_counter()
    g = grid_2048
    q = QuadratureSpec(z_max=20.0, z_min=1e-4, panels=48)
    rng = np.random.default_rng(2024)
    fields = [RealField(g, np.exp(-np.pi * g.points**2))]
    fields += [band_limited_field(g, rng) for _ in range(20)]
    worst = 0.0
    for f in fields:
        by_fourier = apply_nonlocal_fourier(f)
        by_integral = apply_nonlocal_integral(f, q)
        rel = float(
            np.abs(by_integral.values - by_fourier.values).max()
            / np.abs(by_fourier.values).max()
        )
        worst = max(worst, rel)
        assert rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"Fourier vs integral on 21 fields, worst relative Linf "
              f"{worst:.2e} <= 1e-3 in {elapsed:.1f}s")


def test_criterion_02_symbol_anchors():
    assert psi_symbol(0.0) == 0.0 + 0.0j
    gamma_oracle = gamma_two_thirds_oracle()
    assert abs(A_I - 2.0 * math.pi**2 * gamma_oracle) <= 1e-10
    assert abs(B_I - 2.0 * math.sqrt(3.0) * math.pi**2 * gamma_oracle) <= 1e-10
    res = optimize.minimize_scalar(
        lambda x: psi_symbol(x).real,
        bracket=(0.1, 0.3, XI_C),
        method="golden",
        options={"xtol": 1e-13},
    )
    assert abs(ALPHA0 - (-res.fun)) <= 1e-8
    report(2, f"psi(0) = 0 exactly; a, b match the Gamma quadrature to 1e-10; "
              f"alpha0 = {ALPHA0:.10f} matches golden-section search to 1e-8")


def test_criterion_03_kernel_semigroup(grid_1024):
    start = time.perf_counter()
    worst = 0.0
    for s, t in [(0.1, 0.4), (0.05, 0.05), (0.25, 0.25)]:
        r = semigroup_residual(s, t, grid_1024)
        worst = max(worst, r)
        assert r <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"physical-space K(s)*K(t) vs K(s+t), worst residual "
              f"{worst:.2e} <= 1e-10 in {elapsed:.1f}s")


def test_criterion_04_gradient_norm_scalings():
    grid = make_grid(8192, 40.0)
    fit = grad_kernel_norms(np.logspace(-4, -2, 9), grid)
    assert abs(fit.slope_l2 + 0.75) <= 0.05
    assert abs(fit.slope_l1 + 0.5) <= 0.05
    envelope = grad_kernel_norms(np.logspace(-4, 0, 17), grid)
    t34_l2 = envelope.times**0.75 * envelope.l2_grad
    t12_l1 = envelope.times**0.5 * envelope.l1_grad
    assert np.all(np.isfinite(t34_l2)) and t34_l2.max() < 20.0
    assert np.all(np.isfinite(t12_l1)) and t12_l1.max() < 40.0
    report(4, f"slopes {fit.slope_l2:+.3f} (L2) and {fit.slope_l1:+.3f} (L1) "
              f"within 0.05 of -3/4 and -1/2; envelopes bounded by "
              f"{t34_l2.max():.2f} and {t12_l1.max():.2f} on [1e-4, 1]")


def test_criterion_05_kernel_sign(grid_1024):
    mins = [kernel_field(t, grid_1024).field.values.min() for t in (0.1, 0.5)]
    assert all(m < 0.0 for m in mins)
    report(5, f"min K(0.1) = {mins[0]:.4f} < 0 and min K(0.5) = {mins[1]:.4f} < 0")


def test_criterion_06_linear_semigroup_bound(grid_1024):
    rng = np.random.default_rng(99)
    violations = 0
    for t in (0.1, 1.0):
        for _ in range(50):
            f = RealField(grid_1024, rng.standard_normal(grid_1024.n))
            if l2_norm(convolve_kernel(t, f)) > math.exp(ALPHA0 * t) * l2_norm(f) * (1 + 1e-12):
                violations += 1
    assert violations == 0
    report(6, "||K(t)*f|| <= e^{alpha0 t} ||f|| for 50 random fields at "
              "t in {0.1, 1.0}, zero violations")


def test_criterion_07_sobolev_bound(grid_2048):
    bound_const = 4.0 * math.pi**2 * GAMMA_TWO_THIRDS
    rng = np.random.default_rng(314)
    for s in (0.0, 1.0, 2.0):
        for _ in range(20):
            f = band_limited_field(grid_2048, rng)
            lhs = sobolev_norm(apply_nonlocal_fourier(f), s - 4.0 / 3.0)
            assert lhs <= bound_const * sobolev_norm(f, s) * (1 + 1e-12)
    probe = RealField(grid_2048, np.cos(2 * np.pi * 10.0 * grid_2048.points))
    ratio = sobolev_norm(apply_nonlocal_fourier(probe), 2.0 - 4.0 / 3.0) / (
        bound_const * sobolev_norm(probe, 2.0)
    )
    assert ratio >= 0.99
    report(7, f"H^(s-4/3) bound holds for s in {{0,1,2}} x 20 fields; "
              f"sharpness probe ratio {ratio:.5f} >= 0.99")


def test_criterion_08_energy_estimate(tanh_trajectory):
    traj, elapsed = tanh_trajectory
    assert elapsed < 60.0
    check = energy_bound_check(traj)
    assert check.ok
    bounds = np.array([traj.params.bound(r.t) for r in traj.records])
    assert np.all(check.margins >= -1e-8 * bounds)
    report(8, f"tanh run satisfies the growth bound at all {len(traj.records)} "
              f"records (min margin {check.margins.min():.3e}) in {elapsed:.1f}s")


def test_criterion_09_mass_conservation(tanh_trajectory, consistency_runs):
    traj, _ = tanh_trajectory
    _, _, pert, full = consistency_runs
    worst = 0.0
    for run in (traj, pert, full):
        horizon = max(1.0, run.times[-1])
        drift = max(r.mass_drift for r in run.records)
        worst = max(worst, drift / horizon)
        assert drift <= 1e-12 * horizon
    report(9, f"mass drift <= 1e-12 per unit time on all acceptance runs "
              f"(worst {worst:.2e})")


def test_criterion_10_picard_contraction(grid_1024, stepping_norm_fit):
    fit = stepping_norm_fit
    profile = WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0)
    cfg = SimConfig(
        grid=grid_1024,
        profile=profile,
        v0=InitialCondition(kind="gaussian", amplitude=0.1, width=1.0),
        picard_tol=1e-10,
        picard_max=40,
    )
    v = cfg.v0.build(grid_1024)
    u_norm = c1b_norm(profile, grid_1024)
    M = 2.0 * l2_norm(v)
    bound = contraction_time_bound(M, u_norm)
    # closed form on the pinned constants vs bisection on the refitted ones
    f = lambda t: 2 * M * fit.K0 * t**0.25 + 2 * fit.K1 * math.sqrt(t) * u_norm - 1.0
    oracle = optimize.brentq(f, 1e-12, 10.0, xtol=1e-14)
    assert abs(bound.t_star - oracle) <= 1e-10
    assert bound.equation_residual() <= 1e-10
    dt = bound.t_star / 4.0
    step = evolve(cfg._replace(dt=dt, t_end=dt, output_stride=1))  # one step, taken whole
    assert not step.substepping_engaged
    ratio = step.records[-1].picard_ratio
    assert ratio < 1.0
    assert ratio <= 1.5 * bound.ratio_bound(dt)
    report(10, f"t_star = {bound.t_star:.6f} matches bisection to 1e-10; "
               f"observed per-step ratio {ratio:.3f} < 1 and <= 1.5 x "
               f"bound {bound.ratio_bound(dt):.3f} at dt = t_star/4")


def test_criterion_11_constant_state_instability(grid_1024):
    g = grid_1024
    k_star = int(round(XI_STAR * g.length))
    base = dict(
        grid=g,
        profile=WaveProfile(kind="constant", amplitude=0.5),
        t_end=0.1,
        dt=1e-3,
        output_stride=100,
        linear_only=True,
        dealias=False,
    )
    cfg = SimConfig(v0=InitialCondition(kind="mode", mode_k=k_star, amplitude=1e-6), **base)
    traj = evolve(cfg)
    C0 = forward_transform(traj.fields[0]).coefficient(k_star)
    C1 = forward_transform(traj.fields[-1]).coefficient(k_star)
    rate = math.log(abs(C1 / C0)) / (traj.times[-1] - traj.times[0])
    assert abs(rate - ALPHA0) <= 0.01 * ALPHA0

    k_decay = int(round(2.0 * XI_C * g.length))
    cfg2 = SimConfig(v0=InitialCondition(kind="mode", mode_k=k_decay, amplitude=1e-6), **base)
    traj2 = evolve(cfg2)
    D0 = forward_transform(traj2.fields[0]).coefficient(k_decay)
    D1 = forward_transform(traj2.fields[-1]).coefficient(k_decay)
    assert abs(D1) < abs(D0)
    report(11, f"seeded mode grows at {rate:.5f} vs alpha0 {ALPHA0:.5f} "
               f"(within 1%); mode at 2 xi_c decays by {abs(D1 / D0):.3f}")


def test_criterion_12_full_perturbation_consistency(consistency_runs):
    grid, profile, pert, full = consistency_runs
    assert pert.times[-1] == pytest.approx(0.5)
    u_phi = profile.evaluate(full.times[-1], grid)
    recovered = full.fields[-1].values - u_phi.values
    diff = l2_norm(RealField(grid, recovered - pert.fields[-1].values))
    rel = diff / l2_norm(pert.fields[-1])
    assert rel <= 1e-6
    report(12, f"evolve_full(profile + v0) - profile vs evolve(v0): relative "
               f"L2 difference {rel:.2e} <= 1e-6 at t = 0.5")


def test_criterion_13_integrator_order(grid_1024):
    profile = WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0)
    v0 = InitialCondition(kind="gaussian", amplitude=0.1, width=1.0)

    def final(dt):
        cfg = SimConfig(
            grid=grid_1024, profile=profile, v0=v0, t_end=0.5, dt=dt,
            output_stride=int(round(0.5 / dt)),
        )
        return evolve(cfg).fields[-1].values

    reference = final(1.25e-4)
    errors = [
        l2_norm(RealField(grid_1024, final(dt) - reference))
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)
    report(13, f"self-convergence orders {', '.join(f'{o:.3f}' for o in orders)} "
               f"within 2 +- 0.2")
