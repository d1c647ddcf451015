"""Duhamel stepping: fixed points, linear exactness, contraction control."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from fowler import diagnostics, evolution
from fowler.config import InitialCondition, SimConfig
from fowler.diagnostics import (
    K0,
    K1,
    c1b_norm,
    contraction_time_bound,
    energy_bound_check,
    l2_norm,
)
from fowler.evolution import (
    MAX_SUBSTEPS,
    RHO_HISTORY,
    RHO_MAX,
    SEED_WEIGHTS,
    BlowUpError,
    PicardError,
    _nonlinear_hat,
    evolve,
    evolve_full,
)
from fowler.grid import RealField, RealSpectrum, make_grid, real_spectrum
from fowler.operator import ALPHA0, XI_STAR, psi_symbol, symbol_table
from fowler.profiles import WaveProfile

import picard_sweep


@pytest.fixture
def unit_constants(monkeypatch):
    """K0 = K1 = 1 in the contraction bound, for closed-form oracles."""
    monkeypatch.setattr(diagnostics, "K0", 1.0)
    monkeypatch.setattr(diagnostics, "K1", 1.0)


def base_config(grid, profile=None, v0=None, **kw):
    profile = profile or WaveProfile(kind="constant", amplitude=0.0)
    v0 = v0 or InitialCondition(kind="zero")
    return SimConfig(grid=grid, profile=profile, v0=v0, **kw)


# --- nonlinear term ---------------------------------------------------------

def flux(v, u, dealias):
    """d/dx (v^2/2 [+ u v]) from the stepper's nonlinear term _nonlinear_hat,
    which is F(v^2 [+ 2 u v]): twice the term, exactly."""
    spectrum = real_spectrum(v.grid)
    modes = spectrum.dealias_modes if dealias else spectrum.size
    vhat = spectrum.forward(v.values, modes)
    two_u = None if u is None else 2.0 * u.values
    return spectrum.inverse(0.5 * spectrum.derivative[:modes]
                            * _nonlinear_hat(vhat, two_u, spectrum, modes))


def test_flux_of_zero_field(grid_1024):
    zero = RealField(grid_1024, np.zeros(grid_1024.n))
    assert np.abs(flux(zero, zero, dealias=True)).max() == 0.0


def test_flux_trig_identity(grid_1024):
    g = grid_1024
    v = RealField(g, np.cos(2 * np.pi * g.points / g.length))
    w = 2 * np.pi / g.length
    exact = -w * np.cos(w * g.points) * np.sin(w * g.points)
    for u in (None, RealField(g, np.zeros(g.n))):  # full and perturbation forms
        assert np.abs(flux(v, u, dealias=False) - exact).max() < 1e-12


def test_flux_output_has_zero_mean(grid_1024):
    rng = np.random.default_rng(31)
    g = grid_1024
    for _ in range(3):
        v = RealField(g, rng.standard_normal(g.n))
        u = RealField(g, rng.standard_normal(g.n))
        assert abs(g.spacing * flux(v, u, dealias=True).sum()) < 1e-12


# --- one step ---------------------------------------------------------------

def one_step(cfg, dt):
    """The end field and record of a single dt step from cfg.v0, taken whole."""
    traj = evolve(cfg._replace(dt=dt, t_end=dt, output_stride=1))
    assert not traj.substepping_engaged
    return traj.fields[-1], traj.records[-1]


def test_zero_is_a_fixed_point(grid_1024):
    cfg = base_config(grid_1024, profile=WaveProfile(kind="tanh-front", speed=0.0))
    field, rec = one_step(cfg, 1e-3)
    assert np.abs(field.values).max() == 0.0
    assert rec.picard_iters == 1


def test_linear_mode_evolves_exactly(grid_1024):
    g = grid_1024
    k = 12
    xi = k / g.length
    cfg = base_config(
        g,
        v0=InitialCondition(kind="mode", mode_k=k, amplitude=1.0),
        linear_only=True,
        dealias=False,
    )
    v = cfg.v0.build(g)
    dt = 1e-3
    field, _ = one_step(cfg, dt)
    C0 = real_spectrum(g).forward(v.values)[k]
    C1 = real_spectrum(g).forward(field.values)[k]
    assert C1 / C0 == pytest.approx(np.exp(-psi_symbol(xi) * dt), rel=1e-12)


def test_picard_contraction_at_quarter_t_star(grid_1024):
    g = grid_1024
    profile = WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0)
    cfg = base_config(g, profile=profile, v0=InitialCondition(kind="gaussian", amplitude=0.1),
                      picard_tol=1e-10, picard_max=40)
    v = cfg.v0.build(g)
    bound = contraction_time_bound(2.0 * l2_norm(v), 2.0)
    dt = bound.t_star / 4.0
    _, rec = one_step(cfg, dt)
    assert rec.picard_ratio < 1.0
    assert rec.picard_ratio <= 1.5 * bound.ratio_bound(dt)
    assert rec.picard_iters <= 20


def large_gaussian_config(grid, **kw):
    # amplitude 100, zero profile: the lemma's t_star is 1.8e-9, about 1e-7
    # of dt, yet Picard contracts on pieces of dt / 64 and coarser
    return base_config(grid, v0=InitialCondition(kind="gaussian", amplitude=100.0),
                       dt=1e-2, **kw)


def test_substepping_warns(grid_1024):
    cfg = large_gaussian_config(grid_1024, t_end=0.05, output_stride=1)
    v0 = cfg.v0.build(grid_1024)
    t_star = contraction_time_bound(2.0 * l2_norm(v0), 0.0).t_star
    assert cfg.dt / t_star > 1e6
    with pytest.warns(UserWarning) as caught:
        traj = evolve(cfg)
    assert len(caught) == 1
    message = str(caught[0].message)
    match = re.match(r"sub-stepping engaged \((\d+) pieces per dt = 0.01 step\): "
                     r"Picard contraction ratio (\S+) above 0.5", message)
    assert match, message
    assert float(match.group(2)) > RHO_MAX
    pieces = int(match.group(1))
    assert traj.substepping_engaged
    assert pieces <= traj.max_substeps <= 128
    assert traj.max_substeps & (traj.max_substeps - 1) == 0  # a power of two
    assert energy_bound_check(traj).ok
    # record times stay on the dt grid
    assert traj.times == [k * 1e-2 for k in range(6)]


def test_whole_step_when_picard_contracts(grid_1024):
    # one dt = 0.3 step is far beyond t_star ~ 0.08 of the tanh config, but
    # Picard contracts on it, so it is taken whole
    profile = WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0)
    cfg = base_config(grid_1024, profile=profile,
                      v0=InitialCondition(kind="gaussian", amplitude=0.1),
                      t_end=0.3, dt=0.3)
    t_star = contraction_time_bound(
        2.0 * l2_norm(cfg.v0.build(grid_1024)), c1b_norm(profile, grid_1024)
    ).t_star
    assert cfg.dt > 2.0 * t_star
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(cfg)
    assert traj.max_substeps == 1 and not traj.substepping_engaged
    assert traj.records[-1].picard_ratio <= RHO_MAX
    assert energy_bound_check(traj).ok


@pytest.mark.parametrize("fault, amplitude, dt, picard_max", [
    ("non-finite Picard iterate", 1e200, 1e-3, 25),
    ("Picard contraction ratio", 100.0, 1e-2, 25),
    ("Picard loop did not reach", 5.0, 1e-3, 1),
], ids=["non-finite", "ratio", "iteration-cap"])
def test_picard_faults_name_their_interval(fault, amplitude, dt, picard_max):
    # each of the three faults names the step or piece it ended as [t0, t1]
    grid = make_grid(256, 40.0)
    cfg = base_config(grid, v0=InitialCondition(kind="gaussian", amplitude=amplitude),
                      dt=dt, t_end=dt, picard_max=picard_max)
    tables = evolution._step_tables(grid.n, grid.length, dt, True)
    vhat = tables.spectrum.forward(cfg.v0.build(grid).values, tables.modes)
    t0 = 0.25
    with np.errstate(over="ignore", invalid="ignore"):  # cli.main's policy
        N0 = _nonlinear_hat(vhat, None, tables.spectrum, tables.modes)
        with pytest.raises(PicardError) as caught:
            evolution._single_step(vhat, N0, t0, t0 + dt, cfg, tables, None)
    message = str(caught.value)
    assert message.startswith(fault)
    assert f" on [{t0}, {t0 + dt}] (step {dt:g}" in message


def assert_resumes_exactly(runs, direct):
    """runs, each resumed from the one before, give direct's records, fields
    and end state, bit for bit."""
    assert [r for run in runs for r in run.records] == direct.records
    fields = [f for run in runs for f in run.fields]
    for f, g in zip(fields, direct.fields, strict=True):
        assert np.array_equal(f.values, g.values)
    end, want = runs[-1].end, direct.end
    assert (end.step, end.dt, end.mass0) == (want.step, want.dt, want.mass0)
    assert np.array_equal(end.vhat, want.vhat) and np.array_equal(end.nhat, want.nhat)
    assert len(end.history) == len(want.history)
    assert all(np.array_equal(a, b) for a, b in zip(end.history, want.history))


def test_split_restart_matches_direct_run():
    # a run that splits its steps resumes as exactly as one that does not:
    # every step starts again from one piece either way
    grid = make_grid(256, 40.0)
    cfg = lambda t_end: large_gaussian_config(grid, t_end=t_end, output_stride=1)
    with pytest.warns(UserWarning, match="sub-stepping engaged"):
        direct = evolve(cfg(0.04))
        first = evolve(cfg(0.02))
        second = evolve(cfg(0.02), resume=first)
    assert first.substepping_engaged and second.substepping_engaged
    assert_resumes_exactly([first, second], direct)


@settings(max_examples=30)
@given(run=st.sampled_from([evolve, evolve_full]), amplitude=st.sampled_from([0.1, 100.0]),
       stride=st.integers(1, 3), blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       extra=st.integers(1, 4))
def test_resumed_runs_are_the_direct_run(run, amplitude, stride, blocks, extra):
    # S(t + s) = S(t) S(s), bit for bit: runs of b * stride steps for each b
    # in blocks, each resumed from the one before, and a last one of extra
    # steps give the records, fields and end state of one direct run; at
    # amplitude 100 every step splits, at 0.1 the seed history crosses each
    # resume
    grid = make_grid(128, 40.0)
    profile = WaveProfile(kind="tanh-front", amplitude=0.8, width=1.5, speed=0.7)
    cfg = lambda steps: base_config(
        grid, profile=profile, v0=InitialCondition(kind="gaussian", amplitude=amplitude),
        dt=1e-2, t_end=steps * 1e-2, output_stride=stride)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # amplitude 100 warns of sub-stepping
        direct = run(cfg(stride * sum(blocks) + extra))
        runs = [run(cfg(stride * blocks[0]))]
        for steps in [stride * b for b in blocks[1:]] + [extra]:
            runs.append(run(cfg(steps), resume=runs[-1]))
    assert_resumes_exactly(runs, direct)
    assert direct.substepping_engaged == (amplitude == 100.0)


def test_resume_rejects_another_band_dt_equation_or_initial_data(grid_1024):
    # the band of evolve is v, that of evolve_full is u = u_phi + v: resuming
    # one as the other ran on silently, to a norm 27x the direct run's
    cfg = moving_tanh_config(grid_1024, t_end=0.002, dt=1e-3)
    first = evolve(cfg)
    for other in (cfg._replace(dt=5e-4, t_end=0.001), cfg._replace(dealias=False),
                  cfg._replace(grid=make_grid(512, 40.0))):
        with pytest.raises(ValueError, match="cannot resume"):
            evolve(other, resume=first)
    wrong_equation = r"cannot resume .* \(342, 0.001, True\) as \(342, 0.001, False\)"
    with pytest.raises(ValueError, match=wrong_equation):
        evolve_full(cfg, resume=first)
    with pytest.raises(ValueError, match="cannot resume"):
        evolve(cfg, resume=evolve_full(cfg))
    with pytest.raises(ValueError, match="v0_override"):
        evolve(cfg, resume=first, v0_override=first.fields[-1])


def test_max_substeps_exhausted_raises_last_fault():
    # one Picard iteration cannot reach the tolerance on any piece size (the
    # exponential-Euler seed meets it on an amplitude-1 Gaussian at 256
    # pieces, but not on amplitude 100)
    cfg = base_config(make_grid(256, 40.0), v0=InitialCondition(kind="gaussian", amplitude=100.0),
                      picard_max=1, t_end=1e-3, dt=1e-3)
    with pytest.raises(PicardError, match=rf"step {1e-3 / MAX_SUBSTEPS:g}") as err:
        evolve(cfg)
    assert err.value.last_ratio >= 0.0


def test_full_run_transforms_per_step(grid_1024, monkeypatch):
    # constant profile, amplitude-5 Gaussian: 170 transforms per step when
    # every step was split below t_star, about 17 when taken whole from the
    # linear seed, 9.3 with the exponential-Euler seed and the start term
    # carried from the previous step, 8.2 with the ETD2 seed and the
    # perturbation norm taken in spectral space (9.1 on the full-substep-1k
    # workload)
    calls = []
    for name in ("forward", "inverse"):
        original = getattr(RealSpectrum, name)
        monkeypatch.setattr(RealSpectrum, name,
                            lambda self, a, *rest, _f=original: calls.append(1) or _f(self, a, *rest))
    cfg = base_config(grid_1024, profile=WaveProfile(kind="constant", amplitude=1.0),
                      v0=InitialCondition(kind="gaussian", amplitude=5.0),
                      t_end=0.05, dt=1e-3)
    traj = evolve_full(cfg)
    assert len(calls) <= 9 * 50
    assert traj.max_substeps == 1


def test_etd2_seed_takes_at_most_two_picard_iterations(grid_1024, monkeypatch):
    # tanh front, 100 unsplit steps: the first step is seeded by exponential
    # Euler, every later one by ETD2 or higher, which meets the tolerance
    # within two iterations (4.18 transforms per step with ETD2 alone; 6.16
    # with exponential Euler on every step, which takes three)
    transforms, iterations = [], []
    for name in ("forward", "inverse"):
        original = getattr(RealSpectrum, name)
        monkeypatch.setattr(RealSpectrum, name,
                            lambda self, a, *rest, _f=original:
                            transforms.append(1) or _f(self, a, *rest))
    original = evolution._single_step

    def spy(*args):
        out = original(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(evolution, "_single_step", spy)
    cfg = base_config(grid_1024, profile=WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0),
                      v0=InitialCondition(kind="gaussian", amplitude=0.1),
                      t_end=0.1, dt=1e-3)
    traj = evolve(cfg)
    assert traj.max_substeps == 1 and len(iterations) == 100
    assert max(iterations[1:]) <= 2
    assert len(transforms) <= 4.2 * 100


def count_transforms(monkeypatch) -> list:
    """One entry per RealSpectrum forward or inverse transform."""
    calls = []
    for name in ("forward", "inverse"):
        original = getattr(RealSpectrum, name)
        monkeypatch.setattr(RealSpectrum, name,
                            lambda self, a, *rest, _f=original: calls.append(1) or _f(self, a, *rest))
    return calls


def order4_tanh_config(grid):
    return base_config(grid, profile=WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0),
                       v0=InitialCondition(kind="gaussian", amplitude=0.1),
                       t_end=0.1, dt=1e-3)


def test_order4_seed_takes_one_picard_iteration(grid_1024, monkeypatch):
    # the tanh front of the ETD2 test: steps 1-3 climb through seed orders
    # 1-3, and from step 3 on each step meets the tolerance with its seed,
    # one nonlinear term per step, so every later step is seeded at order 4
    # and the order never moves above it (2.22 transforms per step with the
    # record fields)
    cfg = order4_tanh_config(grid_1024)
    c1b_norm(cfg.profile, cfg.grid)  # cached: the norm's transforms are not the stepper's
    transforms = count_transforms(monkeypatch)
    iterations = []
    original = evolution._single_step

    def spy(*args):
        out = original(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(evolution, "_single_step", spy)
    traj = evolve(cfg)
    assert traj.steps_by_seed_order == [1, 1, 1, 97, 0, 0, 0]
    assert iterations[:2] == [3, 2] and set(iterations[2:]) == {1}
    assert len(transforms) <= 2.3 * 100


def test_order4_run_is_the_order4_stepper(grid_1024, monkeypatch):
    # where order 4 meets the tolerance in one iteration, the stepper is
    # the one whose seed stops at order 4, bit for bit: the same records,
    # fields, end state and Picard work, and no step seeded above order 4
    cfg = order4_tanh_config(grid_1024)
    traj = evolve(cfg)
    monkeypatch.setattr(evolution, "SEED_WEIGHTS", SEED_WEIGHTS[:4])
    order4 = evolve(cfg)
    assert traj.steps_by_seed_order == order4.steps_by_seed_order + [0, 0, 0]
    assert traj.picard_iters_total == order4.picard_iters_total
    assert_resumes_exactly([traj], order4)


def test_order4_steps_of_two_iterations_climb():
    # the same front at dt = 4e-3 and n = 256: its order-4 steps take two
    # iterations, so the order climbs, and from step 5 on it moves between
    # 5 and 6, each order-6 step taking one iteration (156 in all); a rule
    # that climbs from order 4 only after three iterations holds the run at
    # order 4 and two iterations per step (204)
    cfg = order4_tanh_config(make_grid(256, 40.0))._replace(t_end=0.4, dt=4e-3)
    traj = evolve(cfg, keep_fields=False)
    assert traj.max_substeps == 1
    assert traj.picard_iters_total <= 170
    assert sum(traj.steps_by_seed_order[4:]) >= 1


def test_higher_seed_orders_cut_the_picard_work_of_a_full_run():
    # the full-substep-1k workload at n = 256 and 100 steps: order-4 steps
    # take 2-3 iterations there, and the run evaluated 267 nonlinear terms
    # with its seed stopped at order 4; orders 5 to 7 cut that by more than
    # a quarter, and the end state is the same fixed point to Picard's
    # tolerance (6.148225942161546 at order 4)
    cfg = base_config(make_grid(256, 40.0), profile=WaveProfile(kind="constant", amplitude=1.0),
                      v0=InitialCondition(kind="gaussian", amplitude=5.0),
                      t_end=0.1, dt=1e-3)
    traj = evolve_full(cfg, keep_fields=False)
    assert traj.max_substeps == 1
    assert traj.picard_iters_total <= 0.75 * 267
    assert sum(traj.steps_by_seed_order[4:]) >= 50
    assert traj.records[-1].l2 == pytest.approx(6.148225942161546, rel=1e-10)


def test_order7_seed_cuts_the_picard_work_of_full_substep_1k(monkeypatch):
    # the full-substep-1k workload cut to 400 steps: from about step 300 on,
    # order-6 steps take three iterations there, and the run whose seed
    # stops at order 6 evaluates 839 nonlinear terms; order 7 takes those
    # steps in two (776), splits nothing, and ends on the same fixed point
    # to Picard's tolerance
    cfg = base_config(make_grid(1024, 40.0), profile=WaveProfile(kind="constant", amplitude=1.0),
                      v0=InitialCondition(kind="gaussian", amplitude=5.0),
                      t_end=0.4, dt=1e-3)
    traj = evolve_full(cfg, keep_fields=False)
    assert traj.max_substeps == 1
    assert traj.steps_by_seed_order[6] >= 100
    assert traj.picard_iters_total <= 780
    monkeypatch.setattr(evolution, "SEED_WEIGHTS", SEED_WEIGHTS[:6])
    order6 = evolve_full(cfg, keep_fields=False)
    assert order6.picard_iters_total >= traj.picard_iters_total + 50
    assert traj.records[-1].l2 == pytest.approx(order6.records[-1].l2, rel=1e-10)


def run_outcome(run, cfg):
    """The trajectory, or the name of the fault that ended the run (under
    cli.main's floating-point policy)."""
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.filterwarnings("ignore", "sub-stepping engaged", UserWarning)
        try:
            return run(cfg, keep_fields=False)
        except (PicardError, BlowUpError) as exc:
            return type(exc).__name__


@settings(max_examples=60)
@given(n=st.sampled_from([64, 128, 256]),
       kind=st.sampled_from(["constant", "tanh-front", "gaussian-bump"]),
       speed=st.sampled_from([0.0, 0.7, -1.3]),
       amplitude=st.sampled_from([0.1, 1.0, 5.0, 20.0, 1e200]),
       dt=st.sampled_from([1e-3, 4e-3, 1e-2]),
       steps=st.integers(10, 30),
       run=st.sampled_from([evolve, evolve_full]))
def test_evidence_driven_seed_ends_where_order4_does(n, kind, speed, amplitude, dt, steps, run):
    # only the starting iterate depends on the seed: the run whose order
    # moves on evidence and the run held at order 4 split and fault alike,
    # end within a few picard_tol per step of each other (at most 1.1 of one
    # over the configs this draws from), and both conserve mass exactly
    cfg = base_config(make_grid(n, 40.0), profile=WaveProfile(kind=kind, speed=speed),
                      v0=InitialCondition(kind="gaussian", amplitude=amplitude),
                      dt=dt, t_end=steps * dt)
    evidence = run_outcome(run, cfg)
    with mock.patch.object(evolution, "SEED_WEIGHTS", SEED_WEIGHTS[:4]):
        order4 = run_outcome(run, cfg)
    if isinstance(evidence, str) or isinstance(order4, str):
        assert evidence == order4
        return
    assert evidence.max_substeps == order4.max_substeps
    spectrum = real_spectrum(cfg.grid)
    gap = spectrum.l2_norm(evidence.end.vhat - order4.end.vhat)
    assert gap <= 4.0 * cfg.picard_tol * steps * max(spectrum.l2_norm(order4.end.vhat), 1.0)
    for traj in (evidence, order4):
        assert all(r.mass_drift == 0.0 for r in traj.records)


def test_picard_sweep_runs(capsys):
    # the sweep script (tests/picard_sweep.py) on two of its configs, one of
    # which splits: a line per config, and the family's total
    families = picard_sweep.FAMILIES
    assert [len(configs) for configs in families.values()] == [160, 96, 96]
    totals = picard_sweep.main({"smoke": [families["seed"][0], families["split"][1]]})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2] == f"smoke: 2 configs, {totals['smoke']} iterations"
    counts = [re.search(r": (\d+) iterations, max_substeps (\d+)$", line) for line in lines[:2]]
    assert [int(m.group(2)) for m in counts] == [1, 2]
    assert totals["smoke"] == sum(int(m.group(1)) for m in counts) > 0


def test_slow_contraction_drops_history_and_splits_nothing(monkeypatch):
    # amplitude 12: whole steps take 22-25 Picard iterations at ratios near
    # 0.45, above RHO_HISTORY, so every step seeds with exponential Euler.
    # Extrapolating with ETD2 here overshot and split two steps that the
    # exponential-Euler seed takes whole (45.2 transforms per step)
    transforms = count_transforms(monkeypatch)
    cfg = base_config(make_grid(256, 40.0), v0=InitialCondition(kind="gaussian", amplitude=12.0),
                      dt=1e-2, t_end=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = evolve(cfg)
    assert traj.max_substeps == 1
    assert traj.steps_by_seed_order == [60, 0, 0, 0, 0, 0, 0]
    assert len(transforms) <= 45 * 60


@pytest.mark.parametrize("config", ["moving-tanh", "split"])
def test_picard_iters_total_counts_every_nonlinear_term(grid_1024, monkeypatch, config):
    # failed attempts included: every nonlinear term the run evaluates is one
    # Picard iteration, except the start state's term
    seen = count_nonlinear_terms(monkeypatch)
    if config == "moving-tanh":
        traj = evolve(climbing_tanh_config(grid_1024, t_end=0.08))
        assert traj.steps_by_seed_order == [1, 1, 1, 1, 1, 1, 14]
    else:
        with pytest.warns(UserWarning, match="sub-stepping engaged"):
            traj = evolve(large_gaussian_config(make_grid(256, 40.0), t_end=0.02))
        assert traj.max_substeps >= 4
        assert sum(traj.steps_by_seed_order) >= 2 * traj.max_substeps
    assert traj.picard_iters_total == len(seen) - 1


@pytest.mark.parametrize("run", [evolve, evolve_full])
def test_records_without_fields_match(grid_1024, monkeypatch, run):
    # keep_fields off: the same records, bit for bit, no fields, and one
    # inverse transform fewer per record
    cfg = moving_tanh_config(grid_1024, t_end=0.02, dt=1e-3, output_stride=5)
    c1b_norm(cfg.profile, cfg.grid)  # cached before counting: each run then reads it
    transforms = count_transforms(monkeypatch)
    kept = run(cfg)
    with_fields = len(transforms)
    transforms.clear()
    dropped = run(cfg, keep_fields=False)
    assert dropped.records == kept.records and dropped.times == kept.times
    assert dropped.fields == [] and len(kept.fields) == len(kept.records) == 5
    assert dropped.picard_iters_total == kept.picard_iters_total
    assert len(transforms) == with_fields - len(kept.records)


def test_overflowing_norm_raises_blowup_without_warnings(grid_1024):
    # the single-pass norm overflows to a non-finite value quietly, and the
    # stepper's finiteness check turns it into a BlowUpError
    cfg = base_config(grid_1024, v0=InitialCondition(kind="gaussian", amplitude=1e200),
                      t_end=0.01, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match="not finite"):
            evolve(cfg)


def count_nonlinear_terms(monkeypatch) -> list[bytes]:
    """Record the state each _nonlinear_hat call of the stepper sees."""
    seen = []
    original = evolution._nonlinear_hat
    monkeypatch.setattr(evolution, "_nonlinear_hat",
                        lambda coeffs, *a: seen.append(coeffs.tobytes()) or original(coeffs, *a))
    return seen


MOVING_TANH = WaveProfile(kind="tanh-front", amplitude=0.8, width=1.5, speed=0.7)


def moving_tanh_config(grid, **kw):
    return base_config(grid, profile=MOVING_TANH,
                       v0=InitialCondition(kind="gaussian", amplitude=0.1), **kw)


def climbing_tanh_config(grid, **kw):
    """The moving front with data 10x larger at dt = 4e-3: steps 1-6 each
    take three or more iterations (n = 1024, either equation), so step k + 1
    is seeded at order k + 1 up to 7."""
    return base_config(grid, profile=MOVING_TANH,
                       v0=InitialCondition(kind="gaussian", amplitude=1.0), dt=4e-3, **kw)


def test_unsplit_run_evaluates_one_nonlinear_term_per_iteration(grid_1024, monkeypatch):
    # the start state's term once, then one per Picard iteration: each step
    # takes its start term from the previous step's last iteration
    seen = count_nonlinear_terms(monkeypatch)
    traj = evolve(moving_tanh_config(grid_1024, t_end=0.05, dt=1e-3, output_stride=1))
    assert traj.max_substeps == 1
    assert len(seen) == 1 + sum(r.picard_iters for r in traj.records)


@pytest.mark.parametrize("run", [evolve, evolve_full])
def test_carried_term_is_a_fresh_evaluation(grid_1024, monkeypatch, run):
    # a moving profile under evolve, no coupling under evolve_full: every
    # step's start term is the previous step's end term, and both equal a
    # fresh evaluation at the state and time they belong to, bit for bit;
    # the seed's history is the start terms of the previous steps, newest
    # first, as many as the order rule keeps (_next_history)
    steps = []
    original = evolution._single_step

    def spy(vhat, N0, t0, t1, cfg, tables, u_of_t, history=()):
        out = original(vhat, N0, t0, t1, cfg, tables, u_of_t, history)
        steps.append((vhat, N0, t0, out[0], out[1], t1, tables, u_of_t, history, out[2:]))
        return out

    monkeypatch.setattr(evolution, "_single_step", spy)
    cfg = climbing_tanh_config(grid_1024, t_end=0.08, output_stride=1)
    run(cfg)
    assert len(steps) == 20
    assert max(len(step[8]) for step in steps) == 6  # the order reaches 7
    for k, (vhat, N0, t0, w, N1, t1, tables, u_of_t, history, _) in enumerate(steps):
        sampler = None if u_of_t is None else evolution._profile_sampler(cfg, tables)
        for state, term, t in ((vhat, N0, t0), (w, N1, t1)):
            fresh = _nonlinear_hat(state, None if sampler is None else sampler(t),
                                   tables.spectrum, tables.modes)
            assert np.array_equal(term, fresh), (k, t)
        if k:
            previous = steps[k - 1]
            assert N0 is previous[4] and t0 == previous[5]
            kept = evolution._next_history(previous[8], previous[1], *previous[9])
            assert len(history) == len(kept), k
        else:
            assert history == ()
        for i, term in enumerate(history):
            assert np.array_equal(term, steps[k - 1 - i][1]), (k, i)


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("run", [evolve, evolve_full])
def test_steps_carry_only_the_retained_band(grid_1024, monkeypatch, run, dealias):
    # every state, term and table a step sees or returns holds the retained
    # band: k = 0..n/3 under the 2/3 rule, all of k = 0..n/2 without it
    shapes = set()
    original = evolution._single_step

    def spy(vhat, N0, t0, t1, cfg, tables, u_of_t, history=()):
        out = original(vhat, N0, t0, t1, cfg, tables, u_of_t, history)
        shapes.update(a.shape for a in (vhat, N0, *history, out[0], out[1],
                                        tables.E, tables.A0, tables.A1))
        return out

    monkeypatch.setattr(evolution, "_single_step", spy)
    run(moving_tanh_config(grid_1024, t_end=0.01, dt=1e-3, dealias=dealias))
    n = grid_1024.n
    assert shapes == {(n // 3 + 1,) if dealias else (n // 2 + 1,)}


@pytest.mark.parametrize("size, iterations, ratio, start, kept", [
    (0, 1, 0.0, True, 1),  # the ramp climbs one term per step to 3, whatever the work
    (1, 5, 0.1, True, 2),
    (2, 1, 0.0, True, 3),
    (3, 1, 0.0, True, 3),  # the floor: order 4 stays after a step its seed met
    (3, 2, RHO_HISTORY, True, 4),  # a step that iterated climbs, order 4 included
    (4, 3, 0.1, True, 5),
    (6, 2, 0.1, True, 6),  # the cap: order 7
    (6, 1, 0.0, True, 5),  # a step its seed met descends
    (4, 1, 0.0, True, 3),
    (5, 2, 0.21, True, 0),  # a ratio above RHO_HISTORY drops the history
    (3, 2, 0.0, False, 0),  # as does a step without a term
], ids=["ramp-0", "ramp-1", "ramp-2", "floor", "climb-4", "climb-5", "cap", "descend-7",
        "descend-5", "ratio", "no-term"])
def test_seed_order_rule(size, iterations, ratio, start, kept):
    # the history after a step is its start term followed by the history it
    # started from, cut to kept terms
    terms = tuple(np.full(3, float(i)) for i in range(8))
    N0 = terms[0] if start else None
    history = evolution._next_history(terms[1:1 + size], N0, iterations, ratio)
    assert len(history) == kept
    assert all(term is terms[i] for i, term in enumerate(history))


def test_history_is_the_previous_same_size_start_term(monkeypatch):
    # the history passed to a step is the start terms of the calls just
    # before it, newest first and as many as the order rule keeps
    # (_next_history, which test_seed_order_rule checks), while each had the
    # same size and ended where the next starts; it is empty on the first
    # step, on piece 1 of a split step, on the whole step after a split and
    # after a step whose ratio exceeded RHO_HISTORY, and a resumed run
    # continues the history of the run it resumes, as if the two were one
    # run.  Amplitude 4 with picard_max = 5 splits every step in 8 pieces,
    # most seeded at order 4; amplitude 6 with picard_max = 12 takes 12-13
    # iterations per whole step at ratios near 0.3, so some whole steps miss
    # picard_max and split in 2.  The moving front, on mode data, splits
    # nothing: its order climbs on each of steps 1-6, so the resume after
    # step 6 starts at order 7, and from there the order moves between 6
    # and 7
    calls = []
    original = evolution._single_step

    def spy(vhat, N0, t0, t1, cfg, tables, u_of_t, history=()):
        call = {"N0": N0, "history": history, "t0": t0, "t1": t1, "dt": tables.dt}
        calls.append(call)
        out = original(vhat, N0, t0, t1, cfg, tables, u_of_t, history)
        call["ratio"], call["iterations"] = out[3], out[2]
        return out

    monkeypatch.setattr(evolution, "_single_step", spy)
    named = {"first": 0, "piece 1": 0, "after a split": 0,
             "after a ratio above RHO_HISTORY": 0, "with history": 0,
             "above order 4": 0, "one order down": 0}

    def check(cfg, calls):
        on_step_grid = {k * cfg.dt for k in range(2 * cfg.steps + 1)}
        expected = ()
        for k, call in enumerate(calls):
            before = calls[k - 1] if k else None
            if (before is None or "ratio" not in before or before["dt"] != call["dt"]
                    or before["t1"] != call["t0"]):
                expected = ()
            else:
                expected = evolution._next_history(before["history"], before["N0"],
                                                   before["iterations"], before["ratio"])
            history = call["history"]
            assert len(history) == len(expected), k
            for term, earlier in zip(history, expected):
                assert np.array_equal(term, earlier), k
            if len(history) > 3:
                named["above order 4"] += 1
            if history and len(history) < len(before["history"]):
                named["one order down"] += 1
            if history:
                named["with history"] += 1
            elif before is None:
                named["first"] += 1
            elif "ratio" in before and before["ratio"] > RHO_HISTORY:
                named["after a ratio above RHO_HISTORY"] += 1
            elif call["dt"] < cfg.dt and call["t0"] in on_step_grid:
                named["piece 1"] += 1
            elif call["dt"] == cfg.dt and before["dt"] < cfg.dt:
                named["after a split"] += 1

    configs = [base_config(make_grid(256, 40.0),
                           v0=InitialCondition(kind="gaussian", amplitude=amplitude),
                           dt=1e-2, t_end=t_end, picard_max=picard_max, output_stride=1)
               for amplitude, picard_max, t_end in ((4.0, 5, 0.05), (6.0, 12, 0.3))]
    configs.append(base_config(make_grid(128, 40.0), profile=MOVING_TANH,
                               v0=InitialCondition(kind="mode", amplitude=0.3), dt=4e-3,
                               t_end=0.024, output_stride=1))
    for cfg in configs:
        calls.clear()
        if cfg.profile is not MOVING_TANH:
            with pytest.warns(UserWarning, match="sub-stepping engaged"):
                traj = evolve(cfg)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the moving front splits nothing
                traj = evolve(cfg)
        assert traj.substepping_engaged == (cfg.profile is not MOVING_TANH)
        resumed = len(calls)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a split resumed run warns again
            evolve(cfg, resume=traj)
        # the resumed run's first call is seeded from the history its
        # predecessor's last step left, and its steps follow the same rule
        assert calls[resumed]["t0"] == calls[resumed - 1]["t1"]
        assert calls[resumed]["history"] is traj.end.history
        check(cfg, list(calls))
    assert named["first"] == 3 and named["piece 1"] >= 2
    assert named["after a split"] >= 2 and named["with history"] >= 10
    assert named["after a ratio above RHO_HISTORY"] >= 5
    assert named["above order 4"] >= 2 and named["one order down"] >= 2


def test_retry_reuses_the_start_term(monkeypatch):
    # amplitude 100: whole steps and 2, 4, ... pieces fail before the run
    # settles, and every retry starts from the state whose term is known
    seen = count_nonlinear_terms(monkeypatch)
    with pytest.warns(UserWarning, match="sub-stepping engaged"):
        traj = evolve(large_gaussian_config(make_grid(256, 40.0), t_end=0.02, output_stride=1))
    assert traj.max_substeps >= 4
    assert len(seen) == len(set(seen))  # no state's term evaluated twice


def test_returned_state_meets_the_picard_residual():
    # over random fields, profiles and steps: the returned w satisfies
    # |Theta w - w| <= tol, and the returned end term is N(w, t1)
    rng = np.random.default_rng(90001)
    grid = make_grid(256, 40.0)
    checked = 0
    for _ in range(24):
        profile = WaveProfile(kind="tanh-front", amplitude=rng.uniform(0.0, 1.5),
                              width=rng.uniform(0.5, 2.0), speed=rng.uniform(-1.0, 1.0))
        v0 = InitialCondition(kind="white-noise", amplitude=10.0 ** rng.uniform(-3.0, 0.0),
                              seed=int(rng.integers(1 << 30)))
        dt = 10.0 ** rng.uniform(-4.0, -2.0)
        cfg = base_config(grid, profile=profile, v0=v0, dt=dt, t_end=dt)
        tables = evolution._step_tables(grid.n, grid.length, dt, True)
        spectrum, modes = tables.spectrum, tables.modes
        u_of_t = evolution._profile_sampler(cfg, tables)
        t0 = rng.uniform(0.0, 1.0)
        vhat = spectrum.forward(v0.build(grid).values, modes)
        N0 = _nonlinear_hat(vhat, u_of_t(t0), spectrum, modes)
        try:
            w, N1, iters, _ = evolution._single_step(vhat, N0, t0, t0 + dt, cfg, tables, u_of_t)
        except PicardError:
            continue
        assert np.array_equal(N1, _nonlinear_hat(w, u_of_t(t0 + dt), spectrum, modes))
        theta = tables.E * vhat - tables.A0 * N0 - tables.A1 * N1
        tol = cfg.picard_tol * max(spectrum.l2_norm(tables.E * vhat), 1.0)
        assert spectrum.l2_norm(theta - w) <= tol
        checked += 1
    assert checked >= 20


def whole_band_phi_functions(z, ez):
    """The phi functions with each formula over the whole band and the
    series picked where |z| < 0.25: the reference for _phi_functions, which
    evaluates each formula on its own entries only."""
    small = np.abs(z) < 0.25
    with np.errstate(invalid="ignore", divide="ignore"):  # z = 0 takes the series
        phi1 = (ez - 1.0) / z
        phi2 = (ez - 1.0 - z) / z**2
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(13):
        s1 += term / math.factorial(k + 1)
        s2 += term / math.factorial(k + 2)
        term = term * z
    return np.where(small, s1, phi1), np.where(small, s2, phi2)


def test_phi_functions_on_their_own_entries_are_the_whole_band_form():
    # each formula on its own entries gives E, A0 and A1 bit for bit, and
    # divides by no z = 0, so it needs no errstate
    bands = set()
    for n in (64, 1024, 16384):
        grid = make_grid(n, 40.0)
        for dt in (1e-4, 1e-3, 1e-2, 1.0):
            for dealias in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    tables = evolution._step_tables.__wrapped__(n, grid.length, dt, dealias)
                z = -dt * symbol_table(grid)[: tables.modes]
                E = np.exp(z)
                phi1, phi2 = whole_band_phi_functions(z, E)
                D = real_spectrum(grid).derivative[: tables.modes]
                assert np.array_equal(tables.E, E)
                assert np.array_equal(tables.A0, 0.5 * dt * D * (phi1 - phi2))
                assert np.array_equal(tables.A1, 0.5 * dt * D * phi2)
                bands.add("series only" if np.all(np.abs(z) < 0.25) else "mixed")
    assert bands == {"series only", "mixed"}  # z = 0 at k = 0 is always series


def phi_series(z, p, terms=30):
    """phi_p(z) = sum_k z^k / (k + p)!, by Horner from the smallest term: an
    evaluation written apart from _phi_functions' 13-term forward sum."""
    total = np.zeros_like(z)
    for k in reversed(range(terms)):
        total = total * z + 1.0 / math.factorial(k + p)
    return total


def test_phi_functions_match_a_longer_series_where_they_sum_theirs():
    # on |z| < 0.25 _phi_functions sums its own series; a truncated series
    # or a wrong coefficient there misses the 30-term values by far more
    # than roundoff
    rng = np.random.default_rng(7)
    radius, angle = 0.25 * np.sqrt(rng.uniform(size=4000)), 2.0 * np.pi * rng.uniform(size=4000)
    disk = radius * np.exp(1j * angle)
    z = -1e-3 * symbol_table(make_grid(1024, 40.0))
    z = np.concatenate([disk, z[np.abs(z) < 0.25],
                        [0.0, 1e-300, 1e-12, 0.2499999, -0.2499999, 0.2499999j]]).astype(complex)
    phi1, phi2 = evolution._phi_functions(z, np.exp(z))
    np.testing.assert_allclose(phi1, phi_series(z, 1), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(phi2, phi_series(z, 2), rtol=1e-15, atol=0.0)


# --- contraction_time_bound -------------------------------------------------

def test_contraction_bound_no_profile(unit_constants):
    b = contraction_time_bound(1.0, 0.0)
    assert b.t_star == pytest.approx((2.0) ** -4, rel=1e-12)
    assert b.equation_residual() < 1e-10


def test_contraction_bound_no_perturbation(unit_constants):
    b = contraction_time_bound(0.0, 3.0)
    assert b.t_star == pytest.approx(1.0 / (2.0 * 3.0) ** 2, rel=1e-12)


def test_contraction_bound_matches_bisection(unit_constants):
    b = contraction_time_bound(1.0, 1.0)
    f = lambda t: 2.0 * t**0.25 + 2.0 * math.sqrt(t) - 1.0
    oracle = optimize.brentq(f, 1e-12, 10.0, xtol=1e-14)
    assert abs(b.t_star - oracle) < 1e-10
    assert b.t_star == pytest.approx(0.017949192431122696, abs=1e-12)


def test_contraction_bound_monotone_in_M(unit_constants):
    t1 = contraction_time_bound(1.0, 1.0).t_star
    t2 = contraction_time_bound(2.0, 1.0).t_star
    assert t2 < t1


def test_contraction_bound_random_inputs_solve_the_equation():
    # log-uniform budgets across twelve decades, with and without a profile:
    # the rationalized root must satisfy ratio_bound(t_star) = 1 to 1e-12
    # even where 4 a << b^2 (the textbook root cancelled there, up to a
    # residual of 3.5)
    rng = np.random.default_rng(20111)
    M = 10.0 ** rng.uniform(-6.0, 6.0, 2400)
    u = 10.0 ** rng.uniform(-8.0, 4.0, 2400)
    u[::4] = 0.0
    worst = max(
        contraction_time_bound(m, v).equation_residual()
        for m, v in zip(M, u)
    )
    assert worst <= 1e-12


def test_contraction_bound_nan_residual_fails():
    # an infinite norm budget makes the root 0 and its residual nan, which
    # must fail the precision check instead of passing as t_star = 0
    with pytest.raises(ArithmeticError, match="residual nan"):
        contraction_time_bound(math.inf, 1.0)


def test_contraction_bound_rejects_all_zero():
    with pytest.raises(ValueError, match="all-zero"):
        contraction_time_bound(0.0, 0.0)


def test_pinned_step_constants_match_refit(stepping_norm_fit):
    # 9 log-spaced times over the control window on n = 8192, L = 40
    assert stepping_norm_fit.K0 == pytest.approx(K0, rel=1e-12)
    assert stepping_norm_fit.K1 == pytest.approx(K1, rel=1e-12)


# --- evolve -----------------------------------------------------------------

def test_zero_initial_data_stays_zero(grid_1024):
    cfg = base_config(grid_1024, profile=WaveProfile(kind="tanh-front"),
                      t_end=0.05, dt=1e-3, output_stride=10)
    traj = evolve(cfg)
    assert all(r.l2 == 0.0 for r in traj.records)
    assert energy_bound_check(traj).ok


def test_unstable_mode_growth_rate(grid_1024):
    # constant background, tiny seed at the most amplified grid frequency:
    # e-folding matches -Re psi within 1%
    g = grid_1024
    k = int(round(XI_STAR * g.length))
    xi = k / g.length
    cfg = base_config(
        g,
        profile=WaveProfile(kind="constant", amplitude=0.5),
        v0=InitialCondition(kind="mode", mode_k=k, amplitude=1e-6),
        t_end=0.1,
        dt=1e-3,
        output_stride=100,
    )
    traj = evolve(cfg)
    C0 = real_spectrum(g).forward(traj.fields[0].values)[k]
    C1 = real_spectrum(g).forward(traj.fields[-1].values)[k]
    rate = math.log(abs(C1 / C0)) / (traj.times[-1] - traj.times[0])
    assert rate == pytest.approx(-psi_symbol(xi).real, rel=1e-2)
    assert rate == pytest.approx(ALPHA0, rel=1e-2)


def test_energy_bound_on_tanh_run(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="tanh-front", amplitude=1.0, width=1.0),
        v0=InitialCondition(kind="gaussian", amplitude=0.1, width=1.0),
        t_end=0.1,
        dt=1e-3,
        output_stride=10,
    )
    traj = evolve(cfg)
    report = energy_bound_check(traj)
    assert report.ok
    # recorded norms match recomputation from the stored fields
    for f, rec in zip(traj.fields, traj.records):
        assert l2_norm(f) == pytest.approx(rec.l2, rel=1e-12)


def test_mass_conserved_exactly(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="gaussian-bump", amplitude=0.5, width=2.0),
        v0=InitialCondition(kind="gaussian", amplitude=0.2, width=1.5, offset=3.0),
        t_end=0.2,
        dt=1e-3,
        output_stride=50,
    )
    traj = evolve(cfg)
    assert max(r.mass_drift for r in traj.records) <= 1e-12


def test_restart_matches_direct_run(grid_1024):
    profile = WaveProfile(kind="tanh-front", amplitude=0.8, width=1.5, speed=0.7)
    kw = dict(profile=profile,
              v0=InitialCondition(kind="gaussian", amplitude=0.1),
              dt=1e-3, output_stride=100)
    # the solution map is a semigroup, S(t + s) = S(t) S(s), and a resumed
    # run continues the state, seed history included, that the first run
    # ended in, so first + resumed is the direct run bit for bit
    direct = evolve(base_config(grid_1024, t_end=0.2, **kw))
    first = evolve(base_config(grid_1024, t_end=0.1, **kw))
    second = evolve(base_config(grid_1024, t_end=0.1, **kw), resume=first)
    assert_resumes_exactly([first, second], direct)
    assert second.times[-1] == pytest.approx(0.2) and second.params == direct.params
    assert len(second.end.history) == 3
    # a resume point whose history holds 4, 5 or 6 terms, under either
    # equation: the climbing front seeds steps 5, 6 and 7 at orders 5, 6 and 7
    for run in (evolve, evolve_full):
        direct = run(climbing_tanh_config(grid_1024, t_end=0.08, output_stride=1))
        for steps in (4, 5, 6):
            first = run(climbing_tanh_config(grid_1024, t_end=steps * 4e-3, output_stride=1))
            second = run(climbing_tanh_config(grid_1024, t_end=(20 - steps) * 4e-3,
                                              output_stride=1), resume=first)
            assert len(first.end.history) == steps
            assert_resumes_exactly([first, second], direct)
            assert [a + b for a, b in zip(first.steps_by_seed_order,
                                          second.steps_by_seed_order)] == direct.steps_by_seed_order
            assert first.picard_iters_total + second.picard_iters_total == direct.picard_iters_total


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("stepper", [evolve, evolve_full])
def test_end_state_bands_own_their_memory(grid_1024, stepper, dealias):
    # a band that is a view of a transform's output would keep all n/2 + 1
    # entries alive for as long as the state holds it.  After five steps of
    # the climbing front, either equation holds five history terms
    cfg = climbing_tanh_config(grid_1024, t_end=0.02, dealias=dealias)
    state = stepper(cfg, keep_fields=False).end
    bands = [state.vhat, state.nhat, *state.history]
    assert len(state.history) == 5
    modes = real_spectrum(grid_1024).dealias_modes if dealias else grid_1024.n // 2 + 1
    for band in bands:
        assert band.shape == (modes,) and band.base is None and band.flags.owndata


def test_front_at_the_box_edge_satisfies_bound(grid_1024):
    # data on the box edge, where a wrapped tanh front of amplitude 20 used to
    # jump by 2A: the periodic front pair has no jump, and the bound, whose
    # C_phi is read from the profile stepped, holds (the wrapped front's ran
    # 1.34x over its analytic bound, at every resolution)
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="tanh-front", amplitude=20.0),
        v0=InitialCondition(kind="gaussian", amplitude=1e-3, width=1.0, offset=19.9),
        t_end=0.1, dt=1e-3, output_stride=10,
    )
    traj = evolve(cfg)
    assert traj.params.c_phi == pytest.approx(20.0, rel=1e-6)
    assert energy_bound_check(traj).ok and traj.max_substeps == 1


@pytest.mark.parametrize("speed", [1.3, -0.9])
@pytest.mark.parametrize("profile", [
    WaveProfile(kind="tanh-front", amplitude=0.8, offset=-3.0),
    WaveProfile(kind="gaussian-bump", amplitude=0.5, width=2.0, offset=4.0),
    "sampled",
], ids=["front-pair", "gaussian-bump", "sampled"])
@pytest.mark.parametrize("n", [256, 1024])
def test_moving_profile_moves_forward(profile, speed, n):
    # the coupling at time t is twice the t = 0 samples translated by +c t:
    # the spectral shift of their dealiased band, to roundoff
    grid = make_grid(n, 40.0)
    if profile == "sampled":
        values = np.exp(-(grid.points / 3.0) ** 2) * np.cos(grid.points)
        profile = WaveProfile(kind="sampled", samples=RealField(grid, values))
    cfg = base_config(grid, profile=profile._replace(speed=speed), dt=1e-3, t_end=1e-3)
    tables = evolution._step_tables(n, grid.length, cfg.dt, cfg.dealias)
    spectrum = tables.spectrum
    band = spectrum.forward(profile.evaluate(0.0, grid).values, tables.modes)
    sampler = evolution._profile_sampler(cfg, tables)
    for t in (0.37, 2.9, 11.0):
        want = 2.0 * spectrum.inverse(band * spectrum.shift_phase(-speed * t)[: band.size])
        assert np.abs(sampler(t) - want).max() <= 1e-12


def test_moving_profile_run_satisfies_bound(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="tanh-front", amplitude=0.8, width=1.5, speed=1.3),
        v0=InitialCondition(kind="gaussian", amplitude=0.1),
        t_end=0.2, dt=1e-3, output_stride=20,
    )
    traj = evolve(cfg)
    assert energy_bound_check(traj).ok
    assert max(r.mass_drift for r in traj.records) <= 1e-12


def test_dealias_off_still_satisfies_bound(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="gaussian-bump", amplitude=0.5, width=2.0),
        v0=InitialCondition(kind="gaussian", amplitude=0.1),
        t_end=0.1, dt=1e-3, output_stride=20, dealias=False,
    )
    traj = evolve(cfg)
    assert energy_bound_check(traj).ok


def test_blowup_guard_on_overflow(grid_1024):
    cfg = base_config(
        grid_1024,
        v0=InitialCondition(kind="gaussian", amplitude=1e200),
        t_end=0.01, dt=1e-3,
    )
    with pytest.raises(BlowUpError):
        evolve(cfg)


# --- evolve_full ------------------------------------------------------------

def test_full_equation_constant_steady_state(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="constant", amplitude=1.3),
        v0=InitialCondition(kind="zero"),
        t_end=0.1, dt=1e-3, output_stride=20,
    )
    traj = evolve_full(cfg)
    for f in traj.fields:
        assert np.abs(f.values - 1.3).max() < 1e-12


def test_full_equation_mean_conserved(grid_1024):
    cfg = base_config(
        grid_1024,
        profile=WaveProfile(kind="constant", amplitude=0.7),
        v0=InitialCondition(kind="gaussian", amplitude=0.3),
        t_end=0.2, dt=1e-3, output_stride=50,
    )
    traj = evolve_full(cfg)
    assert max(r.mass_drift for r in traj.records) <= 1e-12


def test_full_vs_perturbation_consistency(grid_1024):
    # constant profiles are steady states of the full equation, so the two
    # formulations must produce the same perturbation
    profile = WaveProfile(kind="constant", amplitude=0.8)
    kw = dict(profile=profile,
              v0=InitialCondition(kind="gaussian", amplitude=0.2),
              t_end=0.2, dt=1e-3, output_stride=100)
    pert = evolve(base_config(grid_1024, **kw))
    full = evolve_full(base_config(grid_1024, **kw))
    u_phi = profile.evaluate(full.times[-1], grid_1024)
    recovered = RealField(grid_1024, full.fields[-1].values - u_phi.values)
    diff = l2_norm(RealField(grid_1024, recovered.values - pert.fields[-1].values))
    assert diff / l2_norm(pert.fields[-1]) < 1e-6
