"""Picard work of the stepper over three families of configs, the evidence
behind the seed's order rule (evolution._next_history).  Not a test module:
run as `python tests/picard_sweep.py` with the package importable.  Each
line is one config and the Picard iterations its run took (every attempt
counted, failed ones included) with the most pieces any step was cut into,
or the name of the fault that ended the run; each family ends with its
total.

- seed: 160 configs of 100 steps over both equations, n = 256 and 1024,
  five kinds of data, a constant, a static and a moving tanh front and a
  moving bump, and dt = 1e-3 and 4e-3;
- split: 96 configs of 30 steps whose large data make step control split;
- bump: 96 configs of 100 steps on bumps moving across the box.

Every config runs on a box of length 40.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from fowler.config import InitialCondition, SimConfig
from fowler.evolution import BlowUpError, PicardError, evolve, evolve_full
from fowler.grid import make_grid
from fowler.profiles import WaveProfile

RUNS = (evolve, evolve_full)
SIZES = (256, 1024)


def gaussians(*amplitudes):
    return [InitialCondition(kind="gaussian", amplitude=a) for a in amplitudes]


def family(data, profiles, dts, steps):
    """Every (run, n, data, profile, dt) combination, each for steps steps."""
    return [(run, n, v0, profile, dt, steps)
            for run, n, v0, profile, dt in itertools.product(RUNS, SIZES, data, profiles, dts)]


FRONT = WaveProfile(kind="tanh-front", amplitude=1.0)
MOVING_FRONT = WaveProfile(kind="tanh-front", amplitude=3.0, speed=0.7)

FAMILIES = {
    "seed": family(
        gaussians(0.1, 2.0, 8.0) + [InitialCondition(kind="white-noise", amplitude=0.05),
                                   InitialCondition(kind="mode", amplitude=0.5)],
        [WaveProfile(kind="constant"), FRONT,
         WaveProfile(kind="gaussian-bump", speed=1.3), MOVING_FRONT],
        (1e-3, 4e-3), 100),
    "split": family(gaussians(12.0, 20.0, 50.0, 100.0),
                    [WaveProfile(kind="constant"), FRONT, MOVING_FRONT], (4e-3, 1e-2), 30),
    "bump": family(
        gaussians(0.1, 2.0),
        [WaveProfile(kind="gaussian-bump", amplitude=a, width=w, offset=x0, speed=1.3)
         for (w, x0), a in itertools.product(((6.0, 0.0), (10.0, 0.0), (2.0, 18.0)), (1.0, 3.0))],
        (1e-3, 4e-3), 100),
}


def describe(v0: InitialCondition, profile: WaveProfile) -> str:
    shape = "" if profile.kind == "constant" else f" w={profile.width:g} x0={profile.offset:g}"
    return (f"{v0.kind} {v0.amplitude:g} / {profile.kind} {profile.amplitude:g}{shape} "
            f"c={profile.speed:g}")


def outcome(run, n, v0, profile, dt, steps) -> tuple[int, str]:
    """The run's Picard iterations and its max_substeps, or 0 and the name of
    the fault that ended it.  Numpy's floating-point warnings are off, as
    under the command line."""
    cfg = SimConfig(grid=make_grid(n, 40.0), profile=profile, v0=v0, dt=dt, t_end=steps * dt)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        warnings.simplefilter("ignore")  # sub-stepping engaged
        try:
            traj = run(cfg, keep_fields=False)
        except (PicardError, BlowUpError) as exc:
            return 0, type(exc).__name__
    return traj.picard_iters_total, f"max_substeps {traj.max_substeps}"


def main(families=FAMILIES) -> dict[str, int]:
    """Print every config's Picard work and each family's total; return the
    totals."""
    totals = {}
    for name, configs in families.items():
        total = 0
        for run, n, v0, profile, dt, steps in configs:
            iters, end = outcome(run, n, v0, profile, dt, steps)
            total += iters
            print(f"{name:5} {run.__name__:11} n={n:<5} {describe(v0, profile):48} "
                  f"dt={dt:g} steps={steps}: {iters} iterations, {end}", flush=True)
        print(f"{name}: {len(configs)} configs, {total} iterations", flush=True)
        totals[name] = total
    return totals


if __name__ == "__main__":
    main()
