"""Command-line front end: run checks and simulations from a config file.

    fowler operator-check|kernel-report|evolve|evolve-full|convergence \
        <config-file> [--out DIR] [--snapshots]

Exit codes are never conflated: 0 all checks pass, 1 usage or config error
(an output file that cannot be written, a grid too large to allocate and a
convergence study whose runs step control split included), 2 a property or
tolerance check failed, 3 a numerical fault.
Every numerical fault is an ArithmeticError: the blow-up guard
(BlowUpError), a Picard fault in every piece size up to MAX_SUBSTEPS
(PicardError), a non-finite Fourier route, integral route or kernel
(FloatingPointError).  main runs under one floating-point policy: numpy's
warnings are silenced, and these checks report the non-finite values.
The contraction root t_star steers nothing, so a root that cannot be
represented is recorded as nan, with its reason, and is no fault.  Every
command writes its CSV tables plus a manifest of the resolved config,
derived constants, and per-check results; the run's result follows from the
checks it recorded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunSettings, parse_config
from .diagnostics import energy_bound_check, l2_norm
from .evolution import evolve, evolve_full
from .grid import Grid, RealField, make_grid
from .kernel import (
    RESOLUTION_LIMIT,
    grad_kernel_norms,
    kernel_field,
    nyquist_resolution_defect,
    semigroup_residual,
)
from .operator import apply_nonlocal_fourier, apply_nonlocal_integral
from .reporting import (
    CsvTable,
    RunManifest,
    derived_constants,
    echo_config,
    picard_ratio_bound,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3

OPERATOR_TOLERANCE = 1e-3
SEMIGROUP_TOLERANCE = 1e-10
MASS_TOLERANCE = 1e-12
SLOPE_TOLERANCE = 0.05
ORDER_THRESHOLD = 1.8


def _finish(manifest: RunManifest, out: Path) -> int:
    passed = all(v == "pass" for k, v in manifest.entries if k.startswith("check."))
    manifest.add("result", "pass" if passed else "FAIL")
    manifest.write(out / "manifest.txt")
    print(f"manifest: {out / 'manifest.txt'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _stop(manifest: RunManifest, out: Path, result: str, reason: str) -> None:
    manifest.add("error", reason)
    manifest.add("result", result)
    manifest.write(out / "manifest.txt")


def _fault(manifest: RunManifest, out: Path, exc: Exception) -> int:
    _stop(manifest, out, "numerical-fault", str(exc))
    print(f"numerical fault: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_operator_check(settings: RunSettings, manifest: RunManifest, out: Path) -> None:
    """Cross-validate the Fourier and integral routes on the configured field."""
    f = settings.v0_field
    by_fourier = apply_nonlocal_fourier(f)
    by_integral = apply_nonlocal_integral(f, settings.quadrature)
    diff = np.abs(by_fourier.values - by_integral.values)
    scale = max(float(np.abs(by_fourier.values).max()), 1e-12 * (1.0 + float(np.abs(f.values).max())))
    rel = float(diff.max()) / scale

    CsvTable(
        ["x", "I_fourier", "I_integral", "abs_diff"],
        [f.grid.points, by_fourier.values, by_integral.values, diff],
    ).write(out / "operator_check.csv")

    manifest.add("operator.max_abs_diff", float(diff.max()))
    manifest.add("operator.max_rel_diff", rel)
    manifest.check("operator_equivalence", rel <= OPERATOR_TOLERANCE,
                   "operator equivalence", f"relative Linf {rel:.3e}")


def _resolved_grid(base: Grid, t_min: float) -> Grid:
    n = base.n
    while nyquist_resolution_defect(t_min, make_grid(n, base.length)) > RESOLUTION_LIMIT:
        n *= 2
        if n > 1 << 17:
            raise ConfigError(
                f"cannot resolve kernels at t = {t_min} on any affordable grid"
            )
    return make_grid(n, base.length)


def cmd_kernel_report(settings: RunSettings, manifest: RunManifest, out: Path) -> None:
    """Kernel snapshots, gradient-norm scalings, and the semigroup law."""
    norm_times = np.logspace(-4, 0, 17)
    t_min = min(float(min(settings.kernel_times)), float(norm_times[0]))
    grid = _resolved_grid(settings.sim.grid, t_min)

    snapshots = [kernel_field(t, grid) for t in settings.kernel_times]
    CsvTable(
        ["x"] + [f"K_t{format(t, 'g')}" for t in settings.kernel_times],
        [grid.points] + [s.field.values for s in snapshots],
    ).write(out / "kernel_shape.csv")

    fit = grad_kernel_norms(norm_times, grid)
    residuals = [semigroup_residual(t, t, grid) for t in fit.times]
    CsvTable(
        ["t", "l1_grad", "l2_grad", "t34_l2", "t12_l1", "semigroup_residual"],
        [fit.times, fit.l1_grad, fit.l2_grad, fit.times**0.75 * fit.l2_grad,
         fit.times**0.5 * fit.l1_grad, residuals],
    ).write(out / "kernel_norms.csv")

    manifest.add("kernel.grid_n", grid.n)
    manifest.add("kernel.slope_l2", fit.slope_l2)
    manifest.add("kernel.slope_l1", fit.slope_l1)
    manifest.add("kernel.K0", fit.K0)
    manifest.add("kernel.K1", fit.K1)
    manifest.add("kernel.max_semigroup_residual", max(residuals))
    manifest.check("kernel_mass", all(abs(s.mass - 1.0) <= 1e-10 for s in snapshots),
                   "kernel mass = 1")
    manifest.check("kernel_sign", all(s.field.values.min() < 0.0 for s in snapshots),
                   "kernel takes negative values")
    manifest.check(
        "kernel_slopes",
        abs(fit.slope_l2 + 0.75) <= SLOPE_TOLERANCE and abs(fit.slope_l1 + 0.5) <= SLOPE_TOLERANCE,
        "gradient-norm slopes",
        f"l2 {fit.slope_l2:+.4f} vs -0.75, l1 {fit.slope_l1:+.4f} vs -0.50",
    )
    manifest.check("kernel_semigroup", max(residuals) <= SEMIGROUP_TOLERANCE,
                   "semigroup law", f"max residual {max(residuals):.3e}")


def _run_evolution(settings: RunSettings, manifest: RunManifest, out: Path, full: bool) -> None:
    sim = settings.sim
    traj = (evolve_full if full else evolve)(sim, v0_override=settings.v0_field,
                                             keep_fields=settings.snapshots)
    records = traj.records
    header = ["t", "l2", "energy_bound", "mass_drift", "picard_iters", "picard_ratio",
              "spectral_tail"]  # each a DiagnosticsRecord field
    CsvTable(header, [[getattr(r, name) for r in records] for name in header]).write(
        out / "trajectory.csv"
    )
    if settings.snapshots:
        n = sim.grid.n
        CsvTable(
            ["t", "x", "v"],
            [np.repeat(traj.times, n), np.tile(sim.grid.points, len(traj.fields)),
             np.concatenate([f.values for f in traj.fields])],
        ).write(out / "snapshots.csv")

    report = energy_bound_check(traj)
    max_drift = max(r.mass_drift for r in records)
    mass_tol = MASS_TOLERANCE * max(1.0, sim.t_end) * (1.0 + abs(records[0].mass))
    manifest.add("run.substepping_engaged", traj.substepping_engaged)
    manifest.add("run.max_substeps", traj.max_substeps)
    manifest.add("run.records", len(records))
    manifest.add("run.final_l2", records[-1].l2)
    manifest.add("run.max_mass_drift", max_drift)
    manifest.add("run.min_bound_margin", float(report.margins.min()))
    manifest.add("stats.picard_iters_total", traj.picard_iters_total)
    manifest.add("stats.picard_iters_max", traj.picard_iters_max)
    manifest.add("stats.picard_ratio_max", traj.picard_ratio_max)
    manifest.add("stats.picard_ratio_bound", picard_ratio_bound(settings, sim.dt))
    manifest.add("stats.steps_by_seed_order", " ".join(map(str, traj.steps_by_seed_order)))
    manifest.check("energy_bound", report.ok, "energy bound",
                   f"min margin {report.margins.min():.3e}")
    manifest.check("mass_conservation", max_drift <= mass_tol, "mass conservation")


def cmd_evolve(settings: RunSettings, manifest: RunManifest, out: Path) -> None:
    """Advance the perturbation equation and verify its running bounds."""
    _run_evolution(settings, manifest, out, full=False)


def cmd_evolve_full(settings: RunSettings, manifest: RunManifest, out: Path) -> None:
    """Advance the full equation and verify the same bounds on u - profile."""
    _run_evolution(settings, manifest, out, full=True)


def cmd_convergence(settings: RunSettings, manifest: RunManifest, out: Path) -> None:
    """Self-convergence order of the integrator against a fine reference."""
    sim = settings.sim
    dts = [4 * sim.dt, 2 * sim.dt, sim.dt]
    # all runs must land on a common final time: the largest multiple of the
    # coarsest step that fits in t_end
    blocks = max(1, int(math.floor(sim.t_end / dts[0])))
    horizon = blocks * dts[0]
    manifest.add("convergence.horizon", horizon)

    def run(dt):
        cfg = sim._replace(dt=dt, t_end=horizon)
        cfg = cfg._replace(output_stride=cfg.steps)  # records the start and the end
        return evolve(cfg, v0_override=settings.v0_field)

    runs = [run(dt) for dt in [sim.dt / 8.0] + dts]
    if any(traj.max_substeps > 1 for traj in runs):
        # a split run stepped at other sizes than its dt: its error measures
        # no order in dt
        substeps = " ".join(str(traj.max_substeps) for traj in runs)
        manifest.add("convergence.max_substeps", substeps)
        reason = (f"convergence needs whole steps, but step control split its runs "
                  f"(max_substeps {substeps} at dt/8, 4 dt, 2 dt, dt = {sim.dt:g}), so "
                  "their errors measure no order in dt; choose a smaller time.dt")
        _stop(manifest, out, "config-error", reason)
        raise ConfigError(reason)
    reference, *finals = (traj.fields[-1] for traj in runs)

    floor = 1e-11 * max(l2_norm(reference), 1.0)
    errors = [l2_norm(RealField(f.grid, f.values - reference.values)) for f in finals]
    orders = [float("nan")]
    for a, b in zip(errors, errors[1:]):
        orders.append(math.log2(a / b) if a > 0 and b > 0 else float("nan"))
    CsvTable(["dt", "error_vs_reference", "observed_order"], [dts, errors, orders]).write(
        out / "convergence.csv"
    )

    at_floor = all(e <= floor for e in errors)
    manifest.add("convergence.at_floor", at_floor)
    manifest.add("convergence.terminal_order", orders[-1])
    detail = "errors at roundoff floor" if at_floor else f"terminal order {orders[-1]:.3f}"
    manifest.check("integrator_order", at_floor or (orders[-1] >= ORDER_THRESHOLD),
                   "integrator order", detail)


COMMANDS = {
    "operator-check": cmd_operator_check,
    "kernel-report": cmd_kernel_report,
    "evolve": cmd_evolve,
    "evolve-full": cmd_evolve_full,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: the command is a positional choice, and the commands'
    docstrings are the epilog."""
    commands = "\n".join(f"  {name:<16}{func.__doc__}" for name, func in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="fowler",
        description="Pseudo-spectral checks and simulations for the Fowler dune equation",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run (see commands below)")
    parser.add_argument("config", help="run configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument(
        "--snapshots", action="store_true",
        help="also write field snapshots (t, x, v)",
    )
    return parser


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors; that slot is reserved for
        # check failures here
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        settings = parse_config(args.config)
        if args.snapshots:
            settings = settings._replace(snapshots=True)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: cannot create it: {exc.strerror or exc}") from None
        manifest = RunManifest()
        echo_config(manifest, settings)
        try:
            derived_constants(manifest, settings)
            COMMANDS[args.command](settings, manifest, out)
        except ArithmeticError as exc:
            return _fault(manifest, out, exc)
        return _finish(manifest, out)
    except (ConfigError, MemoryError) as exc:  # a grid too large to allocate is a config error
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
