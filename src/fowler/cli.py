"""Command-line front end: run checks and simulations from a config file.

    fowler operator-check|kernel-report|evolve|evolve-full|convergence \
        <config-file> [--out DIR] [--snapshots]

Exit codes are never conflated: 0 all checks pass, 1 usage or config error,
2 a property or tolerance check failed, 3 a numerical fault (blow-up guard,
a Picard fault in every piece size up to MAX_SUBSTEPS, non-finite integral
route).  Every command writes
its CSV tables plus a manifest of the resolved config, derived constants,
and per-check results.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunSettings, parse_config
from .diagnostics import energy_bound_check, l2_norm
from .evolution import BlowUpError, PicardError, evolve, evolve_full
from .grid import Grid, RealField, make_grid
from .kernel import (
    RESOLUTION_LIMIT,
    grad_kernel_norms,
    kernel_field,
    nyquist_resolution_defect,
    semigroup_residual,
)
from .operator import apply_nonlocal_fourier, apply_nonlocal_integral
from .reporting import CsvTable, RunManifest, derived_constants, echo_config

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


def _start_manifest(settings: RunSettings) -> RunManifest:
    manifest = RunManifest()
    echo_config(manifest, settings)
    derived_constants(manifest, settings)
    return manifest


def _finish(manifest: RunManifest, out: Path, passed: bool) -> int:
    manifest.add("result", "pass" if passed else "FAIL")
    manifest.write(out / "manifest.txt")
    print(f"manifest: {out / 'manifest.txt'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _fault(manifest: RunManifest, out: Path, exc: Exception) -> int:
    manifest.add("error", str(exc))
    manifest.add("result", "numerical-fault")
    manifest.write(out / "manifest.txt")
    print(f"numerical fault: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def _check_line(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))


def cmd_operator_check(settings: RunSettings, out: Path) -> int:
    """Cross-validate the Fourier and integral routes on the configured field."""
    sim = settings.sim
    manifest = _start_manifest(settings)
    f = settings.v0_field
    by_fourier = apply_nonlocal_fourier(f)
    try:
        by_integral = apply_nonlocal_integral(f, settings.quadrature)
    except FloatingPointError as exc:
        return _fault(manifest, out, exc)
    diff = np.abs(by_fourier.values - by_integral.values)
    scale = max(float(np.abs(by_fourier.values).max()), 1e-12 * (1.0 + float(np.abs(f.values).max())))
    rel = float(diff.max()) / scale

    table = CsvTable(header=["x", "I_fourier", "I_integral", "abs_diff"])
    for x, a, b, d in zip(sim.grid.points, by_fourier.values, by_integral.values, diff):
        table.add_row(x, a, b, d)
    table.write(out / "operator_check.csv")

    manifest.add("operator.max_abs_diff", float(diff.max()))
    manifest.add("operator.max_rel_diff", rel)
    ok = rel <= OPERATOR_TOLERANCE
    manifest.add_check("operator_equivalence", ok)
    _check_line("operator equivalence", ok, f"relative Linf {rel:.3e}")
    return _finish(manifest, out, ok)


def _resolved_grid(base: Grid, t_min: float) -> Grid:
    n = base.n
    while nyquist_resolution_defect(t_min, make_grid(n, base.length)) > RESOLUTION_LIMIT:
        n *= 2
        if n > 1 << 17:
            raise ConfigError(
                f"cannot resolve kernels at t = {t_min} on any affordable grid"
            )
    return make_grid(n, base.length)


def cmd_kernel_report(settings: RunSettings, out: Path) -> int:
    """Kernel snapshots, gradient-norm scalings, and the semigroup law."""
    sim = settings.sim
    norm_times = np.logspace(-4, 0, 17)
    t_min = min(float(min(settings.kernel_times)), float(norm_times[0]))
    grid = _resolved_grid(sim.grid, t_min)

    shape = CsvTable(
        header=["x"] + [f"K_t{format(t, 'g')}" for t in settings.kernel_times]
    )
    snapshots = [kernel_field(t, grid) for t in settings.kernel_times]
    for i, x in enumerate(grid.points):
        shape.add_row(x, *(s.field.values[i] for s in snapshots))
    shape.write(out / "kernel_shape.csv")

    fit = grad_kernel_norms(norm_times, grid)
    norms = CsvTable(
        header=["t", "l1_grad", "l2_grad", "t34_l2", "t12_l1", "semigroup_residual"]
    )
    residuals = []
    for t, l1v, l2v in zip(fit.times, fit.l1_grad, fit.l2_grad):
        r = semigroup_residual(t, t, grid)
        residuals.append(r)
        norms.add_row(t, l1v, l2v, t**0.75 * l2v, t**0.5 * l1v, r)
    norms.write(out / "kernel_norms.csv")

    manifest = _start_manifest(settings)
    manifest.add("kernel.grid_n", grid.n)

    mass_ok = all(abs(s.mass - 1.0) <= 1e-10 for s in snapshots)
    sign_ok = all(s.field.values.min() < 0.0 for s in snapshots)
    slopes_ok = (
        abs(fit.slope_l2 + 0.75) <= SLOPE_TOLERANCE
        and abs(fit.slope_l1 + 0.5) <= SLOPE_TOLERANCE
    )
    semigroup_ok = max(residuals) <= SEMIGROUP_TOLERANCE

    manifest.add("kernel.slope_l2", fit.slope_l2)
    manifest.add("kernel.slope_l1", fit.slope_l1)
    manifest.add("kernel.K0", fit.K0)
    manifest.add("kernel.K1", fit.K1)
    manifest.add("kernel.max_semigroup_residual", max(residuals))
    manifest.add_check("kernel_mass", mass_ok)
    manifest.add_check("kernel_sign", sign_ok)
    manifest.add_check("kernel_slopes", slopes_ok)
    manifest.add_check("kernel_semigroup", semigroup_ok)
    _check_line("kernel mass = 1", mass_ok)
    _check_line("kernel takes negative values", sign_ok)
    _check_line(
        "gradient-norm slopes",
        slopes_ok,
        f"l2 {fit.slope_l2:+.4f} vs -0.75, l1 {fit.slope_l1:+.4f} vs -0.50",
    )
    _check_line("semigroup law", semigroup_ok, f"max residual {max(residuals):.3e}")
    return _finish(manifest, out, mass_ok and sign_ok and slopes_ok and semigroup_ok)


def _trajectory_tables(traj, out: Path, snapshots: bool):
    table = CsvTable(
        header=["t", "l2", "energy_bound", "mass_drift", "picard_iters",
                "picard_ratio", "spectral_tail"]
    )
    for rec in traj.records:
        table.add_row(rec.t, rec.l2, rec.energy_bound, rec.mass_drift,
                      rec.picard_iters, rec.picard_ratio, rec.spectral_tail)
    table.write(out / "trajectory.csv")
    if snapshots:
        snap = CsvTable(header=["t", "x", "v"])
        for t, f in zip(traj.times, traj.fields):
            for x, v in zip(f.grid.points, f.values):
                snap.add_row(t, x, v)
        snap.write(out / "snapshots.csv")


def _run_evolution(settings: RunSettings, out: Path, full: bool) -> int:
    sim = settings.sim
    manifest = _start_manifest(settings)
    try:
        traj = (evolve_full if full else evolve)(sim, v0_override=settings.v0_field)
    except (BlowUpError, PicardError) as exc:
        return _fault(manifest, out, exc)
    _trajectory_tables(traj, out, settings.snapshots)

    report = energy_bound_check(traj)
    bound_ok = report.ok
    mass_tol = MASS_TOLERANCE * max(1.0, sim.t_end) * (1.0 + abs(traj.records[0].mass))
    mass_ok = max(r.mass_drift for r in traj.records) <= mass_tol
    manifest.add("run.substepping_engaged", traj.substepping_engaged)
    manifest.add("run.max_substeps", traj.max_substeps)
    manifest.add("run.records", len(traj.records))
    manifest.add("run.final_l2", traj.records[-1].l2)
    manifest.add("run.max_mass_drift", max(r.mass_drift for r in traj.records))
    manifest.add("run.min_bound_margin", float(report.margins.min()))
    manifest.add_check("energy_bound", bound_ok)
    manifest.add_check("mass_conservation", mass_ok)
    _check_line("energy bound", bound_ok, f"min margin {report.margins.min():.3e}")
    _check_line("mass conservation", mass_ok)
    return _finish(manifest, out, bound_ok and mass_ok)


def cmd_evolve(settings: RunSettings, out: Path) -> int:
    """Advance the perturbation equation and verify its running bounds."""
    return _run_evolution(settings, out, full=False)


def cmd_evolve_full(settings: RunSettings, out: Path) -> int:
    """Advance the full equation and verify the same bounds on u - profile."""
    return _run_evolution(settings, out, full=True)


def cmd_convergence(settings: RunSettings, out: Path) -> int:
    """Self-convergence order of the integrator against a fine reference."""
    sim = settings.sim
    manifest = _start_manifest(settings)
    dts = [4 * sim.dt, 2 * sim.dt, sim.dt]
    # all runs must land on a common final time: the largest multiple of the
    # coarsest step that fits in t_end
    blocks = max(1, int(math.floor(sim.t_end / dts[0])))
    horizon = blocks * dts[0]
    manifest.add("convergence.horizon", horizon)
    from dataclasses import replace

    def final_field(dt):
        cfg = replace(
            sim, dt=dt, t_end=horizon,
            output_stride=max(1, int(round(horizon / dt))),
        )
        return evolve(cfg, v0_override=settings.v0_field).fields[-1]

    try:
        reference = final_field(sim.dt / 8.0)
        finals = [final_field(dt) for dt in dts]
    except (BlowUpError, PicardError) as exc:
        return _fault(manifest, out, exc)

    floor = 1e-11 * max(l2_norm(reference), 1.0)
    errors = [l2_norm(RealField(f.grid, f.values - reference.values)) for f in finals]
    orders = [float("nan")]
    for a, b in zip(errors, errors[1:]):
        orders.append(math.log2(a / b) if b > 0 else float("nan"))

    table = CsvTable(header=["dt", "error_vs_reference", "observed_order"])
    for dt, err, order in zip(dts, errors, orders):
        table.add_row(dt, err, order)
    table.write(out / "convergence.csv")

    at_floor = all(e <= floor for e in errors)
    ok = at_floor or (orders[-1] >= ORDER_THRESHOLD)
    manifest.add("convergence.at_floor", at_floor)
    manifest.add("convergence.terminal_order", orders[-1])
    manifest.add_check("integrator_order", ok)
    detail = "errors at roundoff floor" if at_floor else f"terminal order {orders[-1]:.3f}"
    _check_line("integrator order", ok, detail)
    return _finish(manifest, out, ok)


COMMANDS = {
    "operator-check": cmd_operator_check,
    "kernel-report": cmd_kernel_report,
    "evolve": cmd_evolve,
    "evolve-full": cmd_evolve_full,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fowler",
        description="Pseudo-spectral checks and simulations for the Fowler dune equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("config", help="run configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--snapshots", action="store_true",
            help="also write field snapshots (t, x, v)",
        )
    return parser


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
            from dataclasses import replace

            settings = replace(settings, snapshots=True)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](settings, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
