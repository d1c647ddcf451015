"""Correctness gate for one CLI command run.

A run passes when the process exited 0, its manifest reports every check as
`pass`, its key outputs sit inside their reference bands, and its CSV tables
are well formed and agree with the values the manifest reports.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Reference

TRAJECTORY_HEADER = ["t", "l2", "energy_bound", "mass_drift", "picard_iters",
                     "picard_ratio", "spectral_tail"]
OPERATOR_HEADER = ["x", "I_fourier", "I_integral", "abs_diff"]
NORMS_HEADER = ["t", "l1_grad", "l2_grad", "t34_l2", "t12_l1", "semigroup_residual"]


class GateError(Exception):
    """One reason a command run fails the gate."""


def read_manifest(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise GateError(f"missing {path.name}")
    entries = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise GateError(f"malformed manifest line {line!r}")
        entries[key] = value
    return entries


def read_table(path: Path, header: list[str] | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a CSV table; every entry must be a finite number."""
    if not path.is_file():
        raise GateError(f"missing {path.name}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        head = next(reader, None)
        if head is None or (header is not None and head != header):
            raise GateError(f"{path.name}: unexpected header {head}")
        rows = []
        for row in reader:
            if len(row) != len(head):
                raise GateError(f"{path.name}: row {len(rows) + 1} has {len(row)} fields")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise GateError(f"{path.name}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise GateError(f"{path.name}: non-finite value in row {len(rows) + 1}")
            rows.append(values)
    if not rows:
        raise GateError(f"{path.name}: no rows")
    return head, rows


def manifest_float(manifest: dict[str, str], key: str) -> float:
    try:
        value = float(manifest[key])
    except KeyError:
        raise GateError(f"manifest lacks {key}") from None
    except ValueError:
        raise GateError(f"manifest {key} is not a number: {manifest[key]!r}") from None
    if not math.isfinite(value):
        raise GateError(f"manifest {key} is not finite")
    return value


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _check_evolution(out: Path, manifest: dict[str, str]) -> None:
    _, rows = read_table(out / "trajectory.csv", TRAJECTORY_HEADER)
    _expect(len(rows) == int(manifest_float(manifest, "run.records")),
            "trajectory.csv row count differs from run.records")
    times = [r[0] for r in rows]
    _expect(all(a < b for a, b in zip(times, times[1:])), "trajectory times not increasing")
    _expect(math.isclose(times[-1], manifest_float(manifest, "time.t_end"), rel_tol=1e-9),
            "trajectory does not reach t_end")
    _expect(rows[-1][1] == manifest_float(manifest, "run.final_l2"),
            "trajectory.csv final l2 differs from run.final_l2")


def _check_operator(out: Path, manifest: dict[str, str]) -> None:
    _, rows = read_table(out / "operator_check.csv", OPERATOR_HEADER)
    _expect(len(rows) == int(manifest_float(manifest, "grid.n")),
            "operator_check.csv row count differs from grid.n")
    _expect(all(abs(a - b) == d for _, a, b, d in rows),
            "operator_check.csv abs_diff disagrees with its two routes")
    _expect(max(r[3] for r in rows) == manifest_float(manifest, "operator.max_abs_diff"),
            "operator_check.csv max abs_diff differs from the manifest")


def _check_kernel(out: Path, manifest: dict[str, str]) -> None:
    _, norms = read_table(out / "kernel_norms.csv", NORMS_HEADER)
    _expect(max(r[5] for r in norms) == manifest_float(manifest, "kernel.max_semigroup_residual"),
            "kernel_norms.csv residuals differ from the manifest")
    head, shape = read_table(out / "kernel_shape.csv")
    times = manifest.get("output.kernel_times", "").split()
    _expect(head[0] == "x" and len(head) == 1 + len(times), "kernel_shape.csv columns")
    _expect(len(shape) == int(manifest_float(manifest, "kernel.grid_n")),
            "kernel_shape.csv row count differs from kernel.grid_n")


TABLE_CHECKS = {
    "evolve": _check_evolution,
    "evolve-full": _check_evolution,
    "operator-check": _check_operator,
    "kernel-report": _check_kernel,
}


def check_command(command: str, returncode: int, out: Path,
                  references: dict[str, Reference]) -> list[str]:
    """Reasons the command run fails the gate; empty when it passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        manifest = read_manifest(out / "manifest.txt")
        checks = {k: v for k, v in manifest.items() if k.startswith("check.")}
        _expect(bool(checks), "manifest has no check lines")
        failed = [k for k, v in checks.items() if v != "pass"]
        _expect(not failed, f"checks not passed: {', '.join(failed)}")
        _expect(manifest.get("result") == "pass", "manifest result is not pass")
        reasons = [
            f"{key} = {manifest_float(manifest, key)!r} outside {ref}"
            for key, ref in references.items()
            if not ref.accepts(manifest_float(manifest, key))
        ]
        TABLE_CHECKS[command](out, manifest)
    except GateError as exc:
        return [str(exc)]
    return reasons
