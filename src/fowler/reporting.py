"""Bit-stable CSV tables and the flat key/value run manifest.

Floats are written with 17 significant digits (round-trip safe for IEEE
doubles) and no locale dependence, so identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_SCHEMA, ConfigError, RunSettings
from .diagnostics import c1b_norm, l2_norm
from .evolution import STEP_CONSTANTS, contraction_time_bound
from .operator import symbol_coefficients, unstable_band

__all__ = ["CsvTable", "RunManifest", "format_float", "derived_constants"]


def format_float(x) -> str:
    return format(float(x), ".17g")


def _write_output(path: Path, text: str) -> Path:
    """Write one output file; one that cannot be written is a usage error."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


@dataclass
class CsvTable:
    """Numeric table with a fixed column layout, built from whole columns."""

    header: list[str]
    columns: list

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        rows = np.column_stack([np.asarray(c, dtype=float) for c in self.columns])
        if rows.shape[1] != len(self.header):
            raise ValueError(f"{rows.shape[1]} columns, header has {len(self.header)}")
        row_format = ",".join(["%.17g"] * len(self.header))  # same text as format_float
        lines = [",".join(self.header)] + [row_format % tuple(row) for row in rows.tolist()]
        return _write_output(path, "\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Flat key/value record of one run: config echo, derived constants,
    versions and seeds, and a pass/fail line per executed check."""

    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = format_float(value)
        else:
            text = str(value)
        self.entries.append((key, text))

    def check(self, name: str, passed: bool, label: str, detail: str = "") -> None:
        """Record check.<name> and print its [PASS]/[FAIL] line."""
        self.add(f"check.{name}", "pass" if passed else "FAIL")
        print(f"[{'PASS' if passed else 'FAIL'}] {label}" + (f": {detail}" if detail else ""))

    def write(self, path: str | Path) -> Path:
        return _write_output(Path(path), "".join(f"{k} = {v}\n" for k, v in self.entries))


def echo_config(manifest: RunManifest, settings: RunSettings) -> None:
    """Echo every CONFIG_SCHEMA key with the value the run resolved; a
    profile's samples are echoed by name, an unset file is left out."""
    sim = settings.sim
    sources = {"grid": sim.grid, "profile": sim.profile, "initial": sim.v0,
               "time": sim, "quadrature": settings.quadrature, "output": settings}
    for section, keys in CONFIG_SCHEMA.items():
        for key, (parse, _) in keys.items():
            if key == "samples_file":
                if sim.profile.kind == "sampled":
                    manifest.add("profile.samples", "sampled-field")
                continue
            value = sim.output_stride if key == "stride" else getattr(sources[section], key)
            if value is None or value == "":
                continue
            if parse is float:
                value = float(value)
            elif isinstance(value, tuple):
                value = " ".join(map(format_float, value))
            manifest.add(f"{section}.{key}", value)


def derived_constants(manifest: RunManifest, settings: RunSettings) -> dict:
    """Compute and record every constant derivable from the config alone."""
    coeffs = symbol_coefficients()
    xi_c, xi_star, alpha0 = unstable_band()
    sim = settings.sim
    u_norm = c1b_norm(sim.profile, sim.grid)
    c_phi = 0.5 * u_norm
    v0_norm = l2_norm(settings.v0_field)
    t_star = np.inf
    if v0_norm > 0.0 or u_norm > 0.0:
        try:
            t_star = contraction_time_bound(2.0 * v0_norm, STEP_CONSTANTS, u_norm).t_star
        except ArithmeticError as exc:  # t_star steers nothing: record nan and why
            t_star = np.nan
            manifest.add("derived.t_star_error", str(exc))
    values = {
        "a_I": coeffs.a_I,
        "b_I": coeffs.b_I,
        "gamma_two_thirds": coeffs.gamma_two_thirds,
        "alpha0": alpha0,
        "xi_c": xi_c,
        "xi_star": xi_star,
        "K0": STEP_CONSTANTS.K0,
        "K1": STEP_CONSTANTS.K1,
        "C_phi": c_phi,
        "t_star": t_star,
    }
    for key, value in values.items():
        manifest.add(f"derived.{key}", float(value))
    manifest.add("version.package", __version__)
    manifest.add("version.numpy", np.__version__)
    manifest.add("version.python", ".".join(map(str, sys.version_info[:3])))
    manifest.add("seed", settings.seed)
    return values
