"""Bit-stable CSV tables and the flat key/value run manifest.

Floats are written with 17 significant digits (round-trip safe for IEEE
doubles) and no locale dependence, so identical configs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import CONFIG_SCHEMA, ConfigError, RunSettings
from .diagnostics import K0, K1, ContractionBound, c1b_norm, contraction_time_bound, l2_norm
from .operator import A_I, ALPHA0, B_I, GAMMA_TWO_THIRDS, XI_C, XI_STAR

__all__ = ["CsvTable", "RunManifest", "format_float", "derived_constants", "picard_ratio_bound"]


def format_float(x) -> str:
    return format(float(x), ".17g")


#: CsvTable formats and writes this many rows at a time, so a table is never
#: held whole as text
ROWS_PER_BLOCK = 512


def _write_output(path: Path, pieces) -> Path:
    """Write one output file from an iterable of text pieces, in order; a
    file that cannot be written is a usage error."""
    try:
        with path.open("w") as stream:
            for piece in pieces:
                stream.write(piece)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


class CsvTable:
    """Numeric table with a fixed column layout, built from whole columns."""

    __slots__ = ("header", "columns")

    def __init__(self, header: list[str], columns: list):
        self.header = header
        self.columns = columns

    def write(self, path: str | Path) -> Path:
        columns = [np.asarray(c, dtype=float) for c in self.columns]
        if len(columns) != len(self.header):
            raise ValueError(f"{len(columns)} columns, header has {len(self.header)}")
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise ValueError(f"columns must be 1-D and of one length, got shapes "
                             f"{[c.shape for c in columns]}")
        return _write_output(Path(path), self._text(columns))

    def _text(self, columns: list[np.ndarray]):
        """The header line, then the rows ROWS_PER_BLOCK at a time."""
        yield ",".join(self.header) + "\n"
        row_format = ",".join(["%.17g"] * len(columns)) + "\n"  # same text as format_float
        for start in range(0, len(columns[0]), ROWS_PER_BLOCK):
            block = np.column_stack([c[start : start + ROWS_PER_BLOCK] for c in columns])
            yield "".join(row_format % tuple(row) for row in block.tolist())


class RunManifest:
    """Flat key/value record of one run: config echo, derived constants,
    versions and seeds, and a pass/fail line per executed check."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[str, str]] | None = None):
        self.entries = [] if entries is None else entries

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
        return _write_output(Path(path), ["".join(f"{k} = {v}\n" for k, v in self.entries)])


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


def _contraction_bound(settings: RunSettings) -> tuple[ContractionBound | None, str]:
    """The uniqueness lemma's bound for the configured data, with the norm
    budget M = 2 ||v0|| of two iterates; t_star is inf when v0 and the
    profile are both zero, which leaves nothing to contract.  The root
    steers nothing, so one that cannot be represented gives None and the
    reason instead of a fault."""
    sim = settings.sim
    u_norm = c1b_norm(sim.profile, sim.grid)
    v0_norm = l2_norm(settings.v0_field)
    if v0_norm == 0.0 and u_norm == 0.0:
        return ContractionBound(M=0.0, u_phi_norm=0.0, t_star=np.inf), ""
    try:
        return contraction_time_bound(2.0 * v0_norm, u_norm), ""
    except ArithmeticError as exc:
        return None, str(exc)


def picard_ratio_bound(settings: RunSettings, dt: float) -> float:
    """The lemma's contraction ratio at steps of dt for the bound behind
    derived.t_star; nan where t_star is nan."""
    bound, _ = _contraction_bound(settings)
    return np.nan if bound is None else bound.ratio_bound(dt)


def derived_constants(manifest: RunManifest, settings: RunSettings) -> dict:
    """Compute and record every constant derivable from the config alone."""
    sim = settings.sim
    c_phi = 0.5 * c1b_norm(sim.profile, sim.grid)
    bound, error = _contraction_bound(settings)
    if bound is None:
        manifest.add("derived.t_star_error", error)
    values = {
        "a_I": A_I,
        "b_I": B_I,
        "gamma_two_thirds": GAMMA_TWO_THIRDS,
        "alpha0": ALPHA0,
        "xi_c": XI_C,
        "xi_star": XI_STAR,
        "K0": K0,
        "K1": K1,
        "C_phi": c_phi,
        "t_star": np.nan if bound is None else bound.t_star,
    }
    for key, value in values.items():
        manifest.add(f"derived.{key}", float(value))
    manifest.add("version.package", __version__)
    manifest.add("version.numpy", np.__version__)
    manifest.add("version.python", ".".join(map(str, sys.version_info[:3])))
    manifest.add("seed", settings.seed)
    return values
