"""Config-file parsing: sectioned key/value text with hard validation.

`CONFIG_SCHEMA` declares every section, key, type and default; every key is
optional.  Each section's values go to their constructor as keywords
(`make_grid`, `WaveProfile`, `InitialCondition`, `SimConfig`,
`QuadratureSpec`), which validates them.  The run's description,
`InitialCondition` and `SimConfig`, is defined here, next to the config it
describes.  `quadrature.z_max` defaults to
length/2.  `profile.samples_file` is needed for kind = sampled and
`initial.file` for kind = file.

Unknown sections or keys are hard errors (a typo in a tolerance key must
never silently pass), with the nearest valid key suggested.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grid import Grid, RealField, load_samples, make_grid
from .operator import QuadratureSpec
from .profiles import WaveProfile
from .record import Record

__all__ = ["ConfigError", "InitialCondition", "SimConfig", "RunSettings", "parse_config",
           "CONFIG_SCHEMA"]


class ConfigError(ValueError):
    """Invalid run configuration (missing file, unknown key, bad value)."""


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _times(raw: str) -> tuple[float, ...]:
    """A list of times separated by commas or blanks."""
    try:
        return tuple(float(s) for s in raw.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"not a list of times: {raw!r}") from None


#: kernel-report holds one kernel field per time and writes each as a CSV column, so
#: memory and file grow as count x n (500 times at n = 8192: 96 MiB and 96 MB)
MAX_KERNEL_TIMES = 32

#: section -> key -> (type, default); a type parses the raw text or raises
#: ValueError
CONFIG_SCHEMA = {
    "grid": {"n": (int, 1024), "length": (float, 40.0)},
    "profile": {
        "kind": (str, "constant"), "amplitude": (float, 1.0), "width": (float, 1.0),
        "offset": (float, 0.0), "speed": (float, 0.0), "samples_file": (str, None),
    },
    "initial": {
        "kind": (str, "gaussian"), "amplitude": (float, 0.1), "width": (float, 1.0),
        "offset": (float, 0.0), "mode_k": (int, 12), "seed": (int, 0), "file": (str, None),
    },
    "time": {
        "dt": (float, 1e-3), "t_end": (float, 1.0), "picard_tol": (float, 1e-10),
        "picard_max": (int, 25), "dealias": (_boolean, True), "linear_only": (_boolean, False),
    },
    "quadrature": {"z_max": (float, None), "z_min": (float, 1e-4), "panels": (int, 48)},
    "output": {
        "stride": (int, 10), "snapshots": (_boolean, False),
        "kernel_times": (_times, (0.1, 0.5)), "seed": (int, 0),
    },
}


class InitialCondition(NamedTuple):
    """Initial perturbation: a preset shape or samples read from a file."""

    kind: str = "gaussian"
    amplitude: float = 0.1
    width: float = 1.0
    offset: float = 0.0
    mode_k: int = 12
    seed: int = 0
    file: str | None = None

    def build(self, grid: Grid) -> RealField:
        x = grid.points
        if self.kind == "zero":
            return RealField(grid, np.zeros(grid.n))
        if self.kind == "constant":
            return RealField(grid, np.full(grid.n, self.amplitude))
        if self.kind == "gaussian":
            u = (x - self.offset) / self.width
            return RealField(grid, self.amplitude * np.exp(-(u**2)))
        if self.kind == "mode":
            if abs(self.mode_k) >= grid.n // 2:
                raise ValueError(
                    f"mode_k = {self.mode_k} aliases on n = {grid.n}: need |mode_k| < {grid.n // 2}"
                )
            xi = self.mode_k / grid.length
            return RealField(grid, self.amplitude * np.cos(2 * np.pi * xi * (x - self.offset)))
        if self.kind == "white-noise":
            rng = np.random.default_rng(self.seed)
            return RealField(grid, self.amplitude * rng.standard_normal(grid.n))
        if self.kind == "file":
            if not self.file:
                raise ValueError("file initial condition requires a path")
            return load_samples(self.file, grid)
        raise ValueError(f"unknown initial condition kind {self.kind!r}")


class SimConfig(Record):
    """Complete description of one evolution run.  linear_only is a test
    hook: it drops the nonlinear term entirely."""

    __slots__ = ("grid", "profile", "v0", "t_end", "dt", "picard_tol", "picard_max",
                 "dealias", "output_stride", "linear_only")

    def __init__(self, grid: Grid, profile: WaveProfile, v0: InitialCondition,
                 t_end: float = 1.0, dt: float = 1e-3, picard_tol: float = 1e-10,
                 picard_max: int = 25, dealias: bool = True, output_stride: int = 10,
                 linear_only: bool = False):
        self._fill(grid, profile, v0, t_end, dt, picard_tol, picard_max, dealias,
                   output_stride, linear_only)
        if not (self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not math.isfinite(self.profile.speed * self.t_end):
            raise ValueError(f"t_end must keep profile.speed * t_end finite, got "
                             f"{self.profile.speed} * {self.t_end}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be at least dt, got {self.t_end} < {self.dt}")
        if not (0 < self.picard_tol <= 1e-2):
            raise ValueError(f"picard_tol must lie in (0, 1e-2], got {self.picard_tol}")
        if self.picard_max < 1:
            raise ValueError(f"picard_max must be >= 1, got {self.picard_max}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        # beyond 2**53 steps, step indices and step times are no longer exact
        # floats; a step count that large would also never finish
        if not self.t_end / self.dt <= 2**53:
            raise ValueError(f"dt must leave a finite step count of at most 2**53, got "
                             f"t_end / dt = {self.t_end} / {self.dt}")
        if abs(self.steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end must be a whole number of dt steps, got {self.t_end} "
                             f"= {self.t_end / self.dt:.12g} * {self.dt}")

    @property
    def steps(self) -> int:
        """Number of dt steps from 0 to t_end."""
        return round(self.t_end / self.dt)


class RunSettings(NamedTuple):
    """A SimConfig plus the I/O options that do not affect the dynamics, and
    the initial field built once from sim.v0 for every consumer."""

    sim: SimConfig
    v0_field: RealField
    quadrature: QuadratureSpec
    kernel_times: tuple[float, ...]
    snapshots: bool
    seed: int


def _suggest(name: str, candidates) -> str:
    import difflib  # only on the error path: keeps it out of every start-up

    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _read_values(parser: configparser.ConfigParser) -> dict[str, dict]:
    """Every schema key, parsed from the file or defaulted."""
    values: dict[str, dict] = {}
    errors: list[str] = []
    for section, keys in CONFIG_SCHEMA.items():
        values[section] = {}
        for key, (parse, default) in keys.items():
            values[section][key] = default
            if parser.has_option(section, key):
                try:
                    values[section][key] = parse(parser.get(section, key))
                except ValueError as exc:
                    errors.append(f"{section}.{key}: {exc}")
    if errors:
        raise ConfigError("; ".join(errors))
    return values


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), reporting a ValueError or OSError it raises as
    a ConfigError for the config section or key where."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(path: str | Path) -> RunSettings:
    """Read, validate, and default-fill a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    problems: list[str] = []
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            problems.append(
                f"unknown section [{section}]{_suggest(section, CONFIG_SCHEMA)}"
            )
            continue
        for key in parser.options(section):
            if key not in CONFIG_SCHEMA[section]:
                problems.append(
                    f"unknown key {section}.{key}"
                    f"{_suggest(key, CONFIG_SCHEMA[section])}"
                )
    if problems:
        raise ConfigError("; ".join(problems))

    values = _read_values(parser)
    samples_file = values["profile"].pop("samples_file")
    stride = values["output"].pop("stride")

    grid = _build("grid", make_grid, **values["grid"])
    samples = None
    if values["profile"]["kind"] == "sampled":
        if not samples_file:
            raise ConfigError("profile.samples_file is required for kind = sampled")
        samples = _build("profile.samples_file", load_samples, samples_file, grid)
    profile = _build("profile", WaveProfile, **values["profile"], samples=samples)
    v0 = InitialCondition(**values["initial"])
    # build validates kind, file, shape, mode range, finiteness
    v0_field = _build("initial.file" if v0.kind == "file" else "initial", v0.build, grid)

    try:
        sim = SimConfig(grid=grid, profile=profile, v0=v0, output_stride=stride, **values["time"])
    except ValueError as exc:
        # SimConfig messages start with the field name; report the config key
        name, _, rest = str(exc).partition(" ")
        key = "output.stride" if name == "output_stride" else f"time.{name}"
        raise ConfigError(f"{key} {rest}") from exc
    if values["quadrature"]["z_max"] is None:
        values["quadrature"]["z_max"] = grid.length / 2.0
    quadrature = _build("quadrature", QuadratureSpec, **values["quadrature"])
    if quadrature.z_max > grid.length / 2.0 + 1e-12:
        raise ConfigError("quadrature.z_max must not exceed length/2 (periodic double-count)")

    kernel_times = values["output"]["kernel_times"]
    if not kernel_times or not all(0 < t < math.inf for t in kernel_times):
        raise ConfigError("output.kernel_times must be positive and finite")
    if len(kernel_times) > MAX_KERNEL_TIMES:
        raise ConfigError(f"output.kernel_times must hold at most {MAX_KERNEL_TIMES} times, "
                          f"got {len(kernel_times)}")

    return RunSettings(sim=sim, v0_field=v0_field, quadrature=quadrature, **values["output"])
