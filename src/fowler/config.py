"""Config-file parsing: sectioned key/value text with hard validation.

Schema (all keys optional unless noted; defaults in parentheses):

    [grid]       n (1024), length (40.0)
    [profile]    kind (constant), amplitude (1.0), width (1.0), offset (0.0),
                 speed (0.0), samples_file (for kind = sampled)
    [initial]    kind (gaussian), amplitude (0.1), width (1.0), offset (0.0),
                 mode_k (12), seed (0), file (for kind = file)
    [time]       dt (1e-3), t_end (1.0), picard_tol (1e-10; relative to the
                 step's linear prediction, absolute below norm 1),
                 picard_max (25), dealias (true), linear_only (false)
    [quadrature] z_max (length/2), z_min (1e-4), panels (48)
    [output]     stride (10), snapshots (false), kernel_times (0.1, 0.5),
                 seed (0)

Unknown sections or keys are hard errors (a typo in a tolerance key must
never silently pass), with the nearest valid key suggested.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .evolution import InitialCondition, SimConfig
from .grid import RealField, load_samples, make_grid
from .operator import QuadratureSpec
from .profiles import WaveProfile

__all__ = ["ConfigError", "RunSettings", "parse_config", "CONFIG_SCHEMA"]


class ConfigError(ValueError):
    """Invalid run configuration (missing file, unknown key, bad value)."""


CONFIG_SCHEMA = {
    "grid": ("n", "length"),
    "profile": ("kind", "amplitude", "width", "offset", "speed", "samples_file"),
    "initial": ("kind", "amplitude", "width", "offset", "mode_k", "seed", "file"),
    "time": ("dt", "t_end", "picard_tol", "picard_max", "dealias", "linear_only"),
    "quadrature": ("z_max", "z_min", "panels"),
    "output": ("stride", "snapshots", "kernel_times", "seed"),
}


@dataclass(frozen=True)
class RunSettings:
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


def _get(parser, section, key, cast, default, errors: list[str]):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return cast(raw)
    except ValueError as exc:
        errors.append(f"{section}.{key}: {exc}")
        return default


def parse_config(path: str | Path) -> RunSettings:
    """Read, validate, and default-fill a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
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

    errors: list[str] = []
    n = _get(parser, "grid", "n", int, 1024, errors)
    length = _get(parser, "grid", "length", float, 40.0, errors)

    profile_kind = _get(parser, "profile", "kind", str, "constant", errors)
    amplitude = _get(parser, "profile", "amplitude", float, 1.0, errors)
    width = _get(parser, "profile", "width", float, 1.0, errors)
    offset = _get(parser, "profile", "offset", float, 0.0, errors)
    speed = _get(parser, "profile", "speed", float, 0.0, errors)
    samples_file = _get(parser, "profile", "samples_file", str, None, errors)

    init_kind = _get(parser, "initial", "kind", str, "gaussian", errors)
    init_amplitude = _get(parser, "initial", "amplitude", float, 0.1, errors)
    init_width = _get(parser, "initial", "width", float, 1.0, errors)
    init_offset = _get(parser, "initial", "offset", float, 0.0, errors)
    mode_k = _get(parser, "initial", "mode_k", int, 12, errors)
    init_seed = _get(parser, "initial", "seed", int, 0, errors)
    init_file = _get(parser, "initial", "file", str, None, errors)

    dt = _get(parser, "time", "dt", float, 1e-3, errors)
    t_end = _get(parser, "time", "t_end", float, 1.0, errors)
    picard_tol = _get(parser, "time", "picard_tol", float, 1e-10, errors)
    picard_max = _get(parser, "time", "picard_max", int, 25, errors)
    dealias = _get(parser, "time", "dealias", bool, True, errors)
    linear_only = _get(parser, "time", "linear_only", bool, False, errors)

    z_max = _get(parser, "quadrature", "z_max", float, length / 2.0, errors)
    z_min = _get(parser, "quadrature", "z_min", float, 1e-4, errors)
    panels = _get(parser, "quadrature", "panels", int, 48, errors)

    stride = _get(parser, "output", "stride", int, 10, errors)
    snapshots = _get(parser, "output", "snapshots", bool, False, errors)
    kt_raw = _get(parser, "output", "kernel_times", str, "0.1, 0.5", errors)
    seed = _get(parser, "output", "seed", int, 0, errors)
    if errors:
        raise ConfigError("; ".join(errors))

    def fail(message: str):
        raise ConfigError(message)

    try:
        grid = make_grid(n, length)
    except ValueError as exc:
        fail(f"grid: {exc}")

    samples = None
    if profile_kind == "sampled":
        if not samples_file:
            fail("profile.samples_file is required for kind = sampled")
        try:
            samples = load_samples(samples_file, grid)
        except (OSError, ValueError) as exc:
            fail(f"profile.samples_file: {exc}")
    try:
        profile = WaveProfile(
            kind=profile_kind, amplitude=amplitude, width=width,
            offset=offset, speed=speed, samples=samples,
        )
    except ValueError as exc:
        fail(f"profile: {exc}")

    v0 = InitialCondition(
        kind=init_kind, amplitude=init_amplitude, width=init_width,
        offset=init_offset, mode_k=mode_k, seed=init_seed, path=init_file,
    )
    try:
        v0_field = v0.build(grid)  # validates kind, file, shape, mode range, finiteness
    except (OSError, ValueError) as exc:
        fail(f"{'initial.file' if init_kind == 'file' else 'initial'}: {exc}")

    try:
        sim = SimConfig(
            grid=grid, profile=profile, v0=v0, t_end=t_end, dt=dt,
            picard_tol=picard_tol, picard_max=picard_max, dealias=dealias,
            output_stride=stride, linear_only=linear_only,
        )
    except ValueError as exc:
        # SimConfig messages start with the field name; report the config key
        name, _, rest = str(exc).partition(" ")
        key = "output.stride" if name == "output_stride" else f"time.{name}"
        fail(f"{key} {rest}")
    try:
        quadrature = QuadratureSpec(z_max=z_max, z_min=z_min, panels=panels)
    except ValueError as exc:
        fail(f"quadrature: {exc}")
    if z_max > length / 2.0 + 1e-12:
        fail("quadrature.z_max must not exceed length/2 (periodic double-count)")

    try:
        kernel_times = tuple(float(s) for s in kt_raw.replace(",", " ").split())
    except ValueError:
        fail(f"output.kernel_times must be a list of times, got {kt_raw!r}")
    if not kernel_times or not all(0 < t < math.inf for t in kernel_times):
        fail("output.kernel_times must be positive and finite")

    return RunSettings(
        sim=sim, v0_field=v0_field, quadrature=quadrature, kernel_times=kernel_times,
        snapshots=snapshots, seed=seed,
    )
