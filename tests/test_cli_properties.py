"""CLI fuzz: extreme finite config values end in an exit code with a reason,
never in a traceback or a numpy RuntimeWarning."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fowler.cli import COMMANDS, main
from fowler.config import CONFIG_SCHEMA, MAX_KERNEL_TIMES
from fowler.operator import MAX_PANELS

#: every float key of the sections a run's arithmetic reads
NUMERIC_KEYS = [f"{section}.{key}"
                for section in ("profile", "initial", "grid", "quadrature", "time")
                for key, (parse, _) in CONFIG_SCHEMA[section].items() if parse is float]
EXTREMES = st.sampled_from([1e308, -1e308, 1e154, -1e154, 1e-300, -1e-300, 0.0])
#: every integer key, with values that either run within the budget below or
#: are refused before an array is built; an n or a panels count between about
#: 2**20 and 2**60 would really be allocated, so none is drawn
INTEGER_KEYS = [f"{section}.{key}" for section, keys in CONFIG_SCHEMA.items()
                for key, (parse, _) in keys.items() if parse is int]
INTEGER_EXTREMES = st.sampled_from([0, 1, -1, 6, 7, 2**62, -2**62, MAX_PANELS, MAX_PANELS + 1])
#: kernel-time lists of one time, of the cap and of one past it, each time
#: ordinary or extreme
KERNEL_TIMES = st.sampled_from([1, MAX_KERNEL_TIMES, MAX_KERNEL_TIMES + 1]).flatmap(
    lambda k: st.lists(st.sampled_from([0.5, 1e-300, 1e308]), min_size=k, max_size=k)
).map(lambda times: ", ".join(map(repr, times)))
REASONS = {1: "config error: ", 3: "numerical fault: "}


def config_text(profile: str, initial: str, values: dict) -> str:
    """n = 64, at most three Picard iterations and two steps of dt = 1e-2, or
    of the dt set in values; zero data runs linear only."""
    sections = {"grid": {"n": 64}, "profile": {"kind": profile}, "initial": {"kind": initial},
                "time": {"dt": 1e-2, "picard_max": 3}, "quadrature": {}, "output": {}}
    if initial == "zero":
        sections["time"]["linear_only"] = "true"
    for name, value in values.items():
        section, key = name.split(".")
        sections[section][key] = value
    sections["time"].setdefault("t_end", 2.0 * sections["time"]["dt"])
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@settings(max_examples=300)
@given(command=st.sampled_from(sorted(COMMANDS)),
       profile=st.sampled_from(["constant", "tanh-front", "gaussian-bump", "sampled"]),
       initial=st.sampled_from(["gaussian", "zero", "white-noise", "mode"]),
       values=st.lists(st.one_of(st.tuples(st.sampled_from(NUMERIC_KEYS), EXTREMES),
                                 st.tuples(st.sampled_from(INTEGER_KEYS), INTEGER_EXTREMES),
                                 st.tuples(st.just("output.kernel_times"), KERNEL_TIMES)),
                       max_size=3).map(dict))
# C_phi = inf, with and without data: the bound is never nan
@example("evolve", "tanh-front", "gaussian", {"profile.amplitude": 1e308})
@example("convergence", "tanh-front", "zero", {"profile.amplitude": 1e308})
# the field's transform overflows on the Fourier route
@example("operator-check", "constant", "gaussian", {"initial.amplitude": 1e308})
# the profile's displacement speed * t overflows
@example("evolve-full", "tanh-front", "zero", {"profile.speed": 1e308, "time.dt": 1.0})
# the coarsest run's error is exactly 0
@example("convergence", "constant", "white-noise", {})
# the start term of the full equation overflows
@example("evolve-full", "constant", "gaussian", {"profile.amplitude": 1e300, "time.dt": 1e-3})
# u^2 of the bump overflows, the data's x / width divides by 0, white-noise
# samples overflow
@example("evolve", "gaussian-bump", "gaussian", {"profile.width": 1e-154})
@example("evolve", "constant", "gaussian", {"initial.width": 0.0})
@example("evolve", "constant", "white-noise", {"initial.amplitude": 1e308})
# the step table's exponential overflows
@example("evolve", "constant", "gaussian", {"time.dt": 1e3})
# the phase of a sampled profile's shift would overflow
@example("evolve", "sampled", "gaussian", {"profile.speed": 1e308, "time.dt": 0.5})
# a quadrature rule too large to allocate
@example("operator-check", "constant", "gaussian", {"quadrature.panels": 2**62})
def test_extreme_values_end_in_an_exit_code(command, profile, initial, values):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sub-stepping, band limit
        warnings.simplefilter("error", RuntimeWarning)
        if profile == "sampled":  # a Gaussian bump on the default box, one row per point
            samples = Path(tmp) / "samples.csv"
            x = -20.0 + 40.0 / 64 * np.arange(64)
            samples.write_text("".join(f"{v!r}\n" for v in np.exp(-(x**2)).tolist()))
            values = {**values, "profile.samples_file": samples}
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(profile, initial, values))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    if code in REASONS:
        assert stderr.getvalue().startswith(REASONS[code])
