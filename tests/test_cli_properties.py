"""CLI fuzz: extreme finite config values end in an exit code with a reason,
never in a traceback or a numpy RuntimeWarning."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fowler.cli import COMMANDS, main
from fowler.config import CONFIG_SCHEMA

#: every float key of the sections a run's arithmetic reads
NUMERIC_KEYS = [f"{section}.{key}"
                for section in ("profile", "initial", "grid", "quadrature", "time")
                for key, (parse, _) in CONFIG_SCHEMA[section].items() if parse is float]
EXTREMES = st.sampled_from([1e308, -1e308, 1e154, -1e154, 1e-300, -1e-300, 0.0])
REASONS = {1: "config error: ", 3: "numerical fault: "}


def config_text(profile: str, initial: str, values: dict[str, float]) -> str:
    """n = 64, at most three Picard iterations and two steps of dt = 1e-2, or
    of the dt set in values; zero data runs linear only."""
    sections = {"grid": {"n": 64}, "profile": {"kind": profile}, "initial": {"kind": initial},
                "time": {"dt": 1e-2, "picard_max": 3}, "quadrature": {}}
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
       profile=st.sampled_from(["constant", "tanh-front", "gaussian-bump"]),
       initial=st.sampled_from(["gaussian", "zero", "white-noise"]),
       values=st.dictionaries(st.sampled_from(NUMERIC_KEYS), EXTREMES, max_size=3))
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
def test_extreme_values_end_in_an_exit_code(command, profile, initial, values):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sub-stepping, band limit
        warnings.simplefilter("error", RuntimeWarning)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(profile, initial, values))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    if code in REASONS:
        assert stderr.getvalue().startswith(REASONS[code])
