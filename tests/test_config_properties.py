"""Property tests of the config layer: any values for the schema's keys
either give RunSettings or a ConfigError, never another exception."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fowler.config import CONFIG_SCHEMA, ConfigError, RunSettings, parse_config

#: a samples file with this many rows fits grid.n = SAMPLE_ROWS
SAMPLE_ROWS = 64

WORDS = ["constant", "tanh-front", "gaussian-bump", "sampled", "gaussian", "mode",
         "white-noise", "zero", "file", "true", "off", "0.1, 0.5", "samples.csv",
         "missing.csv", ""]
JUNK = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=10)
FLOATS = st.one_of(st.floats().map(repr), st.sampled_from(["1e-3", "0.5", "1", "20"]))


def _values(section, key, parse, default):
    if (section, key) == ("grid", "n"):
        typed = st.integers(-2, 256).map(str)  # no draw allocates much
    elif parse is int:
        typed = st.integers(-100, 100).map(str)
    elif parse is float:
        typed = FLOATS
    elif isinstance(default, tuple):
        typed = st.lists(FLOATS, max_size=3).map(", ".join)
    else:
        typed = st.sampled_from(WORDS)
    return st.one_of(typed, JUNK)


CONFIGS = st.fixed_dictionaries({
    section: st.fixed_dictionaries({}, optional={
        key: _values(section, key, parse, default)
        for key, (parse, default) in keys.items()
    })
    for section, keys in CONFIG_SCHEMA.items()
})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding samples.csv, made the working directory so that
    relative file names resolve there."""
    path = tmp_path_factory.mktemp("config-fuzz")
    x = np.linspace(-5.0, 5.0, SAMPLE_ROWS, endpoint=False)
    np.savetxt(path / "samples.csv", np.exp(-x**2))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(path)
        yield path


@given(config=CONFIGS)
def test_parse_config_gives_settings_or_config_error(workdir, config):
    (workdir / "run.cfg").write_text("".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in config.items()
    ))
    try:
        settings = parse_config("run.cfg")
    except ConfigError:
        return
    assert isinstance(settings, RunSettings)
    sim = settings.sim
    assert 1 <= sim.steps <= 2**53
    assert abs(sim.steps * sim.dt - sim.t_end) <= 1e-9 * sim.t_end
