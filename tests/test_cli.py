"""Config parsing contract, CLI exit codes, and bit-stable outputs."""

import subprocess
import sys

import numpy as np
import pytest

from fowler.cli import main
from fowler.config import ConfigError, parse_config


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _manifest(out):
    return dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())


MINIMAL = """
[initial]
kind = gaussian
"""

TANH_SHORT = """
[profile]
kind = tanh-front
amplitude = 1.0
width = 1.0

[initial]
kind = gaussian
amplitude = 0.1

[time]
t_end = 0.05
dt = 1e-3
"""


# --- parse_config -----------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    settings = parse_config(write_cfg(tmp_path, MINIMAL))
    sim = settings.sim
    assert sim.grid.n == 1024
    assert sim.grid.length == 40.0
    assert sim.dt == 1e-3
    assert sim.dealias is True
    assert settings.quadrature.z_max == 20.0
    assert settings.quadrature.z_min == 1e-4
    assert settings.kernel_times == (0.1, 0.5)
    assert sim.v0.kind == "gaussian"


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/nope.cfg")


def test_zero_dt_names_the_field(tmp_path):
    path = write_cfg(tmp_path, "[time]\ndt = 0\n")
    with pytest.raises(ConfigError, match="time.dt must be > 0"):
        parse_config(path)


def test_unknown_section_suggests_nearest(tmp_path):
    path = write_cfg(tmp_path, "[gird]\nn = 128\n")
    with pytest.raises(ConfigError, match="did you mean 'grid'"):
        parse_config(path)


def test_unknown_key_suggests_nearest(tmp_path):
    path = write_cfg(tmp_path, "[time]\ndtt = 1e-3\n")
    with pytest.raises(ConfigError, match="did you mean 'dt'"):
        parse_config(path)


def test_unknown_key_is_hard_error_even_with_valid_rest(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "\n[output]\nstrides = 5\n")
    with pytest.raises(ConfigError, match="output.strides"):
        parse_config(path)


def test_bad_profile_kind(tmp_path):
    path = write_cfg(tmp_path, "[profile]\nkind = sawtooth\n")
    with pytest.raises(ConfigError, match="profile.kind"):
        parse_config(path)


def test_z_max_beyond_half_box(tmp_path):
    path = write_cfg(tmp_path, "[quadrature]\nz_max = 30.0\n")
    with pytest.raises(ConfigError, match="z_max"):
        parse_config(path)


def test_picard_tol_range(tmp_path):
    path = write_cfg(tmp_path, "[time]\npicard_tol = 0.5\n")
    with pytest.raises(ConfigError, match="picard_tol"):
        parse_config(path)


def test_kernel_times_parsing(tmp_path):
    path = write_cfg(tmp_path, "[output]\nkernel_times = 0.05, 0.2, 1.0\n")
    assert parse_config(path).kernel_times == (0.05, 0.2, 1.0)


def test_initial_from_file(tmp_path):
    values = np.linspace(-1, 1, 1024)
    data_path = tmp_path / "v0.csv"
    np.savetxt(data_path, values, delimiter=",")
    cfg = write_cfg(tmp_path, f"[initial]\nkind = file\nfile = {data_path}\n")
    settings = parse_config(cfg)
    built = settings.sim.v0.build(settings.sim.grid)
    assert np.allclose(built.values, values)


def test_sampled_profile_from_file(tmp_path):
    values = np.exp(-np.linspace(-20, 20, 1024) ** 2 / 16)
    data_path = tmp_path / "profile.csv"
    np.savetxt(data_path, values, delimiter=",")
    cfg = write_cfg(
        tmp_path, f"[profile]\nkind = sampled\nsamples_file = {data_path}\n"
    )
    settings = parse_config(cfg)
    assert settings.sim.profile.kind == "sampled"
    assert np.allclose(settings.sim.profile.samples.values, values)


# --- CLI exit-code contract ---------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command", "x.cfg"]) == 1


def test_config_error_exits_1(tmp_path, capsys):
    assert main(["evolve", str(tmp_path / "missing.cfg")]) == 1
    bad = write_cfg(tmp_path, "[time]\ndt = 0\n")
    assert main(["evolve", bad]) == 1
    err = capsys.readouterr().err
    assert "time.dt" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[time]\nt_end = inf\n", "t_end must be finite"),
        ("[grid]\nlength = inf\n", "length must be positive and finite"),
        ("[initial]\namplitude = nan\n", "initial: field values must be finite"),
        ("[grid]\nn = 64\n\n[initial]\nkind = mode\nmode_k = -32\n", "mode_k = -32 aliases"),
        ("[profile]\nkind = tanh-front\nspeed = inf\n", "speed must be finite"),
        ("[output]\nkernel_times = 0.1, inf\n", "kernel_times must be positive and finite"),
        ("[time]\ndt = 0.1\nt_end = 0.05\n", "time.t_end must be at least dt"),
        ("[time]\npicard_max = 0\n", "time.picard_max must be >= 1"),
        ("[output]\nstride = 0\n", "output.stride must be >= 1"),
    ],
)
def test_non_finite_or_aliased_config_exits_1(tmp_path, capsys, text, reason):
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["profile.samples_file", "initial.file"])
@pytest.mark.parametrize(
    "content, reason",
    [
        ("x,v\n0,1\n", "could not convert"),
        ("0,1\n1\n", "number of columns changed"),
        ("1\n" * 500 + "nan\n" + "1\n" * 523, "field values must be finite"),
    ],
    ids=["non-numeric", "ragged", "non-finite"],
)
def test_bad_samples_file_is_a_config_error(tmp_path, capsys, key, content, reason):
    data = tmp_path / "samples.csv"
    data.write_text(content)
    section = key.split(".")[0]
    kind = "sampled" if section == "profile" else "file"
    cfg = write_cfg(tmp_path, f"[{section}]\nkind = {kind}\n{key.split('.')[1]} = {data}\n")
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert reason in err
    assert "Traceback" not in err


def test_evolve_full_zero_mean_passes(tmp_path, capsys):
    # a zero profile around a zero-mean mode: the contraction root's
    # quadratic coefficient is roundoff-sized, where the textbook root
    # cancelled and ended the run in an ArithmeticError
    cfg = write_cfg(
        tmp_path,
        "[profile]\nkind = constant\namplitude = 0\n\n"
        "[initial]\nkind = mode\nmode_k = 3\n\n[time]\nt_end = 0.01\n",
    )
    out = tmp_path / "out"
    assert main(["evolve-full", cfg, "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_text().endswith("result = pass\n")


def test_tiny_profile_large_data_has_a_contraction_root(tmp_path, capsys):
    # 4 a << b^2 in the contraction quadratic: derived constants must still
    # resolve, so operator-check passes; evolve splits its steps on observed
    # contraction (t_star would demand over 1e6 pieces) and passes
    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 256\n\n[profile]\namplitude = 1e-8\n\n"
        "[initial]\namplitude = 1e4\n\n[time]\nt_end = 2e-3\n",
    )
    assert main(["operator-check", cfg, "--out", str(tmp_path / "op")]) == 0
    out = tmp_path / "ev"
    with pytest.warns(UserWarning, match="sub-stepping engaged"):
        assert main(["evolve", cfg, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    manifest = _manifest(out)
    assert 1e-3 / float(manifest["derived.t_star"]) > 1e6
    assert manifest["run.substepping_engaged"] == "true"
    assert 1 < int(manifest["run.max_substeps"]) <= 1024
    assert manifest["result"] == "pass"


def _count_calls(monkeypatch, name):
    from fowler.profiles import WaveProfile

    calls = []
    original = getattr(WaveProfile, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WaveProfile, name, counted)
    return calls


def test_evolve_computes_c1b_norm_once_per_consumer(tmp_path, monkeypatch):
    # one C^1_b norm for the derived constants, one for the stepping loop
    calls = _count_calls(monkeypatch, "sup_values")
    cfg = write_cfg(tmp_path, TANH_SHORT)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2


def test_moving_profile_sampled_once_per_step_time(tmp_path, monkeypatch):
    # 100 steps need 101 distinct times: the end of one step and the start
    # of the next are the same float, so the one-entry memo serves both
    calls = _count_calls(monkeypatch, "evaluate")
    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 512\n\n"
        "[profile]\nkind = gaussian-bump\nspeed = 1.3\n\n"
        "[time]\nt_end = 0.2\ndt = 2e-3\n",
    )
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 101


@pytest.mark.parametrize("command", ["evolve", "operator-check"])
def test_initial_condition_built_once_per_command(tmp_path, monkeypatch, command):
    from fowler.evolution import InitialCondition

    calls = []
    original = InitialCondition.build
    monkeypatch.setattr(InitialCondition, "build",
                        lambda self, grid: calls.append(1) or original(self, grid))
    cfg = write_cfg(tmp_path, TANH_SHORT)
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_numerical_fault_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[initial]\nkind = gaussian\namplitude = 1e160\n\n[time]\nt_end = 0.01\ndt = 1e-3\n",
    )
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 3


def test_max_substeps_exhausted_exits_3(tmp_path, capsys):
    # one Picard iteration never reaches 1e-10, however finely dt is cut
    from fowler.evolution import MAX_SUBSTEPS

    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 256\n\n[initial]\namplitude = 1.0\n\n"
        "[time]\nt_end = 2e-3\ndt = 1e-3\npicard_max = 1\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    manifest = _manifest(out)
    assert manifest["result"] == "numerical-fault"
    assert f"step {1e-3 / MAX_SUBSTEPS:g}" in manifest["error"]


def test_large_smooth_field_meets_relative_picard_tol(tmp_path, capsys):
    # an amplitude-1e5 Gaussian: Picard increments fall below 1e-10 of the
    # field norm (1.1e5) long before they reach an absolute 1e-10
    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 256\n\n[profile]\nkind = constant\namplitude = 0\n\n"
        "[initial]\namplitude = 1e5\n\n[time]\nt_end = 2e-3\ndt = 1e-3\n",
    )
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="sub-stepping engaged"):
        assert main(["evolve", cfg, "--out", str(out)]) == 0
    assert _manifest(out)["check.energy_bound"] == "pass"


def test_operator_check_gaussian_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["operator-check", cfg, "--out", str(tmp_path / "out")]) == 0
    table = np.loadtxt(tmp_path / "out" / "operator_check.csv", delimiter=",", skiprows=1)
    assert table.shape[1] == 4


def test_operator_check_coarse_quadrature_fails(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        MINIMAL + "\n[quadrature]\nz_min = 0.5\npanels = 16\n",
    )
    assert main(["operator-check", cfg, "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_operator_check_non_finite_integral_is_a_numerical_fault(tmp_path, capsys):
    # |z|^{-7/3} overflows at z_min = 1e-300: a numerical fault with a
    # manifest, not a traceback; at z_min = 1e-30 the route stays finite and,
    # its multiplier being free of cancellation, passes the check
    cfg = write_cfg(tmp_path, MINIMAL + "\n[quadrature]\nz_min = 1e-300\n")
    out = tmp_path / "out"
    assert main(["operator-check", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical fault: integral route produced non-finite values")
    manifest = (out / "manifest.txt").read_text()
    assert "error = integral route produced non-finite values" in manifest
    assert manifest.endswith("result = numerical-fault\n")
    cfg = write_cfg(tmp_path, MINIMAL + "\n[quadrature]\nz_min = 1e-30\n")
    assert main(["operator-check", cfg, "--out", str(tmp_path / "finite")]) == 0


def test_operator_check_constant_field(tmp_path):
    cfg = write_cfg(tmp_path, "[initial]\nkind = constant\namplitude = 2.0\n")
    out = tmp_path / "out"
    assert main(["operator-check", cfg, "--out", str(out)]) == 0
    table = np.loadtxt(out / "operator_check.csv", delimiter=",", skiprows=1)
    assert np.abs(table[:, 3]).max() <= 1e-12


def test_kernel_report_defaults(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["kernel-report", cfg, "--out", str(out)]) == 0
    shape = np.loadtxt(out / "kernel_shape.csv", delimiter=",", skiprows=1)
    assert shape[:, 1].min() < 0  # K(0.1, .) has negative lobes
    assert shape[:, 2].min() < 0  # K(0.5, .) too
    norms = np.loadtxt(out / "kernel_norms.csv", delimiter=",", skiprows=1)
    assert norms[:, 5].max() <= 1e-10  # semigroup residual column


def test_evolve_writes_trajectory_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, TANH_SHORT)
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 7
    manifest = (out / "manifest.txt").read_text()
    assert "derived.alpha0 = 1.8152458474729194" in manifest
    assert "check.energy_bound = pass" in manifest
    assert not (out / "snapshots.csv").exists()


def test_evolve_snapshots_flag(tmp_path):
    cfg = write_cfg(tmp_path, TANH_SHORT)
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--snapshots", "--out", str(out)]) == 0
    snap = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
    assert snap.shape[1] == 3


def test_evolve_zero_initial(tmp_path):
    cfg = write_cfg(tmp_path, "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-3\n")
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 1] == 0.0)


def test_evolve_substepping_recorded(tmp_path):
    # amplitude 100, zero profile, dt = 1e-2: Picard contracts too weakly on
    # whole steps, so they are split; the run passes and records the split
    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 256\n\n[profile]\namplitude = 0.0\n\n"
        "[initial]\namplitude = 100.0\n\n[time]\nt_end = 0.05\ndt = 1e-2\n",
    )
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match=r"\(\d+ pieces per dt = 0.01 step\): Picard"):
        code = main(["evolve", cfg, "--out", str(out)])
    assert code == 0
    manifest = _manifest(out)
    assert manifest["run.substepping_engaged"] == "true"
    assert int(manifest["run.max_substeps"]) > 1
    assert manifest["check.energy_bound"] == "pass"


def test_evolve_full_constant_profile(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[profile]\nkind = constant\namplitude = 0.9\n\n"
        "[initial]\nkind = gaussian\namplitude = 0.2\n\n"
        "[time]\nt_end = 0.05\ndt = 1e-3\n",
    )
    out = tmp_path / "out"
    assert main(["evolve-full", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "check.mass_conservation = pass" in manifest


def test_convergence_default(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        TANH_SHORT.replace("t_end = 0.05", "t_end = 0.2").replace("dt = 1e-3", "dt = 4e-3"),
    )
    out = tmp_path / "out"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1)
    assert rows[-1, 2] == pytest.approx(2.0, abs=0.2)


def test_convergence_linear_only_hits_floor(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[initial]\nkind = gaussian\namplitude = 0.1\n\n"
        "[time]\nt_end = 0.2\ndt = 4e-3\nlinear_only = true\n",
    )
    out = tmp_path / "out"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "convergence.at_floor = true" in manifest


def test_manifest_constants_match_oracles(tmp_path):
    import math

    from scipy import optimize

    from fowler.operator import psi_symbol
    from conftest import gamma_two_thirds_oracle

    cfg = write_cfg(tmp_path, "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-2\n")
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    entries = dict(
        line.split(" = ", 1)
        for line in (out / "manifest.txt").read_text().splitlines()
    )
    gamma = gamma_two_thirds_oracle()
    a_oracle = 2.0 * math.pi**2 * gamma
    b_oracle = math.sqrt(3.0) * a_oracle
    assert float(entries["derived.a_I"]) == pytest.approx(a_oracle, rel=1e-12)
    assert float(entries["derived.b_I"]) == pytest.approx(b_oracle, rel=1e-12)
    res = optimize.minimize_scalar(
        lambda x: psi_symbol(x).real, bracket=(0.1, 0.3, 0.56),
        method="golden", options={"xtol": 1e-13},
    )
    assert float(entries["derived.alpha0"]) == pytest.approx(-res.fun, abs=1e-8)


@pytest.mark.filterwarnings("ignore:apply_nonlocal_fourier:UserWarning")
def test_byte_identical_reruns(tmp_path):
    # the second run of each command in this process reuses every cache the
    # first one warmed (symbol tables, the quadrature multiplier); white
    # noise excites every mode, and trips operator-check's band-limit warning
    cfg = write_cfg(
        tmp_path,
        "[initial]\nkind = white-noise\namplitude = 0.05\nseed = 7\n\n"
        "[time]\nt_end = 0.02\ndt = 1e-3\n\n[output]\nseed = 7\n",
    )
    outputs = {
        "evolve": ("trajectory.csv", "manifest.txt"),
        "operator-check": ("operator_check.csv", "manifest.txt"),
        "kernel-report": ("kernel_shape.csv", "kernel_norms.csv", "manifest.txt"),
    }
    for command, names in outputs.items():
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        assert main([command, cfg, "--out", str(out1)]) == 0
        assert main([command, cfg, "--out", str(out2)]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)


def test_console_entry_point_runs(tmp_path):
    cfg = write_cfg(tmp_path, "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fowler", "evolve", cfg, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "energy bound" in proc.stdout
