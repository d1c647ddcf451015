"""Config parsing contract, CLI exit codes, and bit-stable outputs."""

import gc
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fowler
from fowler.cli import COMMANDS, main
from fowler.config import CONFIG_SCHEMA, ConfigError, parse_config
from fowler.diagnostics import c1b_norm, contraction_time_bound, l2_norm
from fowler.evolution import RHO_HISTORY
from fowler.reporting import RunManifest, echo_config


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


def test_undecodable_config_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"[initial]\nkind = caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot parse"):
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


def _readme_ini_block():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)


def _echo(settings):
    manifest = RunManifest()
    echo_config(manifest, settings)
    return manifest.entries


def test_readme_config_block_states_the_defaults(tmp_path):
    documented = parse_config(write_cfg(tmp_path, _readme_ini_block(), "readme.cfg"))
    defaults = parse_config(write_cfg(tmp_path, "", "empty.cfg"))
    assert documented.sim == defaults.sim
    assert _echo(documented) == _echo(defaults)


# --- CLI exit-code contract ---------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command", "x.cfg"]) == 1
    assert main(["evolve"]) == 1
    assert main(["evolve", "x.cfg", "--no-such-option"]) == 1


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["evolve", "--help"]])
def test_help_exits_0(capsys, argv):
    # one parser: its help names every command with its docstring
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: fowler ")
    for name, func in COMMANDS.items():
        assert f"  {name} " in text and func.__doc__ in text


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
        ("[grid]\nn = 64\nlength = 1e-308\n\n[quadrature]\nz_min = 1e-320\n",
         "grid: length 1e-308 is too small for n = 64"),
        ("[initial]\namplitude = nan\n", "initial: field values must be finite"),
        ("[grid]\nn = 64\n\n[initial]\nkind = mode\nmode_k = -32\n", "mode_k = -32 aliases"),
        ("[profile]\nkind = tanh-front\nspeed = inf\n", "speed must be finite"),
        ("[output]\nkernel_times = 0.1, inf\n", "kernel_times must be positive and finite"),
        ("[time]\ndt = 0.1\nt_end = 0.05\n", "time.t_end must be at least dt"),
        ("[time]\npicard_max = 0\n", "time.picard_max must be >= 1"),
        ("[output]\nstride = 0\n", "output.stride must be >= 1"),
        ("[time]\ndealias = maybe\n", "time.dealias: not a boolean: 'maybe'"),
        ("[output]\nkernel_times = 0.1, abc\n", "output.kernel_times: not a list of times"),
        ("[output]\nkernel_times = " + ", ".join(["0.1"] * 33) + "\n",
         "output.kernel_times must hold at most 32 times, got 33"),
        ("[initial]\nkind = sawtooth\n", "unknown initial condition kind 'sawtooth'"),
        ("[initial]\nkind = file\n", "initial.file: file initial condition requires a path"),
        ("[profile]\nkind = sampled\n", "profile.samples_file is required for kind = sampled"),
        ("[quadrature]\npanels = 4\n", "panels must be at least 16, got 4"),
        ("[quadrature]\npanels = 4611686018427387904\n",
         "quadrature: panels must be at most 4096, got 4611686018427387904"),
        ("[time]\ndt = 1e-320\n", "time.dt must leave a finite step count"),
        ("[grid]\nn = 8\n\n[initial]\nkind = zero\n\n[time]\ndt = 1e-300\n",
         "time.dt must leave a finite step count of at most 2**53"),
        ("[time]\ndt = 0.3\nt_end = 0.5\n", "time.t_end must be a whole number of dt steps"),
    ],
)
def test_non_finite_or_aliased_config_exits_1(tmp_path, capsys, text, reason):
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["manifest.txt", "trajectory.csv"])
def test_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_cfg(tmp_path, "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-2\n")
    assert main(["evolve", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: Is a directory")
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["profile.samples_file", "initial.file"])
@pytest.mark.parametrize(
    "content, reason",
    [
        ("x,v\n0,1\n", "could not convert"),
        ("0,1\n1\n", "number of columns changed"),
        ("1\n" * 500 + "nan\n" + "1\n" * 523, "field values must be finite"),
        ("", "has 0 rows, grid has 1024 points"),
    ],
    ids=["non-numeric", "ragged", "non-finite", "empty"],
)
@pytest.mark.filterwarnings("error")  # the reason is the only output
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


@pytest.mark.parametrize("target", ["F", "F/sub"], ids=["file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, capsys, target):
    (tmp_path / "F").write_text("")
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["evolve", cfg, "--out", str(tmp_path / target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {tmp_path / target}: cannot create it")
    assert "Traceback" not in err


def test_unresolvable_kernel_times_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[output]\nkernel_times = 1e-9\n")
    assert main(["kernel-report", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot resolve kernels at t = 1e-09")


def test_zero_data_on_zero_profile_has_no_contraction_bound(tmp_path):
    # nothing to contract: t_star is infinite and the run stays at zero
    cfg = write_cfg(
        tmp_path,
        "[profile]\nkind = constant\namplitude = 0\n\n[initial]\nkind = zero\n\n"
        "[time]\nt_end = 0.01\n",
    )
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["derived.t_star"] == "inf"
    assert float(manifest["run.final_l2"]) == 0.0


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


@pytest.mark.parametrize("kind", ["tanh-front", "sampled"])
def test_evolve_computes_c1b_norm_once_per_run(tmp_path, monkeypatch, kind):
    # the derived constants and the stepping loop share the profile's C^1_b
    # norm, a sampled profile's too: its samples hash by identity
    from fowler import diagnostics

    diagnostics.c1b_norm.cache_clear()  # an earlier run may have left it
    calls = _count_calls(monkeypatch, "sup_values")
    text = TANH_SHORT
    if kind == "sampled":
        data = tmp_path / "profile.csv"
        np.savetxt(data, np.exp(-np.linspace(-20.0, 20.0, 1024, endpoint=False) ** 2))
        text = text.replace("kind = tanh-front", f"kind = sampled\nsamples_file = {data}")
    cfg = write_cfg(tmp_path, text)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_moving_profile_sampled_once_per_step_time(tmp_path, monkeypatch):
    # 100 steps need 101 distinct times: the end of one step and the start
    # of the next are the same float, and the start term is carried over;
    # the C^1_b norm reads the samples at t = 0 once more
    from fowler import diagnostics

    diagnostics.c1b_norm.cache_clear()  # an earlier run may have left it
    calls = _count_calls(monkeypatch, "evaluate")
    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 512\n\n"
        "[profile]\nkind = gaussian-bump\nspeed = 1.3\n\n"
        "[time]\nt_end = 0.2\ndt = 2e-3\n",
    )
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 102


@pytest.mark.parametrize("command", ["evolve", "operator-check"])
def test_initial_condition_built_once_per_command(tmp_path, monkeypatch, command):
    from fowler.config import InitialCondition

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
    # one Picard iteration never reaches the tolerance, however finely dt is
    # cut (the exponential-Euler seed meets it on amplitude 1 at 512 pieces)
    from fowler.evolution import MAX_SUBSTEPS

    cfg = write_cfg(
        tmp_path,
        "[grid]\nn = 256\n\n[initial]\namplitude = 10.0\n\n"
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


def test_kernel_overflow_is_a_numerical_fault(tmp_path, capsys):
    # e^{alpha0 t} overflows a double past t = 391
    cfg = write_cfg(tmp_path, "[grid]\nn = 256\n\n[output]\nkernel_times = 400\n")
    out = tmp_path / "out"
    assert main(["kernel-report", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical fault: kernel K(t = 400) is not finite")
    assert "Traceback" not in err
    manifest = _manifest(out)
    assert manifest["error"].startswith("kernel K(t = 400)")
    assert manifest["result"] == "numerical-fault"
    cfg = write_cfg(tmp_path, "[grid]\nn = 256\n\n[output]\nkernel_times = 0.5\n")
    assert main(["kernel-report", cfg, "--out", str(tmp_path / "finite")]) == 0


@pytest.mark.parametrize(
    "command", ["operator-check", "kernel-report", "evolve", "evolve-full", "convergence"]
)
def test_contraction_root_underflow_is_recorded_not_raised(tmp_path, capsys, command):
    # C^1_b norm 1e300: t_star underflows to 0, and its residual check fails.
    # t_star steers nothing, so every command records nan and the reason
    # and runs; the checks that need no stepping pass, and stepping on such
    # a profile faults on its own evidence
    cfg = write_cfg(tmp_path, "[grid]\nn = 256\n\n[profile]\nkind = gaussian-bump\namplitude = 1e300\n")
    out = tmp_path / "out"
    stepping = command in ("evolve", "evolve-full", "convergence")
    assert main([command, cfg, "--out", str(out)]) == (3 if stepping else 0)
    err = capsys.readouterr().err
    assert "contraction root" not in err and "Traceback" not in err
    manifest = _manifest(out)
    assert manifest["derived.t_star"] == "nan"
    assert manifest["derived.t_star_error"] == "contraction root lost precision: residual 1.00e+00"
    assert manifest["result"] == ("numerical-fault" if stepping else "pass")


@pytest.mark.parametrize("text, residual", [
    ("[profile]\namplitude = 1e200\n", "1.00e+00"),  # y^4 underflows
    ("[profile]\nkind = gaussian-bump\namplitude = 1e200\n", "1.00e+00"),
    ("[initial]\namplitude = 1e300\n", "nan"),  # the data's norm overflows
], ids=["constant-1e200", "bump-1e200", "initial-1e300"])
@pytest.mark.filterwarnings("ignore:apply_nonlocal_fourier:UserWarning")
def test_unrepresentable_contraction_root_is_nan_in_the_manifest(tmp_path, text, residual):
    # operator-check never steps: an unrepresentable t_star is recorded as
    # nan with its reason, never as a fault or as t_star = 0
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n" + text)
    out = tmp_path / "out"
    assert main(["operator-check", cfg, "--out", str(out)]) != 3
    manifest = _manifest(out)
    assert manifest["derived.t_star"] == "nan"
    reason = f"contraction root lost precision: residual {residual}"
    assert manifest["derived.t_star_error"] == reason


@pytest.mark.parametrize("command, text, code, reason", [
    ("evolve", "[grid]\nn = 256\n\n[profile]\nkind = gaussian-bump\namplitude = 1e300\n",
     3, "numerical fault: non-finite Picard iterate"),
    ("operator-check", "[grid]\nn = 64\n\n[profile]\nkind = tanh-front\nwidth = 1e-300\n", 0, ""),
    ("operator-check", MINIMAL + "\n[quadrature]\nz_min = 1e-30\n", 0, ""),
    ("operator-check", MINIMAL + "\n[quadrature]\nz_min = 1e-300\n",
     3, "numerical fault: integral route produced non-finite values"),
], ids=["bump-1e300", "tanh-width-1e-300", "z_min-1e-30", "z_min-1e-300"])
@pytest.mark.filterwarnings("ignore:apply_nonlocal_fourier:UserWarning")
def test_extreme_values_raise_no_floating_point_warning(tmp_path, capsys, command, text, code,
                                                        reason):
    # overflow on the way to a right answer or to a detected fault is the
    # program's to handle: numpy's RuntimeWarnings must not reach the user
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(reason) and err.count("\n") == (1 if reason else 0)


#: C^1_b norm inf: the rate alpha0 + C_phi is inf
INF_C_PHI = ("[grid]\nn = 64\n\n[profile]\nkind = tanh-front\namplitude = 1e308\n\n"
             "[time]\ndt = 1e-2\nt_end = 2e-2\n")


@pytest.mark.parametrize("command", ["evolve", "convergence"])
@pytest.mark.parametrize("text, code", [
    (INF_C_PHI, 3),  # the coupling to a 1e308 profile overflows Picard
    (INF_C_PHI + "linear_only = true\n\n[initial]\nkind = zero\n", 0),  # inf * 0 at t = 0.02
], ids=["gaussian", "zero-linear"])
def test_infinite_c_phi_gives_a_bound_not_nan(tmp_path, capsys, command, text, code):
    # the bound is ||v0|| at t = 0 and +inf where e^{inf t} ||v0|| is no
    # number, never a nan record
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and "non-finite entries" not in err
    if code == 0 and command == "evolve":
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["0", "inf"]


@pytest.mark.filterwarnings("ignore:apply_nonlocal_fourier:UserWarning")
def test_operator_check_non_finite_fourier_route_is_a_numerical_fault(tmp_path, capsys):
    # the field's transform overflows, as the integral route's does
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[initial]\namplitude = 1e308\n")
    out = tmp_path / "out"
    assert main(["operator-check", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical fault: Fourier route produced non-finite values\n"
    assert _manifest(out)["result"] == "numerical-fault"


@pytest.mark.parametrize("command", ["evolve", "evolve-full", "convergence"])
def test_profile_displacement_overflow_exits_1(tmp_path, capsys, command):
    # speed * t overflows by t = 2: the wrapped profile would be nan
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[profile]\nkind = tanh-front\nspeed = 1e308\n\n"
                              "[initial]\nkind = zero\n\n[time]\nt_end = 2\ndt = 1\n")
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: time.t_end must keep profile.speed * t_end finite")


def test_convergence_order_from_a_zero_error_is_nan(tmp_path, capsys):
    # zero data stays exactly 0 on every run, so every error is 0 and has
    # no order against the next
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[initial]\nkind = zero\n\n"
                              "[time]\ndt = 1e-2\nt_end = 4e-2\n")
    out = tmp_path / "out"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert [row.split(",")[1:] for row in rows[1:]] == [["0", "nan"]] * 3


@pytest.mark.filterwarnings("ignore:sub-stepping engaged:UserWarning")
def test_convergence_refuses_split_runs(tmp_path, capsys):
    # three Picard iterations are too few for steps of dt = 1e-2 on white
    # noise: the 4 dt, 2 dt and dt runs are all cut to the reference's own
    # step dt/8, so their errors measure no order in dt
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[initial]\nkind = white-noise\n\n"
                              "[time]\ndt = 1e-2\nt_end = 2e-2\npicard_max = 3\n")
    out = tmp_path / "out"
    assert main(["convergence", cfg, "--out", str(out)]) == 1
    reason = ("convergence needs whole steps, but step control split its runs "
              "(max_substeps 1 32 16 8 at dt/8, 4 dt, 2 dt, dt = 0.01), so their errors "
              "measure no order in dt; choose a smaller time.dt")
    assert capsys.readouterr().err == f"config error: {reason}\n"
    manifest = _manifest(out)
    assert manifest["convergence.max_substeps"] == "1 32 16 8"
    assert manifest["error"] == reason and manifest["result"] == "config-error"
    assert not (out / "convergence.csv").exists()


def test_sampled_profile_displacement_past_the_phase_range_runs(tmp_path, capsys):
    # 2 pi xi c t overflows a double for c t = 1e308 although c t does not:
    # the shift is wrapped into the box first, as the analytic kinds' is
    x = -20.0 + 40.0 / 64 * np.arange(64)
    samples = tmp_path / "samples.csv"
    samples.write_text("".join(f"{v!r}\n" for v in np.exp(-x**2).tolist()))
    cfg = write_cfg(tmp_path, f"[grid]\nn = 64\n\n[profile]\nkind = sampled\nspeed = 1e308\n"
                              f"samples_file = {samples}\n\n[time]\ndt = 0.5\nt_end = 1\n")
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    assert _manifest(out)["result"] == "pass"


@pytest.mark.parametrize("command", ["evolve", "evolve-full"])
def test_overflowing_energy_bound_is_no_fault(tmp_path, command):
    # C_phi = 1000: e^{(alpha0 + C_phi) t} overflows past t = 0.7, where the
    # a-priori bound saturates at inf and bounds nothing; the linear run
    # steps on and passes
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[profile]\nkind = constant\namplitude = 2000\n\n"
                              "[time]\ndt = 1e-2\nt_end = 1\nlinear_only = true\n")
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[-1].split(",")[2] == "inf" and rows[-4].split(",")[2] != "inf"
    assert _manifest(out)["result"] == "pass"


@pytest.mark.parametrize("builder", ["fowler.config.make_grid", "fowler.evolution.evolve"])
def test_unallocatable_grid_exits_1(tmp_path, monkeypatch, capsys, builder):
    # no huge array is allocated: the builder raises as numpy would
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2**60,)")

    monkeypatch.setattr(builder, unallocatable)
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["evolve", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: Unable to allocate 8.00 EiB for an array with shape (2**60,)\n"


def test_manifest_echoes_every_config_key(tmp_path, capsys):
    # each key set away from its default; the manifest value parses back to
    # the configured one, and samples_file is echoed as profile.samples
    samples = tmp_path / "samples.csv"
    np.savetxt(samples, 0.5 * np.exp(-np.linspace(-12.0, 12.0, 256, endpoint=False) ** 2))
    raw = {
        "grid": {"n": "256", "length": "24.0"},
        "profile": {"kind": "sampled", "amplitude": "0.5", "width": "2.0", "offset": "0.5",
                    "speed": "0.25", "samples_file": str(samples)},
        "initial": {"kind": "file", "amplitude": "0.2", "width": "1.5", "offset": "-1.0",
                    "mode_k": "5", "seed": "3", "file": str(samples)},
        "time": {"dt": "2e-3", "t_end": "0.5", "picard_tol": "1e-11", "picard_max": "30",
                 "dealias": "off", "linear_only": "yes"},
        "quadrature": {"z_max": "11.0", "z_min": "2e-4", "panels": "40"},
        "output": {"stride": "3", "snapshots": "on", "kernel_times": "0.05, 0.3",
                   "seed": "11"},
    }
    assert {s: set(keys) for s, keys in raw.items()} == {
        s: set(keys) for s, keys in CONFIG_SCHEMA.items()
    }
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in raw.items()
    )
    out = tmp_path / "out"
    assert main(["operator-check", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["profile.samples"] == "sampled-field"
    for section, keys in CONFIG_SCHEMA.items():
        for key, (parse, default) in keys.items():
            if key == "samples_file":
                continue
            echoed = manifest[f"{section}.{key}"]
            assert parse(echoed) == parse(raw[section][key]) != default, (section, key)


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
    # the envelope columns are t^{3/4} l2 and t^{1/2} l1 as whole arrays, the
    # expressions whose maxima are K0 and K1
    t, l1, l2 = (np.ascontiguousarray(norms[:, j]) for j in range(3))
    assert np.array_equal(norms[:, 3], t**0.75 * l2)
    assert np.array_equal(norms[:, 4], t**0.5 * l1)
    manifest = _manifest(out)
    assert float(manifest["kernel.K0"]) == norms[:, 3].max()
    assert float(manifest["kernel.K1"]) == norms[:, 4].max()


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


@pytest.mark.parametrize("command", ["evolve", "evolve-full"])
def test_evolve_reports_picard_work(tmp_path, command):
    # 50 whole steps: the seed climbs from order 1 to 4, whose steps take at
    # most two iterations, so it stays there.  The full equation runs on a
    # constant profile, a steady state of it.  The largest observed ratio
    # stays below the lemma's bound at dt for the bound behind t_star
    text = TANH_SHORT if command == "evolve" else TANH_SHORT.replace("tanh-front", "constant")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["stats.steps_by_seed_order"] == "1 1 1 47 0 0 0"
    iterations = int(manifest["stats.picard_iters_total"])
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert 50 <= iterations <= 60 and iterations >= rows[:, 4].sum()
    assert int(manifest["stats.picard_iters_max"]) == 3 >= rows[:, 4].max()
    ratio_max = float(manifest["stats.picard_ratio_max"])
    assert 0.0 < ratio_max <= RHO_HISTORY and ratio_max >= rows[:, 5].max()
    settings = parse_config(cfg)
    bound = contraction_time_bound(2.0 * l2_norm(settings.v0_field),
                                   c1b_norm(settings.sim.profile, settings.sim.grid))
    assert bound.t_star == float(manifest["derived.t_star"])
    assert float(manifest["stats.picard_ratio_bound"]) == bound.ratio_bound(1e-3) > ratio_max


@pytest.mark.parametrize("command", ["evolve", "evolve-full"])
def test_ratio_bound_is_nan_with_t_star(tmp_path, command):
    # a constant profile of 1e200: its C^1_b norm underflows t_star, so t_star
    # is nan, and so is the ratio bound beside the observed ratio, while zero
    # data on the linear equation runs and passes, with no step iterating
    cfg = write_cfg(tmp_path, "[grid]\nn = 64\n\n[profile]\namplitude = 1e200\n\n"
                              "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\n"
                              "linear_only = true\n")
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["derived.t_star"] == manifest["stats.picard_ratio_bound"] == "nan"
    assert manifest["derived.t_star_error"] == "contraction root lost precision: residual 1.00e+00"
    assert manifest["stats.picard_ratio_max"] == "0"


def test_ratio_bound_without_data_to_contract(tmp_path):
    # zero data on a zero profile: t_star is inf and the bound 0, which the
    # observed ratio of the zero fixed point meets
    cfg = write_cfg(tmp_path, "[profile]\namplitude = 0\n\n[initial]\nkind = zero\n\n"
                              "[time]\nt_end = 0.01\n")
    out = tmp_path / "out"
    assert main(["evolve", cfg, "--out", str(out)]) == 0
    manifest = _manifest(out)
    assert manifest["derived.t_star"] == "inf"
    assert manifest["stats.picard_ratio_bound"] == manifest["stats.picard_ratio_max"] == "0"
    assert manifest["stats.picard_iters_max"] == "1"


def test_snapshots_leave_the_trajectory_unchanged(tmp_path):
    # snapshots only add their own file: the trajectory is the same bytes,
    # and the manifest differs only in the echoed flag
    cfg = write_cfg(tmp_path, TANH_SHORT)
    plain, snap = tmp_path / "plain", tmp_path / "snap"
    assert main(["evolve", cfg, "--out", str(plain)]) == 0
    assert main(["evolve", cfg, "--snapshots", "--out", str(snap)]) == 0
    name = "trajectory.csv"
    assert (plain / name).read_bytes() == (snap / name).read_bytes()
    a, b = _manifest(plain), _manifest(snap)
    assert {k for k in a if a[k] != b[k]} == {"output.snapshots"}


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


def run_module(*args, launch=("-m", "fowler"), env=None):
    """`python -m fowler ARGS` (or `python LAUNCH ARGS`) in a child process
    that imports the package from where this process did, so it also runs
    from a checkout without an install.  env sets variables in the child's
    environment, or with the value None removes them."""
    package_root = os.path.dirname(os.path.dirname(fowler.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    child = dict(os.environ, PYTHONPATH=path)
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    return subprocess.run([sys.executable, *launch, *args],
                          capture_output=True, text=True, env=child)


def test_console_entry_point_runs(tmp_path):
    cfg = write_cfg(tmp_path, "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-2\n")
    proc = run_module("evolve", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "energy bound" in proc.stdout


#: a zero field, one step: the quickest passing run
ZERO_RUN = "[initial]\nkind = zero\n\n[time]\nt_end = 0.01\ndt = 1e-2\n"


@pytest.mark.parametrize("command, text, code, line", [
    ("evolve", ZERO_RUN, 0, "manifest: "),
    ("evolve", "[time]\ndt = 0\n", 1, "config error: "),
    ("operator-check", MINIMAL + "\n[quadrature]\nz_min = 0.5\npanels = 16\n", 2, "manifest: "),
    ("evolve", "[initial]\namplitude = 1e160\n\n[time]\nt_end = 0.01\ndt = 1e-3\n", 3,
     "numerical fault: "),
], ids=["pass", "config-error", "check-failed", "numerical-fault"])
def test_launch_path_exits_with_every_line_written(tmp_path, capsys, command, text, code, line):
    # the launch path freezes the heap before it exits: a child run must
    # still exit with main's code and flush every line main printed, here
    # to pipes, where the streams are block-buffered until shutdown
    cfg = write_cfg(tmp_path, text)
    argv = [command, cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == code
    printed = capsys.readouterr()
    proc = run_module(*argv)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr) == (printed.out, printed.err)
    assert line in (printed.err if code in (1, 3) else printed.out)


@pytest.mark.parametrize("route", [
    "import runpy; runpy.run_module('fowler', run_name='__main__')",  # python -m fowler
    "import sys; from fowler.__main__ import run; sys.exit(run())",  # the fowler script
], ids=["module", "script"])
def test_both_launch_routes_freeze_the_heap_before_exit(tmp_path, route):
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n" + route)
    proc = run_module("evolve", write_cfg(tmp_path, ZERO_RUN), "--out", str(tmp_path / "o"),
                      launch=("-c", code))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [f"manifest: {tmp_path / 'o' / 'manifest.txt'}",
                                             "frozen: True"]


#: a `python -m fowler` child that prints, at exit, the package modules it
#: loaded and the OPENBLAS_NUM_THREADS it ran with, one line each
REPORTING_LAUNCH = (
    "import atexit, os, sys\n"
    "atexit.register(lambda: print(sorted(m for m in sys.modules if m.startswith('fowler.')),"
    " os.environ.get('OPENBLAS_NUM_THREADS'), sep='\\n'))\n"
    "import runpy; runpy.run_module('fowler', run_name='__main__')"
)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_launch_loads_only_its_commands_modules(tmp_path, command):
    # the checks never import the stepper, the stepping commands never
    # import the kernel, and BLAS gets one thread unless the caller chose
    proc = run_module(command, write_cfg(tmp_path, ZERO_RUN), "--out", str(tmp_path / "o"),
                      launch=("-c", REPORTING_LAUNCH), env={"OPENBLAS_NUM_THREADS": None})
    assert proc.returncode == 0, proc.stderr
    modules, threads = proc.stdout.splitlines()[-2:]
    stepping = command in ("evolve", "evolve-full", "convergence")
    assert ("'fowler.evolution'" in modules) == stepping, modules
    assert ("'fowler.kernel'" in modules) == (command == "kernel-report"), modules
    assert threads == "1"


def test_launch_keeps_the_callers_blas_thread_count(tmp_path):
    proc = run_module("evolve", write_cfg(tmp_path, ZERO_RUN), "--out", str(tmp_path / "o"),
                      launch=("-c", REPORTING_LAUNCH), env={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2"


def test_importing_the_package_loads_no_numpy():
    # so the launch path sets the BLAS thread count before numpy loads, and
    # fowler.cli loads no other package module
    code = ("import sys, fowler; print('numpy' in sys.modules); import fowler.cli;"
            " print(sorted(m for m in sys.modules if m.startswith('fowler')))")
    proc = run_module(launch=("-c", code))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "['fowler', 'fowler.cli']"]


def test_package_namespace_keeps_its_public_names():
    # each resolves, on first use, to the name in the module that defines it
    assert fowler.evolve is sys.modules["fowler.evolution"].evolve
    assert fowler.SimConfig is sys.modules["fowler.config"].SimConfig
    assert fowler.K0 is sys.modules["fowler.diagnostics"].K0
    assert len(fowler.__all__) == 40 and all(hasattr(fowler, name) for name in fowler.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fowler.no_such_name


def test_script_entry_is_the_launch_path():
    pyproject = Path(fowler.__file__).parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not run from a checkout")
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"fowler": "fowler.__main__:run"}


def test_main_in_process_freezes_nothing(tmp_path):
    # only the launch path freezes: in process, main's garbage stays
    # collectable however often it runs
    cfg = write_cfg(tmp_path, ZERO_RUN)
    before = gc.get_freeze_count()
    for command in ("evolve", "operator-check"):
        assert main([command, cfg, "--out", str(tmp_path / command)]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("text", [
    # the Gaussian's (x/width)^2 overflows to inf; exp(-inf) = 0 is the
    # right sample
    "[grid]\nlength = 1e300\n",
    # the initial norm overflows: the run stops before any nonlinear term
    "[initial]\namplitude = 1e160\n\n[time]\nt_end = 0.01\ndt = 1e-3\n",
], ids=["huge-length", "huge-amplitude"])
def test_numerical_fault_warns_nothing_before_its_message(tmp_path, text):
    # numpy's floating-point warnings must not reach stderr ahead of the
    # run's own exit-3 message
    cfg = write_cfg(tmp_path, text)
    proc = run_module("evolve", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "numerical fault" in proc.stderr
