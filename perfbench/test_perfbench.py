"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They check that BENCHMARK.json matches the metrics and workloads the
benchmark emits, that configs follow the seed, that the correctness gate
rejects corrupted outputs, and that per-layer self times add up.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from layers import Profile  # noqa: E402
from tracer import SPAN_FIELDS  # noqa: E402
from workloads import MAX_OFFSET, WORKLOADS, Reference  # noqa: E402

from fowler.cli import main as fowler_main  # noqa: E402
from fowler.config import parse_config  # noqa: E402
from fowler.reporting import RunManifest, derived_constants  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_emits():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_configs_follow_the_seed(tmp_path):
    for workload in WORKLOADS.values():
        assert workload.config(5) == workload.config(5)
        assert workload.config(5) != workload.config(6)
        assert abs(workload.offset(6)) <= MAX_OFFSET
        path = tmp_path / f"{workload.name}.ini"
        path.write_text(workload.config(6))
        assert parse_config(path).seed == 6


@pytest.mark.parametrize("seed", [0, 1])
def test_seeds_keep_each_mechanism(tmp_path, seed):
    """Sub-stepping engages on full-substep-1k (t_star < dt) and stays off
    on evolve-tanh-16k, whatever the seed."""
    t_star = {}
    for name in ("full-substep-1k", "evolve-tanh-16k"):
        path = tmp_path / f"{name}.ini"
        path.write_text(WORKLOADS[name].config(seed))
        settings = parse_config(path)
        t_star[name] = derived_constants(RunManifest(), settings)["t_star"] / settings.sim.dt
    assert t_star["full-substep-1k"] < 0.5
    assert t_star["evolve-tanh-16k"] > 10.0


SMALL = {
    "evolve": "[grid]\nn = 256\n[profile]\nkind = tanh-front\n"
              "[time]\nt_end = 0.02\n[output]\nstride = 5\n",
    "operator-check": "[grid]\nn = 256\n",
}


@pytest.fixture(scope="module")
def good_runs(tmp_path_factory):
    """One real output directory per command, with references taken from it."""
    base = tmp_path_factory.mktemp("good")
    runs = {}
    for command, text in SMALL.items():
        cfg = base / f"{command}.ini"
        cfg.write_text(text)
        out = base / command
        assert fowler_main([command, str(cfg), "--out", str(out)]) == 0
        manifest = gate.read_manifest(out / "manifest.txt")
        key = "run.final_l2" if command == "evolve" else "operator.max_rel_diff"
        runs[command] = (out, {key: Reference(float(manifest[key]), rel_tol=1e-12)})
    return runs


def _edit_manifest(out: Path, key: str, value: str) -> None:
    path = out / "manifest.txt"
    lines = path.read_text().splitlines()
    path.write_text("".join(
        f"{key} = {value}\n" if line.startswith(f"{key} = ") else line + "\n" for line in lines))


def _edit_csv(path: Path, edit) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def _scale_last(rows, col, factor):
    rows[-1][col] = repr(float(rows[-1][col]) * factor)


CORRUPTIONS = {
    "check-line": ("evolve", lambda o: _edit_manifest(o, "check.mass_conservation", "FAIL")),
    "result-line": ("evolve", lambda o: _edit_manifest(o, "result", "FAIL")),
    "key-output": ("evolve", lambda o: _edit_manifest(o, "run.final_l2", "0.5")),
    "garbled-manifest": ("operator-check",
                         lambda o: (o / "manifest.txt").write_text("operator.max_rel_diff 1e-4\n")),
    "missing-csv": ("operator-check", lambda o: (o / "operator_check.csv").unlink()),
    "nan-in-csv": ("evolve", lambda o: _edit_csv(
        o / "trajectory.csv", lambda rows: rows[2].__setitem__(1, "nan"))),
    "dropped-row": ("evolve", lambda o: _edit_csv(o / "trajectory.csv", lambda rows: rows.pop())),
    "final-norm-csv": ("evolve", lambda o: _edit_csv(
        o / "trajectory.csv", lambda rows: _scale_last(rows, 1, 1.001))),
    "route-column": ("operator-check", lambda o: _edit_csv(
        o / "operator_check.csv", lambda rows: _scale_last(rows, 2, 1.001))),
    "header": ("operator-check", lambda o: _edit_csv(
        o / "operator_check.csv", lambda rows: rows[0].reverse())),
}


def test_gate_passes_real_outputs(good_runs):
    for command, (out, refs) in good_runs.items():
        assert gate.check_command(command, 0, out, refs) == []
        assert gate.check_command(command, 2, out, refs) == ["exit code 2"]


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_gate_rejects_corrupted_outputs(good_runs, tmp_path, corruption):
    command, corrupt = CORRUPTIONS[corruption]
    good, refs = good_runs[command]
    out = tmp_path / command
    shutil.copytree(good, out)
    corrupt(out)
    assert gate.check_command(command, 0, out, refs)


def test_reference_band():
    assert Reference(2.0, rel_tol=0.01).accepts(2.019)
    assert not Reference(2.0, rel_tol=0.01).accepts(2.021)
    assert Reference(0.0, abs_tol=1e-12).accepts(5e-13)
    assert not Reference(0.0, abs_tol=1e-12).accepts(2e-12)


def test_times_are_scaled_by_the_calibrations_around_them():
    reference = run.CAL_REFERENCE_S

    def proc(wall):
        return run.ProcessRun(wall, 0, 40.0, wall)

    record = run.Record(
        samples=[run.Sample(2.0, {"evolve": proc(2.0)}, {"evolve": []}, 0) for _ in range(2)],
        probes=[proc(9.0), proc(0.6), proc(0.6)],  # the first is the untimed warm-up
        calibrations=[proc(reference * k) for k in (1, 2, 2, 1, 1)],
    )
    stats = run.end_to_end(record)
    assert stats["wall_s"]["values"] == pytest.approx([2.0 / 2, 2.0 / 1])
    assert stats["setup_s"]["values"] == pytest.approx([0.6 / 1.5, 0.6 / 1.5])
    assert stats["raw.wall_s"]["values"] == [2.0, 2.0]
    assert stats["peak_rss_mb"]["median"] == 40.0


def _write_spans(prefix: Path, spans, attrs) -> None:
    with open(f"{prefix}.spans.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SPAN_FIELDS)
        writer.writerows(spans)
    Path(f"{prefix}.attrs.json").write_text(json.dumps(attrs))


def test_self_time_and_fft_counts(tmp_path):
    ms = 1_000_000
    spans = [
        [0, -1, "import.fowler.cli", 0, 5 * ms, 0, 0],
        [1, -1, "cli.main", 10 * ms, 100 * ms, 0, 0],
        [2, 1, "evolution.evolve", 20 * ms, 90 * ms, 0, 0],
        [3, 2, "numpy.fft.fft", 30 * ms, 40 * ms, 1024, 1],
        [4, 2, "grid.forward_transform", 50 * ms, 70 * ms, 0, 0],
        [5, 4, "numpy.fft.ifft", 55 * ms, 60 * ms, 1024, 4],
        [6, 1, "numpy.fft.rfft", 92 * ms, 93 * ms, 16, 1],
    ]
    _write_spans(tmp_path / "p", spans, {"substepping_engaged": 1, "picard_iters_max": 4})
    profile = Profile()
    profile.add_process(tmp_path / "p")
    assert profile.by_name["evolution.evolve"].self_ns == 40 * ms
    assert profile.by_name["grid.forward_transform"].self_ns == 15 * ms
    assert profile.by_name["cli.main"].self_ns == 19 * ms
    m = profile.metrics(steps=2)
    assert m["cli.import_s"] == pytest.approx(0.005)
    assert m["evolution.self_s"] == pytest.approx(0.040)
    assert m["grid.self_s"] == pytest.approx(0.015)
    assert m["grid.fft_calls"] == 3
    assert m["grid.fft_s"] == pytest.approx(0.016)
    assert m["evolution.ffts_per_step"] == 2.5  # 5 transforms under evolve, 2 steps
    assert m["grid.fft_gflop"] == pytest.approx(1e-9 * (5 * 5 * 1024 * 10 + 2.5 * 16 * 4))
    assert m["evolution.substepping_engaged"] == 1
    assert profile.named_spans(steps=2)["evolution.step_ms"] == pytest.approx(35.0)


def _result_line(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, wanted", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_emits_every_metric_with_its_unit(trace, wanted):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-8k", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = _result_line(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2]
               for line in completed.stdout.splitlines()[:-1] if "[q1" in line}
    assert {name: printed.get(name) for name in wanted} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-8k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
