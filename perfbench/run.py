"""Benchmark of the fowler command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is taken from src/ as it
stands, with no build or install step.  The seed generates the workload's
config (workloads.py); the program only ever sees that config file.

One workload sample runs the workload's CLI commands one after another, each
in a fresh `python -m fowler` process, and passes every command run through
the correctness gate (gate.py).  Only one program process runs at a time.
Samples repeat until S seconds are spent, with at least MIN_SAMPLES of them.

--trace 0  alternates set-up probes (setup_probe.py) with untraced samples,
           each between two runs of calibrate.py, and reports the end-to-end
           metrics.  The host's speed drifts by up to 1.6x over minutes, so
           every timed run is scaled by CAL_REFERENCE_S over the mean of the
           calibration times either side of it: end-to-end times are seconds
           at the reference speed.  The raw times are printed and recorded.
--trace 1  alternates untraced samples with traced ones (tracer.py) and
           reports the per-layer metrics, including the tracing overhead.

Every metric is printed with its unit, median, quartiles and sample count.
The last line of standard output is the JSON result.  The full record
(per-command times, failures, machine facts and, with --trace 1, the
per-layer tables and span files) goes to perfbench/out/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from layers import Profile
from tracer import MODULES
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 3
#: calibrate.py's wall time on the reference machine (2 Xeon vCPUs, Python
#: 3.11.7, numpy 2.4.6) when its host is quiet; end-to-end times are scaled
#: to that speed
CAL_REFERENCE_S = 0.4
#: a run stops starting work after this long and kills a process still
#: running at this point, so it always exits within the 180 s it is allowed
RUN_LIMIT_S = 165.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "config.parse_s": "s",
    "kernel.norm_fit_s": "s",
    "kernel.grad_norms_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_s": "s",
    "grid.fft_gflop": "GFLOP",
    "grid.fft_gb": "GB",
    "reporting.csv_write_s": "s",
    "reporting.csv_bytes": "bytes",
    "evolution.ffts_per_step": "count",
    "evolution.substepping_engaged": "count",
    "evolution.picard_iters_max": "count",
    "operator.integral_peak_mb": "MiB",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


@dataclass
class ProcessRun:
    wall_s: float
    returncode: int
    rss_mib: float
    cpu_s: float


@dataclass
class Sample:
    wall_s: float
    runs: dict[str, ProcessRun]
    failures: dict[str, list[str]]
    csv_bytes: int
    profile: Profile | None = None


@dataclass
class Record:
    samples: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    probes: list[ProcessRun] = field(default_factory=list)
    calibrations: list[ProcessRun] = field(default_factory=list)

    def operations(self) -> list[bool]:
        """Pass/fail of every command run and set-up probe."""
        ok = [not reasons for s in self.samples + self.traced for reasons in s.failures.values()]
        return ok + [p.returncode == 0 for p in self.probes]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], log: Path, env: dict[str, str], deadline: float) -> ProcessRun:
    """Run argv to completion or until the perf_counter deadline; wall time
    from spawn to exit, rusage from wait4."""
    with log.open("wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def run_sample(workload: Workload, config: Path, work: Path, env: dict[str, str],
               deadline: float, trace_prefix: Path | None = None) -> Sample:
    """One pass over the workload's commands, gated, optionally traced."""
    shutil.rmtree(work, ignore_errors=True)
    for command in workload.commands:
        (work / command).mkdir(parents=True)
    runs = {}
    start = time.perf_counter()
    for command in workload.commands:
        out = work / command
        if trace_prefix is None:
            argv = [sys.executable, "-m", "fowler"]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), f"{trace_prefix}-{command}"]
        argv += [command, str(config), "--out", str(out)]
        runs[command] = run_process(argv, work / f"{command}.log", env, deadline)
    wall = time.perf_counter() - start
    failures = {
        command: gate.check_command(command, run.returncode, work / command,
                                    workload.references.get(command, {}))
        for command, run in runs.items()
    }
    csv_bytes = sum(p.stat().st_size for p in work.glob("*/*.csv"))
    profile = None
    if trace_prefix is not None:
        profile = Profile()
        for command in workload.commands:
            if Path(f"{trace_prefix}-{command}.spans.csv").is_file():  # absent if killed
                profile.add_process(Path(f"{trace_prefix}-{command}"))
    return Sample(wall, runs, failures, csv_bytes, profile)


def measure(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> Record:
    config = run_dir / "config.ini"
    config.write_text(workload.config(seed))
    env = child_env()
    probe_argv = [sys.executable, str(HERE / "setup_probe.py"), str(config)]
    calibrate_argv = [sys.executable, str(HERE / "calibrate.py")]
    calibrate_log = run_dir / "calibrate.log"
    work = run_dir / "work"
    record = Record()
    deadline = time.perf_counter() + RUN_LIMIT_S
    # warm the page cache for the interpreter and package files; not timed
    record.probes.append(run_process(probe_argv, run_dir / "warmup.log", env, deadline))
    start = time.perf_counter()
    if not trace:
        record.calibrations.append(run_process(calibrate_argv, calibrate_log, env, deadline))
    while True:
        begin = time.perf_counter()
        if trace:
            record.samples.append(run_sample(workload, config, work, env, deadline))
            prefix = run_dir / "traces" / f"sample{len(record.traced)}"
            prefix.parent.mkdir(exist_ok=True)
            record.traced.append(run_sample(workload, config, work, env, deadline, prefix))
        else:
            # every timed run sits between two calibration runs
            record.probes.append(run_process(probe_argv, run_dir / "probe.log", env, deadline))
            record.calibrations.append(run_process(calibrate_argv, calibrate_log, env, deadline))
            record.samples.append(run_sample(workload, config, work, env, deadline))
            record.calibrations.append(run_process(calibrate_argv, calibrate_log, env, deadline))
        now = time.perf_counter()
        enough = len(record.samples) >= MIN_SAMPLES and now - start + (now - begin) > seconds
        if enough or now + (now - begin) > deadline:
            return record


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's samples, with the samples."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def cpu_s(record: Record) -> dict:
    return summary([sum(r.cpu_s for r in s.runs.values()) for s in record.samples], "s")


def end_to_end(record: Record) -> dict[str, dict]:
    """END_TO_END metrics, then each command's own time, the CPU time and the
    unscaled wall times."""
    cal = [c.wall_s for c in record.calibrations]
    speed = [CAL_REFERENCE_S / (0.5 * (a + b)) for a, b in zip(cal, cal[1:])]
    probe_speed, sample_speed = speed[0::2], speed[1::2]
    walls = [s.wall_s for s in record.samples]
    setups = [p.wall_s for p in record.probes[1:]]
    stats = {
        "wall_s": summary([w * k for w, k in zip(walls, sample_speed)], "s"),
        "setup_s": summary([w * k for w, k in zip(setups, probe_speed)], "s"),
        "peak_rss_mb": summary(
            [max(r.rss_mib for r in s.runs.values()) for s in record.samples], "MiB"),
    }
    for command in record.samples[0].runs:
        stats[command.replace("-", "_") + "_s"] = summary(
            [s.runs[command].wall_s * k for s, k in zip(record.samples, sample_speed)], "s")
    stats["cli.cpu_s"] = cpu_s(record)
    stats["raw.wall_s"] = summary(walls, "s")
    stats["raw.setup_s"] = summary(setups, "s")
    stats["raw.calibrate_s"] = summary(cal, "s")
    return stats


def per_layer(record: Record, steps: int) -> dict[str, dict]:
    """PER_LAYER metrics, then the spans only some workloads exercise."""
    traced = [s.profile.metrics(steps) for s in record.traced]
    stats = {name: summary([m[name] for m in traced], PER_LAYER[name]) for name in traced[0]}
    stats["cli.cpu_s"] = cpu_s(record)
    stats["reporting.csv_bytes"] = summary([s.csv_bytes for s in record.traced], "bytes")
    untraced = statistics.median(s.wall_s for s in record.samples)
    stats["trace.overhead_s"] = summary([s.wall_s - untraced for s in record.traced], "s")
    named = [s.profile.named_spans(steps) for s in record.traced]
    stats.update({name: summary([m[name] for m in named], "ms" if name.endswith("_ms") else "s")
                  for name in named[0]})
    return stats


def mechanism(work: Path, commands: tuple[str, ...]) -> dict[str, dict[str, str]]:
    """Step-control facts of the last sample, read from its manifests."""
    facts = {}
    for command in commands:
        try:
            manifest = gate.read_manifest(work / command / "manifest.txt")
        except gate.GateError:
            continue
        facts[command] = {k: manifest[k] for k in ("derived.t_star", "run.substepping_engaged")
                          if k in manifest}
    return facts


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "program_processes_at_once": 1,
    }


def print_table(title: str, rows: list[dict], limit: int = 15) -> None:
    print(f"{title:<44} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for row in rows[:limit]:
        print(f"  {row['name']:<42} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fowler" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}/fowler; run from a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    if any(c.returncode != 0 for c in record.calibrations):
        print(f"perfbench: calibrate.py failed, see {run_dir / 'calibrate.log'}", file=sys.stderr)
        return 1

    ops = record.operations()
    failed = ops.count(False)
    wanted = PER_LAYER if args.trace else END_TO_END
    stats = per_layer(record, workload.steps) if args.trace else end_to_end(record)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "offset": workload.offset(args.seed),
        "machine": machine_facts(),
        "calibration_reference_s": CAL_REFERENCE_S,
        "failed_frac": failed / len(ops),
        "failures": [
            {"sample": i, "command": c, "reasons": r}
            for i, s in enumerate(record.samples + record.traced)
            for c, r in s.failures.items() if r
        ],
        "mechanism": mechanism(run_dir / "work", workload.commands),
        "metrics": stats,
    }
    if args.trace:
        last = record.traced[-1].profile
        result["layers"] = last.table(last.by_layer)
        result["spans"] = last.table(last.by_name)
        result["fft_cost_model"] = ("computed, not measured: 5 n log2 n flops per complex "
                                    "transform, 2.5 n log2 n per real one; bytes = input + output")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))

    print(f"workload {workload.name}  seed {args.seed}  offset {result['offset']:.6f}  "
          f"trace {args.trace}  samples {len(record.samples)}")
    print("machine " + json.dumps(result["machine"]))
    for name, s in stats.items():
        print(f"{name:<32} {s['median']:>14.6g} {s['unit']:<6} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    if args.trace:
        print_table("layer", result["layers"])
        print_table("span", result["spans"])
        print(f"tracing overhead: {stats['trace.overhead_s']['median']:+.4f} s per sample "
              "(traced wall minus untraced median)")
    print(f"gate: {len(ops) - failed}/{len(ops)} runs pass (failed_frac {result['failed_frac']:.4g})")
    for failure in result["failures"]:
        print(f"  FAIL sample {failure['sample']} {failure['command']}: {'; '.join(failure['reasons'])}")
    print(f"record: {run_dir / 'result.json'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": stats[name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
