"""Per-layer numbers from the span files of traced command runs.

A layer is one module of src/fowler (span names `<module>.<function>` or
`<module>.<Class>.<method>`), plus `fft` for the numpy.fft entry points and
`import` for the import of fowler.cli.  A span's self time is its duration
minus the durations of its direct children; calls within one process are
sequential, so children never overlap.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracer import IMPORT_SPAN, MODULES

EVOLVE_SPANS = ("evolution.evolve", "evolution.evolve_full")

# computed, not measured: flops per transform of real-space length n
# (5 n log2 n complex, half that for a real transform) and bytes as one read
# of the input plus one write of the output
COMPLEX_BYTES, REAL_BYTES = 16, 8


def fft_cost(name: str, n: int) -> tuple[float, float]:
    """(flops, bytes) of one transform of real-space length n."""
    if n < 2:
        return 0.0, 0.0
    half = n // 2 + 1
    if name.endswith(".rfft"):
        return 2.5 * n * math.log2(n), REAL_BYTES * n + COMPLEX_BYTES * half
    if name.endswith(".irfft"):
        return 2.5 * n * math.log2(n), COMPLEX_BYTES * half + REAL_BYTES * n
    return 5.0 * n * math.log2(n), 2 * COMPLEX_BYTES * n


def layer_of(name: str) -> str:
    if name == IMPORT_SPAN:
        return "import"
    if name.startswith("numpy.fft."):
        return "fft"
    return name.partition(".")[0]


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Profile:
    """Aggregate of the traced processes of one workload sample."""

    by_name: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    by_layer: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    fft_calls: int = 0
    fft_flops: float = 0.0
    fft_bytes: float = 0.0
    evolve_transforms: int = 0
    attrs: dict[str, float] = field(default_factory=dict)

    def add_process(self, prefix: Path) -> None:
        with open(f"{prefix}.spans.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        spans = [(int(i), int(p), name, int(s), int(e), int(n), int(b))
                 for i, p, name, s, e, n, b in rows]
        child_ns = [0] * len(spans)
        for _, parent, _, start, end, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        in_evolve = [False] * len(spans)
        for i, parent, name, start, end, n, batch in spans:
            duration = end - start
            layer = layer_of(name)
            stat = self.by_name[name]
            stat.calls += 1
            stat.total_ns += duration
            stat.self_ns += duration - child_ns[i]
            lstat = self.by_layer[layer]
            lstat.calls += 1
            lstat.self_ns += duration - child_ns[i]
            # layer busy time counts spans not nested in a span of the same layer
            ancestor = parent
            while ancestor >= 0 and layer_of(spans[ancestor][2]) != layer:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                lstat.total_ns += duration
            in_evolve[i] = name in EVOLVE_SPANS or (parent >= 0 and in_evolve[parent])
            if layer == "fft":
                flops, nbytes = fft_cost(name, n)
                self.fft_calls += 1
                self.fft_flops += flops * batch
                self.fft_bytes += nbytes * batch
                if in_evolve[i]:
                    self.evolve_transforms += batch
        attrs = json.loads(Path(f"{prefix}.attrs.json").read_text())
        for key, value in attrs.items():
            self.attrs[key] = max(self.attrs.get(key, value), value)

    def evolve_calls(self) -> int:
        return sum(self.by_name[n].calls for n in EVOLVE_SPANS if n in self.by_name)

    def total_s(self, name: str) -> float:
        return self.by_name[name].total_ns * 1e-9 if name in self.by_name else 0.0

    def metrics(self, steps: int) -> dict[str, float]:
        """Per-layer metrics of this sample (times summed over its processes)."""
        dt_steps = steps * self.evolve_calls()
        values = {
            "cli.import_s": self.total_s(IMPORT_SPAN),
            "config.parse_s": self.total_s("config.parse_config"),
            "kernel.norm_fit_s": self.total_s("evolution.stepping_norm_fit"),
            "kernel.grad_norms_s": self.total_s("kernel.grad_kernel_norms"),
            "grid.fft_calls": self.fft_calls,
            "grid.fft_s": self.by_layer["fft"].total_ns * 1e-9,
            "grid.fft_gflop": self.fft_flops * 1e-9,
            "grid.fft_gb": self.fft_bytes * 1e-9,
            "reporting.csv_write_s": self.total_s("reporting.CsvTable.write"),
            "evolution.ffts_per_step": self.evolve_transforms / dt_steps if dt_steps else 0.0,
            "evolution.substepping_engaged": self.attrs.get("substepping_engaged", 0),
            "evolution.picard_iters_max": self.attrs.get("picard_iters_max", 0),
            "operator.integral_peak_mb": self.attrs.get("integral_peak_bytes", 0) / 2**20,
        }
        for module in MODULES:
            values[f"{module}.self_s"] = self.by_layer[module].self_ns * 1e-9
        return values

    def named_spans(self, steps: int) -> dict[str, float]:
        """Spans of single workloads; zero where a workload bypasses them."""
        stepping_s = sum(self.total_s(name) for name in EVOLVE_SPANS)
        dt_steps = steps * self.evolve_calls()
        return {
            "evolution.stepping_s": stepping_s,
            "evolution.step_ms": 1e3 * stepping_s / dt_steps if dt_steps else 0.0,
            "operator.integral_s": self.total_s("operator.apply_nonlocal_integral"),
            "operator.fourier_s": self.total_s("operator.apply_nonlocal_fourier"),
            "kernel.semigroup_s": self.total_s("kernel.semigroup_residual"),
            "diagnostics.energy_check_s": self.total_s("diagnostics.energy_bound_check"),
        }

    def table(self, stats: dict[str, Stat]) -> list[dict]:
        rows = [{"name": name, "calls": s.calls, "total_s": s.total_ns * 1e-9,
                 "self_s": s.self_ns * 1e-9} for name, s in stats.items()]
        return sorted(rows, key=lambda r: -r["self_s"])
