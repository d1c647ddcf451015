"""Run one fowler CLI command with span tracing.

    python3 perfbench/tracer.py PREFIX COMMAND CONFIG --out DIR

Imports fowler.cli (recorded as the span `import.fowler.cli`), wraps every
public function and public method of the fowler modules and the numpy.fft
transform entry points, then calls fowler.cli.main(COMMAND CONFIG --out DIR).
The wrappers only rebind names inside this process; the package source is
untouched.  Spans (id, parent, name, start, end) stay in memory and are
written at exit to PREFIX.spans.csv; run attributes read from return values
go to PREFIX.attrs.json.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

# numpy is deliberately not imported at module level: its import belongs to
# the timed import of fowler.cli

MODULES = ("cli", "config", "diagnostics", "evolution", "grid", "kernel",
           "operator", "profiles", "reporting")
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft")
IMPORT_SPAN = "import.fowler.cli"
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "fft_n", "fft_batch")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.attrs: dict[str, float] = {}

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns, 0, 0])

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(span, args, kwargs, result)
        runs outside the span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, clock(), 0, 0, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def bump(self, key: str, value: float) -> None:
        self.attrs[key] = max(self.attrs.get(key, value), value)

    def write(self, prefix: str) -> None:
        """Write attrs, then the spans; the spans file appears complete or not at all."""
        with open(f"{prefix}.attrs.json", "w") as handle:
            json.dump(self.attrs, handle)
        with open(f"{prefix}.spans.tmp", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans)
        os.replace(f"{prefix}.spans.tmp", f"{prefix}.spans.csv")


def _fft_shape(span, args, kwargs, result) -> None:
    """Store the real-space transform length and the number of transforms."""
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    length = result.shape[axis]
    if span[2].endswith(".rfft"):
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        length = n if n is not None else args[0].shape[axis]
    span[5] = length
    span[6] = result.size // result.shape[axis]


def install(tracer: Tracer) -> None:
    import numpy.fft

    def record_trajectory(span, args, kwargs, traj) -> None:
        tracer.bump("substepping_engaged", int(traj.substepping_engaged))
        tracer.bump("picard_iters_max", max(r.picard_iters for r in traj.records))

    hooks = {"evolution.evolve": record_trajectory,
             "evolution.evolve_full": record_trajectory}
    modules = [importlib.import_module(f"fowler.{m}") for m in MODULES]
    replaced = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for method, member in list(vars(obj).items()):
                    if not method.startswith("_") and inspect.isfunction(member):
                        setattr(obj, method, tracer.wrap(f"{layer}.{attr}.{method}", member))
            elif callable(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))

    integral = modules[MODULES.index("operator")].apply_nonlocal_integral
    traced_integral = replaced[id(integral)]

    @functools.wraps(integral)
    def measured_integral(*args, **kwargs):
        tracemalloc.start()
        try:
            return traced_integral(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.bump("integral_peak_bytes", peak)

    replaced[id(integral)] = measured_integral

    # rebind every reference: `from .x import f` copies, the package
    # namespace, and dispatch tables such as cli.COMMANDS
    namespaces = [vars(importlib.import_module("fowler"))]
    for module in modules:
        namespaces.append(vars(module))
        namespaces += [v for k, v in vars(module).items()
                       if not k.startswith("__") and type(v) is dict]
    for namespace in namespaces:
        for key, obj in list(namespace.items()):
            if id(obj) in replaced:
                namespace[key] = replaced[id(obj)]

    for name in FFT_ENTRY_POINTS:
        original = getattr(numpy.fft, name)
        setattr(numpy.fft, name, tracer.wrap(f"numpy.fft.{name}", original, _fft_shape))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    cli = importlib.import_module("fowler.cli")
    tracer.add(IMPORT_SPAN, start, time.perf_counter_ns())
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
