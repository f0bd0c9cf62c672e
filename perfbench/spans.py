"""Span recording around the calls into each powertrace layer.

Each layer's public functions are wrapped at the module attribute through
which their caller reaches them (``powertrace.harness.simulate_print``,
``powertrace.tracesim.synthesize_trace``, ...).  A wrapper appends one span
(name, start, end, parent, pass) to an in-memory list and bumps cheap
counters; everything else is derived after the traced passes end.  The
program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable

import hostspeed

# (module, attribute, span name).  ``harness`` binds most layer functions by
# name at import, so they are wrapped there; functions a layer calls within
# its own module are wrapped in that module.
_WRAP_POINTS = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "parse_gcode", "gcode.parse_gcode"),
    ("harness", "apply_attack", "attacks.apply_attack"),
    ("harness", "simulate_print", "tracesim.simulate_print"),
    ("tracesim", "plan_motion", "planner.plan_motion"),
    ("harness", "plan_motion", "planner.plan_motion"),
    ("harness", "command_start_times", "planner.command_start_times"),
    ("tracesim", "synthesize_trace", "tracesim.synthesize_trace"),
    ("harness", "align_to_trigger", "traceio.align_to_trigger"),
    ("traceio", "align_to_trigger", "traceio.align_to_trigger"),
    ("harness", "common_window", "traceio.common_window"),
    ("harness", "save_baseline", "traceio.save_baseline"),
    ("traceio", "load_trace", "traceio.load_trace"),
    ("harness", "smooth", "detect.smooth"),
    ("detect", "smooth", "detect.smooth"),
    ("harness", "build_baseline", "detect.build_baseline"),
    ("harness", "detect_print", "detect.detect_print"),
    ("detect", "detect_print", "detect.detect_print"),
    ("harness", "export_series_csv", "detect.export_series_csv"),
)

# Per-layer self time: metric name -> span names whose self time it sums.
_SELF_TIME_METRICS = {
    "tracesim.synth_s": ("tracesim.simulate_print", "tracesim.synthesize_trace"),
    "planner.plan_s": ("planner.plan_motion", "planner.command_start_times"),
    "gcode.parse_s": ("gcode.parse_gcode",),
    "attacks.apply_s": ("attacks.apply_attack",),
    "detect.smooth_s": ("detect.smooth",),
    "detect.compare_s": ("detect.detect_print",),
    "detect.baseline_s": ("detect.build_baseline",),
    "detect.export_s": ("detect.export_series_csv",),
    "traceio.read_s": ("traceio.load_trace",),
    "traceio.write_s": ("traceio.save_baseline",),
    "traceio.align_s": ("traceio.align_to_trigger", "traceio.common_window"),
    "harness.self_s": ("harness.run_experiment",),
}

_MB = 1024.0 * 1024.0

PROBE_SPAN = "bench.hostspeed_probe"


def _count(counts: Counter, name: str, args: dict[str, Any], result: Any, keep: list) -> None:
    """Work counters, taken from arguments and results in O(1) per call."""
    if name == "tracesim.synthesize_trace":
        counts["tracesim.samples"] += len(result.samples)
        counts["tracesim.segments"] += len(args["plan"].segments.get(args["motor"], ()))
    elif name == "planner.plan_motion":
        counts["planner.plan_calls"] += 1
        counts["planner.segments"] += sum(len(s) for s in result.segments.values())
        keep.append(args["program"])
    elif name == "gcode.parse_gcode":
        counts["gcode.commands"] += len(result.commands)
    elif name == "attacks.apply_attack":
        counts["attacks.mutations"] += 1
    elif name == "detect.smooth":
        counts["detect.smooth_samples"] += len(result.samples)
    elif name == "detect.export_series_csv":
        stride = args.get("stride", 1)
        counts["detect.export_rows"] += -(-len(args["series"]) // stride)
    elif name == "traceio.load_trace":
        counts["traceio.read_bytes"] += os.path.getsize(args["path"])
    elif name == "traceio.save_baseline":
        counts["traceio.write_bytes"] += os.path.getsize(args["path"])


class Tracer:
    """Wraps the layer functions of an imported powertrace package."""

    def __init__(self, package: Any) -> None:
        self._package = package
        self._patched: list[tuple[Any, str, Callable]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []  # [name, start, end, parent index, pass]
        self.counts: Counter = Counter()
        self._planned: list = []  # programs handed to plan_motion
        self.pass_index = 0

    def install(self) -> None:
        points = [(getattr(self._package, m), attr, name) for m, attr, name in _WRAP_POINTS]
        # The host-speed probe, which runs inside run_experiment, gets a span
        # of its own so that its time is not counted as harness self time.
        points.append((hostspeed, "probe", PROBE_SPAN))
        for module, attr, name in points:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, original: Callable, name: str) -> Callable:
        signature = inspect.signature(original)
        spans, stack, counts, planned = self.spans, self._stack, self.counts, self._planned

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            _count(counts, name, bound.arguments, result, planned)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children.

        Calls are sequential, so children never overlap and the time they
        cover is the sum of their durations.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def layer_metrics(self, passes: int, traced_wall_s: float) -> dict[str, float]:
        """Per-pass per-layer metrics from the recorded spans and counters."""
        self_times = self.self_times()
        metrics = {
            metric: sum(self_times.get(name, 0.0) for name in names) / passes
            for metric, names in _SELF_TIME_METRICS.items()
        }
        c = self.counts
        for key in (
            "tracesim.samples",
            "tracesim.segments",
            "planner.plan_calls",
            "planner.segments",
            "gcode.commands",
            "attacks.mutations",
            "detect.smooth_samples",
            "detect.export_rows",
        ):
            metrics[key] = c[key] / passes
        samples = c["tracesim.samples"]
        metrics["tracesim.ns_per_sample"] = (
            metrics["tracesim.synth_s"] * passes * 1e9 / samples if samples else 0.0
        )
        calls = c["planner.plan_calls"]
        distinct = len({program.commands for program in self._planned})
        metrics["planner.distinct_plan_ratio"] = distinct / calls if calls else 0.0
        metrics["traceio.read_mb"] = c["traceio.read_bytes"] / _MB / passes
        metrics["traceio.write_mb"] = c["traceio.write_bytes"] / _MB / passes
        # Pass walls exclude probe time, so probe spans are not attributed.
        attributed = sum(t for n, t in self_times.items() if n != PROBE_SPAN) / passes
        metrics["bench.traced_wall_s"] = traced_wall_s / passes
        metrics["bench.unattributed_s"] = traced_wall_s / passes - attributed
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": k}
            for n, s, e, p, k in self.spans
        ]
