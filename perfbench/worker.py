"""One benchmark process: generate inputs, probe set-up, or run timed passes.

``run.py`` starts this script in a fresh interpreter for each job so that
set-up time and peak RSS belong to a process that did nothing else.

    worker.py generate --workload W --seed N --dir D
    worker.py probe    --workload W --dir D
    worker.py run      --workload W --seed N --dir D --seconds S --trace 0|1 --result R
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import inputs

ROOT = Path(__file__).resolve().parent.parent

# One experiment pass is a single ~17 s measurement, too noisy on a shared
# host; the median of three is steadier.
MIN_PASSES = {"experiment": 3, "screen": 1}
# Untimed passes first: a screen pass is short enough to let the allocator
# and page cache settle before timing; an experiment pass is not.
WARMUP_PASSES = {"experiment": 0, "screen": 1}


def import_powertrace():
    """Import the package from this checkout's sources, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import powertrace

    source = Path(powertrace.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"powertrace imported from {source}, not from {ROOT / 'src'}")
    return powertrace


def load_screen_baselines(pt, directory: Path) -> dict:
    baseline_paths, _ = inputs.screen_paths(directory)
    return {
        motor: pt.traceio.load_baseline(baseline_paths[motor.name])
        for motor in pt.planner.MOTORS
    }


def tree_digest(directory: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        with path.open("rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
                total += len(chunk)
    return digest.hexdigest(), total


class PrintClock:
    """Per-print latency inside run_experiment: simulation start to verdict.

    Two clock reads per print at the harness's calls into tracesim and
    detect; cheap enough to stay on in untraced passes.  The host-speed
    probe runs before each print, outside its latency.  Installed in every
    pass, after the tracer in traced ones, so the probe falls outside all
    spans; latencies of traced passes are dropped.
    """

    def __init__(self, harness) -> None:
        self._harness = harness
        self._originals = (harness.simulate_print, harness.detect_print)
        self.latencies_ms: list[float] = []
        self.probes_s: list[float] = []
        self._started = 0.0

    def install(self) -> None:
        simulate, detect = self._originals

        def timed_simulate(*args, **kwargs):
            self.probes_s.append(hostspeed.probe())
            self._started = time.perf_counter()
            return simulate(*args, **kwargs)

        def timed_detect(*args, **kwargs):
            result = detect(*args, **kwargs)
            self.latencies_ms.append((time.perf_counter() - self._started) * 1e3)
            return result

        self._harness.simulate_print = timed_simulate
        self._harness.detect_print = timed_detect

    def uninstall(self) -> None:
        self._harness.simulate_print, self._harness.detect_print = self._originals


def matrix_record(pt, matrix) -> dict:
    return {
        row: {
            motor.name: [
                matrix.cell(row, motor).outcome.value,
                matrix.cell(row, motor).detected_runs,
                matrix.cell(row, motor).total_runs,
            ]
            for motor in pt.planner.MOTORS
        }
        for row in matrix.rows
    }


def experiment_pass(pt, work: Path, seed: int, index: int, traced: bool) -> dict:
    config = pt.harness.ExperimentConfig(seed=seed)
    out = work / f"pass{index}"
    clock = PrintClock(pt.harness)
    clock.install()
    error = matrix = None
    started = time.perf_counter()
    try:
        matrix = pt.harness.run_experiment(config, out)
    except pt.harness.ExperimentError as exc:
        error = str(exc)
    finally:
        wall = time.perf_counter() - started
        clock.uninstall()
    probes = clock.probes_s
    rendered = (out / "matrix.txt").read_text() if (out / "matrix.txt").exists() else ""
    digest, size = tree_digest(out)
    shutil.rmtree(out)
    return {
        "traced": traced,
        "wall_s": wall - sum(probes),
        "probes_s": probes,
        "prints": config.golden_count + 5 * config.malicious_count,
        "latencies_ms": [] if traced else clock.latencies_ms,
        "error": error,
        "matrix": matrix_record(pt, matrix) if matrix else None,
        "rendered": rendered,
        "digest": digest,
        "bytes": size,
    }


def screen_pass(pt, work: Path, baselines: dict, input_digest: str, input_bytes: int,
                traced: bool) -> dict:
    _, capture_paths = inputs.screen_paths(work)
    traceio, detect = pt.traceio, pt.detect
    latencies, probes, verdicts, lines = [], [], [], []
    started = time.perf_counter()
    for label, expected in inputs.SCREEN_PRINTS:
        probes.append(hostspeed.probe())
        t0 = time.perf_counter()
        captures = {
            motor: traceio.align_to_trigger(traceio.load_trace(capture_paths[label][motor.name]))
            for motor in pt.planner.MOTORS
        }
        result = detect.detect_print(captures, baselines)
        latencies.append((time.perf_counter() - t0) * 1e3)
        verdicts.append([label, expected, result.overall.value])
        lines.append(f"label={label} overall={result.overall.value}")
        for report in result.reports.values():
            lines.extend(report.key_value_lines())
    wall = time.perf_counter() - started
    digest = hashlib.sha256((input_digest + "\n".join(lines)).encode()).hexdigest()
    return {
        "traced": traced,
        "wall_s": wall - sum(probes),
        "probes_s": probes,
        "prints": len(inputs.SCREEN_PRINTS),
        "latencies_ms": [] if traced else latencies,
        "verdicts": verdicts,
        "digest": digest,
        "bytes": input_bytes,
    }


def run(args) -> None:
    from spans import Tracer

    work = Path(args.dir)
    pt = import_powertrace()
    if args.workload == "screen":
        baselines = load_screen_baselines(pt, work)
        input_digest, input_bytes = tree_digest(work)

        def one_pass(index, traced):
            return screen_pass(pt, work, baselines, input_digest, input_bytes, traced)
    else:
        def one_pass(index, traced):
            return experiment_pass(pt, work, args.seed, index, traced)

    tracer = Tracer(pt) if args.trace else None
    passes: list[dict] = []
    first_pass_rss_kib = 0
    for index in range(WARMUP_PASSES[args.workload]):
        one_pass(-1 - index, False)
    started = time.perf_counter()
    while True:
        traced = bool(tracer) and sum(p["traced"] for p in passes) < len(passes) / 2
        if traced:
            tracer.pass_index = len(passes)
            tracer.install()
        try:
            passes.append(one_pass(len(passes), traced))
        finally:
            if traced:
                tracer.uninstall()
        if len(passes) == 1:
            # Later passes inherit the allocator's state, so the high-water
            # mark of a fresh process is taken after its first pass.
            first_pass_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        need_more = len(passes) < MIN_PASSES[args.workload] or (
            bool(tracer) and len({p["traced"] for p in passes}) < 2
        )
        # Closed loop: passes back to back until ``seconds`` have been measured.
        if not need_more and time.perf_counter() - started >= args.seconds:
            break

    result = {"passes": passes, "peak_rss_kib": first_pass_rss_kib}
    if tracer:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        result["layers"] = tracer.layer_metrics(len(traced_walls), sum(traced_walls))
        trace_path = Path(args.result).with_name(f"trace-{args.workload}-seed{args.seed}.json")
        trace_path.write_text(json.dumps({"spans": tracer.dump(), "counts": tracer.counts}))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    Path(args.result).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "probe", "run"))
    parser.add_argument("--workload", required=True, choices=tuple(MIN_PASSES))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    work = Path(args.dir)

    if args.mode == "generate":
        import_powertrace()
        work.mkdir(parents=True, exist_ok=True)
        if args.workload == "screen":
            inputs.write_screen_set(work, args.seed)
    elif args.mode == "probe":
        pt = import_powertrace()
        if args.workload == "screen":
            load_screen_baselines(pt, work)
        print("ready", flush=True)
        # Host speed as this fresh process sees it, for run.py to scale set-up by.
        print(hostspeed.probe())
    else:
        run(args)


if __name__ == "__main__":
    main()
