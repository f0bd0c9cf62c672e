"""powertrace benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload experiment|screen --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from ``--seed`` before
any timing.  Each job runs in a fresh interpreter (``worker.py``): set-up is
timed over several fresh processes, and one process runs the timed passes
back to back in a closed loop until ``--seconds`` have been measured (at
least three experiment passes).  Peak RSS is that process's high-water mark
after its first pass.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
End-to-end times are scaled to a reference host speed with the probe in
``hostspeed.py``, timed next to every print and in every set-up process; the raw times
are printed above the result line.  Per-layer times are raw; the tracing
overhead compares scaled traced and untraced passes.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Scratch files live under ``.perfbench/`` and are removed at exit,
except the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench"

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # whole run, generation and set-up probes included
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

DESYNC_ROWS = ("insert", "delete", "reorder")

# README's reference matrix; its Z column holds at seed 0 only.
REFERENCE_MATRIX_SEED0 = """\
attack    X                  Y                  Z                  E
normal    not-detected 0/3   not-detected 0/3   not-detected 0/3   not-detected 0/3
insert    DETECTED 3/3       DETECTED 3/3       visible 0/3        visible 0/3
delete    DETECTED 3/3       DETECTED 3/3       visible 0/3        visible 0/3
reorder   DETECTED 3/3       DETECTED 3/3       visible 0/3        visible 0/3
void      not-detected 0/3*  not-detected 0/3*  not-detected 0/3*  visible 0/3

* attack does not touch this motor (no ground-truth disturbance)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def worker_cmd(mode: str, workload: str, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), mode, "--workload", workload, "--dir", str(work), *extra]


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        fail(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
    return left


def probe_setup(workload: str, work: Path, deadline: float) -> tuple[list[float], list[float]]:
    """(seconds from process start to ready, host-speed probes) over fresh processes.

    One unmeasured probe first, so the measured ones see compiled bytecode
    and a warm page cache, as a user's second run would.  Each process times
    the host-speed probe after it is ready, in the same cold state.
    """
    samples, host = [], []
    for i in range(SETUP_PROBES + 1):
        started = time.perf_counter()
        with subprocess.Popen(
            worker_cmd("probe", workload, work), stdout=subprocess.PIPE, cwd=ROOT, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            rest = proc.stdout.read()
            if proc.wait(timeout=remaining(deadline)) != 0 or line.strip() != "ready":
                fail(f"set-up probe for {workload} failed")
        if i:
            samples.append(elapsed)
            host.append(float(rest))
    return samples, host


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that to reach the median, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_pass(workload: str, seed: int, record: dict, first_digest: str) -> list[str]:
    """Problems with one pass's outputs; an empty list means it is correct."""
    problems = []
    if record["digest"] != first_digest:
        problems.append("artifact digest differs from the run's first pass")
    if workload == "screen":
        for label, expected, got in record["verdicts"]:
            if got != expected:
                problems.append(f"{label}: verdict {got}, expected {expected}")
        return problems
    if record["error"]:
        return problems + [f"zero-false-positive gate: {record['error']}"]
    matrix = record["matrix"]
    for row in DESYNC_ROWS:
        for motor in ("X", "Y"):
            outcome, detected, total = matrix[row][motor]
            if outcome != "detected" or detected != total:
                problems.append(f"{row}/{motor}: {outcome} {detected}/{total}")
    for motor in ("X", "Y", "Z"):
        if matrix["void"][motor][1]:
            problems.append(f"void flagged on {motor}")
    if seed == 0 and record["rendered"] != REFERENCE_MATRIX_SEED0:
        problems.append("matrix differs from the seed-0 reference")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("experiment", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")
    if not (ROOT / "src" / "powertrace" / "__init__.py").is_file():
        fail(f"no powertrace sources under {ROOT / 'src'}")

    deadline = time.monotonic() + RUN_LIMIT_S
    work = SCRATCH / f"{args.workload}-seed{args.seed}"
    result_path = SCRATCH / f"result-{args.workload}-seed{args.seed}.json"
    shutil.rmtree(work, ignore_errors=True)
    try:
        subprocess.run(
            worker_cmd("generate", args.workload, work, "--seed", str(args.seed)),
            cwd=ROOT, check=True, timeout=remaining(deadline),
        )
        setup, setup_host = probe_setup(args.workload, work, deadline)
        subprocess.run(
            worker_cmd(
                "run", args.workload, work, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--result", str(result_path),
            ),
            stdout=subprocess.DEVNULL, cwd=ROOT, check=True, timeout=remaining(deadline),
        )
        result = json.loads(result_path.read_text())
    except subprocess.SubprocessError as exc:
        fail(f"worker failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    report(args, setup, setup_host, result)


def report(args, setup: list[float], setup_host: list[float], result: dict) -> None:
    passes = result["passes"]
    first_digest = passes[0]["digest"]
    attempted = failed = 0
    for index, record in enumerate(passes):
        problems = check_pass(args.workload, args.seed, record, first_digest)
        for problem in problems:
            print(f"check failed (pass {index}): {problem}")
        if args.workload == "screen":
            attempted += record["prints"]
            failed += min(len(problems), record["prints"])
        else:
            attempted += 1
            failed += bool(problems)

    # Each pass is scaled by the probes timed during it.
    factors = [hostspeed.scale(p["probes_s"]) for p in passes]
    untraced = [(p, f) for p, f in zip(passes, factors) if not p["traced"]]
    wall = statistics.median(p["wall_s"] * f for p, f in untraced)
    latencies = [ms * f for p, f in untraced for ms in p["latencies_ms"]]
    tail_ms, tail_pct = tail(latencies)
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"(traced {len(passes) - len(untraced)})")
    if args.workload == "experiment" and passes[0]["rendered"]:
        print(passes[0]["rendered"], end="")
    print("raw pass wall_s: "
          + " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print("host-speed factor per pass: " + " ".join(f"{f:.3f}" for f in factors))
    print(f"raw setup_s={statistics.median(setup):.4f} "
          f"(factor {hostspeed.scale(setup_host):.3f})")
    print(f"artifact_digest={first_digest}")
    print(f"error_rate={failed / attempted:.4f} ({failed}/{attempted})")
    print(f"verdict latency: n={len(latencies)} tail=p{tail_pct:.1f}")

    if args.trace:
        traced_wall = statistics.median(
            p["wall_s"] * f for p, f in zip(passes, factors) if p["traced"]
        )
        values = dict(result["layers"])
        values["bench.trace_overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        print(f"spans: {result['trace_file']}")
    else:
        values = {
            "setup_s": statistics.median(setup) * hostspeed.scale(setup_host),
            "wall_s": wall,
            "prints_per_s": passes[0]["prints"] / wall,
            "verdict_p50_ms": statistics.median(latencies),
            "verdict_tail_ms": tail_ms,
            "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
            "artifact_mb": passes[0]["bytes"] / (1024.0 * 1024.0),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
