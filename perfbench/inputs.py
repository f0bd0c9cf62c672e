"""Seeded inputs of the screen workload, generated before any timing starts.

``write_screen_set`` writes the stored baselines and one labelled capture
set for the operator path.  They depend only on the seed, so the same seed
gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

# Seed blocks for the screen set, disjoint like the harness's own blocks.
SCREEN_GOLDEN_COUNT = 10
_SCREEN_GOLDEN_SEED_BASE = 1000
_SCREEN_CAPTURE_SEED_BASE = 2000

# Label of each print in the capture set and the verdict it must get.
SCREEN_PRINTS = (
    ("benign", "benign"),
    ("insert", "malicious"),
    ("delete", "malicious"),
    ("reorder", "malicious"),
    ("void", "benign"),
)


def screen_paths(directory: Path) -> tuple[dict[str, Path], dict[str, dict[str, Path]]]:
    """(baseline path per motor, capture path per label and motor)."""
    from powertrace.planner import MOTORS

    baselines = {m.name: directory / "baselines" / f"{m.name}.ptrb" for m in MOTORS}
    captures = {
        label: {m.name: directory / "captures" / f"{label}_{m.name}.ptrc" for m in MOTORS}
        for label, _ in SCREEN_PRINTS
    }
    return baselines, captures


def write_screen_set(directory: Path, seed: int) -> None:
    """Write four ``.ptrb`` baselines and five labelled 4-motor captures.

    Baselines follow the detector's protocol: SCREEN_GOLDEN_COUNT golden
    prints of the bundled object, aligned, smoothed and cut to a common
    window.  Captures are raw (unaligned) simulated prints of the benign
    object and of each default attack.
    """
    from powertrace import detect, harness, traceio, tracesim
    from powertrace.attacks import apply_attack
    from powertrace.planner import MOTORS

    baseline_paths, capture_paths = screen_paths(directory)
    program = harness.benchmark_object()
    window = detect.DetectionConfig().smoothing_window
    golden = {m: [] for m in MOTORS}
    for i in range(SCREEN_GOLDEN_COUNT):
        traces = tracesim.simulate_print(program, seed=seed + _SCREEN_GOLDEN_SEED_BASE + i)
        for m in MOTORS:
            golden[m].append(detect.smooth(traceio.align_to_trigger(traces[m]), window))
    for m in MOTORS:
        baseline = detect.build_baseline(traceio.common_window(golden[m]))
        traceio.save_baseline(baseline, baseline_paths[m.name])
    del golden

    attacks = harness.default_attacks(program)
    for k, (label, _) in enumerate(SCREEN_PRINTS):
        mutated = program
        for spec in attacks.get(label, ()):
            mutated = apply_attack(mutated, spec)
        traces = tracesim.simulate_print(mutated, seed=seed + _SCREEN_CAPTURE_SEED_BASE + k)
        for m in MOTORS:
            traceio.save_trace(traces[m], capture_paths[label][m.name])
