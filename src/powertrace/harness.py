"""End-to-end detectability experiment.

Reproduces the full protocol against the bundled benchmark object: simulate a
set of golden prints, build per-motor baselines, simulate several benign and
attacked prints per mutation, classify every capture, and assemble the
detectability matrix (attack rows x motor columns).

A cell is DETECTED when every attacked run was flagged on that motor,
VISIBLE when none were flagged but the mean sd-subtracted excess inside the
attack window exceeds the benign mean excess by a configurable factor, and
NOT_DETECTED otherwise.  Motors the attack provably never touches (a row of
void specs only leaves X/Y/Z motion untouched) are annotated rather than
given a separate verdict.  A run with any flagged benign capture is invalid:
zero false positives is a hard gate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .attacks import AttackError, AttackKind, AttackSpec, apply_attack
from .config import (
    DETECTION_KEYS,
    NOISE_LEVEL_KEYS,
    PROFILE_KEYS,
    ConfigError,
    Key,
    apply_pairs,
    dump_pairs,
    keys,
    mount,
    parse_bool,
    parse_payload,
    read_kv_file,
)
from .detect import (
    DetectionConfig,
    GoldenBaseline,
    PrintDetectionResult,
    Verdict,
    build_baseline,
    detect_print,
    export_series_csv,
    smooth,
)
from .gcode import Command, CommandKind, GCodeProgram, command_text, parse_gcode, read_gcode
from .planner import (
    DEFAULT_PROFILE, MOTORS, MotionPlan, Motor, PrinterProfile, command_start_times, plan_motion
)
from .traceio import align_to_trigger, common_window, save_baseline, save_trace
from . import tracesim
from .tracesim import DEFAULT_NOISE, SAMPLE_RATE, NoiseModel, simulate_print

__all__ = [
    "ExperimentError",
    "CellOutcome",
    "MatrixCell",
    "DetectabilityMatrix",
    "ExperimentConfig",
    "ATTACK_ROWS",
    "benchmark_object",
    "default_attacks",
    "load_experiment_config",
    "dump_experiment_config",
    "run_experiment",
    "render_matrix",
]

ATTACK_ROWS = ("insert", "delete", "reorder", "void")
_ROWS = ("normal",) + ATTACK_ROWS

# Seed blocks keep the golden and the per-row capture streams disjoint: the
# prints of row i of ``_ROWS`` (normal first) start at seed + 2000 + 1000 i.
_GOLDEN_SEED_BASE = 1000
_ROW_SEED_BASE = 2000
_ROW_SEED_STRIDE = 1000


class ExperimentError(ValueError):
    """Experiment could not produce a valid matrix."""


class CellOutcome(Enum):
    DETECTED = "detected"
    NOT_DETECTED = "not-detected"
    VISIBLE = "visible"


@dataclass(frozen=True)
class MatrixCell:
    outcome: CellOutcome
    detected_runs: int
    total_runs: int
    excess_ratio: float | None = None
    annotation: str | None = None


@dataclass(frozen=True)
class DetectabilityMatrix:
    cells: dict[tuple[str, Motor], MatrixCell]
    rows: tuple[str, ...] = _ROWS
    valid: bool = True

    def cell(self, row: str, motor: Motor) -> MatrixCell:
        return self.cells[(row, motor)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun the experiment bit-for-bit.

    :func:`run_experiment` writes the config it ran as ``config.txt``, and
    :func:`load_experiment_config` reads that file back to an equal config,
    so a run can be repeated from its own artifacts.  ``attacks=None`` means
    :func:`default_attacks` of the program; otherwise its rows are exactly
    ``ATTACK_ROWS``, each of at least one spec.  Captures are sampled at
    ``tracesim.SAMPLE_RATE``.  ``noise.seed`` must be 0: every print is
    seeded from ``seed``.
    """

    program_path: str | None = None  # None: bundled benchmark object
    profile: PrinterProfile = DEFAULT_PROFILE
    noise: NoiseModel = DEFAULT_NOISE
    golden_count: int = 10
    malicious_count: int = 3
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    visible_factor: float = 2.0
    seed: int = 0
    series_stride: int = 250
    save_traces: bool = False
    attacks: dict[str, tuple[AttackSpec, ...]] | None = None  # None: defaults

    def __post_init__(self) -> None:
        if self.golden_count < 2:
            raise ExperimentError("golden_count must be >= 2 (sd undefined below that)")
        if self.malicious_count < 1:
            raise ExperimentError("malicious_count must be >= 1")
        if not (math.isfinite(self.visible_factor) and self.visible_factor > 0):
            raise ExperimentError("visible_factor must be finite and > 0")
        if self.series_stride < 1:
            raise ExperimentError("series_stride must be >= 1")
        if self.seed < 0:
            raise ExperimentError("seed must be >= 0")
        if self.noise.seed != 0:
            raise ExperimentError(
                f"noise.seed is {self.noise.seed}, but experiments seed every print "
                "from the top-level 'seed'; set 'seed' instead"
            )
        if self.attacks is not None:
            for row in (*self.attacks, *ATTACK_ROWS):
                if row not in ATTACK_ROWS:
                    rows = ", ".join(ATTACK_ROWS)
                    raise ExperimentError(f"unknown attack row {row!r} (rows: {rows})")
                if not self.attacks.get(row):
                    raise ExperimentError(f"no attack spec configured for {row!r}")


# ---------------------------------------------------------------------------
# Config file

_EXPERIMENT_KEYS = (
    Key("program", lambda text: text or None, ("program_path",)),
    *keys(int, "golden_count", "malicious_count", "seed"),
    *mount(DETECTION_KEYS, ("detection",)),
    *keys(float, "visible_factor"),
    *keys(int, "series_stride"),
    *keys(parse_bool, "save_traces"),
    *mount(PROFILE_KEYS, ("profile",)),
    *mount(NOISE_LEVEL_KEYS, ("noise",), "noise."),
)
_ATTACK_PREFIX = "attack."
_ATTACK_FIELDS = keys(int, "layer", "position", "pair_offset") + (
    Key("payload", parse_payload, ("payload",), command_text),
)


def _attack_keys(attacks: dict[str, tuple[AttackSpec, ...]]) -> tuple[Key, ...]:
    """``attack.<row>[i].<field>`` keys for the specs in ``attacks``.

    The index is written only for rows of several specs; for those, the
    bare row name is accepted as an alias of index 0.
    """
    table: list[Key] = []
    for row, specs in attacks.items():
        for i, group in enumerate(_attack_groups(row, specs)):
            table += mount(_ATTACK_FIELDS, ("attacks", row, i), f"{_ATTACK_PREFIX}{group}.")
        if len(specs) > 1:
            table += mount(_ATTACK_FIELDS, ("attacks", row, 0), f"{_ATTACK_PREFIX}{row}.")
    return tuple(table)


def _attack_groups(row: str, specs: tuple[AttackSpec, ...]) -> list[str]:
    """The name of each spec of ``row`` in config keys: the row, numbered
    when it holds several specs."""
    return [f"{row}{i}" for i in range(len(specs))] if len(specs) > 1 else [row]


def load_experiment_config(path: str | Path, base: ExperimentConfig) -> ExperimentConfig:
    """Apply an experiment config file onto ``base``, key by key.

    A key the file does not set keeps its ``base`` value.  A relative
    ``program`` is taken relative to the file's directory and made absolute.
    Attack keys override single fields of ``base.attacks``, or of the
    default attacks when that is ``None``.
    """
    pairs = read_kv_file(path)
    source = str(path)
    if "noise.seed" in pairs:
        raise ConfigError(
            f"{source}:{pairs['noise.seed'][0]}: 'noise.seed' is not used by experiments, "
            "which seed every print from the top-level 'seed' key; set 'seed' instead"
        )
    attack_pairs = {k: v for k, v in pairs.items() if k.startswith(_ATTACK_PREFIX)}
    other_pairs = {k: v for k, v in pairs.items() if k not in attack_pairs}
    config = apply_pairs(base, _EXPERIMENT_KEYS, other_pairs, source)
    program = config.program_path
    if "program" in pairs and program is not None and not Path(program).is_absolute():
        program = str(Path(path).parent.absolute() / program)
        config = dataclasses.replace(config, program_path=program)
    if not attack_pairs:
        return config
    attacks = config.attacks if config.attacks is not None else default_attacks(_load_program(config))
    config = dataclasses.replace(config, attacks=attacks)
    return apply_pairs(config, _attack_keys(attacks), attack_pairs, source)


def dump_experiment_config(config: ExperimentConfig) -> str:
    """The text of ``config.txt``: every key that ``config`` sets."""
    attack_keys = _attack_keys(config.attacks) if config.attacks is not None else ()
    return dump_pairs(config, _EXPERIMENT_KEYS + attack_keys)


# ---------------------------------------------------------------------------
# Benchmark object

_ORIGIN = (2.0, 2.0)
_CUBE_SIZE = 14.0
_LAYER_COUNT = 10
_LAYER_HEIGHT = 0.2
_PRINT_FEED = 960.0
_TRAVEL_FEED = 1200.0
_LIFT_FEED = 37.5
_FILAMENT_PER_MM = 0.05
_INFILL_HALF_PERIOD = 2.0
# 60 degree zigzag rise, the classic honeycomb half-cell slope.
_INFILL_RISE = _INFILL_HALF_PERIOD * math.tan(math.radians(60.0))
_INFILL_X0 = 3.5
_INFILL_X1 = 15.5
_BAND_BASES = (3.5, 8.5)

# Command offsets within one benchmark layer (every layer has 20 commands).
LAYER_OFFSET_PERIMETER = 2  # first of four perimeter sides
LAYER_OFFSET_INFILL = 7  # first zigzag segment


def benchmark_object() -> GCodeProgram:
    """Deterministic 10-layer square object with a 60-degree zigzag fill.

    Tuned together with the default profile so the whole print takes roughly
    75 seconds and every step frequency stays inside (0, 200] Hz.
    """
    x0, y0 = _ORIGIN
    corners = [
        (x0 + _CUBE_SIZE, y0),
        (x0 + _CUBE_SIZE, y0 + _CUBE_SIZE),
        (x0, y0 + _CUBE_SIZE),
        (x0, y0),
    ]
    lines = [
        "; powertrace benchmark object",
        "; square perimeter with zigzag fill, 10 layers",
        "M107",
        f"G0 X{_num(x0)} Y{_num(y0)} F{_num(_TRAVEL_FEED)}",
    ]
    extrusion = 0.0
    position = (x0, y0)
    for layer in range(_LAYER_COUNT):
        z = _LAYER_HEIGHT * (layer + 1)
        lines.append(f"G1 Z{_num(z)} F{_num(_LIFT_FEED)}")
        lines.append(f"G0 X{_num(x0)} Y{_num(y0)} F{_num(_TRAVEL_FEED)}")
        position = (x0, y0)
        if layer == 2:
            lines.append("M106 S255")
        for corner in corners:
            extrusion += _dist(position, corner) * _FILAMENT_PER_MM
            lines.append(
                f"G1 X{_num(corner[0])} Y{_num(corner[1])} "
                f"E{_num(extrusion)} F{_num(_PRINT_FEED)}"
            )
            position = corner
        for band_index, base in enumerate(_BAND_BASES):
            points = _zigzag_points(base, leftward=band_index % 2 == 1)
            start = points[0]
            lines.append(f"G0 X{_num(start[0])} Y{_num(start[1])} F{_num(_TRAVEL_FEED)}")
            position = start
            for point in points[1:]:
                extrusion += _dist(position, point) * _FILAMENT_PER_MM
                lines.append(
                    f"G1 X{_num(point[0])} Y{_num(point[1])} "
                    f"E{_num(extrusion)} F{_num(_PRINT_FEED)}"
                )
                position = point
    lines.append("M107")
    return parse_gcode("\n".join(lines) + "\n")


def _zigzag_points(base_y: float, leftward: bool) -> list[tuple[float, float]]:
    xs = []
    x = _INFILL_X0
    while x <= _INFILL_X1 + 1e-9:
        xs.append(x)
        x += _INFILL_HALF_PERIOD
    if leftward:
        xs = xs[::-1]
    return [(x, base_y + (_INFILL_RISE if i % 2 else 0.0)) for i, x in enumerate(xs)]


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def _num(value: float) -> str:
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return text if text else "0"


# ---------------------------------------------------------------------------
# Default attacks

def default_attacks(program: GCodeProgram) -> dict[str, tuple[AttackSpec, ...]]:
    """The four mutations, addressed against the benchmark layer layout.

    The inserted travel move goes to a point equidistant (from the successor's
    target) with the successor's original start, and carries no F word, so the
    insertion shifts the rest of the plan by exactly the payload duration
    without altering any other command's geometry or the modal feed.
    """
    insert_at = LAYER_OFFSET_PERIMETER + 1
    x0, y0 = _ORIGIN
    payload = Command(
        kind=CommandKind.RAPID_MOVE,
        x=x0,
        y=y0 + _CUBE_SIZE,
    )
    return {
        "insert": (
            AttackSpec(kind=AttackKind.INSERT, layer=7, position=insert_at, payload=payload),
        ),
        "delete": (AttackSpec(kind=AttackKind.DELETE, layer=7, position=insert_at),),
        "reorder": (
            AttackSpec(
                kind=AttackKind.REORDER,
                layer=7,
                position=LAYER_OFFSET_INFILL,
                pair_offset=LAYER_OFFSET_INFILL + 2,
            ),
            AttackSpec(
                kind=AttackKind.REORDER,
                layer=8,
                position=LAYER_OFFSET_INFILL,
                pair_offset=LAYER_OFFSET_INFILL + 2,
            ),
        ),
        "void": (AttackSpec(kind=AttackKind.VOID, layer=7, position=LAYER_OFFSET_PERIMETER),),
    }


# ---------------------------------------------------------------------------
# Experiment

def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> DetectabilityMatrix:
    """Run the whole protocol and write artifacts under ``out_dir``.

    Raises :class:`AttackError`, naming the row, before writing anything if
    an attack spec does not apply to the program, and
    :class:`ExperimentError` before writing anything if a row's specs leave
    the program unchanged, or after writing artifacts if any benign capture
    was flagged (the zero-false-positive gate).
    """
    program = _load_program(config)
    attacks = config.attacks if config.attacks is not None else default_attacks(program)
    # Every row's program is built before anything is written, so a spec that
    # does not apply fails before the golden phase, named as in config.txt.
    programs = {"normal": program}
    for row in ATTACK_ROWS:
        programs[row] = program
        for spec, group in zip(attacks[row], _attack_groups(row, attacks[row])):
            try:
                programs[row] = apply_attack(programs[row], spec)
            except AttackError as exc:
                raise AttackError(f"{_ATTACK_PREFIX}{group}: {exc}") from None
        if programs[row] == program:
            raise ExperimentError(f"{_ATTACK_PREFIX}{row}: the attack changes no command")

    config = dataclasses.replace(config, attacks=attacks)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(dump_experiment_config(config))

    plan = plan_motion(program, config.profile)
    baselines = _build_baselines(plan, config, out)
    windows = _attack_windows(program, plan, programs, attacks, config, baselines)

    # The normal row runs first and is measured in every attack's window,
    # so each attack row's excess ratio compares like with like.  It reads
    # each distinct window once: two attacks may share one.
    cells: dict[tuple[str, Motor], MatrixCell] = {}
    benign_excess: dict[tuple[int, int], dict[Motor, float]] = {}
    for index, row in enumerate(_ROWS):
        benign = row == "normal"
        first_seed = config.seed + _ROW_SEED_BASE + index * _ROW_SEED_STRIDE
        seeds = [first_seed + r for r in range(config.malicious_count)]
        spans = sorted(set(windows.values())) if benign else [windows[row]]
        flagged, span_excess = _run_row(row, programs[row], config, baselines, seeds, out, spans)
        if benign:
            benign_excess = span_excess
        for motor in MOTORS:
            ratio = annotation = None
            if not benign:
                span = windows[row]
                ratio = _ratio(span_excess[span][motor], benign_excess[span][motor])
                if motor is not Motor.E and _is_void(attacks[row]):
                    annotation = "no ground-truth disturbance"
            if flagged[motor] == len(seeds):
                outcome = CellOutcome.DETECTED
            elif ratio is not None and ratio >= config.visible_factor:
                outcome = CellOutcome.VISIBLE
            else:
                outcome = CellOutcome.NOT_DETECTED
            cells[(row, motor)] = MatrixCell(
                outcome=outcome,
                detected_runs=flagged[motor],
                total_runs=len(seeds),
                excess_ratio=ratio,
                annotation=annotation,
            )

    false_positives = sum(cells[("normal", m)].detected_runs for m in MOTORS)
    matrix = DetectabilityMatrix(cells=cells, valid=false_positives == 0)
    (out / "matrix.txt").write_text(render_matrix(matrix))
    _write_matrix_csv(matrix, out / "matrix.csv")
    if not matrix.valid:
        raise ExperimentError(
            f"{false_positives} benign capture(s) flagged malicious; "
            "the zero-false-positive gate invalidates this run "
            f"(artifacts preserved under {out})"
        )
    return matrix


def _load_program(config: ExperimentConfig) -> GCodeProgram:
    if config.program_path is None:
        return benchmark_object()
    return read_gcode(config.program_path)


def _build_baselines(
    plan: MotionPlan, config: ExperimentConfig, out: Path
) -> dict[Motor, GoldenBaseline]:
    """Build and save each motor's baseline in turn from the program's plan,
    holding only that motor's golden traces.  Synthesis is reached through
    the ``tracesim`` module, where ``perfbench`` trace mode wraps it."""
    baselines: dict[Motor, GoldenBaseline] = {}
    for motor in MOTORS:
        golden = []
        for i in range(config.golden_count):
            noise = dataclasses.replace(config.noise, seed=config.seed + _GOLDEN_SEED_BASE + i)
            trace = tracesim.synthesize_trace(plan, motor, config.profile, noise)
            if config.save_traces:
                save_trace(trace, out / "traces" / f"golden_{i:02d}_{motor.name}.ptrc")
            golden.append(smooth(align_to_trigger(trace), config.detection.smoothing_window))
        baselines[motor] = build_baseline(common_window(golden))
        save_baseline(baselines[motor], out / "baselines" / f"{motor.name}.ptrb")
    return baselines


def _run_row(
    row: str,
    program: GCodeProgram,
    config: ExperimentConfig,
    baselines: dict[Motor, GoldenBaseline],
    seeds: list[int],
    out: Path,
    spans: list[tuple[int, int]],
) -> tuple[dict[Motor, int], dict[tuple[int, int], dict[Motor, float]]]:
    """Simulate, classify and export one row's prints.

    Each print is reduced to its verdicts and its mean excess inside each of
    ``spans`` as soon as its series are written; only those reductions are
    kept.  The raw traces are saved (with ``save_traces``) first and dropped
    once the print is judged.  Each motor's deviation is then made only
    where the row reads it: on every ``series_stride``-th sample, which is
    written, turned into its excess in place and written again, and inside
    each span, whose excess is averaged.  No full-length series is made.
    Returns the number of flagged prints per motor, and per span and
    motor the mean of those per-print means.
    """
    flagged = dict.fromkeys(MOTORS, 0)
    print_means: dict[tuple[int, int], dict[Motor, list[float]]] = {
        span: {motor: [] for motor in MOTORS} for span in spans
    }
    stride = config.series_stride
    for run_index, seed in enumerate(seeds):
        traces = simulate_print(
            program, config.profile, config.noise, seed=seed
        )
        if config.save_traces:
            for motor in MOTORS:
                save_trace(traces[motor], out / "traces" / f"{row}_run{run_index}_{motor.name}.ptrc")
        aligned = {motor: align_to_trigger(traces[motor]) for motor in MOTORS}
        result = detect_print(aligned, baselines, config.detection)
        # The result keeps the smoothed captures; free the raw ones.
        del traces, aligned
        for motor in MOTORS:
            sd = baselines[motor].pointwise_sd
            rate = baselines[motor].sample_rate / stride
            grid = result.deviations[motor, ::stride]
            export_series_csv(grid, rate, out / _series_path(row, run_index, motor, "deviation"))
            _excess_over(grid, sd[::stride][: len(grid)], out=grid)
            export_series_csv(grid, rate, out / _series_path(row, run_index, motor, "excess"))
            for lo, hi in spans:
                part = result.deviations[motor, lo:hi]
                if len(part):
                    _excess_over(part, sd[lo : lo + len(part)], out=part)
                    print_means[lo, hi][motor].append(float(np.mean(part)))
                del part  # before the next span's part is made
            flagged[motor] += result.reports[motor].verdict is Verdict.MALICIOUS
        _write_run_report(out / "reports" / f"{row}_run{run_index}.txt", row, run_index, seed, result)
        # Free this print's arrays before the next one is simulated.
        del result
    span_excess = {
        span: {motor: float(np.mean(means)) if means else 0.0 for motor, means in per_motor.items()}
        for span, per_motor in print_means.items()
    }
    return flagged, span_excess


def _excess_over(
    deviation_series: np.ndarray, sd: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The excess of a deviation over the golden sd: ``deviation - sd``,
    clamped at zero, with ``sd`` the cells of the samples given, one per
    sample, so any slice or stride of a deviation is reduced with its own
    cells.  It is for visibility analysis: an attack signature can stay
    clearly visible in it without ever crossing the verdict threshold."""
    out = np.subtract(deviation_series, sd, out=out)
    # 0.0 first: maximum returns its first argument on a tie, so -0.0 reads 0.0.
    return np.maximum(0.0, out, out=out)


# A voided command's effect is a bounded transient (the next absolute E word
# re-extrudes the skipped filament), so its visibility window stops shortly
# after the modified command instead of running to the end of the print.
_VOID_SETTLE_S = 3.0


def _attack_windows(
    program: GCodeProgram,
    plan: MotionPlan,
    programs: dict[str, GCodeProgram],
    attacks: dict[str, tuple[AttackSpec, ...]],
    config: ExperimentConfig,
    baselines: dict[Motor, GoldenBaseline],
) -> dict[str, tuple[int, int]]:
    """Each attack row's sample window on the baseline timeline.

    The window starts at the first command where the row's program differs
    from ``program``, at that command's start time in ``program`` (the end of
    the print for an append after its last command).  Desynchronizing attacks
    disturb everything after it, so the window runs to the end of the print;
    a void row's window ends ``_VOID_SETTLE_S`` after the start of its last
    changed command.  Legitimate here because the harness controls ground
    truth.
    """
    starts = command_start_times(program, config.profile) + [plan.total_duration]
    length = min(b.sample_count for b in baselines.values())
    windows = {}
    for row in ATTACK_ROWS:
        pairs = zip_longest(program.commands, programs[row].commands)
        changed = [i for i, (old, new) in enumerate(pairs) if old != new]
        t_start = starts[changed[0]] - plan.trigger_time
        start_idx = max(0, min(int(t_start * SAMPLE_RATE), length - 1))
        end_idx = length
        if _is_void(attacks[row]):
            t_end = starts[changed[-1]] - plan.trigger_time + _VOID_SETTLE_S
            end_idx = max(start_idx + 1, min(int(t_end * SAMPLE_RATE), length))
        windows[row] = (start_idx, end_idx)
    return windows


def _is_void(specs: tuple[AttackSpec, ...]) -> bool:
    """Whether a row only voids extrusion, leaving X/Y/Z motion untouched."""
    return all(spec.kind is AttackKind.VOID for spec in specs)


def _ratio(attack: float, benign: float) -> float | None:
    if benign <= 0.0:
        return None if attack <= 0.0 else math.inf
    return attack / benign


def _write_run_report(
    path: Path, row: str, run_index: int, seed: int, result: PrintDetectionResult
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"row={row}",
        f"run={run_index}",
        f"seed={seed}",
        f"overall={result.overall.value}",
    ]
    for motor in MOTORS:
        lines.extend(result.reports[motor].key_value_lines())
        lines.append(f"excess_series={_series_path(row, run_index, motor, 'excess')}")
    path.write_text("\n".join(lines) + "\n")


def _series_path(row: str, run_index: int, motor: Motor, kind: str) -> str:
    """A print's ``deviation`` or ``excess`` series file, relative to the output directory."""
    return f"series/{row}_run{run_index}_{motor.name}_{kind}.csv"


_CELL_TEXT = {
    CellOutcome.DETECTED: "DETECTED",
    CellOutcome.NOT_DETECTED: "not-detected",
    CellOutcome.VISIBLE: "visible",
}


def render_matrix(matrix: DetectabilityMatrix) -> str:
    """Aligned text table; annotated cells carry a trailing ``*``."""
    header = ["attack".ljust(10)] + [m.name.ljust(19) for m in MOTORS]
    rows = ["".join(header).rstrip()]
    annotated = False
    for row in matrix.rows:
        parts = [row.ljust(10)]
        for motor in MOTORS:
            cell = matrix.cell(row, motor)
            text = f"{_CELL_TEXT[cell.outcome]} {cell.detected_runs}/{cell.total_runs}"
            if cell.annotation:
                text += "*"
                annotated = True
            parts.append(text.ljust(19))
        rows.append("".join(parts).rstrip())
    if annotated:
        rows.append("")
        rows.append("* attack does not touch this motor (no ground-truth disturbance)")
    if not matrix.valid:
        rows.append("")
        rows.append("INVALID RUN: benign capture flagged (false-positive gate)")
    return "\n".join(rows) + "\n"


def _write_matrix_csv(matrix: DetectabilityMatrix, path: Path) -> None:
    import csv

    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["attack", "motor", "outcome", "detected_runs", "total_runs", "excess_ratio", "annotation"]
        )
        for row in matrix.rows:
            for motor in MOTORS:
                cell = matrix.cell(row, motor)
                ratio = "" if cell.excess_ratio is None else f"{cell.excess_ratio:.4f}"
                writer.writerow(
                    [
                        row,
                        motor.name,
                        cell.outcome.value,
                        cell.detected_runs,
                        cell.total_runs,
                        ratio,
                        cell.annotation or "",
                    ]
                )
