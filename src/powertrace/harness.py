"""End-to-end detectability experiment.

Reproduces the full protocol against the bundled benchmark object: simulate a
set of golden prints, build per-motor baselines, simulate several benign and
attacked prints per mutation, classify every capture, and assemble the
detectability matrix (attack rows x motor columns).

A cell is DETECTED when every attacked run was flagged on that motor,
VISIBLE when none were flagged but the mean sd-subtracted excess inside the
motor's attack window exceeds the benign mean excess by a factor of 2,
and NOT_DETECTED otherwise.  That window is the simulator's ground truth:
where the motor's noise-free renders of the attacked and the
unmodified program differ, each rendered only from the motor's first changed
segment on.  A motor whose renders are identical is annotated
as untouched, with no ratio.  A run with any flagged benign capture is
invalid: zero false positives is a hard gate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
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
    _deviation_into,
    _read_blocks,
    detect_print,
    export_series_csv,
    smooth,
)
from .gcode import Command, CommandKind, GCodeProgram, command_text, parse_gcode, read_gcode
from .planner import DEFAULT_PROFILE, MOTORS, MotionPlan, Motor, PlanError, PrinterProfile, plan_motion
# Not called here, nor smooth and common_window: perfbench's trace mode wraps them.
from .planner import command_start_times
from .traceio import align_to_trigger, common_window, load_baseline
from .traceio import save_baseline, save_trace
from . import tracesim
from .tracesim import DEFAULT_NOISE, NoiseModel, simulate_print

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

# A cell is VISIBLE at this ratio of attacked to benign mean excess.
_VISIBLE_FACTOR = 2.0
# The series CSVs hold every _SERIES_STRIDE-th sample: 100 Hz at 25 kHz.
_SERIES_STRIDE = 250


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
    so a run can be repeated from its own artifacts.  ``attacks`` defaults
    to :func:`default_attacks`; its rows are exactly ``ATTACK_ROWS``, each of
    at least one spec.  Captures are sampled at
    ``tracesim.SAMPLE_RATE``.  ``noise.seed`` must be 0: every print is
    seeded from ``seed``.
    """

    program_path: str | None = None  # None: bundled benchmark object
    profile: PrinterProfile = DEFAULT_PROFILE
    noise: NoiseModel = DEFAULT_NOISE
    golden_count: int = 10
    malicious_count: int = 3
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    seed: int = 0
    save_traces: bool = False
    attacks: dict[str, tuple[AttackSpec, ...]] = field(default_factory=lambda: default_attacks())

    def __post_init__(self) -> None:
        if self.golden_count < 2:
            raise ExperimentError("golden_count must be >= 2 (sd undefined below that)")
        if self.malicious_count < 1:
            raise ExperimentError("malicious_count must be >= 1")
        if self.seed < 0:
            raise ExperimentError("seed must be >= 0")
        if self.noise.seed != 0:
            raise ExperimentError(
                f"noise.seed is {self.noise.seed}, but experiments seed every print "
                "from the top-level 'seed'; set 'seed' instead"
            )
        for row in (*self.attacks, *ATTACK_ROWS):
            if row not in ATTACK_ROWS:
                rows = ", ".join(ATTACK_ROWS)
                raise ExperimentError(f"unknown attack row {row!r} (rows: {rows})")
            if not self.attacks.get(row):
                raise ExperimentError(f"no attack spec configured for {row!r}")


# ---------------------------------------------------------------------------
# Config file

_EXPERIMENT_KEYS = (
    Key("program", lambda text: text or None, ("program_path",), lambda p: str(Path(p).absolute())),
    *keys(int, "golden_count", "malicious_count", "seed"),
    *mount(DETECTION_KEYS, ("detection",)),
    *keys(parse_bool, "save_traces"),
    *mount(PROFILE_KEYS, ("profile",)),
    *mount(NOISE_LEVEL_KEYS, ("noise",), "noise."),
)
_ATTACK_PREFIX = "attack."
_ATTACK_FIELDS = keys(int, "layer", "position", "pair_offset") + (
    Key("payload", parse_payload, ("payload",), command_text),
)


def _attack_keys(attacks: dict[str, tuple[AttackSpec, ...]]) -> tuple[Key, ...]:
    """``attack.<row>[i].<field>`` keys for the specs in ``attacks``; the
    index is written only for rows of several specs."""
    table: list[Key] = []
    for row, specs in attacks.items():
        for i, group in enumerate(_attack_groups(row, specs)):
            table += mount(_ATTACK_FIELDS, ("attacks", row, i), f"{_ATTACK_PREFIX}{group}.")
    return tuple(table)


def _attack_groups(row: str, specs: tuple[AttackSpec, ...]) -> list[str]:
    """The name of each spec of ``row`` in config keys: the row, numbered
    when it holds several specs."""
    return [f"{row}{i}" for i in range(len(specs))] if len(specs) > 1 else [row]


def load_experiment_config(path: str | Path, base: ExperimentConfig) -> ExperimentConfig:
    """Apply an experiment config file onto ``base``, key by key.

    A key the file does not set keeps its ``base`` value.  A relative
    ``program`` is taken relative to the file's directory and made absolute;
    the program itself is not read.  Attack keys override single fields of
    ``base.attacks``.
    """
    pairs = read_kv_file(path)
    source = str(path)
    if "noise.seed" in pairs:
        raise ConfigError(
            f"{source}:{pairs['noise.seed'][0]}: 'noise.seed' is not used by experiments, "
            "which seed every print from the top-level 'seed' key; set 'seed' instead"
        )
    config = apply_pairs(base, _EXPERIMENT_KEYS + _attack_keys(base.attacks), pairs, source)
    program = config.program_path
    if "program" in pairs and program is not None and not Path(program).is_absolute():
        program = str(Path(path).parent.absolute() / program)
        config = dataclasses.replace(config, program_path=program)
    return config


def dump_experiment_config(config: ExperimentConfig) -> str:
    """The text of ``config.txt``: every key that ``config`` sets."""
    return dump_pairs(config, _EXPERIMENT_KEYS + _attack_keys(config.attacks))


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

def default_attacks(program: GCodeProgram | None = None) -> dict[str, tuple[AttackSpec, ...]]:
    """The four mutations, addressed against the benchmark layer layout;
    ``program`` is not read.

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

    Every program is built, checked and planned, and the ground truth
    (:func:`_ground_truth`) rendered from the plans, before anything is
    written.  The golden phase then holds one motor's golden traces, whose
    rows also hold its baseline's sd, and no other full-length array; every
    print is judged with the baselines read back from ``baselines/``, which
    give its series grids, and rendered and smoothed in one buffer per motor.

    Raises, before writing anything, :class:`AttackError` or
    :class:`PlanError` naming the row whose specs do not apply or whose
    program cannot be planned, :class:`ExperimentError` if they change no
    command, and any error of the unmodified program.  After writing
    artifacts it raises only the zero-false-positive gate's ExperimentError.
    """
    program = benchmark_object() if config.program_path is None else read_gcode(config.program_path)
    # Every row's program is built and checked before any program is planned.
    programs = {}
    for row in ATTACK_ROWS:
        programs[row] = program
        specs = config.attacks[row]
        for spec, group in zip(specs, _attack_groups(row, specs)):
            try:
                programs[row] = apply_attack(programs[row], spec)
            except AttackError as exc:
                raise AttackError(f"{_ATTACK_PREFIX}{group}: {exc}") from None
        if programs[row] == program:
            raise ExperimentError(f"{_ATTACK_PREFIX}{row}: the attack changes no command")
    plans = {"normal": plan_motion(program, config.profile)}
    for row in ATTACK_ROWS:
        try:
            plans[row] = plan_motion(programs[row], config.profile)
        except PlanError as exc:
            raise PlanError(f"{_ATTACK_PREFIX}{row}: {exc}") from None
    truth = _ground_truth(plans, config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(dump_experiment_config(config))

    baselines = _build_baselines(plans["normal"], config, out)
    grids = {motor: _series_grids(baseline) for motor, baseline in baselines.items()}
    # Made once the golden phase has freed its buffer, so the two never coexist.
    buffers = _print_buffers(max(tracesim.trace_length(p) for p in plans.values()))

    # The normal row runs first and is measured in every attack's span of
    # each motor, so each attack row's excess ratio compares like with like.
    # It reads each distinct span once: two attacks may share one.
    cells: dict[tuple[str, Motor], MatrixCell] = {}
    benign_excess: dict[Motor, dict[tuple[int, int], float]] = {}
    for index, row in enumerate(_ROWS):
        benign = row == "normal"
        first_seed = config.seed + _ROW_SEED_BASE + index * _ROW_SEED_STRIDE
        seeds = [first_seed + r for r in range(config.malicious_count)]
        row_truths = truth.values() if benign else [truth[row]]
        spans = {motor: sorted({t[motor] for t in row_truths if t.get(motor)}) for motor in MOTORS}
        flagged, span_excess = _run_row(
            row, plans[row], config, baselines, grids, seeds, out, spans, buffers
        )
        if benign:
            benign_excess = span_excess
        for motor in MOTORS:
            ratio = annotation = None
            if not benign:
                span = truth[row].get(motor)
                if span:
                    ratio = _ratio(span_excess[motor][span], benign_excess[motor][span])
                elif motor in truth[row]:  # identical renders
                    annotation = "no ground-truth disturbance"
            if flagged[motor] == len(seeds):
                outcome = CellOutcome.DETECTED
            elif ratio is not None and ratio >= _VISIBLE_FACTOR:
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


def _build_baselines(
    plan: MotionPlan, config: ExperimentConfig, out: Path
) -> dict[Motor, GoldenBaseline]:
    """Build and save each motor's baseline in turn from the program's plan,
    then read all four back from ``out/baselines`` and return them: the
    experiment judges with the files an operator would load, through the
    same checks, so no baseline holds a column.

    Each golden trace is rendered and aligned in its row of one buffer, and
    :func:`build_baseline` smooths it over that row and writes the sd over
    the second; the rows are reused from motor to motor, so the phase holds
    one motor's golden traces and no finished baseline, and makes its one
    large array.  A baseline's reference and sd view the first two rows, so
    it is saved before the next motor's renders.  Synthesis is reached
    through the ``tracesim`` module, where ``perfbench`` trace mode wraps it.
    """
    rows = np.empty((config.golden_count, tracesim.trace_length(plan)), dtype=np.float32)
    paths = {}
    for motor in MOTORS:
        golden = []
        for i, row in enumerate(rows):
            noise = dataclasses.replace(config.noise, seed=config.seed + _GOLDEN_SEED_BASE + i)
            trace = tracesim.synthesize_trace(plan, motor, config.profile, noise, row)
            if config.save_traces:
                save_trace(trace, out / "traces" / f"golden_{i:02d}_{motor.name}.ptrc")
            golden.append(align_to_trigger(trace))
        paths[motor] = out / "baselines" / f"{motor.name}.ptrb"
        save_baseline(build_baseline(golden, config.detection.smoothing_window, rows), paths[motor])
    return {motor: load_baseline(path) for motor, path in paths.items()}


def _series_grids(baseline: GoldenBaseline) -> np.ndarray:
    """Every ``_SERIES_STRIDE``-th cell of ``baseline``'s sd column and of
    its reference, in two float32 rows, read a block at a time through its
    reader and copied out of each block's reused scratch."""
    n = baseline.sample_count
    grids = np.empty((2, -(-n // _SERIES_STRIDE)), dtype=np.float32)
    for name, grid in zip(("pointwise_sd", "reference"), grids):
        with baseline._column_cells(name, 0) as read:
            for lo, block in _read_blocks(read, 0, n):
                at = -(-lo // _SERIES_STRIDE)  # the block's first grid cell
                cells = block[at * _SERIES_STRIDE - lo :: _SERIES_STRIDE]
                grid[at : at + len(cells)] = cells
    return grids


def _print_buffers(capacity: int) -> dict[Motor, np.ndarray]:
    """Each motor's reused buffer of ``capacity`` float32 samples, in one
    allocation: a print's raw trace is rendered into it, then smoothed over
    it."""
    return dict(zip(MOTORS, np.empty((len(MOTORS), capacity), dtype=np.float32)))


def _run_row(
    row: str,
    plan: MotionPlan,
    config: ExperimentConfig,
    baselines: dict[Motor, GoldenBaseline],
    grids: dict[Motor, tuple[np.ndarray, np.ndarray]],
    seeds: list[int],
    out: Path,
    spans: dict[Motor, list[tuple[int, int]]],
    buffers: dict[Motor, np.ndarray],
) -> tuple[dict[Motor, int], dict[Motor, dict[tuple[int, int], float]]]:
    """Simulate, classify and export one row's prints from its program's plan.

    Every print renders each motor's raw trace into its buffer in
    ``buffers`` and smooths the capture over it (see
    :func:`_print_buffers`), so no print allocates a full-length array.

    Each print is reduced to its verdicts and its mean excess inside each
    of a motor's ``spans`` as soon as its series are written; only those
    reductions are kept.  The raw traces are saved (with ``save_traces``)
    before they are smoothed over.  Each motor's deviation is then made
    only where the row reads it: on every ``_SERIES_STRIDE``-th sample,
    from the smoothed capture in its buffer and the reference grid in
    ``grids`` (:func:`_series_grids`), which is written, turned into its
    excess over the sd grid there in place and written again; and inside
    each span (:func:`_span_excess`), whose cells are read once, both
    columns together, through the motor's baseline in ``baselines``.  No
    full-length series is made, and no column is held.
    Returns the number of flagged prints per motor, and per motor and span
    the mean of those per-print means.
    """
    flagged = dict.fromkeys(MOTORS, 0)
    print_means: dict[Motor, dict[tuple[int, int], list[float]]] = {
        motor: {span: [] for span in spans.get(motor, ())} for motor in MOTORS
    }
    for run_index, seed in enumerate(seeds):
        traces = simulate_print(plan, config.profile, config.noise, seed=seed, out=buffers)
        if config.save_traces:
            for motor in MOTORS:
                save_trace(traces[motor], out / "traces" / f"{row}_run{run_index}_{motor.name}.ptrc")
        aligned = {motor: align_to_trigger(traces[motor]) for motor in MOTORS}
        result = detect_print(aligned, baselines, config.detection, buffers)
        for motor in MOTORS:
            rate = baselines[motor].sample_rate / _SERIES_STRIDE
            sd_grid, reference_grid = grids[motor]
            # detect_print smoothed the capture into the buffer's first samples.
            length = min(len(aligned[motor].samples), baselines[motor].sample_count)
            smoothed = buffers[motor][:length:_SERIES_STRIDE]
            grid = np.empty(len(smoothed))
            _deviation_into(smoothed, reference_grid[: len(grid)], grid)
            export_series_csv(grid, rate, out / _series_path(row, run_index, motor, "deviation"))
            _excess_over(grid, sd_grid[: len(grid)], out=grid)
            export_series_csv(grid, rate, out / _series_path(row, run_index, motor, "excess"))
            for lo, hi in print_means[motor]:
                mean = _span_excess(buffers[motor][lo : min(hi, length)], baselines[motor], lo)
                if mean is not None:
                    print_means[motor][lo, hi].append(mean)
            flagged[motor] += result.reports[motor].verdict is Verdict.MALICIOUS
        _write_run_report(out / "reports" / f"{row}_run{run_index}.txt", row, run_index, seed, result)
    span_excess = {
        motor: {span: float(np.mean(means)) if means else 0.0 for span, means in per_span.items()}
        for motor, per_span in print_means.items()
    }
    return flagged, span_excess


def _span_excess(smoothed: np.ndarray, baseline: GoldenBaseline, lo: int) -> float | None:
    """The mean excess over ``baseline``'s sd of the smoothed capture cells
    ``smoothed``, samples ``lo`` on, or ``None`` for none.  Both columns'
    cells are read once, in step, a block at a time, into one float64 part:
    numpy's mean of the whole part, not a sum of block sums, keeps its bits."""
    if not len(smoothed):
        return None
    part, hi = np.empty(len(smoothed)), lo + len(smoothed)
    with (
        baseline._column_cells("reference", lo) as reference,
        baseline._column_cells("pointwise_sd", lo) as sd,
    ):
        blocks = zip(_read_blocks(reference, lo, hi), _read_blocks(sd, lo, hi))
        for (at, reference_cells), (_, sd_cells) in blocks:
            block = slice(at - lo, at - lo + len(sd_cells))
            _deviation_into(smoothed[block], reference_cells, part[block])
            _excess_over(part[block], sd_cells, out=part[block])
    return float(np.mean(part))


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


# Every noise sd at 0: a render is the plan's ground truth.
_NOISE_FREE = NoiseModel(idle_noise_sd=0.0, phase_jitter_sd=0.0, amplitude_noise_sd=0.0)


def _ground_truth(
    plans: dict[str, MotionPlan], config: ExperimentConfig
) -> dict[str, dict[Motor, tuple[int, int] | None]]:
    """Where each attack row disturbs each motor, on the baseline timeline.

    Each motor's traces of the unmodified plan and of each row's plan are
    rendered noise-free into the two rows of one scratch array, through the
    ``tracesim`` module, and aligned: each row's from its
    :func:`tracesim.first_change` on, the unmodified plan's from the
    earliest of those.  A motor's span for a row runs from the first to the
    last sample where the two float32 renders differ, with no tolerance,
    widened by the smoothing window's reach (raw sample ``a`` reaches
    smoothed samples ``a - w//2`` to ``a + (w-1)//2``) and clipped to the
    baseline's length.  A motor whose renders are identical maps to
    ``None``; one whose renders differ only in length has no entry.
    """
    normal = plans["normal"]
    window = config.detection.smoothing_window
    length = tracesim.trace_length(normal) - tracesim.trigger_index(normal)
    scratch = np.empty((2, max(tracesim.trace_length(p) for p in plans.values())), dtype=np.float32)

    def render(plan: MotionPlan, motor: Motor, out: np.ndarray, start: int) -> np.ndarray:
        trace = tracesim.synthesize_trace(plan, motor, config.profile, _NOISE_FREE, out, start=start)
        return align_to_trigger(trace).samples

    truth: dict[str, dict[Motor, tuple[int, int] | None]] = {row: {} for row in ATTACK_ROWS}
    for motor in MOTORS:
        starts = {row: tracesim.first_change(normal, plans[row], motor) for row in ATTACK_ROWS}
        reference = render(normal, motor, scratch[0], min(starts.values()))
        for row in ATTACK_ROWS:
            attacked = render(plans[row], motor, scratch[1], starts[row])
            n = min(len(reference), len(attacked))
            skip = max(starts[row] - tracesim.trigger_index(plans[row]), 0)
            differs = reference[skip:n] != attacked[skip:n]
            if differs.any():
                first, last = skip + int(differs.argmax()), n - 1 - int(differs[::-1].argmax())
                lo, hi = first - window // 2, last + 1 + (window - 1) // 2
                truth[row][motor] = (max(lo, 0), min(hi, length))
            elif len(reference) == len(attacked):
                truth[row][motor] = None
    return truth


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
