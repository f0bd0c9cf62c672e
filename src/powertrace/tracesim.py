"""Synthetic single-phase motor-current traces.

Stands in for the current-probe/oscilloscope chain: each active segment of a
motion plan becomes a sinusoid at the segment's electrical frequency with
amplitude equal to the rated phase current, and each idle segment holds the
level where the preceding periodic section ended, plus high-frequency noise.

Model notes (all phenomenological, chosen for qualitative realism rather than
waveform fidelity):

* Microstepped drivers approximate a sinusoidal phase current, so the
  electrical frequency is the step frequency divided by
  ``STEPS_PER_ELECTRICAL_CYCLE`` (4 full steps per cycle at 1/16 microstepping).
* The electrical angle tracks the signed microstep position, so two prints of
  the same geometry agree on phase wherever their positions agree.  Each
  active segment additionally gets a small per-segment phase offset that does
  not accumulate, so runs stay aligned to within the jitter.
* The extruder gets larger jitter and amplitude noise than X/Y, and Z gets
  slightly larger jitter, which reproduces the elevated baseline variance
  those motors show on real hardware.

Randomness is reseeded per (seed, motor, segment index), so a trace prefix is
bit-identical between a benign and a mutated run up to the first changed
segment, and the same seed always reproduces the same samples.  Segment
``i`` draws from the generator ``np.random.default_rng([seed, motor.code,
i])`` would build.  That call spends most of its 20 us per segment hashing
the entropy words in numpy's ``SeedSequence``, so synthesis runs the same
uint32 hash for all of a trace's segments in one vectorized pass and hands
each segment's row to ``PCG64`` as its seed state.

A trace renders in one pass on up to 8 threads.  Each job is an active
segment and the idle segments that hold its end level, and each CPU the
process may use gets one contiguous block of jobs.  Each segment has its own
RNG and its own samples, so the output is identical for any CPU count.  Each
sample is written once, by its segment or as 0.0.  A render may start at any
sample: it then renders only the jobs that reach past it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .planner import MOTORS, Motor, MotionPlan, PrinterProfile, DEFAULT_PROFILE, plan_motion
from .gcode import GCodeProgram

__all__ = [
    "TraceSimError",
    "NyquistError",
    "SAMPLE_RATE",
    "STEPS_PER_ELECTRICAL_CYCLE",
    "PHASE_JITTER_SCALE",
    "AMPLITUDE_NOISE_SCALE",
    "NoiseModel",
    "DEFAULT_NOISE",
    "MotorTrace",
    "trace_length",
    "trigger_index",
    "first_change",
    "synthesize_trace",
    "simulate_print",
]

SAMPLE_RATE = 25_000.0

# Microsteps per electrical cycle: 4 full steps x 1/16 microstepping.
STEPS_PER_ELECTRICAL_CYCLE = 64.0

# Calibrated per-motor multipliers on the base noise model.  The extruder is
# the least repeatable motor on real prints and the Z hold levels wander more
# than X/Y between runs.
PHASE_JITTER_SCALE = {Motor.X: 1.0, Motor.Y: 1.0, Motor.Z: 1.2, Motor.E: 1.5}
AMPLITUDE_NOISE_SCALE = {Motor.X: 1.0, Motor.Y: 1.0, Motor.Z: 1.0, Motor.E: 2.0}

_TWO_PI = 2.0 * math.pi

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# hashmix and generate_state multiplier seeds and steps, mix multipliers,
# and the xorshift that ends each step.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# Threads that render one trace's segments or judge one print's motors: the
# CPUs this process may use, capped because a trace has only a few hundred
# segments.
_WORKERS = min(_usable_cpus(), 8)


class TraceSimError(ValueError):
    """Invalid synthesis input."""


class NyquistError(TraceSimError):
    """A segment's electrical frequency exceeds half the sample rate."""


@dataclass(frozen=True)
class NoiseModel:
    """Seeded Gaussian noise parameters, all standard deviations in amps/radians.

    ``idle_noise_sd`` is per-sample noise on hold levels, ``phase_jitter_sd``
    a per-segment phase offset (scaled per motor), ``amplitude_noise_sd``
    per-sample noise on active sections.
    """

    idle_noise_sd: float = 0.025
    phase_jitter_sd: float = 0.002
    amplitude_noise_sd: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("idle_noise_sd", "phase_jitter_sd", "amplitude_noise_sd"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise TraceSimError(f"{name} must be finite and >= 0")
        if self.seed < 0:
            raise TraceSimError("seed must be >= 0")


DEFAULT_NOISE = NoiseModel()


@dataclass(frozen=True, eq=False)
class MotorTrace:
    """Uniformly sampled current of one motor phase; loaders check samples are finite.

    ``smoothing_window`` is the moving-average window the samples were
    smoothed with: 1 for a raw capture, which ``detect.build_baseline`` smooths.
    """

    motor: Motor
    sample_rate: float
    samples: np.ndarray  # float32, read-only
    trigger_index: int
    smoothing_window: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise TraceSimError("sample_rate must be finite and > 0")
        samples = np.asarray(self.samples, dtype=np.float32)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if not (0 <= self.trigger_index < len(samples)):
            raise TraceSimError(
                f"trigger_index {self.trigger_index} outside trace of "
                f"{len(samples)} samples"
            )

    def __len__(self) -> int:
        return len(self.samples)


def trace_length(plan: MotionPlan) -> int:
    """The number of samples :func:`synthesize_trace` renders from ``plan``."""
    return max(int(round(plan.total_duration * SAMPLE_RATE)), 1)


def trigger_index(plan: MotionPlan) -> int:
    """The ``trigger_index`` of every trace :func:`synthesize_trace` renders from ``plan``."""
    return min(int(round(plan.trigger_time * SAMPLE_RATE)), trace_length(plan) - 1)


def first_change(reference: MotionPlan, attacked: MotionPlan, motor: Motor) -> int:
    """The raw sample where the plans' renders of ``motor`` can first differ
    (before it they read the same segments): 0 if their triggers differ, else
    the earlier start of their first differing segment, else the shorter length."""
    length = min(trace_length(reference), trace_length(attacked))
    if trigger_index(reference) != trigger_index(attacked):
        return 0
    ours, theirs = reference.segments.get(motor, ()), attacked.segments.get(motor, ())
    same = next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
    changed = [segments[same].start_time for segments in (ours, theirs) if same < len(segments)]
    return min([round(t * SAMPLE_RATE) for t in changed] + [length])


def synthesize_trace(
    plan: MotionPlan,
    motor: Motor,
    profile: PrinterProfile = DEFAULT_PROFILE,
    noise: NoiseModel = DEFAULT_NOISE,
    out: np.ndarray | None = None,
    *,
    start: int = 0,
) -> MotorTrace:
    """Render one motor's current trace from a motion plan at ``SAMPLE_RATE``.

    Same (plan, profile, noise) always yields bit-identical samples, whatever
    the number of threads the segments render on.  ``out``, when given, is a
    float32 array of at least :func:`trace_length` samples that a caller
    reuses from trace to trace: the samples are rendered into its first
    samples, and the trace is a view of them.  ``start`` renders only the
    tail: the jobs that reach past raw sample ``start``, each whole, so every
    sample from ``start`` on equals the full render's; skipped samples read
    0.0, and every segment is still checked.  Raises :class:`NyquistError`
    if any segment's electrical frequency is above ``SAMPLE_RATE / 2``,
    :class:`TraceSimError` if a segment's samples overlap an earlier
    segment's (planned segments tile time), and ``ValueError`` if ``out`` is
    not a float32 row that long or ``start`` is not in ``0..trace_length``.
    """
    segments = plan.segments.get(motor, ())
    total_samples = int(round(plan.total_duration * SAMPLE_RATE))
    length = trace_length(plan)
    if not 0 <= start <= length:
        raise ValueError(f"start {start} outside 0..{length}")
    # Segments compute in float64 and round once, as they are stored.
    out = np.empty(length, dtype=np.float32) if out is None else _buffer_prefix(out, length)

    amplitude = profile.rated_phase_current
    jitter_sd = noise.phase_jitter_sd * PHASE_JITTER_SCALE[motor]
    amp_sd = noise.amplitude_noise_sd * AMPLITUDE_NOISE_SCALE[motor]

    # Serial pre-pass: sample ranges, the overlap and Nyquist checks, each
    # active segment's starting phase, the jobs, and the zeros (ranges no
    # rendered segment covers).  The electrical angle tracks the signed shaft
    # position: phase is the accumulated microstep count over
    # STEPS_PER_ELECTRICAL_CYCLE, so two prints of the same geometry agree on
    # phase wherever their positions do.  A job is one active segment with
    # samples and the idle segments after it, which hold its end level; idle
    # segments before the first active one hold 0.0.  Segments without
    # samples render nothing.
    blocks: list[list[tuple]] = [[(None, [])]]
    zeros = []
    steps_position = 0.0
    rendered_to = longest = job_start = head = 0
    for index, segment in enumerate(segments):
        lo = int(round(segment.start_time * SAMPLE_RATE))
        hi = int(round((segment.start_time + segment.duration) * SAMPLE_RATE))
        lo, hi = min(lo, total_samples), min(hi, total_samples)
        jobs_end = rendered_to
        if hi > lo:
            # Segments render concurrently, so each must own its samples.
            if lo < rendered_to:
                raise TraceSimError(
                    f"{motor.name} segment at {segment.start_time:.3f}s "
                    f"overlaps the segment before it"
                )
            if lo > rendered_to:
                zeros.append((rendered_to, lo))
            rendered_to = hi
        if segment.step_frequency > 0.0:
            frequency = segment.step_frequency / STEPS_PER_ELECTRICAL_CYCLE
            if 2.0 * frequency > SAMPLE_RATE:
                raise NyquistError(
                    f"{motor.name} segment at {segment.start_time:.3f}s: "
                    f"{frequency:.1f} Hz exceeds Nyquist limit of "
                    f"{SAMPLE_RATE / 2:.1f} Hz"
                )
            if hi > lo:
                if jobs_end <= start:  # every job so far ends by start: skip them
                    blocks, zeros, head = [[]], [(0, lo)], lo
                # A job opens the next of up to _WORKERS blocks once its middle,
                # were it as long as the job before, passes this block's share
                # of the samples rendered from head on.
                middle, share = lo + (lo - job_start) / 2 - head, (length - head) * len(blocks)
                if blocks[-1] and len(blocks) < _WORKERS and middle * _WORKERS >= share:
                    blocks.append([])
                job_start = lo
                phase = _TWO_PI * steps_position / STEPS_PER_ELECTRICAL_CYCLE
                blocks[-1].append(((index, lo, hi, phase, segment.direction * frequency), []))
                longest = max(longest, hi - lo)
            steps_position += segment.direction * segment.step_frequency * segment.duration
        elif hi > lo:
            blocks[-1][-1][1].append((index, lo, hi))
    zeros.append((rendered_to, length))
    if rendered_to <= start:  # no job reaches past start
        blocks, zeros = [[]], [(0, length)]
    for lo, hi in zeros:
        out[lo:hi] = 0.0

    # Segment i's generator is np.random.default_rng([noise.seed, motor.code, i]).
    states = _seed_states(noise.seed, motor.code, len(segments))
    seeded = _seeded_generator()

    # Time is counted from the segment's first sample so that a whole-sample
    # shift of the plan reproduces samples bit-exactly; every active segment
    # reads a prefix of one shared time axis.
    t = np.arange(longest, dtype=np.float64) / SAMPLE_RATE

    def render_active(index: int, lo: int, hi: int, phase: float, signed_frequency: float) -> float:
        rng = seeded(states[index])
        jitter = rng.normal(0.0, jitter_sd) if jitter_sd > 0 else 0.0
        # amplitude * sin(phase + jitter + 2*pi*f*t), one operation at a time
        # in a single buffer.
        values = t[: hi - lo] * (_TWO_PI * signed_frequency)
        values += phase + jitter
        np.sin(values, out=values)
        values *= amplitude
        # The winding settles to the latched electrical angle, noise-free;
        # measurement noise rides on top of the samples only.
        hold = float(values[-1])
        if amp_sd > 0:
            values += _noise(rng, amp_sd, hi - lo)
        out[lo:hi] = values
        return hold

    def render_block(block: list[tuple]) -> None:
        # Each segment writes only its own samples, with its own RNG, so any
        # split into blocks gives the same samples.  numpy releases the GIL in
        # np.sin and Generator.standard_normal, where the time goes.
        for active, idle in block:
            hold = render_active(*active) if active else 0.0
            for index, lo, hi in idle:
                if noise.idle_noise_sd > 0:
                    values = _noise(seeded(states[index]), noise.idle_noise_sd, hi - lo)
                    values += hold
                    out[lo:hi] = values
                else:
                    out[lo:hi] = hold

    _map_on_threads(render_block, blocks)

    return MotorTrace(
        motor=motor,
        sample_rate=SAMPLE_RATE,
        samples=out,
        trigger_index=trigger_index(plan),
    )


def _seed_states(seed: int, code: int, count: int) -> np.ndarray:
    """Row ``i`` is ``SeedSequence([seed, code, i]).generate_state(4, np.uint64)``.

    numpy's hash of the entropy words (the seed's little-endian 32-bit
    words, ``code``, ``i``), run on all ``count`` word lists at once as
    uint32 arithmetic that wraps as numpy's does.  Returns a C-contiguous
    ``(count, 4)`` uint64 array.
    """
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words.append(code)
    # One entropy word per row, one list per column, zero-padded to the pool.
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count, dtype=np.uint32)

    # The pool takes a hashmix per pool word, one per ordered pair of
    # distinct pool words and _POOL_SIZE per entropy word past the pool:
    # _POOL_SIZE * len(entropy) in all.
    consts = _powers(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[used : used + _POOL_SIZE]))
        used += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[used : used + _POOL_SIZE + 1]))
        used += _POOL_SIZE
    # generate_state(4, np.uint64): 8 uint32 words cycling the pool, read
    # as little-endian pairs.
    state = _hashmix(np.concatenate((pool, pool)), _powers(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32 for k in 0..count, as a uint32 column."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, step ``k`` on row ``k`` of ``values`` (on all
    of a one-dimensional ``values``): xor the hash constant ``consts[k]``,
    multiply by the next one, ``consts[k + 1]``, then xorshift."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x ^= x >> _XSHIFT
    return x


@functools.cache
def _seeded_generator() -> Callable[[np.ndarray], np.random.Generator]:
    """``state -> np.random.Generator(np.random.PCG64(s))``, where ``s`` hands
    ``PCG64`` the row ``state`` as its ``generate_state(4, np.uint64)``."""
    # Imported here: importing numpy.random costs about 10 ms in every
    # fresh process, and only synthesis draws random numbers.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.state  # PCG64 asks only for 4 uint64 words

    return lambda state: Generator(PCG64(SeedState(state)))


def _noise(rng: np.random.Generator, sd: float, count: int) -> np.ndarray:
    """``rng.normal(0.0, sd, count)``, whose samples are ``0.0 + sd * z`` on
    the same ``standard_normal`` draws, scaled in place.  The two differ
    only where ``sd * z`` is -0.0, and adding the sample it rides on, never
    -0.0 itself, gives the same sum either way."""
    values = rng.standard_normal(count)
    values *= sd
    return values


def _map_on_threads(fn: Callable, items: list) -> list:
    """``[fn(item) for item in items]``, the items spread over up to ``_WORKERS`` threads."""
    threads = min(_WORKERS, len(items))
    if threads <= 1:
        return [fn(item) for item in items]

    # Imported here: it costs milliseconds in every fresh process.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


def _buffer_prefix(out: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` samples of a caller's reused float32 buffer, as a
    new view, so that marking a trace's samples read-only leaves the buffer
    writable.  A buffer that cannot hold them is the caller's error."""
    if out.dtype != np.float32 or out.ndim != 1 or len(out) < length:
        raise ValueError(
            f"out must be a float32 row of at least {length} samples, "
            f"not {out.dtype} of shape {out.shape}"
        )
    return out[:length]


def simulate_print(
    program: GCodeProgram | MotionPlan,
    profile: PrinterProfile = DEFAULT_PROFILE,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int | None = None,
    out: Mapping[Motor, np.ndarray] | None = None,
) -> dict[Motor, MotorTrace]:
    """Simulate one print: one trace per motor, equal length, shared trigger.

    ``program`` may be given as its motion plan under ``profile``, which a
    caller that simulates one program many times makes once.  ``seed``
    overrides ``noise.seed`` when given, which is how the harness varies
    runs without rebuilding the noise model.  ``out``, when given, holds
    each motor's reused buffer, which its trace is rendered into as
    :func:`synthesize_trace` renders into ``out``.
    """
    if seed is not None:
        noise = dataclasses.replace(noise, seed=seed)
    plan = program if isinstance(program, MotionPlan) else plan_motion(program, profile)
    return {
        motor: synthesize_trace(plan, motor, profile, noise, None if out is None else out[motor])
        for motor in MOTORS
    }
