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
segment, and the same seed always reproduces the same samples.

A trace renders in one pass on up to 8 threads.  Each job is an active
segment and the idle segments that hold its end level, and each CPU the
process may use gets one contiguous block of jobs.  Each segment has its own
RNG and its own samples, so the output is identical for any CPU count.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable

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
    """Uniformly sampled current of one motor phase; loaders check samples are finite."""

    motor: Motor
    sample_rate: float
    samples: np.ndarray  # float32, read-only
    trigger_index: int

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


def synthesize_trace(
    plan: MotionPlan,
    motor: Motor,
    profile: PrinterProfile = DEFAULT_PROFILE,
    noise: NoiseModel = DEFAULT_NOISE,
) -> MotorTrace:
    """Render one motor's current trace from a motion plan at ``SAMPLE_RATE``.

    Same (plan, profile, noise) always yields bit-identical samples, whatever
    the number of threads the segments render on.  Raises
    :class:`NyquistError` if any segment's electrical frequency is above
    ``SAMPLE_RATE / 2``, and :class:`TraceSimError` if a segment's samples
    overlap an earlier segment's (planned segments tile time).
    """
    segments = plan.segments.get(motor, ())
    total_samples = int(round(plan.total_duration * SAMPLE_RATE))
    # Segments compute in float64 and round once, as they are stored.
    out = np.zeros(max(total_samples, 1), dtype=np.float32)

    amplitude = profile.rated_phase_current
    jitter_sd = noise.phase_jitter_sd * PHASE_JITTER_SCALE[motor]
    amp_sd = noise.amplitude_noise_sd * AMPLITUDE_NOISE_SCALE[motor]

    # Serial pre-pass: sample ranges, the overlap and Nyquist checks, each
    # active segment's starting phase, and the jobs.  The electrical angle
    # tracks the signed shaft position: phase is the accumulated microstep
    # count over STEPS_PER_ELECTRICAL_CYCLE, so two prints of the same
    # geometry agree on phase wherever their positions do.  A job is one
    # active segment with samples and the idle segments after it, which hold
    # its end level; idle segments before the first active one hold 0.0.
    # Segments without samples render nothing.
    blocks: list[list[tuple]] = [[(None, [])]]
    steps_position = 0.0
    rendered_to = longest = job_start = 0
    for index, segment in enumerate(segments):
        lo = int(round(segment.start_time * SAMPLE_RATE))
        hi = int(round((segment.start_time + segment.duration) * SAMPLE_RATE))
        lo, hi = min(lo, total_samples), min(hi, total_samples)
        if hi > lo:
            # Segments render concurrently, so each must own its samples.
            if lo < rendered_to:
                raise TraceSimError(
                    f"{motor.name} segment at {segment.start_time:.3f}s "
                    f"overlaps the segment before it"
                )
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
                # A job opens the next of up to _WORKERS blocks once its middle,
                # were it as long as the job before, passes this block's share.
                middle = lo + (lo - job_start) / 2
                if len(blocks) < _WORKERS and middle * _WORKERS >= total_samples * len(blocks):
                    blocks.append([])
                job_start = lo
                phase = _TWO_PI * steps_position / STEPS_PER_ELECTRICAL_CYCLE
                blocks[-1].append(((index, lo, hi, phase, segment.direction * frequency), []))
                longest = max(longest, hi - lo)
            steps_position += segment.direction * segment.step_frequency * segment.duration
        elif hi > lo:
            blocks[-1][-1][1].append((index, lo, hi))

    # Time is counted from the segment's first sample so that a whole-sample
    # shift of the plan reproduces samples bit-exactly; every active segment
    # reads a prefix of one shared time axis.
    t = np.arange(longest, dtype=np.float64) / SAMPLE_RATE

    def render_active(index: int, lo: int, hi: int, phase: float, signed_frequency: float) -> float:
        rng = np.random.default_rng([noise.seed, motor.code, index])
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
            values += rng.normal(0.0, amp_sd, hi - lo)
        out[lo:hi] = values
        return hold

    def render_block(block: list[tuple]) -> None:
        # Each segment writes only its own samples, with its own RNG, so any
        # split into blocks gives the same samples.  numpy releases the GIL in
        # np.sin and Generator.normal, where the time goes.
        for active, idle in block:
            hold = render_active(*active) if active else 0.0
            for index, lo, hi in idle:
                if noise.idle_noise_sd > 0:
                    rng = np.random.default_rng([noise.seed, motor.code, index])
                    values = rng.normal(0.0, noise.idle_noise_sd, hi - lo)
                    values += hold
                    out[lo:hi] = values
                else:
                    out[lo:hi] = hold

    _map_on_threads(render_block, blocks)

    trigger_index = min(int(round(plan.trigger_time * SAMPLE_RATE)), len(out) - 1)
    return MotorTrace(
        motor=motor,
        sample_rate=SAMPLE_RATE,
        samples=out,
        trigger_index=trigger_index,
    )


def _map_on_threads(fn: Callable, items: list) -> list:
    """``[fn(item) for item in items]``, the items spread over up to ``_WORKERS`` threads."""
    threads = min(_WORKERS, len(items))
    if threads <= 1:
        return [fn(item) for item in items]

    # Imported here: it costs milliseconds in every fresh process.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


def simulate_print(
    program: GCodeProgram,
    profile: PrinterProfile = DEFAULT_PROFILE,
    noise: NoiseModel = DEFAULT_NOISE,
    seed: int | None = None,
) -> dict[Motor, MotorTrace]:
    """Simulate one print: one trace per motor, equal length, shared trigger.

    ``seed`` overrides ``noise.seed`` when given, which is how the harness
    varies runs without rebuilding the noise model.
    """
    if seed is not None:
        noise = dataclasses.replace(noise, seed=seed)
    plan = plan_motion(program, profile)
    return {
        motor: synthesize_trace(plan, motor, profile, noise)
        for motor in MOTORS
    }
