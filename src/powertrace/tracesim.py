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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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
    """Uniformly sampled current signal for one motor phase."""

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
        if not np.all(np.isfinite(samples)):
            raise TraceSimError("trace samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def synthesize_trace(
    plan: MotionPlan,
    motor: Motor,
    profile: PrinterProfile = DEFAULT_PROFILE,
    noise: NoiseModel = DEFAULT_NOISE,
) -> MotorTrace:
    """Render one motor's current trace from a motion plan at ``SAMPLE_RATE``.

    Same (plan, profile, noise) always yields bit-identical samples.  Raises
    :class:`NyquistError` if any segment's electrical frequency is above
    ``SAMPLE_RATE / 2``.
    """
    segments = plan.segments.get(motor, ())
    total_samples = int(round(plan.total_duration * SAMPLE_RATE))
    out = np.zeros(max(total_samples, 1), dtype=np.float64)

    amplitude = profile.rated_phase_current
    jitter_sd = noise.phase_jitter_sd * PHASE_JITTER_SCALE[motor]
    amp_sd = noise.amplitude_noise_sd * AMPLITUDE_NOISE_SCALE[motor]

    # The electrical angle tracks the signed shaft position: phase is the
    # accumulated microstep count over STEPS_PER_ELECTRICAL_CYCLE, so two
    # prints of the same geometry agree on phase wherever their positions do.
    steps_position = 0.0
    hold = 0.0  # level where the last periodic section ended
    for index, segment in enumerate(segments):
        lo = int(round(segment.start_time * SAMPLE_RATE))
        hi = int(round((segment.start_time + segment.duration) * SAMPLE_RATE))
        lo, hi = min(lo, total_samples), min(hi, total_samples)
        rng = np.random.default_rng([noise.seed, motor.code, index])
        if segment.step_frequency > 0.0:
            frequency = segment.step_frequency / STEPS_PER_ELECTRICAL_CYCLE
            if 2.0 * frequency > SAMPLE_RATE:
                raise NyquistError(
                    f"{motor.name} segment at {segment.start_time:.3f}s: "
                    f"{frequency:.1f} Hz exceeds Nyquist limit of "
                    f"{SAMPLE_RATE / 2:.1f} Hz"
                )
            jitter = rng.normal(0.0, jitter_sd) if jitter_sd > 0 else 0.0
            phase = _TWO_PI * steps_position / STEPS_PER_ELECTRICAL_CYCLE
            signed_frequency = segment.direction * frequency
            if hi > lo:
                # Time is counted from the segment's first sample so that a
                # whole-sample shift of the plan reproduces samples bit-exactly.
                t = np.arange(hi - lo, dtype=np.float64) / SAMPLE_RATE
                values = amplitude * np.sin(phase + jitter + _TWO_PI * signed_frequency * t)
                # The winding settles to the latched electrical angle, noise-free;
                # measurement noise rides on top of the samples only.
                hold = float(values[-1])
                if amp_sd > 0:
                    values = values + rng.normal(0.0, amp_sd, hi - lo)
                out[lo:hi] = values
            steps_position += segment.direction * segment.step_frequency * segment.duration
        else:
            if hi > lo:
                values = np.full(hi - lo, hold, dtype=np.float64)
                if noise.idle_noise_sd > 0:
                    values += rng.normal(0.0, noise.idle_noise_sd, hi - lo)
                out[lo:hi] = values

    trigger_index = min(int(round(plan.trigger_time * SAMPLE_RATE)), len(out) - 1)
    return MotorTrace(
        motor=motor,
        sample_rate=SAMPLE_RATE,
        samples=out.astype(np.float32),
        trigger_index=trigger_index,
    )


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
