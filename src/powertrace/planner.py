"""Deterministic firmware-equivalent motion planning.

Translates a parsed program into per-motor activation timelines: for every
move, each involved axis gets one constant-rate active segment and every
other axis gets an idle segment of the same duration, so all four motors
tile [0, total_duration] identically.  No acceleration or lookahead is
modelled; the detector downstream cares about activity timing and
periodicity, not ramp shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .gcode import GCodeProgram

__all__ = [
    "PlanError",
    "Motor",
    "MOTORS",
    "AxisValues",
    "PrinterProfile",
    "DEFAULT_PROFILE",
    "MotionSegment",
    "MotionPlan",
    "plan_motion",
    "command_start_times",
]

_FEED_EPS = 1e-9


class PlanError(ValueError):
    """Program cannot be planned under the given profile."""


class Motor(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    E = "e"

    @property
    def code(self) -> int:
        return MOTORS.index(self)


MOTORS: tuple[Motor, ...] = (Motor.X, Motor.Y, Motor.Z, Motor.E)


@dataclass(frozen=True)
class AxisValues:
    """One positive value per axis (steps/mm or mm/min limits)."""

    x: float
    y: float
    z: float
    e: float

    def __post_init__(self) -> None:
        for motor in MOTORS:
            value = self.get(motor)
            if not (math.isfinite(value) and value > 0):
                raise PlanError(f"axis value for {motor.name} must be finite and > 0")

    def get(self, motor: Motor) -> float:
        return getattr(self, motor.value)


@dataclass(frozen=True)
class PrinterProfile:
    """Cartesian printer constants used by the planner and simulator.

    The defaults are tuned so the bundled benchmark object prints in roughly
    75 s with every step frequency inside (0, 200] Hz; see DEFAULT_PROFILE.
    """

    steps_per_mm: AxisValues
    max_feed: AxisValues
    rated_phase_current: float = 1.5
    default_feed: float = 960.0

    def __post_init__(self) -> None:
        for name in ("rated_phase_current", "default_feed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise PlanError(f"{name} must be finite and > 0")


# steps_per_mm count microsteps as emitted by the driver; the simulator folds
# them into electrical cycles (see tracesim.STEPS_PER_ELECTRICAL_CYCLE).
DEFAULT_PROFILE = PrinterProfile(
    steps_per_mm=AxisValues(x=8.0, y=8.0, z=2.2, e=0.6),
    max_feed=AxisValues(x=1500.0, y=1500.0, z=60.0, e=120.0),
    rated_phase_current=1.5,
    default_feed=960.0,
)


@dataclass(frozen=True)
class MotionSegment:
    """One contiguous stretch of motor (in)activity.

    ``step_frequency`` is 0 for idle segments and the microstep rate in Hz
    while the motor is driven; ``direction`` is the sign of the displacement,
    which the simulator needs because the electrical angle tracks the signed
    shaft position.
    """

    start_time: float
    duration: float
    step_frequency: float
    motor: Motor
    direction: int = 1


@dataclass(frozen=True)
class MotionPlan:
    segments: dict[Motor, tuple[MotionSegment, ...]]
    total_duration: float
    trigger_time: float


def plan_motion(program: GCodeProgram, profile: PrinterProfile = DEFAULT_PROFILE) -> MotionPlan:
    """Plan a program: one segment per motor per timed command, in order.

    Feed comes from the command's F word, else the last seen F word, else the
    profile default.  A move whose per-axis velocity component exceeds that
    axis's max_feed raises PlanError; the planner never clamps silently.
    """
    timings, per_axis = _command_timings(program, profile)
    segments: dict[Motor, list[MotionSegment]] = {motor: [] for motor in MOTORS}
    for (start, duration), displacements in zip(timings, per_axis):
        if duration <= 0.0:
            continue
        for motor in MOTORS:
            displacement = displacements[motor]
            frequency = abs(displacement) * profile.steps_per_mm.get(motor) / duration
            segments[motor].append(
                MotionSegment(
                    start_time=start,
                    duration=duration,
                    step_frequency=frequency,
                    motor=motor,
                    direction=-1 if displacement < 0 else 1,
                )
            )
    total = timings[-1][0] + timings[-1][1] if timings else 0.0
    return MotionPlan(
        segments={motor: tuple(segs) for motor, segs in segments.items()},
        total_duration=total,
        trigger_time=_trigger_time(program, timings),
    )


def command_start_times(program: GCodeProgram, profile: PrinterProfile = DEFAULT_PROFILE) -> list[float]:
    """Start time of every command, zero-duration commands included."""
    timings, _ = _command_timings(program, profile)
    return [start for start, _ in timings]


def _command_timings(
    program: GCodeProgram, profile: PrinterProfile
) -> tuple[list[tuple[float, float]], list[dict[Motor, float]]]:
    position = {Motor.X: 0.0, Motor.Y: 0.0, Motor.Z: 0.0, Motor.E: 0.0}
    modal_feed: float | None = None
    clock = 0.0
    timings: list[tuple[float, float]] = []
    per_axis: list[dict[Motor, float]] = []

    for index, cmd in enumerate(program.commands):
        duration = 0.0
        displacements = {motor: 0.0 for motor in MOTORS}
        if cmd.is_move:
            if cmd.feed is not None:
                if cmd.feed <= 0:
                    raise PlanError(f"command {index}: feed must be > 0")
                modal_feed = cmd.feed
            feed = modal_feed if modal_feed is not None else profile.default_feed

            target = {
                Motor.X: cmd.x if cmd.x is not None else position[Motor.X],
                Motor.Y: cmd.y if cmd.y is not None else position[Motor.Y],
                Motor.Z: cmd.z if cmd.z is not None else position[Motor.Z],
                Motor.E: cmd.extrusion if cmd.extrusion is not None else position[Motor.E],
            }
            displacements = {motor: target[motor] - position[motor] for motor in MOTORS}
            path = math.sqrt(
                displacements[Motor.X] ** 2
                + displacements[Motor.Y] ** 2
                + displacements[Motor.Z] ** 2
            )
            # Extrusion-only moves are paced by the filament distance.
            length = path if path > 0.0 else abs(displacements[Motor.E])
            if length > 0.0:
                duration = length / (feed / 60.0)
                for motor in MOTORS:
                    velocity = abs(displacements[motor]) / duration
                    limit = profile.max_feed.get(motor) / 60.0
                    if velocity > limit + _FEED_EPS:
                        raise PlanError(
                            f"command {index}: {motor.name} axis at "
                            f"{velocity * 60.0:.1f} mm/min exceeds max feed "
                            f"{profile.max_feed.get(motor):.1f} mm/min"
                        )
            position = target
        timings.append((clock, duration))
        per_axis.append(displacements)
        clock += duration
    return timings, per_axis


def _trigger_time(program: GCodeProgram, timings: list[tuple[float, float]]) -> float:
    """Falling-edge trigger: the start of the first layer's first command."""
    if not program.layers or not timings:
        return 0.0
    return timings[program.layers[0]][0]
