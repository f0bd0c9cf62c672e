import math

import pytest

from powertrace.attacks import AttackKind, AttackSpec, inject_insert, inject_void
from powertrace.gcode import Command, CommandKind, parse_gcode
from powertrace.harness import benchmark_object
from powertrace.planner import (
    DEFAULT_PROFILE,
    MOTORS,
    AxisValues,
    Motor,
    PlanError,
    PrinterProfile,
    command_start_times,
    plan_motion,
)


def _profile(steps_x=80.0, max_x=60000.0):
    return PrinterProfile(
        steps_per_mm=AxisValues(x=steps_x, y=8.0, z=2.2, e=0.6),
        max_feed=AxisValues(x=max_x, y=60000.0, z=60000.0, e=60000.0),
        default_feed=960.0,
    )


class TestSingleMove:
    def test_duration_and_step_frequency(self):
        # 10 mm at 600 mm/min is exactly one second of motion.
        program = parse_gcode("G1 X10 F600\n")
        plan = plan_motion(program, _profile(steps_x=80.0))
        seg = plan.segments[Motor.X][0]
        assert seg.duration == pytest.approx(1.0)
        assert seg.step_frequency == pytest.approx(800.0)

    def test_scaled_steps_keep_frequency_in_band(self):
        program = parse_gcode("G1 X10 F600\n")
        plan = plan_motion(program, _profile(steps_x=8.0))
        assert plan.segments[Motor.X][0].step_frequency == pytest.approx(80.0)
        assert plan.segments[Motor.X][0].step_frequency <= 200.0

    def test_uninvolved_axes_idle(self):
        program = parse_gcode("G1 X10 F600\n")
        plan = plan_motion(program, _profile())
        for motor in (Motor.Y, Motor.Z, Motor.E):
            assert [s.step_frequency for s in plan.segments[motor]] == [0.0]
            assert plan.segments[motor][0].duration == pytest.approx(1.0)

    def test_negative_displacement_sets_direction(self):
        program = parse_gcode("G1 X10 F600\nG1 X4\n")
        plan = plan_motion(program, _profile())
        assert plan.segments[Motor.X][0].direction == 1
        assert plan.segments[Motor.X][1].direction == -1
        assert plan.segments[Motor.X][1].step_frequency > 0


class TestFeedHandling:
    def test_modal_feed_carries_over(self):
        program = parse_gcode("G1 X10 F600\nG1 X20\n")
        plan = plan_motion(program, _profile())
        assert plan.segments[Motor.X][1].duration == pytest.approx(1.0)

    def test_feed_only_line_updates_modal_feed(self):
        program = parse_gcode("G1 F600\nG1 X10\n")
        plan = plan_motion(program, _profile())
        assert plan.total_duration == pytest.approx(1.0)

    def test_default_feed_used_without_f_word(self):
        program = parse_gcode("G1 X16\n")
        plan = plan_motion(program, _profile())  # default 960 mm/min = 16 mm/s
        assert plan.total_duration == pytest.approx(1.0)

    def test_overspeed_is_an_error_not_a_clamp(self):
        program = parse_gcode("G1 X10 F9000\n")
        with pytest.raises(PlanError, match="exceeds max feed"):
            plan_motion(program, _profile(max_x=1500.0))

    def test_axis_component_overspeed_detected(self):
        # The E component outruns its limit even though XY speed is legal.
        program = parse_gcode("G1 X1 E50 F600\n")
        profile = PrinterProfile(
            steps_per_mm=AxisValues(x=8.0, y=8.0, z=2.2, e=0.6),
            max_feed=AxisValues(x=1500.0, y=1500.0, z=60.0, e=120.0),
        )
        with pytest.raises(PlanError, match="E axis"):
            plan_motion(program, profile)

    def test_extrusion_only_move_paced_by_filament(self):
        program = parse_gcode("G1 E2 F120\n")
        plan = plan_motion(program, _profile())
        assert plan.total_duration == pytest.approx(1.0)
        assert plan.segments[Motor.E][0].step_frequency > 0


class TestPlanShape:
    def test_duration_is_additive(self):
        program = parse_gcode("G1 X10 F600\nG1 X20\n")
        plan = plan_motion(program, _profile())
        assert plan.total_duration == pytest.approx(2.0)

    def test_empty_program_is_empty_plan(self):
        plan = plan_motion(parse_gcode(""))
        assert plan.total_duration == 0.0
        assert all(not segs for segs in plan.segments.values())

    def test_segments_tile_the_timeline(self, tiny_program):
        plan = plan_motion(tiny_program)
        for motor in MOTORS:
            clock = 0.0
            for seg in plan.segments[motor]:
                assert seg.start_time == pytest.approx(clock, abs=1e-12)
                assert seg.duration > 0
                clock += seg.duration
            assert clock == pytest.approx(plan.total_duration)

    def test_trigger_is_first_layer_start(self, tiny_program):
        plan = plan_motion(tiny_program)
        starts = command_start_times(tiny_program)
        first_layer_cmd = tiny_program.layers[0]
        assert plan.trigger_time == starts[first_layer_cmd]
        assert 0.0 <= plan.trigger_time <= plan.total_duration

    def test_determinism(self, tiny_program):
        assert plan_motion(tiny_program) == plan_motion(tiny_program)


class TestBenchmarkPlan:
    def test_duration_near_75_seconds(self):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        assert plan.total_duration == pytest.approx(75.0, rel=0.10)

    def test_z_active_only_at_layer_transitions(self):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        active = [s for s in plan.segments[Motor.Z] if s.step_frequency > 0]
        assert len(active) == 10

    def test_step_frequencies_in_band(self):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        for motor in MOTORS:
            for seg in plan.segments[motor]:
                if seg.step_frequency > 0:
                    assert 0.0 < seg.step_frequency <= 200.0


class TestMutationProperties:
    def test_insert_shifts_later_starts_by_payload_duration(self):
        # An extrusion-only insert leaves every other command's geometry
        # untouched, so the timeline shifts by exactly its duration.  E words
        # are absolute, so the payload extrudes 2 mm past the current filament
        # position.
        program = benchmark_object()
        current_e = max(
            c.extrusion
            for c in program.commands[: program.command_index(7, 1)]
            if c.extrusion is not None
        )
        payload = Command(kind=CommandKind.LINEAR_MOVE, extrusion=current_e + 2.0, feed=120.0)
        spec = AttackSpec(kind=AttackKind.INSERT, layer=7, position=1, payload=payload)
        mutated = inject_insert(program, spec)

        benign = plan_motion(program)
        attacked = plan_motion(mutated)
        index = program.command_index(7, 1)
        benign_starts = command_start_times(program)
        attacked_starts = command_start_times(mutated)
        duration = attacked_starts[index + 1] - attacked_starts[index]
        assert duration > 0
        assert attacked_starts[: index + 1] == benign_starts[: index + 1]
        for k in range(index, len(benign_starts)):
            assert attacked_starts[k + 1] - benign_starts[k] == pytest.approx(
                duration, abs=1e-9
            )
        assert attacked.total_duration - benign.total_duration == pytest.approx(
            duration, abs=1e-9
        )

    def test_void_leaves_xyz_plans_identical_and_idles_extruder(self):
        program = benchmark_object()
        spec = AttackSpec(kind=AttackKind.VOID, layer=7, position=2)
        mutated = inject_void(program, spec)
        benign = plan_motion(program)
        attacked = plan_motion(mutated)
        for motor in (Motor.X, Motor.Y, Motor.Z):
            assert attacked.segments[motor] == benign.segments[motor]
        index = program.command_index(7, 2)
        start = command_start_times(program)[index]
        changed = [
            (a, b)
            for a, b in zip(benign.segments[Motor.E], attacked.segments[Motor.E])
            if a != b
        ]
        # Exactly two E segments differ: the voided one goes idle, and the
        # next extruding command catches up the skipped absolute-E distance at
        # a higher step rate but identical timing.
        assert len(changed) == 2
        before, after = changed[0]
        assert before.start_time == pytest.approx(start)
        assert before.step_frequency > 0
        assert after.step_frequency == 0.0
        assert after.duration == before.duration
        catchup_before, catchup_after = changed[1]
        assert catchup_after.start_time == catchup_before.start_time
        assert catchup_after.duration == catchup_before.duration
        assert catchup_after.step_frequency > catchup_before.step_frequency


def test_axis_values_must_be_positive():
    with pytest.raises(PlanError):
        AxisValues(x=0.0, y=1.0, z=1.0, e=1.0)


def test_default_profile_respects_band_at_max_feed():
    for motor in MOTORS:
        steps = DEFAULT_PROFILE.steps_per_mm.get(motor)
        limit = DEFAULT_PROFILE.max_feed.get(motor)
        assert steps * limit / 60.0 <= 200.0 + 1e-9


def test_path_length_is_euclidean():
    program = parse_gcode("G1 X3 Y4 F600\n")
    plan = plan_motion(program, _profile())
    assert plan.total_duration == pytest.approx(5.0 / 10.0)
    assert math.isclose(
        plan.segments[Motor.X][0].step_frequency,
        3.0 * 80.0 / 0.5,
    )
