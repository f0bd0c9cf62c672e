import dataclasses

import numpy as np
import pytest

from powertrace.attacks import AttackKind, AttackSpec, inject_insert
from powertrace.gcode import Command, CommandKind, parse_gcode
from powertrace.planner import DEFAULT_PROFILE, MOTORS, Motor, plan_motion
from powertrace.tracesim import (
    AMPLITUDE_NOISE_SCALE,
    DEFAULT_NOISE,
    SAMPLE_RATE,
    MotorTrace,
    NoiseModel,
    NyquistError,
    TraceSimError,
    simulate_print,
    synthesize_trace,
)

QUIET = NoiseModel(idle_noise_sd=0.0, phase_jitter_sd=0.0, amplitude_noise_sd=0.0, seed=0)


def _plan(text):
    return plan_motion(parse_gcode(text), DEFAULT_PROFILE)


class TestNyquist:
    def test_synthesis_rejects_sub_nyquist_rate(self):
        # 10 mm/s at 1e6 steps/mm is 156,250 Hz electrical, above 12,500 Hz.
        steps = dataclasses.replace(DEFAULT_PROFILE.steps_per_mm, x=1e6)
        profile = dataclasses.replace(DEFAULT_PROFILE, steps_per_mm=steps)
        plan = plan_motion(parse_gcode("G1 X10 F600\n"), profile)
        with pytest.raises(NyquistError, match="exceeds Nyquist limit of 12500.0 Hz"):
            synthesize_trace(plan, Motor.X, profile, noise=QUIET)


class TestWaveform:
    def test_default_sample_rate_is_25k(self, tiny_program):
        traces = simulate_print(tiny_program, noise=QUIET)
        assert all(t.sample_rate == 25_000.0 for t in traces.values())
        assert SAMPLE_RATE == 25_000.0

    def test_idle_only_plan_is_constant_at_initial_level(self):
        plan = _plan("G1 X10 F600\n")
        trace = synthesize_trace(plan, Motor.Y, noise=QUIET)
        assert np.all(trace.samples == 0.0)

    def test_active_section_is_a_rated_amplitude_sinusoid(self):
        plan = _plan("G1 X10 F600\n")
        trace = synthesize_trace(plan, Motor.X, noise=QUIET)
        assert trace.samples.max() == pytest.approx(DEFAULT_PROFILE.rated_phase_current, abs=1e-3)
        assert trace.samples.min() == pytest.approx(-DEFAULT_PROFILE.rated_phase_current, abs=1e-3)

    def test_hold_level_equals_last_active_sample(self):
        # X moves, then only Y moves: X idles at whatever its sinusoid ended on.
        plan = _plan("G1 X7 F600\nG1 Y10\n")
        trace = synthesize_trace(plan, Motor.X, noise=QUIET)
        boundary = int(round(plan.segments[Motor.X][0].duration * 25_000))
        last_active = trace.samples[boundary - 1]
        assert np.all(trace.samples[boundary:] == last_active)
        assert last_active != 0.0

    def test_hold_level_tracks_noisefree_end_under_noise(self):
        plan = _plan("G1 X7 F600\nG1 Y10\n")
        quiet = synthesize_trace(plan, Motor.X, noise=QUIET)
        noisy = synthesize_trace(plan, Motor.X, noise=DEFAULT_NOISE)
        boundary = int(round(plan.segments[Motor.X][0].duration * 25_000))
        hold_quiet = quiet.samples[boundary:]
        hold_noisy = noisy.samples[boundary:]
        assert np.mean(hold_noisy) == pytest.approx(
            np.mean(hold_quiet), abs=5 * DEFAULT_NOISE.idle_noise_sd
        )

    def test_electrical_frequency_is_steps_over_cycle_constant(self):
        # 100 mm at 600 mm/min with 8 steps/mm: 80 steps/s over 64 steps/cycle
        # is 1.25 Hz, i.e. 12.5 electrical periods in 10 s of motion.
        plan = _plan("G1 X100 F600\n")
        trace = synthesize_trace(plan, Motor.X, noise=QUIET)
        signs = np.sign(trace.samples[trace.samples != 0.0])
        crossings = int(np.sum(np.abs(np.diff(signs)) > 1))
        # 12.5 periods have 25 zeros; the one at the very end falls outside.
        assert crossings == 24

    def test_trigger_index_matches_trigger_time(self, tiny_program):
        plan = plan_motion(tiny_program, DEFAULT_PROFILE)
        trace = synthesize_trace(plan, Motor.X, noise=QUIET)
        assert trace.trigger_index == int(round(plan.trigger_time * 25_000))

    def test_samples_are_readonly_float32(self, tiny_program):
        trace = simulate_print(tiny_program, noise=QUIET)[Motor.X]
        assert trace.samples.dtype == np.float32
        with pytest.raises(ValueError):
            trace.samples[0] = 1.0


class TestReproducibility:
    def test_same_seed_is_bit_identical(self, tiny_program):
        a = simulate_print(tiny_program, seed=7)
        b = simulate_print(tiny_program, seed=7)
        for motor in MOTORS:
            assert np.array_equal(a[motor].samples, b[motor].samples)

    def test_different_seeds_differ(self, tiny_program):
        a = simulate_print(tiny_program, seed=7)
        b = simulate_print(tiny_program, seed=8)
        assert not np.array_equal(a[Motor.X].samples, b[Motor.X].samples)

    def test_seed_argument_overrides_noise_seed(self, tiny_program):
        noise = NoiseModel(seed=3)
        a = simulate_print(tiny_program, noise=noise, seed=7)
        b = simulate_print(tiny_program, noise=NoiseModel(seed=7))
        for motor in MOTORS:
            assert np.array_equal(a[motor].samples, b[motor].samples)


class TestSimulatePrint:
    def test_four_traces_equal_length_shared_trigger(self, tiny_program):
        traces = simulate_print(tiny_program, noise=QUIET)
        lengths = {len(t.samples) for t in traces.values()}
        triggers = {t.trigger_index for t in traces.values()}
        assert len(lengths) == 1
        assert len(triggers) == 1
        plan = plan_motion(tiny_program, DEFAULT_PROFILE)
        assert lengths.pop() == int(round(plan.total_duration * 25_000))

    def test_benign_pair_idle_deviation_within_noise_envelope(self, tiny_program):
        a = simulate_print(tiny_program, seed=11)
        b = simulate_print(tiny_program, seed=12)
        plan = plan_motion(tiny_program, DEFAULT_PROFILE)
        bound = 6 * DEFAULT_NOISE.idle_noise_sd
        for motor in MOTORS:
            diff = np.abs(
                a[motor].samples.astype(np.float64) - b[motor].samples.astype(np.float64)
            )
            idle = np.zeros(len(diff), dtype=bool)
            for seg in plan.segments[motor]:
                if seg.step_frequency == 0.0:
                    lo = int(round(seg.start_time * 25_000))
                    hi = int(round((seg.start_time + seg.duration) * 25_000))
                    idle[lo:hi] = True
            if idle.any():
                ok = np.mean(diff[idle] <= bound)
                assert ok >= 0.999, f"{motor}: {ok:.5f}"

    def test_energy_bound(self, tiny_program):
        traces = simulate_print(tiny_program, noise=DEFAULT_NOISE, seed=5)
        for motor in MOTORS:
            budget = (
                DEFAULT_NOISE.idle_noise_sd
                + DEFAULT_NOISE.amplitude_noise_sd * AMPLITUDE_NOISE_SCALE[motor]
            )
            limit = DEFAULT_PROFILE.rated_phase_current + 6 * budget
            assert np.max(np.abs(traces[motor].samples)) <= limit


class TestDesyncPropagation:
    def test_insert_preserves_prefix_and_shifts_suffix(self):
        # Payload travels to a point equidistant from the next target, so the
        # successor's geometry (and every later command) is untouched and the
        # suffix is an exact time-shifted copy in the noise-free model.
        text = (
            "G1 Z0.2 F37.5\n"
            "G1 X8 E0.4 F960\n"
            "G1 X16 E0.8\n"
            "G1 Y8 E1.2\n"
            "G0 X0 Y0\n"
        )
        program = parse_gcode(text)
        # Position before the insert is x=8 heading to x=16; x=24 mirrors it.
        # No F word, so the modal feed of later commands is untouched.
        payload = Command(kind=CommandKind.RAPID_MOVE, x=24.0)
        spec = AttackSpec(kind=AttackKind.INSERT, layer=0, position=2, payload=payload)
        mutated = inject_insert(program, spec)

        benign_plan = plan_motion(program, DEFAULT_PROFILE)
        attacked_plan = plan_motion(mutated, DEFAULT_PROFILE)
        inserted = attacked_plan.segments[Motor.X][2]
        successor = attacked_plan.segments[Motor.X][3]
        shift = int(round(inserted.duration * 25_000))
        insert_at = int(round(inserted.start_time * 25_000))
        # The successor sweeps toward the same endpoint from the mirrored side,
        # so X rejoins the benign waveform once it completes; the other motors
        # never left it.
        rejoin = int(round((successor.start_time + successor.duration) * 25_000))

        for motor in MOTORS:
            benign = synthesize_trace(benign_plan, motor, noise=QUIET)
            attacked = synthesize_trace(attacked_plan, motor, noise=QUIET)
            assert np.array_equal(attacked.samples[:insert_at], benign.samples[:insert_at])
            start = rejoin if motor is Motor.X else insert_at + shift
            suffix = attacked.samples[start:]
            expected = benign.samples[start - shift : len(attacked.samples) - shift]
            if motor is Motor.X:
                # The mirrored sweep reaches the rejoin point from the other
                # side, so hold levels may differ by up to one sample of phase.
                assert np.allclose(suffix, expected, atol=2e-3)
            else:
                assert np.array_equal(suffix, expected)

    def test_noisy_prefix_identical_up_to_insertion(self):
        program = parse_gcode("G1 Z0.2 F37.5\nG1 X8 E0.4 F960\nG1 X16 E0.8\n")
        payload = Command(kind=CommandKind.RAPID_MOVE, x=24.0, feed=1200.0)
        mutated = inject_insert(
            program, AttackSpec(kind=AttackKind.INSERT, layer=0, position=2, payload=payload)
        )
        benign = simulate_print(program, seed=9)
        attacked = simulate_print(mutated, seed=9)
        insert_at = int(
            round(plan_motion(mutated, DEFAULT_PROFILE).segments[Motor.X][2].start_time * 25_000)
        )
        for motor in MOTORS:
            assert np.array_equal(
                attacked[motor].samples[:insert_at], benign[motor].samples[:insert_at]
            )


class TestValidation:
    def test_negative_noise_rejected(self):
        with pytest.raises(TraceSimError):
            NoiseModel(idle_noise_sd=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(TraceSimError):
            NoiseModel(seed=-1)

    def test_trace_rejects_nonfinite(self):
        with pytest.raises(TraceSimError):
            MotorTrace(
                motor=Motor.X,
                sample_rate=25_000.0,
                samples=np.array([1.0, np.nan], dtype=np.float32),
                trigger_index=0,
            )

    def test_trace_rejects_bad_trigger(self):
        with pytest.raises(TraceSimError):
            MotorTrace(
                motor=Motor.X,
                sample_rate=25_000.0,
                samples=np.zeros(4, dtype=np.float32),
                trigger_index=4,
            )
