import dataclasses
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powertrace import tracesim
from powertrace.attacks import AttackKind, AttackSpec, inject_insert
from powertrace.gcode import Command, CommandKind, parse_gcode
from powertrace.harness import benchmark_object
from powertrace.planner import (
    DEFAULT_PROFILE,
    MOTORS,
    MotionPlan,
    MotionSegment,
    Motor,
    plan_motion,
)
from powertrace.tracesim import (
    AMPLITUDE_NOISE_SCALE,
    DEFAULT_NOISE,
    PHASE_JITTER_SCALE,
    SAMPLE_RATE,
    STEPS_PER_ELECTRICAL_CYCLE,
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

    def test_a_plan_and_reused_buffers_give_the_same_traces(self, tiny_program):
        # The harness plans a program once and renders every print of it into
        # one buffer per motor: the traces are read-only views of those
        # buffers, which stay writable for the next print.
        plan = plan_motion(tiny_program, DEFAULT_PROFILE)
        rows = np.zeros((len(MOTORS), tracesim.trace_length(plan) + 10), dtype=np.float32)
        buffers = dict(zip(MOTORS, rows))
        for seed in (5, 6):
            fresh = simulate_print(tiny_program, seed=seed)
            reused = simulate_print(plan, seed=seed, out=buffers)
            for motor, row in buffers.items():
                assert reused[motor].samples.tobytes() == fresh[motor].samples.tobytes()
                assert reused[motor].trigger_index == fresh[motor].trigger_index
                assert np.shares_memory(reused[motor].samples, row)
                assert not reused[motor].samples.flags.writeable
                assert row.flags.writeable

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
    @pytest.mark.parametrize(
        "buffer",
        [np.empty(10, np.float32), np.empty(10**6, np.float64), np.empty((1, 10**6), np.float32)],
        ids=["short", "float64", "2-d"],
    )
    def test_buffer_that_cannot_hold_the_trace_rejected(self, tiny_program, buffer):
        plan = plan_motion(tiny_program, DEFAULT_PROFILE)
        assert tracesim.trace_length(plan) > 10
        with pytest.raises(ValueError, match="float32 row of at least"):
            synthesize_trace(plan, Motor.X, out=buffer)

    def test_negative_noise_rejected(self):
        with pytest.raises(TraceSimError):
            NoiseModel(idle_noise_sd=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(TraceSimError):
            NoiseModel(seed=-1)

    def test_trace_rejects_bad_trigger(self):
        with pytest.raises(TraceSimError):
            MotorTrace(
                motor=Motor.X,
                sample_rate=25_000.0,
                samples=np.zeros(4, dtype=np.float32),
                trigger_index=4,
            )


def reference_synthesis(plan, motor, profile=DEFAULT_PROFILE, noise=DEFAULT_NOISE):
    """The serial segment loop that synthesis must reproduce byte for byte.

    Returns ``(float32 samples, trigger_index)``.
    """
    segments = plan.segments.get(motor, ())
    total_samples = int(round(plan.total_duration * SAMPLE_RATE))
    out = np.zeros(max(total_samples, 1), dtype=np.float64)

    amplitude = profile.rated_phase_current
    jitter_sd = noise.phase_jitter_sd * PHASE_JITTER_SCALE[motor]
    amp_sd = noise.amplitude_noise_sd * AMPLITUDE_NOISE_SCALE[motor]

    steps_position = 0.0
    hold = 0.0
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
            phase = 2.0 * math.pi * steps_position / STEPS_PER_ELECTRICAL_CYCLE
            signed_frequency = segment.direction * frequency
            if hi > lo:
                t = np.arange(hi - lo, dtype=np.float64) / SAMPLE_RATE
                values = amplitude * np.sin(
                    phase + jitter + 2.0 * math.pi * signed_frequency * t
                )
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
    return out.astype(np.float32), trigger_index


WORKER_COUNTS = (1, 2, 3)


def _plan_of(specs, kept, motor):
    """One motor's plan from ``(duration, step_frequency, direction)`` specs.

    Segments tile time like the planner's; the plan ends after the fraction
    ``kept`` of their total, so later segments fall past its last sample.
    """
    segments, clock = [], 0.0
    for duration, step_frequency, direction in specs:
        segments.append(MotionSegment(clock, duration, step_frequency, motor, direction))
        clock += duration
    total = clock * kept
    return MotionPlan(segments={motor: tuple(segments)}, total_duration=total, trigger_time=total / 2)


def _assert_matches_reference(plan, motor, noise):
    expected, trigger = reference_synthesis(plan, motor, noise=noise)
    # A reused buffer, longer than the trace and holding NaN where an
    # earlier trace left its samples: any sample it keeps shows.
    reused = np.full(len(expected) + 3, np.nan, dtype=np.float32)
    for workers in WORKER_COUNTS:
        with mock.patch.object(tracesim, "_WORKERS", workers):
            trace = synthesize_trace(plan, motor, noise=noise)
            into = synthesize_trace(plan, motor, noise=noise, out=reused)
        assert trace.samples.tobytes() == expected.tobytes(), f"{workers} workers"
        assert into.samples.tobytes() == expected.tobytes(), f"{workers} workers, reused"
        assert trace.trigger_index == into.trigger_index == trigger
        reused[:] = np.nan


_SEGMENT = st.tuples(
    st.one_of(st.floats(1e-6, 3e-5), st.floats(3e-5, 0.06)),
    st.one_of(st.just(0.0), st.floats(1.0, 20_000.0)),
    st.sampled_from((1, -1)),
)
_NOISE = st.builds(
    NoiseModel,
    idle_noise_sd=st.sampled_from((0.0, 0.025)),
    phase_jitter_sd=st.sampled_from((0.0, 0.002)),
    amplitude_noise_sd=st.sampled_from((0.0, 0.02)),
    seed=st.integers(0, 2**96),
)
_ACTIVE = 3_000.0


class TestThreadedSynthesis:
    """Segments render on threads; the samples must equal the serial loop's."""

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(_SEGMENT, max_size=12),
        kept=st.floats(0.3, 1.0),
        noise=_NOISE,
        motor=st.sampled_from(MOTORS),
    )
    # An idle first segment holds 0.0.
    @example(specs=[(0.01, 0.0, 1), (0.01, _ACTIVE, 1), (0.01, 0.0, 1)],
             kept=1.0, noise=DEFAULT_NOISE, motor=Motor.X)
    # An active segment that rounds to no samples advances the phase but
    # leaves the hold level where the earlier active segment ended.
    @example(specs=[(0.01, _ACTIVE, 1), (1e-5, 5_000.0, 1), (0.01, 0.0, 1), (0.01, _ACTIVE, 1)],
             kept=1.0, noise=DEFAULT_NOISE, motor=Motor.E)
    @example(specs=[(0.01, _ACTIVE, -1), (0.01, 0.0, 1), (0.02, 2_000.0, -1)],
             kept=1.0, noise=DEFAULT_NOISE, motor=Motor.Y)
    @example(specs=[(0.01, 0.0, 1), (0.01, _ACTIVE, -1), (0.01, 0.0, 1)],
             kept=1.0, noise=QUIET, motor=Motor.X)
    # Segments past the plan's last sample render nothing.
    @example(specs=[(0.01, _ACTIVE, 1), (0.01, 0.0, 1), (0.01, _ACTIVE, 1), (0.01, 0.0, 1)],
             kept=0.4, noise=DEFAULT_NOISE, motor=Motor.Z)
    # Seeds of one, two and three 32-bit words: the segment's entropy fills
    # part of, all of, and more than the 4-word SeedSequence pool.
    @example(specs=[(0.01, _ACTIVE, 1), (0.01, 0.0, 1)],
             kept=1.0, noise=NoiseModel(seed=2**32 - 1), motor=Motor.E)
    @example(specs=[(0.01, _ACTIVE, 1), (0.01, 0.0, 1)],
             kept=1.0, noise=NoiseModel(seed=2**32), motor=Motor.E)
    @example(specs=[(0.01, _ACTIVE, 1), (0.01, 0.0, 1)],
             kept=1.0, noise=NoiseModel(seed=2**64), motor=Motor.E)
    def test_matches_serial_reference(self, specs, kept, noise, motor):
        _assert_matches_reference(_plan_of(specs, kept, motor), motor, noise)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100])
    def test_seed_states_are_seed_sequence_states(self, seed):
        for motor in MOTORS:
            states = tracesim._seed_states(seed, motor.code, 300)
            assert states.dtype == np.uint64 and states.shape == (300, 4)
            for index, row in enumerate(states):
                expected = np.random.SeedSequence([seed, motor.code, index]).generate_state(4, np.uint64)
                assert row.tobytes() == expected.tobytes(), (motor, index)

    @pytest.mark.parametrize("motor", MOTORS, ids=lambda m: m.name)
    def test_benchmark_plan_matches_serial_reference(self, motor):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _assert_matches_reference(plan, motor, NoiseModel(seed=4))
        finally:
            sys.setswitchinterval(interval)

    def test_first_sub_nyquist_segment_raises_reference_message(self):
        specs = [(0.01, _ACTIVE, 1), (0.01, 0.0, 1)] * 2
        specs += [(0.01, 2e6, 1), (0.01, 0.0, 1), (0.01, 3e6, 1)]
        plan = _plan_of(specs, 1.0, Motor.X)
        with pytest.raises(NyquistError) as expected:
            reference_synthesis(plan, Motor.X)
        for workers in WORKER_COUNTS:
            with mock.patch.object(tracesim, "_WORKERS", workers):
                with pytest.raises(NyquistError) as raised:
                    synthesize_trace(plan, Motor.X)
            assert str(raised.value) == str(expected.value)
        assert "segment at 0.040s" in str(expected.value)

    def test_overlapping_segments_rejected(self):
        segments = (
            MotionSegment(0.0, 0.02, _ACTIVE, Motor.X),
            MotionSegment(0.01, 0.02, 0.0, Motor.X),
        )
        plan = MotionPlan(segments={Motor.X: segments}, total_duration=0.03, trigger_time=0.0)
        with pytest.raises(TraceSimError, match="segment at 0.010s overlaps"):
            synthesize_trace(plan, Motor.X)

    def test_worker_exception_reaches_caller(self):
        failed_on = []

        def render(block):
            if block == 2:
                failed_on.append(threading.current_thread())
                raise ValueError("block 2 failed")
            return block

        with mock.patch.object(tracesim, "_WORKERS", 3):
            with pytest.raises(ValueError, match="block 2 failed"):
                tracesim._map_on_threads(render, [0, 1, 2])
        assert failed_on and failed_on[0] is not threading.main_thread()

    def test_two_threads_split_each_trace_near_its_middle(self):
        # Z has one job per layer; cutting at the first job that starts past
        # the middle would leave 60% of its samples on one thread.
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        shares = []

        def serial_spy(render_block, blocks):
            counts = [
                sum(hi - lo for active, idle in block for _, lo, hi, *_ in [active or (0, 0, 0), *idle])
                for block in blocks
            ]
            shares.append(counts[0] / sum(counts))
            return [render_block(block) for block in blocks]

        with mock.patch.object(tracesim, "_WORKERS", 2), \
                mock.patch.object(tracesim, "_map_on_threads", serial_spy):
            for motor in MOTORS:
                synthesize_trace(plan, motor)
        assert len(shares) == len(MOTORS)
        assert all(abs(share - 0.5) < 0.02 for share in shares), shares

    def test_peak_memory_per_sample(self):
        # The float32 result is 4 bytes per sample; segment buffers are
        # small next to it.  A full-length float64 render buffer would add 8.
        # Measured at the largest worker count, after one untraced call so
        # that one-time imports do not count.
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        with mock.patch.object(tracesim, "_WORKERS", 8):
            synthesize_trace(plan, Motor.X)
            tracemalloc.start()
            try:
                trace = synthesize_trace(plan, Motor.X)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak / len(trace) <= 6.5
