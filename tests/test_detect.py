import csv
import io
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from powertrace import detect, tracesim
from powertrace.detect import (
    DetectionConfig,
    DetectionError,
    DetectionReport,
    GoldenBaseline,
    Verdict,
    _classify_blocks,
    build_baseline,
    detect_print,
    deviation,
    export_series_csv,
    smooth,
)
from powertrace.harness import _excess_over, benchmark_object
from powertrace.planner import DEFAULT_PROFILE, MOTORS, Motor, plan_motion
from powertrace.tracesim import SAMPLE_RATE, MotorTrace


def _trace(values, motor=Motor.X, rate=25_000.0):
    return MotorTrace(
        motor=motor,
        sample_rate=rate,
        samples=np.asarray(values, dtype=np.float32),
        trigger_index=0,
    )


def brute_force_moving_average(values, window):
    """Independent re-computation of the shrunken centered moving average."""
    n = len(values)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        lo = max(i - (window - 1) // 2, 0)
        hi = min(i + window // 2 + 1, n)
        out[i] = sum(float(v) for v in values[lo:hi]) / (hi - lo)
    return out


def gather_smooth(values, window):
    """The shrunken moving average gathered at every sample: smooth's reference."""
    if window == 1:
        return values
    n = len(values)
    csum = np.concatenate(([0.0], np.cumsum(values.astype(np.float64))))
    idx = np.arange(n)
    lo = np.maximum(idx - (window - 1) // 2, 0)
    hi = np.minimum(idx + window // 2 + 1, n)
    return ((csum[hi] - csum[lo]) / (hi - lo)).astype(np.float32)


def _read_prefix(samples, window, m, out=None):
    """The smoothing kernel read as detect_print reads a capture: block by
    block, the last block cut, and no block asked for once ``m`` samples
    are in."""
    got = np.empty(0, dtype=np.float32)
    blocks = detect._smoothed_blocks(samples, window, out)
    while len(got) < m:
        got = np.concatenate((got, next(blocks)[: m - len(got)]))
    return got


def longest_run(indices):
    """Longest stretch of consecutive values in the increasing ``indices``."""
    if len(indices) == 0:
        return 0
    breaks = np.flatnonzero(np.diff(indices) != 1)
    return int(np.diff(breaks, prepend=-1, append=len(indices) - 1).max())


def classify(deviation_series, baseline, config):
    """The verdict on a whole deviation series, given to ``_classify_blocks``
    in ``_BLOCK``-sample blocks as detect_print gives it a capture's."""
    dev = np.asarray(deviation_series, dtype=np.float64)
    blocks = (dev[lo : lo + detect._BLOCK] for lo in range(0, len(dev), detect._BLOCK))
    return _classify_blocks(blocks, baseline, config)


def whole_series_classify(deviation_series, baseline, config):
    """The verdict over the whole series at once: the blocked verdict's reference."""
    dev = np.asarray(deviation_series, dtype=np.float64)
    peak = float(dev.max()) if len(dev) else 0.0
    threshold = baseline.peak_sd + config.margin
    above = np.flatnonzero(dev > threshold)
    max_run = longest_run(above)
    return DetectionReport(
        motor=baseline.motor,
        verdict=Verdict.MALICIOUS if max_run >= config.run_requirement else Verdict.BENIGN,
        threshold=threshold,
        exceed_count=len(above),
        max_run_length=max_run,
        first_exceed_time=float(above[0] / baseline.sample_rate) if len(above) else None,
        peak_excess=peak - threshold,
    )


def _runs(n, spans):
    """A length-``n`` series, 1 inside each ``(lo, hi)`` span and 0 elsewhere."""
    dev = np.zeros(n)
    for lo, hi in spans:
        dev[lo:hi] = 1.0
    return dev


_FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)

# Kernel block sizes: small ones make a few hundred samples cross blocks.
_BLOCKS = st.sampled_from([1, 3, 64, detect._BLOCK])


class TestSmooth:
    def test_bit_identical_to_gather_for_every_length_and_window(self):
        values = np.random.default_rng(7).normal(0.0, 1.0, 300).astype(np.float32)
        for n in range(1, 301):
            prefix = values[:n]
            for window in range(1, n + 1):
                got = smooth(_trace(prefix), window).samples
                assert got.dtype == np.float32
                assert got.tobytes() == gather_smooth(prefix, window).tobytes(), (n, window)

    @given(
        case=st.integers(1, 300).flatmap(lambda n: st.tuples(
            arrays(np.float32, n, elements=st.floats(-2.0**100, 2.0**100, width=32)),
            st.integers(1, n),
        )),
        block=_BLOCKS,
    )
    # The first block's running sum starts as a plain cumsum: seeded with
    # +0.0, it would turn the -0.0 averages of this example into +0.0.
    @example(case=(np.array([-0.0, -0.0], dtype=np.float32), 2), block=1)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_gather_on_arbitrary_values(self, case, block):
        values, window = case
        with mock.patch.object(detect, "_BLOCK", block):
            got = smooth(_trace(values), window).samples
        assert got.tobytes() == gather_smooth(values, window).tobytes()

    @given(
        case=st.integers(1, 300).flatmap(lambda n: st.tuples(
            arrays(np.float32, n, elements=_FINITE_F32),
            st.integers(1, n),
            st.integers(1, n),
        )),
        block=st.sampled_from([1, 3, 64]),
    )
    # Prefixes ending in the left edge, on the first block's end, and in
    # the right edge.
    @example(case=(np.arange(40, dtype=np.float32), 20, 5), block=3)
    @example(case=(np.arange(40, dtype=np.float32), 20, 12), block=3)
    @example(case=(np.arange(40, dtype=np.float32), 20, 35), block=64)
    @settings(max_examples=200, deadline=None)
    def test_prefix_equals_the_whole_smoothed_trace(self, case, block):
        # detect_print reads a capture longer than its baseline only as far
        # as the baseline reaches, and the experiment smooths each capture
        # over the buffer it was rendered into, from the buffer's start: 0
        # or more samples before the capture's trigger.
        values, window, m = case
        with mock.patch.object(detect, "_BLOCK", block):
            whole = smooth(_trace(values), window).samples
            got = _read_prefix(values, window, m, np.empty(len(values), dtype=np.float32))
            assert got.tobytes() == whole[:m].tobytes()
            for offset in (0, 1, window // 2, window + 3):
                buffer = np.full(offset + len(values), np.nan, dtype=np.float32)
                buffer[offset:] = values
                _read_prefix(buffer[offset:], window, m, buffer[: len(values)])
                assert buffer[:m].tobytes() == whole[:m].tobytes(), offset

    @given(
        case=st.integers(1, 300).flatmap(lambda n: st.tuples(
            arrays(np.float32, n, elements=_FINITE_F32),
            st.sampled_from([w for w in (1, 2, 5, 6) if w <= n]) | st.integers(1, n),
            st.integers(0, n),
        )),
        block=st.sampled_from([1, 3, 64]),
    )
    # Windows 1 and 2 (an empty left edge), odd and even ones, and windows
    # whose edges are longer than a block, with prefixes ending in the left
    # edge, in the blocks and in the right edge.
    @example(case=(np.arange(40, dtype=np.float32), 1, 40), block=3)
    @example(case=(np.arange(40, dtype=np.float32), 2, 40), block=3)
    @example(case=(np.arange(40, dtype=np.float32), 2, 1), block=1)
    @example(case=(np.arange(40, dtype=np.float32), 5, 39), block=3)
    @example(case=(np.arange(40, dtype=np.float32), 6, 12), block=3)
    @example(case=(np.arange(300, dtype=np.float32), 150, 50), block=64)
    @example(case=(np.arange(300, dtype=np.float32), 151, 290), block=64)
    @settings(max_examples=200, deadline=None)
    def test_streamed_blocks_are_the_smoothed_prefix(self, case, block):
        # The one smoothing kernel: its blocks, read until they hold m
        # samples, are smooth's prefix, whether they are views of its own
        # scratch, of a separate out, or of an out over the samples' buffer
        # from their start or before it.  Read to the end, they are all of
        # smooth's samples.
        values, window, m = case
        n = len(values)
        whole = smooth(_trace(values), window).samples
        for offset in (None, -1, 0, 1, window + 3):
            buffer = np.full(max(offset or 0, 0) + n, np.nan, dtype=np.float32)
            if offset is None or offset < 0:  # no out, or a separate one
                samples, out = values, None if offset is None else buffer[:n]
            else:
                buffer[offset:] = values
                samples, out = buffer[offset:], buffer[:n]
            got = []
            with mock.patch.object(detect, "_BLOCK", block):
                blocks = detect._smoothed_blocks(samples, window, out)
                while sum(map(len, got)) < m:
                    part = next(blocks)
                    assert part.dtype == np.float32
                    assert 0 < len(part) <= max(block, window // 2), offset
                    assert out is None or np.shares_memory(part, out)
                    got.append(part.copy())
                if m == n:
                    assert next(blocks, None) is None, offset
            joined = np.concatenate(got + [np.empty(0, dtype=np.float32)])
            assert joined.tobytes() == whole[: len(joined)].tobytes(), offset
            assert out is None or out[:m].tobytes() == whole[:m].tobytes()

    def test_smoothing_over_a_later_part_of_its_buffer_rejected(self):
        # Outputs written ahead of the reads would overwrite samples not yet
        # read.
        buffer = np.arange(60, dtype=np.float32)
        with pytest.raises(ValueError, match="starts no later"):
            next(detect._smoothed_blocks(buffer[:50], 5, buffer[1:51]))
        with pytest.raises(ValueError, match="contiguous"):
            next(detect._smoothed_blocks(buffer[::2], 5, buffer[:30]))

    def test_constant_trace_unchanged(self):
        trace = _trace([2.5] * 50)
        assert np.allclose(smooth(trace, 20).samples, 2.5)

    def test_window_one_is_identity(self):
        trace = _trace([1.0, -2.0, 3.0])
        assert np.array_equal(smooth(trace, 1).samples, trace.samples)

    def test_center_of_spike_window_five(self):
        trace = _trace([0.0, 0.0, 20.0, 0.0, 0.0])
        assert smooth(trace, 5).samples[2] == pytest.approx(4.0)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(42)
        for window in (1, 2, 5, 20, 99, 100):
            values = rng.normal(0.0, 1.0, 100).astype(np.float32)
            expected = brute_force_moving_average(values, window)
            got = smooth(_trace(values), window).samples
            assert np.max(np.abs(got - expected)) < 1e-6

    def test_window_longer_than_trace_rejected(self):
        with pytest.raises(DetectionError, match="longer than trace"):
            smooth(_trace([1.0, 2.0]), 3)

    def test_preserves_trigger_and_rate(self):
        trace = MotorTrace(
            motor=Motor.Z,
            sample_rate=1000.0,
            samples=np.arange(30, dtype=np.float32),
            trigger_index=7,
        )
        out = smooth(trace, 4)
        assert out.trigger_index == 7
        assert out.sample_rate == 1000.0
        assert out.motor is Motor.Z

    @pytest.mark.parametrize("window", [1, 2, 20])
    def test_records_its_window(self, window):
        trace = _trace(np.arange(30))
        assert trace.smoothing_window == 1
        assert smooth(trace, window).smoothing_window == window

    @pytest.mark.parametrize("window", [1, 5])
    def test_smooths_into_a_reused_buffer(self, window):
        # Golden traces are smoothed into the rows of one buffer that is
        # reused from motor to motor, so even window 1 must copy into it,
        # not return a trace that aliases the reused raw samples.
        trace = _trace(np.random.default_rng(window).normal(0.0, 1.0, 40))
        buffer = np.full(45, np.nan, dtype=np.float32)
        into = smooth(trace, window, out=buffer)
        assert into.samples.tobytes() == smooth(trace, window).samples.tobytes()
        assert into.smoothing_window == window
        assert np.shares_memory(into.samples, buffer)
        assert not np.shares_memory(into.samples, trace.samples)
        assert buffer.flags.writeable
        with pytest.raises(ValueError, match="float32 row of at least 40"):
            smooth(trace, window, out=buffer[:39])

    def test_smoothed_trace_is_not_smoothed_again(self):
        # smooth(smooth(t, 5), 20) would record window 20 for samples that
        # smooth(t, 20) does not give.
        once = smooth(_trace(np.arange(30)), 5)
        with pytest.raises(DetectionError, match="already smoothed with window 5"):
            smooth(once, 20)
        assert smooth(once, 1) is once
        # Copied into a buffer at window 1, it still records the window it has.
        assert smooth(once, 1, out=np.empty(30, dtype=np.float32)).smoothing_window == 5

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, width=32, allow_nan=False),
            min_size=21,
            max_size=60,
        ),
        st.lists(
            st.floats(min_value=-5, max_value=5, width=32, allow_nan=False),
            min_size=21,
            max_size=60,
        ),
    )
    @settings(max_examples=50)
    def test_linearity(self, a, b):
        n = min(len(a), len(b))
        a, b = np.array(a[:n], dtype=np.float32), np.array(b[:n], dtype=np.float32)
        lhs = smooth(_trace(a + b), 20).samples
        rhs = smooth(_trace(a), 20).samples + smooth(_trace(b), 20).samples
        assert np.allclose(lhs, rhs, atol=1e-5)

    @pytest.mark.parametrize("seed,n", [(0, 1000), (1, 1500), (2, 4000)])
    def test_mean_preserved_up_to_edge_effects(self, seed, n):
        # Shrunken edge windows reweight the first and last few samples, so
        # the mean moves by at most O(window * max|x| / n).
        rng = np.random.default_rng(seed)
        arr = rng.uniform(-2.0, 2.0, n).astype(np.float32)
        out = smooth(_trace(arr), 20).samples
        bound = 2 * 20 * float(np.max(np.abs(arr))) / n
        assert abs(float(out.mean()) - float(arr.astype(np.float64).mean())) <= bound


class TestBaseline:
    def test_identical_traces_have_zero_sd(self):
        trace = _trace(np.linspace(0, 1, 50))
        baseline = build_baseline([trace, trace, trace])
        assert np.all(baseline.pointwise_sd == 0.0)
        assert baseline.peak_sd == 0.0
        assert baseline.source_count == 3

    def test_two_trace_sd_is_half_gap_times_sqrt2(self):
        a = _trace([0.0, 1.0, 2.0, 3.0])
        b = _trace([1.0, 1.0, 0.0, 7.0])
        baseline = build_baseline([a, b])
        expected = np.abs(
            a.samples.astype(np.float64) - b.samples.astype(np.float64)
        ) / np.sqrt(2.0)
        assert np.allclose(baseline.pointwise_sd, expected, atol=1e-12)

    def test_reference_is_first_trace(self):
        a, b = _trace([1.0, 2.0]), _trace([3.0, 4.0])
        assert np.array_equal(build_baseline([a, b]).reference, a.samples)

    def test_reference_is_a_read_only_float32_column_of_the_sd_length(self):
        sd = np.full(3, 0.5, dtype=np.float32)
        baseline = GoldenBaseline(Motor.X, SAMPLE_RATE, sd, [1.0, 2.0, 3.0], 2, 0.5, 1)
        assert baseline.reference.dtype == np.float32
        assert not baseline.reference.flags.writeable
        with pytest.raises(DetectionError, match="sd/reference length mismatch"):
            GoldenBaseline(Motor.X, SAMPLE_RATE, sd, np.zeros(4, dtype=np.float32), 2, 0.5, 1)

    def test_without_an_sd_column_the_header_fields_are_still_checked(self):
        # A loaded baseline keeps no sd column: its length is the
        # reference's, and its peak has no column max to round to.
        reference = np.zeros(3, dtype=np.float32)
        baseline = GoldenBaseline(Motor.X, SAMPLE_RATE, None, reference, 2, 0.5, 1)
        assert baseline.pointwise_sd is None
        assert baseline.sample_count == 3
        with pytest.raises(DetectionError, match="peak sd is -0.5, must be >= 0"):
            GoldenBaseline(Motor.X, SAMPLE_RATE, None, reference, 2, -0.5, 1)

    def test_the_callers_float32_columns_stay_writable(self):
        sd, reference = np.full(3, 0.5, dtype=np.float32), np.zeros(3, dtype=np.float32)
        baseline = GoldenBaseline(Motor.X, SAMPLE_RATE, sd, reference, 2, 0.5, 1)
        assert np.shares_memory(baseline.pointwise_sd, sd)
        assert np.shares_memory(baseline.reference, reference)
        assert not baseline.pointwise_sd.flags.writeable
        assert not baseline.reference.flags.writeable
        assert sd.flags.writeable and reference.flags.writeable

    @pytest.mark.parametrize("window", [1, 5])
    def test_records_the_golden_smoothing_window(self, window):
        values = np.random.default_rng(window).normal(0.0, 1.0, (2, 50))
        baseline = build_baseline([_trace(v) for v in values], window)
        assert baseline.smoothing_window == window

    def test_mixed_smoothing_windows_rejected(self):
        # Captures smoothed already are taken as they are at window 1; the
        # baseline could record only one of their windows.
        values = np.arange(30)
        with pytest.raises(DetectionError, match="golden traces mix smoothing windows"):
            build_baseline([smooth(_trace(values), 5), smooth(_trace(values), 20)])

    def test_smoothing_window_below_one_rejected(self):
        sd = np.zeros(3, dtype=np.float32)
        with pytest.raises(DetectionError, match="smoothing window is 0, must be >= 1"):
            GoldenBaseline(Motor.X, SAMPLE_RATE, sd, sd, 2, 0.0, 0)

    def test_needs_two_traces(self):
        with pytest.raises(DetectionError, match="at least 2"):
            build_baseline([_trace([1.0, 2.0])])

    @pytest.mark.parametrize("window", [1, 5])
    @pytest.mark.parametrize("into_rows", [False, True])
    def test_unequal_lengths_are_smoothed_whole_then_cut(self, window, into_rows):
        # Each capture is smoothed over its whole length, and only then are
        # all cut to the shortest: the shortest's right edge is smoothed with
        # shrunken windows, the others' samples there with whole ones.  With
        # rows, each capture views its row past the row's start, as an
        # aligned golden trace does in the experiment.
        rng = np.random.default_rng(window)
        values = [rng.normal(0.0, 1.0, n).astype(np.float32) for n in (60, 47, 53)]
        cut = [smooth(_trace(v), window).samples[:47] for v in values]
        rows = None
        if into_rows:
            rows = np.full((3, 64), np.nan, dtype=np.float32)
            for row, v in zip(rows, values):
                row[3 : 3 + len(v)] = v
            values = [row[3 : 3 + len(v)] for row, v in zip(rows, values)]
        baseline = build_baseline([_trace(v) for v in values], window, rows)
        expected = np.stack(cut, dtype=np.float64).std(axis=0, ddof=1)
        assert baseline.sample_count == 47
        assert baseline.reference.tobytes() == cut[0].tobytes()
        assert baseline.pointwise_sd.tobytes() == expected.astype(np.float32).tobytes()
        assert baseline.peak_sd == expected.max()
        assert baseline.smoothing_window == window

    def test_mixed_motors_rejected(self):
        with pytest.raises(DetectionError, match="mix motors"):
            build_baseline([_trace([1.0]), _trace([1.0], motor=Motor.Y)])

    def test_mixed_rates_rejected(self):
        with pytest.raises(DetectionError, match="mix sample rates"):
            build_baseline([_trace([1.0, 2.0]), _trace([1.0, 2.0], rate=10.0)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_golden_sample_rejected(self, value):
        samples = np.zeros(100)
        samples[37] = value
        golden = [_trace(np.zeros(100)), _trace(samples), _trace(np.zeros(100))]
        with pytest.raises(DetectionError, match="golden traces must be finite"):
            build_baseline(golden)

    @given(
        columns=st.lists(
            st.integers(1, 300).flatmap(lambda n: arrays(np.float32, n, elements=_FINITE_F32)),
            min_size=2, max_size=12,
        ),
        block=_BLOCKS,
        window=st.integers(1, 40),
        offset=st.integers(0, 3),
    )
    # numpy adds the rows of a one-column block, from 8 rows on, in eight
    # interleaved partial sums rather than in order: no block may be that thin.
    @example(
        columns=[np.full(2, v, dtype=np.float32) for v in [1.0] + [2.0**-24] * 7],
        block=1, window=1, offset=0,
    )
    @settings(max_examples=100, deadline=None)
    def test_sd_bit_identical_to_numpy_std(self, columns, block, window, offset):
        # Built over rows or not, the sd is the float32 rounding of numpy's
        # over the smoothed captures cut to the shortest, and peak_sd its
        # float64 max, at any block size: from 2 captures on, a small block
        # makes the stack the 2-sample floor wide.  Over rows, each capture
        # views its row past the row's start, as an aligned golden trace
        # does, and the cells past each capture are NaN, which no build reads.
        window = min(window, *map(len, columns))
        smoothed = [smooth(_trace(c), window).samples for c in columns]
        length = min(map(len, smoothed))
        expected = np.stack([s[:length] for s in smoothed], dtype=np.float64).std(axis=0, ddof=1)
        rows = np.full((len(columns), offset + max(map(len, columns)) + 2), np.nan, np.float32)
        for row, c in zip(rows, columns):
            row[offset : offset + len(c)] = c
        with mock.patch.object(detect, "_BLOCK", block):
            fresh = build_baseline([_trace(c) for c in columns], window)
            over_rows = build_baseline(
                [_trace(row[offset : offset + len(c)]) for row, c in zip(rows, columns)],
                window,
                rows,
            )
        for baseline in (fresh, over_rows):
            assert baseline.pointwise_sd.tobytes() == expected.astype(np.float32).tobytes()
            assert baseline.reference.tobytes() == smoothed[0][:length].tobytes()
            assert baseline.peak_sd == expected.max()

    def test_over_rows_the_baseline_views_rows_0_and_1(self):
        # Every capture is smoothed into its row before the sd is written
        # over row 1, so a build over rows makes no column.
        rows = np.random.default_rng(3).normal(0.0, 1.0, (3, 80)).astype(np.float32)
        fresh = build_baseline([_trace(row.copy()) for row in rows], 5)
        baseline = build_baseline([_trace(row) for row in rows], 5, rows)
        assert np.shares_memory(baseline.pointwise_sd, rows[1])
        assert np.shares_memory(baseline.reference, rows[0])
        assert rows[1].tobytes() == fresh.pointwise_sd.tobytes()
        assert rows[0].tobytes() == fresh.reference.tobytes()
        assert baseline.peak_sd == fresh.peak_sd

    def test_rows_0_and_1_that_may_share_memory_are_refused(self):
        # The sd written over row 1 would overwrite the reference in row 0;
        # the build refuses before it writes anything.
        buffer = np.arange(60, dtype=np.float32)
        captures = [_trace(np.ones(50)), _trace(np.zeros(50))]
        with pytest.raises(ValueError, match="rows 0 and 1 may share memory"):
            build_baseline(captures, 1, [buffer[:50], buffer[10:]])
        assert buffer.tobytes() == np.arange(60, dtype=np.float32).tobytes()

    def test_fewer_rows_than_captures_are_refused(self):
        # The message counts every capture, past the first without a row too.
        rows = np.zeros((2, 20), dtype=np.float32)
        captures = (_trace(np.full(20, float(i))) for i in range(4))
        with pytest.raises(ValueError, match="^2 rows for 4 captures$"):
            build_baseline(captures, 1, rows)

    @pytest.mark.parametrize("window", [1, 20])
    def test_a_build_over_rows_allocates_only_block_scratch(self, window):
        # Over rows, the sd is written into row 1, so the build allocates
        # only fixed scratch, which is freed before the next is made: first
        # smoothing's float64 running sum and values, _BLOCK cells each,
        # then the sd's stack of about _BLOCK cells.  Measured 9.9 (window
        # 1) and 18.2 (window 20) times _BLOCK bytes at 10 captures, or
        # 0.55 bytes per sample beyond the two smoothing blocks; a float32
        # sd column beside the stack read 25.9, and a stack of _BLOCK
        # samples per capture 112.
        n = 4 * detect._BLOCK + 7
        rows = np.random.default_rng(window).normal(0.0, 1.0, (10, n)).astype(np.float32)
        captures = [_trace(row) for row in rows]
        build_baseline(captures[:2], window)  # one-time allocations, untraced
        tracemalloc.start()
        try:
            baseline = build_baseline(captures, window, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert baseline.sample_count == n
        assert (peak - 2 * 8 * detect._BLOCK) / n < 1.0

    @pytest.mark.parametrize("into_rows", [False, True])
    def test_the_sd_stack_holds_about_one_block_of_cells(self, into_rows):
        # Over 12 captures the stack is _BLOCK // 12 samples wide, about
        # 8 * _BLOCK bytes, not 12 * 8 * _BLOCK.  At window 1 the captures
        # are taken as they are, or copied into their rows, so beyond a
        # build's float32 sd column without rows the peak is the stack and
        # numpy's temporaries for one block: measured 12.9 times _BLOCK
        # bytes either way, 120 with a stack of _BLOCK samples per capture.
        n = 2 * detect._BLOCK + 5
        rows = np.random.default_rng(4).normal(0.0, 1.0, (12, n)).astype(np.float32)
        captures = [_trace(row) for row in rows]
        build_baseline(captures[:2])  # one-time allocations, untraced
        tracemalloc.start()
        try:
            build_baseline(captures, 1, rows if into_rows else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column = 0 if into_rows else 4 * n
        assert peak - column <= 2 * 8 * detect._BLOCK


class TestDeviationAndExcess:
    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(arrays(np.float32, n, elements=_FINITE_F32),
                            arrays(np.float32, n, elements=_FINITE_F32))
    ))
    @settings(max_examples=200, deadline=None)
    def test_deviation_bit_identical_to_float64_difference(self, pair):
        captured, reference = pair
        baseline = build_baseline([_trace(reference), _trace(reference)])
        got = deviation(_trace(captured), baseline)
        expected = np.abs(captured.astype(np.float64) - reference.astype(np.float64))
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_reference_deviates_zero_from_itself(self):
        traces = [_trace([0.5, 1.5, -0.25]), _trace([0.25, 1.0, 0.0])]
        baseline = build_baseline(traces)
        assert np.all(deviation(traces[0], baseline) == 0.0)

    def test_length_mismatch_rejected(self):
        baseline = build_baseline([_trace([1.0, 2.0]), _trace([2.0, 3.0])])
        with pytest.raises(DetectionError):
            deviation(_trace([1.0]), baseline)

    def test_excess_clamps_at_zero(self):
        sd = build_baseline([_trace([0.0, 0.0]), _trace([2.0, 2.0])]).pointwise_sd
        # pointwise sd is sqrt(2) everywhere; smaller deviations clamp to 0.
        assert np.all(_excess_over(np.array([0.1, 1.0]), sd) == 0.0)
        stronger = _excess_over(np.array([2.0, 0.0]), sd)
        assert stronger[0] == pytest.approx(2.0 - np.sqrt(2.0))
        assert stronger[1] == 0.0

    def test_excess_of_sd_itself_is_zero(self):
        sd = build_baseline([_trace([0.0, 1.0]), _trace([1.0, 3.0])]).pointwise_sd
        assert np.all(_excess_over(sd.copy(), sd) == 0.0)

    @pytest.mark.parametrize("length", [0, 1, 37, 100])
    def test_excess_of_a_shorter_deviation_uses_the_leading_sd_cells(self, length):
        # The experiment reduces a shorter capture's stride grid over
        # ``sd[::stride][:len(grid)]`` and a window's part over
        # ``sd[lo:lo + len(part)]``: the cells of the first ``length``
        # samples, even where a window runs past the capture.
        rng = np.random.default_rng(length)
        sd = build_baseline([_trace(rng.normal(0.0, 0.1, 100)) for _ in range(3)]).pointwise_sd
        dev = np.abs(rng.normal(0.0, 0.3, length))
        expected = np.maximum(0.0, dev - sd[:length])
        for stride in (1, 3, 7, 250):
            grid = dev[::stride].copy()
            _excess_over(grid, sd[::stride][: len(grid)], out=grid)
            assert grid.tobytes() == expected[::stride].tobytes()
        for lo, hi in ((0, 100), (30, 60), (90, 150)):
            part = dev[lo:hi].copy()
            _excess_over(part, sd[lo : lo + len(part)], out=part)
            assert part.tobytes() == expected[lo:hi].tobytes()


def _flat_baseline(n=500, motor=Motor.X, window=20):
    """A zero-sd baseline of flat traces, which smooth to themselves at any
    ``window``; the default is ``DetectionConfig()``'s."""
    zeros = np.zeros(n, dtype=np.float32)
    return GoldenBaseline(motor, SAMPLE_RATE, zeros, zeros, 2, 0.0, window)


def _benchmark_baselines():
    """The bundled print's sample count, flat-sd baselines of every motor
    over one sine reference, and that reference."""
    n = int(round(plan_motion(benchmark_object(), DEFAULT_PROFILE).total_duration * SAMPLE_RATE))
    reference = np.sin(np.arange(n) * (2 * np.pi / 2000)).astype(np.float32)
    sd = np.full(n, 0.02, dtype=np.float32)
    baselines = {
        m: GoldenBaseline(m, SAMPLE_RATE, sd, reference, 2, 0.02, 20)
        for m in MOTORS
    }
    return n, baselines, reference


class TestClassify:
    def test_benign_when_below_threshold(self):
        baseline = _flat_baseline()
        config = DetectionConfig(margin=0.1, run_requirement=50)
        report = classify(np.full(500, 0.05), baseline, config)
        assert report.verdict is Verdict.BENIGN
        assert report.exceed_count == 0
        assert report.first_exceed_time is None
        assert report.peak_excess == pytest.approx(0.05 - 0.1)

    def test_malicious_needs_a_contiguous_run(self):
        baseline = _flat_baseline()
        dev = np.zeros(500)
        dev[100:149] = 1.0  # 49 samples: one short of the requirement
        report = classify(dev, baseline, DetectionConfig(run_requirement=50))
        assert report.verdict is Verdict.BENIGN
        assert report.max_run_length == 49
        dev[100:150] = 1.0
        report = classify(dev, baseline, DetectionConfig(run_requirement=50))
        assert report.verdict is Verdict.MALICIOUS
        assert report.max_run_length == 50
        assert report.first_exceed_time == pytest.approx(100 / 25_000.0)

    def test_scattered_spikes_do_not_trigger(self):
        baseline = _flat_baseline()
        dev = np.zeros(500)
        dev[::10] = 5.0  # 50 spikes, never contiguous
        report = classify(dev, baseline, DetectionConfig(run_requirement=50))
        assert report.verdict is Verdict.BENIGN
        assert report.exceed_count == 50

    def test_raising_margin_never_creates_malicious(self):
        rng = np.random.default_rng(3)
        baseline = _flat_baseline()
        dev = np.abs(rng.normal(0.0, 0.2, 500))
        low = classify(dev, baseline, DetectionConfig(margin=0.05, run_requirement=5))
        high = classify(dev, baseline, DetectionConfig(margin=0.25, run_requirement=5))
        if low.verdict is Verdict.BENIGN:
            assert high.verdict is Verdict.BENIGN
        assert high.exceed_count <= low.exceed_count

    @given(st.lists(st.booleans(), min_size=1, max_size=200), st.integers(1, 20))
    @settings(max_examples=100)
    def test_run_length_matches_brute_force(self, mask, requirement):
        dev = np.where(mask, 1.0, 0.0)
        baseline = _flat_baseline(n=len(mask))
        config = DetectionConfig(margin=0.5, run_requirement=requirement)
        report = classify(dev, baseline, config)
        best = current = 0
        for flag in mask:
            current = current + 1 if flag else 0
            best = max(best, current)
        assert report.max_run_length == best
        assert (report.verdict is Verdict.MALICIOUS) == (best >= requirement)


    @given(
        dev=arrays(
            np.float64,
            st.integers(0, 300),
            elements=st.sampled_from([-1.0, 0.0, 0.1, 0.15, 2.0]),
        ),
        block=_BLOCKS,
        requirement=st.integers(1, 80),
    )
    # With 64-sample blocks: a run across a block edge; a run longer than a
    # block; runs that start or end exactly on an edge; a run of 1-sample blocks.
    @example(dev=_runs(200, [(60, 70)]), block=64, requirement=10)
    @example(dev=_runs(300, [(10, 200)]), block=64, requirement=50)
    @example(dev=_runs(256, [(0, 64), (100, 128), (192, 256)]), block=64, requirement=64)
    @example(dev=_runs(130, [(63, 65), (127, 130)]), block=64, requirement=2)
    @example(dev=_runs(10, [(0, 4), (5, 10)]), block=1, requirement=5)
    @settings(max_examples=200, deadline=None)
    def test_blocked_counts_equal_whole_series(self, dev, block, requirement):
        baseline = _flat_baseline()
        config = DetectionConfig(margin=0.1, run_requirement=requirement)
        with mock.patch.object(detect, "_BLOCK", block):
            report = classify(dev, baseline, config)
        assert report == whole_series_classify(dev, baseline, config)


class TestDetectPrint:
    def test_missing_capture_is_an_error(self):
        baseline = _flat_baseline()
        with pytest.raises(DetectionError, match="missing capture"):
            detect_print({}, {Motor.X: baseline})

    def test_capture_without_a_baseline_is_an_error(self):
        # Every capture is judged or refused: none is dropped unread.
        baseline = _flat_baseline()
        captures = {Motor.X: _trace(np.zeros(300)), Motor.Y: _trace(np.zeros(300), motor=Motor.Y)}
        with pytest.raises(DetectionError, match=r"no baseline for motor\(s\) \['Y'\]"):
            detect_print(captures, {Motor.X: baseline})

    def test_no_motor_is_an_error(self):
        # A print of which no motor was judged is not benign.
        with pytest.raises(DetectionError, match="no motor to judge"):
            detect_print({}, {})

    @pytest.mark.parametrize("stored", ["capture", "baseline"])
    def test_one_under_another_motors_key_is_an_error(self, stored):
        # Judging a Y capture against X's baseline, or an X capture against
        # Y's, would report one motor under the other's name.
        captures = {Motor.Y: _trace(np.zeros(500), motor=Motor.Y)}
        baselines = {Motor.Y: _flat_baseline(motor=Motor.Y)}
        if stored == "capture":
            captures[Motor.Y] = _trace(np.zeros(500), motor=Motor.X)
        else:
            baselines[Motor.Y] = _flat_baseline(motor=Motor.X)
        with pytest.raises(DetectionError, match=f"the {stored} under motor Y is of motor X"):
            detect_print(captures, baselines)

    def test_self_comparison_is_benign(self):
        traces = {m: _trace(np.linspace(0, 1, 300), motor=m) for m in Motor}
        baselines = {
            m: build_baseline([traces[m], _trace(np.linspace(0, 1, 300), motor=m)])
            for m in Motor
        }
        result = detect_print(traces, baselines)
        assert result.overall is Verdict.BENIGN
        assert all(r.verdict is Verdict.BENIGN for r in result.reports.values())

    def test_any_malicious_motor_flags_the_print(self):
        n = 300
        calm = np.zeros(n, dtype=np.float32)
        baselines = {
            m: build_baseline([_trace(calm, motor=m), _trace(calm, motor=m)]) for m in Motor
        }
        captures = {m: _trace(calm, motor=m) for m in Motor}
        captures[Motor.Y] = _trace(np.full(n, 2.0), motor=Motor.Y)
        result = detect_print(captures, baselines)
        assert result.overall is Verdict.MALICIOUS
        assert result.reports[Motor.Y].verdict is Verdict.MALICIOUS
        assert result.reports[Motor.X].verdict is Verdict.BENIGN

    @pytest.mark.parametrize("capture_length", [60, 100, 150])
    def test_matches_public_pipeline_on_the_common_window(self, capture_length):
        rng = np.random.default_rng(capture_length)
        baseline = build_baseline([_trace(rng.normal(0.0, 0.1, 100)) for _ in range(3)], 5)
        capture = _trace(rng.normal(0.0, 0.3, capture_length))
        config = DetectionConfig(run_requirement=3)
        result = detect_print({Motor.X: capture}, {Motor.X: baseline}, config)
        length = min(capture_length, 100)
        smoothed = smooth(capture, 5).samples[:length]
        expected_dev = np.abs(
            smoothed.astype(np.float64) - baseline.reference[:length]
        )
        assert result.deviations[Motor.X].tobytes() == expected_dev.tobytes()
        sd = baseline.pointwise_sd[:length]
        expected_excess = np.maximum(0.0, expected_dev - sd)
        assert _excess_over(result.deviations[Motor.X], sd).tobytes() == expected_excess.tobytes()
        report = result.reports[Motor.X]
        # A shorter capture keeps the full print window's threshold.
        assert report == classify(expected_dev, baseline, config)
        assert report.threshold == baseline.peak_sd + config.margin

    @pytest.mark.parametrize("window", [1, 2, 5, 20])
    def test_smooths_at_the_baseline_window(self, window):
        # Whatever DetectionConfig's window: it is the one new baselines
        # are smoothed with, and a capture is judged at its baseline's.
        # Windows 1 and 2 leave the left edge empty, which a streamed
        # smoothing must not yield as an empty block to the classifier.
        rng = np.random.default_rng(window)
        baseline = build_baseline([_trace(rng.normal(0.0, 0.1, 200)) for _ in range(3)], window)
        capture = _trace(rng.normal(0.0, 0.3, 200))
        result = detect_print({Motor.X: capture}, {Motor.X: baseline}, DetectionConfig())
        expected = np.abs(smooth(capture, window).samples.astype(np.float64) - baseline.reference)
        assert result.deviations[Motor.X].tobytes() == expected.tobytes()
        assert result.reports[Motor.X] == whole_series_classify(expected, baseline, DetectionConfig())

    def test_capture_shorter_than_the_baseline_window_names_it(self):
        baselines = {m: _flat_baseline(motor=m, window=5) for m in Motor}
        captures = {m: _trace(np.zeros(500), motor=m) for m in Motor}
        captures[Motor.E] = _trace(np.zeros(4), motor=Motor.E)
        with pytest.raises(
            DetectionError, match="E capture has 4 samples, shorter than the smoothing window 5"
        ):
            detect_print(captures, baselines, DetectionConfig(smoothing_window=1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("window", [1, 20])
    def test_non_finite_capture_sample_rejected(self, value, window):
        baseline = _flat_baseline(window=window)
        samples = np.zeros(500)
        samples[250] = value
        with pytest.raises(DetectionError, match="X deviation is .*: samples must be finite"):
            detect_print({Motor.X: _trace(samples)}, {Motor.X: baseline})

    @pytest.mark.parametrize("workers", [2, 3])
    def test_non_finite_capture_rejected_on_threads(self, workers):
        baselines = {m: _flat_baseline(motor=m) for m in Motor}
        captures = {m: _trace(np.zeros(500), motor=m) for m in Motor}
        samples = np.zeros(500)
        samples[250] = np.nan
        captures[Motor.Z] = _trace(samples, motor=Motor.Z)
        with mock.patch.object(tracesim, "_WORKERS", workers):
            with pytest.raises(DetectionError, match="Z deviation is nan: samples must be finite"):
                detect_print(captures, baselines)

    def test_smoothed_capture_names_the_motor(self):
        # A deviations read smooths a capture at its baseline's window, so
        # a capture smoothed before would be smoothed twice.
        baselines = {m: _flat_baseline(motor=m) for m in Motor}
        captures = {m: _trace(np.zeros(500), motor=m) for m in Motor}
        captures[Motor.Z] = smooth(_trace(np.zeros(500), motor=Motor.Z), 5)
        with pytest.raises(DetectionError, match="Z capture is already smoothed with window 5"):
            detect_print(captures, baselines)

    def test_capture_shorter_than_window_names_the_motor(self):
        baselines = {m: _flat_baseline(motor=m) for m in Motor}
        captures = {m: _trace(np.zeros(500), motor=m) for m in Motor}
        captures[Motor.Y] = _trace(np.zeros(5), motor=Motor.Y)
        with pytest.raises(
            DetectionError, match="Y capture has 5 samples, shorter than the smoothing window 20"
        ):
            detect_print(captures, baselines)

    @pytest.mark.parametrize("block", [64, detect._BLOCK])
    def test_equal_for_any_worker_count(self, block):
        rng = np.random.default_rng(11)
        n = 40_000
        baselines = {
            m: build_baseline([_trace(rng.normal(0.0, 0.05, n), motor=m) for _ in range(3)], 20)
            for m in Motor
        }
        # Shorter, equal and longer captures; runs across block edges and
        # longer than a default block, and one near the end of the baseline.
        spans = {Motor.X: (0, 0), Motor.Y: (15_000, 35_000), Motor.Z: (39_900, 44_000),
                 Motor.E: (100, 130)}
        lengths = {Motor.X: n, Motor.Y: n - 9_000, Motor.Z: n + 5_000, Motor.E: n}
        captures = {}
        for m in Motor:
            values = rng.normal(0.0, 0.05, lengths[m])
            values[slice(*spans[m])] += 1.0
            captures[m] = _trace(values, motor=m)
        config = DetectionConfig()
        expected = {}
        for m in Motor:
            length = min(lengths[m], n)
            smoothed = smooth(captures[m], baselines[m].smoothing_window).samples[:length]
            reference = baselines[m].reference[:length]
            dev = np.abs(smoothed.astype(np.float64) - reference)
            expected[m] = (whole_series_classify(dev, baselines[m], config), dev.tobytes())
        assert {r.verdict for r, _ in expected.values()} == {Verdict.BENIGN, Verdict.MALICIOUS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                with mock.patch.object(tracesim, "_WORKERS", workers), \
                        mock.patch.object(detect, "_BLOCK", block):
                    result = detect_print(captures, baselines, config)
                assert list(result.reports) == list(Motor)
                for m in Motor:
                    got = (result.reports[m], result.deviations[m].tobytes())
                    assert got == expected[m], (workers, m)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("capture_length", [60, 100, 150])
    def test_each_deviation_read_is_a_new_array(self, capture_length):
        # The result keeps the smoothed capture; every read makes the float64
        # deviation again, so a read turned into its excess in place leaves
        # the next read as it was.
        rng = np.random.default_rng(capture_length)
        baseline = build_baseline([_trace(rng.normal(0.0, 0.1, 100)) for _ in range(3)], 5)
        capture = _trace(rng.normal(0.0, 0.3, capture_length))
        result = detect_print({Motor.X: capture}, {Motor.X: baseline})
        length = min(capture_length, 100)
        expected = np.abs(
            smooth(capture, 5).samples[:length].astype(np.float64)
            - baseline.reference[:length]
        )
        assert list(result.deviations) == [Motor.X] and len(result.deviations) == 1
        first = result.deviations[Motor.X]
        assert first.dtype == np.float64 and first.flags.writeable
        assert first.tobytes() == expected.tobytes()
        first[...] = _excess_over(first, baseline.pointwise_sd[:length])
        second = result.deviations[Motor.X]
        assert second is not first
        assert second.tobytes() == expected.tobytes()
        with pytest.raises(KeyError):
            result.deviations[Motor.Y]

    @settings(max_examples=80, deadline=None)
    @given(
        capture_length=st.integers(5, 300),
        parts=st.lists(
            st.builds(
                slice,
                st.none() | st.integers(-320, 320),
                st.none() | st.integers(-320, 320),
                st.none() | st.integers(1, 40),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(capture_length=150, parts=[slice(None, None, 7), slice(120, 400), slice(90, 130)])
    @example(capture_length=60, parts=[slice(80, 100), slice(30, 30), slice(None, None, 40)])
    def test_a_sliced_deviation_read_is_that_slice_of_the_whole(self, capture_length, parts):
        # Steps, empty parts, parts past the end of a shorter or longer
        # capture, and overlapping parts each read exactly the samples of the
        # whole read, and a part changed in place changes no later read.
        rng = np.random.default_rng(capture_length)
        baseline = build_baseline([_trace(rng.normal(0.0, 0.1, 200)) for _ in range(3)], 5)
        capture = _trace(rng.normal(0.0, 0.3, capture_length))
        result = detect_print({Motor.X: capture}, {Motor.X: baseline})
        whole = result.deviations[Motor.X]
        for part in parts:
            got = result.deviations[Motor.X, part]
            assert got.dtype == np.float64 and got.flags.writeable and got.flags.c_contiguous
            assert got.tobytes() == whole[part].tobytes()
            got += 1.0
        assert result.deviations[Motor.X].tobytes() == whole.tobytes()

    def test_smooths_over_reused_buffers(self):
        # A caller judging print after print renders each motor's capture
        # into one buffer, after a pre-trigger part, and passes the buffers
        # back: each capture is smoothed over its buffer from the buffer's
        # start, as far as the baseline reaches, and reports and deviations
        # equal those of a fresh call on copies.  The one block holds all
        # window sums, but the reader stops before the right edge, so the
        # buffer past the baseline keeps the raw samples it overlays.
        rng = np.random.default_rng(3)
        baselines = {m: _flat_baseline(motor=m) for m in MOTORS}
        buffers = {m: np.full(530, np.nan, dtype=np.float32) for m in MOTORS}
        for attack in (0.0, 0.5):
            captures, copies = {}, {}
            for m in MOTORS:
                samples = rng.normal(0.0, 0.05, 510)
                samples[200:300] += attack
                buffers[m][15:525] = samples
                captures[m] = _trace(buffers[m][15:525], motor=m)
                copies[m] = _trace(samples, motor=m)
            fresh = detect_print(copies, baselines)
            into = detect_print(captures, baselines, out=buffers)
            assert into.reports == fresh.reports
            assert into.overall is (Verdict.MALICIOUS if attack else Verdict.BENIGN)
            for m in MOTORS:
                assert into.deviations[m].tobytes() == fresh.deviations[m].tobytes()
                assert buffers[m][:500].tobytes() == smooth(copies[m], 20).samples[:500].tobytes()
                assert buffers[m][500:525].tobytes() == copies[m].samples[485:].tobytes()
        # out holds the capture, not just the baseline's length of it.
        with pytest.raises(ValueError, match="float32 row of at least 510"):
            detect_print(copies, baselines, out={m: b[:509] for m, b in buffers.items()})

    def test_peak_memory_is_block_scratch(self):
        # Each motor is smoothed, compared and classified block by block, so
        # detect_print holds only each thread's block scratch: measured 1.10
        # bytes per sample on two threads (16.64 when it smoothed each motor
        # into a float32 array its result kept).  The result keeps the
        # captures, not a copy of them, so about nothing stays held after
        # the call (measured 0.004).  Taken after one untraced call, so that
        # one-time imports do not count, with a 100,000-sample attack run.
        n, baselines, reference = _benchmark_baselines()
        samples = reference + np.random.default_rng(5).normal(0.0, 0.05, n).astype(np.float32)
        samples[500_000:600_000] += 0.5
        captures = {m: MotorTrace(m, SAMPLE_RATE, samples, 0) for m in MOTORS}
        with mock.patch.object(tracesim, "_WORKERS", 2):
            detect_print(captures, baselines)
            tracemalloc.start()
            try:
                result = detect_print(captures, baselines)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.overall is Verdict.MALICIOUS
        assert peak / n <= 2.0
        assert held / n <= 0.05

    def test_deviations_smooth_each_capture_at_its_first_read(self):
        # Without out, a result holds no smoothed capture until a motor's
        # deviation is read: that read smooths the capture once into a
        # float32 array, and later reads of the motor, whole or sliced,
        # reuse it.  Every read equals the deviation of a call given out.
        rng = np.random.default_rng(8)
        n = 50_000
        baselines = {m: _flat_baseline(n=n, motor=m) for m in MOTORS}
        captures = {m: _trace(rng.normal(0.0, 0.05, n + 10), motor=m) for m in MOTORS}
        buffers = {m: np.empty(n + 10, dtype=np.float32) for m in MOTORS}
        into = detect_print(captures, baselines, out=buffers)
        tracemalloc.start()
        try:
            result = detect_print(captures, baselines)
            unread = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert unread / n <= 0.5
        assert result.reports == into.reports
        kernel = mock.Mock(wraps=detect._smoothed_blocks)
        with mock.patch.object(detect, "_smoothed_blocks", kernel):
            first = result.deviations[Motor.Y]
            assert kernel.call_count == 1
            assert first.tobytes() == into.deviations[Motor.Y].tobytes()
            again = result.deviations[Motor.Y]
            part = result.deviations[Motor.Y, 7:900:3]
            assert kernel.call_count == 1
            assert again.tobytes() == first.tobytes()
            assert part.tobytes() == first[7:900:3].tobytes()
            assert result.deviations[Motor.X].tobytes() == into.deviations[Motor.X].tobytes()
            assert kernel.call_count == 2

    def test_screen_holds_one_result_while_judging_the_next(self):
        # A screening loop loads print k+1's captures while print k's
        # captures and result are still bound, then judges them while print
        # k's result is.  A result keeps its captures and no smoothed copy,
        # so that is two sets of four captures at 4 bytes per sample, 32,
        # plus block scratch: measured 33.10 on two threads, bound with 2
        # bytes per sample of headroom (48.65 when each result kept four
        # float32 smoothed captures, 80.8 four float64 deviations).
        n, baselines, reference = _benchmark_baselines()

        def load(seed):
            rng = np.random.default_rng(seed)
            captures = {}
            for m in MOTORS:
                samples = rng.standard_normal(n, dtype=np.float32)
                samples *= 0.05
                samples += reference
                if seed % 2:
                    samples[500_000:600_000] += 0.5
                captures[m] = MotorTrace(m, SAMPLE_RATE, samples, 0)
            return captures

        verdicts = []
        with mock.patch.object(tracesim, "_WORKERS", 2):
            detect_print(load(9), baselines)
            tracemalloc.start()
            try:
                for seed in range(3):
                    captures = load(seed)
                    result = detect_print(captures, baselines)
                    verdicts.append(result.overall)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert verdicts == [Verdict.BENIGN, Verdict.MALICIOUS, Verdict.BENIGN]
        assert peak / n <= 35.0

    def test_never_calls_the_public_smooth(self):
        # Benchmark trace mode wraps detect.smooth and keeps one span stack,
        # so a call from a motor's thread would break its nesting.
        def refuse(*args):
            raise AssertionError("detect_print called detect.smooth")

        baselines = {m: _flat_baseline(motor=m) for m in Motor}
        captures = {m: _trace(np.zeros(500), motor=m) for m in Motor}
        with mock.patch.object(detect, "smooth", refuse), \
                mock.patch.object(tracesim, "_WORKERS", 2):
            result = detect_print(captures, baselines)
        assert result.overall is Verdict.BENIGN

    def test_sample_rate_mismatch_is_an_error(self):
        baseline = _flat_baseline()
        capture = _trace(np.zeros(500), rate=1000.0)
        with pytest.raises(DetectionError, match="sample rate"):
            detect_print({Motor.X: capture}, {Motor.X: baseline})

    def test_longer_capture_is_windowed_to_baseline(self):
        baseline = _flat_baseline(n=100)
        capture = _trace(np.zeros(150))
        result = detect_print({Motor.X: capture}, {Motor.X: baseline})
        assert len(result.deviations[Motor.X]) == 100


class TestProductionBlocks:
    """Series that cross real ``_BLOCK`` edges: the hypothesis cases above are
    shorter than one production block.  Threshold 0.12 (sd 0.02 + margin
    0.1); runs of 80 (straddling blocks 0 and 1), 45 (ending on block 1's
    end) and 40 (starting block 3), with block 2 clear, so a run not carried
    across an edge or carried across the clear block changes the report."""

    B = detect._BLOCK
    N = 4 * B + 1_000

    def _spans(self):
        """The deviation's runs; block k starts at ``k * B``."""
        B = self.B
        return [(B - 40, B + 40), (2 * B - 45, 2 * B), (3 * B, 3 * B + 40)]

    def _baseline(self):
        reference = np.zeros(self.N, dtype=np.float32)
        return GoldenBaseline(
            Motor.X, SAMPLE_RATE, np.full(self.N, 0.02, dtype=np.float32), reference, 2, 0.02, 20
        )

    def _assert_layout(self, dev, threshold):
        B = self.B
        above = dev > threshold
        assert above[B - 1] and above[B]
        assert above[2 * B - 1] and not above[2 * B]
        assert dev[2 * B : 3 * B].max() <= threshold  # the skip path
        assert above[3 * B]

    def test_classify_equals_whole_series(self):
        dev = _runs(self.N, self._spans())
        dev[4 * self.B + 10] = 0.5
        baseline, config = self._baseline(), DetectionConfig()
        self._assert_layout(dev, baseline.peak_sd + config.margin)
        with mock.patch.object(detect, "_BLOCK", len(dev)):
            expected = classify(dev, baseline, config)
        assert expected.max_run_length == 80
        assert expected.verdict is Verdict.MALICIOUS
        assert classify(dev, baseline, config) == expected

    def test_detect_print_equals_whole_series(self):
        # The deviation's blocks start at k * B, as the smoothed capture is
        # read in blocks from its start.  A raw step of 1.0 over [a, b)
        # smooths (window 20) to above 0.12 on [a - 8, b + 7).
        config = DetectionConfig()
        samples = _runs(self.N, [(lo + 8, hi - 7) for lo, hi in self._spans()])
        captures, baselines = {Motor.X: _trace(samples)}, {Motor.X: self._baseline()}
        with mock.patch.object(detect, "_BLOCK", self.N):
            expected = detect_print(captures, baselines, config)
        report = expected.reports[Motor.X]
        self._assert_layout(expected.deviations[Motor.X], report.threshold)
        assert report.max_run_length == 80
        result = detect_print(captures, baselines, config)
        assert result.reports == expected.reports
        assert result.deviations[Motor.X].tobytes() == expected.deviations[Motor.X].tobytes()


def test_export_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    export_series_csv(np.array([0.0, 0.5, 1.0, 1.5]), 2.0, path)
    lines = path.read_text().strip().splitlines()
    assert lines == [
        "time_s,amps",
        "0.000000,0.000000",
        "0.500000,0.500000",
        "1.000000,1.000000",
        "1.500000,1.500000",
    ]


def csv_writer_reference(series, sample_rate):
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["time_s", "amps"])
    for i in range(len(series)):
        writer.writerow([f"{i / sample_rate:.6f}", f"{series[i]:.6f}"])
    return handle.getvalue().encode()


# Signed values: at the real chunk size each series is one chunk that falls back.
_SIGNED = np.random.default_rng(2).normal(size=1_000)


@given(
    arrays(
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 40),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    # The last two rates are the experiment's grid rate at strides 3 and 7.
    st.sampled_from([25_000.0, 3.0, 1e-3, 25_000.0 / 3, 25_000.0 / 7]),
    st.integers(1, 4),
)
@example(np.array([]), 25_000.0, 1)
@example(np.array([0.25]), 25_000.0, 1)
@example(np.arange(10.0)[::3], 2.0 / 3, 2)
@example(_SIGNED[::7], 25_000.0 / 7, 1 << 16)
@example(_SIGNED[:700:3], 25_000.0 / 3, 1 << 16)
@example(_SIGNED, 25_000.0, 1 << 16)
# Times of 1000 s and more, which fall back; times near half a micro-second.
@example(np.full(6, 0.5), 1e-3, 1 << 16)
@example(np.full(12, 0.5), 2e6, 1 << 16)
@example(np.full(12, 0.5), 2e6, 1)
@settings(max_examples=150, deadline=None)
def test_export_series_csv_bytes_match_csv_writer(tmp_path_factory, series, rate, chunk):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    # A tiny chunk puts chunk boundaries inside short series.
    with mock.patch.object(detect, "_EXPORT_CHUNK_ROWS", chunk):
        export_series_csv(series, rate, path)
    assert path.read_bytes() == csv_writer_reference(series, rate)


def test_export_series_csv_over_chunks(tmp_path):
    # Three chunks at the real chunk size; the middle one holds a negative
    # value and falls back, the others are fast.
    rows = detect._EXPORT_CHUNK_ROWS
    series = np.random.default_rng(3).uniform(0, 20, 2 * rows + 1_234)
    series[rows + 5] = -1.0
    path = tmp_path / "series.csv"
    export_series_csv(series, 25_000.0, path)
    assert path.read_bytes() == csv_writer_reference(series, 25_000.0)


@pytest.mark.parametrize("rate", [0.0, np.inf, np.nan, -25_000.0])
def test_export_series_csv_rejects_bad_sample_rate(tmp_path, rate):
    path = tmp_path / "out" / "series.csv"
    with pytest.raises(DetectionError, match="sample rate"):
        export_series_csv(np.array([0.5, 1.0]), rate, path)
    assert not path.exists()


def _below_ten(dtype):
    width = 32 if dtype is np.float32 else 64
    return arrays(dtype, st.integers(0, 40), elements=st.floats(0, 10, exclude_max=True, width=width))


# Exact halves of a micro-amp: odd multiples of 2**-7, and powers of two.
_EXACT_HALVES = np.concatenate((np.arange(1, 1280, 2) / 128, 2.0 ** -np.arange(0, 40)))
# Decimal halves of a micro-amp, which float64 holds just above or below the
# half, their float64 neighbours, and values 1e-9 and 1e-12 off the half.
_NEAR_HALVES = (np.arange(60) + 0.5) * 1e-6
_NEAR_HALVES = np.concatenate(
    [_NEAR_HALVES, np.nextafter(_NEAR_HALVES, 0), np.nextafter(_NEAR_HALVES, 1)]
    + [_NEAR_HALVES + offset for offset in (-1e-9, 1e-9, -1e-12, 1e-12)]
)
# Values that round to 10.000000, or just stay below it.
_NEAR_TEN = np.array([9.9999995, 9.99999949, 9.9999996, 9.9999999, np.nextafter(10.0, 0), 9.999999])
# Values in [10, 1000), which are fast too.
_TENS = np.concatenate((np.linspace(10, 1000, 991, endpoint=False), [999.999999, 123.4564999]))
# Values that round to 1000.000000, which must fall back, and their neighbours.
_NEAR_THOUSAND = np.array([999.9999995, np.nextafter(1000.0, 0), 999.9999994, 999.999999, 1000.0, 1e4])


@given(
    st.one_of(_below_ten(np.float64), _below_ten(np.float32)),
    st.integers(1, 4),
)
@example(_EXACT_HALVES, 1 << 16)
@example(_EXACT_HALVES.astype(np.float32), 1 << 16)
@example(_NEAR_HALVES, 1 << 16)
@example(_NEAR_TEN, 1 << 16)
@example(_NEAR_TEN, 1)
@example(_TENS, 1 << 16)
# float32(999.999999) is 1000; two float32 values are exact halves, so two chunks fall back.
@example(_TENS[:-2].astype(np.float32), 4)
@example(np.append(_TENS[:6], 10.0078125), 4)  # an exact half in the second chunk
@example(_NEAR_THOUSAND, 1 << 16)
@example(_NEAR_THOUSAND, 1)
@example(np.array([-0.0, 0.0, 1.5]), 1)
@example(np.array([0.25, np.nan, np.inf, -np.inf, 0.75]), 2)
# Chunks of 2: fast only, fast and an exact half, fast above 10, then a
# negative value that falls back.
@example(np.array([0.5, 1.25, 0.0078125, 3.0, 12.5, 1.0, -1.0, 2.0]), 2)
@settings(max_examples=150, deadline=None)
def test_export_series_csv_fast_path_matches_csv_writer(tmp_path_factory, series, chunk):
    # Values in [0, 1000) are formatted from their digits without Python's
    # float formatting; exact halves, near halves, values that round to
    # 1000 and non-finite values must still read as Python formats them.
    path = tmp_path_factory.mktemp("series") / "series.csv"
    with warnings.catch_warnings(), mock.patch.object(detect, "_EXPORT_CHUNK_ROWS", chunk):
        warnings.simplefilter("error", RuntimeWarning)
        export_series_csv(series, 25_000.0, path)
    assert path.read_bytes() == csv_writer_reference(series, 25_000.0)
