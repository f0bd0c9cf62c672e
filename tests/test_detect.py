import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from powertrace import detect
from powertrace.detect import (
    DetectionConfig,
    DetectionError,
    Verdict,
    build_baseline,
    classify,
    detect_print,
    deviation,
    excess,
    export_series_csv,
    smooth,
)
from powertrace.planner import Motor
from powertrace.tracesim import MotorTrace


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


_FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


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
        arrays(np.float32, st.integers(1, 300), elements=st.floats(-2.0**100, 2.0**100, width=32)),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_gather_on_arbitrary_values(self, values, data):
        window = data.draw(st.integers(1, len(values)), label="window")
        got = smooth(_trace(values), window).samples
        assert got.tobytes() == gather_smooth(values, window).tobytes()

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
        assert np.array_equal(build_baseline([a, b]).reference_trace.samples, a.samples)

    def test_needs_two_traces(self):
        with pytest.raises(DetectionError, match="at least 2"):
            build_baseline([_trace([1.0, 2.0])])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DetectionError, match="lengths"):
            build_baseline([_trace([1.0, 2.0]), _trace([1.0])])

    def test_mixed_motors_rejected(self):
        with pytest.raises(DetectionError, match="mix motors"):
            build_baseline([_trace([1.0]), _trace([1.0], motor=Motor.Y)])

    @given(st.integers(2, 12), st.integers(1, 500), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sd_bit_identical_to_numpy_std(self, count, n, data):
        columns = [data.draw(arrays(np.float32, n, elements=_FINITE_F32)) for _ in range(count)]
        baseline = build_baseline([_trace(c) for c in columns])
        expected = np.stack(columns, dtype=np.float64).std(axis=0, ddof=1)
        assert baseline.pointwise_sd.tobytes() == expected.tobytes()
        assert baseline.peak_sd == expected.max()


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
        baseline = build_baseline([_trace([0.0, 0.0]), _trace([2.0, 2.0])])
        # pointwise sd is sqrt(2) everywhere; smaller deviations clamp to 0.
        assert np.all(excess(np.array([0.1, 1.0]), baseline) == 0.0)
        stronger = excess(np.array([2.0, 0.0]), baseline)
        assert stronger[0] == pytest.approx(2.0 - np.sqrt(2.0))
        assert stronger[1] == 0.0

    def test_excess_of_sd_itself_is_zero(self):
        baseline = build_baseline([_trace([0.0, 1.0]), _trace([1.0, 3.0])])
        assert np.all(excess(baseline.pointwise_sd.copy(), baseline) == 0.0)

    @pytest.mark.parametrize("length", [0, 1, 37, 100])
    def test_excess_of_a_shorter_deviation_uses_the_leading_sd_cells(self, length):
        rng = np.random.default_rng(length)
        baseline = build_baseline([_trace(rng.normal(0.0, 0.1, 100)) for _ in range(3)])
        dev = np.abs(rng.normal(0.0, 0.3, length))
        expected = np.maximum(0.0, dev - baseline.pointwise_sd[:length])
        assert excess(dev, baseline).tobytes() == expected.tobytes()

    def test_excess_of_a_longer_deviation_rejected(self):
        baseline = build_baseline([_trace([0.0, 1.0]), _trace([1.0, 3.0])])
        with pytest.raises(DetectionError, match="deviation has 3 samples, baseline 2"):
            excess(np.zeros(3), baseline)


def _flat_baseline(n=500, motor=Motor.X):
    return build_baseline([_trace(np.zeros(n), motor=motor), _trace(np.zeros(n), motor=motor)])


class TestClassify:
    def test_benign_when_below_threshold(self):
        baseline = _flat_baseline()
        report = classify(np.full(500, 0.05), baseline, margin=0.1, run_requirement=50)
        assert report.verdict is Verdict.BENIGN
        assert report.exceed_count == 0
        assert report.first_exceed_time is None
        assert report.peak_excess == pytest.approx(0.05 - 0.1)

    def test_malicious_needs_a_contiguous_run(self):
        baseline = _flat_baseline()
        dev = np.zeros(500)
        dev[100:149] = 1.0  # 49 samples: one short of the requirement
        report = classify(dev, baseline, run_requirement=50)
        assert report.verdict is Verdict.BENIGN
        assert report.max_run_length == 49
        dev[100:150] = 1.0
        report = classify(dev, baseline, run_requirement=50)
        assert report.verdict is Verdict.MALICIOUS
        assert report.max_run_length == 50
        assert report.first_exceed_time == pytest.approx(100 / 25_000.0)

    def test_scattered_spikes_do_not_trigger(self):
        baseline = _flat_baseline()
        dev = np.zeros(500)
        dev[::10] = 5.0  # 50 spikes, never contiguous
        report = classify(dev, baseline, run_requirement=50)
        assert report.verdict is Verdict.BENIGN
        assert report.exceed_count == 50

    def test_raising_margin_never_creates_malicious(self):
        rng = np.random.default_rng(3)
        baseline = _flat_baseline()
        dev = np.abs(rng.normal(0.0, 0.2, 500))
        low = classify(dev, baseline, margin=0.05, run_requirement=5)
        high = classify(dev, baseline, margin=0.25, run_requirement=5)
        if low.verdict is Verdict.BENIGN:
            assert high.verdict is Verdict.BENIGN
        assert high.exceed_count <= low.exceed_count

    @given(st.lists(st.booleans(), min_size=1, max_size=200), st.integers(1, 20))
    @settings(max_examples=100)
    def test_run_length_matches_brute_force(self, mask, requirement):
        dev = np.where(mask, 1.0, 0.0)
        baseline = _flat_baseline(n=len(mask))
        report = classify(dev, baseline, margin=0.5, run_requirement=requirement)
        best = current = 0
        for flag in mask:
            current = current + 1 if flag else 0
            best = max(best, current)
        assert report.max_run_length == best
        assert (report.verdict is Verdict.MALICIOUS) == (best >= requirement)


class TestDetectPrint:
    def test_missing_capture_is_an_error(self):
        baseline = _flat_baseline()
        with pytest.raises(DetectionError, match="missing capture"):
            detect_print({}, {Motor.X: baseline}, DetectionConfig(smoothing_window=1))

    def test_self_comparison_is_benign(self):
        traces = {m: _trace(np.linspace(0, 1, 300), motor=m) for m in Motor}
        baselines = {
            m: build_baseline([traces[m], _trace(np.linspace(0, 1, 300), motor=m)])
            for m in Motor
        }
        result = detect_print(traces, baselines, DetectionConfig(smoothing_window=1))
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
        result = detect_print(captures, baselines, DetectionConfig(smoothing_window=1))
        assert result.overall is Verdict.MALICIOUS
        assert result.reports[Motor.Y].verdict is Verdict.MALICIOUS
        assert result.reports[Motor.X].verdict is Verdict.BENIGN

    @pytest.mark.parametrize("capture_length", [60, 100, 150])
    def test_matches_public_pipeline_on_the_common_window(self, capture_length):
        rng = np.random.default_rng(capture_length)
        golden = [_trace(rng.normal(0.0, 0.1, 100)) for _ in range(3)]
        baseline = build_baseline(golden)
        capture = _trace(rng.normal(0.0, 0.3, capture_length))
        config = DetectionConfig(smoothing_window=5, run_requirement=3)
        result = detect_print({Motor.X: capture}, {Motor.X: baseline}, config)
        length = min(capture_length, 100)
        smoothed = smooth(capture, 5).samples[:length]
        expected_dev = np.abs(
            smoothed.astype(np.float64) - baseline.reference_trace.samples[:length]
        )
        assert result.deviations[Motor.X].tobytes() == expected_dev.tobytes()
        expected_excess = np.maximum(0.0, expected_dev - baseline.pointwise_sd[:length])
        assert excess(result.deviations[Motor.X], baseline).tobytes() == expected_excess.tobytes()
        report = result.reports[Motor.X]
        # A shorter capture keeps the full print window's threshold.
        assert report == classify(expected_dev, baseline, config.margin, 3)
        assert report.threshold == baseline.peak_sd + config.margin

    def test_sample_rate_mismatch_is_an_error(self):
        baseline = _flat_baseline()
        capture = _trace(np.zeros(500), rate=1000.0)
        with pytest.raises(DetectionError, match="sample rate"):
            detect_print({Motor.X: capture}, {Motor.X: baseline})

    def test_longer_capture_is_windowed_to_baseline(self):
        baseline = _flat_baseline(n=100)
        capture = _trace(np.zeros(150))
        result = detect_print(
            {Motor.X: capture}, {Motor.X: baseline}, DetectionConfig(smoothing_window=1)
        )
        assert len(result.deviations[Motor.X]) == 100


def test_export_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    export_series_csv(np.array([0.0, 0.5, 1.0, 1.5]), 2.0, path, stride=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_s,amps"
    assert lines[1] == "0.000000,0.000000"
    assert lines[2] == "1.000000,1.000000"
    assert len(lines) == 3


def csv_writer_reference(series, sample_rate, stride):
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["time_s", "amps"])
    for i in range(0, len(series), stride):
        writer.writerow([f"{i / sample_rate:.6f}", f"{series[i]:.6f}"])
    return handle.getvalue().encode()


@given(
    arrays(
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 40),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    st.integers(1, 7),
    st.sampled_from([25_000.0, 3.0, 1e-3]),
    st.integers(1, 4),
)
@example(np.array([]), 1, 25_000.0, 1)
@example(np.array([0.25]), 3, 25_000.0, 1)
@example(np.arange(10.0), 3, 2.0, 2)
@settings(max_examples=150, deadline=None)
def test_export_series_csv_bytes_match_csv_writer(tmp_path_factory, series, stride, rate, chunk):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    # A tiny chunk puts chunk boundaries inside short series.
    with mock.patch.object(detect, "_EXPORT_CHUNK_ROWS", chunk):
        export_series_csv(series, rate, path, stride=stride)
    assert path.read_bytes() == csv_writer_reference(series, rate, stride)
