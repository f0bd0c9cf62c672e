import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powertrace.planner import Motor
from powertrace.tracesim import MotorTrace, NoiseModel, simulate_print
from powertrace.traceio import (
    CaptureFormatError,
    align_to_trigger,
    common_window,
    load_baseline,
    load_trace,
    save_baseline,
    save_trace,
)
from powertrace.detect import build_baseline, smooth


def _trace(values, rate=25_000.0, trigger=0, motor=Motor.X):
    return MotorTrace(
        motor=motor,
        sample_rate=rate,
        samples=np.asarray(values, dtype=np.float32),
        trigger_index=trigger,
    )


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        trace = _trace([0.25, -1.5, 0.0, 3e-8], trigger=2, motor=Motor.E)
        path = tmp_path / "t.ptrc"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.motor is Motor.E
        assert loaded.sample_rate == 25_000.0
        assert loaded.trigger_index == 2
        assert loaded.samples.tobytes() == trace.samples.tobytes()

    def test_header_preserves_sample_rate(self, tmp_path):
        trace = _trace([1.0, 2.0], rate=25_000.0)
        save_trace(trace, tmp_path / "t.ptrc")
        assert load_trace(tmp_path / "t.ptrc").sample_rate == 25_000.0

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t.ptrc"
        save_trace(_trace([1.0, 2.0, 3.0]), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CaptureFormatError, match="unexpected end of samples"):
            load_trace(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ptrc"
        save_trace(_trace([1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CaptureFormatError, match="bad magic"):
            load_trace(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.ptrc"
        save_trace(_trace([1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CaptureFormatError, match="version"):
            load_trace(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "t.ptrc"
        save_trace(_trace([1.0]), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CaptureFormatError, match="trailing"):
            load_trace(path)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, width=32, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    def test_round_trip_any_finite_samples(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "t.ptrc"
        trace = _trace(values)
        save_trace(trace, path)
        assert np.array_equal(load_trace(path).samples, trace.samples)


class TestAlignment:
    def test_zero_trigger_is_identity(self):
        trace = _trace([1.0, 2.0, 3.0], trigger=0)
        assert align_to_trigger(trace) is trace

    def test_alignment_drops_pre_trigger_samples(self):
        trace = _trace(list(range(200)), trigger=100)
        aligned = align_to_trigger(trace)
        assert len(aligned.samples) == 100
        assert aligned.samples[0] == 100.0
        assert aligned.trigger_index == 0

    def test_alignment_is_idempotent(self):
        trace = _trace(list(range(10)), trigger=4)
        once = align_to_trigger(trace)
        twice = align_to_trigger(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_out_of_range_trigger_rejected(self):
        trace = _trace([1.0, 2.0], trigger=1)
        bad = MotorTrace(
            motor=trace.motor, sample_rate=trace.sample_rate, samples=trace.samples, trigger_index=1
        )
        aligned = align_to_trigger(bad)
        assert len(aligned.samples) == 1

    def test_keeps_the_smoothing_window(self):
        smoothed = smooth(_trace(list(range(10)), trigger=4), 3)
        assert align_to_trigger(smoothed).smoothing_window == 3

    def test_two_prints_align_to_same_onset(self, tiny_program):
        # After trigger alignment the first-layer activity of two different
        # runs starts at the same sample.
        quiet = NoiseModel(idle_noise_sd=0.0, phase_jitter_sd=0.0, amplitude_noise_sd=0.0)
        a = align_to_trigger(simulate_print(tiny_program, noise=quiet, seed=1)[Motor.X])
        b = align_to_trigger(simulate_print(tiny_program, noise=quiet, seed=2)[Motor.X])
        onset_a = int(np.flatnonzero(a.samples != a.samples[0])[0])
        onset_b = int(np.flatnonzero(b.samples != b.samples[0])[0])
        assert abs(onset_a - onset_b) <= 1


class TestCommonWindow:
    def test_equal_lengths_identity(self):
        traces = [_trace([1, 2, 3]), _trace([4, 5, 6], motor=Motor.Y)]
        out = common_window(traces)
        assert [len(t.samples) for t in out] == [3, 3]

    def test_truncates_to_minimum(self):
        traces = [_trace(list(range(100))), _trace(list(range(90)))]
        out = common_window(traces)
        assert [len(t.samples) for t in out] == [90, 90]

    def test_empty_list_ok(self):
        assert common_window([]) == []

    def test_keeps_the_smoothing_window(self):
        traces = [smooth(_trace(list(range(n))), 3) for n in (10, 8)]
        assert [t.smoothing_window for t in common_window(traces)] == [3, 3]


# Samples are checked where they are loaded, so a view of a loaded trace
# allocates nothing per sample: neither the aligned view nor the window cut.
@pytest.mark.parametrize(
    "view",
    [
        lambda trace, shorter: align_to_trigger(trace),
        lambda trace, shorter: common_window([trace, shorter]),
    ],
    ids=["align_to_trigger", "common_window"],
)
def test_views_do_not_scan_samples(view):
    trace = _trace(np.zeros(1_000_000), trigger=500)
    shorter = _trace(np.zeros(999_000))
    tracemalloc.start()
    try:
        view(trace, shorter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class TestBaselinePersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        baseline = build_baseline([_trace(rng.normal(0, 1, 200)) for _ in range(3)], 5)
        path = tmp_path / "x.ptrb"
        save_baseline(baseline, path)
        loaded = load_baseline(path)
        assert loaded.motor is baseline.motor
        assert loaded.source_count == 3
        assert loaded.smoothing_window == baseline.smoothing_window == 5
        assert loaded.peak_sd == baseline.peak_sd
        assert np.array_equal(loaded.pointwise_sd, baseline.pointwise_sd)
        assert np.array_equal(loaded.reference, baseline.reference)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        save_trace(_trace([0.5, -0.25, 1.0]), tmp_path / "t.ptrc")
        save_baseline(build_baseline([_trace([0.5, 1.0]), _trace([0.0, 1.5])]), tmp_path / "b.ptrb")
        baseline = load_baseline(tmp_path / "b.ptrb")
        arrays = (
            load_trace(tmp_path / "t.ptrc").samples,
            baseline.pointwise_sd,
            baseline.reference,
        )
        assert [array.flags.writeable for array in arrays] == [False, False, False]

    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_file_is_48_header_bytes_and_8_per_sample(self, tmp_path, n):
        rng = np.random.default_rng(n)
        baseline = build_baseline([_trace(rng.normal(0, 1, n)) for _ in range(3)])
        path = tmp_path / "x.ptrb"
        save_baseline(baseline, path)
        blob = path.read_bytes()
        assert len(blob) == 48 + 8 * n
        assert struct.unpack_from("<QQdQ", blob, 16) == (3, 1, baseline.peak_sd, n)
        assert blob[48 : 48 + 4 * n] == baseline.pointwise_sd.astype("<f4").tobytes()

    def test_wrong_magic_for_baseline_loader(self, tmp_path):
        path = tmp_path / "t.ptrc"
        save_trace(_trace(list(range(10))), path)
        with pytest.raises(CaptureFormatError, match="bad magic"):
            load_baseline(path)


# Each damage: (byte offset, replacement) in the shared prefix, or a cut or
# extension of the whole file; then the error text that must follow the path.
_HEADER_DAMAGE = {
    "truncated header": ("cut header", "truncated header"),
    "bad magic": ((0, b"NOPE"), "bad magic"),
    "version": ((4, struct.pack("<H", 5)), "unsupported version 5"),
    "units": ((7, b"\x01"), "unknown units code 1"),
    "motor code": ((6, b"\x04"), "unknown motor code 4"),
    "short body": ("cut body", "unexpected end of samples"),
    "trailing bytes": ("extend", "trailing bytes after samples"),
    "nan rate": ((8, struct.pack("<d", float("nan"))), "sample rate must be finite and > 0"),
    "inf rate": ((8, struct.pack("<d", float("inf"))), "sample rate must be finite and > 0"),
    "zero rate": ((8, struct.pack("<d", 0.0)), "sample rate must be finite and > 0"),
    "negative rate": ((8, struct.pack("<d", -1.0)), "sample rate must be finite and > 0"),
}


@pytest.mark.parametrize("damage", sorted(_HEADER_DAMAGE))
@pytest.mark.parametrize("container", ["ptrc", "ptrb"])
def test_damaged_container_rejected_naming_the_path(tmp_path, container, damage):
    path = tmp_path / f"x.{container}"
    if container == "ptrc":
        save_trace(_trace([0.5, -0.25, 1.0]), path)
        load, header_size = load_trace, 32
    else:
        save_baseline(build_baseline([_trace([0.5, 1.0, 2.0]), _trace([0.0, 1.5, 2.5])]), path)
        load, header_size = load_baseline, 48
    blob = bytearray(path.read_bytes())
    how, message = _HEADER_DAMAGE[damage]
    if how == "cut header":
        del blob[header_size - 1 :]
    elif how == "cut body":
        del blob[-1:]
    elif how == "extend":
        blob += b"x"
    else:
        offset, value = how
        blob[offset : offset + len(value)] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}")):
        load(path)


# Baselines of three samples in the older versions.  Version 1: header with
# source count, print-end index, sample count and peak sd, then mean, sd and
# reference columns.  Version 2: header with source count and sample count,
# then a float64 sd and the reference.  Version 3: header with source count,
# peak sd and sample count, then a float32 sd and the reference.
_PTRB_V1 = (
    struct.pack("<4sHBBd", b"PTRB", 1, 0, 0, 25_000.0)
    + struct.pack("<QQQd", 2, 3, 3, 0.5)
    + np.zeros(6).tobytes()
    + np.zeros(3, dtype=np.float32).tobytes()
)
_PTRB_V2 = (
    struct.pack("<4sHBBd", b"PTRB", 2, 0, 0, 25_000.0)
    + struct.pack("<QQ", 2, 3)
    + np.zeros(3).tobytes()
    + np.zeros(3, dtype=np.float32).tobytes()
)
_PTRB_V3 = (
    struct.pack("<4sHBBd", b"PTRB", 3, 0, 0, 25_000.0)
    + struct.pack("<QdQ", 2, 0.0, 3)
    + np.zeros(6, dtype=np.float32).tobytes()
)
_REBUILD = "; rebuild it from its captures with 'powertrace baseline'"
_NAN_F64, _NAN_F32 = struct.pack("<d", float("nan")), struct.pack("<f", float("nan"))
# Each damage turns the bytes of a saved three-sample baseline (48-byte
# header with the smoothing window at 24 and the peak sd at 32, 12 bytes of
# sd, 12 bytes of reference) into the file to load; then the error text
# that must follow the path.
_BASELINE_DAMAGE = {
    "version 1 file": (lambda blob: _PTRB_V1, "unsupported version 1" + _REBUILD),
    "version 2 file": (lambda blob: _PTRB_V2, "unsupported version 2" + _REBUILD),
    "version 3 file": (lambda blob: _PTRB_V3, "unsupported version 3" + _REBUILD),
    "nan sd cell": (
        lambda blob: blob[:52] + _NAN_F32 + blob[56:],
        "sd cell 1 is nan, must be finite",
    ),
    "negative sd cell": (
        lambda blob: blob[:48] + struct.pack("<f", -1.0) + blob[52:],
        "sd cell 0 is -1.0, must be >= 0",
    ),
    "nan reference sample": (
        lambda blob: blob[:64] + _NAN_F32 + blob[68:],
        "reference sample 1 is nan, must be finite",
    ),
    "zero sample count": (lambda blob: blob[:40] + struct.pack("<Q", 0), "empty baseline"),
    "one source trace": (
        lambda blob: blob[:16] + struct.pack("<Q", 1) + blob[24:],
        "a baseline needs at least 2 golden traces",
    ),
    "zero smoothing window": (
        lambda blob: blob[:24] + struct.pack("<Q", 0) + blob[32:],
        "smoothing window is 0, must be >= 1",
    ),
    "nan peak sd": (
        lambda blob: blob[:32] + _NAN_F64 + blob[40:],
        "peak sd is nan: golden traces must be finite",
    ),
    "negative peak sd": (
        lambda blob: blob[:32] + struct.pack("<d", -0.5) + blob[40:],
        "peak sd is -0.5, must be >= 0",
    ),
    "peak sd not the column max": (
        lambda blob: blob[:32] + struct.pack("<d", 0.5) + blob[40:],
        "peak sd 0.5 is not the sd column's max 0.3535",
    ),
}


@pytest.mark.parametrize("damage", sorted(_BASELINE_DAMAGE))
def test_damaged_baseline_body_rejected_naming_the_path(tmp_path, damage):
    path = tmp_path / "x.ptrb"
    save_baseline(build_baseline([_trace([0.5, 1.0, 2.0]), _trace([0.0, 1.5, 2.5])]), path)
    blob = path.read_bytes()
    assert len(blob) == 48 + 3 * 8
    rewrite, message = _BASELINE_DAMAGE[damage]
    path.write_bytes(rewrite(blob))
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}")):
        load_baseline(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_capture_sample_rejected_naming_the_path(tmp_path, value):
    path = tmp_path / "x.ptrc"
    save_trace(_trace([0.5, -0.25, 1.0]), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:36] + struct.pack("<f", value) + blob[40:])
    with pytest.raises(
        CaptureFormatError, match=re.escape(f"{path}: sample 1 is {value}, must be finite")
    ):
        load_trace(path)
