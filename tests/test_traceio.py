import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powertrace.planner import Motor
from powertrace.tracesim import MotorTrace, NoiseModel, simulate_print
from powertrace.traceio import (
    CaptureFormatError,
    align_to_trigger,
    common_window,
    load_baseline,
    load_sd_blocks,
    load_trace,
    save_baseline,
    save_trace,
)
from powertrace.detect import _BLOCK, DetectionError, GoldenBaseline, build_baseline, smooth


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
        assert loaded.pointwise_sd is None  # the verdict reads no sd column
        assert path.read_bytes()[48 : 48 + 4 * 200] == baseline.pointwise_sd.tobytes()
        assert np.array_equal(loaded.reference, baseline.reference)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        save_trace(_trace([0.5, -0.25, 1.0]), tmp_path / "t.ptrc")
        save_baseline(build_baseline([_trace([0.5, 1.0]), _trace([0.0, 1.5])]), tmp_path / "b.ptrb")
        arrays = (
            load_trace(tmp_path / "t.ptrc").samples,
            load_baseline(tmp_path / "b.ptrb").reference,
        )
        assert [array.flags.writeable for array in arrays] == [False, False]

    def test_a_baseline_without_its_sd_column_is_not_saved(self, tmp_path):
        save_baseline(build_baseline([_trace([0.5, 1.0]), _trace([0.0, 1.5])]), tmp_path / "b.ptrb")
        loaded = load_baseline(tmp_path / "b.ptrb")
        with pytest.raises(DetectionError, match="the X baseline holds no sd column to save"):
            save_baseline(loaded, tmp_path / "again.ptrb")
        assert not (tmp_path / "again.ptrb").exists()

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


def _damaged_baseline(tmp_path, damage):
    """A saved three-sample baseline, rewritten by ``damage``: its path, its
    bytes before the damage and the error text that must follow the path."""
    path = tmp_path / "x.ptrb"
    save_baseline(build_baseline([_trace([0.5, 1.0, 2.0]), _trace([0.0, 1.5, 2.5])]), path)
    blob = path.read_bytes()
    assert len(blob) == 48 + 3 * 8
    rewrite, message = _BASELINE_DAMAGE[damage]
    path.write_bytes(rewrite(blob))
    return path, blob, message


@pytest.mark.parametrize("damage", sorted(_BASELINE_DAMAGE))
def test_damaged_baseline_body_rejected_naming_the_path(tmp_path, damage):
    path, _, message = _damaged_baseline(tmp_path, damage)
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}")):
        load_baseline(path)


def _load_sd(path):
    """A baseline's whole sd column, drained from ``load_sd_blocks``.  Each
    block is copied as it is yielded: every block is a view of one reused
    buffer."""
    count = struct.unpack_from("<Q", path.read_bytes(), 40)[0]
    return np.concatenate([block.copy() for block in load_sd_blocks(path, 0, count)])


# A reader of the sd column alone does not compare the stored peak with the
# column's max; load_baseline does.
@pytest.mark.parametrize("damage", sorted(set(_BASELINE_DAMAGE) - {"peak sd not the column max"}))
def test_load_sd_rejects_each_damaged_baseline_as_load_baseline_does(tmp_path, damage):
    path, blob, message = _damaged_baseline(tmp_path, damage)
    if damage == "nan reference sample":
        # The sd column is read alone, and this damage leaves it whole.
        assert _load_sd(path).tobytes() == blob[48:60]
        return
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}")):
        _load_sd(path)


# A baseline of three blocks, the last of 3 cells, whose sd is 0.25 but for
# one 0.5 in its first block: its stored peak is 0.5.
_LONG = 2 * _BLOCK + 3


def _long_baseline(path):
    sd = np.full(_LONG, 0.25, dtype=np.float32)
    sd[7] = 0.5
    reference = np.linspace(-1.0, 1.0, _LONG, dtype=np.float32)
    save_baseline(GoldenBaseline(Motor.X, 25_000.0, sd, reference, 2, 0.5, 20), path)
    return sd


_CELL_DAMAGE = {
    "nan": (float("nan"), "sd cell {cell} is nan, must be finite"),
    "negative": (-1.0, "sd cell {cell} is -1.0, must be >= 0"),
    "max past the first block": (3.0, "peak sd 0.5 is not the sd column's max 3.0"),
}


@pytest.mark.parametrize(
    "load, cell, value, message",
    [
        pytest.param(load, cell, *_CELL_DAMAGE[damage], id=f"{damage}-{where}-{load_id}")
        for load_id, load in [("load_baseline", load_baseline), ("load_sd", _load_sd)]
        for where, cell in [("second block", _BLOCK + 5), ("last block", 2 * _BLOCK + 1)]
        for damage in _CELL_DAMAGE
        # Only load_baseline compares the stored peak with the column's max.
        if load is load_baseline or damage != "max past the first block"
    ],
)
def test_damaged_sd_cell_past_the_first_block_named_by_its_index(tmp_path, load, cell, value, message):
    # The column is checked a block at a time: an error names the cell's
    # index in the column, and the max is carried across blocks.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    blob = bytearray(path.read_bytes())
    offset = 48 + 4 * cell  # past the header
    blob[offset : offset + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))
    expected = f"{path}: " + message.format(cell=cell)
    with pytest.raises(CaptureFormatError, match=re.escape(expected) + "$"):
        load(path)


def _sd_range(path, start, stop):
    """The bytes of ``load_sd_blocks(path, start, stop)``, each block copied
    as it is yielded, and the blocks' lengths and buffer addresses."""
    data, lengths, addresses = [], [], set()
    for block in load_sd_blocks(path, start, stop):
        assert block.dtype == np.float32
        data.append(block.tobytes())
        lengths.append(len(block))
        addresses.add(block.__array_interface__["data"][0])
    return b"".join(data), lengths, addresses


_RANGES = st.integers(0, _LONG).flatmap(
    lambda start: st.tuples(st.just(start), st.integers(start, _LONG))
)


@example(span=(0, 0), cell=0, value=-1.0)  # empty
@example(span=(_LONG - 1, _LONG), cell=_LONG - 1, value=float("nan"))  # one cell, the last
@example(span=(_BLOCK - 2, 2 * _BLOCK + 1), cell=_BLOCK, value=-1.0)  # straddles two block edges
@example(span=(_BLOCK + 7, _LONG), cell=_BLOCK + 6, value=float("nan"))  # to the end
@settings(max_examples=40, deadline=None)
@given(
    span=_RANGES, cell=st.integers(0, _LONG - 1), value=st.sampled_from([float("nan"), -1.0])
)
def test_sd_blocks_read_and_check_only_their_range(tmp_path_factory, span, cell, value):
    # The blocks of any range are that range of the file's sd column, byte
    # for byte, read _BLOCK cells at a time from their own first cell into
    # one reused buffer.  A damaged cell inside the range fails as
    # load_baseline fails, naming the cell's index in the column; one
    # outside it is not read.
    start, stop = span
    path = tmp_path_factory.mktemp("sd") / "x.ptrb"
    _long_baseline(path)
    data, lengths, addresses = _sd_range(path, start, stop)
    assert data == path.read_bytes()[48 + 4 * start : 48 + 4 * stop]
    edges = [min(lo + _BLOCK, stop) - lo for lo in range(start, stop, _BLOCK)]
    assert lengths == edges
    assert len(addresses) <= 1
    blob = bytearray(path.read_bytes())
    blob[48 + 4 * cell : 52 + 4 * cell] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))
    if not start <= cell < stop:
        assert _sd_range(path, start, stop)[0] == data
        return
    with pytest.raises(CaptureFormatError) as whole:
        load_baseline(path)
    assert f" sd cell {cell} is {value}, must be " in str(whole.value)
    with pytest.raises(CaptureFormatError, match=re.escape(str(whole.value)) + "$"):
        _sd_range(path, start, stop)


@pytest.mark.parametrize("damage", sorted(_BASELINE_DAMAGE))
def test_sd_blocks_reject_each_damaged_baseline_as_load_sd_does(tmp_path, damage):
    path, blob, message = _damaged_baseline(tmp_path, damage)
    if damage == "nan reference sample":
        # Neither reader reads the reference.
        assert _sd_range(path, 0, 3)[0] == blob[48:60]
        return
    if damage == "peak sd not the column max":
        # Only a reader of the whole column can take its max; load_baseline
        # checks it, and the experiment loads every baseline it reads.
        assert _sd_range(path, 0, 3)[0] == blob[48:60]
        return
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}") + "$"):
        _sd_range(path, 0, 3)


_REFERENCE = 48 + 4 * _LONG  # the first reference sample's offset in _long_baseline's file


@pytest.mark.parametrize(
    "load, edits, message",
    [
        pytest.param(
            load_baseline,
            [(48 + 4, _NAN_F32), (24, struct.pack("<Q", 0))],
            "sd cell 1 is nan, must be finite",
            id="load_baseline-nan sd cell, zero window",
        ),
        pytest.param(
            load_baseline,
            [(_REFERENCE + 8, _NAN_F32), (32, struct.pack("<d", 0.75))],
            "reference sample 2 is nan, must be finite",
            id="load_baseline-nan reference sample, peak not the max",
        ),
        pytest.param(
            load_baseline,
            [(48 + 4 * (_BLOCK + 5), struct.pack("<f", -1.0)), (_REFERENCE, _NAN_F32)],
            f"sd cell {_BLOCK + 5} is -1.0, must be >= 0",
            id="load_baseline-negative sd cell in block 2, nan reference sample",
        ),
        pytest.param(
            lambda path: _sd_range(path, 0, 10),
            [(24, struct.pack("<Q", 0)), (48 + 12, _NAN_F32)],
            "smoothing window is 0, must be >= 1",
            id="load_sd_blocks-zero window, nan sd cell in range",
        ),
    ],
)
def test_of_two_faults_the_first_checked_is_reported(tmp_path, load, edits, message):
    # load_baseline checks the sd column, then the reference, then the
    # header fields and the stored peak; load_sd_blocks checks the header
    # fields before it reads a cell.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    blob = bytearray(path.read_bytes())
    for offset, value in edits:
        blob[offset : offset + len(value)] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}") + "$"):
        load(path)


@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, _LONG + 1), (_LONG + 1, _LONG + 1)])
def test_sd_blocks_refuse_a_range_outside_the_column(tmp_path, start, stop):
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    message = f"{path}: sd cells {start}:{stop} are outside 0:{_LONG}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _sd_range(path, start, stop)


def test_load_sd_returns_the_saved_column(tmp_path):
    # Drained whole, the blocks are the saved column.
    path = tmp_path / "x.ptrb"
    sd = _long_baseline(path)
    loaded = _load_sd(path)
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == sd.tobytes() == path.read_bytes()[48 : 48 + 4 * _LONG]
    assert load_baseline(path).reference.tobytes() == path.read_bytes()[48 + 4 * _LONG :]


def test_load_baseline_holds_the_reference_and_one_block_of_scratch(tmp_path):
    # The sd column is checked through one reused block, and only the
    # reference is kept: about 4 bytes per sample, not both columns and a
    # whole-column mask.
    n = 1 << 20
    path = tmp_path / "x.ptrb"
    sd = np.full(n, 0.5, dtype=np.float32)
    save_baseline(GoldenBaseline(Motor.X, 25_000.0, sd, np.zeros(n, np.float32), 2, 0.5, 20), path)
    del sd
    tracemalloc.start()
    try:
        baseline = load_baseline(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert baseline.sample_count == n
    assert peak <= 4.25 * n
    assert held <= 4 * n + 64 * 1024


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
