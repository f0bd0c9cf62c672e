import os
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powertrace import tracesim
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
from powertrace.detect import (
    _BLOCK,
    DetectionError,
    GoldenBaseline,
    Verdict,
    _read_blocks,
    build_baseline,
    detect_print,
    smooth,
)


def _cells(baseline, name, start=0, stop=None):
    """Cells ``start:stop`` (to the end by default) of the column ``name``
    (``"pointwise_sd"`` or ``"reference"``) of ``baseline``, read in one
    read through its reader."""
    stop = baseline.sample_count if stop is None else stop
    with baseline._column_cells(name, start) as read:
        return read(np.empty(stop - start, dtype=np.float32)).copy()


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
        assert loaded.reference is None  # it reads the reference back from the file
        assert loaded.sample_count == 200
        assert path.read_bytes()[48 : 48 + 4 * 200] == baseline.pointwise_sd.tobytes()
        assert _cells(loaded, "pointwise_sd").tobytes() == baseline.pointwise_sd.tobytes()
        assert _cells(loaded, "reference").tobytes() == baseline.reference.tobytes()

    def test_loaded_arrays_are_read_only(self, tmp_path):
        # A loaded baseline holds no array at all.
        save_trace(_trace([0.5, -0.25, 1.0]), tmp_path / "t.ptrc")
        save_baseline(build_baseline([_trace([0.5, 1.0]), _trace([0.0, 1.5])]), tmp_path / "b.ptrb")
        assert not load_trace(tmp_path / "t.ptrc").samples.flags.writeable
        loaded = load_baseline(tmp_path / "b.ptrb")
        assert loaded.pointwise_sd is None and loaded.reference is None

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


# A baseline of three blocks, the last of 3 cells, whose sd is 0.25 but for
# one 0.5 in its first block: its stored peak is 0.5.
_LONG = 2 * _BLOCK + 3
_REFERENCE = 48 + 4 * _LONG  # the first reference sample's offset in _long_baseline's file
# Each column's first cell's offset in _long_baseline's file, and its cell name.
_COLUMNS = {"pointwise_sd": (48, "sd cell"), "reference": (_REFERENCE, "reference sample")}


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
    "read, cell, value, message",
    [
        pytest.param(read, cell, *_CELL_DAMAGE[damage], id=f"{damage}-{where}-{read}")
        for read in ("load_baseline", "span sd read")
        for where, cell in [("second block", _BLOCK + 5), ("last block", 2 * _BLOCK + 1)]
        for damage in _CELL_DAMAGE
        # Only load_baseline compares the stored peak with the column's max.
        if read == "load_baseline" or damage != "max past the first block"
    ],
)
def test_damaged_sd_cell_past_the_first_block_named_by_its_index(tmp_path, read, cell, value, message):
    # The column is checked a block at a time: an error names the cell's
    # index in the column, and the max is carried across blocks.  A span's
    # sd cells, read through a baseline loaded before the damage, are
    # checked as load_baseline checks them.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    loaded = load_baseline(path)
    _stamped_rewrite(path, 48 + 4 * cell, struct.pack("<f", value))  # past the header
    expected = f"{path}: " + message.format(cell=cell)
    with pytest.raises(CaptureFormatError, match=re.escape(expected) + "$"):
        if read == "span sd read":
            _blocks(loaded, "pointwise_sd", _BLOCK, _LONG)
        else:
            load_baseline(path)


@pytest.mark.parametrize("name", sorted(_COLUMNS))
@pytest.mark.parametrize("damage", sorted(_BASELINE_DAMAGE))
def test_column_reads_refuse_each_damaged_baseline_as_load_baseline_does(tmp_path, damage, name):
    # A damaged file written over a loaded baseline, its stamp put back, is
    # refused by a read of either column: a damaged header as changed since
    # the load, since the header is compared with the load's before any cell
    # is read, and a damaged cell of the column read as load_baseline
    # refuses it.  A damaged cell of the other column is not read.
    path, blob, message = _damaged_baseline(tmp_path, damage)
    damaged = path.read_bytes()
    path.write_bytes(blob)
    loaded = load_baseline(path)
    stat = os.stat(path)
    path.write_bytes(damaged)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    cell_name = _COLUMNS[name][1]
    if message.startswith(cell_name):
        expected = message
    elif message.startswith(tuple(cell for _, cell in _COLUMNS.values())):
        first = 48 if name == "pointwise_sd" else 60
        assert _cells(loaded, name).tobytes() == blob[first : first + 12]
        return
    else:
        expected = "changed since it was loaded"
    with pytest.raises(CaptureFormatError, match="^" + re.escape(f"{path}: {expected}") + "$"):
        _cells(loaded, name)


def _blocks(baseline, name, start, stop):
    """The bytes of cells ``start:stop`` of the column ``name``, read through
    ``baseline``'s reader by ``_read_blocks``, each block copied as it is
    yielded, and the blocks' lengths and buffer addresses."""
    data, lengths, addresses = [], [], set()
    with baseline._column_cells(name, start) as read:
        for _, block in _read_blocks(read, start, stop):
            assert block.dtype == np.float32
            data.append(block.tobytes())
            lengths.append(len(block))
            addresses.add(block.__array_interface__["data"][0])
    return b"".join(data), lengths, addresses


_RANGES = st.integers(0, _LONG).flatmap(
    lambda start: st.tuples(st.just(start), st.integers(start, _LONG))
)


@example(span=(0, 0), cell=0, value=float("nan"), name="pointwise_sd")  # empty
@example(span=(_LONG - 1, _LONG), cell=_LONG - 1, value=float("nan"), name="reference")  # the last
@example(span=(_BLOCK - 2, 2 * _BLOCK + 1), cell=_BLOCK, value=float("-inf"), name="pointwise_sd")
@example(span=(_BLOCK + 7, _LONG), cell=_BLOCK + 6, value=float("nan"), name="reference")  # to the end
@example(span=(2 * _BLOCK, _LONG), cell=2 * _BLOCK + 1, value=float("nan"), name="pointwise_sd")
@settings(max_examples=40, deadline=None)
@given(
    span=_RANGES,
    cell=st.integers(0, _LONG - 1),
    value=st.sampled_from([float("nan"), float("-inf")]),
    name=st.sampled_from(sorted(_COLUMNS)),
)
def test_column_reads_read_and_check_only_their_range(tmp_path_factory, span, cell, value, name):
    # The blocks of any range of either column of a loaded baseline are
    # that range of the file's column, byte for byte, read _BLOCK cells at a
    # time from their own first cell into one reused buffer (the third
    # example straddles two block edges, the last reads the last block).  A
    # non-finite cell written into the range after the load, the file's
    # stamp put back, fails as load_baseline fails on it, naming the cell's
    # index in the column; one outside the range is not read.
    start, stop = span
    path = tmp_path_factory.mktemp("cells") / "x.ptrb"
    _long_baseline(path)
    loaded = load_baseline(path)
    first, cell_name = _COLUMNS[name]
    data, lengths, addresses = _blocks(loaded, name, start, stop)
    assert data == path.read_bytes()[first + 4 * start : first + 4 * stop]
    edges = [min(lo + _BLOCK, stop) - lo for lo in range(start, stop, _BLOCK)]
    assert lengths == edges
    assert len(addresses) <= 1
    _stamped_rewrite(path, first + 4 * cell, struct.pack("<f", value))
    if not start <= cell < stop:
        assert _blocks(loaded, name, start, stop)[0] == data
        return
    message = f"{path}: {cell_name} {cell} is {value}, must be finite"
    with pytest.raises(CaptureFormatError, match=re.escape(message) + "$"):
        _blocks(loaded, name, start, stop)
    with pytest.raises(CaptureFormatError, match=re.escape(message) + "$"):
        load_baseline(path)


@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param(
            [(48 + 4, _NAN_F32), (24, struct.pack("<Q", 0))],
            "sd cell 1 is nan, must be finite",
            id="load_baseline-nan sd cell, zero window",
        ),
        pytest.param(
            [(_REFERENCE + 8, _NAN_F32), (32, struct.pack("<d", 0.75))],
            "reference sample 2 is nan, must be finite",
            id="load_baseline-nan reference sample, peak not the max",
        ),
        pytest.param(
            [(48 + 4 * (_BLOCK + 5), struct.pack("<f", -1.0)), (_REFERENCE, _NAN_F32)],
            f"sd cell {_BLOCK + 5} is -1.0, must be >= 0",
            id="load_baseline-negative sd cell in block 2, nan reference sample",
        ),
    ],
)
def test_of_two_faults_the_first_checked_is_reported(tmp_path, edits, message):
    # load_baseline checks the sd column, then the reference, then the
    # header fields and the stored peak.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    blob = bytearray(path.read_bytes())
    for offset, value in edits:
        blob[offset : offset + len(value)] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(CaptureFormatError, match=re.escape(f"{path}: {message}") + "$"):
        load_baseline(path)


@pytest.mark.parametrize("name", sorted(_COLUMNS))
@pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, _LONG + 1), (_LONG + 1, _LONG + 1)])
def test_column_reads_refuse_a_range_outside_the_column(tmp_path, start, stop, name):
    # A read that would take any cell outside the column is refused before
    # it reads: an sd read does not run on into the reference, nor a
    # reference read into the end of the file.  A reversed range makes no
    # read: _read_blocks refuses it (numpy refuses its negative scratch).
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    loaded = load_baseline(path)
    if stop < start:
        with pytest.raises(ValueError):
            _blocks(loaded, name, start, stop)
        return
    message = f"{path}: {_COLUMNS[name][1]}s {start}:{stop} are outside 0:{_LONG}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        _cells(loaded, name, start, stop)


def test_load_baseline_holds_no_column_and_one_block_of_scratch(tmp_path):
    # Each column is checked through one reused block in turn, and neither is
    # kept: the call holds about nothing (measured 1.4 KiB at 2**20
    # samples, where the reference alone held 4 MiB) and peaks at about one
    # block and its masks (measured 173 KiB, 1.3 blocks).
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
    block = 4 * _BLOCK  # bytes of one float32 block
    assert baseline.sample_count == n
    assert peak <= 2 * block
    assert held <= block


def test_detect_print_with_loaded_baselines_makes_no_reference_length_array(tmp_path):
    # detect_print reads each loaded baseline's reference a block at a time
    # on its motor's thread, into cells of the kernel's spent running sum:
    # on two threads it peaks at their block scratch, measured 2.84 bytes
    # per sample at 2**20 samples and 81,920-sample blocks (2.51 at 49,152
    # with a reference block of its own, 4.09 at 81,920 with one; 3.41 at
    # 98,304 even with the lent cells), where one float32 reference-length
    # array would add 4.  What stays held after the call is the result,
    # which keeps no reference either.
    n = 1 << 20
    reference = np.sin(np.arange(n) * (2 * np.pi / 2000)).astype(np.float32)
    for motor in Motor:
        sd = np.full(n, 0.01, dtype=np.float32)
        baseline = GoldenBaseline(motor, 25_000.0, sd, reference, 2, 0.01, 20)
        save_baseline(baseline, tmp_path / motor.name)
    baselines = {motor: load_baseline(tmp_path / motor.name) for motor in Motor}
    samples = reference + np.random.default_rng(5).normal(0.0, 0.05, n).astype(np.float32)
    samples[500_000:600_000] += 0.5
    captures = {motor: MotorTrace(motor, 25_000.0, samples, 0) for motor in Motor}
    with mock.patch.object(tracesim, "_WORKERS", 2):
        detect_print(captures, baselines)  # one-time imports and thread start-up
        tracemalloc.start()
        try:
            result = detect_print(captures, baselines)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result.overall is Verdict.MALICIOUS
    assert peak / n <= 3.0
    assert held / n <= 0.05


def _length(kind, window):
    """Baseline lengths around the block edges: one short of a block, one
    block, one past it, and two blocks and the window."""
    return [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + window][kind]


@example(window=1, kind=0, change=-1, lo=0, hi=10, step=250, seed=0)
@example(window=20, kind=1, change=0, lo=_BLOCK - 5, hi=_BLOCK + 5, step=1, seed=1)
@example(window=2, kind=2, change=1, lo=-3, hi=None, step=_BLOCK, seed=2)
@example(window=50, kind=3, change=_BLOCK, lo=_BLOCK + 7, hi=2 * _BLOCK + 60, step=7, seed=3)
@example(window=37, kind=3, change=-_BLOCK, lo=None, hi=-1, step=250, seed=4)
@settings(max_examples=30, deadline=None)
@given(
    window=st.integers(1, 50),
    kind=st.integers(0, 3),
    change=st.one_of(st.integers(-_BLOCK, -1), st.just(0), st.integers(1, _BLOCK)),
    lo=st.none() | st.integers(-2 * _BLOCK - 60, 3 * _BLOCK),
    hi=st.none() | st.integers(-2 * _BLOCK - 60, 3 * _BLOCK),
    step=st.integers(1, 400) | st.sampled_from([250, _BLOCK]),
    seed=st.integers(0, 2**16),
)
def test_loaded_baselines_judge_and_read_as_the_saved_ones(
    tmp_path_factory, window, kind, change, lo, hi, step, seed
):
    # A baseline read back by load_baseline, which reads its reference from
    # the file as the print is judged, gives the reports and every
    # deviation read of the in-memory baseline it was saved from, byte for
    # byte, for captures shorter and longer than the baseline: whole reads,
    # [lo:hi] and [::step] reads, with and without out.
    n = _length(kind, window)
    rng = np.random.default_rng(seed)
    reference = rng.normal(0.0, 0.3, n).astype(np.float32)
    sd = np.abs(rng.normal(0.0, 0.05, n)).astype(np.float32)
    built = GoldenBaseline(Motor.X, 25_000.0, sd, reference, 2, float(sd.max()), window)
    path = tmp_path_factory.mktemp("judged") / "x.ptrb"
    save_baseline(built, path)
    loaded = load_baseline(path)
    length = max(window, n + change)
    samples = np.resize(reference, length) + rng.normal(0.0, 0.02, length).astype(np.float32)
    start = int(rng.integers(0, length))
    samples[start : start + 200] += 0.5
    capture = _trace(samples)
    judged = min(length, n)
    smoothed = smooth(capture, window).samples[:judged]
    expected = np.abs(smoothed.astype(np.float64) - reference[:judged])
    results = {
        "built": detect_print({Motor.X: capture}, {Motor.X: built}),
        "loaded": detect_print({Motor.X: capture}, {Motor.X: loaded}),
        "loaded, out": detect_print(
            {Motor.X: capture}, {Motor.X: loaded}, out={Motor.X: np.empty(length, np.float32)}
        ),
    }
    for name, result in results.items():
        assert result.reports == results["built"].reports, name
        assert result.deviations[Motor.X].tobytes() == expected.tobytes(), name
        for part in (slice(lo, hi), slice(None, None, step), slice(lo, hi, step)):
            got = result.deviations[Motor.X, part]
            assert got.tobytes() == expected[part].tobytes(), (name, part)
    # Either column, read back through the reader whole and over [lo:hi], a
    # block at a time, is the saved column's cells.
    cells = range(n)[lo:hi]
    for name, column in (("pointwise_sd", sd), ("reference", reference)):
        for first, stop in ((0, n), (cells.start, max(cells.start, cells.stop))):
            got = _blocks(loaded, name, first, stop)[0]
            assert got == column[first:stop].tobytes(), (name, first, stop)


def _stamped_rewrite(path, offset, value):
    """Write ``value`` at ``offset`` in place, then put the file's
    timestamps back: a change its size, inode and mtime do not show."""
    stat = os.stat(path)
    with path.open("r+b") as handle:
        handle.seek(offset)
        handle.write(value)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def _replace_with_another(path):
    """Put another valid baseline of the same length at ``path``, as a new file."""
    other = path.with_name("other.ptrb")
    sd = np.full(_LONG, 0.5, dtype=np.float32)
    reference = np.zeros(_LONG, dtype=np.float32)
    save_baseline(GoldenBaseline(Motor.X, 25_000.0, sd, reference, 2, 0.5, 20), other)
    other.replace(path)


# Each change to a loaded baseline's file, given the column that is read
# next: how it is made, and the error text that must follow the path.
_CHANGES = {
    "nan cell of the column read past the first block, same stamp": (
        lambda path, name: _stamped_rewrite(path, _COLUMNS[name][0] + 4 * (_BLOCK + 5), _NAN_F32),
        "{cell} %d is nan, must be finite" % (_BLOCK + 5),
    ),
    "header field, same stamp": (
        lambda path, name: _stamped_rewrite(path, 24, struct.pack("<Q", 21)),
        "changed since it was loaded",
    ),
    "truncated": (
        lambda path, name: path.write_bytes(path.read_bytes()[:-4]),
        "changed since it was loaded",
    ),
    "replaced by another valid baseline": (
        lambda path, name: _replace_with_another(path),
        "changed since it was loaded",
    ),
}
# Each read after the change: the column it reads, and how.
_READS = {
    "detect_print": ("reference", lambda loaded, result, judge: judge()),
    "whole deviation": ("reference", lambda loaded, result, judge: result.deviations[Motor.X]),
    "strided deviation": (
        "reference",
        lambda loaded, result, judge: result.deviations[Motor.X, ::250],
    ),
    "span deviation": (
        "reference",
        lambda loaded, result, judge: result.deviations[Motor.X, _BLOCK : _BLOCK + 10],
    ),
    "span sd cells": (
        "pointwise_sd",
        lambda loaded, result, judge: _cells(loaded, "pointwise_sd", _BLOCK, _BLOCK + 10),
    ),
}


@pytest.mark.parametrize("read", sorted(_READS))
@pytest.mark.parametrize("change", sorted(_CHANGES))
def test_a_baseline_changed_after_loading_is_refused(tmp_path, change, read):
    # Every read of either column of a loaded baseline reopens its file,
    # checks that it is still the file loaded (device, inode, size, mtime
    # and header bytes), and checks each block it reads: no verdict, no
    # series and no excess comes from a changed file.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    loaded = load_baseline(path)
    capture = _trace(np.linspace(-1.0, 1.0, _LONG))

    def judge():
        return detect_print({Motor.X: capture}, {Motor.X: loaded})

    result = judge()
    name, do_read = _READS[read]
    make, message = _CHANGES[change]
    make(path, name)
    message = message.format(cell=_COLUMNS[name][1])
    with pytest.raises(CaptureFormatError, match="^" + re.escape(f"{path}: {message}") + "$"):
        do_read(loaded, result, judge)


def test_a_deviation_read_reads_the_reference_of_its_range_only(tmp_path):
    # A read checks every reference cell from its first sample to its last,
    # those a step skips too; a damaged cell outside them is not read.
    path = tmp_path / "x.ptrb"
    _long_baseline(path)
    loaded = load_baseline(path)
    result = detect_print({Motor.X: _trace(np.linspace(-1.0, 1.0, _LONG))}, {Motor.X: loaded})
    before = result.deviations[Motor.X]
    cell = _BLOCK + 5
    _stamped_rewrite(path, _REFERENCE + 4 * cell, _NAN_F32)
    for part in (slice(None, cell), slice(cell + 1, None), slice(cell + 1, None, 2)):
        assert result.deviations[Motor.X, part].tobytes() == before[part].tobytes()
    message = f"{path}: reference sample {cell} is nan, must be finite"
    with pytest.raises(CaptureFormatError, match="^" + re.escape(message) + "$"):
        result.deviations[Motor.X, cell - 2 :: 7]


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
