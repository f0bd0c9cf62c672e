"""Capture persistence and alignment.

Defines the binary capture container (magic ``PTRC``) that real oscilloscope
exports would be converted into, and trigger alignment; the cut to a common
length is ``detect.build_baseline``'s, after smoothing, so no module here
calls ``common_window``.  The baseline container (magic ``PTRB``)
starts with the same header prefix and holds what the verdict and the
excess series read: the smoothing window of its golden traces, the peak
golden sd, the golden sd column and the reference trace.  The verdict
reads no sd column, so ``load_baseline`` checks it a block at a time and
keeps only the reference.  The excess series read the column's cells a
range at a time, with ``load_sd_blocks``; both read it through one
checked block reader.

All integers and floats are little-endian; samples are float32.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .detect import _BLOCK, DetectionError, GoldenBaseline, _checked_fields
from .planner import MOTORS, Motor
from .tracesim import MotorTrace, TraceSimError

__all__ = [
    "CaptureFormatError",
    "CaptureIOError",
    "save_trace",
    "load_trace",
    "align_to_trigger",
    "common_window",
    "save_baseline",
    "load_baseline",
    "load_sd_blocks",
]

_UNITS_AMPS = 0

# Every container starts with this prefix: magic, version, motor code,
# units code, sample_rate.
_PREFIX = struct.Struct("<4sHBBd")


@dataclass(frozen=True)
class _Layout:
    """A container after the shared prefix: header fields, the last of them
    the sample count, then one array per per-sample column, each that long."""

    magic: bytes
    version: int
    fields: struct.Struct
    body: tuple[tuple[str, str], ...]  # (cell name, dtype) per array, in file order
    stale: str = ""  # how to replace a file of an older version


# fields: trigger_index, sample_count; body: samples
_TRACE = _Layout(b"PTRC", 1, struct.Struct("<QQ"), (("sample", "<f4"),))
# fields: source_count, smoothing_window, peak_sd, sample_count; body:
# pointwise sd, reference samples.  Version 3 stored no window; version 2
# also no peak, and a float64 sd; version 1 also stored the print-end index
# and a mean column.
_BASELINE = _Layout(
    b"PTRB",
    4,
    struct.Struct("<QQdQ"),
    (("sd cell", "<f4"), ("reference sample", "<f4")),
    "rebuild it from its captures with 'powertrace baseline'",
)


class CaptureFormatError(ValueError):
    """File is not a valid capture/baseline container."""


class CaptureIOError(OSError):
    """I/O failure, annotated with the path involved."""


def save_trace(trace: MotorTrace, path: str | Path) -> None:
    """Write a trace; ``load_trace`` returns it bit-exactly."""
    fields = (int(trace.trigger_index), len(trace.samples))
    _write(path, _TRACE, trace.motor, trace.sample_rate, fields, (trace.samples,))


def load_trace(path: str | Path) -> MotorTrace:
    path = Path(path)
    with _opened(path, _TRACE) as (handle, motor, rate, (trigger, count)):
        samples = _column(handle, path, _TRACE, "sample", count)
    with _as_format_error(path):
        return MotorTrace(motor=motor, sample_rate=rate, samples=samples, trigger_index=trigger)


def align_to_trigger(trace: MotorTrace) -> MotorTrace:
    """Drop everything before the trigger; the trigger becomes sample 0."""
    if trace.trigger_index == 0:
        return trace
    return replace(trace, samples=trace.samples[trace.trigger_index :], trigger_index=0)


def common_window(traces: list[MotorTrace]) -> list[MotorTrace]:
    """Truncate aligned traces to the minimum common length."""
    if not traces:
        return []
    shortest = min(len(trace.samples) for trace in traces)
    return [
        trace
        if len(trace.samples) == shortest
        else replace(
            trace,
            samples=trace.samples[:shortest],
            trigger_index=min(trace.trigger_index, shortest - 1),
        )
        for trace in traces
    ]


def save_baseline(baseline: GoldenBaseline, path: str | Path) -> None:
    """Persist a baseline: header (window, peak sd as f64), sd (f32), reference (f32).
    A baseline without its sd column, as ``load_baseline`` returns one, is
    refused before the file is opened."""
    if baseline.pointwise_sd is None:
        raise DetectionError(f"the {baseline.motor.name} baseline holds no sd column to save")
    fields = (
        baseline.source_count, baseline.smoothing_window, baseline.peak_sd, baseline.sample_count
    )
    arrays = (baseline.pointwise_sd, baseline.reference)
    _write(path, _BASELINE, baseline.motor, baseline.sample_rate, fields, arrays)


def load_baseline(path: str | Path) -> GoldenBaseline:
    """Read a baseline and keep only what the verdict reads: its
    ``pointwise_sd`` is ``None``.  The whole file is checked: its sd column
    as :func:`load_sd_blocks` checks it, through one reused block, so the
    call holds the reference and that block; then the reference, the header
    fields and the stored peak, which must be the column's max.  An empty
    body, a negative sd cell or a header field ``GoldenBaseline`` rejects
    would corrupt the verdict, and is rejected."""
    path = Path(path)
    with _opened(path, _BASELINE) as (handle, motor, rate, fields):
        count = fields[-1]
        sd_max = max((block.max() for block in _sd_blocks(handle, path, 0, count)), default=None)
        reference = _column(handle, path, _BASELINE, "reference sample", count)
    _check_baseline_fields(path, fields, sd_max)
    source_count, window, peak_sd, _ = fields
    with _as_format_error(path):
        return GoldenBaseline(
            motor=motor,
            sample_rate=rate,
            pointwise_sd=None,
            reference=reference,
            source_count=source_count,
            peak_sd=peak_sd,
            smoothing_window=window,
        )


def load_sd_blocks(path: str | Path, start: int, stop: int) -> Iterator[np.ndarray]:
    """Yield a baseline's sd cells ``start:stop`` in order, as float32
    blocks of at most ``_BLOCK`` cells read into one reused buffer, so each
    block holds only until the next is asked for.

    The header is checked as :func:`load_baseline` checks it, and each cell
    read as it checks it, with the same errors and the cell's index in the
    column; no cell outside the range is read, so the stored peak is not
    compared with the column's max (:func:`load_baseline` does that).  A
    range outside ``0..count`` raises ``ValueError``.  Nothing is read or
    raised before the first block is asked for."""
    path = Path(path)
    with _opened(path, _BASELINE) as (handle, _, _, fields):
        _check_baseline_fields(path, fields)
        count = fields[-1]
        if not 0 <= start <= stop <= count:
            raise ValueError(f"{path}: sd cells {start}:{stop} are outside 0:{count}")
        yield from _sd_blocks(handle, path, start, stop)


def _sd_blocks(handle, path: Path, start: int, stop: int) -> Iterator[np.ndarray]:
    """Yield a baseline's sd cells ``start:stop``, the file at its body, as
    blocks of one reused buffer.  Each cell must be finite and >= 0; an
    error names its index in the column."""
    dtype = np.dtype(dict(_BASELINE.body)["sd cell"])
    handle.seek(start * dtype.itemsize, os.SEEK_CUR)  # the sd column comes first
    scratch = np.empty(min(stop - start, _BLOCK), dtype=dtype)
    for lo, block in _checked_blocks(handle, path, "sd cell", start, stop, scratch):
        bad = np.flatnonzero(block < 0)
        if len(bad):
            cell = lo + int(bad[0])
            raise CaptureFormatError(f"{path}: sd cell {cell} is {block[bad[0]]}, must be >= 0")
        yield block


def _check_baseline_fields(path: Path, fields: tuple, sd_max: np.float32 | None = None) -> None:
    """Reject an empty baseline and a header field ``GoldenBaseline``
    rejects, and, given the sd column's max, a stored peak that is not it."""
    source_count, window, peak_sd, count = fields
    if count == 0:
        raise CaptureFormatError(f"{path}: empty baseline")
    with _as_format_error(path):
        _checked_fields(source_count, window, peak_sd, sd_max)


def _write(
    path: str | Path,
    layout: _Layout,
    motor: Motor,
    sample_rate: float,
    fields: tuple,
    arrays: tuple[np.ndarray, ...],
) -> None:
    path = Path(path)
    header = _PREFIX.pack(layout.magic, layout.version, motor.code, _UNITS_AMPS, float(sample_rate))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(header + layout.fields.pack(*fields))
            for array, (_, dtype) in zip(arrays, layout.body):
                handle.write(np.ascontiguousarray(array, dtype=dtype).data)
    except OSError as exc:
        raise CaptureIOError(f"{path}: {exc}") from exc


def _column(handle, path: Path, layout: _Layout, name: str, count: int) -> np.ndarray:
    """Read the ``count`` cells of ``layout``'s column named ``name``, the
    file at its first, straight into their own (writable) array, each block
    checked by :func:`_checked_blocks`."""
    array = np.empty(count, dtype=dict(layout.body)[name])
    for _ in _checked_blocks(handle, path, name, 0, count, array):
        pass
    return array


@contextmanager
def _opened(path: Path, layout: _Layout):
    """Open a container and check its header: yield the file, positioned at
    its body, and its motor, sample rate and header fields.  The body's
    length is checked against the file's size before any of it is read.
    An ``OSError`` while the file is open is a ``CaptureIOError``."""
    try:
        with path.open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            offset = _PREFIX.size + layout.fields.size
            header = handle.read(offset)
            if len(header) < offset:
                raise CaptureFormatError(f"{path}: truncated header")
            magic, version, motor_code, units, rate = _PREFIX.unpack_from(header)
            if magic != layout.magic:
                raise CaptureFormatError(f"{path}: bad magic {magic!r}")
            if version != layout.version:
                hint = f"; {layout.stale}" if layout.stale and version < layout.version else ""
                raise CaptureFormatError(f"{path}: unsupported version {version}{hint}")
            if units != _UNITS_AMPS:
                raise CaptureFormatError(f"{path}: unknown units code {units}")
            if motor_code >= len(MOTORS):
                raise CaptureFormatError(f"{path}: unknown motor code {motor_code}")
            if not (math.isfinite(rate) and rate > 0):
                raise CaptureFormatError(f"{path}: sample rate must be finite and > 0, got {rate}")
            fields = layout.fields.unpack_from(header, _PREFIX.size)
            count = fields[-1]
            expected = offset + count * sum(np.dtype(dtype).itemsize for _, dtype in layout.body)
            if size < expected:
                raise CaptureFormatError(f"{path}: unexpected end of samples")
            if size > expected:
                raise CaptureFormatError(f"{path}: trailing bytes after samples")
            yield handle, MOTORS[motor_code], rate, fields
    except OSError as exc:
        raise CaptureIOError(f"{path}: {exc}") from exc


def _checked_blocks(
    handle, path: Path, name: str, start: int, stop: int, array: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Read cells ``start:stop`` of the column named ``name``, the file at
    cell ``start``, ``_BLOCK`` cells at a time: into consecutive blocks of
    ``array`` when it holds them all, else each into its first cells.
    Samples enter the package here, so each block must be finite; yield it
    with the index of its first cell."""
    whole = len(array) >= stop - start
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        block = array[lo - start : hi - start] if whole else array[: hi - lo]
        # The file may have shrunk since it was measured.
        if handle.readinto(block) != block.nbytes:
            raise CaptureFormatError(f"{path}: unexpected end of samples")
        finite = np.isfinite(block)
        if not finite.all():
            cell = int(finite.argmin())
            raise CaptureFormatError(f"{path}: {name} {lo + cell} is {block[cell]}, must be finite")
        yield lo, block


@contextmanager
def _as_format_error(path: str | Path):
    """Report a loaded value the trace or baseline rejects, such as a
    trigger index past the last sample, as a format error naming ``path``."""
    try:
        yield
    except (TraceSimError, DetectionError) as exc:
        raise CaptureFormatError(f"{path}: {exc}") from None
