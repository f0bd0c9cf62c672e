"""Capture persistence and alignment.

Defines the binary capture container (magic ``PTRC``) that real oscilloscope
exports would be converted into, and trigger alignment; the cut to a common
length is ``detect.build_baseline``'s, after smoothing, so no module here
calls ``common_window``.  The baseline container (magic ``PTRB``)
starts with the same header prefix and holds what the verdict and the
excess series read: the smoothing window of its golden traces, the peak
golden sd, the golden sd column and the reference trace.
``load_baseline`` checks both columns a block at a time and keeps neither:
the baseline it returns reads either column back from the file, a checked
block at a time: the reference while a print is judged, and the sd cells
of the excess series a range at a time.  Every column is read through one
checked column reader, ``_cells``, which refuses a cell outside the column,
a cell that is not finite and a negative sd cell, and every read after the
load first checks that the file is still the one loaded.

All integers and floats are little-endian; samples are float32.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable, Iterator
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
    nonnegative: tuple[str, ...] = ()  # the cells that must also be >= 0


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
    ("sd cell",),
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
    with _opened(path, _TRACE) as (handle, motor, rate, (trigger, count), _):
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
    """Read a baseline and keep none of its columns: its ``pointwise_sd``
    and ``reference`` are ``None``, and its ``reader`` reads both back from
    the file (:class:`_BaselineFile`).  The whole file is checked first,
    through one reused block: its sd column, each cell finite and >= 0, then
    its reference, each sample finite, then the header fields and the stored
    peak, which must be the sd column's max; an error names the cell's index
    in its column.  An empty body, a negative sd cell or a header field
    ``GoldenBaseline`` rejects would corrupt the verdict, and is rejected."""
    path = Path(path)
    with _opened(path, _BASELINE) as (handle, motor, rate, fields, identity):
        source_count, window, peak_sd, count = fields
        scratch = np.empty(min(count, _BLOCK), dtype=np.float32)  # for both columns
        sd_max = np.float32(0)
        sd = _cells(handle, path, _BASELINE, "sd cell", count, 0)
        for lo in range(0, count, _BLOCK):
            sd_max = max(sd_max, sd(scratch[: count - lo]).max())
        reference = _cells(handle, path, _BASELINE, "reference sample", count, 0)
        for lo in range(0, count, _BLOCK):
            reference(scratch[: count - lo])
    if count == 0:
        raise CaptureFormatError(f"{path}: empty baseline")
    with _as_format_error(path):
        _checked_fields(source_count, window, peak_sd, sd_max)
        return GoldenBaseline(
            motor=motor,
            sample_rate=rate,
            pointwise_sd=None,
            reference=None,
            source_count=source_count,
            peak_sd=peak_sd,
            smoothing_window=window,
            reader=_BaselineFile(path, count, identity),
        )


# Each baseline column's cell name, by the ``GoldenBaseline`` field that
# holds the column in memory.
_BASELINE_CELLS = {"pointwise_sd": "sd cell", "reference": "reference sample"}


@dataclass(frozen=True)
class _BaselineFile:
    """The ``reader`` of a baseline :func:`load_baseline` returns: ``len()``
    is its sample count, and :meth:`column` reads either column back from
    ``path``, which must still be the file loaded, of ``identity``."""

    path: Path
    count: int
    identity: tuple

    def __len__(self) -> int:
        return self.count

    @contextmanager
    def column(self, name: str, start: int) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
        """Reopen the file, refuse it if it changed since the load, and
        yield :func:`_cells`' ``read`` of the column held in memory as
        ``name`` (``"pointwise_sd"`` or ``"reference"``) from ``start`` on."""
        with _opened(self.path, _BASELINE, self.identity) as (handle, *_):
            yield _cells(handle, self.path, _BASELINE, _BASELINE_CELLS[name], self.count, start)


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
    file at its first, straight into their own (writable) array, a block at
    a time through :func:`_cells`."""
    array = np.empty(count, dtype=dict(layout.body)[name])
    read = _cells(handle, path, layout, name, count, 0)
    for lo in range(0, count, _BLOCK):
        read(array[lo : lo + _BLOCK])
    return array


@contextmanager
def _opened(path: Path, layout: _Layout, loaded: tuple | None = None):
    """Open a container and check its header: yield the file, positioned at
    its body, its motor, sample rate and header fields, and its identity:
    device, inode, size and modification time in ns, and header bytes.  The
    body's length is checked against the file's size before any of it is
    read.  Given the ``loaded`` identity, a file that no longer has it is
    rejected first.  An ``OSError`` while the file is open is a
    ``CaptureIOError``."""
    try:
        with path.open("rb") as handle:
            stat = os.fstat(handle.fileno())
            offset = _PREFIX.size + layout.fields.size
            header = handle.read(offset)
            identity = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, header)
            if loaded is not None and identity != loaded:
                raise CaptureFormatError(f"{path}: changed since it was loaded")
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
            if stat.st_size < expected:
                raise CaptureFormatError(f"{path}: unexpected end of samples")
            if stat.st_size > expected:
                raise CaptureFormatError(f"{path}: trailing bytes after samples")
            yield handle, MOTORS[motor_code], rate, fields, identity
    except OSError as exc:
        raise CaptureIOError(f"{path}: {exc}") from exc


def _cells(
    handle, path: Path, layout: _Layout, name: str, count: int, start: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The checked column reader.  Given ``handle``, open on a ``layout``
    container of ``count`` cells per column, return ``read`` of the column
    named ``name`` from cell ``start`` on: ``read(out)`` reads the next
    ``len(out)`` cells into ``out`` and returns it.  A read of any cell
    outside ``0:count`` is refused with ``ValueError``.  Samples enter the
    package here, so every cell read must be finite, and >= 0 in a column
    ``layout.nonnegative`` names; an error names the path and the cell's
    index in the column."""
    columns = [column for column, _ in layout.body]
    widths = [np.dtype(dtype).itemsize for _, dtype in layout.body]
    at = columns.index(name)
    first = _PREFIX.size + layout.fields.size + count * sum(widths[:at])
    position = start

    def read(out: np.ndarray) -> np.ndarray:
        nonlocal position
        stop = position + len(out)
        if position < 0 or stop > count:
            raise ValueError(f"{path}: {name}s {position}:{stop} are outside 0:{count}")
        if position == start:  # the first read: seek once the range is known good
            handle.seek(first + start * widths[at])
        # The file may have shrunk since it was measured.
        if handle.readinto(out) != out.nbytes:
            raise CaptureFormatError(f"{path}: unexpected end of samples")
        finite = np.isfinite(out)
        if not finite.all():
            cell = int(finite.argmin())
            raise CaptureFormatError(f"{path}: {name} {position + cell} is {out[cell]}, must be finite")
        if name in layout.nonnegative and (out < 0).any():
            cell = int((out < 0).argmax())
            raise CaptureFormatError(f"{path}: {name} {position + cell} is {out[cell]}, must be >= 0")
        position = stop
        return out

    return read


@contextmanager
def _as_format_error(path: str | Path):
    """Report a loaded value the trace or baseline rejects, such as a
    trigger index past the last sample, as a format error naming ``path``."""
    try:
        yield
    except (TraceSimError, DetectionError) as exc:
        raise CaptureFormatError(f"{path}: {exc}") from None
