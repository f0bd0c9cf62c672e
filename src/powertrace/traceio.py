"""Capture persistence and alignment.

Defines the binary capture container (magic ``PTRC``) that real oscilloscope
exports would be converted into, and trigger alignment; the cut to a common
length is ``detect.build_baseline``'s, after smoothing, so no module here
calls ``common_window``.  The baseline container (magic ``PTRB``)
starts with the same header prefix and holds what the verdict and the
excess series read: the smoothing window of its golden traces, the peak
golden sd, the golden sd column and the reference trace.

All integers and floats are little-endian; samples are float32.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .detect import DetectionError, GoldenBaseline
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
    motor, rate, (trigger, _), (samples,) = _read(path, _TRACE)
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
    """Persist a baseline: header (window, peak sd as f64), sd (f32), reference (f32)."""
    fields = (
        baseline.source_count, baseline.smoothing_window, baseline.peak_sd, baseline.sample_count
    )
    arrays = (baseline.pointwise_sd, baseline.reference)
    _write(path, _BASELINE, baseline.motor, baseline.sample_rate, fields, arrays)


def load_baseline(path: str | Path) -> GoldenBaseline:
    """Read a baseline; an empty body, a window of 0, a negative sd cell or
    a stored peak that is not the column's max is rejected, since it would
    corrupt the verdict."""
    motor, rate, (source_count, window, peak_sd, count), (sd, reference) = _read(path, _BASELINE)
    if count == 0:
        raise CaptureFormatError(f"{path}: empty baseline")
    bad = np.flatnonzero(sd < 0)
    if len(bad):
        raise CaptureFormatError(f"{path}: sd cell {bad[0]} is {sd[bad[0]]}, must be >= 0")
    with _as_format_error(path):
        return GoldenBaseline(
            motor=motor,
            sample_rate=rate,
            pointwise_sd=sd,
            reference=reference,
            source_count=source_count,
            peak_sd=peak_sd,
            smoothing_window=window,
        )


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


def _read(path: str | Path, layout: _Layout) -> tuple[Motor, float, tuple, list[np.ndarray]]:
    """Read and validate a container: motor, sample rate, header fields, arrays.
    Samples enter the package here, so every cell must be finite.

    The body's length is checked against the file's size before any of it is
    read, and each column is read straight into its own (writable) array.
    """
    path = Path(path)
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
            columns = [(name, np.dtype(dtype)) for name, dtype in layout.body]
            expected = offset + count * sum(dtype.itemsize for _, dtype in columns)
            if size < expected:
                raise CaptureFormatError(f"{path}: unexpected end of samples")
            if size > expected:
                raise CaptureFormatError(f"{path}: trailing bytes after samples")
            arrays = []
            for name, dtype in columns:
                column = np.empty(count, dtype=dtype)
                # The file may have shrunk since it was measured.
                if handle.readinto(column) != column.nbytes:
                    raise CaptureFormatError(f"{path}: unexpected end of samples")
                if not np.isfinite(column).all():
                    cell = np.flatnonzero(~np.isfinite(column))[0]
                    raise CaptureFormatError(f"{path}: {name} {cell} is {column[cell]}, must be finite")
                arrays.append(column)
            return MOTORS[motor_code], rate, fields, arrays
    except OSError as exc:
        raise CaptureIOError(f"{path}: {exc}") from exc


@contextmanager
def _as_format_error(path: str | Path):
    """Report a loaded value the trace or baseline rejects, such as a
    trigger index past the last sample, as a format error naming ``path``."""
    try:
        yield
    except (TraceSimError, DetectionError) as exc:
        raise CaptureFormatError(f"{path}: {exc}") from None
