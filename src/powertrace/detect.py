"""Golden-baseline comparison and threshold classification.

The method: smooth every trace with a short moving average, take the
pointwise standard deviation over a set of known-good traces of the same
motor, compute the absolute pointwise deviation of a captured trace from a
designated reference trace, and flag the capture as malicious when the
deviation stays above ``peak_sd + margin`` for a contiguous run of samples.
A baseline (:func:`build_baseline` is the one builder) records the window its
golden traces were smoothed with, and a capture is smoothed with that window.

The verdict uses the raw deviation against the peak of the golden standard
deviation, so :func:`detect_print` keeps no deviation: it returns the
verdicts and each motor's capture, and the float64 deviation a verdict was
judged on is made again, byte for byte, when ``result.deviations[motor]``
is read, or only a slice of it when ``result.deviations[motor, part]`` is.
A baseline keeps that peak as one
float64, taken before the pointwise sd is rounded to the float32 column it
stores.  :func:`export_series_csv` writes a series as text at numpy speed,
byte for byte as Python's ``'%.6f'`` formats each time and value: one
stateless kernel formats both columns, with a per-row fallback for the
cells it cannot print exactly.

:func:`detect_print` judges each motor in one streamed pass: the one
smoothing kernel, ``_smoothed_blocks``, yields the smoothed capture in
fixed-size blocks, and each block's float64 deviation is made in one block
of scratch and counted against the threshold while the block is in cache,
the run still open at a block's end carrying into the next.  The pass
stops asking for blocks once it has the baseline's length, so no block
past the baseline is summed.  The reference is read a block at a time
too, through the baseline (see :class:`GoldenBaseline`), so a baseline
read from a file is read from it while the print is judged.  No
full-length array is made unless the caller passes ``out``; a
``deviations`` read smooths its motor's whole capture with :func:`smooth`,
which drains the same kernel, on first use, and reads only the reference
cells its slice spans.  One kernel, ``_deviation_into``, makes every
deviation: for :func:`deviation`, for those blocks and for each
``deviations`` read, so all three agree byte for byte.  Motors are
independent, so they are judged on parallel threads, with the same bytes
for any number of threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Sized
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .planner import Motor
from .tracesim import MotorTrace, _buffer_prefix, _map_on_threads

__all__ = [
    "DetectionError",
    "Verdict",
    "DetectionConfig",
    "GoldenBaseline",
    "DetectionReport",
    "PrintDetectionResult",
    "smooth",
    "build_baseline",
    "deviation",
    "detect_print",
    "export_series_csv",
]

# Rows formatted per write, so a long series never sits in memory as text.
_EXPORT_CHUNK_ROWS = 1 << 16

# Samples per block in smooth and detect_print, and float64 cells per block
# of build_baseline's stack over all golden traces: their scratch is
# fixed-size.  Each block costs a handful of numpy calls, each releasing
# and re-taking the GIL, so detect_print's threads overlap better with
# fewer, larger blocks; but each thread holds about 35 bytes of
# scratch per block sample (tracemalloc): smoothing's float64 running sum and
# values and its float32 block, the float32 block of reference it reads, one
# float64 deviation block and the classifier's masks.  2**15 keeps two
# threads' scratch near 1.2 bytes per sample of the benchmark print.
_BLOCK = 1 << 15


class DetectionError(ValueError):
    """Inconsistent detection inputs."""


class Verdict(Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class DetectionConfig:
    """Detection settings.  ``smoothing_window`` is the window new baselines'
    golden traces are smoothed with; :func:`detect_print` reads the window
    from each baseline instead."""

    smoothing_window: int = 20
    margin: float = 0.1
    # 50 samples = 2 ms at 25 kS/s: far below any meaningful command duration,
    # but long enough that isolated noise spikes never form a qualifying run.
    run_requirement: int = 50

    def __post_init__(self) -> None:
        if self.smoothing_window < 1:
            raise DetectionError("smoothing_window must be >= 1")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise DetectionError("margin must be finite and >= 0")
        if self.run_requirement < 1:
            raise DetectionError("run_requirement must be >= 1")


@dataclass(frozen=True, eq=False)
class GoldenBaseline:
    """Pointwise spread of aligned, smoothed golden traces, and the trace
    captures are compared to.

    ``reference`` is the first golden trace's samples; deviations are
    measured against it, per the protocol of comparing a capture to a
    known-good trace rather than to the pointwise mean.  ``pointwise_sd`` is the float32
    rounding of the sample standard deviation, read only for the excess
    series.  A baseline ``traceio.load_baseline`` read holds neither
    column (both are ``None``): its ``reader`` reads either back from the
    file, the reference while a print is judged.  A reader has ``len()``,
    the sample count, and ``column(name, start)``, a context manager giving
    ``read``: ``read(out)`` fills the float32 ``out`` with the next
    ``len(out)`` cells of the column held as ``name``, ``"pointwise_sd"``
    or ``"reference"``, from ``start`` on and returns it.  A baseline holds
    its reference or a reader, not both.  The experiment keeps both columns'
    cells on the series grid (every 250th) from the baseline it builds, and
    reads each attack span's cells through the reader.  ``peak_sd``, the
    largest sd before rounding, sets the verdict threshold: it must be
    finite, >= 0 and round to the column's max, which rounding (monotonic)
    makes an exact check.  ``smoothing_window``, >= 1, is the window the
    golden traces were smoothed with, and so the window every capture
    compared with this baseline is smoothed with.
    """

    motor: Motor
    sample_rate: float
    pointwise_sd: np.ndarray | None  # float32, read-only
    reference: np.ndarray | None  # float32, read-only
    source_count: int
    peak_sd: float
    smoothing_window: int
    reader: Sized | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("pointwise_sd", "reference"):
            if getattr(self, name) is not None:
                column = np.asarray(getattr(self, name), dtype=np.float32).view()
                column.setflags(write=False)  # on a view: the caller's array stays writable
                object.__setattr__(self, name, column)
        if (self.reference is None) == (self.reader is None):
            raise DetectionError("a baseline holds its reference or a reader of it, not both")
        sd = self.pointwise_sd
        if sd is not None and len(sd) != self.sample_count:
            raise DetectionError("sd/reference length mismatch")
        peak_sd = _checked_fields(
            self.source_count, self.smoothing_window, self.peak_sd, None if sd is None else sd.max()
        )
        object.__setattr__(self, "peak_sd", peak_sd)

    @property
    def sample_count(self) -> int:
        return len(self.reference if self.reader is None else self.reader)

    @contextmanager
    def _column_cells(self, name: str, start: int) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
        """Yield ``read`` of the column ``name``, as a reader's
        ``column(name, start)`` does: from the reader, or as views of the
        column held, which ignore ``out``."""
        if self.reader is not None:
            with self.reader.column(name, start) as read:
                yield read
            return
        column, at = getattr(self, name), start

        def read(out: np.ndarray) -> np.ndarray:
            nonlocal at
            at += len(out)
            return column[at - len(out) : at]

        yield read


def _checked_fields(
    source_count: int, smoothing_window: int, peak_sd: float, sd_max: np.float32 | None
) -> float:
    """Check a baseline's header fields, and that its peak sd rounds to
    ``sd_max``, its sd column's max, unless that is ``None``; return the
    peak as a float."""
    if source_count < 2:
        raise DetectionError("a baseline needs at least 2 golden traces")
    if smoothing_window < 1:
        raise DetectionError(f"smoothing window is {smoothing_window}, must be >= 1")
    peak_sd = float(peak_sd)
    if not math.isfinite(peak_sd):
        raise DetectionError(f"peak sd is {peak_sd}: golden traces must be finite")
    if peak_sd < 0:
        raise DetectionError(f"peak sd is {peak_sd}, must be >= 0")
    if sd_max is not None and np.float32(peak_sd) != sd_max:
        raise DetectionError(f"peak sd {peak_sd} is not the sd column's max {sd_max}")
    return peak_sd


@dataclass(frozen=True)
class DetectionReport:
    """Per-motor verdict with the exceedance evidence behind it."""

    motor: Motor
    verdict: Verdict
    threshold: float
    exceed_count: int
    max_run_length: int
    first_exceed_time: float | None
    peak_excess: float  # max(deviation) - threshold, negative when clear

    def key_value_lines(self) -> list[str]:
        first = "none" if self.first_exceed_time is None else f"{self.first_exceed_time:.6f}"
        return [
            f"motor={self.motor.name}",
            f"verdict={self.verdict.value}",
            f"threshold_amps={self.threshold:.6f}",
            f"exceed_count={self.exceed_count}",
            f"max_run_length={self.max_run_length}",
            f"first_exceed_time_s={first}",
            f"peak_excess_amps={self.peak_excess:.6f}",
        ]


@dataclass(frozen=True)
class PrintDetectionResult:
    """Per-motor reports and the print's verdict.

    ``deviations[motor]`` is the float64 deviation that motor was judged
    on, windowed to the baseline, and ``deviations[motor, part]``, for a
    basic slice ``part`` (a step is allowed), is ``deviations[motor][part]``
    made on those samples alone.  Each read makes a new, writable array,
    so a caller that changes a read in place changes no later read.  It is
    made from the motor's smoothed capture: the view of ``out`` that
    :func:`detect_print` smoothed it into, when given, else the float32
    array that the motor's first read smooths the whole capture into with
    :func:`smooth` and later reads reuse; and from the reference cells from
    the part's first sample to its last, read a block at a time.  So
    without ``out`` a result holds no array of its own until a deviation is
    read, then 4 bytes per capture sample per motor read; it keeps the
    captures, so a caller that overwrites a capture's buffer before reading
    ``deviations`` must pass ``out``.  A read of a loaded baseline's
    reference rereads its file, so a file changed since it was loaded
    raises the reader's error, and no series.
    """

    reports: dict[Motor, DetectionReport]
    deviations: Mapping[Motor, np.ndarray] = field(repr=False)

    @property
    def overall(self) -> Verdict:
        """Malicious iff any motor's report is."""
        if any(r.verdict is Verdict.MALICIOUS for r in self.reports.values()):
            return Verdict.MALICIOUS
        return Verdict.BENIGN


class _Deviations(Mapping):
    """Each motor's deviation, or a slice of it, made when read (see
    :func:`_deviation_part`) from its smoothed capture: the view of ``out``
    that :func:`detect_print` smoothed it into, else the trace
    :func:`smooth` makes of the capture on the motor's first read, which
    later reads reuse."""

    def __init__(
        self,
        captures: dict[Motor, MotorTrace],
        baselines: dict[Motor, GoldenBaseline],
        lengths: dict[Motor, int],
        smoothed: dict[Motor, np.ndarray],
    ):
        self._sources = {m: (captures[m], baselines[m]) for m in lengths}
        self._lengths = lengths
        self._smoothed = smoothed

    def __getitem__(self, key: Motor | tuple[Motor, slice]) -> np.ndarray:
        motor, part = key if isinstance(key, tuple) else (key, slice(None))
        length = self._lengths[motor]
        capture, baseline = self._sources[motor]
        smoothed = self._smoothed.get(motor)
        if smoothed is None:
            smoothed = self._smoothed[motor] = smooth(capture, baseline.smoothing_window).samples
        return _deviation_part(smoothed[:length], baseline, part)

    def __iter__(self) -> Iterator[Motor]:
        return iter(self._lengths)

    def __len__(self) -> int:
        return len(self._lengths)


def smooth(trace: MotorTrace, window: int, out: np.ndarray | None = None) -> MotorTrace:
    """Centered moving average of ``window`` samples, length preserved; the
    result records ``window`` as its ``smoothing_window``.  ``out``, when
    given, is a reused float32 buffer of at least the trace's length: the
    samples are written into its first samples, for a window of 1 too, and
    the result is a view of them.  It may be the buffer the trace's samples
    view, if it starts no later than they do (see :func:`_smoothed_blocks`).

    Windows shrink to the available samples near the edges.  For an even
    window the center is biased one sample to the right, i.e. sample i
    averages [i - (window-1)//2, i + window//2].

    Every sample is ``(csum[hi] - csum[lo]) / (hi - lo)`` over the float64
    running sum ``csum``, rounded to float32.  ``csum`` is taken ``_BLOCK``
    window starts at a time, each block carrying on from the sum the block
    before ended on, so it adds in the order of one whole-trace ``cumsum``
    and the output is bit-identical to gathering every sample.

    A trace already smoothed is rejected for any window but 1, at which it
    keeps its window: a result could record only one window.
    """
    n = len(trace.samples)
    if window < 1:
        raise DetectionError("window must be >= 1")
    if window != 1 and trace.smoothing_window != 1:
        raise DetectionError(
            f"trace is already smoothed with window {trace.smoothing_window}"
        )
    if window > n:
        raise DetectionError(f"window {window} longer than trace of {n} samples")
    if window == 1 and out is None:
        return trace
    out = np.empty(n, dtype=np.float32) if out is None else _buffer_prefix(out, n)
    for _ in _smoothed_blocks(trace.samples, window, out):
        pass
    return replace(trace, samples=out, smoothing_window=max(window, trace.smoothing_window))


def _block_room(window: int, n: int) -> int:
    """The most samples one block of :func:`_smoothed_blocks` holds in ``n``:
    up to ``_BLOCK`` window sums, or an edge of up to ``window // 2``."""
    return min(n, max(_BLOCK, window // 2))


def _smoothed_blocks(
    samples: np.ndarray, window: int, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Yield :func:`smooth`'s float32 samples in order, as consecutive
    non-empty blocks: the one smoothing kernel.  A consumer that needs only
    a prefix stops asking: no block is summed before it is asked for.

    Each block is a view of ``out``, when given (as long as ``samples``),
    else of one float32 scratch that the next block overwrites, so a
    consumer reads each block before it asks for the next.  ``window`` must
    be between 1 and ``len(samples)``.  ``out`` may overlay the buffer
    ``samples`` views if both are contiguous and ``out`` starts no later, so
    a capture can be smoothed over the buffer it was rendered into: a block
    reads only the samples the block before did not (it takes the rest from
    that block's float64 copy), and writes outputs that end behind those
    reads, and the left edge is written once block 0 has read its samples.
    """
    n = len(samples)
    if out is not None and np.may_share_memory(samples, out) and not (
        samples.flags.c_contiguous
        and out.flags.c_contiguous
        and out.ctypes.data <= samples.ctypes.data
    ):
        raise ValueError(
            "out may overlay the samples only if both are contiguous and it starts no later"
        )
    if out is None:
        scratch = np.empty(_block_room(window, n), dtype=np.float32)

    def block(lo: int, hi: int) -> np.ndarray:
        """Where smoothed samples ``lo:hi`` are written and yielded."""
        return scratch[: hi - lo] if out is None else out[lo:hi]

    if window == 1:
        for lo in range(0, n, _BLOCK):
            part = block(lo, min(lo + _BLOCK, n))
            part[...] = samples[lo : lo + len(part)]
            yield part
        return
    left, right = (window - 1) // 2, window // 2
    csum = np.empty(min(_BLOCK + window, n + 1))
    # The block's samples as float64, summed into the separate csum (numpy
    # holds the GIL in a cumsum that casts or works in place), then the
    # window sums.  A block's last window - 1 samples stay in values, past
    # its window sums, and become the next block's first ones.
    values = np.empty(len(csum))
    for lo in range(0, n - window + 1, _BLOCK):
        hi = min(lo + _BLOCK + window - 1, n)
        part = csum[: hi - lo + 1]  # csum[lo:hi + 1]
        count = hi - lo - window + 1
        if lo == 0:
            # A plain cumsum from 0, as 0.0 + -0.0 would lose the sign.
            part[0] = 0.0
            first = 1
            values[1 : len(part)] = samples[lo:hi]
        else:
            values[0] = csum[_BLOCK]  # csum[lo], from the block before
            first = 0
            values[1:window] = values[_BLOCK + 1 : _BLOCK + window]
            values[window : len(part)] = samples[lo + window - 1 : hi]
        # inf - inf is NaN, which _classify_blocks rejects; numpy need not
        # warn first.  No yield runs in this state, which is the consumer's.
        with np.errstate(invalid="ignore"):
            np.cumsum(values[first : len(part)], out=part[first:])
            np.subtract(part[window:], part[:count], out=values[:count])
        if lo == 0 and left:  # the left edge, once block 0 has read what it may overlay
            edge = csum[right + 1 : window]  # sample i < left sums csum[i + right + 1]
            yield np.divide(edge, np.arange(right + 1, window), out=block(0, left))
        yield np.divide(values[:count], window, out=block(lo + left, lo + left + count))
    with np.errstate(invalid="ignore"):  # the right edge, after the last block's csum
        tail = part[-1] - part[n - window + 1 - lo : n - left - lo]
    yield np.divide(tail, np.arange(window - 1, left, -1), out=block(n - right, n))


def build_baseline(
    captures: Iterable[MotorTrace], window: int = 1, rows: Sequence[np.ndarray] | None = None
) -> GoldenBaseline:
    """Pointwise sample standard deviation over golden captures of one motor.

    ``captures``, any iterable of trigger-aligned traces, are each smoothed
    with :func:`smooth` at ``window`` (capture i into ``rows[i]`` when given,
    which it may view), then all are cut to the shortest; the first is the
    reference.  At window 1, captures already smoothed are taken as they
    are, and the baseline records their window, which they must share.
    The sd is computed in blocks of about ``_BLOCK`` float64 cells over all
    captures (``_BLOCK // len(captures)`` samples, at least 2) in one reused
    stack, the same operations in the same order as, and bit-identical to,
    ``np.stack(...).std(axis=0, ddof=1)`` on the cut traces.  The running
    max of those float64 blocks is ``peak_sd``; each block is then rounded
    into the float32 column, so no full-length float64 sd exists.  With
    ``rows`` that column is written over ``rows[1]``: every capture is
    smoothed into its row first, and a block's samples are copied into the
    stack before its sd is written.  The baseline then views ``rows[0]``
    (its reference) and ``rows[1]`` (its sd), so the caller keeps both rows
    unchanged while it reads the baseline.  Rows 0 and 1 that may share
    memory, or fewer rows than captures, are a ``ValueError``.
    """
    if rows is not None and len(rows) >= 2 and np.may_share_memory(rows[0], rows[1]):
        raise ValueError("rows 0 and 1 may share memory: the sd would overwrite the reference")
    golden = []
    captures = iter(captures)
    for i, capture in enumerate(captures):
        if rows is not None and i == len(rows):
            count = i + 1 + sum(1 for _ in captures)
            raise ValueError(f"{len(rows)} rows for {count} captures")
        golden.append(smooth(capture, window, None if rows is None else rows[i]))
    if len(golden) < 2:
        raise DetectionError("a baseline needs at least 2 golden traces")
    motor = golden[0].motor
    rate = golden[0].sample_rate
    window = golden[0].smoothing_window
    for trace in golden[1:]:
        if trace.motor is not motor:
            raise DetectionError("golden traces mix motors")
        if trace.sample_rate != rate:
            raise DetectionError("golden traces mix sample rates")
        if trace.smoothing_window != window:
            raise DetectionError("golden traces mix smoothing windows")
    length = min(len(trace.samples) for trace in golden)

    # Blocks are at least 2 wide, a last single column joining the block
    # before: numpy sums a one-column block's rows in partial sums, not in
    # order.  Each column is reduced on its own, so any such width gives the
    # same bits.
    width = max(_BLOCK // len(golden), 2)
    stack = np.empty((len(golden), min(width + 1, length)))
    block_sd = np.empty(stack.shape[1])
    sd = np.empty(length, dtype=np.float32) if rows is None else _buffer_prefix(rows[1], length)
    peak = -math.inf
    lo = 0
    # inf - inf is NaN, which GoldenBaseline rejects; numpy need not warn first.
    with np.errstate(invalid="ignore"):
        while lo < length:
            hi = length if length - lo <= width + 1 else lo + width
            block = stack[:, : hi - lo]
            part = block_sd[: hi - lo]
            np.stack([trace.samples[lo:hi] for trace in golden], out=block)
            block -= block.mean(axis=0, keepdims=True)
            np.square(block, out=block)
            block.sum(axis=0, out=part)
            part /= len(golden) - 1
            np.sqrt(part, out=part)
            peak = np.maximum(peak, part.max())  # NaN propagates
            sd[lo:hi] = part
            lo = hi
    return GoldenBaseline(
        motor=motor,
        sample_rate=rate,
        pointwise_sd=sd,
        reference=golden[0].samples[:length],
        source_count=len(golden),
        peak_sd=float(peak),
        smoothing_window=window,
    )


def deviation(captured: MotorTrace, baseline: GoldenBaseline) -> np.ndarray:
    """Pointwise absolute difference from the baseline's reference trace."""
    if captured.sample_rate != baseline.sample_rate:
        raise DetectionError("capture/baseline sample rate mismatch")
    if len(captured.samples) != baseline.sample_count:
        raise DetectionError(
            f"capture has {len(captured.samples)} samples, baseline "
            f"{baseline.sample_count}"
        )
    return _deviation_part(captured.samples, baseline, slice(None))


def _deviation_into(smoothed: np.ndarray, reference: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``|f64(smoothed) - f64(reference)|`` into the float64 ``out``,
    all three of one length, and return it: the one deviation kernel."""
    # Widened first: a float32 - float32 subtract into float64 goes through
    # numpy's slower buffered casts.
    out[...] = smoothed
    np.subtract(out, reference, out=out)
    return np.abs(out, out=out)


def _read_blocks(
    read: Callable[[np.ndarray], np.ndarray], start: int, stop: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Cells ``start:stop`` from ``read``, which gives the cells from
    ``start`` on, as consecutive blocks of at most ``_BLOCK`` cells read
    into one reused float32 buffer; each is yielded with its first cell's
    index and holds until the next is asked for."""
    scratch = np.empty(min(stop - start, _BLOCK), dtype=np.float32)
    for lo in range(start, stop, _BLOCK):
        yield lo, read(scratch[: min(_BLOCK, stop - lo)])


def _deviation_part(smoothed: np.ndarray, baseline: GoldenBaseline, part: slice) -> np.ndarray:
    """``_deviation_into`` of ``smoothed``, no longer than the baseline, on
    the samples the basic slice ``part`` picks, as a new float64 array.  The
    reference is read from the part's first sample to its last, a block at
    a time, and no further."""
    cells = range(len(smoothed))[part]
    out = np.empty(len(cells))
    ascending = out if cells.step > 0 else out[::-1]
    cells = cells if cells.step > 0 else cells[::-1]
    if not cells:
        return out
    first, stop, step = cells[0], cells[-1] + 1, cells.step
    at = 0
    with baseline._column_cells("reference", first) as read:
        for lo, block in _read_blocks(read, first, stop):
            skip = -(lo - first) % step  # the block's first cell of the part
            reference = block[skip::step]
            hi = at + len(reference)
            samples = smoothed[lo + skip : lo + len(block) : step]
            _deviation_into(samples, reference, ascending[at:hi])
            at = hi
    return out


def _classify_blocks(
    blocks: Iterable[np.ndarray], baseline: GoldenBaseline, config: DetectionConfig
) -> DetectionReport:
    """Threshold a deviation series, given in order block by block, at
    ``peak_sd + margin``.

    Malicious iff some contiguous run of above-threshold samples is at least
    ``run_requirement`` long.  The verdict always uses the raw deviation,
    which must be finite: a NaN would compare false and read benign.  The
    run still open at the end of a block carries into the next, so the
    counts equal those taken over the whole series at once.
    """
    threshold = baseline.peak_sd + config.margin
    peak = -math.inf
    seen = count = longest = run = 0  # run: the one ending at the last sample seen
    first = None
    for block in blocks:
        top = block.max()
        peak = np.maximum(peak, top)  # NaN propagates
        if top > threshold:
            above = block > threshold
            if first is None:
                first = seen + int(above.argmax())
            count += int(np.count_nonzero(above))
            # The block splits into alternating runs where ``above`` changes;
            # keep the lengths of the runs above the threshold.
            changes = np.flatnonzero(above[1:] != above[:-1]) + 1
            runs = np.diff(changes, prepend=0, append=len(block))[0 if above[0] else 1 :: 2]
            if above[0]:
                runs[0] += run
            longest = max(longest, int(runs.max()))
            run = int(runs[-1]) if above[-1] else 0
        else:  # a clear block, or one holding NaN, which is raised below
            run = 0
        seen += len(block)
    peak = float(peak) if seen else 0.0
    if not math.isfinite(peak):
        raise DetectionError(f"{baseline.motor.name} deviation is {peak}: samples must be finite")
    return DetectionReport(
        motor=baseline.motor,
        verdict=Verdict.MALICIOUS if longest >= config.run_requirement else Verdict.BENIGN,
        threshold=threshold,
        exceed_count=count,
        max_run_length=longest,
        first_exceed_time=None if first is None else first / baseline.sample_rate,
        peak_excess=peak - threshold,
    )


def detect_print(
    captures: dict[Motor, MotorTrace],
    baselines: dict[Motor, GoldenBaseline],
    config: DetectionConfig = DetectionConfig(),
    out: Mapping[Motor, np.ndarray] | None = None,
) -> PrintDetectionResult:
    """Run the per-motor pipeline and combine verdicts.

    Captures must already be trigger-aligned; smoothing, at each baseline's
    ``smoothing_window`` (never ``config.smoothing_window``), and windowing
    to the baseline length happen here.  At least one motor must be given,
    and each needs a raw capture (``smoothing_window`` 1) and a baseline of
    that motor: a missing, mismatched or smoothed one raises
    :class:`DetectionError` naming the motor.  The print is malicious iff
    any motor is.
    Each motor is judged in one pass over ``_BLOCK``-sample (32,768) blocks:
    a block is smoothed, the baseline's reference cells for it are read
    into a reused block (from the file, for a baseline
    ``traceio.load_baseline`` read, which raises ``CaptureFormatError``
    naming the path if the file changed since it was loaded or a cell is
    not finite), and its float64 deviation is made in the thread's scratch
    and classified before the next block is smoothed, the motors on up to
    ``tracesim._WORKERS`` threads; reports and deviations are the same for
    any thread count.  The pass cuts the block that holds the baseline's
    last sample there and asks for no more, so a longer capture is smoothed
    only that far.  Without ``out`` the smoothed blocks live in that
    scratch, so the call makes no full-length array.  With ``out``, each
    motor is smoothed into the first samples of its reused buffer there,
    which must hold the whole capture and may be the buffer the capture
    views, starting no later (see :func:`_smoothed_blocks`), and the
    result's ``deviations`` read them.  A block whose largest deviation is clear
    of the threshold skips the run search, so a benign block costs the
    comparison and one ``max``.  Smoothing goes through the private kernel,
    never :func:`smooth`, which the benchmark's trace mode wraps with one
    span stack that calls from the motors' threads would corrupt.
    """
    unpaired = [m.name for m in captures if m not in baselines]
    if unpaired:
        raise DetectionError(f"no baseline for motor(s) {unpaired}")
    if not baselines:
        raise DetectionError("no motor to judge: no capture or baseline given")
    lengths: dict[Motor, int] = {}
    smoothed: dict[Motor, np.ndarray] = {}
    for motor, baseline in baselines.items():
        capture = captures.get(motor)
        if capture is None:
            raise DetectionError(f"missing capture for motor {motor.name}")
        for kind, given in (("capture", capture), ("baseline", baseline)):
            if given.motor is not motor:
                raise DetectionError(f"the {kind} under motor {motor.name} is of motor {given.motor.name}")
        if capture.sample_rate != baseline.sample_rate:
            raise DetectionError("capture/baseline sample rate mismatch")
        if capture.smoothing_window != 1:
            raise DetectionError(
                f"{motor.name} capture is already smoothed with window {capture.smoothing_window}"
            )
        if len(capture.samples) < baseline.smoothing_window:
            raise DetectionError(
                f"{motor.name} capture has {len(capture.samples)} samples, shorter "
                f"than the smoothing window {baseline.smoothing_window}"
            )
        # The threshold comes from the full baseline's peak_sd, so a
        # shorter capture never weakens it.
        lengths[motor] = min(len(capture.samples), baseline.sample_count)
        if out is not None:
            smoothed[motor] = _buffer_prefix(out[motor], len(capture.samples))

    def judge(motor: Motor) -> DetectionReport:
        baseline, n = baselines[motor], lengths[motor]
        window = baseline.smoothing_window
        scratch = np.empty(_block_room(window, n))
        cells = np.empty(len(scratch), dtype=np.float32)

        def deviations(read: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
            lo = 0
            for block in _smoothed_blocks(captures[motor].samples, window, smoothed.get(motor)):
                hi = min(lo + len(block), n)
                reference = read(cells[: hi - lo])
                yield _deviation_into(block[: hi - lo], reference, scratch[: hi - lo])
                if hi == n:  # the rest of the capture is past the baseline
                    return
                lo = hi

        with baseline._column_cells("reference", 0) as read:
            return _classify_blocks(deviations(read), baseline, config)

    reports = dict(zip(lengths, _map_on_threads(judge, list(lengths))))
    deviations = _Deviations(captures, baselines, lengths, smoothed)
    return PrintDetectionResult(reports=reports, deviations=deviations)


def export_series_csv(series: np.ndarray, sample_rate: float, path: str | Path) -> None:
    """Write every sample of ``series`` as a (time_s, amps) CSV.

    Sample ``i`` is the row ``f"{i / sample_rate:.6f},{series[i]:.6f}\\r\\n"``;
    a caller that decimates passes the kept samples and their own rate.
    Rows are formatted ``_EXPORT_CHUNK_ROWS`` at a time, with numpy: see
    :func:`_format_chunk` for why that gives the same bytes.  A bad sample
    rate is rejected before the file is opened.
    """
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise DetectionError(f"sample rate must be finite and > 0, got {sample_rate}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(series)
    with path.open("wb") as handle:
        handle.write(b"time_s,amps\r\n")
        for start in range(0, n, _EXPORT_CHUNK_ROWS):
            stop = min(start + _EXPORT_CHUNK_ROWS, n)
            times = np.arange(start, stop) / sample_rate
            handle.write(_format_chunk(times, series[start:stop]))


def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.uint32]:
    """``"{k}."``, ``"{k:03d}"`` and ``"{k:03d},"`` for k in [0, 1000), and
    ``"\\r\\n"``, each as one uint32 of 4 bytes padded with NULs; the
    tables are read-only."""
    k = np.arange(1000)
    text = np.zeros((3, 1000, 4), dtype=np.uint8)
    whole, three, comma = text
    digits = np.stack((k // 100, k // 10 % 10, k % 10), axis=1) + ord("0")
    whole[:, :3] = three[:, :3] = comma[:, :3] = digits
    whole[:, 3], comma[:, 3] = ord("."), ord(",")
    whole[k < 100, 0] = whole[k < 10, 1] = 0  # no leading zeros
    text.setflags(write=False)
    return *text.view(np.uint32)[..., 0], np.frombuffer(b"\r\n\0\0", dtype=np.uint32)[0]


_WHOLE, _THREE, _THREE_COMMA, _CRLF = _text_tables()


def _format_chunk(times: np.ndarray, values: np.ndarray) -> bytes:
    """The text of one chunk's rows: each time and value as ``f"{c:.6f}"``,
    joined by a comma and ended by CRLF.

    A cell ``c`` is fast when it has no sign bit, ``rint(c * 1e6) < 1e9``,
    and ``c * 1e6`` is more than 1e-7 from a half.  Below 1e9 < 2**30 the
    float64 product is within 2**-24 of the exact one, so its ``rint`` is
    the correctly rounded integer that ``'%.6f'`` prints, and the cell's text
    is gathered from the tables by its whole part and two groups of three
    decimals; the NULs padding the table entries are then dropped (no
    character of the text is NUL).  A chunk with any other cell (an exact or
    near half, which ``'%.6f'`` settles by round-half-even, or one >=
    999.9999995, negative, -0.0, NaN or infinite) is formatted one row at a
    time.
    """
    # The stack widens float32 values, so the product is taken in float64.
    cells = np.stack((times, values), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN go slow
        scaled = cells * 1e6
        rounded = np.rint(scaled)
        fast = (rounded < 1e9) & ~np.signbit(cells)
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-7
    if not fast.all():
        lines = (f"{t:.6f},{v:.6f}\r\n" for t, v in zip(times.tolist(), values.tolist()))
        return "".join(lines).encode()
    whole, decimals = np.divmod(rounded.astype(np.uint32), 1_000_000)
    high, low = np.divmod(decimals, 1000)
    rows = np.empty((len(cells), 7), dtype=np.uint32)
    rows[:, [0, 3]] = _WHOLE[whole]
    rows[:, [1, 4]] = _THREE[high]
    rows[:, 2] = _THREE_COMMA[low[:, 0]]
    rows[:, 5] = _THREE[low[:, 1]]
    rows[:, 6] = _CRLF
    return rows.tobytes().translate(None, b"\0")
