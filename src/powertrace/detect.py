"""Golden-baseline comparison and threshold classification.

The method: smooth every trace with a short moving average, take the
pointwise standard deviation over a set of known-good traces of the same
motor, compute the absolute pointwise deviation of a captured trace from a
designated reference trace, and flag the capture as malicious when the
deviation stays above ``peak_sd + margin`` for a contiguous run of samples.

The verdict uses the raw deviation against the peak of the golden standard
deviation, so :func:`detect_print` returns only the verdicts and the
deviations they were judged on.  The sd-subtracted excess series
(:func:`excess`) is for visibility analysis, where an attack signature stays
clearly visible even when it never crosses the verdict threshold; the
experiment harness computes it from a returned deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .planner import Motor
from .tracesim import MotorTrace

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
    "excess",
    "classify",
    "detect_print",
    "export_series_csv",
]

# Rows formatted per write, so a long series never sits in memory as text.
_EXPORT_CHUNK_ROWS = 1 << 16

# Samples per block in smooth and build_baseline: their scratch is fixed-size.
_BLOCK = 1 << 14


class DetectionError(ValueError):
    """Inconsistent detection inputs."""


class Verdict(Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class DetectionConfig:
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

    ``reference_trace`` is the first golden trace; deviations are measured
    against it, per the protocol of comparing a capture to a known-good trace
    rather than to the pointwise mean.  ``peak_sd``, the largest pointwise
    sample standard deviation, is derived from ``pointwise_sd`` and must be finite.
    """

    motor: Motor
    sample_rate: float
    pointwise_sd: np.ndarray  # float64
    reference_trace: MotorTrace
    source_count: int
    peak_sd: float = field(init=False)

    def __post_init__(self) -> None:
        sd = np.asarray(self.pointwise_sd, dtype=np.float64)
        sd.setflags(write=False)
        object.__setattr__(self, "pointwise_sd", sd)
        if self.source_count < 2:
            raise DetectionError("a baseline needs at least 2 golden traces")
        if len(sd) != len(self.reference_trace.samples):
            raise DetectionError("sd/reference length mismatch")
        peak_sd = float(sd.max())
        if not math.isfinite(peak_sd):
            raise DetectionError(f"peak sd is {peak_sd}: golden traces must be finite")
        object.__setattr__(self, "peak_sd", peak_sd)

    @property
    def sample_count(self) -> int:
        return len(self.pointwise_sd)


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
    reports: dict[Motor, DetectionReport]
    overall: Verdict
    deviations: dict[Motor, np.ndarray] = field(repr=False, default_factory=dict)


def smooth(trace: MotorTrace, window: int) -> MotorTrace:
    """Centered moving average of ``window`` samples, length preserved.

    Windows shrink to the available samples near the edges.  For an even
    window the center is biased one sample to the right, i.e. sample i
    averages [i - (window-1)//2, i + window//2].

    Every sample is ``(csum[hi] - csum[lo]) / (hi - lo)`` over the float64
    running sum ``csum``, rounded to float32.  ``csum`` is taken ``_BLOCK``
    window starts at a time, each block carrying on from the sum the block
    before ended on, so it adds in the order of one whole-trace ``cumsum``
    and the output is bit-identical to gathering every sample.
    """
    n = len(trace.samples)
    if window < 1:
        raise DetectionError("window must be >= 1")
    if window > n:
        raise DetectionError(f"window {window} longer than trace of {n} samples")
    if window == 1:
        return trace
    left, right = (window - 1) // 2, window // 2
    averaged = np.empty(n, dtype=np.float32)
    csum = np.empty(min(_BLOCK + window, n + 1))
    diff = np.empty(min(_BLOCK, n - window + 1))
    # inf - inf is NaN, which classify rejects; numpy need not warn first.
    with np.errstate(invalid="ignore"):
        head = np.cumsum(trace.samples[: window - 1], dtype=np.float64)
        averaged[:left] = head[right:] / np.arange(right + 1, window)
        for lo in range(0, n - window + 1, _BLOCK):
            hi = min(lo + _BLOCK + window - 1, n)
            part = csum[: hi - lo + 1]  # csum[lo:hi + 1]
            if lo == 0:
                # A plain cumsum from 0, as 0.0 + -0.0 would lose the sign.
                part[0] = 0.0
                np.cumsum(trace.samples[:hi], dtype=np.float64, out=part[1:])
            else:
                csum[0] = csum[_BLOCK]  # csum[lo], from the block before
                part[1:] = trace.samples[lo:hi]
                np.cumsum(part, out=part)
            count = hi - lo - window + 1
            np.subtract(part[window:], part[:count], out=diff[:count])
            np.divide(diff[:count], window, out=averaged[lo + left : lo + left + count])
        tail = part[n - window + 1 - lo : n - left - lo]
        averaged[n - right :] = (part[-1] - tail) / np.arange(window - 1, left, -1)
    return MotorTrace(
        motor=trace.motor,
        sample_rate=trace.sample_rate,
        samples=averaged,
        trigger_index=trace.trigger_index,
    )


def build_baseline(golden: list[MotorTrace]) -> GoldenBaseline:
    """Pointwise sample standard deviation over golden traces.

    Traces must already be aligned, smoothed and cut to a common window.
    The sd is computed ``_BLOCK`` samples at a time in one reused float64
    block, the same operations in the same order as, and bit-identical to,
    ``np.stack(...).std(axis=0, ddof=1)`` on the whole traces.
    """
    if len(golden) < 2:
        raise DetectionError("a baseline needs at least 2 golden traces")
    motor = golden[0].motor
    rate = golden[0].sample_rate
    length = len(golden[0].samples)
    for trace in golden[1:]:
        if trace.motor is not motor:
            raise DetectionError("golden traces mix motors")
        if trace.sample_rate != rate:
            raise DetectionError("golden traces mix sample rates")
        if len(trace.samples) != length:
            raise DetectionError("golden traces have mismatched lengths")

    # Blocks are at least 2 wide, a last single column joining the block
    # before: numpy sums a one-column block's rows in partial sums, not in order.
    width = max(_BLOCK, 2)
    stack = np.empty((len(golden), min(width + 1, length)))
    sd = np.empty(length)
    lo = 0
    # inf - inf is NaN, which GoldenBaseline rejects; numpy need not warn first.
    with np.errstate(invalid="ignore"):
        while lo < length:
            hi = length if length - lo <= width + 1 else lo + width
            block = stack[:, : hi - lo]
            np.stack([trace.samples[lo:hi] for trace in golden], out=block)
            block -= block.mean(axis=0, keepdims=True)
            np.square(block, out=block)
            block.sum(axis=0, out=sd[lo:hi])
            lo = hi
    sd /= len(golden) - 1
    np.sqrt(sd, out=sd)
    return GoldenBaseline(
        motor=motor,
        sample_rate=rate,
        pointwise_sd=sd,
        reference_trace=golden[0],
        source_count=len(golden),
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
    return _abs_diff(captured.samples, baseline.reference_trace.samples)


def excess(deviation_series: np.ndarray, baseline: GoldenBaseline) -> np.ndarray:
    """Deviation reduced by the golden standard deviation, clamped at zero.

    A deviation shorter than the baseline, as :func:`detect_print` returns
    for a shorter capture, is compared with the first ``len`` sd cells.
    """
    length = len(deviation_series)
    if length > baseline.sample_count:
        raise DetectionError(
            f"deviation has {length} samples, baseline {baseline.sample_count}"
        )
    out = np.subtract(deviation_series, baseline.pointwise_sd[:length])
    return np.maximum(0.0, out, out=out)


def classify(
    deviation_series: np.ndarray,
    baseline: GoldenBaseline,
    config: DetectionConfig = DetectionConfig(),
) -> DetectionReport:
    """Threshold the deviation series at ``peak_sd + margin``.

    Malicious iff some contiguous run of above-threshold samples is at least
    ``run_requirement`` long.  The verdict always uses the raw deviation,
    which must be finite: a NaN would compare false and read benign.
    """
    dev = np.asarray(deviation_series, dtype=np.float64)
    peak = float(dev.max()) if len(dev) else 0.0
    if not math.isfinite(peak):
        raise DetectionError(f"{baseline.motor.name} deviation is {peak}: samples must be finite")
    threshold = baseline.peak_sd + config.margin
    above = np.flatnonzero(dev > threshold)
    exceed_count = len(above)
    max_run = _longest_run(above)
    first_time = None
    if exceed_count > 0:
        first_time = float(above[0] / baseline.sample_rate)
    verdict = Verdict.MALICIOUS if max_run >= config.run_requirement else Verdict.BENIGN
    return DetectionReport(
        motor=baseline.motor,
        verdict=verdict,
        threshold=threshold,
        exceed_count=exceed_count,
        max_run_length=max_run,
        first_exceed_time=first_time,
        peak_excess=peak - threshold,
    )


def detect_print(
    captures: dict[Motor, MotorTrace],
    baselines: dict[Motor, GoldenBaseline],
    config: DetectionConfig = DetectionConfig(),
) -> PrintDetectionResult:
    """Run the per-motor pipeline and combine verdicts.

    Captures must already be trigger-aligned; smoothing and windowing to the
    baseline length happen here.  The print is malicious iff any motor is.
    """
    reports: dict[Motor, DetectionReport] = {}
    deviations: dict[Motor, np.ndarray] = {}
    for motor, baseline in baselines.items():
        capture = captures.get(motor)
        if capture is None:
            raise DetectionError(f"missing capture for motor {motor.name}")
        if capture.sample_rate != baseline.sample_rate:
            raise DetectionError("capture/baseline sample rate mismatch")
        smoothed = smooth(capture, config.smoothing_window).samples
        length = min(len(smoothed), baseline.sample_count)
        if length == 0:
            raise DetectionError(f"empty capture for motor {motor.name}")
        # The threshold comes from the full baseline's peak_sd, so a
        # shorter capture never weakens it.
        dev = _abs_diff(smoothed[:length], baseline.reference_trace.samples[:length])
        reports[motor] = classify(dev, baseline, config)
        deviations[motor] = dev
    overall = (
        Verdict.MALICIOUS
        if any(r.verdict is Verdict.MALICIOUS for r in reports.values())
        else Verdict.BENIGN
    )
    return PrintDetectionResult(reports=reports, overall=overall, deviations=deviations)


def export_series_csv(
    series: np.ndarray,
    sample_rate: float,
    path: str | Path,
    stride: int = 1,
) -> None:
    """Write a (time_s, amps) CSV, optionally decimated for plotting."""
    if stride < 1:
        raise DetectionError("stride must be >= 1")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = len(series)
    step = stride * _EXPORT_CHUNK_ROWS
    with path.open("w", newline="") as handle:
        handle.write("time_s,amps\r\n")
        for start in range(0, n, step):
            values = series[start : start + step : stride].tolist()
            handle.write(
                "".join(
                    f"{i / sample_rate:.6f},{v:.6f}\r\n"
                    for i, v in zip(range(start, n, stride), values)
                )
            )


def _abs_diff(samples: np.ndarray, reference: np.ndarray) -> np.ndarray:
    dev = np.subtract(samples, reference, dtype=np.float64)
    return np.abs(dev, out=dev)


def _longest_run(indices: np.ndarray) -> int:
    """Longest stretch of consecutive values in the increasing ``indices``."""
    if len(indices) == 0:
        return 0
    breaks = np.flatnonzero(np.diff(indices) != 1)
    return int(np.diff(breaks, prepend=-1, append=len(indices) - 1).max())
