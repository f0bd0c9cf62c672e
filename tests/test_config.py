import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powertrace.detect import DetectionConfig, build_baseline, detect_print
from powertrace.gcode import Command, CommandKind, serialize
from powertrace.harness import (
    ExperimentConfig,
    ExperimentError,
    benchmark_object,
    default_attacks,
    dump_experiment_config,
    load_experiment_config,
)
from powertrace.planner import DEFAULT_PROFILE, AxisValues, Motor, PrinterProfile
from powertrace.tracesim import MotorTrace, NoiseModel

DEFAULT_ATTACKS = default_attacks(benchmark_object())

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
axis_values = st.builds(AxisValues, x=positive, y=positive, z=positive, e=positive)
profiles = st.builds(
    PrinterProfile,
    steps_per_mm=axis_values,
    max_feed=axis_values,
    rated_phase_current=positive,
    default_feed=positive,
)
# The noise seed is not an experiment key: every print is seeded from ``seed``.
noises = st.builds(
    NoiseModel,
    idle_noise_sd=nonnegative,
    phase_jitter_sd=nonnegative,
    amplitude_noise_sd=nonnegative,
)
detections = st.builds(
    DetectionConfig,
    smoothing_window=st.integers(1, 10_000),
    margin=nonnegative,
    run_requirement=st.integers(1, 10_000),
)
# Payload coordinates the 6-decimal G-code writer renders exactly.
coordinates = st.integers(0, 8_000).map(lambda v: v / 8)


@st.composite
def attack_overrides(draw):
    attacks = {}
    for row, specs in DEFAULT_ATTACKS.items():
        changed = []
        for spec in specs:
            position = draw(st.integers(0, 25))
            changes = {"layer": draw(st.integers(0, 9)), "position": position}
            if spec.pair_offset is not None:
                changes["pair_offset"] = draw(st.integers(0, 25).filter(lambda v: v != position))
            if spec.payload is not None:
                changes["payload"] = Command(
                    kind=CommandKind.RAPID_MOVE, x=draw(coordinates), y=draw(coordinates)
                )
            changed.append(dataclasses.replace(spec, **changes))
        attacks[row] = tuple(changed)
    return attacks


@settings(max_examples=60, deadline=None)
@given(
    profile=profiles,
    noise=noises,
    detection=detections,
    golden_count=st.integers(2, 1_000),
    malicious_count=st.integers(1, 1_000),
    seed=st.integers(0, 2**40),
    visible_factor=positive,
    series_stride=st.integers(1, 10_000),
    save_traces=st.booleans(),
    attacks=st.none() | attack_overrides(),
    own_program=st.booleans(),
)
def test_dump_then_load_is_the_identity(tmp_path_factory, own_program, **fields):
    directory = tmp_path_factory.mktemp("cfg")
    program_path = None
    if own_program:
        program_path = str(directory / "part.gcode")
        (directory / "part.gcode").write_text(serialize(benchmark_object()))
    config = ExperimentConfig(program_path=program_path, **fields)
    path = directory / "config.txt"
    path.write_text(dump_experiment_config(config))
    assert load_experiment_config(path, ExperimentConfig()) == config


def _flat_trace(rate=25_000.0):
    return MotorTrace(
        motor=Motor.X, sample_rate=rate, samples=np.zeros(200, np.float32), trigger_index=0
    )


# Each field builds its object with one value set; NaN passed the old
# ``< 0`` / ``<= 0`` checks, and a NaN margin turned every verdict benign.
_NON_FINITE_TARGETS = {
    "DetectionConfig.margin": lambda v: DetectionConfig(margin=v),
    **{
        f"AxisValues.{axis}": lambda v, axis=axis: AxisValues(
            **{**dict.fromkeys("xyze", 1.0), axis: v}
        )
        for axis in "xyze"
    },
    **{
        f"PrinterProfile.{name}": lambda v, name=name: dataclasses.replace(
            DEFAULT_PROFILE, **{name: v}
        )
        for name in ("rated_phase_current", "default_feed")
    },
    **{
        f"NoiseModel.{name}": lambda v, name=name: NoiseModel(**{name: v})
        for name in ("idle_noise_sd", "phase_jitter_sd", "amplitude_noise_sd")
    },
    "ExperimentConfig.visible_factor": lambda v: ExperimentConfig(visible_factor=v),
    "MotorTrace.sample_rate": _flat_trace,
    "classify margin": lambda v: detect_print(
        {Motor.X: dataclasses.replace(_flat_trace(), samples=np.full(200, 5.0, np.float32))},
        {Motor.X: build_baseline([_flat_trace(), _flat_trace()])},
        DetectionConfig(margin=v),
    ),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("target", sorted(_NON_FINITE_TARGETS))
def test_non_finite_value_rejected(target, value):
    with pytest.raises((ValueError, ExperimentError), match="must be finite"):
        _NON_FINITE_TARGETS[target](value)
