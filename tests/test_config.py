import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powertrace.config import parse_payload, read_kv_file
from powertrace.detect import DetectionConfig, build_baseline, detect_print
from powertrace.gcode import Command, CommandKind, read_gcode, serialize
from powertrace.harness import (
    _EXPERIMENT_KEYS,
    ExperimentConfig,
    ExperimentError,
    _attack_keys,
    benchmark_object,
    default_attacks,
    dump_experiment_config,
    load_experiment_config,
)
from powertrace.planner import DEFAULT_PROFILE, AxisValues, Motor, PrinterProfile, plan_motion
from powertrace.tracesim import MotorTrace, NoiseModel

DEFAULT_ATTACKS = default_attacks()

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
    save_traces=st.booleans(),
    attacks=attack_overrides(),
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


def test_relative_program_path_is_dumped_absolute(tmp_path, monkeypatch):
    # Written as given, "part.gcode" was read back relative to the output
    # directory, so config.txt named a program that is not there.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "part.gcode").write_text(serialize(benchmark_object()))
    config = ExperimentConfig(program_path="part.gcode")
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "config.txt"
    path.write_text(dump_experiment_config(config))
    loaded = load_experiment_config(path, ExperimentConfig())
    assert loaded.program_path == str(tmp_path / "part.gcode")
    plan = plan_motion(read_gcode(loaded.program_path), loaded.profile)
    assert plan == plan_motion(read_gcode(config.program_path), config.profile)


def test_loading_a_config_reads_no_program(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("program = absent.gcode\nattack.void.position = 2\n")
    config = load_experiment_config(path, ExperimentConfig())
    assert config.program_path == str(tmp_path / "absent.gcode")
    assert config.attacks["void"][0].position == 2


def test_default_config_dumps_its_attack_keys():
    assert "attack.reorder1.pair_offset = 9\n" in dump_experiment_config(ExperimentConfig())


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("\ufeffgolden_count = 2\n", encoding="utf-8")
    assert read_kv_file(path) == {"golden_count": (1, "2")}


def test_comment_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# a comment\n\n  ; another = 3\ngolden_count = 2\n   \n")
    assert read_kv_file(path) == {"golden_count": (4, "2")}


def test_a_fan_off_payload_dumps_as_canonical_text(tmp_path):
    # A payload keeps no line of its own, so it is dumped as the canonical
    # text of the command it parses to: M107 is the fan at speed 0.
    insert = dataclasses.replace(DEFAULT_ATTACKS["insert"][0], payload=parse_payload("M107"))
    config = ExperimentConfig(attacks={**DEFAULT_ATTACKS, "insert": (insert,)})
    text = dump_experiment_config(config)
    assert "attack.insert.payload = M106 S0\n" in text
    path = tmp_path / "config.txt"
    path.write_text(text)
    assert load_experiment_config(path, ExperimentConfig()) == config


def test_each_field_has_one_key():
    table = _EXPERIMENT_KEYS + _attack_keys(DEFAULT_ATTACKS)
    paths = [key.path for key in table]
    names = [key.name for key in table]
    assert len(set(paths)) == len(paths)
    assert len(set(names)) == len(names)


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
