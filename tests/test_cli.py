import dataclasses
import struct
import subprocess
import sys

import numpy as np
import pytest

from powertrace.cli import main
from powertrace.config import ConfigError
from powertrace.detect import DetectionConfig, smooth
from powertrace.gcode import serialize
from powertrace.harness import (
    ExperimentConfig,
    ExperimentError,
    benchmark_object,
    load_experiment_config,
)
from powertrace.traceio import align_to_trigger, load_baseline, load_trace, save_trace

GCODE = """\
G1 Z0.2 F37.5
G1 X8 E0.4 F960
G1 X16 E0.8
G1 Y8 E1.2
G0 X0 Y0
"""


@pytest.fixture
def gcode_file(tmp_path):
    path = tmp_path / "part.gcode"
    path.write_text(GCODE)
    return path


def _simulate(gcode_file, out_dir, seed=0, prefix=None):
    argv = ["simulate", str(gcode_file), "--out", str(out_dir), "--seed", str(seed)]
    if prefix:
        argv += ["--prefix", prefix]
    assert main(argv) == 0


class TestSimulate:
    def test_writes_four_capture_files(self, gcode_file, tmp_path, capsys):
        _simulate(gcode_file, tmp_path / "caps")
        out = capsys.readouterr().out
        assert "config command=simulate" in out
        files = sorted((tmp_path / "caps").glob("part_*.ptrc"))
        assert [f.name for f in files] == [
            "part_E.ptrc",
            "part_X.ptrc",
            "part_Y.ptrc",
            "part_Z.ptrc",
        ]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.gcode"), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_seed_in_noise_file_exits_2(self, gcode_file, tmp_path, capsys):
        # The seed comes from --seed; a noise file's seed would be ignored.
        noise = tmp_path / "noise.cfg"
        noise.write_text("idle_noise_sd = 0.01\nseed = 7\n")
        argv = ["simulate", str(gcode_file), "--noise", str(noise), "--out", str(tmp_path / "caps")]
        assert main(argv) == 2
        assert f"error: {noise}:2: unknown key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "caps").exists()

    def test_fixed_seed_reproduces_files(self, gcode_file, tmp_path):
        _simulate(gcode_file, tmp_path / "a", seed=5)
        _simulate(gcode_file, tmp_path / "b", seed=5)
        for name in ("part_X.ptrc", "part_E.ptrc"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestAttack:
    def test_insert_adds_one_command(self, gcode_file, tmp_path, capsys):
        code = main(
            [
                "attack",
                str(gcode_file),
                "--kind",
                "insert",
                "--layer",
                "0",
                "--position",
                "2",
                "--payload",
                "G0 X24",
                "--output",
                "bad.gcode",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        mutated = (tmp_path / "bad.gcode").read_text()
        assert len(mutated.splitlines()) == len(GCODE.splitlines()) + 1
        assert "G0 X24" in mutated

    def test_void_on_travel_exits_2(self, gcode_file, tmp_path, capsys):
        code = main(
            [
                "attack",
                str(gcode_file),
                "--kind",
                "void",
                "--layer",
                "0",
                "--position",
                "4",
                "--output",
                "bad.gcode",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "extruding" in capsys.readouterr().err

    def test_reorder_equal_offsets_exits_2(self, gcode_file, tmp_path, capsys):
        code = main(
            [
                "attack",
                str(gcode_file),
                "--kind",
                "reorder",
                "--layer",
                "0",
                "--position",
                "1",
                "--pair-offset",
                "1",
                "--output",
                "bad.gcode",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--kind", "delete", "--payload", "G0 X24"], "delete takes no payload"),
            (
                ["--kind", "insert", "--payload", "G0 X24", "--pair-offset", "5"],
                "insert takes no pair_offset",
            ),
        ],
    )
    def test_field_the_kind_does_not_use_exits_2(self, gcode_file, tmp_path, capsys, extra, message):
        argv = ["attack", str(gcode_file), "--layer", "0", "--position", "1", *extra]
        assert main(argv + ["--output", "bad.gcode", "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad.gcode").exists()


class TestBaseline:
    def test_builds_baseline_from_captures(self, gcode_file, tmp_path, capsys):
        for seed in range(3):
            _simulate(gcode_file, tmp_path / f"run{seed}", seed=seed)
        captures = [str(tmp_path / f"run{s}" / "part_X.ptrc") for s in range(3)]
        code = main(
            ["baseline", *captures, "--output", "X.ptrb", "--out", str(tmp_path)]
        )
        assert code == 0
        baseline = load_baseline(tmp_path / "X.ptrb")
        assert baseline.source_count == 3
        assert baseline.smoothing_window == 20

    def test_single_capture_exits_2(self, gcode_file, tmp_path, capsys):
        _simulate(gcode_file, tmp_path / "run0")
        code = main(
            [
                "baseline",
                str(tmp_path / "run0" / "part_X.ptrc"),
                "--output",
                "X.ptrb",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_mixed_motors_exit_2(self, gcode_file, tmp_path, capsys):
        _simulate(gcode_file, tmp_path / "run0")
        code = main(
            [
                "baseline",
                str(tmp_path / "run0" / "part_X.ptrc"),
                str(tmp_path / "run0" / "part_Y.ptrc"),
                "--output",
                "mix.ptrb",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "mix motors" in capsys.readouterr().err

    def test_mixed_rates_exit_2(self, gcode_file, tmp_path, capsys):
        for seed in range(2):
            _simulate(gcode_file, tmp_path / f"run{seed}", seed=seed)
        odd = tmp_path / "run1" / "part_X.ptrc"
        save_trace(dataclasses.replace(load_trace(odd), sample_rate=10_000.0), odd)
        captures = [str(tmp_path / f"run{seed}" / "part_X.ptrc") for seed in range(2)]
        code = main(["baseline", *captures, "--output", "X.ptrb", "--out", str(tmp_path)])
        assert code == 2
        assert "mix sample rates" in capsys.readouterr().err

    def test_glob_pattern_accepted(self, gcode_file, tmp_path):
        for seed in range(2):
            _simulate(gcode_file, tmp_path / "caps", seed=seed, prefix=f"run{seed}")
        code = main(
            [
                "baseline",
                str(tmp_path / "caps" / "run*_X.ptrc"),
                "--output",
                "X.ptrb",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_capture_listed_twice_exits_2(self, gcode_file, tmp_path, capsys):
        # The glob matches run0 and run1; run0 again, spelled another way,
        # would count as a third golden trace and shrink the sd.
        for seed in range(2):
            _simulate(gcode_file, tmp_path / "caps", seed=seed, prefix=f"run{seed}")
        again = tmp_path / "caps" / ".." / "caps" / "run0_X.ptrc"
        pattern = str(tmp_path / "caps" / "run*_X.ptrc")
        code = main(["baseline", pattern, str(again), "--output", "X.ptrb", "--out", str(tmp_path)])
        assert code == 2
        assert f"capture {again} is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "X.ptrb").exists()


    def test_pattern_matching_no_file_exits_2_naming_it(self, gcode_file, tmp_path, capsys):
        # A pattern that matches nothing is taken as a path.
        _simulate(gcode_file, tmp_path / "caps", prefix="run0")
        pattern = str(tmp_path / "caps" / "run*_Q.ptrc")
        capture = str(tmp_path / "caps" / "run0_X.ptrc")
        code = main(["baseline", capture, pattern, "--output", "X.ptrb", "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {pattern}: " in capsys.readouterr().err
        assert not (tmp_path / "X.ptrb").exists()


def _build_pipeline(gcode_file, tmp_path):
    """Golden baselines for all four motors plus one benign capture set."""
    for seed in range(3):
        _simulate(gcode_file, tmp_path / f"g{seed}", seed=seed)
    for motor in "XYZE":
        captures = [str(tmp_path / f"g{s}" / f"part_{motor}.ptrc") for s in range(3)]
        assert (
            main(["baseline", *captures, "--output", f"{motor}.ptrb", "--out", str(tmp_path)])
            == 0
        )
    _simulate(gcode_file, tmp_path / "probe", seed=100)


class TestDetect:
    def test_benign_capture_exits_0(self, gcode_file, tmp_path, capsys):
        _build_pipeline(gcode_file, tmp_path)
        argv = ["detect"]
        for motor in "XYZE":
            argv += ["--capture", str(tmp_path / "probe" / f"part_{motor}.ptrc")]
            argv += ["--baseline", str(tmp_path / f"{motor}.ptrb")]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "report overall=benign" in out
        assert out.count("report motor=") == 4
        # detect reads no seed and writes no file, so it prints neither option.
        assert "config command=detect\n" in out
        assert "config seed=" not in out and "config out=" not in out

    def test_attacked_capture_exits_1(self, gcode_file, tmp_path, capsys):
        _build_pipeline(gcode_file, tmp_path)
        assert (
            main(
                [
                    "attack",
                    str(gcode_file),
                    "--kind",
                    "insert",
                    "--layer",
                    "0",
                    "--position",
                    "2",
                    "--payload",
                    "G0 X24",
                    "--output",
                    "bad.gcode",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        _simulate(tmp_path / "bad.gcode", tmp_path / "evil", seed=200)
        argv = ["detect"]
        for motor in "XYZE":
            argv += ["--capture", str(tmp_path / "evil" / f"bad_{motor}.ptrc")]
            argv += ["--baseline", str(tmp_path / f"{motor}.ptrb")]
        assert main(argv) == 1
        assert "report overall=malicious" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, gcode_file, tmp_path, capsys):
        _build_pipeline(gcode_file, tmp_path)
        argv = [
            "detect",
            "--capture",
            str(tmp_path / "probe" / "part_X.ptrc"),
            "--baseline",
            str(tmp_path / "Y.ptrb"),
        ]
        assert main(argv) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_baseline_without_capture_exits_2_naming_the_motor(self, gcode_file, tmp_path, capsys):
        # Every baseline given is judged: an X-only capture set against X and
        # Y baselines must not pass as a benign X report.
        _build_pipeline(gcode_file, tmp_path)
        argv = [
            "detect",
            "--capture",
            str(tmp_path / "probe" / "part_X.ptrc"),
            "--baseline",
            str(tmp_path / "X.ptrb"),
            "--baseline",
            str(tmp_path / "Y.ptrb"),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: missing capture for motor Y" in captured.err
        assert "report" not in captured.out

    @pytest.mark.parametrize("flag", ["--capture", "--baseline"])
    def test_second_file_for_a_motor_exits_2(self, gcode_file, tmp_path, capsys, flag):
        _build_pipeline(gcode_file, tmp_path)
        _simulate(gcode_file, tmp_path / "probe2", seed=101)
        argv = ["detect"]
        for motor in "XY":
            argv += ["--capture", str(tmp_path / "probe" / f"part_{motor}.ptrc")]
            argv += ["--baseline", str(tmp_path / f"{motor}.ptrb")]
        if flag == "--capture":
            argv += [flag, str(tmp_path / "probe2" / "part_Y.ptrc")]
        else:
            argv += [flag, str(tmp_path / "Y.ptrb")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"two {flag} files for motor Y" in err

    # Each damage: the column whose cell 100 is overwritten, the value, and the
    # error text that must follow the damaged file's path.
    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("capture", float("nan"), "sample 100 is nan, must be finite"),
            ("capture", float("inf"), "sample 100 is inf, must be finite"),
            ("capture", float("-inf"), "sample 100 is -inf, must be finite"),
            ("sd", float("nan"), "sd cell 100 is nan, must be finite"),
            ("sd", float("inf"), "sd cell 100 is inf, must be finite"),
            ("sd", -1.0, "sd cell 100 is -1.0, must be >= 0"),
            ("reference", float("nan"), "reference sample 100 is nan, must be finite"),
            ("reference", float("-inf"), "reference sample 100 is -inf, must be finite"),
        ],
        ids=[
            "capture-nan",
            "capture-inf",
            "capture--inf",
            "sd-nan",
            "sd-inf",
            "sd-negative",
            "reference-nan",
            "reference--inf",
        ],
    )
    def test_bad_cell_exits_2_naming_the_file(
        self, gcode_file, tmp_path, capsys, column, value, message
    ):
        _build_pipeline(gcode_file, tmp_path)
        capture, baseline = tmp_path / "probe" / "part_X.ptrc", tmp_path / "X.ptrb"
        path = capture if column == "capture" else baseline
        blob = bytearray(path.read_bytes())
        # A capture has a 32-byte header; a baseline 48, then f32 sd cells.
        sd_bytes = 0 if column == "capture" else 4 * ((len(blob) - 48) // 8)
        offset = {
            "capture": 32 + 4 * 100,
            "sd": 48 + 4 * 100,
            "reference": 48 + sd_bytes + 4 * 100,
        }[column]
        blob[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        argv = ["detect", "--capture", str(capture), "--baseline", str(baseline)]
        assert main(argv) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_nan_margin_exits_2(self, gcode_file, tmp_path, capsys):
        _build_pipeline(gcode_file, tmp_path)
        argv = ["detect", "--margin", "nan"]
        argv += ["--capture", str(tmp_path / "probe" / "part_X.ptrc")]
        argv += ["--baseline", str(tmp_path / "X.ptrb")]
        assert main(argv) == 2
        assert "margin must be finite" in capsys.readouterr().err

    def test_capture_shorter_than_window_exits_2_naming_the_motor(
        self, gcode_file, tmp_path, capsys
    ):
        _build_pipeline(gcode_file, tmp_path)
        probe = load_trace(tmp_path / "probe" / "part_Y.ptrc")
        short = dataclasses.replace(
            probe, samples=probe.samples[probe.trigger_index : probe.trigger_index + 5],
            trigger_index=0,
        )
        save_trace(short, tmp_path / "short_Y.ptrc")
        argv = ["detect"]
        argv += ["--capture", str(tmp_path / "short_Y.ptrc")]
        argv += ["--baseline", str(tmp_path / "Y.ptrb")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Y capture has 5 samples, shorter than the smoothing window 20" in err

    def test_window_flag_exits_2(self, gcode_file, tmp_path, capsys):
        # The window is the baseline's; detect takes no second copy of it.
        _build_pipeline(gcode_file, tmp_path)
        argv = ["detect", "--window", "1"]
        argv += ["--capture", str(tmp_path / "probe" / "part_X.ptrc")]
        argv += ["--baseline", str(tmp_path / "X.ptrb")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --window 1" in capsys.readouterr().err

    def test_judges_at_the_baseline_window(self, gcode_file, tmp_path, capsys):
        for seed in range(3):
            _simulate(gcode_file, tmp_path / f"g{seed}", seed=seed)
        _simulate(gcode_file, tmp_path / "probe", seed=100)
        captures = [str(tmp_path / f"g{s}" / "part_X.ptrc") for s in range(3)]
        argv = ["baseline", *captures, "--window", "5", "--output", "X.ptrb"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        baseline = load_baseline(tmp_path / "X.ptrb")
        assert baseline.smoothing_window == 5
        probe = tmp_path / "probe" / "part_X.ptrc"
        capsys.readouterr()
        argv = ["detect", "--capture", str(probe), "--baseline", str(tmp_path / "X.ptrb")]
        assert main(argv) == 0
        smoothed = smooth(align_to_trigger(load_trace(probe)), 5).samples
        n = min(len(smoothed), baseline.sample_count)
        peak = np.abs(smoothed[:n].astype(np.float64) - baseline.reference[:n]).max()
        threshold = baseline.peak_sd + DetectionConfig().margin
        assert f"peak_excess_amps={peak - threshold:.6f}" in capsys.readouterr().out


_BAD_PAYLOAD = ":1: bad value for 'attack.insert.payload': "


class TestExperimentCommand:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = banana\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_counts = 3\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2

    def test_noise_seed_rejected_in_favour_of_seed(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nnoise.seed = 5\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}:2: 'noise.seed'" in err and "top-level 'seed'" in err
        assert not (tmp_path / "out").exists()

    def test_small_experiment_via_config_file(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nmalicious_count = 1\nseed = 0\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert (tmp_path / "out" / "matrix.txt").is_file()

    def test_config_txt_reruns_the_experiment_byte_for_byte(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nmalicious_count = 1\n")
        first, second = tmp_path / "out", tmp_path / "out2"
        assert main(["experiment", str(config), "--out", str(first)]) == 0
        assert main(["experiment", str(first / "config.txt"), "--out", str(second)]) == 0
        names = ["matrix.txt", "matrix.csv", "config.txt"]
        names += [f"reports/{p.name}" for p in sorted((first / "reports").iterdir())]
        names += [f"baselines/{p.name}" for p in sorted((first / "baselines").glob("*.ptrb"))]
        assert len(names) == 3 + 5 + 4
        text = (first / "config.txt").read_text()
        assert "attack.reorder1.pair_offset = 9\n" in text and "attack.reorder." not in text
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_nan_margin_in_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nmargin = nan\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "margin must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("malicious_count = 0", "malicious_count must be >= 1"),
            ("golden_count = 1", "golden_count must be >= 2"),
        ],
    )
    def test_experiment_level_error_names_the_config(self, tmp_path, capsys, line, message):
        config = tmp_path / "exp.cfg"
        config.write_text(line + "\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {config}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys, source):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\n" + ("seed = -1\n" if source == "file" else ""))
        argv = ["experiment", str(config), "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err
        if source == "file":
            assert f"error: {config}: " in err
        assert not (tmp_path / "out" / "config.txt").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("golden_count = 2\nbanana\n", ":2: expected 'key = value'"),
            ("golden_count = 2\n= 3\n", ":2: empty key"),
            ("seed = 1\nseed = 2\n", ":2: duplicate key 'seed'"),
            ("seed = 1\nsede = 2\n", ":2: unknown key 'sede'"),
            ("visible_factor = 3.0\n", ":1: unknown key 'visible_factor'"),
            ("series_stride = 100\n", ":1: unknown key 'series_stride'"),
            ("attack.reorder.position = 7\n", ":1: unknown key 'attack.reorder.position'"),
            ("save_traces = maybe\n", ":1: bad value for 'save_traces': not a boolean"),
            ("golden_count = 2\nsave_traces = maybe\n", ":2: bad value for 'save_traces': not a boolean"),
            ("attack.insert.payload = G1 X1..5\n", f"{_BAD_PAYLOAD}bad payload 'G1 X1..5'"),
            ("attack.insert.payload = M104 S200\n", f"{_BAD_PAYLOAD}payload 'M104 S200' is not a"),
            ("attack.delete.payload = G0 X1 Y1\n", ": delete takes no payload"),
            ("attack.void.pair_offset = 4\n", ": void takes no pair_offset"),
        ],
    )
    def test_config_error_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "exp.cfg"
        config.write_text(text)
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {config}{message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unappliable_attack_exits_2_before_writing(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nattack.insert.layer = 99\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        # Worded as a row that cannot be planned is: the row, not the file.
        assert capsys.readouterr().err.startswith("error: attack.insert: no such layer: 99")
        assert not (tmp_path / "out").exists()

    def test_unplannable_attack_exits_2_before_writing(self, tmp_path, capsys):
        # The inserted extruding move applies, but drives E past its feed
        # limit: the row's plan fails before config.txt is written.
        config = tmp_path / "exp.cfg"
        config.write_text(
            "golden_count = 2\nattack.insert.layer = 0\nattack.insert.position = 4\n"
            "attack.insert.payload = G1 X3 Y12 E0.4\n"
        )
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: attack.insert: command 9: E axis")
        assert not (tmp_path / "out" / "config.txt").exists()

    def test_flagged_benign_capture_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("golden_count = 2\nmalicious_count = 1\nmargin = 0\nrun_requirement = 1\n")
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "zero-false-positive gate" in capsys.readouterr().err
        assert (tmp_path / "out" / "matrix.txt").read_text().startswith("attack")

    def test_printed_seed_is_the_one_the_run_uses(self, tmp_path, capsys, monkeypatch):
        # Regression: the config line showed --seed while the file's seed ran.
        config = tmp_path / "exp.cfg"
        config.write_text("seed = 7\n")
        seen = []

        def fake_run(config, out_dir):
            seen.append(config)
            raise ExperimentError("stop before simulating")

        monkeypatch.setattr("powertrace.cli.run_experiment", fake_run)
        argv = ["experiment", str(config), "--seed", "3", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert seen[0].seed == 7
        out = capsys.readouterr().out
        assert "config seed=7\n" in out and "config seed=3" not in out

    # An attack key once made loading read the program, so that config
    # exited 2 before printing its config lines.
    @pytest.mark.parametrize("extra", ["", "attack.void.position = 2\n"], ids=["bare", "attack"])
    def test_missing_program_exits_2_naming_it_before_writing(self, tmp_path, capsys, extra):
        config = tmp_path / "exp.cfg"
        config.write_text("program = absent.gcode\ngolden_count = 2\n" + extra)
        assert main(["experiment", str(config), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "config golden_count=2\n" in captured.out
        assert str(tmp_path / "absent.gcode") in captured.err
        assert not (tmp_path / "out").exists()

    def test_relative_program_is_read_beside_the_config(self, tmp_path, monkeypatch):
        # Regression: a relative ``program`` used to be opened from the
        # working directory, so this run exited 2.
        (tmp_path / "relcfg").mkdir()
        (tmp_path / "relcfg" / "part.gcode").write_text(serialize(benchmark_object()))
        (tmp_path / "relcfg" / "exp.cfg").write_text(
            "program = part.gcode\ngolden_count = 2\nmalicious_count = 1\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "relcfg/exp.cfg", "--out", "out"]) == 0
        text = (tmp_path / "out" / "config.txt").read_text()
        assert f"program = {tmp_path / 'relcfg' / 'part.gcode'}\n" in text
        # The run's config.txt reruns it from any directory.
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["experiment", str(tmp_path / "out" / "config.txt"), "--out", "out2"]) == 0
        for name in ("matrix.txt", "matrix.csv", "config.txt"):
            rerun = tmp_path / "elsewhere" / "out2" / name
            assert rerun.read_bytes() == (tmp_path / "out" / name).read_bytes(), name


class TestExperimentConfigParsing:
    def test_attack_overrides_parsed(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text(
            "golden_count = 2\n"
            "attack.insert.layer = 5\n"
            "attack.insert.payload = G0 X30\n"
            "attack.void.position = 3\n"
            "attack.reorder1.pair_offset = 11\n"
            "noise.idle_noise_sd = 0.01\n"
            "steps_per_mm.x = 10\n"
        )
        config = load_experiment_config(config_file, ExperimentConfig())
        assert config.golden_count == 2
        assert config.noise.idle_noise_sd == 0.01
        assert config.profile.steps_per_mm.x == 10.0
        assert config.attacks["insert"][0].layer == 5
        assert config.attacks["insert"][0].payload.x == 30.0
        assert config.attacks["void"][0].position == 3
        assert config.attacks["reorder"][1].pair_offset == 11
        assert config.attacks["reorder"][0].pair_offset != 11

    def test_unknown_attack_field_rejected(self, tmp_path):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("attack.insert.speed = 3\n")
        with pytest.raises(ConfigError, match="unknown key 'attack.insert.speed'"):
            load_experiment_config(config_file, ExperimentConfig())

    def test_profile_and_seed_flags_survive_unless_the_file_sets_the_key(
        self, tmp_path, monkeypatch
    ):
        # Regression: a config setting one profile key used to reset every
        # other profile key to the default profile, dropping --profile.
        profile = tmp_path / "printer.cfg"
        profile.write_text("max_feed.x = 1000\nsteps_per_mm.y = 9\n")
        config_file = tmp_path / "exp.cfg"
        config_file.write_text("steps_per_mm.x = 10\nsteps_per_mm.y = 7\n")
        seen = []

        def fake_run(config, out_dir):
            seen.append(config)
            raise ExperimentError("stop before simulating")

        monkeypatch.setattr("powertrace.cli.run_experiment", fake_run)
        argv = ["experiment", str(config_file), "--profile", str(profile), "--seed", "4"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        (config,) = seen
        assert config.profile.max_feed.x == 1000.0
        assert config.profile.steps_per_mm.x == 10.0
        assert config.profile.steps_per_mm.y == 7.0
        assert config.seed == 4


class TestProfileConfig:
    def test_profile_file_round_trips(self, gcode_file, tmp_path):
        profile = tmp_path / "printer.cfg"
        profile.write_text(
            "steps_per_mm.x = 8\nsteps_per_mm.y = 8\nsteps_per_mm.z = 2.2\n"
            "steps_per_mm.e = 0.6\nmax_feed.x = 1500\nrated_phase_current = 1.5\n"
        )
        code = main(
            [
                "simulate",
                str(gcode_file),
                "--profile",
                str(profile),
                "--out",
                str(tmp_path / "caps"),
            ]
        )
        assert code == 0

    def test_unknown_profile_key_exits_2(self, gcode_file, tmp_path, capsys):
        profile = tmp_path / "printer.cfg"
        profile.write_text("steps_per_mm.q = 8\n")
        code = main(
            ["simulate", str(gcode_file), "--profile", str(profile), "--out", str(tmp_path)]
        )
        assert code == 2


def test_module_entry_point(gcode_file, tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "powertrace",
            "simulate",
            str(gcode_file),
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "part_X.ptrc").is_file()


@pytest.mark.parametrize(
    "kind", ["simulate", "attack", "profile", "noise", "experiment", "program"]
)
def test_non_utf8_input_exits_2_naming_the_file(gcode_file, tmp_path, capsys, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"G1 Z0.2\n\xff\n")
    config = tmp_path / "exp.cfg"
    config.write_text(f"program = {bad}\ngolden_count = 2\n")
    argv = {
        "simulate": ["simulate", str(bad)],
        "attack": ["attack", str(bad), "--kind", "delete", "--layer", "0", "--position", "0",
                   "--output", "x.gcode"],
        "profile": ["simulate", str(gcode_file), "--profile", str(bad)],
        "noise": ["simulate", str(gcode_file), "--noise", str(bad)],
        "experiment": ["experiment", str(bad)],
        "program": ["experiment", str(config)],
    }[kind]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "can't decode byte 0xff" in err


def test_resolved_config_printed(gcode_file, tmp_path, capsys):
    _simulate(gcode_file, tmp_path)
    out = capsys.readouterr().out
    assert "config seed=0" in out
    assert "config out=" in out


@pytest.mark.parametrize(
    "command,extra",
    [
        ("attack", ["--seed", "1"]),
        ("attack", ["--profile", "p.cfg"]),
        ("baseline", ["--seed", "1"]),
        ("baseline", ["--profile", "p.cfg"]),
        ("detect", ["--out", "d"]),
        ("detect", ["--seed", "1"]),
        ("detect", ["--profile", "p.cfg"]),
    ],
    ids=[
        "attack-seed",
        "attack-profile",
        "baseline-seed",
        "baseline-profile",
        "detect-out",
        "detect-seed",
        "detect-profile",
    ],
)
def test_option_the_command_does_not_read_exits_2(command, extra, capsys):
    # Each argv is complete, so the extra option is the only usage error.
    argv = {
        "attack": ["attack", "part.gcode", "--kind", "delete", "--layer", "0", "--position", "0",
                   "--output", "x.gcode"],
        "baseline": ["baseline", "a_X.ptrc", "b_X.ptrc", "--output", "X.ptrb"],
        "detect": ["detect", "--capture", "probe_X.ptrc", "--baseline", "X.ptrb"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + extra)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
