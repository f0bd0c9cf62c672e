import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from powertrace.attacks import AttackError, apply_attack
from powertrace.detect import DetectionConfig
from powertrace.harness import (
    ATTACK_ROWS,
    CellOutcome,
    ExperimentConfig,
    ExperimentError,
    _excess_over,
    benchmark_object,
    default_attacks,
    render_matrix,
    run_experiment,
)
from powertrace.planner import DEFAULT_PROFILE, MOTORS, Motor, plan_motion
from powertrace.tracesim import SAMPLE_RATE, NoiseModel


# Small but complete protocol: enough golden traces for a sample sd, one
# capture per row.  Keeps the full-matrix unit test around 10 s.
SMALL = ExperimentConfig(golden_count=3, malicious_count=1, seed=0)


def excess(deviation, sd):
    """A deviation, no longer than the sd column ``sd``, less its leading
    cells, clamped at zero: the whole excess series."""
    return _excess_over(deviation, sd[: len(deviation)])


def sd_column(baseline):
    """The whole sd column of ``baseline``, read in one read through its
    reader (from its file, for a loaded one)."""
    with baseline._column_cells("pointwise_sd", 0) as read:
        return read(np.empty(baseline.sample_count, dtype=np.float32)).copy()


def row_programs(program, attacks):
    """Each attack row's program: its specs applied to ``program`` in turn."""
    programs = {}
    for row, specs in attacks.items():
        programs[row] = program
        for spec in specs:
            programs[row] = apply_attack(programs[row], spec)
    return programs


def row_plans(attacks):
    """The plans of the benchmark object and of each attack row's program."""
    program = benchmark_object()
    programs = {"normal": program, **row_programs(program, attacks)}
    return {row: plan_motion(prog, SMALL.profile) for row, prog in programs.items()}


def aligned_length(plan):
    """The samples of ``plan``'s traces from the trigger on: the
    ``sample_count`` of every baseline built from ``plan``."""
    from powertrace import tracesim

    return tracesim.trace_length(plan) - tracesim.trigger_index(plan)


def ground_truth(attacks):
    """``_ground_truth`` of the benchmark object under ``attacks`` and
    ``SMALL``: each attack row's span per motor."""
    from powertrace import harness

    return harness._ground_truth(row_plans(attacks), SMALL)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    matrix = run_experiment(SMALL, out)
    return matrix, out


class TestBenchmarkObject:
    def test_ten_layers(self):
        assert len(benchmark_object().layers) == 10

    def test_prints_in_about_75_seconds(self):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        assert plan.total_duration == pytest.approx(75.0, rel=0.10)

    def test_all_step_frequencies_within_band(self):
        plan = plan_motion(benchmark_object(), DEFAULT_PROFILE)
        for motor in MOTORS:
            for seg in plan.segments[motor]:
                assert seg.step_frequency <= 200.0

    def test_deterministic(self):
        from powertrace.gcode import serialize

        assert serialize(benchmark_object()) == serialize(benchmark_object())


class TestDefaultAttacks:
    def test_all_four_rows_present(self):
        attacks = default_attacks()
        assert set(attacks) == set(ATTACK_ROWS)

    def test_specs_apply_cleanly(self):
        program = benchmark_object()
        for row, specs in default_attacks(program).items():
            mutated = program
            for spec in specs:
                mutated = apply_attack(mutated, spec)
            if row == "insert":
                assert len(mutated) == len(program) + 1
            elif row == "delete":
                assert len(mutated) == len(program) - 1
            else:
                assert len(mutated) == len(program)

    def test_insert_payload_preserves_successor_geometry(self):
        # The payload is equidistant from the successor's target, so every
        # command duration except the inserted one is unchanged.
        from powertrace.planner import command_start_times

        program = benchmark_object()
        spec = default_attacks(program)["insert"][0]
        mutated = apply_attack(program, spec)
        index = program.command_index(spec.layer, spec.position)
        benign = command_start_times(program)
        attacked = command_start_times(mutated)
        inserted_duration = attacked[index + 1] - attacked[index]
        assert inserted_duration > 0
        for k in range(index, len(benign)):
            assert attacked[k + 1] - benign[k] == pytest.approx(inserted_duration, abs=1e-9)


class TestConfigValidation:
    def test_golden_count_must_allow_a_standard_deviation(self):
        with pytest.raises(ExperimentError, match="golden_count"):
            ExperimentConfig(golden_count=1)

    def test_malicious_count_positive(self):
        with pytest.raises(ExperimentError, match="malicious_count"):
            ExperimentConfig(malicious_count=0)

    def test_negative_seed_rejected(self):
        # Every print's noise seed is offset from this one, so a negative seed
        # used to fail only once a print's noise model rejected its own seed.
        with pytest.raises(ExperimentError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)

    def test_noise_seed_rejected_in_favour_of_seed(self):
        # The golden phase and every row print replace the noise model's
        # seed, so a nonzero one used to write the artifacts of seed 0.
        with pytest.raises(ExperimentError, match="noise.seed is 5.*top-level 'seed'"):
            ExperimentConfig(golden_count=2, malicious_count=1, noise=NoiseModel(seed=5))
        assert ExperimentConfig(noise=NoiseModel(seed=0)) == ExperimentConfig()

    @pytest.mark.parametrize(
        "edit, message",
        [
            # config.txt would carry attack.bogus.* keys that fail to load back.
            (
                lambda attacks: {**attacks, "bogus": attacks["delete"]},
                r"unknown attack row 'bogus' \(rows: insert, delete, reorder, void\)",
            ),
            # dump_pairs would fail on the empty row with an IndexError.
            (lambda attacks: {**attacks, "insert": ()}, "no attack spec configured for 'insert'"),
            (
                lambda attacks: {row: specs for row, specs in attacks.items() if row != "void"},
                "no attack spec configured for 'void'",
            ),
        ],
        ids=["extra", "empty", "missing"],
    )
    def test_attack_rows_are_checked_where_the_config_is_built(self, edit, message):
        attacks = edit(default_attacks())
        with pytest.raises(ExperimentError, match=f"^{message}$"):
            ExperimentConfig(attacks=attacks)


class TestRunExperiment:
    def test_normal_row_is_clean(self, small_run):
        matrix, _ = small_run
        assert matrix.valid
        for motor in MOTORS:
            cell = matrix.cell("normal", motor)
            assert cell.outcome is CellOutcome.NOT_DETECTED
            assert cell.detected_runs == 0

    def test_desync_attacks_detected_on_xy(self, small_run):
        matrix, _ = small_run
        for row in ("insert", "delete", "reorder"):
            for motor in (Motor.X, Motor.Y):
                assert matrix.cell(row, motor).outcome is CellOutcome.DETECTED, (row, motor)

    def test_void_row_has_no_detection(self, small_run):
        matrix, _ = small_run
        for motor in MOTORS:
            assert matrix.cell("void", motor).outcome is not CellOutcome.DETECTED
        for motor in (Motor.X, Motor.Y, Motor.Z):
            assert matrix.cell("void", motor).annotation == "no ground-truth disturbance"

    def test_artifacts_written(self, small_run):
        _, out = small_run
        assert (out / "matrix.txt").is_file()
        assert (out / "matrix.csv").is_file()
        assert (out / "config.txt").is_file()
        for motor in MOTORS:
            assert (out / "baselines" / f"{motor.name}.ptrb").is_file()
        assert (out / "reports" / "normal_run0.txt").is_file()
        assert (out / "reports" / "void_run0.txt").is_file()
        series = list((out / "series").glob("*_deviation.csv"))
        assert len(series) == 5 * 1 * 4  # rows x runs x motors

    def test_report_files_are_key_value(self, small_run):
        _, out = small_run
        text = (out / "reports" / "insert_run0.txt").read_text()
        assert "overall=malicious" in text
        assert "motor=X" in text
        assert "verdict=malicious" in text
        assert "excess_series=series/insert_run0_X_excess.csv" in text

    def test_rerun_is_byte_identical(self, small_run, tmp_path):
        _, out = small_run
        again = tmp_path / "again"
        run_experiment(SMALL, again)
        for name in ("matrix.txt", "matrix.csv", "config.txt"):
            assert (again / name).read_bytes() == (out / name).read_bytes()
        assert (again / "reports" / "insert_run0.txt").read_bytes() == (
            out / "reports" / "insert_run0.txt"
        ).read_bytes()
        assert (again / "baselines" / "X.ptrb").read_bytes() == (
            out / "baselines" / "X.ptrb"
        ).read_bytes()

    def test_baselines_follow_the_golden_recipe(self, small_run, tmp_path):
        # Golden print i is a whole print seeded seed + 1000 + i; each
        # baseline is built from those prints aligned, then smoothed and cut
        # to a common window by build_baseline.
        from powertrace.detect import build_baseline
        from powertrace.traceio import align_to_trigger, save_baseline
        from powertrace.tracesim import simulate_print

        _, out = small_run
        window = SMALL.detection.smoothing_window
        prints = [
            simulate_print(benchmark_object(), SMALL.profile, SMALL.noise, seed=SMALL.seed + 1000 + i)
            for i in range(SMALL.golden_count)
        ]
        for motor in MOTORS:
            golden = [align_to_trigger(traces[motor]) for traces in prints]
            path = tmp_path / f"{motor.name}.ptrb"
            save_baseline(build_baseline(golden, window), path)
            assert path.read_bytes() == (out / "baselines" / f"{motor.name}.ptrb").read_bytes()

    def test_excess_ratio_is_the_mean_of_per_print_window_means(self, small_run):
        # Recompute every attack row's ratios the way they were computed while
        # every print's full excess series was held: per print the mean over
        # the motor's ground-truth span, then the mean over prints, attack
        # over benign.  A motor without a span has no ratio.
        import numpy as np

        from powertrace import harness
        from powertrace.detect import detect_print
        from powertrace.traceio import align_to_trigger, load_baseline
        from powertrace.tracesim import simulate_print

        matrix, out = small_run
        paths = {m: out / "baselines" / f"{m.name}.ptrb" for m in MOTORS}
        baselines = {m: load_baseline(path) for m, path in paths.items()}
        sds = {m: sd_column(baseline) for m, baseline in baselines.items()}
        program = benchmark_object()
        attacks = default_attacks(program)
        programs = row_programs(program, attacks)
        truth = ground_truth(attacks)

        def prints(prog, first_seed):
            results = []
            for run in range(SMALL.malicious_count):
                traces = simulate_print(prog, SMALL.profile, SMALL.noise, seed=first_seed + run)
                aligned = {m: align_to_trigger(traces[m]) for m in MOTORS}
                results.append(detect_print(aligned, baselines, SMALL.detection))
            return results

        def mean_window_excess(results, motor, window):
            lo, hi = window
            values = []
            for result in results:
                series = excess(result.deviations[motor], sds[motor])
                hi_eff = min(hi, len(series))
                if hi_eff > lo:
                    values.append(float(np.mean(series[lo:hi_eff])))
            return float(np.mean(values)) if values else 0.0

        first_seed = SMALL.seed + harness._ROW_SEED_BASE
        benign_prints = prints(program, first_seed)
        for index, row in enumerate(ATTACK_ROWS, start=1):
            attacked_prints = prints(programs[row], first_seed + index * harness._ROW_SEED_STRIDE)
            for motor in MOTORS:
                span = truth[row].get(motor)
                expected = None
                if span:
                    attacked = mean_window_excess(attacked_prints, motor, span)
                    expected = harness._ratio(attacked, mean_window_excess(benign_prints, motor, span))
                assert matrix.cell(row, motor).excess_ratio == expected, (row, motor)

    @pytest.mark.parametrize("row", ["insert", "delete"])
    def test_series_files_are_the_deviation_and_its_excess(self, small_run, row):
        # Each file holds every _SERIES_STRIDE-th sample of its series, sample
        # i at i / rate.  A delete print is 12,814 samples shorter than the
        # baseline, so its grid stops early and its excess reads the leading
        # sd cells.
        from powertrace import harness
        from powertrace.detect import detect_print
        from powertrace.traceio import align_to_trigger, load_baseline
        from powertrace.tracesim import simulate_print

        def grid_csv(series, rate, stride):
            rows = (f"{i / rate:.6f},{series[i]:.6f}\r\n" for i in range(0, len(series), stride))
            return ("time_s,amps\r\n" + "".join(rows)).encode()

        _, out = small_run
        paths = {m: out / "baselines" / f"{m.name}.ptrb" for m in MOTORS}
        baselines = {m: load_baseline(path) for m, path in paths.items()}
        program = benchmark_object()
        for spec in default_attacks(program)[row]:
            program = apply_attack(program, spec)
        index = ATTACK_ROWS.index(row) + 1
        seed = SMALL.seed + harness._ROW_SEED_BASE + index * harness._ROW_SEED_STRIDE
        traces = simulate_print(program, SMALL.profile, SMALL.noise, seed=seed)
        aligned = {m: align_to_trigger(traces[m]) for m in MOTORS}
        result = detect_print(aligned, baselines, SMALL.detection)
        for motor in MOTORS:
            dev = result.deviations[motor]
            shortfall = baselines[motor].sample_count - len(dev)
            assert shortfall == (12_814 if row == "delete" else 0)
            rate, stride = baselines[motor].sample_rate, harness._SERIES_STRIDE
            expected = {
                "deviation": grid_csv(dev, rate, stride),
                "excess": grid_csv(excess(dev, sd_column(baselines[motor])), rate, stride),
            }
            for kind, text in expected.items():
                path = out / harness._series_path(row, 0, motor, kind)
                assert path.read_bytes() == text, (motor, kind)

    def test_row_that_changes_nothing_fails_before_anything_is_written(self, tmp_path):
        # Swapping two identical lines leaves the program as it was, so the
        # reorder row has no first changed command and no attack window.
        from powertrace.attacks import AttackKind, AttackSpec
        from powertrace.gcode import parse_line

        path = tmp_path / "twin.gcode"
        path.write_text("G1 Z0.2 F300\nG1 X10 Y0 E1 F600\nG0 X0 Y0\nG0 X0 Y0\nG1 X0 Y10 E2\n")
        attacks = {
            "insert": (AttackSpec(AttackKind.INSERT, 0, 1, payload=parse_line("G0 X5 Y5")),),
            "delete": (AttackSpec(AttackKind.DELETE, 0, 1),),
            "reorder": (AttackSpec(AttackKind.REORDER, 0, 2, pair_offset=3),),
            "void": (AttackSpec(AttackKind.VOID, 0, 1),),
        }
        config = dataclasses.replace(SMALL, program_path=str(path), attacks=attacks)
        message = r"^attack\.reorder: the attack changes no command$"
        with pytest.raises(ExperimentError, match=message):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unappliable_attack_fails_before_anything_is_written(self, tmp_path):
        attacks = dict(default_attacks())
        attacks["insert"] = (dataclasses.replace(attacks["insert"][0], layer=99),)
        config = dataclasses.replace(SMALL, golden_count=2, attacks=attacks)
        with pytest.raises(AttackError, match=r"^attack\.insert: no such layer: 99$"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unappliable_spec_of_a_two_spec_row_is_named_by_index(self, tmp_path):
        # As in the config keys: a row of several specs numbers them.
        attacks = dict(default_attacks())
        first, second = attacks["reorder"]
        attacks["reorder"] = (first, dataclasses.replace(second, layer=99))
        config = dataclasses.replace(SMALL, golden_count=2, attacks=attacks)
        with pytest.raises(AttackError, match=r"^attack\.reorder1: no such layer: 99$"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unplannable_row_fails_before_anything_is_written(self, tmp_path):
        # apply_attack accepts an extruding move inserted at the first
        # layer's start, but it drives E past its feed limit, so the row's
        # program cannot be planned; the error names the row as config.txt
        # would.
        from powertrace.attacks import AttackKind, AttackSpec
        from powertrace.gcode import parse_line
        from powertrace.planner import PlanError

        attacks = dict(default_attacks())
        payload = parse_line("G1 X3 Y12 E0.4")
        attacks["reorder"] = (AttackSpec(AttackKind.INSERT, 0, 4, payload=payload),)
        config = dataclasses.replace(SMALL, golden_count=2, attacks=attacks)
        with pytest.raises(PlanError, match=r"^attack\.reorder: command 9: E axis"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unrenderable_profile_fails_before_anything_is_written(self, tmp_path):
        # The planner accepts any finite steps_per_mm, but X would step far
        # past the Nyquist limit; the ground truth renders every program
        # before the first write, so synthesis rejects it then.
        from powertrace.tracesim import NyquistError

        steps = dataclasses.replace(DEFAULT_PROFILE.steps_per_mm, x=1e6)
        profile = dataclasses.replace(DEFAULT_PROFILE, steps_per_mm=steps)
        config = dataclasses.replace(SMALL, golden_count=2, profile=profile)
        with pytest.raises(NyquistError, match="^X segment"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_flagged_benign_capture_invalidates_the_run(self, tmp_path):
        # Zero margin and a one-sample run flag benign noise.
        detection = DetectionConfig(margin=0.0, run_requirement=1)
        config = ExperimentConfig(golden_count=2, malicious_count=1, detection=detection)
        with pytest.raises(ExperimentError, match="zero-false-positive gate"):
            run_experiment(config, tmp_path)
        assert (tmp_path / "matrix.csv").is_file()
        assert len(list((tmp_path / "reports").glob("*.txt"))) == 5
        text = (tmp_path / "matrix.txt").read_text()
        assert text.endswith("INVALID RUN: benign capture flagged (false-positive gate)\n")

    def test_matrix_render_layout(self, small_run):
        matrix, _ = small_run
        text = render_matrix(matrix)
        lines = text.splitlines()
        assert lines[0].split() == ["attack", "X", "Y", "Z", "E"]
        assert lines[1].startswith("normal")
        assert "no ground-truth disturbance" in text


def test_save_traces_flag(tmp_path):
    from powertrace.cli import main

    config = dataclasses.replace(SMALL, golden_count=2, save_traces=True)
    out = tmp_path / "run"
    run_experiment(config, out)
    saved = list((out / "traces").glob("*.ptrc"))
    # 2 golden + 1 normal + 4 attacks, 4 motors each
    assert len(saved) == (2 + 1 + 4) * 4
    # The operator path builds each baseline with the experiment's builder,
    # so its saved golden captures give the experiment's bytes.
    window = str(config.detection.smoothing_window)
    for motor in MOTORS:
        pattern = str(out / "traces" / f"golden_*_{motor.name}.ptrc")
        output = f"{motor.name}.ptrb"
        assert main(["baseline", pattern, "--window", window, "--output", output,
                     "--out", str(tmp_path / "cli")]) == 0
        built = (tmp_path / "cli" / output).read_bytes()
        assert built == (out / "baselines" / output).read_bytes()


def test_golden_phase_holds_one_motor_at_a_time(tmp_path):
    # Each added golden print may cost one float32 smoothed trace per
    # baseline sample (4 bytes); build_baseline writes the sd over golden
    # row 1 and its float64 scratch is a fixed block of about _BLOCK cells,
    # and holding every motor's smoothed traces until the last baseline is
    # built would cost 16.  Each baseline is saved and dropped before the
    # next motor's golden traces are made, and the four are read back once
    # the reused buffer is freed: measured 24.78 at 6 golden prints, 25.27
    # with a stack of _BLOCK samples per golden print, and 29.28 with that
    # and a fresh sd column too.  Holding the X, Y and Z baselines while
    # E's six smoothed golden traces are made read 57.1; keeping each built
    # baseline, whose reference views the buffer, until the next motor's
    # replaces it read 44.2, and keeping only its sd column until then 33.3.
    # What the phase returns holds no column, only each motor's sd and
    # reference grids, one cell in 250: measured 0.14-0.16.  Holding the
    # four float32 references held 16.07, and also each file's sd column 32.
    import tracemalloc

    from powertrace import harness

    plan = plan_motion(benchmark_object(), SMALL.profile)
    peaks = {}
    for count in (3, 6):
        config = dataclasses.replace(SMALL, golden_count=count)
        tracemalloc.start()
        try:
            baselines, grids = harness._build_baselines(plan, config, tmp_path / str(count))
            held, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    samples = baselines[Motor.X].sample_count
    assert (peaks[6] - peaks[3]) / 3 / samples <= 5.0
    assert peaks[6] / samples < 26.5
    assert all(b.pointwise_sd is None and b.reference is None for b in baselines.values())
    assert held / samples <= 0.2


@pytest.mark.parametrize("window", [1, 20])
def test_golden_buffers_give_the_baselines_of_fresh_arrays(tmp_path, window):
    # The golden phase renders each golden trace into a row reused from
    # motor to motor and smooths it over that row; each baseline must be
    # the one built from fresh arrays, at window 1 too, where smoothing
    # copies the raw samples.
    from powertrace import harness, tracesim
    from powertrace.detect import build_baseline
    from powertrace.traceio import align_to_trigger

    config = dataclasses.replace(SMALL, golden_count=2)
    config = dataclasses.replace(
        config, detection=dataclasses.replace(config.detection, smoothing_window=window)
    )
    plan = plan_motion(benchmark_object(), config.profile)
    baselines, grids = harness._build_baselines(plan, config, tmp_path)
    for motor in (Motor.X, Motor.E):
        golden = []
        for i in range(config.golden_count):
            noise = dataclasses.replace(config.noise, seed=config.seed + harness._GOLDEN_SEED_BASE + i)
            trace = tracesim.synthesize_trace(plan, motor, config.profile, noise)
            golden.append(align_to_trigger(trace))
        fresh = build_baseline(golden, window)
        saved = (tmp_path / "baselines" / f"{motor.name}.ptrb").read_bytes()
        n = fresh.sample_count
        assert saved[48 : 48 + 4 * n] == fresh.pointwise_sd.tobytes()
        assert saved[48 + 4 * n :] == fresh.reference.tobytes()
        sd_grid, reference_grid = grids[motor]
        assert sd_grid.tobytes() == fresh.pointwise_sd[:: harness._SERIES_STRIDE].tobytes()
        assert reference_grid.tobytes() == fresh.reference[:: harness._SERIES_STRIDE].tobytes()
        assert baselines[motor].reference is None
        assert baselines[motor].peak_sd == fresh.peak_sd > 0.0
        # The two facts the ground truth derives from the config and the plan.
        assert baselines[motor].smoothing_window == config.detection.smoothing_window
        assert baselines[motor].sample_count == aligned_length(plan)


def test_each_row_program_is_planned_once(tmp_path, monkeypatch):
    # The golden phase and the normal row share the unmodified program's
    # plan, and every print of an attack row renders from its row's plan.
    from powertrace import harness, tracesim

    planned = []

    def counting_plan(program, profile):
        planned.append(program)
        return plan_motion(program, profile)

    monkeypatch.setattr(harness, "plan_motion", counting_plan)
    monkeypatch.setattr(tracesim, "plan_motion", counting_plan)
    config = dataclasses.replace(SMALL, golden_count=2, malicious_count=2)
    run_experiment(config, tmp_path)
    program = benchmark_object()
    assert len(planned) == 1 + len(ATTACK_ROWS)
    assert planned[0] == program
    assert all(p != program for p in planned[1:])


def test_built_and_reloaded_baselines_agree(tmp_path, monkeypatch):
    # The experiment judges and computes excess with the baselines it reads
    # back from disk, as `powertrace detect` does.  The baselines it built
    # must hold the same float32 sd and float64 peak as those files, and so
    # give the same excess bytes.  A built baseline views golden rows 0 and
    # 1, which the next motor's renders overwrite, so each is compared with
    # its file as it is saved.
    import numpy as np

    from powertrace import harness
    from powertrace.traceio import load_baseline

    saved = []
    save = harness.save_baseline
    rng = np.random.default_rng(7)

    def recording_save(baseline, path):
        save(baseline, path)
        saved.append(baseline.motor)
        assert path == tmp_path / "baselines" / f"{baseline.motor.name}.ptrb"
        loaded = load_baseline(path)
        sd = sd_column(loaded)
        assert loaded.peak_sd == baseline.peak_sd
        assert loaded.smoothing_window == baseline.smoothing_window == 20
        assert sd.dtype == baseline.pointwise_sd.dtype == np.float32
        assert sd.tobytes() == baseline.pointwise_sd.tobytes()
        dev = np.abs(rng.normal(0.0, 2 * loaded.peak_sd, loaded.sample_count))
        assert excess(dev, sd).tobytes() == excess(dev, baseline.pointwise_sd).tobytes()

    monkeypatch.setattr(harness, "save_baseline", recording_save)
    run_experiment(dataclasses.replace(SMALL, golden_count=2), tmp_path)
    assert saved == list(MOTORS)


@pytest.fixture(scope="module")
def row_baselines(tmp_path_factory):
    """The golden phase's loaded baselines and sd grids."""
    from powertrace import harness

    plan = plan_motion(benchmark_object(), SMALL.profile)
    return harness._build_baselines(plan, SMALL, tmp_path_factory.mktemp("golden"))


def _run_normal_row(row_baselines, seeds, out, spans):
    """Run the ``normal`` row of ``seeds`` into ``out`` with its own print
    buffers, reading each motor's ``spans`` through the golden phase's
    loaded baselines."""
    from powertrace import harness, tracesim

    baselines, grids = row_baselines
    plan = plan_motion(benchmark_object(), SMALL.profile)
    buffers = harness._print_buffers(tracesim.trace_length(plan))
    return harness._run_row("normal", plan, SMALL, baselines, grids, seeds, out, spans, buffers)


def _run_row_peak(baselines, seed_count, out):
    """tracemalloc's peak over one ``normal`` row of ``seed_count`` prints,
    its print buffers included."""
    import tracemalloc

    tracemalloc.start()
    try:
        _run_normal_row(baselines, list(range(100, 100 + seed_count)), out, {})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_holds_one_print_at_a_time(row_baselines, tmp_path):
    # Every print of a row renders and smooths in the same buffers, and a
    # print's deviation reads are freed before the next print is simulated,
    # so more prints per row do not raise the peak; keeping the last print's
    # series would add tens of bytes per sample.
    peaks = {count: _run_row_peak(row_baselines, count, tmp_path / str(count)) for count in (1, 3)}
    assert (peaks[3] - peaks[1]) / row_baselines[0][Motor.X].sample_count <= 1.0


def test_row_print_peak_per_sample(row_baselines, tmp_path):
    # The row's print buffers hold the four float32 raw traces (16 bytes
    # per baseline sample), and each capture is smoothed over its raw trace,
    # so the smoothed captures a result reads take no more; on top come
    # detect_print's block scratch and the row's stride grid and window
    # parts (see the next test): measured 17.0.  Smoothing into four more
    # float32 arrays read 33.1, and a result holding four float64
    # deviations 48.9.
    peak = _run_row_peak(row_baselines, 1, tmp_path)
    assert peak / row_baselines[0][Motor.X].sample_count <= 20.0


def test_row_reads_make_no_full_length_series(row_baselines, tmp_path, monkeypatch):
    # From a print's first deviation read on, the row makes each motor's
    # deviation only on its stride grid (8 bytes per grid sample) and in
    # one span at a time (8 per span sample; the longest, X's insert span,
    # is the last 28% of the print), so its reads and exports add at most
    # 3 bytes per baseline sample: measured 2.43.  A span's sd cells are read
    # from the baseline file a block at a time; reading them as one array
    # read 3.44.  Reading one whole float64 deviation adds 8.  The peak is reset at that first read, so it counts only what the
    # reads and exports make.  A void row that holds the delete has the
    # delete row's spans, so a normal print reads three span parts per
    # motor, not four.
    import tracemalloc

    from powertrace import harness

    attacks = default_attacks()
    attacks["void"] = attacks["delete"]
    truth = ground_truth(attacks)
    assert truth["void"] == truth["delete"]
    spans = {motor: sorted({t[motor] for t in truth.values()}) for motor in MOTORS}
    longest = max(hi - lo for motor_spans in spans.values() for lo, hi in motor_spans)
    assert longest > 0.25 * row_baselines[0][Motor.X].sample_count
    starts = []
    window_parts = dict.fromkeys(MOTORS, 0)

    class ResetAtFirstRead:
        def __init__(self, deviations):
            self.deviations = deviations

        def __getitem__(self, key):
            if not starts:
                tracemalloc.reset_peak()
                starts.append(tracemalloc.get_traced_memory()[0])
            motor, part = key
            window_parts[motor] += part.step is None  # the stride grid has a step
            return self.deviations[key]

    def detect_then_watch(*args, detect_print=harness.detect_print):
        result = detect_print(*args)
        return dataclasses.replace(result, deviations=ResetAtFirstRead(result.deviations))

    monkeypatch.setattr(harness, "detect_print", detect_then_watch)
    tracemalloc.start()
    try:
        _run_normal_row(row_baselines, [100], tmp_path, spans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 1
    assert window_parts == dict.fromkeys(MOTORS, 3)
    assert (peak - starts[0]) / row_baselines[0][Motor.X].sample_count <= 3.0


def test_row_span_sd_reads_refuse_a_baseline_replaced_after_loading(
    row_baselines, tmp_path, monkeypatch
):
    # A span's sd cells are read through its motor's loaded baseline, which
    # checks that the file is still the one loaded: a .ptrb replaced by
    # another valid baseline once the span's deviation has been read fails
    # the span's sd read, and no excess is made from the new file.
    import shutil

    from powertrace import harness, tracesim
    from powertrace.traceio import CaptureFormatError, load_baseline

    copies = tmp_path / "baselines"
    copies.mkdir()
    baselines = {}
    for motor, built in row_baselines[0].items():
        shutil.copyfile(built.reader.path, copies / f"{motor.name}.ptrb")
        baselines[motor] = load_baseline(copies / f"{motor.name}.ptrb")
    path = copies / "X.ptrb"
    replaced = []

    class ReplaceAfterRead:
        def __init__(self, deviations):
            self.deviations = deviations

        def __getitem__(self, key):
            part = self.deviations[key]
            shutil.copyfile(copies / "Y.ptrb", copies / "new.ptrb")
            (copies / "new.ptrb").replace(path)
            replaced.append(key)
            return part

    def detect_then_replace(*args, detect_print=harness.detect_print):
        result = detect_print(*args)
        return dataclasses.replace(result, deviations=ReplaceAfterRead(result.deviations))

    plan = plan_motion(benchmark_object(), SMALL.profile)
    buffers = harness._print_buffers(tracesim.trace_length(plan))
    spans = {Motor.X: [(1_000, 2_000)]}
    args = ("normal", plan, SMALL, baselines, row_baselines[1], [100], tmp_path, spans, buffers)
    monkeypatch.setattr(harness, "detect_print", detect_then_replace)
    with pytest.raises(CaptureFormatError, match=f"^{re.escape(str(path))}: changed since it was loaded$"):
        harness._run_row(*args)
    assert replaced == [(Motor.X, slice(1_000, 2_000))]


def test_append_window_starts_at_the_injection_point():
    # Layer 7 has 20 commands, so position 20 appends after its last one.
    # That command is unchanged: X and Y first move differently where it
    # ends, 6,250 samples (0.25 s) after it starts, at sample 1,493,582, so
    # their spans start the smoothing window's reach (10 samples) earlier
    # and, as the appended move delays the rest, run to the baseline's end.
    attacks = default_attacks()
    attacks["insert"] = (dataclasses.replace(attacks["insert"][0], position=20),)
    truth = ground_truth(attacks)
    length = aligned_length(row_plans(attacks)["normal"])
    for motor in (Motor.X, Motor.Y):
        assert truth["insert"][motor] == (1_493_572, length)


def test_void_row_holding_a_delete_is_a_desync_row(tmp_path):
    # The annotation reads the renders, not the row's name: a delete shifts
    # every motor, so each motor has a span and none is annotated as
    # undisturbed.  The delete print is 12,814 samples shorter than the
    # baseline, so the X and Y spans run to its last sample, widened by the
    # smoothing window's reach (9 samples past it).
    attacks = default_attacks()
    attacks["void"] = attacks["delete"]
    truth = ground_truth(attacks)
    assert truth["void"] == truth["delete"]
    assert all(truth["void"][motor] for motor in MOTORS)
    length = aligned_length(row_plans(attacks)["normal"])
    for motor in (Motor.X, Motor.Y):
        assert truth["void"][motor][1] == length - 12_814 + 9
    config = dataclasses.replace(SMALL, golden_count=2, attacks=attacks)
    matrix = run_experiment(config, tmp_path)
    assert all(matrix.cell("void", motor).annotation is None for motor in MOTORS)


def test_default_void_row_disturbs_only_the_extruder():
    # Voiding a perimeter side leaves X, Y and Z motion as it was: their
    # noise-free renders are identical.  E's renders differ from the voided
    # command to where the next extrusion has made up the skipped filament.
    truth = ground_truth(default_attacks())
    assert truth["void"] == {Motor.X: None, Motor.Y: None, Motor.Z: None, Motor.E: (1_322_171, 1_365_940)}


def whole_render_truth(plans):
    """The ground truth from whole renders: each motor's noise-free traces
    of the unmodified plan and of each row's plan, rendered from sample 0
    and compared from the trigger on, with the spans widened at ``SMALL``'s
    window and clipped to the unmodified plan's aligned length as
    ``_ground_truth`` widens and clips them."""
    from powertrace.traceio import align_to_trigger
    from powertrace.tracesim import synthesize_trace

    quiet = NoiseModel(idle_noise_sd=0.0, phase_jitter_sd=0.0, amplitude_noise_sd=0.0)
    window, length = SMALL.detection.smoothing_window, aligned_length(plans["normal"])
    truth = {row: {} for row in ATTACK_ROWS}
    for motor in MOTORS:
        reference = align_to_trigger(synthesize_trace(plans["normal"], motor, noise=quiet)).samples
        for row in ATTACK_ROWS:
            attacked = align_to_trigger(synthesize_trace(plans[row], motor, noise=quiet)).samples
            n = min(len(reference), len(attacked))
            differs = np.flatnonzero(reference[:n] != attacked[:n])
            if len(differs):
                lo, hi = differs[0] - window // 2, differs[-1] + 1 + (window - 1) // 2
                truth[row][motor] = (max(int(lo), 0), min(int(hi), length))
            elif len(reference) == len(attacked):
                truth[row][motor] = None
    return truth


def test_ground_truth_of_the_default_attacks_matches_whole_renders():
    attacks = default_attacks()
    assert ground_truth(attacks) == whole_render_truth(row_plans(attacks))


def _layer_sizes():
    program = benchmark_object()
    return [b - a for a, b in zip(program.layers, [*program.layers[1:], len(program.commands)])]


@st.composite
def _attack_specs(draw):
    from powertrace.attacks import AttackKind, AttackSpec
    from powertrace.gcode import parse_line

    sizes = _layer_sizes()
    kind = draw(st.sampled_from(AttackKind))
    layer = draw(st.integers(0, len(sizes) - 1))
    position = draw(st.integers(0, sizes[layer] - (2 if kind is AttackKind.REORDER else 1)))
    if kind is AttackKind.INSERT:
        move = draw(st.sampled_from(["G0 X9 Y9", "G0 X2 Y16", "M106 S64"]))
        return AttackSpec(kind, layer, position, payload=parse_line(move))
    if kind is AttackKind.REORDER:
        pair = draw(st.integers(position + 1, sizes[layer] - 1))
        return AttackSpec(kind, layer, position, pair_offset=pair)
    return AttackSpec(kind, layer, position)


@settings(max_examples=8, deadline=None)
@given(specs=st.lists(_attack_specs(), min_size=len(ATTACK_ROWS), max_size=len(ATTACK_ROWS)))
def test_ground_truth_of_drawn_attacks_matches_whole_renders(specs):
    # Rows may hold any kind: the ground truth reads the renders, not the
    # row's name.  A void drawn on a move that does not extrude is no
    # attack, and a swap that drives an axis past its feed limit no print.
    from hypothesis import assume
    from powertrace.planner import PlanError

    attacks = {row: (spec,) for row, spec in zip(ATTACK_ROWS, specs)}
    try:
        plans = row_plans(attacks)
    except (AttackError, PlanError):
        assume(False)
    assert ground_truth(attacks) == whole_render_truth(plans)


def test_ground_truth_renders_whole_when_the_trigger_moves():
    # A travel inserted before the first layer's first command lands in the
    # preamble and moves the trigger, so every motor's first change is 0
    # (tests/test_tracesim.py) and each render is whole.
    from powertrace import tracesim
    from powertrace.attacks import AttackKind, AttackSpec
    from powertrace.gcode import parse_line

    attacks = default_attacks()
    attacks["insert"] = (AttackSpec(AttackKind.INSERT, 0, 0, payload=parse_line("G0 X5 Y5")),)
    plans = row_plans(attacks)
    assert tracesim.trigger_index(plans["insert"]) != tracesim.trigger_index(plans["normal"])
    truth = ground_truth(attacks)
    assert truth == whole_render_truth(plans)
    assert all(truth["insert"][motor] for motor in MOTORS)


def test_fan_command_insert_matches_whole_renders():
    # A fan command changes no motor segment, so every motor's first change
    # is the trace's length (tests/test_tracesim.py), the row's renders
    # cover no sample, and every motor reads identical, as the whole renders
    # do.
    from powertrace.attacks import AttackKind, AttackSpec
    from powertrace.gcode import parse_line

    attacks = default_attacks()
    attacks["insert"] = (AttackSpec(AttackKind.INSERT, 7, 3, payload=parse_line("M106 S128")),)
    plans = row_plans(attacks)
    truth = ground_truth(attacks)
    assert truth == whole_render_truth(plans)
    assert truth["insert"] == dict.fromkeys(MOTORS)


def test_ground_truth_renders_each_motor_once_per_program(monkeypatch):
    # Trace mode counts these synthesis spans exactly, so the tail renders
    # keep one call per motor for the unmodified plan and one per row.
    from powertrace import tracesim

    calls = []
    synthesize = tracesim.synthesize_trace

    def counting(*args, **kwargs):
        calls.append(kwargs.get("start", 0))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(tracesim, "synthesize_trace", counting)
    ground_truth(default_attacks())
    assert len(calls) == 4 * (1 + len(ATTACK_ROWS))
    assert all(start > 0 for start in calls)


def test_fan_command_insert_disturbs_no_motor(tmp_path):
    # A fan command takes no time and moves no motor, so all four renders
    # are identical: every cell of the row is annotated and has no ratio.
    from powertrace.attacks import AttackKind, AttackSpec
    from powertrace.gcode import parse_line

    attacks = default_attacks()
    attacks["insert"] = (AttackSpec(AttackKind.INSERT, 7, 3, payload=parse_line("M106 S128")),)
    config = dataclasses.replace(SMALL, golden_count=2, attacks=attacks)
    matrix = run_experiment(config, tmp_path)
    for motor in MOTORS:
        cell = matrix.cell("insert", motor)
        assert cell.annotation == "no ground-truth disturbance", motor
        assert cell.excess_ratio is None, motor


def test_zero_benign_excess_reads_visible_at_inf(tmp_path):
    # Without noise every benign print equals the golden reference, so its
    # excess is 0 in every span.  An attacked motor with excess there but
    # no verdict reads visible at an infinite ratio; a span with no excess
    # on either side has no ratio at all.
    import csv
    import math

    from powertrace import harness

    quiet = NoiseModel(idle_noise_sd=0.0, phase_jitter_sd=0.0, amplitude_noise_sd=0.0)
    config = dataclasses.replace(SMALL, golden_count=2, noise=quiet)
    matrix = run_experiment(config, tmp_path)
    cell = matrix.cell("insert", Motor.Z)
    assert (cell.outcome, cell.detected_runs) == (CellOutcome.VISIBLE, 0)
    assert cell.excess_ratio == math.inf
    with (tmp_path / "matrix.csv").open(newline="") as handle:
        rows = {(r["attack"], r["motor"]): r for r in csv.DictReader(handle)}
    assert [rows["insert", "Z"][k] for k in ("outcome", "excess_ratio")] == ["visible", "inf"]
    assert harness._ratio(0.0, 0.0) is None
    assert harness._ratio(0.25, 0.0) == math.inf


def test_grid_times_print_as_their_sample_times():
    # The row writes its grid at rate / stride, so grid row k is timed
    # k / (rate / stride), where sample k * stride is timed k * stride / rate.
    # The two floats can differ by an ulp, but at 25 kS/s both lie within
    # 1e-3 µs of the same whole microsecond, so '%.6f' prints them alike.
    # Any capture's grid is a prefix of the whole print's.
    n = int(round(plan_motion(benchmark_object(), DEFAULT_PROFILE).total_duration * SAMPLE_RATE))
    differing = []
    for stride in range(1, 10_001):
        by_rate = np.arange(-(-n // stride)) / (SAMPLE_RATE / stride)
        by_index = np.arange(0, n, stride) / SAMPLE_RATE
        micros = np.rint(by_index * 1e6)
        assert np.array_equal(np.rint(by_rate * 1e6), micros), stride
        for times in (by_rate, by_index):
            assert np.abs(times * 1e6 - micros).max() < 1e-3, stride
        if stride % 97 == 0:
            where = np.flatnonzero(by_rate != by_index)[:20]
            differing += zip(by_rate[where].tolist(), by_index[where].tolist())
    assert differing
    assert all(f"{a:.6f}" == f"{b:.6f}" for a, b in differing)


class TestPhenomenology:
    """Trace-level behaviours the detector's verdict pattern rests on."""

    def test_extruder_baseline_sd_visibly_larger_than_xy(self, small_run):
        from powertrace.traceio import load_baseline

        _, out = small_run
        paths = {m: out / "baselines" / f"{m.name}.ptrb" for m in MOTORS}
        loaded = {m: load_baseline(path) for m, path in paths.items()}
        sds = {m: sd_column(baseline) for m, baseline in loaded.items()}
        for quiet_motor in (Motor.X, Motor.Y):
            assert loaded[Motor.E].peak_sd > 1.3 * loaded[quiet_motor].peak_sd
            assert sds[Motor.E].mean() > 1.3 * sds[quiet_motor].mean()

    def test_reorder_aftereffect_elevates_post_swap_excess(self, small_run):
        # Swapping move targets changes path lengths, so the timeline stays
        # shifted after the commands return to normal; the excess series
        # remains elevated well past the swapped region.
        from powertrace.detect import detect_print
        from powertrace.planner import command_start_times
        from powertrace.traceio import align_to_trigger, load_baseline
        from powertrace.tracesim import simulate_print

        _, out = small_run
        baselines = {m: load_baseline(out / "baselines" / f"{m.name}.ptrb") for m in MOTORS}
        sd = sd_column(baselines[Motor.X])
        program = benchmark_object()
        specs = default_attacks(program)["reorder"]
        mutated = program
        for spec in specs:
            mutated = apply_attack(mutated, spec)

        last_spec = specs[-1]
        end_offset = max(last_spec.position, last_spec.pair_offset) + 1
        plan = plan_motion(program, DEFAULT_PROFILE)
        region_end = (
            command_start_times(program)[program.command_index(last_spec.layer, end_offset)]
            - plan.trigger_time
        )
        start = int(region_end * 25_000)

        config = DetectionConfig()
        benign = detect_print(
            {m: align_to_trigger(t) for m, t in simulate_print(program, seed=4200).items()},
            baselines,
            config,
        )
        attacked = detect_print(
            {m: align_to_trigger(t) for m, t in simulate_print(mutated, seed=4300).items()},
            baselines,
            config,
        )
        attacked_excess = excess(attacked.deviations[Motor.X], sd)
        benign_excess = excess(benign.deviations[Motor.X], sd)
        attacked_mean = float(attacked_excess[start:].mean())
        benign_mean = float(benign_excess[start : len(attacked_excess)].mean())
        assert attacked_mean > benign_mean


@pytest.fixture(scope="module")
def jitter_setup():
    """X and Y baselines as the default golden phase builds them (golden
    seeds 1000-1009, window 20), and the raw X/Y traces of the benign prints
    at seeds 2000 and 2001."""
    from powertrace import tracesim
    from powertrace.detect import build_baseline
    from powertrace.traceio import align_to_trigger

    config = ExperimentConfig()
    plan = plan_motion(benchmark_object(), config.profile)
    window = config.detection.smoothing_window

    def trace(motor, seed):
        noise = dataclasses.replace(config.noise, seed=seed)
        return tracesim.synthesize_trace(plan, motor, config.profile, noise)

    xy = (Motor.X, Motor.Y)
    baselines = {}
    for motor in xy:
        golden = (align_to_trigger(trace(motor, seed)) for seed in range(1000, 1010))
        baselines[motor] = build_baseline(golden, window)
    prints = [{motor: trace(motor, seed) for motor in xy} for seed in (2000, 2001)]
    return baselines, prints, config.detection


@settings(max_examples=6, deadline=None)
@example(offset=-25)
@example(offset=0)
@example(offset=25)
@given(offset=st.integers(-25, 25))
def test_benign_prints_stay_benign_under_trigger_jitter(jitter_setup, offset):
    # A capture's trigger can land a few samples early or late.  Within 25
    # samples (half the benign envelope measured at +50; X and Y flag at
    # +250) a benign print must still read benign on X and Y, with headroom:
    # measured worst peak_excess -0.057 A over every offset in -25..25, and
    # -0.026 A at +-60.  Only X and Y are captured, as detect_print refuses a
    # capture without a baseline.
    from powertrace.detect import detect_print
    from powertrace.traceio import align_to_trigger

    baselines, prints, detection = jitter_setup
    for traces in prints:
        captures = {
            motor: align_to_trigger(
                dataclasses.replace(trace, trigger_index=trace.trigger_index + offset)
            )
            for motor, trace in traces.items()
        }
        result = detect_print(captures, baselines, detection)
        for report in result.reports.values():
            assert report.peak_excess < 0.0, (offset, report)
