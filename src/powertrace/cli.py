"""Command-line pipeline: simulate | attack | baseline | detect | experiment.

Exit codes: 0 = success / benign, 1 = malicious print detected,
2 = usage or input error.  A command takes only the options it reads:
``--seed`` and ``--profile`` only ``simulate`` and ``experiment``, ``--out``
every command but ``detect``; any other option is a usage error.  Every run
first prints its resolved configuration, the options it takes, as
``config key=value`` lines; detection results are printed as
``report key=value`` lines so scripts can grep them.
"""

from __future__ import annotations

import argparse
import glob as globmod
import sys
from pathlib import Path

from . import config as configmod
from .attacks import AttackError, AttackKind, AttackSpec, apply_attack
from .detect import DetectionConfig, DetectionError, Verdict, build_baseline, detect_print
from .gcode import GCodeError, read_gcode, serialize
from .harness import (
    ExperimentConfig,
    ExperimentError,
    load_experiment_config,
    render_matrix,
    run_experiment,
)
from .planner import DEFAULT_PROFILE, MOTORS, PlanError, PrinterProfile
from .traceio import (
    CaptureFormatError,
    align_to_trigger,
    load_baseline,
    load_trace,
    save_baseline,
    save_trace,
)
from .tracesim import DEFAULT_NOISE, TraceSimError, simulate_print

EXIT_OK = 0
EXIT_MALICIOUS = 1
EXIT_ERROR = 2

_USER_ERRORS = (
    GCodeError,
    AttackError,
    PlanError,
    TraceSimError,
    DetectionError,
    CaptureFormatError,
    configmod.ConfigError,
    ExperimentError,
    OSError,  # also CaptureIOError
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powertrace",
        description="Motor-current side-channel sabotage detection for FDM prints.",
    )
    simulates = argparse.ArgumentParser(add_help=False)
    simulates.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    simulates.add_argument(
        "--profile", type=Path, default=None, help="printer profile key-value file"
    )
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument(
        "--out", type=Path, default=Path("."), help="directory output paths are relative to"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[simulates, writes], help="simulate a print, write 4 capture files"
    )
    p_sim.add_argument("gcode", type=Path)
    p_sim.add_argument("--noise", type=Path, default=None, help="noise model key-value file")
    p_sim.add_argument("--prefix", default=None, help="output file prefix (default: g-code stem)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_att = sub.add_parser("attack", parents=[writes], help="apply a sabotage mutation to a g-code file")
    p_att.add_argument("gcode", type=Path)
    p_att.add_argument("--kind", required=True, choices=[k.value for k in AttackKind])
    p_att.add_argument("--layer", type=int, required=True)
    p_att.add_argument("--position", type=int, required=True)
    p_att.add_argument("--pair-offset", type=int, default=None)
    p_att.add_argument("--payload", default=None, help="g-code line to insert (insert only)")
    p_att.add_argument("--output", type=Path, required=True, help="mutated file, relative to --out")
    p_att.set_defaults(handler=_cmd_attack)

    p_base = sub.add_parser("baseline", parents=[writes], help="build a golden baseline from captures")
    p_base.add_argument("captures", nargs="+", help="capture files or globs, one motor only")
    p_base.add_argument("--window", type=int, default=DetectionConfig().smoothing_window)
    p_base.add_argument("--output", type=Path, required=True, help="baseline file, relative to --out")
    p_base.set_defaults(handler=_cmd_baseline)

    p_det = sub.add_parser("detect", help="classify captures against baselines")
    p_det.add_argument("--capture", action="append", required=True, help="capture file (repeatable)")
    p_det.add_argument("--baseline", action="append", required=True, help="baseline file (repeatable)")
    p_det.add_argument("--margin", type=float, default=DetectionConfig().margin)
    p_det.add_argument("--run-requirement", type=int, default=DetectionConfig().run_requirement)
    p_det.set_defaults(handler=_cmd_detect)

    p_exp = sub.add_parser(
        "experiment", parents=[simulates, writes], help="run the full detectability experiment"
    )
    p_exp.add_argument("config", nargs="?", type=Path, default=None, help="experiment key-value file")
    p_exp.set_defaults(handler=_cmd_experiment)
    return parser


def _print_config(args: argparse.Namespace, **extra: object) -> None:
    """Print the command, the shared options it takes (an unset profile is
    left out), then ``extra``; a key in ``extra`` replaces an option's value
    in place."""
    pairs = {"command": args.command}
    for key in ("seed", "out", "profile"):
        if (value := getattr(args, key, None)) is not None:
            pairs[key] = value
    pairs.update(extra)
    for key, value in pairs.items():
        print(f"config {key}={value}")


def _load_profile_arg(args: argparse.Namespace) -> PrinterProfile:
    if args.profile is None:
        return DEFAULT_PROFILE
    return configmod.load_profile(args.profile)


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = _load_profile_arg(args)
    noise = configmod.load_noise(args.noise) if args.noise else DEFAULT_NOISE
    prefix = args.prefix or args.gcode.stem
    _print_config(args, gcode=args.gcode, prefix=prefix)
    program = read_gcode(args.gcode)
    traces = simulate_print(program, profile, noise, seed=args.seed)
    for motor in MOTORS:
        path = args.out / f"{prefix}_{motor.name}.ptrc"
        save_trace(traces[motor], path)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    _print_config(
        args,
        gcode=args.gcode,
        kind=args.kind,
        layer=args.layer,
        position=args.position,
        pair_offset=args.pair_offset,
        payload=args.payload,
        output=args.output,
    )
    program = read_gcode(args.gcode)
    payload = configmod.parse_payload(args.payload) if args.payload else None
    spec = AttackSpec(
        kind=AttackKind(args.kind),
        layer=args.layer,
        position=args.position,
        payload=payload,
        pair_offset=args.pair_offset,
    )
    mutated = apply_attack(program, spec)
    out_path = args.out / args.output
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(serialize(mutated))
    print(f"wrote {out_path} ({len(mutated)} commands, was {len(program)})")
    return EXIT_OK


def _cmd_baseline(args: argparse.Namespace) -> int:
    paths: list[Path] = []
    for pattern in args.captures:
        expanded = sorted(globmod.glob(pattern))
        if expanded:
            paths.extend(Path(p) for p in expanded)
        else:
            paths.append(Path(pattern))
    _print_config(args, captures=len(paths), window=args.window, output=args.output)
    baseline = build_baseline((align_to_trigger(load_trace(p)) for p in paths), args.window)
    out_path = args.out / args.output
    save_baseline(baseline, out_path)
    print(
        f"wrote {out_path} (motor={baseline.motor.name} source_count={baseline.source_count} "
        f"peak_sd={baseline.peak_sd:.6f})"
    )
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    detection = DetectionConfig(margin=args.margin, run_requirement=args.run_requirement)
    _print_config(args, margin=args.margin, run_requirement=args.run_requirement)
    baselines = _one_per_motor([load_baseline(Path(p)) for p in args.baseline], "--baseline")
    captures = _one_per_motor(
        [align_to_trigger(load_trace(Path(p))) for p in args.capture], "--capture"
    )
    result = detect_print(captures, baselines, detection)
    for motor in MOTORS:
        if motor in result.reports:
            print("report " + " ".join(result.reports[motor].key_value_lines()))
    print(f"report overall={result.overall.value}")
    return EXIT_MALICIOUS if result.overall is Verdict.MALICIOUS else EXIT_OK


def _one_per_motor(items: list, flag: str) -> dict:
    """Key loaded captures or baselines by motor; a second one for a motor is an error."""
    by_motor = {}
    for item in items:
        if item.motor in by_motor:
            raise DetectionError(f"two {flag} files for motor {item.motor.name}")
        by_motor[item.motor] = item
    return by_motor


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig(seed=args.seed, profile=_load_profile_arg(args))
    if args.config is not None:
        config = load_experiment_config(args.config, config)
    _print_config(
        args,
        seed=config.seed,
        golden_count=config.golden_count,
        malicious_count=config.malicious_count,
        visible_factor=config.visible_factor,
    )
    matrix = run_experiment(config, args.out)
    print(render_matrix(matrix), end="")
    print(f"artifacts written under {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
