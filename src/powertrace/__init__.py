"""Power side-channel sabotage detection for desktop FDM printing.

Pipeline: parse G-code, plan per-motor activations, synthesize phase-current
traces, compare captures against a golden baseline, and classify prints as
benign or malicious.  The attacks module provides the four minimal G-code
mutations the detector is evaluated against, and the harness reproduces the
full detectability experiment.
"""

from .gcode import Command, CommandKind, GCodeError, GCodeProgram, parse_gcode, serialize
from .attacks import AttackError, AttackKind, AttackSpec, apply_attack
from .planner import (
    DEFAULT_PROFILE,
    MOTORS,
    Motor,
    MotionPlan,
    MotionSegment,
    PlanError,
    PrinterProfile,
    plan_motion,
)
from .tracesim import (
    DEFAULT_NOISE,
    SAMPLE_RATE,
    MotorTrace,
    NoiseModel,
    NyquistError,
    simulate_print,
    synthesize_trace,
)
from .traceio import align_to_trigger, common_window, import_csv, load_trace, save_trace
from .detect import (
    DetectionConfig,
    DetectionReport,
    GoldenBaseline,
    Verdict,
    build_baseline,
    classify,
    detect_print,
    deviation,
    excess,
    smooth,
)
from .harness import DetectabilityMatrix, ExperimentConfig, benchmark_object, run_experiment

__version__ = "0.1.0"
