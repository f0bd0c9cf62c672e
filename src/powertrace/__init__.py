"""Power side-channel sabotage detection for desktop FDM printing.

Pipeline: parse G-code, plan per-motor activations, synthesize phase-current
traces, compare captures against a golden baseline, and classify prints as
benign or malicious.  The attacks module provides the four minimal G-code
mutations the detector is evaluated against, and the harness reproduces the
full detectability experiment.
"""

from . import attacks, config, detect, gcode, harness, planner, traceio, tracesim

__version__ = "0.1.0"
