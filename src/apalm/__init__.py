"""Adaptive (parallel) arc-length continuation.

Serial arc-length initialization of a solution curve of G(u, lambda) = 0,
followed by adaptive refinement of curve sub-intervals, optionally in
parallel via a manager-worker job queue, with multi-branch support through
bifurcation detection in the serial phase.
"""

from .alm import (AlmConfig, StepResult, branch_switch, detect_singular,
                  distance, increment_between, locate_bifurcation,
                  point_distance, predictor, select_root, step, tangent)
from .curvemap import CurveEntry, CurveMap
from .engine import (EngineConfig, ErrorTriple, IntervalResult, Job,
                     QueueEngine, aalm, compute_errors, serial_solve,
                     solve_interval)
from .problems import ProblemDef, SolutionPoint, make_builtin
from .runtime import apalm, run_manager, run_worker

__all__ = [
    "AlmConfig", "StepResult", "branch_switch", "detect_singular",
    "distance", "increment_between", "locate_bifurcation", "point_distance",
    "predictor", "select_root", "step", "tangent",
    "CurveEntry", "CurveMap",
    "EngineConfig", "ErrorTriple", "IntervalResult", "Job", "QueueEngine",
    "aalm", "compute_errors", "serial_solve", "solve_interval",
    "ProblemDef", "SolutionPoint", "make_builtin",
    "apalm", "run_manager", "run_worker",
]

__version__ = "0.1.0"
