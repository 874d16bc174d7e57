"""Tilt-rotor dynamics, robust gait planning, and tracking control.

A desk-scale toolkit for a quadrotor with tiltable thrust units: the
rigid-body model and its input maps, the decoupling matrix of the
(roll, pitch, yaw, altitude) feedback-linearization loop, the two-branch
robust completion of tilt-angle schedules, singular-attitude analysis,
and the closed-loop circular-tracking experiment.

The hot kernels are plain Python over floats and tuples, in one source
(``tiltrotor._core.kernels``); ``backend_name`` reports ``"python"``.

Importing the package compiles only what gait design runs.  The five
names of the tracking experiment (``SimConfig``, ``TrackLog``,
``circular_reference``, ``error_series``, ``run_tracking``) load
``tiltrotor.sim`` on first access, and the file formats
(``tiltrotor._files``) load when a file is first read or written.
"""

from tiltrotor._core import backend_name
from tiltrotor.errors import AbortedSingular, RepresentationSingular, TiltrotorError
from tiltrotor.model import (
    Params,
    State,
    hover_speeds,
    integrate_step,
    rotation_matrix,
    euler_rate_matrix,
    speeds_to_input,
    state_derivative,
    thrust_matrix,
    torque_matrix,
    wrap_angle,
)
from tiltrotor.linearization import (
    DecouplingMatrix,
    DetCoefficients,
    decoupling_matrix,
    det_decomposition,
    drift_vector,
    normalized_det,
)
from tiltrotor.control import (
    ControlOutput,
    Gains,
    InnerRefs,
    fl_inner_loop,
    load_config,
)
from tiltrotor.gaitlab import (
    AttitudeGrid,
    ColorSolution,
    Gait,
    RobustnessReport,
    SingularCurveSet,
    bias_gait,
    build_preset,
    color_map,
    extract_zero_curves,
    load_gait,
    make_rectangle_gait,
    robustness_report,
    singular_curves,
    solve_color_pair,
)

__version__ = "0.1.0"

__all__ = [
    "AbortedSingular", "AttitudeGrid", "ColorSolution", "ControlOutput",
    "DecouplingMatrix", "DetCoefficients", "Gait", "Gains", "InnerRefs", "Params",
    "RepresentationSingular", "RobustnessReport",
    "SimConfig", "SingularCurveSet", "State", "TiltrotorError", "TrackLog",
    "backend_name", "bias_gait", "build_preset", "circular_reference",
    "color_map", "decoupling_matrix", "det_decomposition", "drift_vector",
    "error_series", "euler_rate_matrix", "extract_zero_curves", "fl_inner_loop",
    "hover_speeds", "integrate_step", "load_config", "load_gait",
    "make_rectangle_gait", "normalized_det", "robustness_report", "rotation_matrix",
    "run_tracking", "singular_curves", "solve_color_pair", "speeds_to_input",
    "state_derivative", "thrust_matrix", "torque_matrix", "wrap_angle",
]

# the tracking experiment's names, resolved on first access (PEP 562)
_SIM_NAMES = ("SimConfig", "TrackLog", "circular_reference", "error_series", "run_tracking")


def __getattr__(name):
    if name in _SIM_NAMES:
        from tiltrotor import sim

        value = getattr(sim, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
