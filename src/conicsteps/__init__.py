"""Conic reflection geometry via the two-equal-steps construction.

The package builds everything from one idea: from a point on a conic, two
straight steps of the same length (aimed toward or away from foci, or at
the directrix) land back near the curve and form an isosceles triangle
whose apex line is an exact mirror for the step directions.  As the step
shrinks, that mirror becomes the tangent, which is the reflective property
of the curve.  The library provides the construction, analytic conics with
residuals/tangents/projection, an exact ray tracer with a two-mirror
telescope scene, halving-sweep convergence measurements, scene-file IO,
and SVG/CSV emitters, all with a CLI front end (``conicsteps``).

The numeric kernels are plain Python (``conicsteps._kernels_py``); the
package needs no compiler and no build step.  ``BACKEND`` names that
implementation (``"python"``) for benchmark records.

The names of ``construction`` and ``convergence`` are loaded on first
access (PEP 562), because tracing a scene, the CLI's cold-start path,
calls neither module and would otherwise pay to compile and run both.
"""
from importlib import import_module

from ._backend import BACKEND
from .config import DEFAULT, METRICS, Tolerances
from .conics import (
    Conic,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Projection,
    as_conic,
)
from .errors import (
    BracketError,
    ConicError,
    DegenerateDirectionError,
    DegenerateTriangleError,
    IterationError,
    NoBranchError,
    OffCurveError,
    SceneFormatError,
    UnsupportedVariantError,
)
from .geometry import (
    Direction,
    Line,
    Point,
    angle_between,
    direction,
    reflect_direction,
    scalar_projection,
    translate,
)
from .optics import (
    Hit,
    Ray,
    Scene,
    SpotReport,
    TracePath,
    cassegrain_spot,
    focal_property_error,
    intersect_ray,
    ray_line_distance,
    reflect_at,
    spot_report,
    trace,
)
from .sceneio import load_scene, parse_scene, save_scene, serialize_scene
from .svgout import FIGURE_IDS, REQUIRED_ELEMENTS, figure_svg, trace_svg

__version__ = "0.1.0"

# Public name -> the module that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        ("StepTriangle", "FocalChange", "ExactReturn", "two_step", "apex_reflector",
         "reflect_through_apex", "focal_change_error", "exact_return"),
        "construction",
    ),
    **dict.fromkeys(
        ("SweepConfig", "OrderEstimate", "ConvergenceReport", "run_sweep",
         "estimate_order", "noise_floor", "standard_anchors"),
        "convergence",
    ),
}


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the name here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "__version__",
    "BACKEND",
    "DEFAULT",
    "Tolerances",
    # geometry
    "Point",
    "Direction",
    "Line",
    "direction",
    "translate",
    "reflect_direction",
    "angle_between",
    "scalar_projection",
    # conics
    "Ellipse",
    "Parabola",
    "Hyperbola",
    "Placement",
    "Conic",
    "Projection",
    "as_conic",
    # construction
    "StepTriangle",
    "FocalChange",
    "ExactReturn",
    "two_step",
    "apex_reflector",
    "reflect_through_apex",
    "focal_change_error",
    "exact_return",
    # optics
    "Ray",
    "Hit",
    "TracePath",
    "Scene",
    "SpotReport",
    "intersect_ray",
    "reflect_at",
    "focal_property_error",
    "trace",
    "spot_report",
    "cassegrain_spot",
    "ray_line_distance",
    # convergence
    "METRICS",
    "SweepConfig",
    "OrderEstimate",
    "ConvergenceReport",
    "run_sweep",
    "estimate_order",
    "noise_floor",
    "standard_anchors",
    # io / output
    "parse_scene",
    "load_scene",
    "serialize_scene",
    "save_scene",
    "FIGURE_IDS",
    "REQUIRED_ELEMENTS",
    "figure_svg",
    "trace_svg",
    # errors
    "ConicError",
    "DegenerateDirectionError",
    "OffCurveError",
    "NoBranchError",
    "DegenerateTriangleError",
    "UnsupportedVariantError",
    "BracketError",
    "IterationError",
    "SceneFormatError",
]
