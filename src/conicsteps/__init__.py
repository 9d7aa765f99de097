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

Each module's ``__all__`` is the one list of its public names.  The
package republishes the eager modules' lists by star import and names the
exports of the two deferred modules, ``construction`` and ``convergence``,
in ``_LAZY``.  Those are loaded on first access (PEP 562), because tracing
a scene, the CLI's cold-start path, calls neither module and would
otherwise pay to compile and run both.
"""
from importlib import import_module

from ._backend import BACKEND
from .config import DEFAULT, METRICS, Tolerances
from .conics import *
from .errors import *
from .geometry import *
from .optics import *
from .sceneio import *
from .svgout import *

__version__ = "0.1.0"

# Public name -> the module that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        ("Orientation", "StepTriangle", "FocalChange", "ExactReturn", "two_step",
         "apex_reflector", "reflect_through_apex", "focal_change_error", "exact_return"),
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


# Each star import above also binds its submodule here, as ``conics`` etc.
__all__ = ["__version__", "BACKEND", "DEFAULT", "METRICS", "Tolerances",
           *conics.__all__, *errors.__all__, *geometry.__all__, *optics.__all__,
           *sceneio.__all__, *svgout.__all__, *_LAZY]
