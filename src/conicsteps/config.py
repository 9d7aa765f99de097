"""Numeric policy: the two bounds callers set.

``Tolerances`` holds the tolerances a caller may choose: the on-curve bound
(the CLI's ``--tol``, a scene file's ``on_curve_tol``) and the confocal bound
of a telescope pair (a scene file's ``confocal_tol``).  ``DEFAULT`` is the
stock policy; callers that need another value derive a new instance with
``dataclasses.replace``.  A ``Scene`` carries its own ``Tolerances``, which
``trace`` and the spot statistics read; the curve-level functions take one
as an argument.  Solver guards that no caller sets (the self-hit window,
the root merge, the identity budget and the like) are private constants of
the one module that reads each; those that are lengths are multiples of the
conic's length unit, the shape's ``_unit`` (see ``conics``).

``METRICS`` names the quantities a halving sweep can record.  It lives here,
not in ``convergence``, so the CLI can list them without loading the sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


METRICS = (
    "residual_B",
    "chord_tangent_angle",
    "apex_curve_distance",
    "parallelism_error",
    "exact_return_gap",
)


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a caller may set; each must be finite and positive.

    Both are read in a conic's length unit, the power of two at or below
    its largest length.  ``on_curve`` is the |residual| allowed for "this
    point lies on the curve", in the conic's unit, plus the rounding floor
    of a residual at the point.  ``confocal`` is the distance allowed
    between coincident focal points of a two-mirror scene, in the larger
    unit of the two mirrors.
    """

    on_curve: float = 1e-9
    confocal: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{f.name} must be finite and positive, got {v}")


DEFAULT = Tolerances()
