"""Numeric policy in one place.

Every tolerance used by the library lives here so that call sites never
bury magic numbers, and every tolerance is set through a ``Tolerances``.
``DEFAULT`` is the stock policy; callers that need another value (for
example the CLI's ``--tol`` flag) derive a new instance with
``dataclasses.replace``.  A ``Scene`` carries its own ``Tolerances``, which
``trace`` and the spot statistics read; the curve-level functions take one
as an argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    #: |residual| allowed for "this point lies on the curve", scaled by
    #: (1 + conic scale).
    on_curve: float = 1e-9
    #: componentwise budget for exact vector identities (unit norm,
    #: reflection involution, the apex reflection identity).
    identity: float = 1e-12
    #: |B - A| below this (times 1 + delta) flags a collapsed step triangle.
    degenerate_step: float = 1e-12
    #: intersection parameters below this are the ray's own origin.
    self_hit: float = 1e-9
    #: quadratic roots closer than this merge into one tangency hit.
    root_merge: float = 1e-7
    #: intersection parameters beyond this are cancellation noise from
    #: near-degenerate (almost linear) quadratics and are discarded.
    max_ray_t: float = 1e12
    #: scene-frame distance allowed between coincident focal points of a
    #: two-mirror scene.
    confocal: float = 1e-9
    #: noise floor for order fitting, in units of machine epsilon times
    #: (1 + conic scale).
    noise_floor_epsilons: float = 100.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{f.name} must be finite and positive, got {v}")


DEFAULT = Tolerances()
