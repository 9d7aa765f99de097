"""Numeric policy in one place.

Every tolerance, iteration cap, and sampling density used by the library
lives here so that call sites never bury magic numbers.  ``DEFAULT`` is the
stock policy; callers that need a different on-curve tolerance (for example
the CLI's ``--tol`` flag) derive a new instance with ``replace``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


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
    #: relative width at which the exact-return bisection stops.
    bisect_rel: float = 1e-14
    #: hard cap on bisection steps.
    bisect_max_iter: int = 200
    #: coarse samples seeding the nearest-point search.
    nearest_grid: int = 257
    #: hard cap on damped Newton steps for the nearest-point search.
    nearest_max_iter: int = 64
    #: scene-frame distance allowed between coincident focal points of a
    #: two-mirror scene.
    confocal: float = 1e-9
    #: noise floor for order fitting, in units of machine epsilon times
    #: (1 + conic scale).
    noise_floor_epsilons: float = 100.0

    def with_on_curve(self, tol: float) -> "Tolerances":
        return replace(self, on_curve=tol)


DEFAULT = Tolerances()
