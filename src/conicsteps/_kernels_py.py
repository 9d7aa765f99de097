"""Pure-Python scalar kernels.

These are the hot inner loops of the library: canonical-frame residuals,
implicit-form gradients, parametric points, stable quadratic roots for
ray-conic intersection, and the nearest-point parameter search, all reached
through ``conicsteps._backend.kernels``: the per-shape kernels only from the
shape methods in ``conics``, ``quadratic_roots`` from ``optics`` and
``construction``.

All functions work in the conic's canonical frame and know nothing about
placements, tolerable residuals, or error types — callers own validation.
"""
from __future__ import annotations

import math

TWO_PI = 6.283185307179586476925287


def _hyp(x: float, y: float) -> float:
    """Scaled two-norm built from correctly-rounded primitives only.

    ``math.hypot`` is more accurate and can differ from this sequence in
    the last ulp.  The frozen reference values and the recorded digests
    of CSV/SVG output were produced with this sequence, so it stays until a
    change deliberately re-baselines them.
    """
    ax = abs(x)
    ay = abs(y)
    if ax < ay:
        ax, ay = ay, ax
    if ax == 0.0:
        return 0.0
    r = ay / ax
    return ax * math.sqrt(1.0 + r * r)


# ---------------------------------------------------------------- residuals

def ellipse_residual(a: float, b: float, x: float, y: float) -> float:
    """Sum of focal distances minus the major-axis length 2a."""
    c = math.sqrt(a * a - b * b)
    return _hyp(x + c, y) + _hyp(x - c, y) - 2.0 * a


def parabola_residual(p: float, x: float, y: float) -> float:
    """Focal distance minus directrix distance (positive on the convex side)."""
    return _hyp(x, y - p) - abs(y + p)


def hyperbola_residual(a: float, b: float, sigma: int, x: float, y: float) -> float:
    """Far-focus distance minus near-focus distance minus 2a.

    The near focus is ``(sigma * c, 0)``, inside the branch ``sigma``
    selects, so points of the other branch are off the curve.
    """
    c = math.sqrt(a * a + b * b)
    d_minus = _hyp(x + c, y)
    d_plus = _hyp(x - c, y)
    if sigma > 0:
        return d_minus - d_plus - 2.0 * a
    return d_plus - d_minus - 2.0 * a


# ---------------------------------------------------------------- gradients

def ellipse_gradient(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Outward gradient of x^2/a^2 + y^2/b^2 - 1."""
    return 2.0 * x / (a * a), 2.0 * y / (b * b)


def parabola_gradient(p: float, x: float, y: float) -> tuple[float, float]:
    """Outward (focus-averted) gradient of x^2 - 4 p y."""
    return 2.0 * x, -4.0 * p


def hyperbola_gradient(a: float, b: float, x: float, y: float) -> tuple[float, float]:
    """Center-averted gradient of x^2/a^2 - y^2/b^2 - 1."""
    return 2.0 * x / (a * a), -2.0 * y / (b * b)


# ----------------------------------------------------------- parametrization

def ellipse_point(a: float, b: float, t: float) -> tuple[float, float]:
    return a * math.cos(t), b * math.sin(t)


def parabola_point(p: float, t: float) -> tuple[float, float]:
    return t, t * t / (4.0 * p)


def hyperbola_point(a: float, b: float, sigma: int, t: float) -> tuple[float, float]:
    return sigma * a * math.cosh(t), b * math.sinh(t)


# ----------------------------------------------------------- quadratic roots

def quadratic_roots(A: float, B: float, C: float, merge_sep: float) -> tuple[int, float, float]:
    """Real roots of ``A t^2 + B t + C = 0``, tangency-aware.

    Returns ``(n, r0, r1)`` with the roots ascending.  The larger-magnitude
    root is computed first and the other recovered from the product of
    roots, so catastrophic cancellation in the classic formula is avoided.
    Root pairs separated by less than ``merge_sep`` collapse to a single
    root at the vertex ``-B/(2A)``; the same window is applied to slightly
    negative discriminants, which is where exact tangencies land after
    rounding.  The window is floored at the round-off noise of the
    discriminant itself (a few ulps of ``B^2 + |4AC|``) so a true tangency
    whose terms are large relative to ``A`` still collapses instead of
    vanishing.
    """
    if A == 0.0:
        if B == 0.0:
            return 0, 0.0, 0.0
        return 1, -C / B, 0.0
    disc = B * B - 4.0 * A * C
    thr = merge_sep * abs(A)
    thr2 = thr * thr
    noise = 16.0 * 2.220446049250313e-16 * (B * B + abs(4.0 * A * C))
    if noise > thr2:
        thr2 = noise
    if disc <= thr2:
        if disc < -thr2:
            return 0, 0.0, 0.0
        return 1, -B / (2.0 * A), 0.0
    sq = math.sqrt(disc)
    if B > 0.0:
        q = -(B + sq) / 2.0
    elif B < 0.0:
        q = -(B - sq) / 2.0
    else:
        q = sq / 2.0
    r0 = q / A
    r1 = C / q
    if r0 <= r1:
        return 2, r0, r1
    return 2, r1, r0


def ellipse_ray_coeffs(
    a: float, b: float, ox: float, oy: float, dx: float, dy: float
) -> tuple[float, float, float]:
    aa = a * a
    bb = b * b
    A = dx * dx / aa + dy * dy / bb
    B = 2.0 * (ox * dx / aa + oy * dy / bb)
    C = ox * ox / aa + oy * oy / bb - 1.0
    return A, B, C


def parabola_ray_coeffs(
    p: float, ox: float, oy: float, dx: float, dy: float
) -> tuple[float, float, float]:
    A = dx * dx
    B = 2.0 * ox * dx - 4.0 * p * dy
    C = ox * ox - 4.0 * p * oy
    return A, B, C


def hyperbola_ray_coeffs(
    a: float, b: float, ox: float, oy: float, dx: float, dy: float
) -> tuple[float, float, float]:
    aa = a * a
    bb = b * b
    A = dx * dx / aa - dy * dy / bb
    B = 2.0 * (ox * dx / aa - oy * dy / bb)
    C = ox * ox / aa - oy * oy / bb - 1.0
    return A, B, C


# ----------------------------------------------------------- nearest point
#
# All three searches share the same scheme: seed the foot-of-normal
# parameter from the best of a coarse grid of squared distances, then run
# damped Newton on g(t) = (q - P(t)) . P'(t) until the step is negligible.
# They return ``(t, ok)`` with ``ok`` zero when the iteration cap was hit.

_STEP_TOL = 1e-13
_MAX_HALVINGS = 60


def ellipse_nearest_param(
    a: float, b: float, qx: float, qy: float, grid: int, max_iter: int
) -> tuple[float, int]:
    best_t = 0.0
    best_d = math.inf
    step = TWO_PI / grid
    for i in range(grid):
        t = i * step
        px = a * math.cos(t)
        py = b * math.sin(t)
        d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
        if d < best_d:
            best_d = d
            best_t = t
    t = best_t

    def g(t: float) -> float:
        ct = math.cos(t)
        st = math.sin(t)
        return -(qx - a * ct) * (a * st) + (qy - b * st) * (b * ct)

    for _ in range(max_iter):
        ct = math.cos(t)
        st = math.sin(t)
        gv = -(qx - a * ct) * (a * st) + (qy - b * st) * (b * ct)
        gp = (
            -a * a * st * st
            - b * b * ct * ct
            - a * ct * (qx - a * ct)
            - b * st * (qy - b * st)
        )
        if gp == 0.0:
            return t, 0
        dt = -gv / gp
        halvings = 0
        while halvings < _MAX_HALVINGS and abs(g(t + dt)) > abs(gv):
            dt *= 0.5
            halvings += 1
        t += dt
        if abs(dt) <= _STEP_TOL * (1.0 + abs(t)):
            t = math.fmod(t, TWO_PI)
            if t < 0.0:
                t += TWO_PI
            return t, 1
    return t, 0


def parabola_nearest_param(
    p: float, qx: float, qy: float, lo: float, hi: float, grid: int, max_iter: int
) -> tuple[float, int]:
    best_t = lo
    best_d = math.inf
    step = (hi - lo) / (grid - 1)
    for i in range(grid):
        t = lo + i * step
        px = t
        py = t * t / (4.0 * p)
        d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
        if d < best_d:
            best_d = d
            best_t = t
    t = best_t

    def g(t: float) -> float:
        return (qx - t) + (qy - t * t / (4.0 * p)) * (t / (2.0 * p))

    for _ in range(max_iter):
        gv = (qx - t) + (qy - t * t / (4.0 * p)) * (t / (2.0 * p))
        gp = -1.0 - (t / (2.0 * p)) * (t / (2.0 * p)) + (qy - t * t / (4.0 * p)) / (2.0 * p)
        if gp == 0.0:
            return t, 0
        dt = -gv / gp
        halvings = 0
        while halvings < _MAX_HALVINGS and abs(g(t + dt)) > abs(gv):
            dt *= 0.5
            halvings += 1
        t += dt
        if abs(dt) <= _STEP_TOL * (1.0 + abs(t)):
            return t, 1
    return t, 0


def hyperbola_nearest_param(
    a: float,
    b: float,
    sigma: int,
    qx: float,
    qy: float,
    lo: float,
    hi: float,
    grid: int,
    max_iter: int,
) -> tuple[float, int]:
    best_t = lo
    best_d = math.inf
    step = (hi - lo) / (grid - 1)
    for i in range(grid):
        t = lo + i * step
        px = sigma * a * math.cosh(t)
        py = b * math.sinh(t)
        d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
        if d < best_d:
            best_d = d
            best_t = t
    t = best_t

    def g(t: float) -> float:
        ch = math.cosh(t)
        sh = math.sinh(t)
        return (qx - sigma * a * ch) * (sigma * a * sh) + (qy - b * sh) * (b * ch)

    for _ in range(max_iter):
        ch = math.cosh(t)
        sh = math.sinh(t)
        gv = (qx - sigma * a * ch) * (sigma * a * sh) + (qy - b * sh) * (b * ch)
        gp = (
            -a * a * sh * sh
            - b * b * ch * ch
            + sigma * a * ch * (qx - sigma * a * ch)
            + b * sh * (qy - b * sh)
        )
        if gp == 0.0:
            return t, 0
        dt = -gv / gp
        halvings = 0
        while halvings < _MAX_HALVINGS and abs(g(t + dt)) > abs(gv):
            dt *= 0.5
            halvings += 1
        t += dt
        if abs(dt) <= _STEP_TOL * (1.0 + abs(t)):
            return t, 1
    return t, 0
