"""Pure-Python scalar kernels.

These are the hot inner loops of the library: canonical-frame residuals,
implicit-form gradients, parametric points (a whole curve's samples as x
and y columns in one call), stable quadratic roots for ray-conic
intersection, and the direct foot-of-normal solves, all reached through
``conicsteps._backend.kernels``, and only from the shape methods in
``conics``: a shape's ``_ray_roots`` pairs its ray coefficients with
``quadratic_roots``.

All functions work in the conic's canonical frame and know nothing about
placements, branches, tolerable residuals, or error types — callers own
validation.  The hyperbola kernels are those of the branch that opens
toward +x; ``conics.Hyperbola`` reflects the other branch onto it.  Each
shape calls them in its own length unit (see ``conics``).
"""
from __future__ import annotations

import math
from collections.abc import Sequence

TWO_PI = 6.283185307179586476925287


# ---------------------------------------------------------------- residuals

def ellipse_residual(a: float, b: float, x: float, y: float) -> float:
    """Sum of focal distances minus the major-axis length 2a."""
    c = math.sqrt(a * a - b * b)
    return math.hypot(x + c, y) + math.hypot(x - c, y) - 2.0 * a


def parabola_residual(p: float, x: float, y: float) -> float:
    """Focal distance minus directrix distance (positive on the convex side)."""
    return math.hypot(x, y - p) - abs(y + p)


def hyperbola_residual(a: float, b: float, x: float, y: float) -> float:
    """Far-focus distance minus near-focus distance minus 2a.

    The near focus is ``(c, 0)``, inside the +x branch, so points of the
    -x branch are off the curve.
    """
    c = math.sqrt(a * a + b * b)
    return math.hypot(x + c, y) - math.hypot(x - c, y) - 2.0 * a


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


# Whole-curve samples: the columns ``(xs, ys)`` over ``ts``.  The parabola's
# ``p`` is in the unit ``u``, and ``ts`` and the samples in the caller's lengths:
# ``t / u * t / (4 p)`` is ``t * t / (4 p u)`` bit for bit, with the square in the unit.

def ellipse_points(a: float, b: float, ts: Sequence[float]) -> tuple[list[float], list[float]]:
    cos, sin = math.cos, math.sin
    return [a * cos(t) for t in ts], [b * sin(t) for t in ts]


def parabola_points(p: float, u: float, ts: Sequence[float]) -> tuple[list[float], list[float]]:
    p4 = 4.0 * p
    return list(ts), [t / u * t / p4 for t in ts]


def hyperbola_points(a: float, b: float, ts: Sequence[float]) -> tuple[list[float], list[float]]:
    cosh, sinh = math.cosh, math.sinh
    return [a * cosh(t) for t in ts], [b * sinh(t) for t in ts]


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
        if disc < -thr2 or thr2 == math.inf:  # the noise floor overflowed
            return 0, 0.0, 0.0
        return 1, -B / (2.0 * A), 0.0
    sq = math.sqrt(disc)
    q = -(B + sq) / 2.0 if B > 0.0 else -(B - sq) / 2.0  # B == 0 gives sq / 2 exactly
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
# Each search solves for the foot of the normal from q directly.  On the
# ellipse and the hyperbola that foot is (a^2 qx / (a^2 + s), b^2 qy /
# (b^2 +- s)) for a root s of the Lagrange secular function; the nearest
# foot lies on q's side of both axes, which gives a closed-form bracket
# holding exactly that root.  Each secular function is written in a shifted
# variable, the denominator that can get small, so that denominator never
# comes from a cancelling difference; _bracketed_root finds the root.
# The parabola's foot is the root of a depressed cubic, in closed form.
# All three return ``(t, ok)``, with ``ok`` zero only when _bracketed_root
# hits its step cap.  Mirror-image ties, for q on an axis of symmetry, go
# to the upper ellipse foot and to t < 0 on the parabola and hyperbola.

_MAX_STEPS = 64


def _bracketed_root(f, lo: float, hi: float) -> tuple[float, int]:
    """Root of ``f`` in ``[lo, hi]`` by Newton steps from ``lo``.

    ``f(s)`` returns the value and the derivative; the value is positive
    left of the root and negative right of it, and ``lo > 0``.  Every
    iterate tightens the bracket, and a step that would leave it bisects it
    instead.  Stops when the step or the bracket is within two ulps.
    """
    s = lo
    for _ in range(_MAX_STEPS):
        v, dv = f(s)
        if v > 0.0:
            lo = s
        elif v < 0.0:
            hi = s
        else:  # the root, or a NaN value whose squares overflowed far from the curve: no root
            return (s if v == 0.0 else math.nan), 1
        nxt = s - v / dv if dv != 0.0 else hi
        if abs(nxt - s) <= 4e-16 * s:
            return nxt, 1
        if hi - lo <= 4e-16 * s:
            return s, 1
        s = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return s, 0


def ellipse_nearest_param(a: float, b: float, qx: float, qy: float, *_unused) -> tuple[float, int]:
    # ``_unused``: bench/kernel_timing.py still passes the retired grid
    # size and step cap.
    d = (a - b) * (a + b)
    A, B = a * abs(qx), b * abs(qy)
    if B == 0.0 and A <= d:  # on the major axis, inside the evolute: a tie
        cx = a * qx / d
        return math.atan2(math.sqrt((1.0 - cx) * (1.0 + cx)), cx), 1

    def f(u: float) -> tuple[float, float]:  # u = b^2 + lambda
        p, r = A / (d + u), B / u
        return p * p + r * r - 1.0, -2.0 * (p * p / (d + u) + r * r / u)

    u, ok = _bracketed_root(f, max(B, A - d), math.hypot(A, B))
    return math.atan2(b * qy / u, a * qx / (d + u)) % TWO_PI, ok


def parabola_nearest_param(p: float, qx: float, qy: float) -> tuple[float, int]:
    # The foot (t, t^2/(4p)) solves t^3 + P t - 8 p^2 qx = 0.  Its root of
    # qx's sign is the nearest foot and the largest root for |qx|.
    P = 4.0 * p * (2.0 * p - qy)
    h = 4.0 * p * p * abs(qx)
    if h == 0.0:
        return (-math.sqrt(-P) if P < 0.0 else 0.0), 1
    P3 = P / 3.0
    D = h * h + P3 * P3 * P3
    if D >= 0.0:  # one real root, from Cardano's form without cancellation
        u = (h + math.sqrt(D)) ** (1.0 / 3.0)
        t = 2.0 * h / (u * u + P3 + (P3 / u) ** 2)
    else:  # three real roots: the largest, in trigonometric form
        m = math.sqrt(-P3)
        t = 2.0 * m * math.cos(math.acos(min(h / (m * m * m), 1.0)) / 3.0)
    t -= (t * t * t + P * t - 2.0 * h) / (3.0 * t * t + P)
    return math.copysign(t, qx), 1


def hyperbola_nearest_param(a: float, b: float, qx: float, qy: float) -> tuple[float, int]:
    xa, yb = qx / a, qy / b  # xa > 0 on the +x side
    cc = a * a + b * b
    A, B = a * a * abs(xa), b * b * abs(yb)
    if xa > 0.0 and xa * xa - yb * yb > 1.0:  # inside the branch
        if B == 0.0:  # on the axis
            r = a * a * xa / cc
            return (-math.acosh(r) if r > 1.0 else 0.0), 1

        def f_in(v: float) -> tuple[float, float]:  # v = b^2 - lambda
            p, r = A / (cc - v), B / v
            return r * r + 1.0 - p * p, -2.0 * (r * r / v + p * p / (cc - v))

        v, ok = _bracketed_root(f_in, B / math.sqrt((xa - 1.0) * (xa + 1.0)), b * b)
        return math.asinh(b * qy / v), ok
    if A == 0.0:  # on the axis between the branches
        return math.asinh(b * qy / cc), 1
    # s = a^2 + lambda on the own side, -(a^2 + lambda) on the far side
    k = cc if xa > 0.0 else -cc

    def f(s: float) -> tuple[float, float]:
        p, r = A / s, B / (k - s)
        return p * p - r * r - 1.0, -2.0 * (p * p / s + r * r / (k - s))

    s, ok = _bracketed_root(f, A / math.hypot(1.0, yb), min(A, a * a) if k > 0.0 else A)
    return math.asinh(b * qy / abs(k - s)), ok
