"""50-digit reference solutions that float results are graded against.

Everything here is stdlib ``decimal`` arithmetic on the exact values of
float inputs, and none of it reuses the library's solvers: the tests that
call these helpers express float errors in units of eps * (1 + scale).
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

from conicsteps import Conic, Direction, Ellipse, Hyperbola, Parabola, Point

PREC = 50
SCAN = 512  # parameter samples scanned for sign changes per foot-of-normal solve


def return_length(conic: Conic, dc: Point, uc: Direction, delta: float) -> float:
    """Root in [delta/2, 2*delta] of the implicit form along dc + t*uc, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        ox, oy, dx, dy = (Decimal(v) for v in (dc.x, dc.y, uc.x, uc.y))
        s = conic.shape
        if isinstance(s, Parabola):
            p = Decimal(s.p)
            A = dx * dx
            B = 2 * ox * dx - 4 * p * dy
            C = ox * ox - 4 * p * oy
        else:
            aa = Decimal(s.a) ** 2
            bb = Decimal(s.b) ** 2 * (1 if isinstance(s, Ellipse) else -1)
            A = dx * dx / aa + dy * dy / bb
            B = 2 * (ox * dx / aa + oy * dy / bb)
            C = ox * ox / aa + oy * oy / bb - 1
        sq = (B * B - 4 * A * C).sqrt()
        roots = [(-B - sq) / (2 * A), (-B + sq) / (2 * A)]
        lo, hi = Decimal(delta) / 2, Decimal(delta) * 2
        (root,) = [t for t in roots if lo <= t <= hi]
        return float(root)


def foot_of_normal(shape: Ellipse | Parabola | Hyperbola, x: float, y: float) -> Decimal:
    """Distance from the canonical-frame point (x, y) to ``shape``, at 50 digits.

    Each curve is written in rational parameters in which the feet of the
    normals through (x, y) are the real roots of one polynomial: the
    foot-of-normal quartic of the ellipse and the hyperbola, and the cubic
    ``t^3 + 4p(2p - y) t - 8 p^2 x`` of the parabola.  A dense scan of each
    parameter finds every sign change, bisection refines each root, and the
    nearest of the resulting stationary points is returned.  The ellipse
    takes two overlapping charts, ``u = tan(theta/2)`` and ``1/u``, both on
    [-2, 2], so no foot hides at an infinite parameter or a chart's edge.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        X, Y = Decimal(x), Decimal(y)
        feet = []
        for coeffs, samples, foot in _charts(shape, X, Y):
            feet += [foot(u) for u in _real_roots(coeffs, samples)]
        return min(((fx - X) ** 2 + (fy - Y) ** 2).sqrt() for fx, fy in feet)


def _charts(shape, X: Decimal, Y: Decimal):
    """(polynomial coefficients, highest power first; parameter samples;
    parameter -> foot) for each chart of ``shape``."""
    if isinstance(shape, Parabola):
        p = Decimal(shape.p)
        coeffs = (Decimal(1), Decimal(0), 4 * p * (2 * p - Y), -8 * p * p * X)
        bound = 2 * max(abs(coeffs[2]).sqrt(), (abs(coeffs[3]) / 2) ** (Decimal(1) / 3)) + 1
        samples = [bound * (2 * k - SCAN) / SCAN for k in range(SCAN + 1)]
        return [(coeffs, samples, lambda t: (t, t * t / (4 * p)))]
    unit = [Decimal(2 * k - SCAN) / SCAN for k in range(SCAN + 1)]
    a, b = Decimal(shape.a), Decimal(shape.b)
    if isinstance(shape, Ellipse):
        d = a * a - b * b
        coeffs = (b * Y, 2 * (a * X + d), Decimal(0), 2 * (a * X - d), -b * Y)
        wide = [2 * u for u in unit]
        return [
            (coeffs, wide, lambda u: (a * (1 - u * u) / (1 + u * u), 2 * b * u / (1 + u * u))),
            (coeffs[::-1], wide, lambda v: (a * (v * v - 1) / (v * v + 1), 2 * b * v / (v * v + 1))),
        ]
    sigma, cc = shape.branch, a * a + b * b
    coeffs = (-sigma * b * Y, -2 * (a * X + sigma * cc), Decimal(0),
              2 * (a * X - sigma * cc), sigma * b * Y)
    # u = tanh(tau/2); every foot has |x| <= 2a + |X| + |Y|
    reach = math.acosh(float((2 * a + abs(X) + abs(Y)) / a)) + 1.0
    samples = [Decimal(math.tanh(reach * float(u) / 2)) for u in unit]
    return [(coeffs, samples,
             lambda u: (sigma * a * (1 + u * u) / (1 - u * u), 2 * b * u / (1 - u * u)))]


def _real_roots(coeffs: tuple[Decimal, ...], samples: list[Decimal]) -> list[Decimal]:
    """Roots of the polynomial ``coeffs`` (highest power first) at every
    sign change between consecutive ``samples``, bisected to full precision."""

    def value(u: Decimal) -> Decimal:
        acc = Decimal(0)
        for c in coeffs:
            acc = acc * u + c
        return acc

    roots = []
    values = [value(u) for u in samples]
    for k, (u, v) in enumerate(zip(samples, values)):
        if v == 0:
            roots.append(u)
        elif k + 1 < len(samples) and values[k + 1] != 0 and (v > 0) != (values[k + 1] > 0):
            lo, hi, vlo = u, samples[k + 1], v
            for _ in range(4 * PREC):
                mid = (lo + hi) / 2
                vm = value(mid)
                if vm == 0 or mid in (lo, hi):
                    break
                if (vm > 0) == (vlo > 0):
                    lo, vlo = mid, vm
                else:
                    hi = mid
            roots.append(mid)
    return roots
