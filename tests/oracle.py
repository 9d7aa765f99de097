"""50-digit reference solutions that float results are graded against.

Everything here is stdlib ``decimal`` arithmetic on the exact values of
float inputs, and none of it reuses the library's solvers: the tests that
call these helpers express length errors in units of eps * (1 + scale) and
angle errors in eps radians.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

from conicsteps import Ellipse, Hyperbola, Parabola

PREC = 50
SCAN = 512  # parameter samples scanned for sign changes per foot-of-normal solve


def return_length(shape: Ellipse | Parabola | Hyperbola, ox, oy, dx, dy, delta: float) -> Decimal:
    """Root in [delta/2, 2*delta] of the implicit form along the canonical
    ray (ox, oy) + t*(dx, dy), at 50 digits; the inputs are floats or Decimals."""
    with localcontext() as ctx:
        ctx.prec = PREC
        ox, oy, dx, dy = (Decimal(v) for v in (ox, oy, dx, dy))
        if isinstance(shape, Parabola):
            p = Decimal(shape.p)
            A = dx * dx
            B = 2 * ox * dx - 4 * p * dy
            C = ox * ox - 4 * p * oy
        else:
            aa = Decimal(shape.a) ** 2
            bb = Decimal(shape.b) ** 2 * (1 if isinstance(shape, Ellipse) else -1)
            A = dx * dx / aa + dy * dy / bb
            B = 2 * (ox * dx / aa + oy * dy / bb)
            C = ox * ox / aa + oy * oy / bb - 1
        sq = (B * B - 4 * A * C).sqrt()
        roots = [(-B - sq) / (2 * A), (-B + sq) / (2 * A)]
        lo, hi = Decimal(delta) / 2, Decimal(delta) * 2
        (root,) = [t for t in roots if lo <= t <= hi]
        return root


def sweep_level(shape: Ellipse | Parabola | Hyperbola, ax: float, ay: float, delta: float,
                orientation: str) -> dict[str, object]:
    """The halving-sweep metrics of one walk from the canonical float anchor
    (ax, ay), at 50 digits.

    Distances are Decimals.  ``decimal`` has no ``atan2``, so each angle is
    given as its (sine, cosine) pair: ``chord_tangent_angle`` folded to
    [0, pi/2], ``parallelism_error`` in [0, pi].
    Grade a float angle against a pair with ``angle_error``.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        X, Y, d = Decimal(ax), Decimal(ay), Decimal(delta)
        if isinstance(shape, Parabola):
            p = Decimal(shape.p)
            f = (Decimal(0), p)
            u1 = (Decimal(0), Decimal(-1 if orientation == "forward" else 1))
            toward = orientation == "forward"
            g = (2 * X, -4 * p)
        else:
            a, b = Decimal(shape.a), Decimal(shape.b)
            if isinstance(shape, Ellipse):
                c = (a * a - b * b).sqrt()
                foci = ((-c, Decimal(0)), (c, Decimal(0)))
                g = (X / (a * a), Y / (b * b))
            else:
                c = (a * a + b * b).sqrt()
                foci = ((shape.branch * c, Decimal(0)), (-shape.branch * c, Decimal(0)))
                g = (X / (a * a), -Y / (b * b))
            f_from, f = foci if orientation == "forward" else foci[::-1]
            u1 = _unit(X - f_from[0], Y - f_from[1])
            toward = isinstance(shape, Ellipse)
        D = (X + d * u1[0], Y + d * u1[1])
        u2 = _unit(f[0] - D[0], f[1] - D[1]) if toward else _unit(D[0] - f[0], D[1] - f[1])
        B = (D[0] + d * u2[0], D[1] + d * u2[1])
        chord = (B[0] - X, B[1] - Y)
        norm = _norm(*chord) * _norm(*g)
        out = {
            "residual_B": abs(_residual(shape, *B)),
            # the tangent is perpendicular to g: sin is |chord . g|, cos |chord x g|
            "chord_tangent_angle": (abs(chord[0] * g[0] + chord[1] * g[1]) / norm,
                                    abs(chord[0] * g[1] - chord[1] * g[0]) / norm),
            "apex_curve_distance": foot_of_normal(shape, *D),
            "exact_return_gap": abs(return_length(shape, *D, *u2, delta) - d),
        }
        # the angle at the focus the second step aims at or leaves
        v, w = (f[0] - X, f[1] - Y), (f[0] - B[0], f[1] - B[1])
        norm = _norm(*v) * _norm(*w)
        out["parallelism_error"] = (abs(v[0] * w[1] - v[1] * w[0]) / norm,
                                    (v[0] * w[0] + v[1] * w[1]) / norm)
        return out


def angle_error(phi: float, sin_cos: tuple[Decimal, Decimal]) -> Decimal:
    """|sin(phi - psi)| for the angle psi given by its (sine, cosine): the
    error of the float angle ``phi``, to first order, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        s, c = sin_cos
        sin_phi, cos_phi = _sin_cos(Decimal(phi))
        return abs(sin_phi * c - cos_phi * s)


def _residual(shape, x: Decimal, y: Decimal) -> Decimal:
    """The focal residual of the canonical point (x, y), by ``conics``' conventions."""
    if isinstance(shape, Parabola):
        p = Decimal(shape.p)
        return _norm(x, y - p) - abs(y + p)
    a, b = Decimal(shape.a), Decimal(shape.b)
    if isinstance(shape, Ellipse):
        c = (a * a - b * b).sqrt()
        return _norm(x + c, y) + _norm(x - c, y) - 2 * a
    c = (a * a + b * b).sqrt()
    minus, plus = _norm(x + c, y), _norm(x - c, y)
    return (minus - plus if shape.branch > 0 else plus - minus) - 2 * a


def _norm(x: Decimal, y: Decimal) -> Decimal:
    return (x * x + y * y).sqrt()


def _unit(x: Decimal, y: Decimal) -> tuple[Decimal, Decimal]:
    n = _norm(x, y)
    return x / n, y / n


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor series of sin x and cos x, for the |x| <= pi of an angle."""
    out = []
    for total, k in ((x, 1), (Decimal(1), 0)):
        term = total
        while True:
            term *= -x * x / ((k + 1) * (k + 2))
            k += 2
            if total + term == total:
                break
            total += term
        out.append(total)
    return out[0], out[1]


def foot_of_normal(shape: Ellipse | Parabola | Hyperbola, x, y) -> Decimal:
    """Distance from the canonical-frame point (x, y), floats or Decimals, to
    ``shape``, at 50 digits.

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
