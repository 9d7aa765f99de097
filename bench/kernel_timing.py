"""Per-call timings of the scalar kernels on whichever backend is active.

Each kernel family runs over a seeded argument list; the reported figure is
the median over repeats of (sweep time / calls), in nanoseconds.  This
takes the place of a compiled-vs-Python comparison that only ran when the
compiled extension was built.
"""
from __future__ import annotations

import random
import statistics
import time

KERNELS = (
    "ellipse_residual",
    "ellipse_gradient",
    "ellipse_point",
    "ellipse_ray_coeffs",
    "quadratic_roots",
    "ellipse_nearest_param",
)


def _arguments(kernels, rng: random.Random, n: int) -> dict[str, list[tuple]]:
    on_curve = []
    for _ in range(n):
        a = rng.uniform(1.0, 10.0)
        b = rng.uniform(0.3 * a, a)
        x, y = kernels.ellipse_point(a, b, rng.uniform(0.0, kernels.TWO_PI))
        on_curve.append((a, b, x, y))
    near = [(a, b, x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5))
            for a, b, x, y in on_curve]
    quads = []
    for _ in range(n):
        qa, qb, qc = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        if rng.random() < 0.25 and qa != 0.0:  # near-tangent: a double root
            qc = qb * qb / (4.0 * qa) + rng.uniform(-1e-9, 1e-9)
        quads.append((qa, qb, qc, 1e-7))
    return {
        "ellipse_residual": near,
        "ellipse_gradient": near,
        "ellipse_point": [(a, b, rng.uniform(0.0, kernels.TWO_PI)) for a, b, _, _ in on_curve],
        "ellipse_ray_coeffs": [
            (a, b, rng.uniform(-12, 12), rng.uniform(-12, 12),
             rng.uniform(-1, 1), rng.uniform(-1, 1))
            for a, b, _, _ in on_curve
        ],
        "quadratic_roots": quads,
        "ellipse_nearest_param": [
            (a, b, x + rng.uniform(-0.3, 0.3), y + rng.uniform(-0.3, 0.3), 257, 64)
            for a, b, x, y in on_curve
        ],
    }


def kernel_ns_per_call(kernels, seed: int, calls: int = 1000, repeats: int = 5) -> dict[str, float]:
    args = _arguments(kernels, random.Random(f"kernels-{seed}"), calls)
    out = {}
    for name in KERNELS:
        fn, arg_list = getattr(kernels, name), args[name]
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for a in arg_list:
                fn(*a)
            samples.append((time.perf_counter_ns() - t0) / calls)
        out[name] = statistics.median(samples)
    return out
