"""The four seeded workloads: inputs, one op, its check and its output bytes.

Every input is derived from the seed passed to ``build``; the library only
ever sees the generated values.  Each workload holds a fixed cycle of
inputs, and one op runs one of them.  ``check`` validates an op's result
against the library's own acceptance tolerances and is always called
outside the timed interval.  ``output_bytes`` is what the run digests.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys

import conicsteps
import conicsteps.cli
from conicsteps import (
    FIGURE_IDS,
    REQUIRED_ELEMENTS,
    Conic,
    Direction,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Point,
    Ray,
    Scene,
    SweepConfig,
    figure_svg,
    run_sweep,
    save_scene,
    serialize_scene,
    spot_report,
    trace_svg,
)
from conicsteps.svgout import default_cassegrain_scene

# Acceptance tolerances of the library (tests/test_acceptance.py).
MIN_ORDER = 1.8
TANGENT_ORDER = (0.8, 1.3)
SPOT_TOL = 1e-9

N_RAYS = 100
RAY_OFFSETS = (3.7, 5.0)
FIGURE_DEFAULTS = {  # figure id -> (delta, anchor_param) defaults of figure_svg
    "ellipse-two-step": (0.5, 1.0),
    "projection": (0.8, 1.0),
    "parabola": (0.4, 1.2),
    "hyperbola": (0.4, 0.5),
}
_ID = re.compile(r' id="([^"]+)"')


def _random_placement(rng: random.Random) -> Placement:
    return Placement(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0),
                     rng.uniform(-math.pi, math.pi))


def _pose(scene: Scene, motion: Placement, rays: tuple[Ray, ...]) -> Scene:
    """The scene moved as a whole by ``motion``; ``rays`` are canonical-frame."""
    c, s = math.cos(motion.rotate), math.sin(motion.rotate)
    mirrors = tuple(
        Conic(m.shape, Placement(
            c * m.placement.tx - s * m.placement.ty + motion.tx,
            s * m.placement.tx + c * m.placement.ty + motion.ty,
            m.placement.rotate + motion.rotate,
        ))
        for m in scene.mirrors
    )
    posed_rays = tuple(
        Ray(motion.to_scene(r.origin), motion.dir_to_scene(r.dir)) for r in rays
    )
    return Scene(mirrors=mirrors, roles=scene.roles, rays=posed_rays,
                 max_bounces=scene.max_bounces)


def telescope_scene(rng: random.Random, n_rays: int) -> Scene:
    """The stock confocal pair, posed by a seeded rigid motion, with seeded
    axis-parallel rays at offsets in +/-[3.7, 5.0] (half on each side)."""
    down = Direction(0.0, -1.0)
    rays = tuple(
        Ray(Point(sign * rng.uniform(*RAY_OFFSETS), 8.0), down)
        for sign in (1.0, -1.0) for _ in range(n_rays // 2)
    )
    motion = Placement(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(-math.pi, math.pi))
    return _pose(default_cassegrain_scene(), motion, rays)


class Sweep:
    """24 posed (conic, anchor) pairs, 8 per fixture family; one op is one
    all-metric ``run_sweep`` with delta0=0.1 and 10 halvings."""

    name = "sweep"

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"sweep-{seed}")
        params: list[tuple[Conic, float]] = []
        for k in range(8):  # strata between the ellipse's four vertices
            t = (k + rng.uniform(0.15, 0.85)) * math.pi / 4.0
            params.append((Conic(Ellipse(5.0, 3.0), _random_placement(rng)), t))
        for k in range(8):  # vertex at t = 0
            t = math.copysign(0.3 + (k // 2 + rng.random()) * 0.525, k % 2 - 0.5)
            params.append((Conic(Parabola(1.0), _random_placement(rng)), t))
        for k in range(8):
            t = math.copysign(0.2 + (k // 2 + rng.random()) * 0.25, k % 2 - 0.5)
            params.append((Conic(Hyperbola(3.0, 4.0, 1), _random_placement(rng)), t))
        self.inputs = [
            SweepConfig(conic=c, anchor=c.point_at(t), delta0=0.1, halvings=10)
            for c, t in params
        ]

    def op(self, i: int):
        return run_sweep(self.inputs[i])

    traced_op = op

    def check(self, i: int, report) -> bool:
        orders = {m: report.orders[m].order for m in report.metric_names}
        if report.failure is not None or None in orders.values():
            return False
        lo, hi = TANGENT_ORDER
        return (orders["residual_B"] >= MIN_ORDER
                and orders["exact_return_gap"] >= MIN_ORDER
                and lo <= orders["chord_tangent_angle"] <= hi)

    def output_bytes(self, i: int, report) -> bytes:
        return report.to_csv().encode("utf-8")


class Telescope:
    """Four seeded posed telescopes with 100 rays each; one op is one
    ``spot_report`` over one of them."""

    name = "telescope"

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"telescope-{seed}")
        self.inputs = [telescope_scene(rng, N_RAYS) for _ in range(4)]

    def op(self, i: int):
        scene = self.inputs[i]
        return spot_report(scene, scene.rays)

    traced_op = op

    def check(self, i: int, report) -> bool:
        return report.n_rays == report.n_focused == N_RAYS and report.max_distance <= SPOT_TOL

    def output_bytes(self, i: int, report) -> bytes:
        lines = [f"{report.n_rays} {report.n_focused} {report.n_blocked} {report.n_missed}"]
        lines += ["%.17g" % d for d in report.distances]
        lines.append("%.17g %.17g" % (report.max_distance, report.rms_distance))
        return ("\n".join(lines) + "\n").encode("utf-8")


class Figures:
    """Four seeded variants; one op renders all six figures with seeded
    ``delta``/``anchor_param`` near their defaults, plus ``trace_svg`` of a
    seeded posed telescope with 4 rays."""

    name = "figures"

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"figures-{seed}")
        self.inputs = []
        for _ in range(4):
            args = {
                fid: (delta * rng.uniform(0.8, 1.2), param + rng.uniform(-0.1, 0.1))
                for fid, (delta, param) in FIGURE_DEFAULTS.items()
            }
            self.inputs.append((args, telescope_scene(rng, 4)))
        self.first: dict[int, list[str]] = {}

    def op(self, i: int) -> list[str]:
        args, scene = self.inputs[i]
        svgs = [figure_svg(fid, *args.get(fid, (None, None))) for fid in FIGURE_IDS]
        svgs.append(trace_svg(scene))
        return svgs

    traced_op = op

    def check(self, i: int, svgs: list[str]) -> bool:
        scene = self.inputs[i][1]
        required = [REQUIRED_ELEMENTS[fid] for fid in FIGURE_IDS]
        required.append({"curve", "curve-2", "focus-1", "focus-2"}
                        | {f"ray-{k}" for k in range(len(scene.rays))})
        if not all(req <= set(_ID.findall(svg)) for req, svg in zip(required, svgs)):
            return False
        return self.first.setdefault(i, svgs) == svgs

    def output_bytes(self, i: int, svgs: list[str]) -> bytes:
        return "".join(svgs).encode("utf-8")


class Cli:
    """One seeded 100-ray scene file written at set-up; one op is a fresh
    ``python -m conicsteps trace <scene> --svg <file>`` process."""

    name = "cli"
    SPOT_LINE = f"spot rays {N_RAYS} focused {N_RAYS} blocked 0 missed 0"

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"cli-{seed}")
        self.scene_path = os.path.join(workdir, "scene.json")
        self.svg_path = os.path.join(workdir, "trace.svg")
        save_scene(telescope_scene(rng, N_RAYS), self.scene_path)
        self.argv = ["trace", self.scene_path, "--svg", self.svg_path]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(conicsteps.__file__)),
                        os.environ.get("PYTHONPATH")) if p)
        self.inputs = [self.argv]

    def op(self, i: int) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "conicsteps", *self.argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def traced_op(self, i: int) -> tuple[int, str]:
        """The same command run in-process through ``conicsteps.cli.main``."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = conicsteps.cli.main(list(self.argv))
        return code, out.getvalue()

    def check(self, i: int, result: tuple[int, str]) -> bool:
        code, stdout = result
        lines = stdout.splitlines()
        spot_max = [float(line.split()[2]) for line in lines if line.startswith("spot max ")]
        written = os.path.exists(self.svg_path) and os.path.getsize(self.svg_path) > 0
        if written:
            os.remove(self.svg_path)  # the next op must write it again
        return (code == 0 and written and self.SPOT_LINE in lines
                and len(spot_max) == 1 and spot_max[0] <= SPOT_TOL)

    def output_bytes(self, i: int, result: tuple[int, str]) -> bytes:
        return result[1].encode("utf-8")


WORKLOADS = {cls.name: cls for cls in (Sweep, Telescope, Figures, Cli)}


def build(name: str, seed: int, workdir: str):
    return WORKLOADS[name](seed, workdir)


def probe_scene_text(seed: int) -> str:
    """Scene text parsed by the ``sceneio.parse_ms`` probe on every workload."""
    return serialize_scene(telescope_scene(random.Random(f"cli-{seed}"), N_RAYS))
