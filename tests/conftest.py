"""Shared fixtures: random samplers, cached convergence sweeps and a fresh-interpreter runner."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conicsteps import (
    Conic,
    ConvergenceReport,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Ray,
    Scene,
    SweepConfig,
    run_sweep,
    standard_anchors,
)


def fresh(code: str) -> object:
    """Run ``code`` in a new interpreter with ``src`` on the path.

    ``code`` leaves its answer in ``result``; it is returned parsed from
    JSON.  The interpreter's own stdout is discarded.
    """
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(result))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def random_ellipse(rng: random.Random, placed: bool = False) -> Conic:
    a = rng.uniform(1.0, 10.0)
    b = rng.uniform(0.3 * a, a)
    return Conic(Ellipse(a, b), _placement(rng) if placed else Placement())


def random_parabola(rng: random.Random, placed: bool = False) -> Conic:
    p = rng.uniform(0.2, 5.0)
    return Conic(Parabola(p), _placement(rng) if placed else Placement())


def random_hyperbola(rng: random.Random, placed: bool = False) -> Conic:
    a = rng.uniform(0.5, 6.0)
    b = rng.uniform(0.5, 6.0)
    branch = rng.choice((1, -1))
    return Conic(Hyperbola(a, b, branch), _placement(rng) if placed else Placement())


def random_conic(rng: random.Random, placed: bool = False) -> Conic:
    pick = rng.randrange(3)
    if pick == 0:
        return random_ellipse(rng, placed)
    if pick == 1:
        return random_parabola(rng, placed)
    return random_hyperbola(rng, placed)


def random_param(rng: random.Random, conic: Conic) -> float:
    if conic.kind == "ellipse":
        return rng.uniform(0.0, 2.0 * math.pi)
    if conic.kind == "parabola":
        return rng.uniform(-2.5, 2.5)
    return rng.uniform(-1.5, 1.5)


# Posed conics, one per family plus a branch=-1 hyperbola, each with an
# anchor parameter away from its vertices.
POSED = (
    (Conic(Ellipse(5.0, 3.0), Placement(1.5, -2.0, 0.7)), 0.9),
    (Conic(Parabola(1.25), Placement(-3.0, 4.0, -1.1)), 1.3),
    (Conic(Hyperbola(3.0, 4.0, 1), Placement(2.0, 1.0, 2.3)), 0.6),
    (Conic(Hyperbola(2.0, 1.5, -1), Placement(-1.0, -2.5, -0.4)), -0.45),
)


def _placement(rng: random.Random) -> Placement:
    return Placement(
        rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), rng.uniform(-math.pi, math.pi)
    )


# One verdict line per acceptance criterion, filled by test_acceptance.py
# and echoed as a terminal section so the lines survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pose_scene(scene: Scene, motion: Placement) -> Scene:
    """``scene`` with its mirrors and rays all moved as a whole by ``motion``."""
    c, s = math.cos(motion.rotate), math.sin(motion.rotate)
    mirrors = tuple(
        Conic(m.shape, Placement(
            c * m.placement.tx - s * m.placement.ty + motion.tx,
            s * m.placement.tx + c * m.placement.ty + motion.ty,
            m.placement.rotate + motion.rotate,
        ))
        for m in scene.mirrors
    )
    rays = tuple(Ray(motion.to_scene(r.origin), motion.dir_to_scene(r.dir)) for r in scene.rays)
    return dataclasses.replace(scene, mirrors=mirrors, rays=rays)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def anchor_set():
    """The bundled (conic, anchor) fixture pairs: 8 per family."""
    return standard_anchors()


@pytest.fixture(scope="session")
def standard_sweeps(anchor_set) -> tuple[ConvergenceReport, ...]:
    """All-metric sweeps (delta0=0.1, 6 halvings) at every fixture anchor.

    Shared by the convergence-oriented acceptance criteria so the sweep
    work runs once per session.
    """
    reports = []
    for conic, anchor in anchor_set:
        cfg = SweepConfig(conic=conic, anchor=anchor, delta0=0.1, halvings=6)
        reports.append(run_sweep(cfg))
    return tuple(reports)
