"""End-to-end acceptance criteria.

Each test exercises one advertised guarantee at its stated tolerance and
prints exactly one PASS/FAIL line with the measured quantities, so the
whole contract is auditable at a glance:

1. isosceles reflection identity (1e-12, 1000 random triangles)
2. exact focal properties (1e-9 rad, 1000 random points per family)
3. two-step residual convergence (order >= 1.8, frozen-value match)
4. tangent convergence (orders in [0.8, 1.3], below 1e-6 at smallest delta)
5. projection lemma (gap <= 1e-12) and parallelism halving (2 +/- 10%)
6. exact-return gap order >= 1.8 and on-curve endpoints (1e-12 * scale)
7. two-mirror composition focuses 100 rays within 1e-9; misalignment blurs
8. determinism and round-trips (involution, placement, scene, CSV, SVG)
9. figure SVGs contain their required structural elements
"""
from __future__ import annotations

import dataclasses
import math
import random
import time
import xml.etree.ElementTree as ET
from importlib import resources

from conicsteps import (
    FIGURE_IDS,
    REQUIRED_ELEMENTS,
    Conic,
    Direction,
    Ellipse,
    Line,
    Placement,
    Point,
    SweepConfig,
    Tolerances,
    direction,
    exact_return,
    figure_svg,
    focal_change_error,
    load_scene,
    noise_floor,
    parse_scene,
    reflect_direction,
    run_sweep,
    serialize_scene,
    spot_report,
    trace_svg,
    two_step,
)
from conicsteps.svgout import default_cassegrain_scene

import conftest
from conftest import random_conic, random_param


def report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{verdict}] {name}: {detail} ({elapsed:.3f}s)"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < 1.0, f"criterion {num} exceeded its 1 s budget: {elapsed:.3f}s"


def test_criterion_1_isosceles_reflection_identity():
    started = time.perf_counter()
    rng = random.Random(9001)
    worst = 0.0
    for _ in range(1000):
        apex = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        delta = rng.uniform(0.5, 10.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        aperture = rng.uniform(0.1, math.pi)
        v1 = Direction(math.cos(theta), math.sin(theta))
        v2 = Direction(math.cos(theta + aperture), math.sin(theta + aperture))
        a = Point(apex.x + delta * v1.x, apex.y + delta * v1.y)
        b = Point(apex.x + delta * v2.x, apex.y + delta * v2.y)
        mirror = Line(apex, direction(a, b))
        out = reflect_direction(direction(a, apex), mirror)
        want = direction(apex, b)
        worst = max(worst, abs(out.x - want.x), abs(out.y - want.y))
    report(
        1,
        "isosceles reflection identity",
        worst <= 1e-12,
        f"max componentwise error {worst:.3e} over 1000 triangles (tol 1e-12)",
        started,
    )


def test_criterion_2_exact_focal_properties():
    started = time.perf_counter()
    rng = random.Random(9002)
    worst = {"ellipse": 0.0, "parabola": 0.0, "hyperbola": 0.0}
    counts = {"ellipse": 0, "parabola": 0, "hyperbola": 0}
    from conicsteps import focal_property_error

    while min(counts.values()) < 1000:
        conic = random_conic(rng, placed=rng.random() < 0.5)
        if counts[conic.kind] >= 1000:
            continue
        q = conic.point_at(random_param(rng, conic))
        err = focal_property_error(conic, q)
        worst[conic.kind] = max(worst[conic.kind], err)
        counts[conic.kind] += 1
    overall = max(worst.values())
    report(
        2,
        "exact focal properties",
        overall <= 1e-9,
        "max angular error "
        + ", ".join(f"{kind} {err:.3e}" for kind, err in worst.items())
        + " rad over 1000 points each (tol 1e-9)",
        started,
    )


def test_criterion_3_two_step_residual_convergence(standard_sweeps):
    started = time.perf_counter()
    min_order = math.inf
    monotone = True
    for rep in standard_sweeps:
        floor = noise_floor(rep.config.conic)
        est = rep.orders["residual_B"]
        if est.order is not None:
            min_order = min(min_order, est.order)
        vals = rep.values["residual_B"]
        for prev, nxt in zip(vals, vals[1:]):
            if prev > floor and nxt > floor and not nxt < prev:
                monotone = False
    tri = two_step(Conic(Ellipse(5, 3)), Point(0, 3), 0.1)
    oracle = 2.3093224278625257e-05
    sig3 = abs(abs(tri.residual_b) - oracle) <= 5e-4 * oracle
    ok = min_order >= 1.8 and monotone and sig3
    report(
        3,
        "two-step residual convergence",
        ok,
        f"min fitted order {min_order:.3f} over 24 anchors (need >= 1.8), "
        f"monotone above floor: {monotone}, "
        f"ellipse(5,3) top-anchor |residual| {abs(tri.residual_b):.6e} matches "
        f"{oracle:.4e} to 3 significant figures: {sig3}",
        started,
    )


def test_criterion_4_tangent_convergence(anchor_set):
    started = time.perf_counter()
    orders = []
    finals = {"chord_tangent_angle": 0.0, "apex_curve_distance": 0.0}
    for conic, anchor in anchor_set:
        cfg = SweepConfig(
            conic=conic,
            anchor=anchor,
            delta0=0.1,
            halvings=17,
            metrics=("chord_tangent_angle", "apex_curve_distance"),
        )
        rep = run_sweep(cfg)
        for name in finals:
            est = rep.orders[name]
            assert est.order is not None
            orders.append(est.order)
            finals[name] = max(finals[name], rep.values[name][-1])
    in_window = all(0.8 <= order <= 1.3 for order in orders)
    small = all(v < 1e-6 for v in finals.values())
    report(
        4,
        "tangent convergence",
        in_window and small,
        f"fitted orders span [{min(orders):.3f}, {max(orders):.3f}] "
        f"(need [0.8, 1.3]); at delta=0.1/2^17: "
        f"chord angle <= {finals['chord_tangent_angle']:.3e} rad, "
        f"apex distance <= {finals['apex_curve_distance']:.3e} (both < 1e-6)",
        started,
    )


def test_criterion_5_projection_lemma(anchor_set, standard_sweeps):
    started = time.perf_counter()
    worst_gap = 0.0
    n_triangles = 0
    for conic, anchor in anchor_set:
        for level in range(5):
            tri = two_step(conic, anchor, 0.1 / 2**level)
            worst_gap = max(worst_gap, focal_change_error(conic, tri).proj_gap)
            n_triangles += 1
    ratios = []
    for rep in standard_sweeps:
        floor = noise_floor(rep.config.conic)
        vals = rep.values["parallelism_error"]
        for prev, nxt in zip(vals, vals[1:]):
            if prev > floor and nxt > floor:
                ratios.append(prev / nxt)
    in_window = all(1.8 <= r <= 2.2 for r in ratios)
    ok = worst_gap <= 1e-12 and in_window and ratios
    report(
        5,
        "projection lemma and parallelism halving",
        bool(ok),
        f"max projection gap {worst_gap:.3e} over {n_triangles} triangles "
        f"(tol 1e-12); {len(ratios)} halving ratios span "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (need 2 +/- 10%)",
        started,
    )


def test_criterion_6_exact_return(anchor_set, standard_sweeps):
    started = time.perf_counter()
    min_order = math.inf
    for rep in standard_sweeps:
        est = rep.orders["exact_return_gap"]
        if est.order is not None:
            min_order = min(min_order, est.order)
    worst_ratio = 0.0
    for conic, anchor in anchor_set:
        for level in range(3):
            res = exact_return(conic, anchor, 0.1 / 2**level)
            endpoint_res = abs(conic.residual(res.triangle.B))
            worst_ratio = max(worst_ratio, endpoint_res / conic.scale)
    report(
        6,
        "exact-return gap",
        min_order >= 1.8 and worst_ratio <= 1e-12,
        f"min fitted gap order {min_order:.3f} (need >= 1.8); worst endpoint "
        f"|residual|/scale {worst_ratio:.3e} over 72 returns (tol 1e-12)",
        started,
    )


def test_criterion_7_cassegrain_composition():
    started = time.perf_counter()
    path = resources.files("conicsteps").joinpath("scenes", "cassegrain.json")
    scene = load_scene(str(path))
    base = spot_report(scene, scene.rays)
    moved = dataclasses.replace(
        scene.mirrors[1],
        placement=dataclasses.replace(
            scene.mirrors[1].placement, ty=scene.mirrors[1].placement.ty + 1e-3
        ),
    )
    blurred_scene = dataclasses.replace(
        scene, mirrors=(scene.mirrors[0], moved), tolerances=Tolerances(confocal=1e-2)
    )
    blurred = spot_report(blurred_scene, blurred_scene.rays)
    factor = blurred.max_distance / base.max_distance
    ok = (
        base.n_rays == 100
        and base.n_focused == 100
        and base.max_distance <= 1e-9
        and blurred.max_distance > 1e-5
    )
    report(
        7,
        "two-mirror composition",
        ok,
        f"100/100 rays focused, spot max {base.max_distance:.3e} (tol 1e-9); "
        f"secondary displaced by 1e-3 -> spot max {blurred.max_distance:.3e}, "
        f"a measured degradation factor of {factor:.3e}",
        started,
    )


def test_criterion_8_determinism_and_round_trips():
    started = time.perf_counter()
    rng = random.Random(9008)
    worst_reflect = 0.0
    for _ in range(300):
        d = Direction(rng.uniform(-3, 3), rng.uniform(-3, 3))
        mirror = Line(
            Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            Direction(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        )
        twice = reflect_direction(reflect_direction(d, mirror), mirror)
        worst_reflect = max(worst_reflect, abs(twice.x - d.x), abs(twice.y - d.y))
    worst_place = 0.0
    for _ in range(300):
        pl = Placement(
            rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi)
        )
        q = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        back = pl.to_canonical(pl.to_scene(q))
        worst_place = max(worst_place, abs(back.x - q.x), abs(back.y - q.y))
    scene = default_cassegrain_scene(100)
    scene_ok = parse_scene(serialize_scene(scene)) == scene
    cfg = SweepConfig(
        conic=Conic(Ellipse(5, 3)),
        anchor=Conic(Ellipse(5, 3)).point_at(1.1),
        delta0=0.1,
        halvings=5,
    )
    csv_ok = run_sweep(cfg).to_csv() == run_sweep(cfg).to_csv()
    svg_ok = all(figure_svg(fid) == figure_svg(fid) for fid in FIGURE_IDS)
    trace_ok = trace_svg(default_cassegrain_scene(4)) == trace_svg(
        default_cassegrain_scene(4)
    )
    ok = (
        worst_reflect <= 1e-12
        and worst_place <= 1e-12 * 11.0
        and scene_ok
        and csv_ok
        and svg_ok
        and trace_ok
    )
    report(
        8,
        "determinism and round-trips",
        ok,
        f"reflect involution error {worst_reflect:.3e}, placement round-trip "
        f"error {worst_place:.3e}, scene round-trip {scene_ok}, repeated CSV "
        f"identical {csv_ok}, repeated SVG identical {svg_ok and trace_ok}",
        started,
    )


def test_criterion_9_figure_reproduction():
    started = time.perf_counter()
    missing: list[str] = []
    for figure_id in FIGURE_IDS:
        svg = figure_svg(figure_id)
        present = set()
        for el in ET.fromstring(svg).iter():
            el_id = el.get("id")
            if el_id:
                present.add(el_id)
        for want in REQUIRED_ELEMENTS[figure_id]:
            if want not in present:
                missing.append(f"{figure_id}:{want}")
    report(
        9,
        "figure reproduction",
        not missing,
        "all six figures contain their required elements"
        if not missing
        else f"missing {missing}",
        started,
    )
