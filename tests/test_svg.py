"""SVG figure generation: structure, determinism, and coordinate handling."""
from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from importlib import resources

import pytest

from conicsteps import (
    FIGURE_IDS,
    REQUIRED_ELEMENTS,
    Conic,
    Ellipse,
    Hyperbola,
    Parabola,
    Placement,
    Scene,
    figure_svg,
    load_scene,
    trace_svg,
)
from conicsteps.svgout import _curve, _fixed_curve, default_cassegrain_scene
from conftest import fresh, pose_scene

SVG_NS = "{http://www.w3.org/2000/svg}"


def element_ids(svg_text: str) -> dict[str, ET.Element]:
    root = ET.fromstring(svg_text)
    out = {}
    for el in root.iter():
        el_id = el.get("id")
        if el_id:
            out[el_id] = el
    return out


class TestFigures:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_parses_as_svg(self, figure_id):
        root = ET.fromstring(figure_svg(figure_id))
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("viewBox")
        assert root.get("version") == "1.1"

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_required_elements_present(self, figure_id):
        ids = element_ids(figure_svg(figure_id))
        missing = REQUIRED_ELEMENTS[figure_id] - set(ids)
        assert not missing, f"{figure_id} is missing {sorted(missing)}"

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_no_scripting(self, figure_id):
        assert "<script" not in figure_svg(figure_id)

    def test_byte_determinism(self):
        for figure_id in FIGURE_IDS:
            assert figure_svg(figure_id) == figure_svg(figure_id)

    def test_unknown_id_lists_choices(self):
        with pytest.raises(ValueError) as err:
            figure_svg("moebius")
        for figure_id in FIGURE_IDS:
            assert figure_id in str(err.value)

    def test_y_axis_points_up(self):
        # the parabola focus (0, 1) must be emitted with a negative cy
        ids = element_ids(figure_svg("parabola"))
        focus = ids["focus-1"]
        assert float(focus.get("cy")) == pytest.approx(-1.0, abs=1e-9)

    def test_curve_sampling_density(self):
        ids = element_ids(figure_svg("ellipse-two-step"))
        curve = ids["curve"]
        points = curve.get("points").split()
        assert len(points) >= 513

    def test_custom_delta_and_anchor(self):
        small = figure_svg("ellipse-two-step", delta=0.05, anchor_param=0.7)
        assert small != figure_svg("ellipse-two-step")
        assert "triangle" in element_ids(small)

    @pytest.mark.parametrize("figure_id", ["isosceles", "cassegrain"])
    @pytest.mark.parametrize("options", [
        {"delta": 0.3}, {"anchor_param": 9.0}, {"delta": 0.3, "anchor_param": 9.0},
    ])
    def test_fixed_figures_reject_walk_options(self, figure_id, options):
        # these two figures draw fixed scenes; the options used to be
        # ignored, returning the default bytes
        with pytest.raises(ValueError, match=figure_id):
            figure_svg(figure_id, **options)

    def test_hyperbola_draws_both_branches(self):
        ids = element_ids(figure_svg("hyperbola"))
        assert "curve-2" in ids


class TestTraceSvg:
    def test_cassegrain_scene_rays(self):
        scene = default_cassegrain_scene(4)
        ids = element_ids(trace_svg(scene))
        for i in range(4):
            assert f"ray-{i}" in ids
        assert "curve" in ids and "curve-2" in ids
        assert "focus-1" in ids and "focus-2" in ids

    def test_determinism(self):
        scene = default_cassegrain_scene(6)
        assert trace_svg(scene) == trace_svg(scene)

    def test_parses(self):
        scene = default_cassegrain_scene(2)
        root = ET.fromstring(trace_svg(scene))
        assert root.tag == f"{SVG_NS}svg"


class TestFrozenSvg:
    def test_svg_digest(self):
        # Frozen: any change to curve sampling, the viewBox fit or number
        # formatting moves the digest.
        docs = [figure_svg(fid) for fid in FIGURE_IDS]
        # isosceles and cassegrain are fixed figures: they take no options
        docs += [figure_svg(fid) if fid in ("isosceles", "cassegrain")
                 else figure_svg(fid, delta=0.05, anchor_param=0.7) for fid in FIGURE_IDS]
        for name in ("cassegrain.json", "ellipse.json"):
            path = resources.files("conicsteps").joinpath("scenes", name)
            docs.append(trace_svg(load_scene(str(path))))
        docs.append(trace_svg(pose_scene(default_cassegrain_scene(4),
                                         Placement(1.5, -2.25, 0.7))))
        assert len(docs) == 15
        digest = hashlib.sha256("".join(docs).encode("utf-8")).hexdigest()
        assert digest == "6bfe335a206d7fa7f035e7f383dc9f2c86184f5ea9398a3eb6f3ba07f8b90c18"


#: (delta, anchor_param) pairs other than any walk figure's defaults.
OTHER_PAIRS = ((0.3, 0.9), (0.6, 1.1), (0.05, 0.7))
#: The walk figures, which take a (delta, anchor_param) pair.
WALK_FIGURES = tuple(fid for fid in FIGURE_IDS if fid not in ("isosceles", "cassegrain"))


def draw_every_figure_at_other_pairs() -> None:
    for delta, anchor_param in OTHER_PAIRS:
        for figure_id in FIGURE_IDS:
            if figure_id in WALK_FIGURES:
                figure_svg(figure_id, delta=delta, anchor_param=anchor_param)
            else:
                figure_svg(figure_id)


class TestFixedCurveCache:
    """The figures' fixed curves are rendered once per process and reused."""

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_reused_curves_give_the_first_render_bytes(self, figure_id):
        # the fresh interpreter renders this figure's curves for the first
        # time; in process they come from the cache, filled by other figures
        # and other triangles
        first = fresh(f"from conicsteps import figure_svg\nresult = figure_svg({figure_id!r})")
        draw_every_figure_at_other_pairs()
        assert figure_svg(figure_id) == first

    def test_one_entry_per_fixed_curve(self):
        # the ellipse and projection figures share the Ellipse(5, 3) curve,
        # so one pass over the six figures looks up 7 curves, 6 distinct
        draw_every_figure_at_other_pairs()
        before = _fixed_curve.cache_info()
        for figure_id in FIGURE_IDS:
            figure_svg(figure_id)
        after = _fixed_curve.cache_info()
        assert after.currsize == 6
        assert (after.hits - before.hits, after.misses - before.misses) == (7, 0)

    def test_a_failed_render_stores_nothing(self):
        before = _fixed_curve.cache_info().currsize
        for _ in range(2):  # the checks run again on the second call
            with pytest.raises(ValueError, match=OVERFLOW_MESSAGE):
                _fixed_curve(OVERFLOWING, 0.0, 1.0)
        assert _fixed_curve.cache_info().currsize == before

    def test_trace_svg_does_not_use_the_cache(self):
        before = _fixed_curve.cache_info()
        trace_svg(default_cassegrain_scene(4))
        trace_svg(pose_scene(default_cassegrain_scene(4), Placement(1.5, -2.25, 0.7)))
        assert _fixed_curve.cache_info() == before


# Finite canonical axes whose translated samples overflow to infinity.
OVERFLOWING = Conic(Ellipse(1e308, 1e308), Placement(1.5e308, 0.0, 0.0))
OVERFLOW_MESSAGE = re.escape("point coordinates must be finite, got (inf, 0.0)")


class TestSampleFiniteness:
    def test_sample_rejects_overflow(self):
        with pytest.raises(ValueError, match=OVERFLOW_MESSAGE):
            _curve(OVERFLOWING, 0.0, 1.0)

    def test_trace_svg_rejects_overflow(self):
        with pytest.raises(ValueError, match=OVERFLOW_MESSAGE):
            trace_svg(Scene(mirrors=(OVERFLOWING,)))

    def test_point_at_rejects_overflow(self):
        with pytest.raises(ValueError, match=OVERFLOW_MESSAGE):
            OVERFLOWING.point_at(0.0)

    def test_canonical_overflow_reported_first(self):
        # The canonical sample (1e200, inf) is named, not the rotated scene pair.
        conic = Conic(Parabola(1.0), Placement(0.0, 0.0, 0.3))
        message = re.escape("point coordinates must be finite, got (1e+200, inf)")
        with pytest.raises(ValueError, match=message):
            conic.point_at(1e200)
        with pytest.raises(ValueError, match=message):
            _curve(conic, 1e200, 1e200)


class TestSampleErrorOrder:
    # A curve is sampled in one batch; an error names the first bad sample
    # in parameter order, as sampling one point at a time did.
    def test_first_non_finite_sample_is_named(self):
        # The canonical y = b sinh(t) overflows to inf at a sample before
        # cosh(t) raises, so that finite-x, infinite-y pair is the error.
        conic = Conic(Hyperbola(3, 4, -1), Placement(1, 2, 0.3))
        message = re.escape("point coordinates must be finite, got (-1.7936568447594977e+308, inf)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _curve(conic, 0.0, 800.0)

    def test_first_sample_past_the_float_range_is_named(self):
        conic = Conic(Hyperbola(3, 4, -1), Placement(1, 2, 0.3))
        message = re.escape("parameter t=711.0 is past the float range")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _curve(conic, 711.0, 800.0)


class TestSize:
    @pytest.mark.parametrize("width, height, bad", [
        (True, 480, "width"),
        (640, -3, "height"),
        (0, 480, "width"),
        (640, 2.5, "height"),
    ])
    def test_figure_rejects_bad_size(self, width, height, bad):
        with pytest.raises(ValueError, match=f"^{bad} must be an integer >= 1"):
            figure_svg("isosceles", width=width, height=height)

    @pytest.mark.parametrize("width, height, bad", [
        (False, 480, "width"),
        (640, 0, "height"),
    ])
    def test_trace_svg_rejects_bad_size(self, width, height, bad):
        with pytest.raises(ValueError, match=f"^{bad} must be an integer >= 1"):
            trace_svg(default_cassegrain_scene(2), width=width, height=height)

    def test_size_is_written(self):
        root = ET.fromstring(figure_svg("isosceles", width=1, height=2))
        assert (root.get("width"), root.get("height")) == ("1", "2")
