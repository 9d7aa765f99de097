"""Scene-file parsing, validation diagnostics, and round-trips."""
from __future__ import annotations

import copy
import dataclasses
import json
import math
from importlib import resources

import pytest

from conicsteps import (
    Placement,
    Scene,
    SceneFormatError,
    Tolerances,
    load_scene,
    parse_scene,
    save_scene,
    serialize_scene,
)
from conicsteps.svgout import default_cassegrain_scene


def bundled(name: str) -> str:
    return str(resources.files("conicsteps").joinpath("scenes", name))


class TestParse:
    def test_empty_document(self):
        scene = parse_scene("{}")
        assert scene.mirrors == ()
        assert scene.rays == ()
        assert scene.max_bounces == 8

    def test_minimal_conics(self):
        scene = parse_scene(
            """
            {"conics": [
                {"kind": "ellipse", "a": 5, "b": 3},
                {"kind": "parabola", "p": 1},
                {"kind": "hyperbola", "a": 3, "b": 4}
            ]}
            """
        )
        kinds = [c.kind for c in scene.mirrors]
        assert kinds == ["ellipse", "parabola", "hyperbola"]
        assert all(c.placement == Placement() for c in scene.mirrors)
        assert scene.roles == ("mirror", "mirror", "mirror")
        assert scene.mirrors[2].shape.branch == 1

    def test_placement_role_and_branch(self):
        scene = parse_scene(
            """
            {"conics": [{
                "kind": "hyperbola", "a": 0.5, "b": 0.6, "branch": -1,
                "placement": {"translate": [0.0, 0.3], "rotate": -1.5707963267948966},
                "role": "mirror"
            }]}
            """
        )
        hyp = scene.mirrors[0]
        assert hyp.shape.branch == -1
        assert hyp.placement.ty == 0.3
        assert hyp.placement.rotate == -math.pi / 2

    def test_rays_and_options(self):
        scene = parse_scene(
            """
            {"rays": [{"origin": [0, 8], "dir": [0, -1]}],
             "options": {"max_bounces": 3, "on_curve_tol": 1e-8, "confocal_tol": 1e-6}}
            """
        )
        assert len(scene.rays) == 1
        assert scene.rays[0].origin.y == 8.0
        assert scene.max_bounces == 3
        assert scene.tolerances == Tolerances(on_curve=1e-8, confocal=1e-6)

    def test_ray_direction_whose_norm_overflows(self):
        # was the zero vector (0.0, -0.0), which tracing refused as degenerate
        scene = parse_scene('{"rays": [{"origin": [0.5, 3], "dir": [1e308, -1.7e308]}]}')
        d = scene.rays[0].dir
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-15)


class TestRejection:
    def test_malformed_json_reports_position(self):
        with pytest.raises(SceneFormatError, match=r"line 1, column"):
            parse_scene('{"conics": [}')

    def test_unknown_top_level_key(self):
        with pytest.raises(SceneFormatError, match="mirrors"):
            parse_scene('{"mirrors": []}')

    def test_unknown_conic_key_has_path(self):
        with pytest.raises(SceneFormatError, match=r"conics\[0\]"):
            parse_scene('{"conics": [{"kind": "parabola", "p": 1, "focus": 2}]}')

    def test_unknown_option_key(self):
        with pytest.raises(SceneFormatError, match="options"):
            parse_scene('{"options": {"bounce_cap": 3}}')

    def test_missing_required_parameter(self):
        with pytest.raises(SceneFormatError, match="[ab]"):
            parse_scene('{"conics": [{"kind": "ellipse", "a": 5}]}')

    def test_key_error_names_its_path_once(self):
        with pytest.raises(SceneFormatError) as info:
            parse_scene('{"conics": [{"kind": "ellipse", "a": 5}]}', source="s.json")
        assert str(info.value) == "s.json:conics[0]: missing required key 'b'"

    @pytest.mark.parametrize("branch", ["true", "-1.0"])
    def test_non_integer_branch(self, branch):
        text = ('{"conics": [{"kind": "hyperbola", "a": 1, "b": 1, "branch": %s}]}'
                % branch)
        with pytest.raises(SceneFormatError) as info:
            parse_scene(text, source="s.json")
        assert str(info.value).startswith("s.json:conics[0]: branch must be +1 or -1")

    def test_unknown_kind(self):
        with pytest.raises(SceneFormatError, match="circle"):
            parse_scene('{"conics": [{"kind": "circle", "a": 1}]}')

    def test_non_finite_number_rejected(self):
        with pytest.raises(SceneFormatError):
            parse_scene('{"conics": [{"kind": "parabola", "p": 1e999}]}')
        with pytest.raises(SceneFormatError):
            parse_scene('{"conics": [{"kind": "parabola", "p": NaN}]}')

    def test_boolean_is_not_a_number(self):
        with pytest.raises(SceneFormatError):
            parse_scene('{"conics": [{"kind": "parabola", "p": true}]}')

    def test_invalid_shape_parameters(self):
        with pytest.raises(SceneFormatError, match=r"conics\[0\]"):
            parse_scene('{"conics": [{"kind": "ellipse", "a": 3, "b": 5}]}')

    def test_bad_pair_length(self):
        with pytest.raises(SceneFormatError):
            parse_scene('{"rays": [{"origin": [0, 8, 1], "dir": [0, -1]}]}')

    def test_scene_level_violation_wrapped(self):
        text = """
        {"conics": [
            {"kind": "parabola", "p": 1, "role": "primary"},
            {"kind": "hyperbola", "a": 0.5, "b": 0.6, "branch": -1, "role": "secondary"}
        ]}
        """
        with pytest.raises(SceneFormatError, match="confocal"):
            parse_scene(text)

    @pytest.mark.parametrize(
        "key, value, field", [("on_curve_tol", 0, "on_curve"), ("confocal_tol", -1, "confocal")]
    )
    def test_non_positive_tolerance_option_rejected(self, key, value, field):
        with pytest.raises(SceneFormatError, match=f"options.*{field}"):
            parse_scene(f'{{"options": {{"{key}": {value}}}}}')

    def test_top_level_must_be_object(self):
        with pytest.raises(SceneFormatError):
            parse_scene("[1, 2, 3]")

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError for an integer literal of more
        # than 4300 digits, the interpreter's default limit
        text = '{"conics": [{"kind": "parabola", "p": 1%s}]}' % ("0" * 5000)
        with pytest.raises(SceneFormatError) as info:
            parse_scene(text, source="s.json")
        assert str(info.value).startswith("s.json: invalid JSON: ")

    def test_non_string_kind(self):
        with pytest.raises(SceneFormatError) as info:
            parse_scene('{"conics": [{"kind": [], "a": 1}]}', source="s.json")
        assert str(info.value).startswith("s.json:conics[0].kind: expected one of ")

    def test_source_name_in_message(self):
        with pytest.raises(SceneFormatError, match="myscene.json"):
            parse_scene('{"bogus": 1}', source="myscene.json")


class TestRoundTrip:
    def test_bundled_cassegrain(self):
        scene = load_scene(bundled("cassegrain.json"))
        assert len(scene.rays) == 100
        assert scene.roles == ("primary", "secondary")
        again = parse_scene(serialize_scene(scene))
        assert again == scene

    def test_bundled_ellipse(self):
        scene = load_scene(bundled("ellipse.json"))
        assert scene.mirrors[0].kind == "ellipse"
        assert parse_scene(serialize_scene(scene)) == scene

    def test_bundled_cassegrain_is_its_source(self):
        data = resources.files("conicsteps").joinpath("scenes", "cassegrain.json").read_bytes()
        assert data == serialize_scene(default_cassegrain_scene(100)).encode("utf-8")

    @pytest.mark.parametrize("name", ["cassegrain.json", "ellipse.json"])
    def test_bundled_file_resaves_byte_identically(self, name, tmp_path):
        path = tmp_path / name
        save_scene(load_scene(bundled(name)), path)
        assert path.read_bytes() == resources.files("conicsteps").joinpath(
            "scenes", name).read_bytes()

    def test_serialize_deterministic(self):
        scene = load_scene(bundled("cassegrain.json"))
        assert serialize_scene(scene) == serialize_scene(scene)

    def test_save_and_reload(self, tmp_path):
        scene = parse_scene('{"conics": [{"kind": "ellipse", "a": 5, "b": 3}]}')
        path = tmp_path / "out.json"
        save_scene(scene, path)
        assert load_scene(path) == scene
        assert path.read_bytes().endswith(b"\n")
        assert b"\r" not in path.read_bytes()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scene(tmp_path / "absent.json")

    def test_serialize_emits_all_fields(self):
        scene = parse_scene('{"conics": [{"kind": "hyperbola", "a": 3, "b": 4}]}')
        text = serialize_scene(scene)
        for key in ('"branch"', '"placement"', '"role"', '"options"'):
            assert key in text

    def test_options_default_round_trip(self):
        scene = Scene(mirrors=())
        again = parse_scene(serialize_scene(scene))
        assert again.max_bounces == scene.max_bounces
        assert again.tolerances == scene.tolerances

    def test_every_tolerance_has_a_file_key(self):
        # saving drops no tolerance: each field of the policy has an option
        options = json.loads(serialize_scene(Scene(mirrors=())))["options"]
        keys = {key.removesuffix("_tol") for key in options}
        assert {f.name for f in dataclasses.fields(Tolerances)} <= keys


# A valid scene that uses every optional key, for the substitution sweep.
FULL_SCENE = {
    "conics": [
        {"kind": "ellipse", "a": 5.0, "b": 3.0,
         "placement": {"translate": [0.5, -0.25], "rotate": 0.3}, "role": "mirror"},
        {"kind": "parabola", "p": 1.0,
         "placement": {"translate": [0.0, 0.0], "rotate": 0.0}, "role": "primary"},
        {"kind": "hyperbola", "a": 0.5, "b": 0.6, "branch": -1,
         "placement": {"translate": [0.0, 0.21897503240933458],
                       "rotate": -1.5707963267948966},
         "role": "secondary"},
    ],
    "rays": [{"origin": [0.3, 3.0], "dir": [0.0, -1.0]}],
    "options": {"max_bounces": 4, "on_curve_tol": 1e-9, "confocal_tol": 1e-9},
}

SUBSTITUTES = (None, True, 0, -1, 2.5, "x", [], [1, 2], {}, 10**400)


def node_paths(node, path=()):
    """Every path into ``node``, the root included, in document order."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from node_paths(child, (*path, key))


def substituted(path, value):
    """A copy of FULL_SCENE with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(FULL_SCENE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestMalformedScenes:
    def test_full_scene_is_valid(self):
        scene = parse_scene(json.dumps(FULL_SCENE))
        assert scene.roles == ("mirror", "primary", "secondary")

    def test_every_substitution_is_a_scene_or_a_format_error(self):
        # Exhaustive and deterministic: each node of FULL_SCENE, in turn,
        # replaced by each of SUBSTITUTES.
        paths = list(node_paths(FULL_SCENE))
        assert len(paths) == 44
        for path in paths:
            for value in SUBSTITUTES:
                text = json.dumps(substituted(path, value))
                try:
                    result = parse_scene(text, source="s.json")
                except SceneFormatError as exc:
                    assert str(exc).startswith("s.json"), (path, value, exc)
                else:
                    assert isinstance(result, Scene), (path, value)
