"""Scene files: a small JSON format for mirrors, rays, and trace options.

Layout::

    {
      "conics": [
        {"kind": "ellipse",   "a": 5.0, "b": 3.0,
         "placement": {"translate": [0.0, 0.0], "rotate": 0.0},
         "role": "mirror"},
        {"kind": "parabola",  "p": 1.0},
        {"kind": "hyperbola", "a": 0.5, "b": 0.6, "branch": -1}
      ],
      "rays": [{"origin": [3.7, 8.0], "dir": [0.0, -1.0]}],
      "options": {"max_bounces": 8, "on_curve_tol": 1e-9, "confocal_tol": 1e-9}
    }

A conic's keys are ``kind``, ``placement``, ``role`` and its shape class's
fields.  This module checks only the syntax: unknown keys anywhere are
rejected with their path, malformed JSON with line and column, and numbers
must be finite.  Every value check and default is the library's.
``on_curve_tol`` and ``confocal_tol`` are the two fields of
``Scene.tolerances``, so a scene file holds the whole tolerance policy.
Serialization writes every field explicitly with full-precision floats,
and parsing keeps the bits of a direction already of unit length, so every
scene survives a save/load round trip bit-for-bit.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields
from typing import Any, get_args

from .config import DEFAULT, Tolerances
from .conics import Conic, Placement, Shape
from .errors import SceneFormatError
from .geometry import Direction, Point, _unit_unchecked
from .optics import Ray, Scene

__all__ = ["parse_scene", "load_scene", "serialize_scene", "save_scene"]

_SHAPES = {shape_type.kind: shape_type for shape_type in get_args(Shape)}


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SceneFormatError(f"{path}: unknown key {key!r}")


def _obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SceneFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SceneFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _number(value: Any, where: str) -> float:
    """``value`` as a float; ``where`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError(f"{where}: expected a number, got {type(value).__name__}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, or a huge int
        raise SceneFormatError(f"{where}: numbers must be finite, got {value}")
    return float(value)


def _num(obj: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise SceneFormatError(f"{path}: missing required key {key!r}")
        return default
    return _number(obj[key], f"{path}.{key}")


def _pair(value: Any, path: str) -> tuple[float, float]:
    items = _list(value, path)
    if len(items) != 2:
        raise SceneFormatError(f"{path}: expected [x, y], got {len(items)} items")
    return (_number(items[0], f"{path}[0]"), _number(items[1], f"{path}[1]"))


def _parse_placement(value: Any, path: str) -> Placement:
    obj = _obj(value, path)
    _reject_unknown(obj, {"translate", "rotate"}, path)
    tx, ty = _pair(obj["translate"], f"{path}.translate") if "translate" in obj else (0.0, 0.0)
    rotate = _num(obj, "rotate", path, default=0.0)
    return Placement(tx=tx, ty=ty, rotate=rotate)


def _parse_conic(value: Any, path: str) -> tuple[Conic, str]:
    obj = _obj(value, path)
    kind = obj.get("kind")
    shape_type = _SHAPES.get(kind) if isinstance(kind, str) else None
    if shape_type is None:
        raise SceneFormatError(f"{path}.kind: expected one of {sorted(_SHAPES)}, got {kind!r}")
    shape_fields = fields(shape_type)
    _reject_unknown(obj, {"kind", "placement", "role", *(f.name for f in shape_fields)}, path)
    # Lengths are numbers; the int branch goes to the shape as given.  An
    # absent key with a default keeps the dataclass default.
    args = {
        f.name: obj[f.name] if f.type == "int" else _num(obj, f.name, path)
        for f in shape_fields
        if f.name in obj or f.default is MISSING
    }
    try:
        shape = shape_type(**args)
    except ValueError as exc:
        raise SceneFormatError(f"{path}: {exc}") from exc
    placement = (
        _parse_placement(obj["placement"], f"{path}.placement")
        if "placement" in obj
        else Placement()
    )
    return Conic(shape, placement), obj.get("role", "mirror")


def _parse_ray(value: Any, path: str) -> Ray:
    obj = _obj(value, path)
    _reject_unknown(obj, {"origin", "dir"}, path)
    for key in ("origin", "dir"):
        if key not in obj:
            raise SceneFormatError(f"{path}: missing required key {key!r}")
    ox, oy = _pair(obj["origin"], f"{path}.origin")
    dx, dy = _pair(obj["dir"], f"{path}.dir")
    try:
        # _pair checked finiteness, and a norm near 1 is not degenerate.
        if abs(math.hypot(dx, dy) - 1.0) <= 4.0 * sys.float_info.epsilon:
            return Ray(Point(ox, oy), _unit_unchecked(dx, dy))
        return Ray(Point(ox, oy), Direction(dx, dy))
    except ValueError as exc:
        raise SceneFormatError(f"{path}: {exc}") from exc


def parse_scene(text: str, source: str = "<scene>") -> Scene:
    """Parse scene JSON; errors carry ``source`` plus the offending path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(
            f"{source}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SceneFormatError(f"{source}: invalid JSON: {exc}") from exc
    root = _obj(data, source)
    _reject_unknown(root, {"conics", "rays", "options"}, source)
    mirrors: list[Conic] = []
    roles: list[str] = []
    for i, entry in enumerate(_list(root.get("conics", []), f"{source}:conics")):
        conic, role = _parse_conic(entry, f"{source}:conics[{i}]")
        mirrors.append(conic)
        roles.append(role)
    rays = [
        _parse_ray(entry, f"{source}:rays[{i}]")
        for i, entry in enumerate(_list(root.get("rays", []), f"{source}:rays"))
    ]
    options = _obj(root.get("options", {}), f"{source}:options")
    _reject_unknown(
        options, {"max_bounces", "on_curve_tol", "confocal_tol"}, f"{source}:options"
    )
    max_bounces = options.get("max_bounces", Scene.max_bounces)
    on_curve = _num(options, "on_curve_tol", f"{source}:options", DEFAULT.on_curve)
    confocal = _num(options, "confocal_tol", f"{source}:options", DEFAULT.confocal)
    try:
        tolerances = Tolerances(on_curve=on_curve, confocal=confocal)
    except ValueError as exc:
        raise SceneFormatError(f"{source}:options: {exc}") from exc
    try:
        return Scene(
            mirrors=tuple(mirrors),
            roles=tuple(roles),
            rays=tuple(rays),
            max_bounces=max_bounces,
            tolerances=tolerances,
        )
    except ValueError as exc:
        raise SceneFormatError(f"{source}: {exc}") from exc


def load_scene(path: str | os.PathLike) -> Scene:
    """Read and parse a scene file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scene(text, source=str(path))


def _conic_to_dict(conic: Conic, role: str) -> dict:
    return {
        "kind": conic.kind,
        **asdict(conic.shape),
        "placement": {"translate": [conic.placement.tx, conic.placement.ty],
                      "rotate": conic.placement.rotate},
        "role": role,
    }


def serialize_scene(scene: Scene) -> str:
    """Scene back to JSON text; full-precision floats, stable layout.
    Every field, each tolerance included, has a key, so any scene saves."""
    tolerances = scene.tolerances
    data = {
        "conics": [
            _conic_to_dict(conic, role)
            for conic, role in zip(scene.mirrors, scene.roles)
        ],
        "rays": [
            {"origin": [r.origin.x, r.origin.y], "dir": [r.dir.x, r.dir.y]}
            for r in scene.rays
        ],
        "options": {
            "max_bounces": scene.max_bounces,
            "on_curve_tol": tolerances.on_curve,
            "confocal_tol": tolerances.confocal,
        },
    }
    return json.dumps(data, indent=2) + "\n"


def save_scene(scene: Scene, path: str | os.PathLike) -> None:
    """Write a scene file (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scene(scene))
