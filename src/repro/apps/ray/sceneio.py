"""Scene files: the ``ray my-scene`` of the paper, as a text format.

"simply typing `ray my-scene` will run our parallel ray tracer on the
data given in the file my-scene."  This module defines that file: a
line-oriented text format for cameras, lights, spheres, and planes, with
comments and bare blank lines.

Grammar (one directive per line, ``#`` starts a comment)::

    camera   px py pz  lx ly lz  fov
    light    px py pz  r g b
    ambient  r g b
    background r g b
    sphere   cx cy cz radius  r g b  [diffuse spec shin refl]
    plane    px py pz  nx ny nz  r g b  [diffuse spec shin refl] [checker]

Numbers are floats; the optional material tail defaults to the standard
matte material.
"""

from __future__ import annotations

import io
from typing import List, TextIO, Union

from repro.apps.ray.geometry import Material, Plane, Sphere
from repro.apps.ray.scene import Camera, Light, Scene
from repro.errors import ReproError


class SceneFormatError(ReproError):
    """A scene file line could not be parsed."""


def _floats(parts: List[str], n: int, what: str, line_no: int) -> List[float]:
    if len(parts) < n:
        raise SceneFormatError(
            f"line {line_no}: {what} needs {n} numbers, got {len(parts)}"
        )
    try:
        return [float(p) for p in parts[:n]]
    except ValueError as exc:
        raise SceneFormatError(f"line {line_no}: {what}: {exc}") from None


def _material(parts: List[str], line_no: int) -> tuple:
    """Parse colour + optional material tail; returns (Material, checker)."""
    colour = tuple(_floats(parts, 3, "material colour", line_no))
    rest = parts[3:]
    checker = False
    if rest and rest[-1] == "checker":
        checker = True
        rest = rest[:-1]
    if rest and len(rest) != 4:
        raise SceneFormatError(
            f"line {line_no}: material tail must be 4 numbers, got {len(rest)}"
        )
    if rest:
        diffuse, specular, shininess, reflectivity = _floats(
            rest, 4, "material", line_no
        )
    else:
        diffuse, specular, shininess, reflectivity = 0.9, 0.4, 32.0, 0.0
    material = Material(
        colour=colour,  # type: ignore[arg-type]
        diffuse=diffuse,
        specular=specular,
        shininess=shininess,
        reflectivity=reflectivity,
    )
    return material, checker


def load_scene(source: Union[str, TextIO]) -> Scene:
    """Parse a scene from a file path, file object, or literal text.

    A string containing a newline is treated as scene text; any other
    string is opened as a path.
    """
    if isinstance(source, str):
        if "\n" in source:
            fh: TextIO = io.StringIO(source)
        else:
            fh = open(source, "r", encoding="utf-8")
    else:
        fh = source
    scene = Scene(objects=[], lights=[])
    try:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind, *parts = line.split()
            if kind == "camera":
                vals = _floats(parts, 7, "camera", line_no)
                scene.camera = Camera(
                    position=tuple(vals[0:3]),
                    look_at=tuple(vals[3:6]),
                    fov_degrees=vals[6],
                )
            elif kind == "light":
                vals = _floats(parts, 6, "light", line_no)
                scene.lights.append(
                    Light(position=tuple(vals[0:3]), intensity=tuple(vals[3:6]))
                )
            elif kind == "ambient":
                scene.ambient = tuple(_floats(parts, 3, "ambient", line_no))
            elif kind == "background":
                scene.background = tuple(_floats(parts, 3, "background", line_no))
            elif kind == "sphere":
                vals = _floats(parts, 4, "sphere", line_no)
                material, _checker = _material(parts[4:], line_no)
                scene.objects.append(
                    Sphere(tuple(vals[0:3]), vals[3], material)
                )
            elif kind == "plane":
                vals = _floats(parts, 6, "plane", line_no)
                material, checker = _material(parts[6:], line_no)
                scene.objects.append(
                    Plane(tuple(vals[0:3]), tuple(vals[3:6]), material, checker)
                )
            else:
                raise SceneFormatError(f"line {line_no}: unknown directive {kind!r}")
    finally:
        if fh is not source and not isinstance(source, io.StringIO):
            fh.close()
    if not scene.objects:
        raise SceneFormatError("scene has no objects")
    if not scene.lights:
        raise SceneFormatError("scene has no lights")
    return scene

