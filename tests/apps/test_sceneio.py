"""Tests for the ray scene-file format."""

import pytest

from repro.apps.ray.geometry import Plane, Sphere
from repro.apps.ray.sceneio import SceneFormatError, load_scene

MINIMAL = """
# a minimal scene
camera 0 1 4  0 0.5 0  55
light  4 5 3  0.9 0.9 0.85
sphere 0 0.5 0  0.5  0.8 0.2 0.2
"""


def test_load_minimal():
    scene = load_scene(MINIMAL)
    assert len(scene.objects) == 1
    assert isinstance(scene.objects[0], Sphere)
    assert len(scene.lights) == 1
    assert scene.camera.fov_degrees == 55


def test_comments_and_blanks_ignored():
    scene = load_scene(MINIMAL + "\n\n# trailing comment\n")
    assert len(scene.objects) == 1


def test_material_tail_and_checker():
    text = MINIMAL + "plane 0 0 0  0 1 0  1 1 1  0.9 0.1 16 0.2 checker\n"
    scene = load_scene(text)
    plane = [o for o in scene.objects if isinstance(o, Plane)][0]
    assert plane.checker
    assert plane.material.reflectivity == 0.2


def test_file_path_loading(tmp_path):
    path = tmp_path / "demo.scene"
    path.write_text(MINIMAL)
    scene = load_scene(str(path))
    assert len(scene.objects) == 1


def test_unknown_directive_rejected():
    with pytest.raises(SceneFormatError, match="unknown directive"):
        load_scene(MINIMAL + "wobble 1 2 3\n")


def test_bad_number_rejected():
    with pytest.raises(SceneFormatError):
        load_scene("camera 0 1 4  0 0.5 0  fovvy\nlight 0 0 0 1 1 1\nsphere 0 0 0 1 1 1 1\n")


def test_short_directive_rejected():
    with pytest.raises(SceneFormatError, match="needs"):
        load_scene(MINIMAL + "light 1 2\n")


def test_empty_scene_rejected():
    with pytest.raises(SceneFormatError, match="no objects"):
        load_scene("light 0 0 0 1 1 1\n")
    with pytest.raises(SceneFormatError, match="no lights"):
        load_scene("sphere 0 0 0 1  1 1 1\n")


def test_bad_material_tail_rejected():
    with pytest.raises(SceneFormatError, match="material tail"):
        load_scene(MINIMAL + "sphere 0 0 0 1  1 1 1  0.9 0.1\n")

