"""ray: a recursive ray tracer (the paper's coarse-grain application).

"The ray-tracing application renders images by tracing light rays
around a mathematical model of a scene."  Its coarse grain size (one
task renders a whole block of scanlines) makes its serial slowdown
nearly 1.00 (Table 1), at the opposite end of the spectrum from fib.
"""

from repro.apps.ray.geometry import Plane, Sphere
from repro.apps.ray.scene import Camera, Light, Scene, default_scene
from repro.apps.ray.sceneio import load_scene
from repro.apps.ray.tracer import render, render_rows, trace_ray
from repro.apps.ray.app import ray_job, ray_serial

__all__ = [
    "Sphere",
    "Plane",
    "Scene",
    "Camera",
    "Light",
    "default_scene",
    "load_scene",
    "trace_ray",
    "render",
    "render_rows",
    "ray_job",
    "ray_serial",
]
