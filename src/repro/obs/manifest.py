"""Run manifests: attributable, machine-readable experiment provenance.

Every experiment output can be accompanied by a small JSON file
recording *what produced it*: the command, the seed, the cluster shape,
the git revision, the metric snapshot, wall time, and the machine's
recorded kernel throughput (so a slow number can be told apart from a
slow machine).  ``validate_manifest`` is the schema check used by the
unit tests and the CI smoke step.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Manifest schema version (bump on breaking shape changes).
MANIFEST_SCHEMA = 1

#: Required top-level fields and their types (the schema, in effect).
MANIFEST_FIELDS: Dict[str, tuple] = {
    "schema": (int,),
    "kind": (str,),
    "command": (str,),
    "seed": (int,),
    "app": (str,),
    "created_at": (str,),
    "python": (str,),
    "platform": (str,),
    "git": (str, type(None)),
    "cluster": (dict,),
    "wall_s": (int, float),
    "kernel_events_per_s": (int, float, type(None)),
    "metrics": (dict,),
}


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, or None.

    Tolerates every failure mode (no git binary, not a repository, bare
    checkout without tags) — provenance is best-effort, never fatal.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


#: The kernel floor recorded at the root of a source checkout (absent
#: from an installed package), found wherever the run was started.
KERNEL_FLOOR = Path(__file__).resolve().parents[3] / "BENCH_kernel.json"


def _baseline_kernel_rate() -> Optional[float]:
    """kernel events/s from the recorded :data:`KERNEL_FLOOR`, if any."""
    try:
        recorded = json.loads(KERNEL_FLOOR.read_text())
    except (OSError, ValueError):
        return None
    return (recorded.get("kernel") or {}).get("events_per_s")


def build_manifest(
    command: str,
    seed: int,
    app: str,
    cluster: Dict[str, Any],
    wall_s: float,
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Dict[str, Any]] = None,
    metrics_snapshot: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict that passes :func:`validate_manifest`.

    Args:
        command: the CLI subcommand (or API entry point) that ran.
        seed: the root random seed of the run.
        app: application name ("fib", "pfold", ...).
        cluster: shape description, e.g. ``{"workers": 8,
            "profile": "SparcStation-1"}``.
        wall_s: real (not simulated) seconds the run took.
        registry: metric snapshot source (empty snapshot when None).
        extra: additional payload merged under its own keys (must not
            collide with schema fields).
        metrics_snapshot: pre-built metrics dict — how sharded runs
            hand over their :func:`~repro.obs.metrics.merge_snapshots`
            result (mutually exclusive with *registry*).
    """
    if registry is not None and metrics_snapshot is not None:
        raise ValueError("pass either registry or metrics_snapshot, not both")
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": "repro.obs.manifest",
        "command": command,
        "seed": seed,
        "app": app,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git": git_describe(),
        "cluster": cluster,
        "wall_s": wall_s,
        "kernel_events_per_s": _baseline_kernel_rate(),
        "metrics": (
            registry.snapshot() if registry is not None
            else metrics_snapshot if metrics_snapshot is not None
            else {}
        ),
    }
    if extra:
        for key in extra:
            if key in MANIFEST_FIELDS:
                raise ValueError(f"extra key {key!r} collides with the schema")
        manifest.update(extra)
    return manifest


def validate_manifest(manifest: Any) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    problems: List[str] = []
    for field, types in MANIFEST_FIELDS.items():
        if field not in manifest:
            problems.append(f"missing field {field!r}")
        elif not isinstance(manifest[field], types):
            problems.append(
                f"field {field!r} has type {type(manifest[field]).__name__}, "
                f"wanted {'/'.join(t.__name__ for t in types)}"
            )
    if manifest.get("schema") not in (None, MANIFEST_SCHEMA):
        problems.append(
            f"schema version {manifest.get('schema')!r} unknown "
            f"(this build reads {MANIFEST_SCHEMA})"
        )
    if manifest.get("kind") not in (None, "repro.obs.manifest"):
        problems.append(f"kind {manifest.get('kind')!r} is not a run manifest")
    cluster = manifest.get("cluster")
    if isinstance(cluster, dict) and "workers" not in cluster:
        problems.append("cluster description lacks 'workers'")
    return problems


def write_manifest(manifest: Dict[str, Any], path: str) -> None:
    """Write *manifest* as pretty-printed JSON (validating first)."""
    problems = validate_manifest(manifest)
    if problems:
        raise ValueError(f"refusing to write invalid manifest: {problems}")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back (no validation; callers validate as needed)."""
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Run-diff forensics (``repro diagnose --diff A B``)
# ---------------------------------------------------------------------------

#: Provenance fields compared (in report order) by :func:`diff_manifests`.
PROVENANCE_FIELDS = (
    "command", "app", "seed", "cluster", "git", "python", "platform",
    "kernel_events_per_s", "wall_s",
)

#: Scalar list keys are flattened by index; these list-valued keys hold
#: structured rows whose contents would drown the diff — their *length*
#: is compared instead.
_SUMMARIZED_LISTS = ("rows", "samples")


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    """Flatten *value* into dotted-path scalar leaves (diffable)."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, list):
        leaf = prefix.rsplit(".", 1)[-1]
        if leaf in _SUMMARIZED_LISTS:
            out[f"{prefix}.len"] = len(value)
        else:
            for i, item in enumerate(value):
                _flatten(f"{prefix}[{i}]", item, out)
    else:
        out[prefix] = value


def diff_manifests(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, List]:
    """Compare two run manifests for forensics.

    Returns ``{"provenance": [...], "metrics": [...]}``:

    * ``provenance`` rows are ``(field, a_value, b_value)`` for every
      :data:`PROVENANCE_FIELDS` entry that differs (environment drift —
      different git revision, machine, cluster shape — is the first
      thing to rule out when two runs disagree);
    * ``metrics`` rows are ``(path, a_value, b_value, delta)`` over the
      flattened metric snapshots, including the extra payload fields
      (``makespan_s`` etc.); ``delta`` is numeric when both sides are,
      else ``None``.  Paths present on only one side appear with the
      other side as ``None``.
    """
    provenance = [
        (field, a.get(field), b.get(field))
        for field in PROVENANCE_FIELDS
        if a.get(field) != b.get(field)
    ]
    flat_a: Dict[str, Any] = {}
    flat_b: Dict[str, Any] = {}
    skip = set(MANIFEST_FIELDS) - {"metrics"}
    _flatten("", {k: v for k, v in a.items() if k not in skip}, flat_a)
    _flatten("", {k: v for k, v in b.items() if k not in skip}, flat_b)
    metrics: List[tuple] = []
    for path in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(path), flat_b.get(path)
        if va == vb:
            continue
        delta = None
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)) \
                and not isinstance(va, bool) and not isinstance(vb, bool):
            delta = vb - va
        metrics.append((path, va, vb, delta))
    return {"provenance": provenance, "metrics": metrics}
