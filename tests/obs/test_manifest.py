"""Tests for run manifests (build, validate, write, load)."""

import json
from pathlib import Path

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    diff_manifests,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.experiments.report import render_run_diff
from repro.obs.metrics import MetricsRegistry


def _build(**kwargs):
    defaults = dict(
        command="obs",
        seed=1,
        app="fib",
        cluster={"workers": 4, "profile": "SparcStation-1"},
        wall_s=1.5,
    )
    defaults.update(kwargs)
    return build_manifest(**defaults)


def test_build_manifest_is_valid():
    m = _build()
    assert validate_manifest(m) == []
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["kind"] == "repro.obs.manifest"
    assert m["seed"] == 1
    assert m["metrics"] == {}


def test_manifest_finds_the_kernel_floor_from_any_directory(tmp_path, monkeypatch):
    """``kernel_events_per_s`` comes from the checkout's recorded floor,
    not from a file relative to wherever the run was started."""
    floor = Path(__file__).resolve().parents[2] / "BENCH_kernel.json"
    recorded = json.loads(floor.read_text())["kernel"]["events_per_s"]
    monkeypatch.chdir(tmp_path)
    assert _build()["kernel_events_per_s"] == recorded


def test_manifest_carries_metric_snapshot():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    m = _build(registry=reg)
    assert m["metrics"]["a"]["value"] == 3


def test_manifest_extra_keys_merge_but_cannot_shadow_schema():
    m = _build(extra={"makespan_s": 0.25})
    assert m["makespan_s"] == 0.25
    with pytest.raises(ValueError):
        _build(extra={"seed": 9})


def test_validate_detects_missing_and_mistyped_fields():
    m = _build()
    del m["cluster"]
    m["seed"] = "one"
    problems = validate_manifest(m)
    assert any("missing field 'cluster'" in p for p in problems)
    assert any("'seed'" in p for p in problems)
    assert validate_manifest("nope") == ["manifest is not a JSON object"]


def test_validate_checks_kind_schema_and_cluster_shape():
    m = _build()
    m["kind"] = "something.else"
    assert any("not a run manifest" in p for p in validate_manifest(m))
    m = _build()
    m["schema"] = 999
    assert any("unknown" in p for p in validate_manifest(m))
    m = _build()
    m["cluster"] = {"profile": "x"}
    assert any("lacks 'workers'" in p for p in validate_manifest(m))


def test_write_and_load_round_trip(tmp_path):
    path = str(tmp_path / "manifest.json")
    m = _build()
    write_manifest(m, path)
    assert load_manifest(path) == m


def test_write_refuses_invalid_manifest(tmp_path):
    m = _build()
    del m["app"]
    with pytest.raises(ValueError):
        write_manifest(m, str(tmp_path / "m.json"))


# ------------------------------------------------------------ run diffs


def _metric_manifest(**metrics):
    reg = MetricsRegistry()
    for name, value in metrics.items():
        reg.counter(name).inc(value)
    return _build(registry=reg)


def test_diff_identical_manifests_is_empty():
    m = _build()
    d = diff_manifests(m, m)
    assert d == {"provenance": [], "metrics": []}
    assert "no differences" in render_run_diff("diff", d)


def test_diff_reports_provenance_drift():
    a = _build(seed=1)
    b = _build(seed=2, cluster={"workers": 8, "profile": "SparcStation-1"})
    d = diff_manifests(a, b)
    changed = {f for f, _, _ in d["provenance"]}
    assert {"seed", "cluster"} <= changed
    out = render_run_diff("runs", d)
    assert "provenance drift" in out and "seed" in out


def test_diff_reports_metric_deltas_and_one_sided_paths():
    a = _metric_manifest(steals=3)
    b = _metric_manifest(steals=5, crashes=1)
    d = diff_manifests(a, b)
    rows = {path: (va, vb, delta) for path, va, vb, delta in d["metrics"]}
    assert rows["metrics.steals.value"] == (3, 5, 2)
    # crashes exists only in b: a-side None, no numeric delta.
    va, vb, delta = rows["metrics.crashes.value"]
    assert va is None and vb == 1 and delta is None
    out = render_run_diff("runs", d)
    assert "+2" in out and "metric deltas" in out


def test_diff_summarizes_row_lists_by_length_only():
    from repro.obs.health import HealthMonitor, Incident

    def snap(n):
        reg = MetricsRegistry()
        hm = HealthMonitor(reg)
        for i in range(n):
            hm.ring.push(Incident(
                kind="stall", severity="crit", t_start=float(i),
                t_end=float(i), subject="job", evidence=()))
        return _build(registry=reg)

    d = diff_manifests(snap(1), snap(3))
    paths = [path for path, *_ in d["metrics"]]
    # The rows themselves are summarized (len), not exploded per-row.
    assert "metrics.health.incidents.rows.len" in paths
    assert not any(".rows[" in p for p in paths)
