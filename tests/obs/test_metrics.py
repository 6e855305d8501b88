"""Unit tests for the metrics registry and its instruments."""

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)


# ---------------------------------------------------------------- counters


def test_counter_increments():
    c = Counter("x")
    c.inc()
    c.inc(5)
    assert c.value == 6
    assert c.snapshot() == {"kind": "counter", "value": 6}


def test_gauge_tracks_peak():
    g = Gauge("x")
    g.inc(3)
    g.inc(4)
    g.dec(5)
    assert g.value == 2
    assert g.peak == 7
    g.set(1)
    assert g.snapshot()["peak"] == 7


# --------------------------------------------------------------- histograms


def test_histogram_bucket_edges_underflow_overflow():
    h = Histogram("h", edges=(1.0, 2.0, 4.0))
    # 4 buckets: <1, [1,2), [2,4), >=4
    h.observe(0.5)     # underflow
    h.observe(1.0)     # boundary: lands in [1,2)
    h.observe(1.99)
    h.observe(2.0)     # boundary: lands in [2,4)
    h.observe(4.0)     # boundary: overflow (v >= last edge)
    h.observe(100.0)   # overflow
    assert h.counts == [1, 2, 1, 2]
    assert h.count == 6
    assert h.min == 0.5
    assert h.max == 100.0


def test_histogram_empty_snapshot():
    h = Histogram("h", edges=(1.0, 2.0))
    snap = h.snapshot()
    assert snap["count"] == 0
    assert snap["min"] is None
    assert snap["max"] is None
    assert snap["mean"] is None
    assert snap["percentiles"] == {"p50": None, "p90": None, "p99": None}
    assert h.percentile(0.5) is None


def test_histogram_percentiles_bracket_observations():
    h = Histogram("h", edges=LATENCY_BUCKETS_S)
    for v in (0.0011, 0.0012, 0.0013, 0.0014, 0.04):
        h.observe(v)
    p50 = h.percentile(0.5)
    p99 = h.percentile(0.99)
    assert 0.001 <= p50 <= 0.002
    assert p50 <= p99 <= 0.05
    # Percentiles stay clamped to the observed range.
    assert h.percentile(0.0) >= h.min
    assert h.percentile(1.0) <= h.max


def test_histogram_percentile_rejects_bad_q():
    h = Histogram("h", edges=(1.0,))
    with pytest.raises(ReproError):
        h.percentile(1.5)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ReproError):
        Histogram("h", edges=())
    with pytest.raises(ReproError):
        Histogram("h", edges=(2.0, 1.0))


def test_histogram_mean_exact():
    h = Histogram("h", edges=DEPTH_BUCKETS)
    for v in (1, 2, 3):
        h.observe(v)
    assert h.mean == 2.0


# ------------------------------------------------------------------ series


def test_series_records_and_bounds():
    s = Series("s", capacity=4)
    for i in range(4):
        s.record(float(i), i)
    assert s.samples == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]
    # At capacity every other sample goes and the stride doubles: what
    # is kept spans the whole run, never more than 4 of them.
    values = {float(i): 7 if i == 50 else i % 5 for i in range(4, 100)}
    for t, v in values.items():
        s.record(t, v)
        assert len(s.samples) <= 4
    assert s.stride == 32
    assert s.samples == [(0.0, 0), (47.0, values[47.0]), (95.0, values[95.0])]
    # last / peak / counts are whole-run, whatever was thinned away.
    snap = s.snapshot()
    assert snap == {"kind": "series", "n_samples": 100, "dropped": 0,
                    "last": 4.0, "peak": 7.0}
    assert Series("empty").snapshot()["last"] is None


# ---------------------------------------------------------------- registry


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("a.b")
    assert reg.counter("a.b") is a
    assert reg.get("a.b") is a
    assert reg.names() == ["a.b"]


def test_registry_kind_mismatch_is_an_error():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ReproError):
        reg.gauge("x")


def test_registry_names_prefix_filter():
    reg = MetricsRegistry()
    reg.counter("micro.a")
    reg.counter("net.b")
    assert reg.names("micro.") == ["micro.a"]


def test_registry_snapshot_round_trips_through_json():
    import json

    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.histogram("h", (1.0, 2.0)).observe(1.5)
    reg.series("s").record(0.5, 7)
    doc = json.loads(reg.to_json())
    assert doc["c"]["value"] == 2
    assert doc["h"]["count"] == 1
    assert doc["s"]["peak"] == 7.0


# ------------------------------------------------- fill-latency bookkeeping


def test_fill_latency_table_is_empty_after_churn():
    """A suspended closure leaves the suspend -> final-fill table with
    the closure itself — filled, migrated out (shrink seeds 8, 12, 30,
    42: the worker-side table this replaced kept those entries for
    good), lost, or its worker gone — and the histogram reads what it
    read before the table moved into ``ProbeMetrics``.  fib faults-only
    seed 11 fills two migrated closures at their adopter *before* the
    sender's ``migrate.out``: not this worker's to measure."""
    import hashlib
    import json

    from repro.check import Perturbation, run_checked
    from repro.check.fuzzer import APPS

    cases = [("shrink", "mixed", seed) for seed in range(50)]
    cases.append(("fib", "faults-only", 11))
    snapshots, migrated_out = [], 0
    for app, scenario, seed in cases:
        spec, registry = APPS[app], MetricsRegistry()
        run = run_checked(
            spec.make(), n_workers=4, seed=seed, expected=spec.expected,
            perturbation=Perturbation.generate(seed, 4, scenario=scenario),
            worker_config=spec.worker_config, metrics=registry)
        run.require_ok()
        probe = run.workers[0]._probe
        (consumer,) = {fn.__self__ for fn in probe._subs["closure.suspend"]}
        assert consumer._suspended == {}, (app, scenario, seed)
        assert not hasattr(run.workers[0], "_suspended_at")
        migrated_out += run.trace.count("migrate.out")
        snapshots.append(registry.get("micro.fill.latency_s").snapshot())
    assert migrated_out >= 5  # the departures that used to leak
    digest = hashlib.sha256(json.dumps(snapshots, sort_keys=True).encode())
    # Taken on the commit before the table moved (PR 13, 9b045e3).
    assert digest.hexdigest() == (
        "8a2ccbaccc46d3842a1ee6d851cbf6999ed769246c05c0f5f497024cd23062d2")


def test_a_cid_parked_twice_at_once_is_skipped_not_mismeasured():
    """Two jobs sharing a registry and a host name can park equal cids
    (cids are unique per job): neither fill is observed."""
    from repro.obs.probe import Probe
    from tests.obs.emitting import emitter

    registry = MetricsRegistry()
    probe = Probe.for_run(metrics=registry)
    emit = emitter(probe)
    emit(0.0, "worker.bind", "ws00", policy="random")
    fills = registry.get("micro.fill.latency_s")
    emit(1.0, "closure.suspend", "ws00", cid=("ws00", 5), missing=1)
    emit(2.0, "closure.suspend", "ws00", cid=("ws00", 5), missing=1)  # the other job's
    emit(3.0, "join.fill", "ws00", cid=("ws00", 5), slot=0, remaining=0)
    emit(4.0, "join.fill", "ws00", cid=("ws00", 5), slot=0, remaining=0)
    assert fills.count == 0
    emit(5.0, "closure.suspend", "ws00", cid=("ws00", 5), missing=1)
    emit(5.5, "join.fill", "ws01", cid=("ws00", 5), slot=0, remaining=0)  # at an adopter
    assert fills.count == 0
    emit(6.0, "join.fill", "ws00", cid=("ws00", 5), slot=0, remaining=0)
    assert (fills.count, fills.sum) == (1, 1.0)
