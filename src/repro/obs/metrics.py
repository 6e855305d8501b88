"""The metrics registry: counters, gauges, histograms, time series.

The paper's whole evaluation is observability — counting steals,
synchronizations, messages, and per-participant times — and the related
work argues that *distributions* (steal latency, message latency) drive
makespan, not just counts.  This module is the common registry those
measurements flow into.

Components never hold instruments: they report protocol steps to the
run's probe seam (:mod:`repro.obs.probe`), and :class:`ProbeMetrics`
below — subscribed by :meth:`MetricsRegistry.subscribe` — turns those
steps into instrument updates.  A run without a registry has no
subscriber and pays nothing.

Names are hierarchical dot-paths (``micro.steal.latency_s``,
``net.msg.inflight``, ``macro.jobq.wait_s``); the catalogue lives in
``docs/observability.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Latency histogram edges (seconds): geometric 10 µs .. 10 s, the span
#: from a loopback datagram to a heartbeat-scale stall on the 1994 LAN.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0, 2.0, 5.0, 10.0,
)

#: Queue-depth histogram edges (tasks): the paper's "max tasks in use"
#: working sets are tens of tasks; powers-of-two-ish up to 256.
DEPTH_BUCKETS: Tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
)

#: Task-grain histogram edges (simulated seconds of useful work).
GRAIN_BUCKETS_S: Tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Job-duration histogram edges (seconds): geometric 1 s .. 50000 s,
#: spanning a short job's sojourn to a starved job's queue wait under
#: production traffic (the macro traffic engine's scale).
DURATION_BUCKETS_S: Tuple[float, ...] = (
    1.0, 2.0, 5.0,
    10.0, 20.0, 50.0,
    100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
    10000.0, 20000.0, 50000.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Instantaneous value (set/inc/dec); also remembers its peak."""

    __slots__ = ("name", "value", "peak")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value, "peak": self.peak}


class Histogram:
    """Fixed-bucket histogram with underflow/overflow buckets.

    For edges ``(e0, .., e{n-1})`` there are ``n + 1`` buckets: bucket 0
    is the underflow (``v < e0``), bucket ``i`` covers ``e{i-1} <= v <
    e{i}``, and bucket ``n`` is the overflow (``v >= e{n-1}``).  Exact
    sum/min/max are tracked alongside (and the count is the buckets'
    total), so averages are exact and only percentiles are
    bucket-interpolated.
    """

    __slots__ = ("name", "edges", "counts", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        if len(edges) < 1:
            raise ReproError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, list(edges)[1:])):
            raise ReproError(f"histogram {name!r} edges must strictly increase")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> Optional[float]:
        count = self.count
        return self.sum / count if count else None

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-interpolated q-quantile (q in [0, 1]); None when empty.

        Within a bucket the mass is assumed uniform; the underflow bucket
        interpolates from the observed minimum, the overflow bucket to
        the observed maximum (both exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"percentile wants q in [0, 1], got {q!r}")
        count = self.count
        if count == 0:
            return None
        target = q * count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= target:
                lo = self.min if i == 0 else self.edges[i - 1]
                hi = self.max if i == len(self.edges) else self.edges[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (target - cum) / n
                return lo + frac * (hi - lo)
            cum += n
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        count = self.count
        snap: Dict[str, Any] = {
            "kind": self.kind,
            "count": count,
            "sum": self.sum,
            "min": None if count == 0 else self.min,
            "max": None if count == 0 else self.max,
            "mean": self.mean,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }
        snap["percentiles"] = {
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }
        return snap


#: The retention bound :meth:`Series.snapshot` has always counted
#: ``n_samples`` / ``dropped`` against; kept (from the running sample
#: count) so recorded manifests stay comparable.
SNAPSHOT_CAP = 100_000


class Series:
    """Timestamped (time, value) samples of a piecewise-constant quantity
    — the raw material of a Perfetto counter track (deque depth, live
    participants over time).

    At most *capacity* samples are retained: at capacity every other one
    is dropped and the recording stride doubles, so ``samples`` thins
    evenly over the whole run instead of stopping when full
    (deterministic, O(capacity) however long the run).  ``seen`` /
    ``last`` / ``peak`` are running values over every sample, retained
    or not.
    """

    __slots__ = ("name", "samples", "capacity", "stride", "seen", "last", "peak")
    kind = "series"

    def __init__(self, name: str, capacity: int = 4096) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self.capacity = capacity
        self.stride = 1
        self.seen = 0
        self.last: Optional[float] = None
        self.peak: Optional[float] = None

    def record(self, time: float, value: float) -> None:
        self.last = value
        if self.peak is None or value > self.peak:
            self.peak = value
        self.seen += 1
        if self.seen % self.stride:
            return
        if len(self.samples) >= self.capacity:
            self.samples = self.samples[::2]
            self.stride *= 2
            if self.seen % self.stride:
                return
        self.samples.append((time, value))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_samples": min(self.seen, SNAPSHOT_CAP),
            "dropped": max(0, self.seen - SNAPSHOT_CAP),
            "last": None if self.last is None else float(self.last),
            "peak": None if self.peak is None else float(self.peak),
        }


def _merge_two(name: str, a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Merge one instrument snapshot *b* into a copy of *a*."""
    kind = a.get("kind")
    if kind != b.get("kind"):
        raise ReproError(
            f"cannot merge metric {name!r}: kind {a.get('kind')!r} vs "
            f"{b.get('kind')!r}"
        )
    out = dict(a)
    if kind == "counter":
        out["value"] = a["value"] + b["value"]
    elif kind == "gauge":
        # Shards are concurrent instances of the same quantity: the
        # instantaneous values add, the merged peak is bounded below by
        # each shard's own peak.
        out["value"] = a["value"] + b["value"]
        out["peak"] = max(a["peak"], b["peak"])
    elif kind == "histogram":
        if list(a["edges"]) != list(b["edges"]):
            # ValueError, not ReproError: this is a caller bug (two
            # registries configured differently), and zipping the counts
            # below would silently produce a corrupt merge.
            raise ValueError(
                f"cannot merge histogram {name!r}: bucket edges differ "
                f"({list(a['edges'])} vs {list(b['edges'])})"
            )
        # Sum, min/max and the buckets add; mean and the percentiles
        # are not mergeable from summaries, so a histogram holding the
        # combined buckets re-derives them.
        rebuilt = Histogram(name, a["edges"])
        rebuilt.counts = [x + y for x, y in zip(a["counts"], b["counts"])]
        rebuilt.sum = a["sum"] + b["sum"]
        rebuilt.min = min((s["min"] for s in (a, b) if s["min"] is not None),
                          default=rebuilt.min)
        rebuilt.max = max((s["max"] for s in (a, b) if s["max"] is not None),
                          default=rebuilt.max)
        out = rebuilt.snapshot()
    elif kind == "series":
        # Snapshots carry summaries, not samples; combine the summaries.
        out["n_samples"] = a["n_samples"] + b["n_samples"]
        out["dropped"] = a["dropped"] + b["dropped"]
        peaks = [v for v in (a.get("peak"), b.get("peak")) if v is not None]
        out["peak"] = max(peaks) if peaks else None
        out["last"] = b.get("last") if b.get("last") is not None else a.get("last")
    elif kind == "incidents":
        # Incident rings: rows concatenate and re-sort under the total
        # incident order, so the sharded merge is byte-identical to one
        # ring that saw every shard's incidents (repro.obs.health).
        from repro.obs.health import merge_incident_snapshots

        out = merge_incident_snapshots(name, a, b)
    # Unknown kinds merge to the first snapshot unchanged.
    return out


def merge_snapshots(
    snapshots: Sequence[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Combine per-shard :meth:`MetricsRegistry.snapshot` dicts.

    Counters and histogram buckets add, gauge/series peaks take the
    max, histogram percentiles are re-interpolated over the summed
    buckets.  Disjoint names union.  This is the shard-aware merge the
    parallel runner uses to produce one run manifest from N worker
    processes (instrument *objects* never cross the process boundary —
    only these JSON-ready snapshots do).
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for name, inst in snap.items():
            if name not in merged:
                merged[name] = dict(inst)
            else:
                merged[name] = _merge_two(name, merged[name], inst)
    return dict(sorted(merged.items()))


class MetricsRegistry:
    """Named instruments under hierarchical dot-path names.

    ``counter``/``gauge``/``histogram``/``series`` create on first use
    and return the existing instrument afterwards, so call sites need no
    setup ceremony.  Asking for an existing name with a different
    instrument kind is an error — silent aliasing would corrupt both
    measurements.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        #: The run's :class:`~repro.obs.health.HealthMonitor`, or None.
        #: Installed by the monitor's constructor and subscribed along
        #: with the registry (:meth:`subscribe`).
        self.health: Optional[Any] = None
        #: True once :meth:`subscribe` ran: a monitor installed after
        #: that would be wired to nothing.
        self.subscribed = False

    def _get_or_make(self, name: str, cls, *args: Any):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, *args)
        elif not isinstance(inst, cls):
            raise ReproError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"not {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_make(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_make(name, Gauge)

    def histogram(self, name: str, edges: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        return self._get_or_make(name, Histogram, edges)

    def series(self, name: str) -> Series:
        return self._get_or_make(name, Series)

    def incidents(self, name: str, capacity: int = 512):
        """A bounded :class:`~repro.obs.health.IncidentRing` instrument
        (create-on-first-use like every other kind)."""
        from repro.obs.health import IncidentRing

        return self._get_or_make(name, IncidentRing, capacity)

    def subscribe(self, probe: Any) -> None:
        """Feed this registry (and its health monitor) from a run's
        :class:`~repro.obs.probe.Probe`."""
        self.subscribed = True
        ProbeMetrics(self).subscribe(probe)
        if self.health is not None:
            self.health.subscribe(probe)

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under *name*, or None."""
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> List[str]:
        """Sorted registered names, optionally filtered by prefix."""
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """name -> instrument snapshot, sorted by name (JSON-ready)."""
        return {name: self._instruments[name].snapshot() for name in self.names()}


class ProbeMetrics:
    """The metrics consumer of the probe seam: owns every instrument
    the scheduler's components feed (catalogue: docs/observability.md).

    Instruments are resolved when a component announces itself
    (``*.bind``), so a registry only ever holds the instruments of the
    layers its run actually built.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._deque_series: Dict[str, Series] = {}
        #: cid -> when it was parked, for closures still suspended on
        #: the worker that created them (fill latency); an entry leaves
        #: with its closure: filled, migrated out, lost, or worker gone.
        #: cids are unique within a job; when two jobs' workers share a
        #: host name *and* this registry (PhishSystem, two jobs submitted
        #: from one workstation), a cid parked by both at once maps to
        #: None — neither fill is observed, rather than a wrong latency.
        self._suspended: Dict[Any, Optional[float]] = {}

    def subscribe(self, probe: Any) -> None:
        probe.subscribe({
            "worker.bind": self._worker_bind,
            "net.bind": self._net_bind,
            "ch.bind": self._ch_bind,
            "jobq.bind": self._jobq_bind,
            "closure.suspend": self._suspend,
            "join.fill": self._fill,
            "migrate.out": self._unpark,
            "closure.lost": self._unpark,
            "worker.exit.*": self._worker_exit,
            "task.done": self._task_done,
            "deque.depth": self._deque,
            "steal.batch": self._deque,
            "steal.reply": self._steal_reply,
            "steal.adopt": lambda t, k, s, d: self._steals.inc(d["n"]),
            "steal.reclaim": lambda t, k, s, d: self._redo.inc(len(d["pairs"])),
            "redo": lambda t, k, s, d: self._redo.inc(d["n"]),
            "net.send": lambda t, k, s, d: self._sent.inc(),
            "net.wire": lambda t, k, s, d: self._inflight.inc(),
            "net.recv": self._recv,
            "net.drop.down": lambda t, k, s, d: self._inflight.dec(),
            "net.drop.unbound": lambda t, k, s, d: self._inflight.dec(),
            "ch.heartbeat":
                lambda t, k, s, d: self._heartbeat_gap.observe(d["gap_s"]),
            "ch.worker_died": lambda t, k, s, d: self._deaths.inc(),
            "ch.peer_update":
                lambda t, k, s, d: self._participants.record(t, len(d["peers"])),
            "jobq.submit": lambda t, k, s, d: self._depth.set(d["depth"]),
            "jobq.done": lambda t, k, s, d: self._depth.set(d["depth"]),
            "jobq.grant": self._grant,
        })

    # -- instrument resolution -------------------------------------------

    def _worker_bind(self, t: float, kind: str, source: str, d: dict) -> None:
        r = self.registry
        self._steal_latency = r.histogram("micro.steal.latency_s")
        r.histogram(f"micro.steal.latency_s.{d['policy']}")
        self._fill_latency = r.histogram("micro.fill.latency_s")
        self._task_grain = r.histogram("micro.task.grain_s", GRAIN_BUCKETS_S)
        self._deque_depth = r.histogram("micro.deque.depth", DEPTH_BUCKETS)
        self._deque_series[source] = r.series(f"micro.deque.depth.{source}")
        self._redo = r.counter("micro.redo.count")
        self._steals = r.counter("micro.steal.success.count")

    def _net_bind(self, t: float, kind: str, source: str, d: dict) -> None:
        r = self.registry
        self._msg_latency = r.histogram("net.msg.latency_s")
        self._inflight = r.gauge("net.msg.inflight")
        self._sent = r.counter("net.msg.sent.count")

    def _ch_bind(self, t: float, kind: str, source: str, d: dict) -> None:
        r = self.registry
        self._heartbeat_gap = r.histogram("ch.heartbeat.gap_s")
        self._participants = r.series("macro.participants")
        self._deaths = r.counter("ch.deaths.count")

    def _jobq_bind(self, t: float, kind: str, source: str, d: dict) -> None:
        r = self.registry
        self._queue_wait = r.histogram("macro.jobq.wait_s", DURATION_BUCKETS_S)
        self._grants = r.counter("macro.jobq.grants.count")
        self._depth = r.gauge("macro.jobq.depth")

    # -- per-step updates ------------------------------------------------

    def _suspend(self, t: float, kind: str, source: str, d: dict) -> None:
        cid = d["cid"]
        self._suspended[cid] = None if cid in self._suspended else t

    def _fill(self, t: float, kind: str, source: str, d: dict) -> None:
        # The final fill of a closure that was suspended on the filling
        # worker.  One migrated in was parked elsewhere — and its entry
        # may still be here: the sender says migrate.out only once the
        # ack is back, after the adopter may already have filled it.
        if not d["remaining"] and d["cid"][0] == source:
            parked_at = self._suspended.pop(d["cid"], None)
            if parked_at is not None:
                self._fill_latency.observe(t - parked_at)

    def _unpark(self, t: float, kind: str, source: str, d: dict) -> None:
        for cid in d["cids"]:
            self._suspended.pop(cid, None)

    def _worker_exit(self, t: float, kind: str, source: str, d: dict) -> None:
        # Closures are only ever parked under their creator's name.
        for cid in [c for c in self._suspended if c[0] == source]:
            del self._suspended[cid]

    def _task_done(self, t: float, kind: str, source: str, d: dict) -> None:
        self._task_grain.observe(d["service_s"])
        depth = d["deque"]
        self._deque_series[source].record(t, depth)
        self._deque_depth.observe(depth)

    def _deque(self, t: float, kind: str, source: str, d: dict) -> None:
        depth = d["deque"]
        self._deque_series[source].record(t, depth)
        self._deque_depth.observe(depth)

    def _steal_reply(self, t: float, kind: str, source: str, d: dict) -> None:
        self._steal_latency.observe(d["latency_s"])
        self.registry.histogram(
            f"micro.steal.latency_s.{d['policy']}").observe(d["latency_s"])

    def _recv(self, t: float, kind: str, source: str, d: dict) -> None:
        self._inflight.dec()
        self._msg_latency.observe(d["latency_s"])

    def _grant(self, t: float, kind: str, source: str, d: dict) -> None:
        if d["wait_s"] is not None:
            self._queue_wait.observe(d["wait_s"])
        self._grants.inc()
