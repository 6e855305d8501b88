"""repro.obs — the unified observability layer.

Everything here subscribes to one run's :mod:`repro.obs.probe` (see
``docs/observability.md``):

* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters,
  gauges, fixed-bucket histograms, and bounded time series that every
  layer of the scheduler populates when observability is wired in;
* :mod:`repro.obs.prof` — the critical-path span profiler (T1 / T-inf /
  overhead attribution), a pure reducer, surfaced as ``repro profile``;
* :mod:`repro.obs.stream` — the files a run writes, as probe
  subscribers behind a bounded buffer: :class:`JsonlSpanSink` (the one
  JSONL event row) and :class:`PerfettoWriter` (the one probe-kind ->
  Chrome ``trace_event`` translation);
* :mod:`repro.obs.export` — that translation replayed from a finished
  :class:`~repro.util.trace.TraceLog` plus registry
  (``timeline`` / ``diagnose --perfetto``), and ``validate_perfetto``;
* :mod:`repro.obs.manifest` — attributable run manifests written next
  to experiment and benchmark outputs;
* :mod:`repro.obs.health` — the online diagnosis engine: streaming
  anomaly detectors (steal storms, heartbeat gaps, partition stalls,
  starvation, stragglers, liveness stalls, SLO breaches) emitting
  bounded :class:`Incident` rings, surfaced as ``repro diagnose``.
"""

from repro.obs.export import to_perfetto, validate_perfetto, write_perfetto
from repro.obs.health import (
    INCIDENT_KINDS,
    HealthMonitor,
    Incident,
    IncidentRing,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    GRAIN_BUCKETS_S,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    merge_snapshots,
)
from repro.obs.prof import PROFILE_SCHEMA, SpanProfiler
from repro.obs.stream import (
    JsonlSpanSink,
    PerfettoWriter,
    iter_incidents_jsonl,
    iter_jsonl,
    read_profile_summary,
    write_incidents_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "LATENCY_BUCKETS_S",
    "DEPTH_BUCKETS",
    "GRAIN_BUCKETS_S",
    "merge_snapshots",
    "INCIDENT_KINDS",
    "HealthMonitor",
    "Incident",
    "IncidentRing",
    "to_perfetto",
    "write_perfetto",
    "validate_perfetto",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "validate_manifest",
    "load_manifest",
    "PROFILE_SCHEMA",
    "SpanProfiler",
    "JsonlSpanSink",
    "PerfettoWriter",
    "iter_jsonl",
    "read_profile_summary",
    "write_incidents_jsonl",
    "iter_incidents_jsonl",
]
