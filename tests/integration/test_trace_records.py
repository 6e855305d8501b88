"""A trace record keeps its fields, not its dict.

The log stores each traced kind's kept fields' values
(``repro.obs.probe.TRACED``) and ``TraceEvent.detail`` rebuilds the
dict on each read.  Two pins:

* the record-equivalence oracle: a subscriber behind the log keeps the
  dict each site said; every record's ``detail`` must equal it minus the
  observer-only fields (italic in ``docs/observability.md``), same keys
  in the same order, and every record must be stored as its kind's
  fields (the drop accounting's ``TraceLog.emit`` records included);
* the bytes a record retains in a traced fib run, by ``tracemalloc``.

Run as a script for a longer sweep over ``mixed`` seeds of fib, shrink
and knary on 8 workers (CI's fuzz job):
``PYTHONPATH=src python tests/integration/test_trace_records.py 200 500 100``.
"""

import sys
import tracemalloc

from repro.apps.fib import fib_job
from repro.check import app_spec
from repro.obs.probe import TRACED
from repro.phish import run_job

#: The fields a site says that the log never keeps.
OBSERVER_FIELDS = {
    "net.send": ("size",), "net.recv": ("latency_s",), "net.partition": ("msg",),
    "net.loss": ("msg",), "net.drop.down": ("msg",), "net.drop.unbound": ("msg",),
    "ch.worker_died": ("last_seen",), "jobq.submit": ("depth",),
    "jobq.grant": ("wait_s",), "jobq.done": ("depth",),
}

#: Retained bytes per record of a traced fib(18) run on 8 workers:
#: 148.1 on CPython 3.10.13, 149.3 on 3.11.7 and 3.12.1 (a detail dict
#: per record took 335.8 / 289.1 / 289.1).
BYTES_PER_RECORD = 150

#: (app, workers) the oracle sweeps, in the script's argument order.
SWEEP = (("fib", 4), ("shrink", 4), ("knary", 8))


class SaidDicts:
    """A ``metrics=`` stand-in: subscribes behind the log to every
    traced kind and keeps each event as its site said it."""

    def __init__(self):
        self.said = []

    def subscribe(self, probe):
        probe.subscribe(dict.fromkeys(TRACED, self.on))

    def on(self, t, kind, source, detail):
        self.said.append((t, kind, source, detail))


def _family(kind):
    return "worker.exit.*" if kind.startswith("worker.exit.") else kind


def mismatches(app, seed, n_workers):
    """Records of one checked ``mixed`` run that differ from what their
    site said, as printable lines; and the kinds the run recorded."""
    said = SaidDicts()
    run = app_spec(app).check(seed, n_workers, metrics=said)
    sites = iter(said.said)
    bad, kinds = [], set()
    for ev in run.trace:
        kind = _family(ev.kind)
        kinds.add(kind)
        if ev.fields != (TRACED[kind] or None):
            bad.append(f"{ev!r} is stored as {ev.fields}")
        if kind == "closure.lost" and ev.detail["reason"].startswith("net-"):
            continue  # the drop accounting's TraceLog.emit: no site said it
        t, site_kind, source, detail = next(sites)
        kept = {k: v for k, v in detail.items()
                if k not in OBSERVER_FIELDS.get(kind, ())}
        if ((ev.time, ev.kind, ev.source) != (t, site_kind, source)
                or list(ev.detail.items()) != list(kept.items())):
            bad.append(f"{ev!r} != {(t, site_kind, source, kept)!r}")
    bad.extend(f"said, not recorded: {rest!r}" for rest in sites)
    return [f"{app} seed {seed}: {line}" for line in bad], kinds


def sweep(counts):
    bad, kinds = [], set()
    for (app, n_workers), n in zip(SWEEP, counts):
        for seed in range(n):
            lines, seen = mismatches(app, seed, n_workers)
            bad += lines
            kinds |= seen
    return bad, kinds


def test_every_record_equals_what_its_site_said():
    bad, kinds = sweep((12, 12, 4))
    assert bad == []
    assert {"closure.lost", "redo", "migrate.in", "migrate.out",
            "steal.reclaim", "net.drop.down"} <= kinds


def bytes_per_record(n=18):
    """Bytes a traced fib(*n*) run's records free when dropped."""
    tracemalloc.start()
    try:
        res = run_job(fib_job(n), n_workers=8, seed=1, trace=True)
        records = res.trace.handover()
        count = len(records)
        before = tracemalloc.get_traced_memory()[0]
        del records
        return (before - tracemalloc.get_traced_memory()[0]) / count
    finally:
        tracemalloc.stop()


def test_a_record_keeps_its_fields_not_its_dict():
    per_record = bytes_per_record()
    assert per_record <= BYTES_PER_RECORD, f"{per_record:.1f} bytes per record"


if __name__ == "__main__":
    counts = [int(a) for a in sys.argv[1:]] or [20, 20, 10]
    bad, kinds = sweep(counts)
    print(f"{dict(zip((a for a, _ in SWEEP), counts))} seeds: {len(bad)} mismatched "
          f"records; traced kinds never recorded: {sorted(set(TRACED) - kinds)}")
    print("\n".join(bad[:20]))
    if bad:
        sys.exit("a trace record differs from what its site said")
