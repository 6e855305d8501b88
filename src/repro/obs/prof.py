"""Critical-path span/DAG profiler (``repro profile``).

The paper's evaluation is an accounting argument: execution time
decomposed into useful work (T1), critical-path span (T-inf), and the
scheduling overheads in between.  :class:`SpanProfiler` performs that
accounting *online*: it subscribes to the run's probe seam
(:mod:`repro.obs.probe` — worker, Clearinghouse and network steps) and
reduces the task-lifecycle span stream to

* **T1** — total executed work, including redone tasks;
* **T-inf** — the longest dependency path through the computation DAG,
  weighted by per-task charged seconds, plus the matching node-depth
  (``max_depth``) for closed-form pins;
* **per-worker wall-clock attribution** — working / stealing /
  migrating / protocol / idle buckets, the paper's Table-style
  breakdown of where each participant's time went.

The DAG is never materialised.  Every spawn, successor creation, and
argument send of a task happens *synchronously* while its thread
function runs (before the cycle-charging yield), so by ``task.done`` all
out-edges of the finishing task are known and its finish-span can be
pushed forward immediately::

    span(task)  = max over predecessors(pred finish span) + dur(task)
    depth(task) = max over predecessors(pred depth) + 1

State is therefore O(live closures): pending base spans for
not-yet-executed closures, popped at their own ``task.done``.  (The one
deliberate leak: a *duplicate* send from a redone parent to an
already-finished target re-creates that target's pending entry, which
nobody pops — bounded by the run's duplicate-send count, which is zero
outside fault schedules.)

The profiler is a pure reducer.  The files a profiled run writes are
its *sinks* (:mod:`repro.obs.stream`): subscribers of the same probe,
subscribed beside the profiler and closed with its summary, so
million-task runs profile in O(buffer) memory.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

PROFILE_SCHEMA = "repro.profile/1"

#: Wall-clock attribution buckets, in report order.  ``idle`` is the
#: residual: participation wall minus the four measured buckets.
BUCKETS: Tuple[str, ...] = ("working", "stealing", "migrating", "protocol")

#: Summary entries that are plain event counts: the profiler attributes
#: of the same names.
COUNTERS: Tuple[str, ...] = (
    "nodes", "edges", "redo_copies", "steal_requests", "tasks_stolen",
    "tasks_migrated", "heartbeats", "msgs", "msg_bytes", "control_events")


class SpanProfiler:
    """Online critical-path + overhead-attribution profiler.

    One instance observes one simulation (all workers share it — the
    cluster is a single discrete-event process space, so hook calls
    arrive in global sim-time order, which is what lets *sinks* be
    forward-only writers).
    """

    def __init__(self, sinks: Sequence[Any] = ()) -> None:
        #: Stream sinks (``subscribe(probe)`` / ``close(summary)``).
        self.sinks = tuple(sinks)
        # -- DAG aggregates ------------------------------------------------
        self.t1_s = 0.0          #: total executed work (includes redone)
        self.t_inf_s = 0.0       #: critical-path span, seconds
        self.nodes = 0           #: tasks executed
        self.edges = 0           #: spawn/successor/send dependency edges
        self.max_depth = 0       #: critical-path length in nodes
        self.redo_copies = 0     #: re-keyed redo copies observed
        # -- protocol counters ---------------------------------------------
        self.steal_requests = 0
        self.tasks_stolen = 0
        self.tasks_migrated = 0
        self.heartbeats = 0
        self.msgs = 0
        self.msg_bytes = 0
        self.control_events = 0
        # -- live DAG state (O(live closures)) -----------------------------
        self._base: Dict[Any, float] = {}    # cid -> max predecessor span
        self._bdepth: Dict[Any, int] = {}    # cid -> max predecessor depth
        # worker -> out-edges so far of the task its thread fn is in
        self._exec: Dict[str, Optional[List[Any]]] = {}
        # -- per-worker attribution ----------------------------------------
        self._buckets: Dict[str, Dict[str, float]] = {}
        self._open: Dict[Tuple[str, str], float] = {}   # (worker, phase) -> t0
        self._span_open: Dict[str, float] = {}          # worker -> t0
        self._wall: Dict[str, float] = {}
        self._exit: Dict[str, str] = {}
        self._end = 0.0
        self._finalized = False

    def subscribe(self, probe: Any) -> None:
        """Feed the profile from a run's :class:`~repro.obs.probe.Probe`.
        Every reducer below is a subscriber, called as
        ``(t, kind, worker, detail)``."""
        probe.subscribe({
            "worker.begin": self.worker_begin,
            "worker.exit.*": self.worker_exit,
            "worker.heartbeat": self.heartbeat,
            "phase.begin": self.phase_begin,
            "phase.end": self.phase_end,
            "closure.exec": self.task_begin,
            "closure.new": self.edge,
            "arg.send": self.edge,
            "task.done": self.task_done,
            "task.charged": self.task_charged,
            "steal.request": self.steal_request,
            "steal.adopt": self.steal_adopt,
            "steal.reclaim": self.redo,
            "redo": self.redo,
            "migrate.reoffer": self.redo,
            "migrate.acked": self.migrate_out,
            "ch.register": self.control,
            "ch.worker_died": self.control,
            "ch.result": self.control,
            "net.send": self.msg,
        })
        for sink in self.sinks:
            sink.subscribe(probe)

    # ------------------------------------------------------------------
    # Execution spans and DAG edges (worker run loop)
    # ------------------------------------------------------------------

    def task_begin(self, t: float, kind: str, worker: str, d: dict) -> None:
        """``closure.exec``: the thread function is about to run.  It
        runs synchronously up to ``task.done``, so every closure it
        creates or sends to in between is an out-edge of this task."""
        self._exec[worker] = []

    def edge(self, t: float, kind: str, worker: str, d: dict) -> None:
        """``closure.new`` / ``arg.send``: a dependency edge when a task
        is executing on *worker* (redo copies and the root are minted
        outside task execution and never land here)."""
        out = self._exec.get(worker)
        if out is not None:
            out.append(d["cid"])

    def task_done(self, t: float, kind: str, worker: str, d: dict) -> None:
        """The thread function returned; ``service_s`` is the task's
        charged seconds.  All out-edges are known — propagate span and
        depth, which is what lets this node's span finish immediately."""
        cid = d["cid"]
        dur_s = d["service_s"]
        out = self._exec.get(worker) or ()
        self._exec[worker] = None
        self.edges += len(out)
        self._open[(worker, "working")] = t
        span = self._base.pop(cid, 0.0) + dur_s
        depth = self._bdepth.pop(cid, 0) + 1
        self.t1_s += dur_s
        self.nodes += 1
        if span > self.t_inf_s:
            self.t_inf_s = span
        if depth > self.max_depth:
            self.max_depth = depth
        base, bdepth = self._base, self._bdepth
        for nxt in out:
            if span > base.get(nxt, -1.0):
                base[nxt] = span
            if depth > bdepth.get(nxt, 0):
                bdepth[nxt] = depth

    def task_charged(self, t: float, kind: str, worker: str, d: dict) -> None:
        """The cycle-charging yield completed (or was crash-interrupted):
        the exclusive "working" interval ends here."""
        self._close_phase(t, worker, "working")

    def redo(self, t: float, kind: str, worker: str, d: dict) -> None:
        """Re-keyed redo copies: each copy inherits the original's
        pending predecessor span/depth, so redone subtrees extend the
        critical path instead of restarting it at zero.  (A suspended
        closure re-homed under its own identity keeps its entry.)"""
        pairs = [(o, c) for o, c in d["pairs"] if o != c]
        for orig, copy in pairs:
            base = self._base.pop(orig, None)
            if base is not None and base > self._base.get(copy, -1.0):
                self._base[copy] = base
            bdepth = self._bdepth.pop(orig, None)
            if bdepth is not None and bdepth > self._bdepth.get(copy, 0):
                self._bdepth[copy] = bdepth
        self.redo_copies += len(pairs)

    # ------------------------------------------------------------------
    # Wall-clock attribution phases and participation spans
    # ------------------------------------------------------------------

    def phase_begin(self, t: float, kind: str, worker: str, d: dict) -> None:
        self._open[(worker, d["phase"])] = t

    def phase_end(self, t: float, kind: str, worker: str, d: dict) -> None:
        self._close_phase(t, worker, d["phase"])

    def _close_phase(self, t: float, worker: str, phase: str) -> None:
        t0 = self._open.pop((worker, phase), None)
        if t0 is None:
            return
        buckets = self._buckets.get(worker)
        if buckets is None:
            buckets = self._buckets[worker] = dict.fromkeys(BUCKETS, 0.0)
        buckets[phase] += t - t0
        if t > self._end:
            self._end = t

    def worker_begin(self, t: float, kind: str, worker: str, d: dict) -> None:
        """A participation span opens (start, or rejoin after retiring),
        inside its "protocol" phase: the registration handshake."""
        self._span_open.setdefault(worker, t)
        self._buckets.setdefault(worker, dict.fromkeys(BUCKETS, 0.0))
        self._open[(worker, "protocol")] = t

    def worker_exit(self, t: float, kind: str, worker: str, d: dict) -> None:
        self._close_span(t, worker, kind[len("worker.exit."):])

    def _close_span(self, t: float, worker: str, reason: str) -> None:
        """The participation span closes; any phase the exit interrupted
        (a crash mid-protocol, a teardown mid-steal) closes with it."""
        for key in [k for k in self._open if k[0] == worker]:
            self._close_phase(t, worker, key[1])
        t0 = self._span_open.pop(worker, None)
        if t0 is not None:
            self._wall[worker] = self._wall.get(worker, 0.0) + (t - t0)
        self._exit[worker] = reason
        if t > self._end:
            self._end = t

    # ------------------------------------------------------------------
    # Protocol counters: steal / migrate / Clearinghouse / network
    # ------------------------------------------------------------------

    def steal_request(self, t: float, kind: str, thief: str, d: dict) -> None:
        self.steal_requests += 1

    def steal_adopt(self, t: float, kind: str, thief: str, d: dict) -> None:
        self.tasks_stolen += d["n"]

    def migrate_out(self, t: float, kind: str, worker: str, d: dict) -> None:
        self.tasks_migrated += d["n"]

    def heartbeat(self, t: float, kind: str, worker: str, d: dict) -> None:
        """Peer-update RPC round-trip (counted, not wall-attributed: the
        update loop runs concurrently with the run loop, so its time
        overlaps the run-loop buckets)."""
        self.heartbeats += 1

    def control(self, t: float, kind: str, host: str, d: dict) -> None:
        """Clearinghouse lifecycle instant (register, death, result)."""
        self.control_events += 1

    def msg(self, t: float, kind: str, src: str, d: dict) -> None:
        """One wire datagram (the network's send hot path — counter only)."""
        self.msgs += 1
        self.msg_bytes += d["size"]

    # ------------------------------------------------------------------
    # Finalisation and reporting
    # ------------------------------------------------------------------

    def finalize(self, t_end: Optional[float] = None) -> None:
        """Close open phases/spans at *t_end*, then close the sinks with
        the summary.  Idempotent."""
        if self._finalized:
            return
        if t_end is None:
            t_end = self._end
        for worker, _t0 in sorted(self._span_open.items()):
            self._close_span(t_end, worker, "running")
        for worker, phase in sorted(self._open):
            self._close_phase(t_end, worker, phase)
        self._finalized = True
        for sink in self.sinks:
            sink.close(self.summary())

    def worker_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker attribution: wall, the four measured buckets, and
        the idle residual (clamped at zero — bucket intervals recorded
        by concurrent processes can marginally overlap on fault paths)."""
        report: Dict[str, Dict[str, Any]] = {}
        for worker in sorted(self._buckets):
            buckets = self._buckets[worker]
            wall = self._wall.get(worker, 0.0)
            measured = sum(buckets.values())
            row: Dict[str, Any] = {"wall_s": wall}
            for name in BUCKETS:
                row[f"{name}_s"] = buckets[name]
            row["idle_s"] = max(0.0, wall - measured)
            row["exit"] = self._exit.get(worker, "running")
            report[worker] = row
        return report

    @property
    def parallelism(self) -> float:
        return self.t1_s / self.t_inf_s if self.t_inf_s > 0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-ready profile summary (deterministic key order)."""
        return {
            "schema": PROFILE_SCHEMA,
            "t1_s": self.t1_s,
            "t_inf_s": self.t_inf_s,
            "parallelism": self.parallelism,
            "max_depth": self.max_depth,
            **{name: getattr(self, name) for name in COUNTERS},
            "workers": self.worker_report(),
        }

    def bound_report(self, makespan_s: float, n_workers: int, lam_s: float,
                     startup_s: float = 0.0) -> Dict[str, float]:
        """Efficiency of a finished run against the two analytical
        references: the greedy bound ``T1/P + T-inf`` and the Gast et
        al. latency-aware bound (see ``repro.experiments.latency``)."""
        from repro.experiments.latency import gast_bound_s

        greedy = self.t1_s / n_workers + self.t_inf_s
        gast = gast_bound_s(self.t1_s, n_workers, lam_s,
                            max(1, self.nodes), startup_s=startup_s)
        return {
            "makespan_s": makespan_s,
            "greedy_bound_s": greedy,
            "vs_greedy": makespan_s / greedy if greedy > 0 else float("inf"),
            "gast_bound_s": gast,
            "vs_gast": makespan_s / gast if gast > 0 else float("inf"),
            "efficiency": (self.t1_s / (n_workers * makespan_s)
                           if makespan_s > 0 else 0.0),
        }

