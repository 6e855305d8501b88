"""The Clearinghouse: worker registry, peer updates, I/O, termination.

From the paper (Section 3): "The Clearinghouse is a special program
(independent of the particular application) that is responsible for
keeping track of all worker processes participating in the job and
providing various services to the workers.  ...  a worker process
communicates with the Clearinghouse once to register, once to
unregister, and once every 2 minutes to obtain an update.  The only
other communication between the Clearinghouse and its workers is for
I/O which is buffered as much as possible."

This implementation adds the two pieces the paper asserts but does not
detail:

* **Termination**: the job's root continuation points here; the first
  result datagram wins, and a ``job_done`` broadcast tells every worker
  (current and departed) to stop.
* **Crash detection**: the 2-minute update doubles as a heartbeat; a
  worker silent for ``death_timeout_s`` is declared dead and a
  ``worker_died`` broadcast triggers the victims' redo of its stolen
  closures ("enough redundant state is maintained so that lost work can
  be redone in the event of a machine crash").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.micro import protocol as P
from repro.net.network import Network
from repro.net.rpc import RpcServer
from repro.net.socket import Socket
from repro.obs.probe import Probe
from repro.sim.core import Interrupt, Simulator
from repro.sim.resources import Signal


@dataclass
class ClearinghouseConfig:
    """Clearinghouse tunables (defaults follow the paper where given)."""

    #: Period of the worker-side update; used here to size death_timeout.
    update_interval_s: float = 120.0
    #: Silence after which a worker is declared crashed.
    death_timeout_s: float = 360.0
    #: How often the death detector looks at the heartbeat table.
    check_interval_s: float = 30.0
    #: Buffered-I/O flush threshold (lines); "buffered as much as possible".
    io_flush_lines: int = 64


class Clearinghouse:
    """One Clearinghouse instance serves one parallel job."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: str,
        job_name: str = "job",
        config: Optional[ClearinghouseConfig] = None,
        worker_port: int = P.WORKER_PORT,
        rpc_port: int = P.CLEARINGHOUSE_PORT,
        data_port: int = P.CLEARINGHOUSE_DATA_PORT,
        assign_root: bool = True,
        probe: Optional[Probe] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.job_name = job_name
        self.config = config or ClearinghouseConfig()
        self.worker_port = worker_port
        self.rpc_port = rpc_port
        self.data_port = data_port
        #: When False (checkpoint restore), nobody is handed the root —
        #: it already ran in the checkpointed past.
        self.assign_root = assign_root

        #: Live workers -> last heartbeat time.
        self.workers: Dict[str, float] = {}
        #: Cached ``sorted(self.workers)``; rebuilt on membership change.
        #: Shared (never mutated in place) across peer updates and RPC
        #: replies — heartbeats are frequent, membership changes are not.
        self._peers_sorted: Optional[List[str]] = None
        #: Departed workers that still relay fills or hold redo
        #: obligations -> last heartbeat time.  A forwarder is off the
        #: peer list but must stay under death surveillance: fills routed
        #: through a silently-crashed forwarder are dropped forever, and
        #: only a ``worker_died`` broadcast makes the victims redo the
        #: lost subtree.
        self.forwarders: Dict[str, float] = {}
        #: Every worker that ever registered (job_done goes to all).
        self.ever_registered: Set[str] = set()
        #: Workers declared dead by the death detector (never recruited).
        self.dead: Set[str] = set()
        self.root_owner: Optional[str] = None
        self.done = Signal(sim)
        self.result: Any = None
        #: Time the first worker registered / the result arrived.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

        #: Buffered worker I/O: flushed batches of (time, worker, text).
        self.io_output: List[Tuple[float, str, str]] = []
        self._io_buffer: List[Tuple[float, str, str]] = []
        self.io_flushes = 0

        #: The run's probe seam (repro.obs.probe), or None.  Observers
        #: ride the RPC handlers and the death detector's existing scan
        #: — no extra processes, purely observational.
        self._probe = probe
        if probe is not None:
            probe.bind(sim.now, "ch.bind", host, {})

        self.rpc = RpcServer(network, host, rpc_port, name=f"ch:{job_name}")
        self.rpc.register(P.RPC_REGISTER, self._rpc_register)
        self.rpc.register(P.RPC_UNREGISTER, self._rpc_unregister)
        self.rpc.register(P.RPC_UPDATE, self._rpc_update)
        self.rpc.register(P.RPC_IO_WRITE, self._rpc_io_write)

        self.data_socket = Socket(network, host, data_port)
        self._data_proc = sim.process(self._data_loop(), name=f"ch-data:{job_name}")
        self._detector_proc = sim.process(self._death_detector(), name=f"ch-detect:{job_name}")

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _rpc_register(self, name: str, _msg) -> Dict[str, Any]:
        if self.done.is_set:
            # Late arrival: the job already finished; don't admit it.
            return {
                "peers": [],
                "run_root": False,
                "done": True,
                "result": self.result,
            }
        run_root = False
        if self.root_owner is None and self.assign_root:
            self.root_owner = name
            run_root = True
        if self.started_at is None:
            self.started_at = self.sim.now
        self.workers[name] = self.sim.now
        self._peers_sorted = None
        self.forwarders.pop(name, None)  # a rejoining retiree is live again
        self.ever_registered.add(name)
        if self._probe is not None and (on := self._probe.get("ch.register")):
            on(self.sim.now, "ch.register", self.host, {"worker": name})
        self._broadcast_peers()
        return {"peers": self._sorted_workers(), "run_root": run_root, "done": False}

    def _rpc_unregister(self, args: Dict[str, Any], _msg) -> bool:
        name = args["name"]
        self.workers.pop(name, None)
        self._peers_sorted = None
        if args.get("forwarding"):
            # Departed but still forwarding/holding redo state: keep it
            # on heartbeat watch (it reports until JOB_DONE).
            self.forwarders[name] = self.sim.now
        else:
            # A re-sent unregister may downgrade forwarding: the duties
            # the first one announced (e.g. an unanswered steal request)
            # have all resolved, and the worker is about to fall silent
            # legitimately — stop watching its heartbeat.
            self.forwarders.pop(name, None)
        if self._probe is not None and (on := self._probe.get("ch.unregister")):
            on(self.sim.now, "ch.unregister", self.host, {"worker": name})
        self._broadcast_peers()
        return True

    def _rpc_update(self, name: str, _msg) -> Dict[str, Any]:
        # A heartbeat (no membership change), from a live worker or a
        # departed forwarder still under death surveillance.
        table = (self.workers if name in self.workers
                 else self.forwarders if name in self.forwarders else None)
        if table is not None:
            if self._probe is not None and (on := self._probe.get("ch.heartbeat")):
                on(self.sim.now, "ch.heartbeat", self.host,
                   {"worker": name, "gap_s": self.sim.now - table[name]})
            table[name] = self.sim.now
        elif (name in self.dead and self._probe is not None
                and (on := self._probe.get("ch.false_death"))):
            # The failure detector was wrong: a declared-dead worker is
            # still heartbeating (e.g. a partition outlasted the death
            # timeout).  The protocol absorbs this (redo duplicates are
            # rejected slot-wise); the diagnosis layer records it.
            on(self.sim.now, "ch.false_death", self.host, {"worker": name})
        # Deaths piggyback on the (reliable, retried) RPC reply: the
        # WORKER_DIED broadcast is a lone datagram, and a victim behind a
        # partition at announcement time would otherwise never learn of
        # its redo obligation.  Workers process the list idempotently.
        # ``ever``: a departed forwarder receives no peer updates, and
        # draws the adopters of a migration redo from this set.
        return {"peers": self._sorted_workers(), "done": self.done.is_set,
                "dead": sorted(self.dead), "ever": sorted(self.ever_registered)}

    def _rpc_io_write(self, args: Dict[str, Any], _msg) -> bool:
        """Buffered worker I/O: 'a user need only watch the Clearinghouse
        to see job output.'"""
        self._io_buffer.append((self.sim.now, args["worker"], args["text"]))
        if len(self._io_buffer) >= self.config.io_flush_lines:
            self.flush_io()
        return True

    def flush_io(self) -> None:
        """Flush the I/O buffer to the visible output log."""
        if self._io_buffer:
            self.io_output.extend(self._io_buffer)
            self._io_buffer.clear()
            self.io_flushes += 1

    # ------------------------------------------------------------------
    # Result collection & termination broadcast
    # ------------------------------------------------------------------

    def _data_loop(self) -> Generator:
        try:
            while True:
                msg = yield self.data_socket.recv()
                payload = msg.payload
                if not isinstance(payload, tuple) or not payload:
                    continue
                if payload[0] == P.RESULT and not self.done.is_set:
                    self.result = payload[1]
                    self.finished_at = self.sim.now
                    self.flush_io()
                    if self._probe is not None and (on := self._probe.get("ch.result")):
                        on(self.sim.now, "ch.result", self.host, {"sender": payload[2]})
                    self.done.set(payload[1])
                    self._broadcast((P.JOB_DONE, payload[1]), to=self.ever_registered)
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # Crash detection
    # ------------------------------------------------------------------

    def _death_detector(self) -> Generator:
        cfg = self.config
        try:
            while not self.done.is_set:
                yield self.sim.timeout(cfg.check_interval_s)
                if self.done.is_set:
                    return
                now = self.sim.now
                probe = self._probe
                if probe is not None:
                    # Heartbeat-gap warnings and the liveness watchdog
                    # ride this scan (read-only over the same tables).
                    if on := probe.get("ch.scan"):
                        on(now, "ch.scan", self.host,
                           {"workers": self.workers, "forwarders": self.forwarders,
                            "death_timeout_s": cfg.death_timeout_s,
                            "done": self.done.is_set})
                    last_seen = {**self.workers, **self.forwarders}
                dead = [
                    name
                    for name, last in self.workers.items()
                    if now - last > cfg.death_timeout_s
                ]
                for name in dead:
                    del self.workers[name]
                    self._peers_sorted = None
                # Departed-but-forwarding workers get the same watch: a
                # forwarder that crashes silently would drop every fill
                # routed through it, and nobody redoes those without a
                # death broadcast.
                dead_forwarders = [
                    name
                    for name, last in self.forwarders.items()
                    if now - last > cfg.death_timeout_s
                ]
                for name in dead_forwarders:
                    del self.forwarders[name]
                for name in dead + dead_forwarders:
                    self.dead.add(name)
                    if probe is not None and (on := probe.get("ch.worker_died")):
                        on(now, "ch.worker_died", self.host,
                           {"worker": name, "last_seen": last_seen[name]})
                    # To *everyone*, not just current registrants: a
                    # gracefully-departed victim still holds the redo
                    # obligation for closures this worker stole from it,
                    # and must learn of the death to discharge it.
                    self._broadcast((P.WORKER_DIED, name), to=self.ever_registered)
                    if name == self.root_owner and not self.done.is_set:
                        self._reassign_root()
                if dead:
                    self._broadcast_peers()
        except Interrupt:
            return

    def _reassign_root(self) -> None:
        """The root owner died: restart the root task on a survivor.

        If the root closure had in fact already executed, the redo is
        wasted work whose duplicate sends are dropped at the receivers —
        sound, merely inefficient (documented in DESIGN.md).
        """
        survivors = sorted(self.workers)
        if survivors:
            # The ping names the appointee: a survivor that is secretly
            # mid-departure (its unregister still in flight) parks the
            # assignment and honors it after rejoining, when the
            # register reply can no longer re-grant the root.
            self.root_owner = survivors[0]
            self._post(survivors[0], (P.RUN_ROOT, survivors[0]))
        else:
            # No registered survivors — but retired machines may still
            # be listening (an idle NOW machine stays available to the
            # job until JOB_DONE).  Clear the owner so the first worker
            # to (re-)register inherits the root, and ping every
            # ex-member to rejoin; pings to crashed hosts are dropped at
            # the NIC, and a "dead" member may in fact be a live retiree
            # whose silence was a partition-delayed unregister — skipping
            # it would strand the job.  Without this, a schedule where
            # the root owner fail-stops after every other worker retired
            # strands the job forever.
            self.root_owner = None
            for name in sorted(self.ever_registered):
                self._post(name, (P.RUN_ROOT, None))

    # ------------------------------------------------------------------
    # Broadcast helpers
    # ------------------------------------------------------------------

    def _sorted_workers(self) -> List[str]:
        """The (cached) sorted live-worker list.  Callers must not mutate
        the returned list: it is shared across replies and broadcasts."""
        peers = self._peers_sorted
        if peers is None:
            peers = self._peers_sorted = sorted(self.workers)
        return peers

    def _broadcast_peers(self) -> None:
        """One membership snapshot, fanned out as a batch: the sorted
        peer list and the payload tuple are built once and shared across
        every recipient's datagram."""
        peers = self._sorted_workers()
        if self._probe is not None and (on := self._probe.get("ch.peer_update")):
            # The checker pairs these with per-host deliveries to assert
            # that no peer update reaches a worker declared dead; the
            # live-participants series samples the list's length.
            on(self.sim.now, "ch.peer_update", self.host, {"peers": peers})
        self._broadcast((P.PEER_UPDATE, peers), to_sorted=peers)

    def _broadcast(self, payload: tuple, to: Optional[Set[str]] = None,
                   to_sorted: Optional[List[str]] = None) -> None:
        if to_sorted is None:
            to_sorted = sorted(to) if to is not None else self._sorted_workers()
        for name in to_sorted:
            self._post(name, payload)

    def _post(self, worker: str, payload: tuple) -> None:
        # Worker name == host name in this model (one worker per host).
        # Fire-and-forget: the Clearinghouse never waits on its sends.
        self.network.post(
            self.host, self.data_port, worker, self.worker_port, payload,
            P.estimate_size(payload),
        )

    def stop(self) -> None:
        """Tear the Clearinghouse down (test/maintenance path)."""
        self.rpc.stop()
        self._data_proc.interrupt("ch-stop")
        self._detector_proc.interrupt("ch-stop")
        self.data_socket.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Clearinghouse {self.job_name}@{self.host} workers={len(self.workers)} "
            f"done={self.done.is_set}>"
        )
