"""The participating worker process: LIFO execution, FIFO random stealing.

One :class:`Worker` corresponds to one "participating process" of the
paper: an instance of the application program running on one
workstation.  It is realised as three simulation processes sharing the
worker's state:

* the **run loop** — pops ready tasks (LIFO) and executes them; when the
  ready list is empty, turns thief and steals (FIFO, random victim);
  after enough consecutive failed steals it concludes the job's
  parallelism has shrunk and retires, returning its workstation to the
  macro-level scheduler;
* the **net loop** — services the worker's UDP port: steal requests
  (answered immediately from the tail of the ready list, which is what
  keeps thieves from waiting on a busy victim's task boundary), incoming
  argument sends, migrations, and Clearinghouse broadcasts;
* the **update loop** — fetches a peer update from the Clearinghouse
  every ``update_interval_s`` (the paper's 2 minutes); this doubles as
  the heartbeat used for crash detection.

Fault-tolerance machinery ("enough redundant state is maintained so that
lost work can be redone"): a victim remembers every closure it gave a
thief; when the Clearinghouse announces a worker's death, victims
re-enqueue copies of the closures that worker had stolen.  Duplicate
argument sends produced by redo are deduplicated at the receiving slot.

Graceful departures (owner reclaim, retirement) migrate the ready list
and suspended closures to a peer; the departing worker's net loop lives
on as a tiny *forwarder* so in-flight and future sends still arrive (the
paper states data migrates before termination but leaves the forwarding
protocol unspecified; DESIGN.md documents this choice).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.cluster.workstation import Workstation
from repro.micro import protocol as P
from repro.micro.deque import ReadyDeque
from repro.micro.initiation import make_initiation
from repro.micro.stats import WorkerStats
from repro.micro.steal import make_victim_policy
from repro.net.network import Network
from repro.errors import RpcError
from repro.net.rpc import RpcClient
from repro.net.socket import Socket
from repro.obs.probe import Probe
from repro.sim.core import EXPIRED, Event, Interrupt, Process, Simulator, Within
from repro.sim.resources import Signal
from repro.tasks.closure import CLEARINGHOUSE_TARGET, Closure, ClosureId, Continuation
from repro.tasks.program import Frame, JobProgram


@dataclass
class WorkerConfig:
    """Tunables of the micro-level scheduler.

    Defaults follow the paper where it gives numbers (2-minute
    Clearinghouse updates) and use LAN-plausible values elsewhere.
    """

    #: How long a thief waits for a steal reply before giving up on it.
    steal_timeout_s: float = 0.05
    #: Pause after a failed steal attempt before choosing a new victim.
    steal_backoff_s: float = 0.005
    #: Consecutive failed steals after which the worker retires (None:
    #: never retire — the mode used for fixed-P speedup measurements).
    retire_after_failed_steals: Optional[int] = None
    #: Peer-update / heartbeat period (paper: every 2 minutes).
    update_interval_s: float = 120.0
    #: One-time process startup cost (fork/exec, binary load, init).
    startup_cost_s: float = 0.25
    #: Task-list discipline ("lifo"/"fifo" each) — the paper uses
    #: LIFO execution with FIFO stealing; others are for ablations.
    exec_order: str = "lifo"
    steal_order: str = "fifo"
    #: Victim selection: "random" (paper), "round-robin" (ablation), or
    #: "low-latency" (prefer victims with the lowest observed steal RTT;
    #: see repro.micro.steal for the full registry).
    victim_policy: str = "random"
    #: How much work one grant carries: "one" (the paper's protocol) or
    #: "half" (up to half of the victim's ready list, amortising the
    #: steal round-trip over high-latency links).
    steal_amount: str = "one"
    #: Proactive (early) stealing: after finishing a task, if the ready
    #: list is at or below this depth, fire a no-wait steal request so
    #: the reply can arrive while the tail of local work still runs.
    #: 0 disables (the paper steals only when already idle).
    proactive_threshold: int = 0
    #: When set, the resilient protocol: steal grants must be acknowledged
    #: by the thief, and a grant unacked after this many seconds is
    #: presumed lost in flight (lossy or partitioned link) and reclaimed as
    #: redo copies; non-local argument sends (and the job result, which the
    #: Clearinghouse confirms via the done broadcast rather than an ack)
    #: are retransmitted at this period until acknowledged.  None keeps
    #: the paper's protocol: only a thief's *death* triggers redo, and a
    #: grant or an argument lost on the wire hangs the job (the first hole
    #: the partition fuzz scenario found).
    ack_timeout_s: Optional[float] = None
    #: Remember completed successor ids to deduplicate crash-redo sends.
    #: Costs memory proportional to task count; enable for fault runs.
    track_completed: bool = False
    #: Worker protocol port (macro scheduler gives each job its own).
    port: int = 7000
    #: Scheduling mode: the paper's idle-initiated work stealing, or a
    #: baseline (repro.micro.initiation.MODES).
    mode: str = "steal"
    #: push mode: keep at most this many ready tasks before exporting.
    push_threshold: int = 4
    #: push mode: period of the load broadcast.
    load_broadcast_s: float = 0.25
    #: Clearinghouse ports this job's workers talk to.
    ch_rpc_port: int = 6000
    ch_data_port: int = 6001


class Worker:
    """One participant of one parallel job."""

    def __init__(
        self,
        sim: Simulator,
        workstation: Workstation,
        network: Network,
        job: JobProgram,
        clearinghouse_host: str,
        config: Optional[WorkerConfig] = None,
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
        initial_state: Optional[tuple] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        self.sim = sim
        self.workstation = workstation
        self.network = network
        self.job = job
        #: The job's thread registry, which _execute reads once per task.
        self._threads = job.program.threads
        self.ch_host = clearinghouse_host
        self.config = config or WorkerConfig()
        self.rng = rng or random.Random(0)
        #: Worker identity; one worker per workstation, so the host name.
        self.name = name or workstation.name
        self.host = workstation.name

        self.stats = WorkerStats(self.name)
        self.deque = ReadyDeque(self.config.exec_order, self.config.steal_order)
        #: Suspended (waiting) closures created here, keyed by cid —
        #: including closures migrated in from departing peers.
        self.suspended: Dict[ClosureId, Closure] = {}
        #: Redundant state: closure copies handed to each thief, for redo.
        self.outstanding: Dict[str, Dict[ClosureId, Closure]] = {}
        #: Completed-successor ids (dedup of crash-redo sends); only
        #: populated when config.track_completed.
        self.completed: Set[ClosureId] = set()
        #: After departure: where each of my suspended closures went.
        self.forward_map: Dict[ClosureId, str] = {}
        #: Redundant state for *migration* redo, symmetric to
        #: ``outstanding``: every closure this (departed) worker handed
        #: to a peer, keyed by the adopter.  If the adopter fail-stops,
        #: the batch is re-migrated to a survivor; without this, work
        #: evacuated by a graceful departure is unrecoverable when its
        #: new home crashes (the paper's redo only covers stolen work).
        self.migrated: Dict[str, List[Closure]] = {}
        #: True once this worker departed while still holding relay or
        #: redo duties (forward_map / outstanding / migrated).  A
        #: forwarder keeps heartbeating the Clearinghouse until JOB_DONE
        #: so its host's crash is detected like any worker's — fills
        #: routed through a silently-dead forwarder would otherwise be
        #: dropped forever and deadlock the job.
        self._forwarding = False
        #: Fills this forwarder relayed to migrated closures, retained so
        #: a re-migration can replay any that were in flight (and so
        #: dropped) when the adopter crashed.  Duplicate replays are
        #: rejected slot-wise at the receiver.
        self._forwarded: Dict[ClosureId, List[tuple]] = {}
        #: While a departure migration is in flight: argument sends to
        #: the suspended closures being handed off are parked here until
        #: the migration's outcome is known (None outside that window).
        #: Filling the shared closure object mid-handoff would race with
        #: the peer's adoption: the closure could turn ready *here*, be
        #: re-enqueued into the already-drained deque, and strand an
        #: unfillable copy at the peer.
        self._fill_hold: Optional[List[tuple]] = None
        self.peers: List[str] = [self.name]
        #: Steal victims: the peer list sorted with this worker excluded,
        #: rebuilt only by :meth:`_set_peers` (every steal attempt reads
        #: it).  A tuple, so a victim policy cannot mutate it.
        self._victims: Tuple[str, ...] = ()
        #: Every peer name this worker has ever seen registered.  The
        #: live ``peers`` list shrinks as workers retire, but retired
        #: machines stay reachable and rejoin when offered work — so
        #: migration handoffs draw their candidates from this set (minus
        #: observed deaths), not from the current registration snapshot.
        self._peers_seen: Set[str] = {self.name}
        self.victim_policy = make_victim_policy(self.config.victim_policy, self.rng)
        #: The scheduling mode's hooks (repro.micro.initiation).
        self.initiation = make_initiation(self)

        #: The run's probe seam (repro.obs.probe): every protocol step is
        #: reported through it under one guard per site; None (nobody
        #: observes) costs one attribute load and a pointer compare.
        self._probe = probe
        if probe is not None:
            probe.bind(sim.now, "worker.bind", self.name,
                       {"policy": self.config.victim_policy})
        #: Steal-request send times, for request→grant latency (kept even
        #: without a registry: WorkerStats carries the per-worker sums).
        self._steal_sent: Dict[int, float] = {}
        #: Steal requests with no reply yet, req_id -> victim.  Unlike
        #: ``_steal_sent`` (dropped as soon as the thief stops waiting),
        #: an entry lives until the victim replies or dies: a request can
        #: still be answered by a grant after this worker departed, and a
        #: thief that *crashes* in that window silently drops the grant.
        #: The victim only regenerates stolen work when the thief is
        #: declared dead, so a departing thief with an open request must
        #: unregister as a forwarder and stay under Clearinghouse death
        #: surveillance (bug 12: a crash racing a reclaim, shrink seed
        #: 36291, lost the grant's redo obligation and deadlocked).
        self._steal_open: Dict[int, str] = {}

        self.done = False
        self.result: Any = None
        self.retired = False
        self.departed = False  # retired or evacuated (run loop gone)
        self.executing = False
        self._failed_steals = 0
        self._seq = 0
        #: Outstanding steal attempts: req_id -> event the run loop awaits.
        self._steal_waiters: Dict[int, Event] = {}
        self._steal_seq = 0
        #: Grants awaiting the thief's GRANT_ACK, keyed by
        #: (thief, req_id) -> granted closures (grant-ack mode only).
        self._pending_grants: Dict[tuple, List[Closure]] = {}
        #: Deaths already processed; redo must stay idempotent now that
        #: death notices arrive both as a broadcast datagram and
        #: piggybacked on every heartbeat reply.
        self._seen_deaths: Set[str] = set()
        #: Reliable argument sends awaiting their ARG_ACK, keyed by seq
        #: (arg-retry mode only), plus unconfirmed RESULT values.
        self._pending_args: Dict[int, tuple] = {}
        self._pending_results: List[Any] = []
        self._arg_seq = 0
        self._arg_flusher_on = False
        #: Handoffs of straggler work currently in flight (late grants
        #: being re-homed, redo batches seeking an adopter).  The
        #: departure linger must not tear the worker down while one is
        #: active: the closures it carries are acked to their victim, so
        #: nobody else would ever regenerate them.
        self._handoffs_active = 0
        #: Acked migration offers this worker has adopted, keyed by
        #: (sender, offer seq).  A retransmitted MIGRATE (our ack died
        #: on a severed or congested link) is re-acked without
        #: re-adopting.  Only offers carrying a seq dedup — a mode's
        #: fire-and-forget migrations are never retransmitted, and the
        #: same closure may legitimately ping-pong between two workers.
        self._adopted_batches: Set[Tuple[str, int]] = set()
        self._migrate_seq = 0
        #: A RUN_ROOT ping arrived while the retirement was still
        #: unwinding (the unregister RPC can sit in retry past the death
        #: timeout when a partition spans it), or named us as appointed
        #: owner.  The ping is fire-and-forget and never re-sent, so it
        #: is remembered here ("recruit" or "assigned") and answered
        #: when the departure completes / the rejoin registers.
        self._recruit_pending: Optional[str] = None
        #: Stop-the-world flag for checkpointing: the run loop idles and
        #: steal requests are refused while set.
        self.paused = False
        #: Set when the run loop has ended for any reason; the macro
        #: scheduler's JobManager waits on this.
        self.finished = Signal(sim)
        #: Why the run loop ended: "done", "retired", "reclaimed", "crashed".
        self.exit_reason: Optional[str] = None

        if initial_state is not None:
            # Checkpoint restore: preload frozen task state.  Pushing in
            # reverse recreates the original head-to-tail order; the
            # sequence counter resumes above every id ever issued so
            # restored cids never collide with new ones.
            ready, suspended_list, seq = initial_state
            for closure in reversed(list(ready)):
                self.deque.push(closure)
            for closure in suspended_list:
                self.suspended[closure.cid] = closure
            self._seq = max(self._seq, int(seq))
            self._note_in_use()

        self.socket = Socket(network, self.host, self.config.port)
        #: ``_ch_call(method, args)``: one RPC to this job's Clearinghouse
        #: (raises RpcError).
        self._ch_call = RpcClient(
            network, self.host, self.ch_host, self.config.ch_rpc_port).call
        self._run_proc = self._spawn(self._participate(), "worker-run")
        self._net_proc = self._spawn(self._net(), "worker-net")
        self._update_proc = self._spawn(self._updates(), "worker-upd")
        start = self.initiation.start
        self._initiation_proc = None if start is None else start(self)

    def _spawn(self, steps: Generator, name: str) -> Process:
        """Start one of this worker's processes; it dies with the machine."""
        proc = self.sim.process(steps, name=f"{name}@{self.name}")
        self.workstation.register_process(proc)
        return proc

    # ------------------------------------------------------------------
    # SchedulerOps interface (used by Frame)
    # ------------------------------------------------------------------

    def new_cid(self) -> ClosureId:
        self._seq += 1
        cid = (self.name, self._seq)
        if self._probe is not None and (on := self._probe.get("closure.new")):
            # Every closure birth on this worker (spawn, successor, root,
            # crash-redo copy) passes through here: the conservation
            # invariant's "created" set.
            on(self.sim.now, "closure.new", self.name, {"cid": cid})
        return cid

    def enqueue_ready(self, closure: Closure, local: bool = False) -> None:
        """Make a ready closure schedulable.

        Under the paper's work stealing this pushes at the head of the
        local ready list.  A mode that ships enabled tasks elsewhere
        takes them instead (``local`` forces local placement — used when
        adopting a task we just fetched, so it is not bounced straight
        back).
        """
        if not local and (ship := self.initiation.ship) is not None:
            ship(self, closure)
            return
        self.deque.push(closure)
        # High-water mark, taken at every growth point: a mode that ships
        # a locally filled closure away mid-task makes the count non-
        # monotone within a task, so it cannot be sampled once per task.
        depth = len(self.deque)
        n = depth + len(self.suspended) + self.executing
        if n > self.stats.max_tasks_in_use:
            self.stats.max_tasks_in_use = n
        if self._probe is not None and (on := self._probe.get("deque.depth")):
            on(self.sim.now, "deque.depth", self.name, {"deque": depth})

    def register_suspended(self, closure: Closure) -> None:
        """Park a successor closure until its missing arguments arrive."""
        self.suspended[closure.cid] = closure
        n = len(self.deque) + len(self.suspended) + self.executing
        if n > self.stats.max_tasks_in_use:
            self.stats.max_tasks_in_use = n
        if self._probe is not None and (on := self._probe.get("closure.suspend")):
            on(self.sim.now, "closure.suspend", self.name,
               {"cid": closure.cid, "missing": closure.join_counter})

    def deliver(self, continuation: Continuation, value: Any) -> None:
        """send_argument, performed by a task running on this worker."""
        self.stats.synchronizations += 1
        if continuation.target == CLEARINGHOUSE_TARGET:
            if self.ch_host != self.host:
                self.stats.non_local_synchs += 1
                if self.config.ack_timeout_s is not None:
                    # The Clearinghouse never acks results; resend until
                    # its done broadcast (or heartbeat reply) confirms.
                    self._pending_results.append(value)
                    self._ensure_arg_flusher()
            self._post(self.ch_host, self.config.ch_data_port, (P.RESULT, value, self.name))
            return
        if self._probe is not None and (on := self._probe.get("arg.send")):
            # Dataflow edge: the successor cannot run before this send.
            on(self.sim.now, "arg.send", self.name, {"cid": continuation.target})
        if self._fill_local(continuation, value):
            return
        self.stats.non_local_synchs += 1
        dest = self.forward_map.get(continuation.target, continuation.target[0])
        self._send_arg(dest, continuation, value)

    # ------------------------------------------------------------------
    # Local argument delivery
    # ------------------------------------------------------------------

    def _fill_local(self, continuation: Continuation, value: Any) -> bool:
        """Try to fill a slot held on this worker.

        Returns True if the send terminated here (filled, or recognised
        as a duplicate/stray); False if the target lives elsewhere.
        """
        cid = continuation.target
        if self._fill_hold is not None and cid in self.suspended:
            self._fill_hold.append((continuation, value))
            return True
        closure = self.suspended.get(cid)
        if closure is not None:
            remaining = closure.try_fill(continuation.slot, value)
            if remaining >= 0:
                if self._probe is not None and (on := self._probe.get("join.fill")):
                    on(self.sim.now, "join.fill", self.name,
                       {"cid": cid, "slot": continuation.slot, "remaining": remaining})
                if remaining == 0:
                    del self.suspended[cid]
                    if self.config.track_completed:
                        self.completed.add(cid)
                    self.enqueue_ready(closure)
                return True
        elif cid in self.forward_map:
            return False  # departed: the caller forwards
        elif cid[0] != self.name and cid not in self.completed:
            return False
        # A filled slot, or a send to a closure of mine that no longer
        # exists: a crash-redo duplicate (the original already ran).
        self.stats.duplicate_sends += 1
        if self._probe is not None and (on := self._probe.get("join.dup")):
            on(self.sim.now, "join.dup", self.name,
               {"cid": cid, "slot": continuation.slot})
        return True

    def _on_remote_arg(
        self,
        continuation: Continuation,
        value: Any,
        sender: str,
        seq: Optional[int],
    ) -> None:
        """ARG datagram: fill locally or forward (no synch counted here —
        the synchronization was counted at the sending worker)."""
        if self._fill_local(continuation, value):
            self._ack_arg(sender, seq)
            return
        dest = self.forward_map.get(continuation.target, continuation.target[0])
        if dest == self.name:
            self.stats.duplicate_sends += 1
            self._ack_arg(sender, seq)
            return
        if continuation.target in self.forward_map:
            # Retain the relayed fill: if the adoptee crashes before it
            # lands, the migration redo replays it to the next home.
            self._forwarded.setdefault(continuation.target, []).append(
                (continuation, value)
            )
        # Forward with the sender's seq intact: the *final* recipient
        # acks the originator directly, so a forwarded hop dropped on a
        # bad link is retransmitted end to end.
        self._post(dest, self.config.port, (P.ARG, continuation, value, sender, seq))

    def _ack_arg(self, sender: str, seq: Optional[int]) -> None:
        """Confirm a reliable argument send back to its originator."""
        if seq is not None and sender != self.name:
            self._post(sender, self.config.port, (P.ARG_ACK, self.name, seq))

    def _send_arg(self, dest: str, continuation: Continuation, value: Any) -> None:
        """Send one of this worker's own argument fills to *dest*,
        registering it for retransmission when arg-retry mode is on."""
        seq = None
        if self.config.ack_timeout_s is not None:
            self._arg_seq += 1
            seq = self._arg_seq
            self._pending_args[seq] = (continuation, value)
            self._ensure_arg_flusher()
        self._post(dest, self.config.port, (P.ARG, continuation, value, self.name, seq))

    def _ensure_arg_flusher(self) -> None:
        if not self._arg_flusher_on:
            self._arg_flusher_on = True
            self._spawn(self._arg_flusher(), "arg-retry")

    def _arg_flusher(self) -> Generator:
        """Retransmit unacknowledged argument sends (and unconfirmed
        results) every ``ack_timeout_s``.

        Retransmits are idempotent at the receiver: a duplicate fill is
        rejected slot-wise (``join.dup``), exactly like crash-redo
        duplicates.  Sends addressed to a worker known to be dead are
        dropped — crash redo regenerates that subtree, so the value
        would fill a closure that no longer exists.
        """
        cfg = self.config
        try:
            while (self._pending_args or self._pending_results) and not self.done:
                yield self.sim.timeout(cfg.ack_timeout_s)
                if self.done or self.workstation.crashed:
                    break
                for seq, (cont, value) in sorted(self._pending_args.items()):
                    dest = self.forward_map.get(cont.target, cont.target[0])
                    if dest in self._seen_deaths:
                        del self._pending_args[seq]
                        continue
                    if self._probe is not None and (on := self._probe.get("arg.retry")):
                        on(self.sim.now, "arg.retry", self.name,
                           {"cid": cont.target, "slot": cont.slot, "seq": seq})
                    self._post(dest, cfg.port, (P.ARG, cont, value, self.name, seq))
                for value in self._pending_results:
                    self._post(self.ch_host, cfg.ch_data_port,
                               (P.RESULT, value, self.name))
        except Interrupt:
            pass
        finally:
            self._arg_flusher_on = False

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def _participate(self, rejoining: bool = False) -> Generator:
        """Register with the Clearinghouse, then steal/execute until the
        job ends or this worker departs (retirement runs its own finish
        protocol).

        A retired worker re-recruited by :meth:`_rejoin` runs the same
        steps minus the process start-up: re-registration restores
        Clearinghouse heartbeat tracking (and peer visibility), and if
        the root owner died with no survivors, the first re-registrant
        is handed the root again.
        """
        probe = self._probe
        try:
            if probe is not None and (on := probe.get("worker.begin")):
                # A participation span opens, inside its "protocol"
                # phase (startup + registration handshake).
                on(self.sim.now, "worker.begin", self.name, {})
            if not rejoining:
                yield self.sim.timeout(self.config.startup_cost_s)
            reply = yield from self._ch_call(P.RPC_REGISTER, self.name)
            if probe is not None and (on := probe.get("phase.end")):
                on(self.sim.now, "phase.end", self.name, {"phase": "protocol"})
            if not rejoining:
                self.stats.start_time = self.sim.now
            if reply.get("done"):
                # The job finished before we could join.
                self._on_job_done(reply.get("result"))
                self._finish("done")
                return
            self._set_peers(reply["peers"])
            # The Clearinghouse appointed us owner while we were
            # mid-departure; the register reply cannot re-grant the root
            # (root_owner still names us), so the parked ping is honored
            # here.  (Only ever parked on a departed worker.)
            forced = self._recruit_pending == "assigned"
            self._recruit_pending = None
            if reply["run_root"] or forced:
                self._enqueue_root()
            if (not rejoining and probe is not None
                    and (on := probe.get("worker.start"))):
                on(self.sim.now, "worker.start", self.name, {})

            cfg = self.config
            charged_on = None if probe is None else probe.get("task.charged")
            after_task, idle = self.initiation.after_task, self.initiation.idle
            while not self.done:
                if self.paused:
                    # Checkpoint in progress: hold still between tasks.
                    yield self.sim.timeout(cfg.steal_backoff_s)
                    continue
                closure = self.deque.pop_exec()
                if closure is not None:
                    self._failed_steals = 0
                    charged = self._execute(closure)
                    # Yielding the cycle-charging event is also the poll
                    # point where concurrent steal requests and arriving
                    # arguments interleave.
                    if charged_on is None:
                        yield charged
                    else:
                        try:
                            yield charged
                        finally:
                            # Also reached by a crash Interrupt landing
                            # in the yield: the working interval and its
                            # B/E pair must close before _finish ends the
                            # participation span.
                            charged_on(self.sim.now, "task.charged", self.name,
                                       {"cid": closure.cid})
                    if after_task is not None:
                        after_task(self)
                    continue
                if self.done:
                    break
                if idle is not None:
                    yield idle(self)  # the mode waits to be sent work
                    continue
                # One attempt, in a "stealing" phase closed on any exit.
                if probe is not None and (on := probe.get("phase.begin")):
                    on(self.sim.now, "phase.begin", self.name, {"phase": "stealing"})
                req_id, victim, wait = self._steal_begin()
                try:
                    got = self._steal_end(victim, (yield wait))
                finally:
                    self._steal_waiters.pop(req_id, None)
                    self._steal_sent.pop(req_id, None)
                    if probe is not None and (on := probe.get("phase.end")):
                        on(self.sim.now, "phase.end", self.name, {"phase": "stealing"})
                if got:
                    self._failed_steals = 0
                    continue
                self._failed_steals += 1
                if (
                    cfg.retire_after_failed_steals is not None
                    and self._failed_steals >= cfg.retire_after_failed_steals
                    and len(self.peers) > 1
                    and not self.deque and not self.suspended
                ):
                    yield from self._depart("retired")
                    return
                yield self.sim.timeout(cfg.steal_backoff_s)
            self._finish("done")
        except Interrupt as intr:
            yield from self._on_run_interrupt(intr)

    def _on_run_interrupt(self, intr: Interrupt) -> Generator:
        cause = str(intr.cause)
        if cause == "machine-crash":
            self._finish("crashed")
            return
        if cause == "worker-stop":
            # Teardown halt (Worker.stop()): no migration, no protocol.
            self._finish("stopped")
            return
        # Graceful eviction (owner reclaim or priority preemption):
        # migrate tasks and die.
        reason = {"owner-reclaimed": "reclaimed"}.get(cause, cause)
        try:
            yield from self._depart(reason)
        except Interrupt as again:
            # The machine crashed (or was torn down) while the departure
            # was still awaiting its migrate ack (bug 13).
            yield from self._on_run_interrupt(again)

    def _finish(self, reason: str) -> None:
        if self.stats.end_time == 0.0:
            self.stats.end_time = self.sim.now
        self.stats.busy_s = self.workstation.cpu_busy_s
        self.exit_reason = reason
        probe = self._probe
        if probe is not None:
            if reason == "crashed":
                # Fail-stop: everything still resident here is lost (the
                # conservation invariant accounts these against redo).
                lost = [c.cid for c in self.deque.peek_all()]
                lost += list(self.suspended)
                # Closures can also die in the socket receive buffer: a
                # steal reply or migration batch that was *delivered* but
                # not yet picked up by the net loop (busy in a send) when
                # the crash landed.  The protocol recovers via the
                # sender's redo obligation; the accounting must still
                # record where these copies terminated.
                for msg in self.socket.buffered_messages():
                    lost += P.carried_cids(msg.payload)
                if lost and (on := probe.get("closure.lost")):
                    on(self.sim.now, "closure.lost", self.name,
                       {"cids": lost, "reason": "crash"})
            # Closes the participation span; any phase the exit
            # interrupted (crash mid-steal, mid-protocol) is swept shut.
            if on := probe.get("worker.exit.*"):
                on(self.sim.now, f"worker.exit.{reason}", self.name,
                   {"deque": len(self.deque), "susp": len(self.suspended),
                    "failed": self._failed_steals,
                    "threshold": self.config.retire_after_failed_steals,
                    "port": self.config.port})
        self.finished.set(reason)

    def _enqueue_root(self) -> None:
        """Create and enqueue the job's root closure (Clearinghouse said so)."""
        args = [Continuation(CLEARINGHOUSE_TARGET, 0), *self.job.root_args]
        root = Closure(self.new_cid(), self.job.root.name, args, depth=0)
        self.enqueue_ready(root)

    def _on_run_root(self, assignee: Optional[str]) -> None:
        """The Clearinghouse lost the root owner and picked (or is
        recruiting) this machine to restart the root task.

        ``assignee`` names the worker the Clearinghouse appointed as the
        new owner (the survivor path); ``None`` is an open recruitment
        ping where the first re-registrant inherits the root.
        """
        if self.done or self.workstation.crashed:
            return
        if self.departed:
            # Ping to an ex-member.  Only an idle retired machine may
            # answer (a reclaimed one belongs to its owner again); it
            # rejoins and re-registers, and for an open recruitment the
            # Clearinghouse grants run_root to the first registrant
            # after clearing the owner.
            forced = "assigned" if assignee == self.name else "recruit"
            if self._maybe_rejoin_idle():
                if forced == "assigned":
                    # We are the appointed owner: the register reply
                    # will not re-grant the root (root_owner still
                    # names us), so the rejoined run loop must force it.
                    self._recruit_pending = forced
            elif self.retired:
                # Mid-departure: the run loop is still unwinding (its
                # unregister RPC may be stuck in retry behind a
                # partition).  Park the ping; _depart answers it.
                self._recruit_pending = forced
            return
        self._enqueue_root()

    def _execute(self, closure: Closure) -> Event:
        """Run one task's thread function, for every configuration.

        All of a task's effects (spawns, sends, and the probe events
        for them) happen synchronously here; the returned event charges its
        simulated cycles (dispatch + work + spawns + sends) and is what
        the run loop yields.
        """
        self.executing = True
        stats = self.stats
        n = len(self.deque) + len(self.suspended) + 1
        if n > stats.max_tasks_in_use:
            stats.max_tasks_in_use = n
        probe = self._probe
        if probe is not None and (on := probe.get("closure.exec")):
            # Emitted before the thread function runs: its spawns/sends
            # take effect synchronously, so by the time a crash interrupt
            # can land (the cycle-charging yield) the task has executed.
            # Every closure.new / arg.send up to task.done is this
            # task's out-edge.
            on(self.sim.now, "closure.exec", self.name,
               {"cid": closure.cid, "thread": closure.thread_name})
        workstation = self.workstation
        frame = Frame(self, workstation.profile, closure)
        try:
            ref = self._threads[closure.thread_name]
        except KeyError:
            ref = self.job.program.resolve(closure.thread_name)  # raises
        if closure._missing:
            closure.call_args()  # raises the ClosureError
        ref.fn(frame, *closure.args)
        stats.tasks_executed += 1
        if probe is not None and (on := probe.get("task.done")):
            on(self.sim.now, "task.done", self.name,
               {"cid": closure.cid, "thread": closure.thread_name,
                "depth": closure.depth,
                "service_s": workstation.seconds_for(frame.cycles),
                "deque": len(self.deque)})
        if self.config.track_completed and closure.join_counter == 0:
            self.completed.add(closure.cid)
        self.executing = False
        return workstation.execute(frame.cycles)

    # ------------------------------------------------------------------
    # Stealing (thief side)
    # ------------------------------------------------------------------

    def _steal_begin(self) -> tuple:
        """Open a steal attempt: ``(req_id, victim, timed wait for the
        reply)``, or ``(None, None, backoff)`` when nobody can be asked."""
        cfg = self.config
        victims = self.initiation.victims
        if victims is None:
            victims = self._victims
        if not victims:
            self.stats.failed_steal_attempts += 1
            return None, None, self.sim.timeout(cfg.steal_backoff_s)
        req_id, victim = self._request_steal(victims)
        waiter = self._steal_waiters[req_id] = Event(self.sim)
        return req_id, victim, Within(waiter, self.sim.timeout(cfg.steal_timeout_s))

    def _steal_end(self, victim: Optional[str], granted: Any) -> bool:
        """Close a steal attempt on what its wait resumed with: True iff
        work was granted (the net loop already enqueued it)."""
        if granted is True:
            return True
        if victim is None:
            return False  # nobody was asked
        cfg = self.config
        self.stats.failed_steal_attempts += 1
        if granted is EXPIRED:
            # No reply at all inside the budget: teach the policy, so a
            # latency-aware thief de-prioritizes unresponsive victims
            # (stragglers, partitioned or congested links).
            self.victim_policy.observe_timeout(victim, cfg.steal_timeout_s)
        if self._probe is not None:
            kind = "steal.timeout" if granted is EXPIRED else "steal.refused"
            if on := self._probe.get(kind):
                on(self.sim.now, kind, self.name, {"victim": victim})
        return False

    def _request_steal(self, victims: Sequence[str], proactive: bool = False) -> tuple:
        """Send a steal request to a chosen victim: ``(req_id, victim)``.

        Replies come back to the worker's *main* socket (tagged with the
        request id), so a reply that arrives after we stopped waiting —
        slow link, or we were interrupted by the owner — is adopted by
        the net loop rather than lost.  The victim only regenerates
        stolen work on a *crash*, so a lost grant would hang the job.
        """
        victim = self.victim_policy.choose(victims)
        self.stats.steal_requests_sent += 1
        self._steal_seq += 1
        req_id = self._steal_seq
        self._steal_sent[req_id] = self.sim.now
        self._steal_open[req_id] = victim
        if self._probe is not None and (on := self._probe.get("steal.request")):
            on(self.sim.now, "steal.request", self.name,
               {"victim": victim, "req": req_id,
                **({"proactive": True} if proactive else {})})
        self.network.post(self.host, self.socket.port, victim, self.config.port,
                          (P.STEAL_REQ, self.name, req_id), P.STEAL_REQ_BYTES)
        return req_id, victim

    # ------------------------------------------------------------------
    # The net loop (victim side + control messages)
    # ------------------------------------------------------------------

    def _net(self) -> Generator:
        handlers = P.HANDLERS
        try:
            while True:
                msg = yield self.socket.recv()
                payload = msg.payload
                if not isinstance(payload, tuple) or not payload:
                    continue
                tag = payload[0]
                known = handlers.get(tag)
                if known is None:
                    continue
                # Looked up per message: the checker's deliberate bugs
                # patch handlers on the instance.
                name, replies = known
                handler = getattr(self, name)
                then = (handler(msg, *payload[1:]) if replies
                        else handler(*payload[1:]))
                if then is not None:  # a send's overhead, or a generator of waits
                    if isinstance(then, Event):
                        yield then
                    else:
                        yield from then
                if self.departed and tag == P.JOB_DONE:
                    return  # forwarder duty over
        except Interrupt:
            return
        finally:
            if self.done or self.workstation.crashed:
                self.socket.close()

    def _on_grant_ack(self, thief: str, req_id: int) -> None:
        self._pending_grants.pop((thief, req_id), None)

    def _on_arg_ack(self, _acker: str, seq: int) -> None:
        self._pending_args.pop(seq, None)

    def _on_load(self, sender: str, depth: int) -> None:
        if self.initiation.on_load is not None:  # a balancing mode's gossip
            self.initiation.on_load(self, sender, depth)

    def _on_pause(self) -> None:
        self.paused = True

    def _on_resume(self) -> None:
        self.paused = False

    def _on_snapshot_req(self, msg) -> None:
        host, port = msg.reply_addr()
        self._post(host, port, (P.SNAPSHOT_REPLY, self.name, self.deque.peek_all(),
                                list(self.suspended.values()), self._seq))

    def _serve_steal(self, msg, thief: str, req_id: int) -> Event:
        """Grant the tail closure(s) or refuse: the reply's send event."""
        self.stats.steal_requests_received += 1
        batch: Optional[List[Closure]] = None
        if not self.departed and not self.done and not self.paused:
            # Steal-one hands over a single tail closure; steal-half up
            # to half the ready list (amortising one round-trip over
            # several tasks on high-latency links).
            take = (max(1, len(self.deque) // 2)
                    if self.config.steal_amount == "half" else 1)
            for _ in range(take):
                closure = self.deque.pop_steal()
                if closure is None:
                    break
                if batch is None:
                    batch = []
                batch.append(closure)
        if batch is not None:
            self.stats.tasks_stolen_from += len(batch)
            # Redundant state for crash redo: remember what went where.
            mine = self.outstanding.setdefault(thief, {})
            for closure in batch:
                mine[closure.cid] = closure
            self._note_in_use()
            probe = self._probe
            if probe is not None:
                if on := probe.get("steal.grant"):
                    for closure in batch:
                        on(self.sim.now, "steal.grant", self.name,
                           {"thief": thief, "cid": closure.cid, "req": req_id})
                if on := probe.get("steal.batch"):
                    on(self.sim.now, "steal.batch", self.name,
                       {"thief": thief, "n": len(batch), "req": req_id,
                        "deque": len(self.deque)})
            if self.config.ack_timeout_s is not None:
                # The grant may die on a lossy or partitioned link; arm
                # the reclaim timer (disarmed by the thief's GRANT_ACK).
                self._pending_grants[(thief, req_id)] = list(batch)
                self._spawn(self._grant_reclaim_timer(thief, req_id), "grant-ack")
        reply = (P.STEAL_REPLY, batch, self.name, req_id)
        size = P.REFUSAL_BYTES if batch is None else P.estimate_size(reply)
        return self.socket.sendto(reply, msg.src, msg.src_port, size_bytes=size)

    def _grant_reclaim_timer(self, thief: str, req_id: int) -> Generator:
        """No GRANT_ACK in time: presume the grant died in flight and
        regenerate the closures, exactly like a crash redo.

        If the grant (or only its ack) actually survived, the thief runs
        the originals and the copies' duplicate sends are rejected
        slot-wise at the receivers — the same safety argument as redo
        after a falsely-suspected death.
        """
        try:
            yield self.sim.timeout(self.config.ack_timeout_s)
        except Interrupt:
            return
        batch = self._pending_grants.pop((thief, req_id), None)
        if not batch or self.done or self.workstation.crashed:
            return
        mine = self.outstanding.get(thief)
        originals: List[Closure] = []
        if mine:
            for closure in batch:
                if mine.pop(closure.cid, None) is not None:
                    originals.append(closure)
            if not mine:
                self.outstanding.pop(thief, None)
        if not originals:
            return  # already redone (the thief was declared dead first)
        copies = [c.redo_copy(self.new_cid()) for c in originals]
        self.stats.tasks_redone += len(copies)
        self.stats.grants_reclaimed += len(copies)
        if self._probe is not None and (on := self._probe.get("steal.reclaim")):
            on(self.sim.now, "steal.reclaim", self.name,
               {"thief": thief, "req": req_id,
                "pairs": [(o.cid, c.cid) for o, c in zip(originals, copies)]})
        self._rehome(copies, [])

    def _on_steal_reply(self, batch: Optional[List[Closure]], victim: str,
                        req_id: int) -> Optional[Generator]:
        """A steal reply (possibly late) arrived at the main socket; a
        departed worker returns the late grant's hand-off to run."""
        waiter = self._steal_waiters.pop(req_id, None)
        self._steal_open.pop(req_id, None)
        # Request→grant latency (the quantity the latency-aware
        # work-stealing analyses argue drives makespan).  Late grants
        # adopted after the thief stopped waiting have no recorded send
        # time and are skipped.  Refusals still carry RTT information,
        # so the victim policy learns from every reply.
        sent_at = self._steal_sent.pop(req_id, None)
        if sent_at is not None:
            latency = self.sim.now - sent_at
            self.victim_policy.observe(victim, latency)
            if batch is not None:
                self.stats.steal_latency_sum_s += latency
                self.stats.steal_latency_count += 1
                if self._probe is not None and (on := self._probe.get("steal.reply")):
                    on(self.sim.now, "steal.reply", self.name,
                       {"latency_s": latency, "policy": self.config.victim_policy})
        if batch is not None:
            if self.config.ack_timeout_s is not None:
                # Receipt ack: disarms the victim's reclaim timer.  Sent
                # in every branch — the grant physically arrived; what
                # this worker then does with it is traced separately.
                self._post(victim, self.config.port,
                           (P.GRANT_ACK, self.name, req_id))
            if self.done:
                # Job over; the victim's redundant copy is harmless, but
                # the checker must know the grant terminated here.
                if self._probe is not None and (on := self._probe.get("closure.drop")):
                    for closure in batch:
                        on(self.sim.now, "closure.drop", self.name,
                           {"cid": closure.cid, "reason": "thief-done"})
            elif self.departed and not self._maybe_rejoin_idle():
                # Evacuated: pass the late grant to a peer.
                return self._hand_off_late_grant(batch, waiter)
            else:
                # (A worker retired for lack of work has just rejoined.)
                self.stats.tasks_stolen += len(batch)
                probe = self._probe
                if probe is not None and (on := probe.get("steal.adopt")):
                    on(self.sim.now, "steal.adopt", self.name,
                       {"victim": victim, "n": len(batch), "req": req_id})
                for closure in batch:
                    self.enqueue_ready(closure, local=True)
                    if probe is not None and (on := probe.get("steal.success")):
                        on(self.sim.now, "steal.success", self.name,
                           {"victim": victim, "cid": closure.cid, "req": req_id})
        if waiter is not None and not waiter.triggered:
            waiter.succeed(batch is not None)
        return None

    def _hand_off_late_grant(self, batch: List[Closure],
                             waiter: Optional[Event]) -> Generator:
        """A departed worker's late grant: migrate it to a peer, then
        release a steal attempt still waiting on it, if any."""
        handoff = list(batch)  # may be re-keyed on failover
        self._handoffs_active += 1
        try:
            target = yield from self._migrate_with_ack(handoff, [])
        finally:
            self._handoffs_active -= 1
        if (target is None and self._probe is not None
                and (on := self._probe.get("closure.drop"))):
            # Nobody took it: the closures are gone (the victim
            # still believes we have them and will not redo them
            # unless we crash) — surface the loss to the checker.
            for closure in handoff:
                on(self.sim.now, "closure.drop", self.name,
                   {"cid": closure.cid, "reason": "no-peer"})
        if waiter is not None and not waiter.triggered:
            waiter.succeed(True)

    def _on_migrate(self, msg, ready: List[Closure], suspended: List[Closure],
                    sender: str, offer: Optional[int]) -> None:
        if self.done or self.workstation.crashed:
            return
        if self.departed and not self._maybe_rejoin_idle():
            # Reclaimed (the owner has the machine back), or retired but
            # the old run loop is still mid-departure.  We cannot take
            # responsibility; send no ack — an acked offer's sender
            # retries with another peer, but a mode's fire-and-forget
            # batch (offer None) is lost here, unrecorded (docs/
            # checking.md, "Known open").  (A retired, idle machine has
            # just rejoined: the adaptive join/leave of the paper's NOW
            # model.  Without it, a schedule where every live worker
            # retires while an undetected-dead peer holds the remaining
            # closures would strand the job: the migration redo that
            # regenerates them would find no adopter.)
            return
        host, port = msg.reply_addr()
        if offer is not None:  # only acked offers dedup (_adopted_batches)
            key = (sender, offer)
            if key in self._adopted_batches:
                # Retransmitted offer: the sender never saw our ack
                # (lost on a severed or congested link).  Re-ack without
                # re-adopting — double-enqueueing the same closure
                # objects would execute them twice.
                self._post(host, port, (P.MIGRATE_ACK, self.name))
                if self._probe is not None and (on := self._probe.get("migrate.dup")):
                    on(self.sim.now, "migrate.dup", self.name,
                       {"sender": sender, "n": len(ready) + len(suspended)})
                return
            self._adopted_batches.add(key)
        for closure in suspended:
            self.suspended[closure.cid] = closure
        self.deque.extend_tail(ready)
        self.stats.tasks_migrated_in += len(ready) + len(suspended)
        self._note_in_use()
        self._post(host, port, (P.MIGRATE_ACK, self.name))
        if self._probe is not None and (on := self._probe.get("migrate.in")):
            on(self.sim.now, "migrate.in", self.name,
               {"sender": sender, "n": len(ready) + len(suspended),
                "cids": [c.cid for c in ready] + [c.cid for c in suspended]})

    def _on_job_done(self, result: Any) -> None:
        self.done = True
        self.result = result
        if self.stats.end_time == 0.0:
            self.stats.end_time = self.sim.now

    def _on_peer_update(self, names: List[str]) -> None:
        self._set_peers(names)

    def _set_peers(self, names: List[str]) -> None:
        self.peers = list(names)
        self._peers_seen.update(names)
        self._victims = tuple(sorted(p for p in self.peers if p != self.name))

    def _on_worker_died(self, dead: str) -> None:
        """Crash redo: re-enqueue copies of everything *dead* stole from
        us, and re-home everything we migrated to it at departure.

        Idempotent: the notice arrives both as the Clearinghouse's
        broadcast datagram (which a partition can drop) and piggybacked
        on every heartbeat reply (reliable RPC)."""
        if dead in self._seen_deaths:
            return
        self._seen_deaths.add(dead)
        # A dead victim will never answer an open steal request (a grant
        # it sent before crashing is covered by its own victims' redo).
        for req in [r for r, v in self._steal_open.items() if v == dead]:
            del self._steal_open[req]
        # Grants to the dead thief pending an ack are covered by the
        # death redo below; disarm their reclaim bookkeeping.
        for key in [k for k in self._pending_grants if k[0] == dead]:
            del self._pending_grants[key]
        stolen = self.outstanding.pop(dead, None)
        if stolen:
            originals = list(stolen.values())
            copies = [c.redo_copy(self.new_cid()) for c in originals]
            self.stats.tasks_redone += len(copies)
            if self._probe is not None and (on := self._probe.get("redo")):
                on(self.sim.now, "redo", self.name,
                   {"dead": dead, "n": len(copies),
                    "pairs": [(o.cid, c.cid) for o, c in zip(originals, copies)]})
            self._rehome(copies, [])
        self._redo_migrated(dead)

    def _maybe_rejoin_idle(self) -> bool:
        """Rejoin to adopt work locally, if retired (idle) — else False.

        A retired worker that regenerates lost work is an idle machine
        with runnable closures in hand: running them itself always beats
        hunting for an adopter through a peer list frozen at retirement
        (which may name nobody still alive).
        """
        if (
            self.retired
            and not self.done
            and not self.workstation.crashed
            and not self._run_proc.is_alive
        ):
            self._rejoin()
            return True
        return False

    def _redo_migrated(self, dead: str) -> None:
        """Migration redo: the peer that adopted our closures fail-stopped.

        The retained batch must find a new home.  Closures that were (or
        became) ready are re-issued as redo copies under fresh identities
        — the adopter may already have executed them, and a re-execution's
        duplicate sends are dropped at the receivers.  Closures still
        awaiting arguments keep their identity (continuations elsewhere
        point at it); the relayed fills retained for them are replayed
        after the handoff in case any were in flight at the crash.
        """
        batch = self.migrated.pop(dead, None)
        if not batch:
            return
        ready: List[Closure] = []
        still_suspended: List[Closure] = []
        pairs = []
        for closure in batch:
            if closure.is_ready:
                copy = closure.redo_copy(self.new_cid())
                ready.append(copy)
                pairs.append((closure.cid, copy.cid))
                # The old identity is finished with: stop forwarding for
                # it so late duplicate fills terminate here as duplicates.
                self.forward_map.pop(closure.cid, None)
                self._forwarded.pop(closure.cid, None)
            else:
                still_suspended.append(closure)
                pairs.append((closure.cid, closure.cid))
        self.stats.tasks_redone += len(batch)
        if self._probe is not None and (on := self._probe.get("redo")):
            on(self.sim.now, "redo", self.name,
               {"dead": dead, "n": len(batch), "pairs": pairs})
        self._rehome(ready, still_suspended)

    def _rehome(self, ready: List[Closure], suspended: List[Closure]) -> None:
        """Give regenerated closures a home: here if this worker still
        participates (or is retired and idle, in which case it rejoins),
        else with a peer that explicitly acks adoption — an evacuated
        worker's peer list may be stale (it stopped fetching updates at
        departure), so a blind post could vanish into a dead or departed
        machine."""
        if self.departed and not self._maybe_rejoin_idle():
            self._spawn(self._redo_handoff(ready, suspended), "redo-handoff")
            return
        for copy in ready:
            self.enqueue_ready(copy)
        for closure in suspended:
            self.forward_map.pop(closure.cid, None)
            self.suspended[closure.cid] = closure
            for continuation, value in self._forwarded.pop(closure.cid, []):
                self._fill_local(continuation, value)

    def _redo_handoff(self, ready: List[Closure], suspended: List[Closure]) -> Generator:
        """Post-departure redo: find a live adopter for regenerated work.

        ``suspended`` closures keep their identities: on success the
        forward map is repointed at the adopter and every fill this
        worker relayed to the dead adopter is replayed — a fill applied
        before the crash is rejected slot-wise as a duplicate, while one
        dropped in flight at the crash would otherwise be lost forever.
        """
        self._handoffs_active += 1
        target = None
        try:
            while target is None and not self.done:
                target = yield from self._migrate_with_ack(ready, suspended)
                if target is None:
                    # This is the only copy: keep offering while the job
                    # runs — the heartbeat in between learns of workers
                    # that registered since (or were mid-departure).
                    yield self.sim.timeout(self.config.update_interval_s)
        except Interrupt:
            pass
        finally:
            self._handoffs_active -= 1
        if target is None:
            if self._probe is not None and (on := self._probe.get("closure.lost")):
                cids = [c.cid for c in ready] + [c.cid for c in suspended]
                on(self.sim.now, "closure.lost", self.name,
                   {"cids": cids, "reason": "redo-no-peer"})
            return
        for closure in suspended:
            self.forward_map[closure.cid] = target
            for continuation, value in self._forwarded.get(closure.cid, ()):
                self._send_arg(target, continuation, value)

    # ------------------------------------------------------------------
    # Rejoin after retirement
    # ------------------------------------------------------------------

    def _rejoin(self) -> None:
        """Un-retire: restart the run loop and heartbeat to adopt work."""
        self.departed = False
        self.retired = False
        self._forwarding = False
        self._failed_steals = 0
        self.exit_reason = None
        self.stats.end_time = 0.0
        if self._probe is not None and (on := self._probe.get("worker.rejoin")):
            on(self.sim.now, "worker.rejoin", self.name, {})
        self._run_proc = self._spawn(self._participate(rejoining=True),
                                     "worker-rejoin")
        self._ensure_heartbeat()

    # ------------------------------------------------------------------
    # Peer updates / heartbeat
    # ------------------------------------------------------------------

    def _updates(self) -> Generator:
        try:
            while not self.done:
                yield self.sim.timeout(self.config.update_interval_s)
                if self.done:
                    return
                if (self.departed and not self._forwarding
                        and self.exit_reason is not None):
                    # Departure protocol complete (unregister landed or
                    # fail-stop).  Until then keep heartbeating: the
                    # unregister RPC can sit in retransmission behind a
                    # partition for longer than the death timeout, and a
                    # partition must delay heartbeats, not forge false
                    # deaths.
                    return
                try:
                    reply = yield from self._ch_call(P.RPC_UPDATE, self.name)
                except RpcError:
                    continue  # Clearinghouse unreachable; try next period
                if (self._probe is not None
                        and (on := self._probe.get("worker.heartbeat"))):
                    # Counted, not wall-attributed: this loop runs
                    # concurrently with the run loop's buckets.
                    on(self.sim.now, "worker.heartbeat", self.name, {})
                if self.departed:
                    # No PEER_UPDATE reaches a departed worker, yet it may
                    # still owe a redo handoff: workers that registered
                    # after it left must be among the candidates (bug 14).
                    self._peers_seen.update(reply["ever"])
                elif not self.done:
                    self._set_peers(reply["peers"])
                # Deaths piggybacked on the (reliable) heartbeat reply:
                # the WORKER_DIED broadcast is a plain datagram, so a
                # victim partitioned at announcement time would otherwise
                # never learn of its redo obligation — forwarders
                # included, which is why this runs even when departed.
                for dead in reply.get("dead", ()):
                    if dead != self.name:
                        self._on_worker_died(dead)
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # Departure: retirement and owner reclaim
    # ------------------------------------------------------------------

    def _depart(self, reason: str) -> Generator:
        """Leave the computation gracefully, migrating tasks to a peer."""
        self.retired = reason == "retired"
        self.departed = True
        # (A worker only retires with nothing on its ready list.)
        ready = [] if self.retired else self.deque.drain()
        suspended = list(self.suspended.values())
        if ready or suspended:
            self._fill_hold = []
            try:
                target = yield from self._migrate_with_ack(ready, suspended)
            except Interrupt:
                # The handoff never completed, so the drained batch is
                # still resident here: back on the ready list, where a
                # fail-stop's closure.lost record accounts for it.
                self.deque.extend_tail(ready)
                raise
            finally:
                held, self._fill_hold = self._fill_hold, None
            if target is None:
                # The machine is wanted back *now* (by its owner, or by a
                # higher-priority job) and nobody took the work: treat it
                # as a fail-stop.  The closures are lost; the
                # Clearinghouse times our heartbeat out and the
                # crash-redo protocol regenerates the work.  (Retirement
                # never gets here: a worker retires holding nothing.)
                if (self._probe is not None
                        and (on := self._probe.get("closure.lost"))):
                    on(self.sim.now, "closure.lost", self.name,
                       {"cids": [c.cid for c in ready] + [c.cid for c in suspended],
                        "reason": "reclaim-failstop"})
                self.suspended.clear()
                self._finish("crashed")
                # Complete the fail-stop: fall silent.  With the socket
                # closed, peers' datagrams are dropped at the NIC exactly
                # as on a machine crash — a "dead" worker that kept
                # receiving would confuse both peers and the causality
                # invariant.
                self._net_proc.interrupt("reclaim-failstop")
                self._update_proc.interrupt("reclaim-failstop")
                self.socket.close()
                return
            for closure in suspended:
                self.forward_map[closure.cid] = target
            self.suspended.clear()
            self.stats.tasks_migrated_out += len(ready) + len(suspended)
            if self._probe is not None and (on := self._probe.get("migrate.out")):
                on(self.sim.now, "migrate.out", self.name,
                   {"target": target, "n": len(ready) + len(suspended),
                    "cids": [c.cid for c in ready] + [c.cid for c in suspended]})
            # Sends that arrived mid-handoff chase the closures to their
            # new home (the forward_map now routes any later ones) — and
            # are retained like any relayed fill: the adopter may crash
            # before they land, and the migration redo must replay them.
            for continuation, value in held:
                self._forwarded.setdefault(continuation.target, []).append(
                    (continuation, value))
                self._send_arg(target, continuation, value)
        # Relay/redo duties outlive the departure: the Clearinghouse must
        # keep watching our heartbeat, because fills routed through a
        # silently-crashed forwarder are dropped forever (no victim would
        # ever redo them) and the job deadlocks.  An unanswered steal
        # request counts as a duty: the grant it may yet draw is only
        # regenerated if our crash is *detected*, so the crash window
        # between departure and the reply must stay under surveillance.
        self._forwarding = bool(self.forward_map or self.outstanding
                                or self.migrated or self._steal_open)
        yield from self._in_phase("protocol", self._unregister())
        self._finish(reason)
        if self._forwarding:
            # The heartbeat loop may have noticed ``departed`` and exited
            # during the migration handshake; forwarders need it back.
            self._ensure_heartbeat()
        if self.retired:
            # Stay reachable.  A retired worker is an idle machine whose
            # owner still permits the job, so its daemon keeps listening
            # until JOB_DONE.  Arriving migrated work — a late grant, or
            # a migration redo after an adopter's crash — re-recruits the
            # machine via _rejoin; without this, a schedule where every
            # live worker retires while an undetected-dead peer holds the
            # remaining work strands the job forever.
            if self._recruit_pending and not self.done \
                    and not self.workstation.crashed:
                # The Clearinghouse pinged us with RUN_ROOT while the
                # unregister was still in flight; answer it now that the
                # departure has completed.
                self._rejoin()
            return
        if not self.forward_map and not self.outstanding and not self.migrated:
            # Nothing to forward and no redo obligations — but a steal
            # reply may still be in flight to us, and a grant lost here
            # would hang the job (victims only regenerate stolen work on
            # a *crash*).  Linger one steal-timeout so the net loop can
            # adopt any straggler and pass it to a live peer, then release
            # the port so this machine can rejoin the job with a fresh
            # worker.
            try:
                yield self.sim.timeout(self.config.steal_timeout_s)
                if (self.forward_map or self.outstanding or self.migrated
                        or self._handoffs_active):
                    # A straggler adopted during the linger left us with
                    # relay duties after all (or a late grant's handoff is
                    # still seeking an adopter — its closures are acked to
                    # the victim, so tearing down now would lose them):
                    # stay up as a forwarder, and amend the unregister so
                    # the Clearinghouse watches our heartbeat (the first
                    # one said forwarding=False).
                    self._forwarding = True
                    yield from self._unregister()
                    self._ensure_heartbeat()
                    return
                if self._steal_open:
                    # Open steal requests outlived the full linger window.
                    # Stop waiting and fall silent *while still flagged as a
                    # forwarder*: the Clearinghouse times our heartbeat out,
                    # and if any reply was a grant lost in flight, the
                    # WORKER_DIED it broadcasts makes the victim redo the
                    # closures (a lost refusal just yields a harmless false
                    # death — our outstanding tables are empty).
                    self._steal_open.clear()
                elif self._forwarding:
                    # We unregistered as a forwarder only for steal requests
                    # that have since all been answered; amend so the
                    # Clearinghouse stops watching a heartbeat that is about
                    # to stop on purpose.
                    self._forwarding = False
                    yield from self._unregister()
            except Interrupt:
                # Crashed/stopped while lingering or amending: _finish
                # already ran, so end quietly (no second worker.exit).
                return
            self._net_proc.interrupt("departed-no-forwarding")
            self._update_proc.interrupt("departed")
            self.socket.close()
        # Otherwise the net loop stays alive until JOB_DONE — forwarding
        # sends to migrated closures, and listening for WORKER_DIED so
        # closures we granted to a since-crashed thief still get redone.

    def _unregister(self) -> Generator:
        """Tell the Clearinghouse this worker left; ``_forwarding`` says
        whether to keep it under death surveillance.  Sent again when
        the flag changes after the departure."""
        try:
            yield from self._ch_call(P.RPC_UNREGISTER, {
                "name": self.name, "graceful": True,
                "forwarding": self._forwarding})
        except RpcError:
            pass  # Clearinghouse will eventually time us out

    def _ensure_heartbeat(self) -> None:
        """Restart the update loop if it already ended (it exits once it
        notices a completed departure; if it has not noticed yet it
        simply carries on)."""
        if not self._update_proc.is_alive and not self.workstation.crashed:
            self._update_proc = self._spawn(self._updates(), "worker-upd")

    def _migrate_with_ack(self, ready: List[Closure], suspended: List[Closure]) -> Generator:
        target = yield from self._in_phase(
            "migrating", self._migrate_attempts(ready, suspended))
        probe = self._probe
        if (target is not None and probe is not None
                and (on := probe.get("migrate.acked"))):
            on(self.sim.now, "migrate.acked", self.name,
               {"target": target, "n": len(ready) + len(suspended)})
        return target

    def _migrate_attempts(self, ready: List[Closure], suspended: List[Closure]) -> Generator:
        """Hand our closures to a peer, requiring an explicit ack.

        Tries peers in random order until one acknowledges (a peer may
        itself be departing or already done, in which case it stays
        silent and we try the next).  Returns the accepting peer's name,
        or None if nobody took the work.

        Under ``ack_timeout_s`` (schedules whose links sever or
        congest) the offer is retransmitted to the *same* target before
        failing over — enough attempts to span any partition window —
        because an adopted-but-unacked batch at a live peer is a double
        home for the same closure identities.  The adopter re-acks
        duplicates without re-adopting.  If every retry still goes
        unanswered, the target may yet hold the batch, so the ready
        closures are re-keyed as redo copies before the next offer: a
        stale adopter running the originals then just produces duplicate
        sends, absorbed slot-wise like any crash-redo duplicate.
        (Suspended closures must keep their identities — continuations
        elsewhere name them — which is why failover past a live adopted
        target must be prevented rather than absorbed.)
        """
        resilient = self.config.ack_timeout_s is not None
        attempts = 4 if resilient else 1
        # Candidates: everyone ever registered, minus observed deaths —
        # NOT the current peer list.  Retirements shrink ``peers``, but a
        # retired machine is still listening and rejoins when offered
        # work; a handoff that only consults the live snapshot can find
        # nothing but an undetected-dead peer and drop the closures
        # (fuzz: shrink seed 42, reclaim + crash + every thief retired).
        candidates = sorted(
            (self._peers_seen | set(self.peers)) - self._seen_deaths - {self.name}
        )
        self.rng.shuffle(candidates)
        for i, target in enumerate(candidates):
            if resilient and i > 0 and ready:
                copies = [c.redo_copy(self.new_cid()) for c in ready]
                self.stats.tasks_redone += len(copies)
                if (self._probe is not None
                        and (on := self._probe.get("migrate.reoffer"))):
                    on(self.sim.now, "migrate.reoffer", self.name,
                       {"pairs": [(o.cid, c.cid) for o, c in zip(ready, copies)]})
                # In place: the caller's view (undo-retirement requeue,
                # loss accounting) must track the live identities.
                ready[:] = copies
            sock = Socket(self.network, self.host)  # ephemeral ack port
            try:
                ack_ev = sock.recv()
                # One offer seq per target: retransmissions share it (so
                # the adopter can dedup them), a failover is a new offer.
                self._migrate_seq += 1
                batch = (P.MIGRATE, ready, suspended, self.name,
                         self._migrate_seq)
                ack = EXPIRED
                for attempt in range(attempts):
                    if (attempt and self._probe is not None
                            and (on := self._probe.get("migrate.retry"))):
                        on(self.sim.now, "migrate.retry", self.name,
                           {"seq": self._migrate_seq})
                    yield sock.sendto(
                        batch, target, self.config.port,
                        size_bytes=P.estimate_size(batch),
                    )
                    # An Interrupt here (crash, reclaim fail-stop) must
                    # propagate: the callers all handle it, and eating it
                    # would keep this loop offering work from a worker
                    # whose socket is being torn down.
                    ack = yield Within(
                        ack_ev, self.sim.timeout(self.config.steal_timeout_s))
                    if ack is not EXPIRED:
                        break
                if (ack is not EXPIRED and isinstance(ack.payload, tuple)
                        and ack.payload[0] == P.MIGRATE_ACK):
                    if self.departed and (ready or suspended):
                        # Redundant state for migration redo: keep
                        # the batch until JOB_DONE so the adopter's
                        # crash does not orphan it.
                        self.migrated.setdefault(target, []).extend(
                            ready + suspended
                        )
                    return target
                if ack is EXPIRED:
                    sock.cancel_recv(ack_ev)
            finally:
                sock.close()
        return None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _in_phase(self, phase: str, steps: Generator) -> Generator:
        """Run *steps* inside a ``phase.begin`` / ``phase.end`` bracket
        (closed on any exit, an Interrupt included)."""
        probe = self._probe
        if probe is None:
            return (yield from steps)
        if on := probe.get("phase.begin"):
            on(self.sim.now, "phase.begin", self.name, {"phase": phase})
        try:
            return (yield from steps)
        finally:
            if on := probe.get("phase.end"):
                on(self.sim.now, "phase.end", self.name, {"phase": phase})

    def _post(self, host: str, port: int, payload: tuple) -> None:
        """Fire-and-forget datagram (split-phase: nobody waits on it)."""
        self.network.post(
            self.host, self.socket.port, host, port, payload,
            P.estimate_size(payload),
        )

    def _note_in_use(self) -> None:
        n = len(self.deque) + len(self.suspended) + (1 if self.executing else 0)
        if n > self.stats.max_tasks_in_use:
            self.stats.max_tasks_in_use = n

    def evict(self, cause: str) -> bool:
        """Gracefully evict this worker (``"owner-reclaimed"``,
        ``"preempted"``): the interrupted run loop migrates its tasks to
        a peer and departs.  False if the run loop had already ended."""
        return self._run_proc.interrupt(cause)

    def stop(self) -> None:
        """Forcibly stop all of this worker's processes (test teardown)."""
        for proc in (self._run_proc, self._net_proc, self._update_proc,
                     self._initiation_proc):
            if proc is not None:
                proc.interrupt("worker-stop")
        self.socket.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Worker {self.name} deque={len(self.deque)} "
            f"susp={len(self.suspended)} done={self.done}>"
        )
