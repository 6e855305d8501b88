"""Who starts a transfer of work: a worker's scheduling mode.

The paper's scheduler (``WorkerConfig.mode`` "steal") is idle-initiated:
a worker moves work only when it has none.  The other modes are the
baselines the paper argues against.  "central" ships every enabled task
to one queue, on the Clearinghouse host's worker, the only victim an
idle worker may ask.  "push" is sender-initiated, Parform-style
balancing: every ``load_broadcast_s`` a worker broadcasts its ready-list
length and exports tasks above ``push_threshold`` to the least-loaded
peer, and an idle worker waits to be sent work.  A Worker binds its
mode's hooks once and calls each only where it is not None, passing
itself (a strategy keeps no reference to its worker, so a finished
worker is freed by reference counting); the paper's scheduler needs
none of them.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.micro import protocol as P
from repro.sim.core import Interrupt

#: What one steal grant carries (``WorkerConfig.steal_amount``).
STEAL_AMOUNTS = ("one", "half")


class Initiation:
    """``ship(w, closure)`` takes a closure ``enqueue_ready`` would push
    locally; ``after_task(w)`` runs after each task; ``idle(w)`` is the
    event an idle worker waits on instead of stealing; ``victims`` is a
    fixed steal set in place of the peer list; ``start(w)`` spawns the
    mode's own process; ``on_load(w, sender, depth)`` takes a LOAD."""

    ship = after_task = idle = victims = start = on_load = None


class Steal(Initiation):
    def __init__(self, worker) -> None:
        self.early = None  # the one early steal in flight: (req_id, victim)
        if worker.config.proactive_threshold > 0:
            self.after_task = self._steal_early

    def _steal_early(self, w) -> None:
        """Fire a no-wait steal request once the ready list is down to
        ``proactive_threshold``: the net loop adopts the reply whenever
        it arrives, so the round-trip hides behind the tail of local
        work.  At most one is in flight."""
        cfg = w.config
        if w.done or len(w.deque) > cfg.proactive_threshold:
            return
        if self.early is not None:
            req, victim = self.early
            sent_at = w._steal_sent.get(req)  # a reply pops it
            if sent_at is not None:
                if w.sim.now - sent_at < cfg.steal_timeout_s:
                    return  # one in flight is enough
                del w._steal_sent[req]  # unanswered past the budget
                w.victim_policy.observe_timeout(victim, cfg.steal_timeout_s)
                if w._probe is not None and (on := w._probe.get("steal.timeout")):
                    on(w.sim.now, "steal.timeout", w.name, {"victim": victim})
        if w._victims:
            w.stats.proactive_steals_sent += 1
            self.early = w._request_steal(w._victims, proactive=True)


class Central(Initiation):
    def __init__(self, worker) -> None:
        if worker.name == worker.ch_host:
            self.victims = ()  # the queue holder has nowhere to fetch from
        else:
            self.victims = (worker.ch_host,)
            self.ship = self._ship

    def _ship(self, w, closure) -> None:
        w.stats.tasks_migrated_out += 1
        w._post(w.ch_host, w.config.port, (P.MIGRATE, [closure], [], w.name, None))


class Push(Initiation):
    def __init__(self, worker) -> None:
        self.peer_loads = {}  # the last ready-list length each peer sent

    def on_load(self, w, sender: str, depth: int) -> None:
        self.peer_loads[sender] = depth

    def idle(self, w):
        w.stats.failed_steal_attempts += 1
        return w.sim.timeout(w.config.steal_backoff_s)

    def start(self, w):
        return w._spawn(self._balancer(w), "worker-bal")

    def _balancer(self, w):
        try:
            while not w.done and not w.departed:
                yield w.sim.timeout(w.config.load_broadcast_s)
                if w.done or w.departed:
                    return
                for peer in w.peers:
                    if peer != w.name:
                        w._post(peer, w.config.port, (P.LOAD, w.name, len(w.deque)))
                self.after_task(w)
        except Interrupt:
            return

    def after_task(self, w) -> None:
        """Export tasks to the least-loaded peer when we hold too many."""
        deque, threshold = w.deque, w.config.push_threshold
        if len(deque) <= threshold:
            return
        candidates = [(load, name) for name, load in self.peer_loads.items()
                      if name in w.peers and name != w.name]
        if not candidates:
            return
        load, target = min(candidates)
        if load + 1 >= len(deque):
            return
        batch = []
        while len(deque) > threshold and len(batch) < 4:
            closure = deque.pop_steal()
            if closure is None:
                break
            batch.append(closure)
        if batch:
            w.stats.tasks_migrated_out += len(batch)
            self.peer_loads[target] = load + len(batch)
            w._post(target, w.config.port, (P.MIGRATE, batch, [], w.name, None))


MODES = {"steal": Steal, "central": Central, "push": Push}


def make_initiation(worker) -> Initiation:
    """Bind *worker*'s mode; raises SchedulerError for an unknown mode
    or steal amount."""
    cfg = worker.config
    if cfg.steal_amount not in STEAL_AMOUNTS:
        raise SchedulerError(
            f"unknown steal amount {cfg.steal_amount!r}; known: {list(STEAL_AMOUNTS)}")
    if cfg.mode not in MODES:
        raise SchedulerError(f"unknown scheduling mode {cfg.mode!r}; known: {sorted(MODES)}")
    return MODES[cfg.mode](worker)
