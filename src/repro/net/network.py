"""The simulated network: cost model, delivery, loss, and counters.

Delivery of one datagram costs::

    send_overhead            (sender-side software overhead, busies sender CPU)
    + wire_latency + size/bandwidth (+ jitter)     (in-flight)
    + recv_overhead          (receiver-side software overhead, busies receiver CPU)

The per-message software overhead is the term the paper singles out as
"often at least two orders of magnitude greater" on workstations than on
a parallel supercomputer; platform profiles in :mod:`repro.cluster`
instantiate it per machine type.

Message counters are the raw data behind the "Messages sent" row of the
paper's Table 2.

Hot-path notes: a transmitted datagram used to cost two kernel events
(delivery plus the sender-overhead completion) and a fresh closure per
delivery callback.  Delivery now rides a preallocated-shape
:class:`_DeliveryEvent` (slotted, shared callback tuple, no lambda), and
:meth:`Network.post` is a fire-and-forget variant of :meth:`Network.transmit`
for the many call sites that never wait on the sender-overhead event —
it skips that event entirely, halving kernel traffic for one-way sends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import AddressError, NetworkError
from repro.net.message import Message
from repro.obs.probe import Probe
from repro.sim.core import NORMAL, Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.socket import Socket


@dataclass(frozen=True)
class NetworkParams:
    """Link cost parameters (seconds and bytes/second).

    Defaults approximate mid-1990s Ethernet + UDP/IP as characterised in
    the paper's introduction: ~1 ms of software overhead per message end
    and ~10 Mbit/s shared bandwidth.
    """

    send_overhead_s: float = 1.0e-3
    recv_overhead_s: float = 1.0e-3
    wire_latency_s: float = 0.5e-3
    bandwidth_bytes_per_s: float = 1.25e6
    loss_prob: float = 0.0
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise NetworkError("bandwidth must be positive")
        if not (0.0 <= self.loss_prob < 1.0):
            raise NetworkError("loss_prob must be in [0, 1)")
        for name in ("send_overhead_s", "recv_overhead_s", "wire_latency_s", "jitter_s"):
            if getattr(self, name) < 0:
                raise NetworkError(f"{name} must be non-negative")


@dataclass
class NetCounters:
    """Aggregate message statistics."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_unroutable: int = 0
    #: Datagrams discarded because a partition window severed the link
    #: (see :class:`repro.net.topology.PartitionWindow`).
    dropped_partition: int = 0
    bytes_sent: int = 0
    #: Same-host datagrams (loopback): delivered but not "sent on the wire",
    #: so they do not count toward the paper's "Messages sent" statistic.
    local: int = 0


class _DeliveryEvent(Event):
    """Internal event carrying one in-flight datagram (or several).

    Never exposed outside the network: its ``callbacks`` is a shared
    per-network tuple (the kernel only iterates callbacks and replaces
    the attribute with None), so constructing one allocates no list and
    no closure — and, because no caller can ever hold a reference, the
    object is recycled through a per-network free list after delivery.

    ``t`` is the absolute delivery time and ``more`` an optional list of
    extra ``(msg, params)`` pairs coalesced onto this event: sends that
    land at the same (time, destination) while this event is still the
    tail of its same-time queue position share one kernel event and are
    drained in send order (see :meth:`Network._send_wire`).
    """

    __slots__ = ("msg", "params", "more", "t")


#: Upper bound on the per-network delivery-event free list.
_EV_POOL_MAX = 256


class Network:
    """Connects sockets on named hosts; delivers datagrams with delay/loss.

    The network is intentionally unreliable (UDP semantics): datagrams to
    unbound ports or unknown hosts vanish, and ``loss_prob`` drops others
    at random.  Reliability, where needed, lives in :mod:`repro.net.rpc`.
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        rng: Optional[random.Random] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        from repro.net.topology import Topology  # local: avoid import cycle

        if not isinstance(topology, Topology):
            raise NetworkError(f"expected a Topology, got {topology!r}")
        self.sim = sim
        self.topology = topology
        self.rng = rng or random.Random(0)
        self.counters = NetCounters()
        self._sockets: Dict[Tuple[str, int], "Socket"] = {}
        self._next_ephemeral: Dict[str, int] = {}
        self._next_msg_id = 0
        #: Optional per-host CPU accounting hooks: host -> charge(seconds).
        self._cpu_charge: Dict[str, Callable[[float], None]] = {}
        #: Hosts currently crashed (their sockets drop all traffic).
        self._down: set[str] = set()
        #: True only when the topology overrides is_reachable (dynamic
        #: partitions); static topologies skip the reachability call on
        #: every send.
        self._check_reachability = (
            type(topology).is_reachable is not Topology.is_reachable)
        #: Shared callback tuples for delivery events (see _DeliveryEvent).
        self._deliver_cbs = (self._on_delivery,)
        self._deliver_local_cbs = (self._on_delivery_local,)
        #: Free list of recycled _DeliveryEvent objects.
        self._ev_pool: list = []
        #: Most recently enqueued delivery event + the kernel's ``_seq``
        #: right after its enqueue — the coalescing candidate (_at_tail).
        self._last_delivery: Optional[_DeliveryEvent] = None
        self._last_token = None
        #: The run's probe seam (repro.obs.probe), or None: one guard per
        #: send/drop/delivery site.  Every discarded datagram is reported
        #: with the Message itself (observer-only), which is how the
        #: invariant checker accounts for closures lost in flight.
        self._probe = probe
        if probe is not None:
            probe.bind(sim.now, "net.bind", "net", {})

    # -- host / socket management ------------------------------------------

    def attach_cpu(self, host: str, charge: Callable[[float], None]) -> None:
        """Register a CPU-time accounting hook for *host*.

        The network calls it with the send/recv software-overhead seconds
        so that workstation `rusage`-style accounting includes messaging
        cost, as real rusage did in the paper's measurements.
        """
        self._cpu_charge[host] = charge

    def bind(self, socket: "Socket") -> None:
        key = (socket.host, socket.port)
        if key in self._sockets:
            raise AddressError(f"port {socket.port} already bound on {socket.host!r}")
        self._sockets[key] = socket

    def unbind(self, socket: "Socket") -> None:
        self._sockets.pop((socket.host, socket.port), None)

    def alloc_port(self, host: str) -> int:
        """Allocate an ephemeral port number on *host* (never reused)."""
        port = self._next_ephemeral.get(host, 49152)
        self._next_ephemeral[host] = port + 1
        return port

    def set_host_down(self, host: str, down: bool = True) -> None:
        """Mark a host crashed/recovered; crashed hosts send and receive nothing."""
        if down:
            self._down.add(host)
        else:
            self._down.discard(host)

    def is_down(self, host: str) -> bool:
        return host in self._down

    # -- transmission -------------------------------------------------------

    def transmit(
        self,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        payload,
        size_bytes: int,
    ) -> Event:
        """Send one datagram.

        Returns an event that succeeds once the *sender-side* software
        overhead has elapsed (split-phase: the sender does not wait for
        delivery).  Delivery to the destination socket is scheduled
        independently.  Callers that never wait on the returned event
        should use :meth:`post` instead.  The event is a (recyclable)
        kernel timeout: a succeeded event's queue slot and rng draw.
        """
        if src in self._down:
            # A crashed host cannot transmit; callers inside the host have
            # normally been interrupted already.  Succeed silently.
            return self.sim.timeout(0.0)
        if src == dst:
            self._send_loopback(src, src_port, dst_port, payload, size_bytes)
            return self.sim.timeout(self.LOOPBACK_S)
        params = self._send_wire(src, src_port, dst, dst_port, payload, size_bytes)
        return self.sim.timeout(params.send_overhead_s)

    def post(
        self,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        payload,
        size_bytes: int,
    ) -> None:
        """Fire-and-forget :meth:`transmit`: same cost model and delivery
        schedule, but no sender-overhead completion event is created (the
        caller, by contract, would have discarded it)."""
        if src in self._down:
            return
        if src == dst:
            self._send_loopback(src, src_port, dst_port, payload, size_bytes)
        else:
            self._send_wire(src, src_port, dst, dst_port, payload, size_bytes)

    def _send_wire(
        self, src: str, src_port: int, dst: str, dst_port: int, payload, size_bytes: int
    ) -> NetworkParams:
        """Common wire-send path: counters, trace, loss, delivery event."""
        sim = self.sim
        params = self.topology.params_for(src, dst)
        self._next_msg_id += 1
        msg = Message(src, src_port, dst, dst_port, payload, size_bytes,
                      self._next_msg_id, sim.now)
        counters = self.counters
        counters.sent += 1
        counters.bytes_sent += size_bytes
        probe = self._probe
        if probe is not None and (on := probe.get("net.send")):
            on(sim.now, "net.send", src,
               {"dst": dst, "port": dst_port, "id": msg.msg_id, "size": size_bytes})

        charge = self._cpu_charge.get(src)
        if charge:
            charge(params.send_overhead_s)

        if self._check_reachability and not self.topology.is_reachable(src, dst):
            # The sender paid its overhead; the datagram dies on the
            # severed link.  UDP semantics: nobody is told.
            counters.dropped_partition += 1
            if probe is not None and (on := probe.get("net.partition")):
                on(sim.now, "net.partition", src,
                   {"dst": dst, "id": msg.msg_id, "msg": msg})
            return params

        if params.loss_prob > 0.0 and self.rng.random() < params.loss_prob:
            self.counters.dropped_loss += 1
            if probe is not None and (on := probe.get("net.loss")):
                on(sim.now, "net.loss", src, {"id": msg.msg_id, "msg": msg})
            return params

        flight = params.send_overhead_s + (
            params.wire_latency_s + size_bytes / params.bandwidth_bytes_per_s)
        if params.jitter_s > 0.0:
            flight += self.rng.random() * params.jitter_s
        if probe is not None and (on := probe.get("net.wire")):
            on(sim.now, "net.wire", src, {})
        t = sim.now + flight
        last = self._last_delivery
        if (last is not None and last.callbacks is self._deliver_cbs
                and last.t == t and last.msg.dst == dst
                and sim._at_tail(last, self._last_token)):
            # Same delivery tick, same destination, and the previous
            # delivery event is still the tail of its same-time queue
            # position: a separate event would drain immediately after
            # it anyway, so ride along and save one kernel event.  The
            # batch drains in send order (see _on_delivery).
            more = last.more
            if more is None:
                last.more = [(msg, params)]
            else:
                more.append((msg, params))
            return params
        pool = self._ev_pool
        if pool:
            deliver = pool.pop()
            deliver.callbacks = self._deliver_cbs
            deliver.defused = False
        else:
            deliver = _DeliveryEvent.__new__(_DeliveryEvent)
            deliver.sim = sim
            deliver.callbacks = self._deliver_cbs
            deliver._value = None
            deliver._ok = True
            deliver.defused = False
        deliver.msg = msg
        deliver.params = params
        deliver.more = None
        deliver.t = t
        sim._enqueue(deliver, flight, NORMAL)
        self._last_delivery = deliver
        self._last_token = sim._seq
        return params

    #: Cost of a same-host (loopback) datagram: no wire, just a kernel copy.
    LOOPBACK_S = 5.0e-5

    def _send_loopback(
        self, host: str, src_port: int, dst_port: int, payload, size_bytes: int
    ) -> None:
        sim = self.sim
        self._next_msg_id += 1
        msg = Message(host, src_port, host, dst_port, payload, size_bytes,
                      self._next_msg_id, sim.now)
        self.counters.local += 1
        charge = self._cpu_charge.get(host)
        if charge:
            charge(self.LOOPBACK_S)
        t = sim.now + self.LOOPBACK_S
        last = self._last_delivery
        if (last is not None and last.callbacks is self._deliver_local_cbs
                and last.t == t and last.msg.dst == host
                and sim._at_tail(last, self._last_token)):
            more = last.more
            if more is None:
                last.more = [(msg, None)]
            else:
                more.append((msg, None))
            return
        pool = self._ev_pool
        if pool:
            deliver = pool.pop()
            deliver.defused = False
        else:
            deliver = _DeliveryEvent.__new__(_DeliveryEvent)
            deliver.sim = sim
            deliver._value = None
            deliver._ok = True
            deliver.defused = False
        deliver.callbacks = self._deliver_local_cbs
        deliver.msg = msg
        deliver.params = None
        deliver.more = None
        deliver.t = t
        sim._enqueue(deliver, self.LOOPBACK_S, NORMAL)
        self._last_delivery = deliver
        self._last_token = sim._seq

    def _recycle(self, ev: "_DeliveryEvent") -> None:
        """Return a drained delivery event to the free list.  Safe even
        though the kernel has not finished with the object (its fields
        are reinitialised on reuse before it can be observed again), and
        callers never see these events, so no outside reference exists.
        """
        if self._last_delivery is ev:
            self._last_delivery = None
        ev.msg = None
        ev.params = None
        ev.more = None
        pool = self._ev_pool
        if len(pool) < _EV_POOL_MAX:
            pool.append(ev)

    def _on_delivery(self, ev: "_DeliveryEvent") -> None:
        msg = ev.msg
        params = ev.params
        more = ev.more
        self._recycle(ev)
        self._deliver(msg, params)
        if more is not None:
            for m, p in more:
                self._deliver(m, p)

    def _on_delivery_local(self, ev: "_DeliveryEvent") -> None:
        msg = ev.msg
        more = ev.more
        self._recycle(ev)
        self._deliver_local(msg)
        if more is not None:
            for m, _p in more:
                self._deliver_local(m)

    def _deliver_local(self, msg: Message) -> None:
        probe = self._probe
        if msg.dst in self._down:
            self.counters.dropped_unroutable += 1
            if probe is not None and (on := probe.get("net.loopback.drop")):
                on(self.sim.now, "net.loopback.drop", msg.dst,
                   {"msg": msg, "reason": "down"})
            return
        sock = self._sockets.get((msg.dst, msg.dst_port))
        if sock is None:
            self.counters.dropped_unroutable += 1
            if probe is not None and (on := probe.get("net.loopback.drop")):
                on(self.sim.now, "net.loopback.drop", msg.dst,
                   {"msg": msg, "reason": "unbound"})
            return
        self.counters.delivered += 1
        if probe is not None and (on := probe.get("net.loopback")):
            on(self.sim.now, "net.loopback", msg.dst,
               {"id": msg.msg_id, "port": msg.dst_port})
        sock._queue.send(msg)  # bound, hence open: close() unbinds

    def _deliver(self, msg: Message, params: NetworkParams) -> None:
        probe = self._probe
        if msg.dst in self._down:
            self.counters.dropped_unroutable += 1
            if probe is not None and (on := probe.get("net.drop.down")):
                on(self.sim.now, "net.drop.down", msg.dst,
                   {"id": msg.msg_id, "msg": msg})
            return
        sock = self._sockets.get((msg.dst, msg.dst_port))
        if sock is None:
            self.counters.dropped_unroutable += 1
            if probe is not None and (on := probe.get("net.drop.unbound")):
                on(self.sim.now, "net.drop.unbound", msg.dst,
                   {"id": msg.msg_id, "msg": msg})
            return
        charge = self._cpu_charge.get(msg.dst)
        if charge:
            charge(params.recv_overhead_s)
        self.counters.delivered += 1
        if probe is not None and (on := probe.get("net.recv")):
            on(self.sim.now, "net.recv", msg.dst,
               {"src": msg.src, "id": msg.msg_id, "port": msg.dst_port,
                "latency_s": self.sim.now - msg.sent_at + params.recv_overhead_s})
        sock._queue.send(msg)  # bound, hence open: close() unbinds
