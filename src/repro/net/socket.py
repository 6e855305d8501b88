"""UDP-like sockets over the simulated network."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import NetworkError
from repro.net.message import DEFAULT_SIZE_BYTES, Message
from repro.net.network import Network
from repro.sim.core import Event
from repro.sim.resources import Channel


class Socket:
    """A bound (host, port) endpoint with a receive queue.

    Protocol code typically binds an ephemeral port per conversation
    (see :func:`repro.net.rpc.rpc_call`, which may :meth:`reopen` one).
    """

    def __init__(self, network: Network, host: str, port: Optional[int] = None) -> None:
        """Bind a socket on *host*.

        Args:
            network: the network to bind on.
            host: host name.
            port: well-known port number, or None for an ephemeral port.
        """
        self.network = network
        self.host = host
        self.port = network.alloc_port(host) if port is None else int(port)
        self._queue = Channel(network.sim)
        self._closed = False
        network.bind(self)

    @property
    def addr(self) -> Tuple[str, int]:
        """This socket's (host, port) address."""
        return (self.host, self.port)

    @property
    def pending(self) -> int:
        """Number of datagrams queued for receipt."""
        return len(self._queue)

    def sendto(
        self,
        payload,
        dst: str,
        dst_port: int,
        size_bytes: int = DEFAULT_SIZE_BYTES,
    ) -> Event:
        """Transmit a datagram; yield the returned event to pay the
        sender-side software overhead (split-phase: delivery is async)."""
        if self._closed:
            raise NetworkError(f"sendto on closed socket {self.addr}")
        return self.network.transmit(self.host, self.port, dst, dst_port, payload, size_bytes)

    def recv(self) -> Event:
        """Event that succeeds with the next :class:`Message`."""
        if self._closed:
            raise NetworkError(f"recv on closed socket {self.addr}")
        return self._queue.recv()

    def cancel_recv(self, event: Event) -> bool:
        """Withdraw a pending :meth:`recv` (e.g. after a timeout raced it)."""
        return self._queue.cancel_get(event)

    def buffered_messages(self) -> list:
        """Snapshot of delivered-but-not-yet-received datagrams.

        Crash accounting uses this: when a worker fail-stops, closures
        sitting in its receive buffer are lost exactly like closures in
        its deque, and the invariant checker must see them accounted.
        """
        return list(self._queue.items)

    def close(self) -> None:
        """Unbind; queued and future datagrams to this port are dropped."""
        if not self._closed:
            self._closed = True
            self.network.unbind(self)

    def recycle(self) -> None:
        """Close, dropping buffered datagrams and parked receives."""
        self.close()
        self._queue.clear()

    def reopen(self) -> "Socket":
        """Bind again on a fresh ephemeral port (the old one stays unbound)."""
        self.port = self.network.alloc_port(self.host)
        self._closed = False
        self.network.bind(self)
        return self

    def _enqueue(self, msg: Message) -> None:
        if not self._closed:
            self._queue.send(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pending={self.pending}"
        return f"<Socket {self.host}:{self.port} {state}>"
