"""Split-phase RPC over unreliable datagrams.

The paper: "almost all communications are done with split-phase
operations ... all communications are implemented on top of UDP/IP
messages."  This module provides the request/reply discipline used by
the PhishJobQ and the Clearinghouse: the caller binds an ephemeral
port, sends a request, and waits for the reply *or* a retransmission
timer — so lost datagrams are retried, and the caller's process is free
to structure waiting however it likes (``rpc_call`` is itself a
generator to be driven with ``yield from``).  Each call binds a fresh
port, its request id: a late reply to a finished call is dropped unbound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import RpcError
from repro.net.message import DEFAULT_SIZE_BYTES
from repro.net.network import Network
from repro.net.socket import Socket
from repro.sim.core import EXPIRED, Interrupt, Within

#: Default retransmission timer and attempt budget.  The PhishJobManager
#: retries every 30 s anyway, so a small budget suffices.
DEFAULT_TIMEOUT_S = 2.0
DEFAULT_RETRIES = 4


@dataclass(slots=True)
class _Request:
    req_id: int
    method: str
    args: Any
    #: When the server may forget its reply: the caller's give-up time
    #: plus one more timeout for a last retransmission still in flight.
    forget_at: float
    #: One-way ``(method, args)`` pairs the server runs, in order, before
    #: *method*: their return values are dropped, their errors are not.
    notices: tuple = ()


@dataclass(slots=True)
class _Reply:
    req_id: int
    ok: bool
    value: Any


class RpcServer:
    """Serves named methods on a well-known port.

    Handlers are plain functions ``handler(args, msg) -> reply`` (the
    message gives access to the caller's address); a handler raising an
    exception produces an error reply that re-raises at the caller as
    :class:`RpcError`.  Duplicate requests (retransmissions of a request
    already answered) are answered from a reply cache so that handlers
    observe at-most-once execution despite at-least-once delivery — a
    request's notices included: they run under the same cache entry, and
    the first error among them and the method is the call's reply.  A
    reply is kept only until its caller can no longer retransmit
    (``_Request.forget_at``), so the cache holds the in-flight window,
    not every reply ever sent.
    """

    def __init__(self, network: Network, host: str, port: int, name: str = "rpc") -> None:
        self.network = network
        self.host = host
        self.name = name
        self.socket = Socket(network, host, port)
        self._handlers: Dict[str, Callable[[Any, Any], Any]] = {}
        self._reply_cache: Dict[tuple, _Reply] = {}
        #: (forget_at, cache key) of every cached reply, in arrival order.
        self._forget_queue: Deque[Tuple[float, tuple]] = deque()
        self._proc = network.sim.process(self._serve(), name=f"{name}@{host}:{port}")
        #: Number of requests actually executed (cache hits excluded).
        self.requests_served = 0

    def register(self, method: str, handler: Callable[[Any, Any], Any]) -> None:
        """Expose *handler* under *method*."""
        if method in self._handlers:
            raise RpcError(f"method {method!r} already registered on {self.name}")
        self._handlers[method] = handler

    def stop(self) -> None:
        """Shut the server down and release its port."""
        self._proc.interrupt("rpc-server-stop")
        self.socket.close()

    def _serve(self) -> Generator:
        try:
            while True:
                msg = yield self.socket.recv()
                req = msg.payload
                if not isinstance(req, _Request):
                    continue  # stray datagram; UDP semantics say ignore
                forget = self._forget_queue
                while forget and forget[0][0] <= self.network.sim.now:
                    del self._reply_cache[forget.popleft()[1]]
                cache_key = (msg.src, msg.src_port, req.req_id)
                reply = self._reply_cache.get(cache_key)
                if reply is None:
                    self.requests_served += 1
                    try:
                        for method, args in (*req.notices, (req.method, req.args)):
                            handler = self._handlers.get(method)
                            if handler is None:
                                raise RpcError(f"no such method {method!r}")
                            value = handler(args, msg)
                        reply = _Reply(req.req_id, True, value)
                    except Exception as exc:  # handler bug -> error reply
                        reply = _Reply(req.req_id, False, f"{type(exc).__name__}: {exc}")
                    self._reply_cache[cache_key] = reply
                    forget.append((req.forget_at, cache_key))
                yield self.socket.sendto(reply, msg.src, msg.src_port)
        except Interrupt:
            return


def rpc_call(
    network: Network,
    src_host: str,
    dst: str,
    dst_port: int,
    method: str,
    args: Any = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    size_bytes: int = DEFAULT_SIZE_BYTES,
    notices: tuple = (),
    sockets: Optional[List[Socket]] = None,
) -> Generator:
    """Call ``method(args)`` on the server at (dst, dst_port).

    A generator: drive it with ``result = yield from rpc_call(...)``
    inside a simulation process.  Retransmits on timeout; raises
    :class:`RpcError` after the retry budget is exhausted or if a
    handler errored — after which the caller cannot know whether its
    *notices* ran, so they had better be idempotent.  With *sockets* (a
    client's idle ones) the call re-binds one and recycles it back.
    """
    sim = network.sim
    sock = sockets.pop().reopen() if sockets else Socket(network, src_host)
    try:
        req = _Request(sock.port, method, args,
                       sim.now + (2 + retries) * timeout_s, notices)
        for _attempt in range(1 + retries):
            yield sock.sendto(req, dst, dst_port, size_bytes=size_bytes)
            deadline = sim.timeout(timeout_s)
            while True:
                got = sock.recv()
                msg = yield Within(got, deadline)
                if msg is not EXPIRED:
                    reply = msg.payload
                    if isinstance(reply, _Reply) and reply.req_id == req.req_id:
                        if reply.ok:
                            return reply.value
                        raise RpcError(f"{method} at {dst}:{dst_port} failed: {reply.value}")
                    continue  # stray or stale datagram; keep waiting
                sock.cancel_recv(got)
                break  # timed out -> retransmit
        raise RpcError(
            f"{method} at {dst}:{dst_port}: no reply after {1 + retries} attempts"
        )
    finally:
        sock.recycle()
        if sockets is not None:
            sockets.append(sock)


class RpcClient:
    """One caller's handle on one server: binds the static arguments of
    :func:`rpc_call` (every PhishJobManager holds one for the PhishJobQ,
    every worker one for its Clearinghouse) and keeps its idle sockets."""

    def __init__(
        self,
        network: Network,
        src_host: str,
        dst: str,
        dst_port: int,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        self.network = network
        self.src_host = src_host
        self.dst = dst
        self.dst_port = dst_port
        self.timeout_s = timeout_s
        self.retries = retries
        self._sockets: List[Socket] = []

    def call(self, method: str, args: Any = None, notices: tuple = ()) -> Generator:
        """``yield from client.call("method", args)`` inside a process."""
        return rpc_call(
            self.network,
            self.src_host,
            self.dst,
            self.dst_port,
            method,
            args,
            timeout_s=self.timeout_s,
            retries=self.retries,
            notices=notices,
            sockets=self._sockets,
        )
