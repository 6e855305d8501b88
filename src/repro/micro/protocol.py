"""Wire protocol shared by workers and the Clearinghouse.

All datagram payloads are tuples ``(tag, *fields)``.  :data:`SCHEMA`
declares every tag once — its field names (fixed arity: an unused field
is ``None``), its wire-size term, which fields carry closures, and the
:class:`~repro.micro.worker.Worker` method that handles it — and is what
the worker's net loop dispatches on, what :func:`estimate_size` and
:func:`carried_cids` read, and what ``docs/protocol.md``'s datagram
table is checked against.  Keeping tags and well-known ports in one
module lets the worker and Clearinghouse modules avoid importing each
other.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Well-known ports.
WORKER_PORT = 7000
CLEARINGHOUSE_PORT = 6000
#: Plain-datagram (non-RPC) traffic to the Clearinghouse: results, I/O.
CLEARINGHOUSE_DATA_PORT = 6001
JOBQ_PORT = 5000


def ports_for_job(job_id: int) -> tuple[int, int, int]:
    """(worker_port, ch_rpc_port, ch_data_port) for one macro-level job.

    Each job gets its own port block so several jobs can have workers
    and Clearinghouses on the same workstation.
    """
    if job_id < 0:
        raise ValueError("job_id must be non-negative")
    base = 10000 + job_id * 10
    return (base, base + 1, base + 2)


# -- worker <-> worker -------------------------------------------------------

#: A thief asks for work; the reply goes to the datagram's source
#: address (the thief's main socket), tagged with ``req_id``.
STEAL_REQ = "steal_req"
#: A grant carries one closure under steal-one, up to half the victim's
#: deque under steal-half; ``batch`` None is a refusal.
STEAL_REPLY = "steal_reply"
#: Thief acknowledges receipt of a grant; victims running with
#: ``ack_timeout_s`` reclaim unacked grants (the closure may have
#: died on a severed or lossy link).
GRANT_ACK = "grant_ack"
#: A non-local synchronization.  ``seq`` is set by senders running with
#: ``ack_timeout_s``: the worker that terminates the send (fills
#: the slot or recognises a duplicate) acks it back to ``sender``, and
#: unacked sends are retransmitted — a fill dropped on a severed or
#: lossy link would otherwise leave its join counter stuck forever.
ARG = "arg"
#: Terminates the retransmission of one reliable argument send.
ARG_ACK = "arg_ack"
#: A dying or retiring worker evacuating its tasks (also used by the
#: central-queue and sender-initiated baseline modes to move work).
#: ``offer`` numbers an acked offer so the adopter can recognise its
#: retransmissions; the baselines' fire-and-forget batches carry None.
MIGRATE = "migrate"
#: The receiver took responsibility for a migration batch (sent to the
#: migrator's reply address, an ephemeral socket).
MIGRATE_ACK = "migrate_ack"
#: Sender-initiated baseline's periodic load broadcast (the Parform's
#: "load sensors").
LOAD = "load"

# -- clearinghouse -> worker ---------------------------------------------------

JOB_DONE = "job_done"
PEER_UPDATE = "peer_update"
#: Triggers crash-redo of outstanding steals and migrations.
WORKER_DIED = "worker_died"
#: (Re)start the root task.  ``assignee`` names the survivor the
#: Clearinghouse appointed; None is an open recruitment ping to every
#: ex-member, the first to re-register inheriting the root.
RUN_ROOT = "run_root"
#: Stop-the-world brackets for checkpointing.
PAUSE = "pause"
RESUME = "resume"
#: Answered with a ``snapshot_reply`` holding this worker's frozen task
#: state, to the requester's address.
SNAPSHOT_REQ = "snapshot_req"
SNAPSHOT_REPLY = "snapshot_reply"

# -- worker -> clearinghouse ---------------------------------------------------

#: The job's final result.
RESULT = "result"

# -- RPC method names on the Clearinghouse -------------------------------------

RPC_REGISTER = "register"
RPC_UNREGISTER = "unregister"
RPC_UPDATE = "update"  # doubles as the heartbeat
RPC_IO_WRITE = "io_write"

#: Wire-size model (bytes).  The simulation does not serialise payloads;
#: these estimates feed the bandwidth term of the network cost model.
HEADER_BYTES = 28  # IP + UDP headers
CONTROL_BYTES = 36  # tag + ids + addresses
CLOSURE_BYTES = 96  # thread name, cid, small argument slots
VALUE_BYTES = 24  # one argument value (word-sized results dominate)


class Datagram(NamedTuple):
    """One tag's declaration: the payload is ``(tag, *fields)``."""

    fields: Tuple[str, ...] = ()
    #: Worker method the net loop calls with the fields (None: the tag
    #: is read elsewhere — the Clearinghouse's data port, a migrator's
    #: or checkpoint coordinator's ephemeral socket).
    handler: Optional[str] = None
    #: The handler answers the datagram's source address, so it is
    #: passed the :class:`~repro.net.message.Message` before the fields.
    replies: bool = False
    #: Fields holding lists of closures that *move* with the datagram:
    #: dropping it loses them (see :func:`carried_cids`).
    closures: Tuple[str, ...] = ()
    #: Fields holding lists of closure copies (sized, but not moved).
    copies: Tuple[str, ...] = ()
    #: Fixed bytes on top of header + control.
    extra_bytes: int = 0


SCHEMA: Dict[str, Datagram] = {
    STEAL_REQ: Datagram(("thief", "req_id"), "_serve_steal", replies=True),
    STEAL_REPLY: Datagram(("batch", "victim", "req_id"), "_on_steal_reply",
                          closures=("batch",)),
    GRANT_ACK: Datagram(("thief", "req_id"), "_on_grant_ack"),
    ARG: Datagram(("continuation", "value", "sender", "seq"), "_on_remote_arg",
                  extra_bytes=VALUE_BYTES),
    ARG_ACK: Datagram(("acker", "seq"), "_on_arg_ack"),
    MIGRATE: Datagram(("ready", "suspended", "sender", "offer"), "_on_migrate",
                      replies=True, closures=("ready", "suspended")),
    MIGRATE_ACK: Datagram(("acceptor",)),
    LOAD: Datagram(("sender", "depth"), "_on_load"),
    JOB_DONE: Datagram(("result",), "_on_job_done"),
    PEER_UPDATE: Datagram(("names",), "_on_peer_update"),
    WORKER_DIED: Datagram(("name",), "_on_worker_died"),
    RUN_ROOT: Datagram(("assignee",), "_on_run_root"),
    PAUSE: Datagram((), "_on_pause"),
    RESUME: Datagram((), "_on_resume"),
    SNAPSHOT_REQ: Datagram((), "_on_snapshot_req", replies=True),
    SNAPSHOT_REPLY: Datagram(("name", "ready", "suspended", "seq"),
                             copies=("ready", "suspended")),
    RESULT: Datagram(("value", "worker"), extra_bytes=VALUE_BYTES),
}


def _slots(entry: Datagram, names: Tuple[str, ...]) -> Tuple[int, ...]:
    return tuple(1 + entry.fields.index(name) for name in names)


#: tag -> (handler name, replies) for the tags a worker's net loop reads.
HANDLERS: Dict[str, Tuple[str, bool]] = {
    tag: (e.handler, e.replies) for tag, e in SCHEMA.items() if e.handler}
#: tag -> payload indices of the closure lists that move with it.
_CARRIED = {tag: _slots(e, e.closures) for tag, e in SCHEMA.items()}
#: tag -> (fixed bytes, payload indices of every closure list).
_SIZES = {
    tag: (HEADER_BYTES + CONTROL_BYTES + e.extra_bytes,
          _slots(e, e.closures + e.copies))
    for tag, e in SCHEMA.items()}


def estimate_size(payload: object) -> int:
    """Rough wire size of a protocol datagram.

    Tagged tuples get their schema entry's estimate (a MIGRATE batch
    scales with the number of closures it carries); anything else gets
    the control size.
    """
    if isinstance(payload, tuple) and payload:
        known = _SIZES.get(payload[0])
        if known is not None:
            size, slots = known
            for i in slots:
                if i < len(payload) and payload[i] is not None:
                    size += CLOSURE_BYTES * len(payload[i])
            return size
    return HEADER_BYTES + CONTROL_BYTES


def carried_cids(payload: object) -> List[tuple]:
    """Ids of the closures that ride in (and are lost with) a datagram:
    a steal grant's batch, a migration's ready and suspended lists."""
    if not isinstance(payload, tuple) or not payload:
        return []
    return [c.cid for i in _CARRIED.get(payload[0], ())
            if payload[i] is not None for c in payload[i]]
