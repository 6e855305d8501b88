"""Tests for protocol constants, port plans, and the wire-size model."""

import pytest

from repro.micro import protocol as P
from repro.tasks.closure import Closure, Continuation


def closure(i=0):
    return Closure(("w", i), "t", [])


def test_ports_for_job_disjoint_blocks():
    seen = set()
    for job_id in range(20):
        ports = P.ports_for_job(job_id)
        assert len(set(ports)) == 3
        assert not (set(ports) & seen)
        seen.update(ports)


def test_ports_for_job_above_well_known():
    for port in P.ports_for_job(0):
        assert port > max(P.WORKER_PORT, P.CLEARINGHOUSE_DATA_PORT, P.JOBQ_PORT)


def test_ports_for_job_negative_rejected():
    with pytest.raises(ValueError):
        P.ports_for_job(-1)


class TestEstimateSize:
    def test_control_messages_small(self):
        assert P.estimate_size((P.JOB_DONE, None)) < 100
        assert P.estimate_size((P.STEAL_REQ, "w1", 7)) < 100

    def test_steal_reply_with_closure_bigger_than_refusal(self):
        grant = P.estimate_size((P.STEAL_REPLY, [closure()], "v", 1))
        batch = P.estimate_size((P.STEAL_REPLY, [closure(), closure(1)], "v", 1))
        refusal = P.estimate_size((P.STEAL_REPLY, None, "v", 1))
        assert grant > refusal
        assert batch - grant == P.CLOSURE_BYTES

    def test_fixed_steal_sizes_are_the_schema_estimates(self):
        assert P.STEAL_REQ_BYTES == P.estimate_size((P.STEAL_REQ, "w1", 7))
        assert P.REFUSAL_BYTES == P.estimate_size((P.STEAL_REPLY, None, "v", 1))

    def test_migrate_scales_with_batch(self):
        small = P.estimate_size((P.MIGRATE, [closure(1)], [], "w"))
        big = P.estimate_size(
            (P.MIGRATE, [closure(i) for i in range(10)], [closure(99)], "w")
        )
        assert big > small
        assert big - small == 10 * P.CLOSURE_BYTES

    def test_arg_carries_value(self):
        arg = P.estimate_size((P.ARG, Continuation(("w", 1), 0), 42, "s"))
        assert arg == P.HEADER_BYTES + P.CONTROL_BYTES + P.VALUE_BYTES

    def test_non_tuple_payload_gets_control_size(self):
        assert P.estimate_size("junk") == P.HEADER_BYTES + P.CONTROL_BYTES


# ---------------------------------------------------------------------------
# The declared schema
# ---------------------------------------------------------------------------

CONT = Continuation(("w", 1), 0)

#: One payload of every tag -> its wire size at the commit before the
#: schema existed (the if/elif ``estimate_size``), and the cids it carries.
PAYLOADS = {
    P.STEAL_REQ: ((P.STEAL_REQ, "w1", 7), 64, []),
    P.STEAL_REPLY: ((P.STEAL_REPLY, [closure(), closure(1)], "v", 1), 256,
                    [("w", 0), ("w", 1)]),
    P.GRANT_ACK: ((P.GRANT_ACK, "w1", 7), 64, []),
    P.ARG: ((P.ARG, CONT, 42, "s", 3), 88, []),
    P.ARG_ACK: ((P.ARG_ACK, "w1", 3), 64, []),
    P.MIGRATE: ((P.MIGRATE, [closure(), closure(1), closure(2)], [closure(3)],
                 "w", 5), 448, [("w", 0), ("w", 1), ("w", 2), ("w", 3)]),
    P.MIGRATE_ACK: ((P.MIGRATE_ACK, "w"), 64, []),
    P.LOAD: ((P.LOAD, "w", 4), 64, []),
    P.JOB_DONE: ((P.JOB_DONE, 55), 64, []),
    P.PEER_UPDATE: ((P.PEER_UPDATE, ["a", "b"]), 64, []),
    P.WORKER_DIED: ((P.WORKER_DIED, "a"), 64, []),
    P.RUN_ROOT: ((P.RUN_ROOT, None), 64, []),
    P.PAUSE: ((P.PAUSE,), 64, []),
    P.RESUME: ((P.RESUME,), 64, []),
    P.SNAPSHOT_REQ: ((P.SNAPSHOT_REQ,), 64, []),
    # A snapshot holds copies: sized, but nothing is lost with it.
    P.SNAPSHOT_REPLY: ((P.SNAPSHOT_REPLY, "w", [closure()],
                        [closure(1), closure(2)], 9), 352, []),
    P.RESULT: ((P.RESULT, 55, "w"), 88, []),
}


def test_every_tag_constant_has_exactly_one_schema_entry():
    tags = {name: value for name, value in vars(P).items()
            if name.isupper() and value == name.lower()}
    assert len(tags) == len(set(tags.values())) == 17
    assert set(tags.values()) == set(P.SCHEMA) == set(PAYLOADS)
    for entry in P.SCHEMA.values():
        assert set(entry.closures + entry.copies) <= set(entry.fields)


@pytest.mark.parametrize("tag", sorted(PAYLOADS))
def test_schema_arity_size_and_carried_cids(tag):
    payload, size, cids = PAYLOADS[tag]
    assert len(payload) == 1 + len(P.SCHEMA[tag].fields)
    assert P.estimate_size(payload) == size
    assert P.carried_cids(payload) == cids


def test_refusals_short_tuples_and_junk():
    assert P.estimate_size((P.STEAL_REPLY, None, "v", 1)) == 64
    assert P.carried_cids((P.STEAL_REPLY, None, "v", 1)) == []
    # Tolerant of tuples shorter than the schema's arity.
    assert P.estimate_size((P.MIGRATE, [closure()])) == 64 + P.CLOSURE_BYTES
    assert P.estimate_size((P.MIGRATE,)) == P.estimate_size((P.STEAL_REPLY,)) == 64
    for junk in ("junk", None, (), ("no_such_tag", 1)):
        assert P.estimate_size(junk) == 64
        assert P.carried_cids(junk) == []


def test_the_net_loop_ignores_what_the_schema_does_not_know(sim):
    from repro.apps.fib import fib_job
    from repro.cluster.platform import SPARCSTATION_1
    from repro.cluster.workstation import Workstation
    from repro.micro.worker import Worker, WorkerConfig
    from repro.net.network import Network
    from repro.net.topology import UniformTopology

    net = Network(sim, UniformTopology(SPARCSTATION_1.net))
    # Push mode, the one mode that reads LOAD; it never registers, so
    # only the net loop acts (its first load broadcast is at 0.25 s).
    w = Worker(sim, Workstation(sim, "wA", SPARCSTATION_1, net), net,
               fib_job(5), "nowhere", WorkerConfig(mode="push"))
    before = dict(vars(w.stats))
    for junk in ("junk", None, (), ("no_such_tag", 1), (P.MIGRATE_ACK, "wB"),
                 (P.RESULT, 1, "wB"), (P.LOAD, "wB", 3)):
        net.post("wA", 9, "wA", w.config.port, junk, 64)
    sim.run(until=0.1)
    assert w._net_proc.is_alive and w.socket.buffered_messages() == []
    assert vars(w.stats) == before
    # ...and the known tag after them landed
    assert w.initiation.peer_loads == {"wB": 3}


def test_docs_datagram_table_lists_exactly_the_schema():
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[2] / "docs" / "protocol.md").read_text()
    section = text.split("## Worker datagrams")[1].split("\n## ")[0]
    documented = {}
    for line in section.splitlines():
        if not line.startswith("| `("):
            continue
        message, _direction, handler = line.split("|")[1:4]
        specs = re.findall(r"`\(([^)]*)\)`", message)
        handlers = re.findall(r"`(\w+)`|(—)", handler)
        assert len(specs) == len(handlers), line
        for spec, (name, _none) in zip(specs, handlers):
            tag, *fields = [part.strip() for part in spec.split(",")]
            assert tag not in documented, tag
            documented[tag] = (tuple(fields), name or None)
    assert list(documented) == list(P.SCHEMA)  # declaration order
    assert documented == {tag: (entry.fields, entry.handler)
                          for tag, entry in P.SCHEMA.items()}
    carrying = {tag for tag in documented
                if re.search(rf"^\| `\({tag},.*\*\*Carries closures\.\*\*", section, re.M)}
    assert carrying == {tag for tag, entry in P.SCHEMA.items() if entry.closures}
