"""The lookup-service registry: idempotent mutation, agent-only queries."""
import pytest

from disthash.core import LocalityDescriptor, NodeId, Role
from disthash.lus import AccessDenied, LusRegistry


def loc(net="n1"):
    return LocalityDescriptor(net, "as1", "ro", "eu")


def test_register_is_idempotent_upsert():
    reg = LusRegistry()
    reg.register(NodeId("r1"), loc(), 3)
    assert len(reg) == 1
    reg.register(NodeId("r1"), loc(), 7)
    assert len(reg) == 1
    assert reg.entries[NodeId("r1")].connected_count == 7


def test_deregister_idempotent():
    reg = LusRegistry()
    reg.register(NodeId("r1"), loc(), 1)
    reg.deregister(NodeId("r1"))
    assert NodeId("r1") not in reg
    reg.deregister(NodeId("r1"))  # unknown entry is a no-op
    assert len(reg) == 0


def test_query_denies_clients_and_sorts():
    reg = LusRegistry()
    reg.register(NodeId("r2"), loc("n2"), 2)
    reg.register(NodeId("r1"), loc("n1"), 1)
    reg.register(NodeId("r3"), loc("n3"), 3)
    with pytest.raises(AccessDenied):
        reg.query(Role.CLIENT)
    entries = reg.query(Role.AGENT)
    assert [e[0] for e in entries] == [NodeId("r1"), NodeId("r2"), NodeId("r3")]
    assert entries[1] == (NodeId("r2"), loc("n2"), 2)


def test_snapshot():
    reg = LusRegistry()
    reg.register(NodeId("r1"), loc(), 4)
    assert reg.snapshot() == {NodeId("r1"): (loc(), 4)}
