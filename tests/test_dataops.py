"""Result merging, replica placement, the per-object lock table and the
hot-object counter."""
import pytest

from disthash.catalogue import AgentLoadTable
from disthash.core import NodeId, make_object
from disthash.dataops import (HotCounter, InsufficientAgents, LockTable,
                              PendingUpdate, merge_results,
                              select_replica_holders)


def nid(name):
    return NodeId(name)


def obj(n):
    return make_object("t", (), n.to_bytes(2, "big"))


def test_merge_results_identity_and_union():
    o1, o2, o3 = obj(1), obj(2), obj(3)
    assert merge_results([[o1, o2]]) == sorted([o1, o2], key=lambda o: o.id)
    merged = merge_results([[o1, o2], [o2, o3]])
    assert {o.id for o in merged} == {o1.id, o2.id, o3.id}
    assert [o.id for o in merged] == sorted(o.id for o in merged)
    assert merge_results([[], []]) == []


def test_merge_results_first_occurrence_wins():
    o = obj(1)
    newer = o.with_payload(b"other", 5)
    merged = merge_results([[o], [newer]])
    assert merged == [o] and merged[0].version == 0
    # within one partial too
    other = obj(2)
    assert merge_results([[newer, other, o], [o]]) == sorted([newer, other], key=lambda x: x.id)


def test_select_replica_holders():
    members = {nid("a3"), nid("a1"), nid("a2")}
    loads = AgentLoadTable()
    assert select_replica_holders(members, loads) == (nid("a1"), nid("a2"))
    loads.counts.update({nid("a1"): 5, nid("a2"): 1, nid("a3"): 3})
    assert select_replica_holders(members, loads) == (nid("a2"), nid("a3"))
    assert select_replica_holders(members, loads, k=1,
                                  exclude=(nid("a2"),)) == (nid("a3"),)
    # the pool is the members: an agent the table does not list holds
    # none, and one the members lack is not a candidate
    loads.counts = {nid("a1"): 2, nid("a9"): 0}
    assert select_replica_holders(members, loads) == (nid("a2"), nid("a3"))
    with pytest.raises(InsufficientAgents):
        select_replica_holders({nid("a1")}, loads)


def test_lock_table_fifo():
    locks = LockTable()
    oid = obj(1).id
    u1 = PendingUpdate("q1", b"a")
    u2 = PendingUpdate("q2", b"b")
    u3 = PendingUpdate("q3", b"c")
    assert locks.acquire(oid, u1) is True
    assert locks.acquire(oid, u2) is False
    assert locks.acquire(oid, u3) is False
    assert locks.holder(oid) is u1
    assert locks.release(oid) is u2  # next in line now holds the lock
    assert locks.holder(oid) is u2
    assert locks.release(oid) is u3
    assert locks.release(oid) is None
    assert not locks.is_locked(oid)


def test_lock_table_independent_objects():
    locks = LockTable()
    a, b = obj(1).id, obj(2).id
    assert locks.acquire(a, PendingUpdate("q1", b""))
    assert locks.acquire(b, PendingUpdate("q2", b""))
    assert locks.is_locked(a) and locks.is_locked(b)


def test_hot_counter_threshold_and_reset():
    hot = HotCounter(migration_threshold=3)
    oid = obj(1).id
    assert hot.record(oid) is False
    assert hot.record(oid) is False
    assert hot.record(oid) is True
    hot.reset(oid)
    assert hot.record(oid) is False
    other = obj(2).id
    assert hot.record(other) is False  # tallies are per object
