"""Pure helpers for the data protocols: result merging, balanced replica
placement, the per-object update lock table and the hot-object counter.

The message flows that use them (search, insert, update, direct read,
migration) are implemented by the node state machines in ``nodes``.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .catalogue import REPLICATION_FACTOR, AgentLoadTable
from .core import DistObject, NodeId, ObjectId

# Scenario-overridable default: migrate an object after this many
# remotely-resolved first-match searches.
DEFAULT_MIGRATION_THRESHOLD = 3


class InsufficientAgents(Exception):
    pass


_by_id = attrgetter("id")


def merge_results(partials: list[list[DistObject]]) -> list[DistObject]:
    """Union of partial result lists with duplicates removed by object
    id; deterministic ascending-id order. The first occurrence of an id
    wins, so replicas of the same object collapse to one entry."""
    # built back to front, so the first occurrence is the one kept
    merged = {obj.id: obj for part in reversed(partials) for obj in reversed(part)}
    return sorted(merged.values(), key=_by_id)


def select_replica_holders(members, loads: AgentLoadTable, k: int = REPLICATION_FACTOR,
                           exclude=()) -> tuple[NodeId, ...]:
    """The k distinct least-loaded ``members`` by ``loads`` (one it does
    not list holds none), ties by smallest node id; the first becomes the
    owner. Members in ascending order give a pool that is nearly sorted."""
    count = loads.counts.get
    pool = [(count(a, 0), a) for a in members if a not in exclude]
    if len(pool) < k:
        raise InsufficientAgents(f"need {k} agents, have {len(pool)}")
    pool.sort()
    return tuple(a for _, a in pool[:k])


@dataclass
class PendingUpdate:
    """One queued mutation waiting on (or holding) an object's lock.
    ``route`` is the reply path back to the requester; ``kind`` lets the
    lock table also serialize migrations against updates."""

    request_id: str
    payload: bytes
    route: tuple = ()
    hop: int = 0
    kind: str = "update"
    origin_ragent: NodeId | None = None


class LockTable:
    """At most one in-flight update per object; later updates queue FIFO
    behind the lock instead of being rejected."""

    def __init__(self):
        self.locks: dict[ObjectId, PendingUpdate] = {}
        self.queues: dict[ObjectId, deque[PendingUpdate]] = {}

    def acquire(self, oid: ObjectId, update: PendingUpdate) -> bool:
        """True if the lock was taken; False if the update was queued."""
        if oid in self.locks:
            self.queues.setdefault(oid, deque()).append(update)
            return False
        self.locks[oid] = update
        return True

    def holder(self, oid: ObjectId) -> PendingUpdate | None:
        return self.locks.get(oid)

    def release(self, oid: ObjectId) -> PendingUpdate | None:
        """Release the lock; returns the next queued update (now holding
        the lock) if one was waiting."""
        self.locks.pop(oid, None)
        queue = self.queues.get(oid)
        if queue:
            nxt = queue.popleft()
            if not queue:
                del self.queues[oid]
            self.locks[oid] = nxt
            return nxt
        self.queues.pop(oid, None)
        return None

    def is_locked(self, oid: ObjectId) -> bool:
        return oid in self.locks


@dataclass
class HotCounter:
    """Tally of first-match searches that resolved in a remote cluster;
    reaching the threshold triggers migration of the object into the
    local cluster. Tallies reset on migration."""

    migration_threshold: int = DEFAULT_MIGRATION_THRESHOLD
    counts: dict[ObjectId, int] = field(default_factory=dict)

    def record(self, oid: ObjectId) -> bool:
        """Count one remote hit; True when the threshold is reached."""
        self.counts[oid] = self.counts.get(oid, 0) + 1
        return self.counts[oid] >= self.migration_threshold

    def reset(self, oid: ObjectId) -> None:
        self.counts.pop(oid, None)
