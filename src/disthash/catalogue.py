"""The per-super-peer meta-data catalogue: pattern keys -> object ids ->
ordered holder lists (owner first), plus the count of replicas each
agent holds, kept with the holder lists and read by replica placement.

A catalogue is owned by exactly one RAgent state machine; mutation only
happens inside that machine's event handler, so no locking is needed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import KeyKind, NodeId, ObjectId, PatternKey

# holders every object should have: its owner and one replica
REPLICATION_FACTOR = 2


class CatalogueError(Exception):
    pass


class DuplicateObject(CatalogueError):
    pass


class UnknownObject(CatalogueError):
    pass


class NotAHolder(CatalogueError):
    pass


class ConflictingObject(CatalogueError):
    pass


def clog2(x: int) -> int:
    """Ceil of log2, with values below 2 treated as 1. Used everywhere
    logarithms appear in step accounting."""
    if x < 2:
        return 1
    # exact in integers; math.log2 rounds from 2**49 + 1 on
    return (x - 1).bit_length()


@dataclass(frozen=True)
class ObjectMeta:
    """An object's type tag, its sorted distinct index keys and the
    pattern keys it is listed under. Built once, by ``insert``; every
    copy, split, merge and journal replay of the catalogue shares it."""

    type_tag: str
    index_keys: tuple[str, ...]
    pattern_keys: tuple[PatternKey, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pattern_keys", (
            PatternKey(KeyKind.EXACT_TYPE, self.type_tag),
            *[PatternKey(KeyKind.PATTERN, k) for k in self.index_keys]))


class MetaCatalogue:
    """Pattern key -> set of object ids; one holder list per object id
    (owner first) shared by every key the object is listed under, which
    keeps the per-key holder lists identical by construction.

    A live super-peer's catalogue also keeps a journal: every mutation
    method appends one entry ``(method, *args)`` of values and immutable
    metas (``insert`` logs the ``install`` of the meta it built), and
    ``replay`` applies such entries to another copy, which then shares
    the metas. Setting ``journal`` to ``[]`` starts recording; it is
    ``None`` (nothing recorded) on every other catalogue.

    ``under_replicated`` holds the ids with fewer than ``REPLICATION_FACTOR``
    holders and ``loads`` counts the holder lists naming each agent; every
    method that changes a holder list keeps both.

    ``_matches`` caches, per key looked up, the key's ``(id, owner)``
    pairs in ascending id order and the same ids grouped per owner, in
    ascending owner order. A key's entry is dropped when an object is
    listed under it or unlisted, or when one of its objects changes
    owner; replicas joining or leaving keep it."""

    def __init__(self):
        self.entries: dict[PatternKey, set[ObjectId]] = {}
        self.holders: dict[ObjectId, list[NodeId]] = {}
        self.meta: dict[ObjectId, ObjectMeta] = {}
        self.under_replicated: set[ObjectId] = set()
        self.loads = AgentLoadTable()
        self.journal: list[tuple] | None = None
        self._matches: dict[PatternKey, tuple[tuple, tuple]] = {}

    # -- introspection -------------------------------------------------

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self.holders

    def __len__(self) -> int:
        return len(self.holders)

    @property
    def key_count(self) -> int:
        return len(self.entries)

    def object_ids(self) -> set[ObjectId]:
        return set(self.holders)

    def holders_of(self, oid: ObjectId) -> list[NodeId]:
        if oid not in self.holders:
            raise UnknownObject(oid)
        return list(self.holders[oid])

    def owner_of(self, oid: ObjectId) -> NodeId:
        if oid not in self.holders:
            raise UnknownObject(oid)
        return self.holders[oid][0]

    # -- mutation ------------------------------------------------------

    def insert(self, oid: ObjectId, type_tag: str, index_keys, holders) -> None:
        holders = list(holders)
        if not holders:
            raise ValueError("holder list must be non-empty")
        if len(set(holders)) != len(holders):
            raise ValueError("holder list must not contain duplicates")
        self.install(oid, ObjectMeta(type_tag, tuple(sorted(set(index_keys)))), holders)

    def install(self, oid: ObjectId, meta: ObjectMeta, holders) -> None:
        """List ``oid`` under a meta already built, by ``insert`` here or
        in the catalogue this one copies, with a holder list taken as
        valid (non-empty, distinct, owner first)."""
        if oid in self.holders:
            raise DuplicateObject(oid)
        holders = list(holders)
        self.holders[oid] = holders
        self.meta[oid] = meta
        if len(holders) < REPLICATION_FACTOR:
            self.under_replicated.add(oid)
        for a in holders:
            self.loads.bump(a)
        entries, forget = self.entries, self._matches.pop
        for key in meta.pattern_keys:
            forget(key, None)
            ids = entries.get(key)
            if ids is None:
                entries[key] = {oid}
            else:
                ids.add(oid)
        if self.journal is not None:
            self.journal.append(("install", oid, meta, tuple(holders)))

    def remove_object(self, oid: ObjectId) -> None:
        if oid not in self.holders:
            raise UnknownObject(oid)
        self._unlist(oid)
        if self.journal is not None:
            self.journal.append(("remove_object", oid))

    def _unlist(self, oid: ObjectId) -> None:
        forget = self._matches.pop
        for key in self.meta[oid].pattern_keys:
            forget(key, None)
            ids = self.entries.get(key)
            if ids is not None:
                ids.discard(oid)
                if not ids:
                    del self.entries[key]
        for a in self.holders.pop(oid):
            self.loads.bump(a, -1)
        del self.meta[oid]
        self.under_replicated.discard(oid)

    def set_owner(self, oid: ObjectId, new_owner: NodeId) -> None:
        if oid not in self.holders:
            raise UnknownObject(oid)
        hl = self.holders[oid]
        if new_owner not in hl:
            raise NotAHolder((oid, new_owner))
        if hl[0] != new_owner:
            self._forget(oid)
            hl.remove(new_owner)
            hl.insert(0, new_owner)
        if self.journal is not None:
            self.journal.append(("set_owner", oid, new_owner))

    def add_holder(self, oid: ObjectId, agent: NodeId) -> None:
        if oid not in self.holders:
            raise UnknownObject(oid)
        if agent in self.holders[oid]:
            raise ValueError(f"{agent} already holds {oid}")
        hl = self.holders[oid]
        hl.append(agent)
        self.loads.bump(agent)
        if len(hl) >= REPLICATION_FACTOR:
            self.under_replicated.discard(oid)
        if self.journal is not None:
            self.journal.append(("add_holder", oid, agent))

    def remove_holder(self, oid: ObjectId, agent: NodeId) -> None:
        """Drop one non-owner replica from an object's holder list."""
        if oid not in self.holders:
            raise UnknownObject(oid)
        hl = self.holders[oid]
        if agent not in hl:
            raise NotAHolder((oid, agent))
        if hl[0] == agent:
            raise ValueError(f"{agent} owns {oid}; reassign the owner first")
        hl.remove(agent)
        self.loads.bump(agent, -1)
        if len(hl) < REPLICATION_FACTOR:
            self.under_replicated.add(oid)
        if self.journal is not None:
            self.journal.append(("remove_holder", oid, agent))

    def remove_agent(self, failed: NodeId) -> list[tuple[ObjectId, list[NodeId]]]:
        """Strip ``failed`` from every holder list. Returns the affected
        objects with their surviving holders (owner repaired to the first
        survivor); an empty survivor list means the object is lost and
        its entry has been removed."""
        orphans = []
        for oid in list(self.holders):
            hl = self.holders[oid]
            if failed not in hl:
                continue
            if hl[0] == failed:
                self._forget(oid)
            hl.remove(failed)
            orphans.append((oid, list(hl)))
            if not hl:
                self._unlist(oid)
            elif len(hl) < REPLICATION_FACTOR:
                self.under_replicated.add(oid)
        self.loads.drop_agent(failed)
        if self.journal is not None:
            self.journal.append(("remove_agent", failed))
        return orphans

    def _forget(self, oid: ObjectId) -> None:
        """Drop the cached matches of every key ``oid`` is listed under."""
        forget = self._matches.pop
        for key in self.meta[oid].pattern_keys:
            forget(key, None)

    # -- log shipping --------------------------------------------------

    def take_journal(self) -> tuple:
        """The entries recorded since the last call, oldest first."""
        ops = tuple(self.journal)
        self.journal.clear()
        return ops

    def replay(self, ops) -> None:
        """Apply journal entries, in order, through the same methods that
        recorded them."""
        for name, *args in ops:
            getattr(self, name)(*args)

    # -- lookup --------------------------------------------------------

    def lookup(self, criterion: PatternKey) -> tuple[list[tuple[ObjectId, NodeId]], int]:
        """All objects matching the criterion, as (id, owner) pairs in
        ascending id order, plus the number of key-comparison steps the
        lookup cost: all M keys scanned for a pattern criterion, ceil
        log2(M) for an exact-type criterion on the hashed index."""
        m = self.key_count
        if m == 0:
            return [], 0
        steps = m if criterion.kind is KeyKind.PATTERN else clog2(m)
        return list(self._matched(criterion)[0]), steps

    def owner_groups(self, criterion: PatternKey
                     ) -> tuple[tuple[NodeId, tuple[ObjectId, ...]], ...]:
        """The ids ``lookup`` returns, grouped per owner: ``(owner, ids)``
        in ascending owner order, each owner's ids ascending."""
        return self._matched(criterion)[1]

    def _matched(self, criterion: PatternKey) -> tuple[tuple, tuple]:
        hit = self._matches.get(criterion)
        if hit is not None:
            return hit
        ids = self.entries.get(criterion)
        if not ids:
            return (), ()
        holders = self.holders
        pairs = tuple([(oid, holders[oid][0]) for oid in sorted(ids)])
        by_owner: dict[NodeId, list[ObjectId]] = {}
        for oid, owner in pairs:
            by_owner.setdefault(owner, []).append(oid)
        groups = tuple([(owner, tuple(by_owner[owner])) for owner in sorted(by_owner)])
        hit = self._matches[criterion] = pairs, groups
        return hit

    # -- reconfiguration -----------------------------------------------

    def split(self, keep_agents: set[NodeId], move_agents: set[NodeId]) -> tuple["MetaCatalogue", "MetaCatalogue"]:
        """Divide into two catalogues. An object's entry goes to the side
        whose agent set contains its owner; replicas straddling the two
        sides stay listed on the owner's side (re-homing the stray
        replica is the cluster logic's job)."""
        if keep_agents & move_agents:
            raise ValueError("keep and move agent sets must be disjoint")
        referenced = {a for hl in self.holders.values() for a in hl}
        uncovered = referenced - keep_agents - move_agents
        if uncovered:
            raise ValueError(f"agents not covered by split: {uncovered}")
        keep, move = MetaCatalogue(), MetaCatalogue()
        for oid, hl in self.holders.items():
            side = keep if hl[0] in keep_agents else move
            side.install(oid, self.meta[oid], hl)
        return keep, move

    def merge(self, other: "MetaCatalogue") -> None:
        """Absorb ``other``. Object-id sets must be disjoint (guaranteed
        by single-owner placement)."""
        clash = self.object_ids() & other.object_ids()
        if clash:
            raise ConflictingObject(sorted(clash)[0])
        for oid, hl in other.holders.items():
            self.install(oid, other.meta[oid], hl)

    def copy(self) -> "MetaCatalogue":
        dup = MetaCatalogue()
        meta = self.meta
        for oid, hl in self.holders.items():
            dup.install(oid, meta[oid], hl)
        return dup

    def __eq__(self, other):
        if not isinstance(other, MetaCatalogue):
            return NotImplemented
        return self.holders == other.holders and self.meta == other.meta

    def __repr__(self):
        return f"MetaCatalogue({len(self.holders)} objects, {self.key_count} keys)"


class AgentLoadTable:
    """Replica counts per agent, kept by a ``MetaCatalogue`` for placement.
    An unseen agent counts 0, and a count that falls to 0 is dropped."""

    def __init__(self, agents=()):
        self.counts: dict[NodeId, int] = {a: 0 for a in agents}

    def add_agent(self, agent: NodeId) -> None:
        self.counts.setdefault(agent, 0)

    def drop_agent(self, agent: NodeId) -> None:
        self.counts.pop(agent, None)

    def bump(self, agent: NodeId, delta: int = 1) -> None:
        value = self.counts.get(agent, 0) + delta
        if value < 0:
            raise ValueError(f"negative load for {agent}")
        if value:
            self.counts[agent] = value
        else:
            self.counts.pop(agent, None)

    def get(self, agent: NodeId) -> int:
        return self.counts[agent]

    def copy(self) -> "AgentLoadTable":
        dup = AgentLoadTable()
        dup.counts = dict(self.counts)
        return dup

    def __eq__(self, other):
        if not isinstance(other, AgentLoadTable):
            return NotImplemented
        return self.counts == other.counts
