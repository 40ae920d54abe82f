"""Node state machines: Agent (replica holder), RAgent (super-peer with
the meta-data catalogue), LUS (lookup service) and Client. Each node is
a single-threaded event handler driven by the simulator; all interaction
is via messages and timers. The super-peers write every lookup service
themselves, one multicast per change, from their own evidence; the
lookup services keep no protocol among themselves.

Conventions used throughout:
 - every iteration over a set is sorted, so runs are reproducible
   regardless of the interpreter's hash seed;
 - messages carry ``request_id`` (for per-request accounting) and
   ``hop`` (path length from the originating client);
 - a client operation carries its reply path as one ``route`` tuple,
   nearest hop first and the client last: a node that relays the
   request onward prepends itself, and the reply (``OpReply``,
   ``ProgressNote``) is sent to ``route[0]`` with the rest in tow;
 - a node never assigns to a message it receives, as a multicast
   shares one object among its destinations: a relay sends a ``_copy``;
 - a timer belongs to the node object that set it: the engine runs no
   timer of an object that a role change or a rejoin has replaced;
 - catalogues, with their replica counts, are copied when sent, except
   that a merge hands its catalogue over whole, as the sender stops using it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .catalogue import DuplicateObject, MetaCatalogue
from .core import (DistObject, LocalityDescriptor, NodeId, NodeSet, ObjectId,
                   PatternKey, Role)
from .dataops import (DEFAULT_MIGRATION_THRESHOLD, REPLICATION_FACTOR,
                      HotCounter, InsufficientAgents, LockTable,
                      PendingUpdate, merge_results, select_replica_holders)
from .lus import LusRegistry
from .membership import (HeartbeatConfig, NoMergeTarget, Thresholds,
                         choose_merge_target, detect_failures, elect_agent,
                         join_select_ragent, split_partition)
from .sim import ClusterTally, SearchAccounting, SendFailed, Simulator


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shared by every peer: thresholds, heartbeat cadence, the
    lookup-service addresses and the data-placement tunables. Carried
    across promotions, splits and demotions."""

    thresholds: Thresholds
    hb: HeartbeatConfig
    lus_ids: tuple  # every lookup service, each written by each super-peer
    delegation_factor: float = 0.0  # 0 disables insert delegation
    migration_threshold: int = DEFAULT_MIGRATION_THRESHOLD


# ---------------------------------------------------------------------
# Messages


@dataclass(kw_only=True)
class LusQuery:
    role: Role
    hop: int = 0


@dataclass(kw_only=True)
class LusQueryReply:
    entries: tuple = ()
    hop: int = 0


@dataclass(kw_only=True)
class LusRegister:
    ragent: NodeId
    locality: LocalityDescriptor
    count: int


@dataclass(kw_only=True)
class LusDeregister:
    ragent: NodeId


@dataclass(kw_only=True)
class JoinRequest:
    joiner: NodeId
    locality: LocalityDescriptor
    hop: int = 0


@dataclass(kw_only=True)
class JoinAccept:
    ragent: NodeId
    secondary: NodeId | None
    hop: int = 0


@dataclass(kw_only=True, frozen=True)
class AgentHeartbeat:
    resync: bool = False  # the secondary's catalogue copy missed a batch


@dataclass(kw_only=True, frozen=True)
class RAgentHeartbeat:
    secondary: NodeId | None


# heartbeats carry no per-recipient field, so one frozen instance serves
# every recipient of a beat round
AGENT_HEARTBEAT = AgentHeartbeat()
AGENT_HEARTBEAT_RESYNC = AgentHeartbeat(resync=True)


@dataclass(kw_only=True, frozen=True)
class PeerHeartbeat:
    cat_size: int
    member_count: int


@dataclass(kw_only=True)
class ConfigUpdate:
    ragent: NodeId
    secondary: NodeId | None


@dataclass(kw_only=True)
class ReassignCluster:
    ragent: NodeId


@dataclass(kw_only=True)
class AssumeRAgent:
    catalogue: MetaCatalogue
    members: tuple
    peers: tuple


@dataclass(kw_only=True)
class CatalogueSync:
    """Primary to secondary: a full ``snapshot``, or (``snapshot`` None)
    the journal ``ops`` recorded since sync number ``base``. ``seq``
    numbers this sync; members and peers are always whole. The replica
    counts come with the catalogue, in a snapshot or by replay."""

    snapshot: MetaCatalogue | None
    ops: tuple
    base: int
    seq: int
    members: tuple
    peers: tuple


@dataclass(kw_only=True)
class PeerUpdate:
    add: tuple = ()
    remove: tuple = ()
    merged_into: NodeId | None = None  # the removed peer handed its cluster on


@dataclass(kw_only=True)
class MergeRequest:
    from_ragent: NodeId
    catalogue: MetaCatalogue
    members: tuple
    peers: tuple  # with the rest, to head the cluster again if it comes back
    hop: int = 0


@dataclass(kw_only=True)
class CopyReplica:
    """Source holder, copy ``oid`` to ``dest``; ``dest`` acknowledges
    with CopyDone and only then becomes a catalogue holder."""

    oid: ObjectId
    dest: NodeId
    copy_id: str


@dataclass(kw_only=True)
class CopyFailed:
    oid: ObjectId
    copy_id: str


@dataclass(kw_only=True)
class CopyDone:
    oid: ObjectId
    copy_id: str


@dataclass(kw_only=True)
class DropReplica:
    ids: tuple


@dataclass(kw_only=True)
class StoreReplica:
    obj: DistObject
    request_id: str | None = None
    copy_id: str | None = None
    hop: int = 0


# client -> agent -> super-peer: the same message all the way. The agent
# adds the reply route; it rides in the message, so it survives being
# forwarded after a merge demotion.


@dataclass(kw_only=True)
class CSearch:
    request_id: str
    criterion: PatternKey
    mode: str  # all | first
    route: tuple = ()
    hop: int = 1

    @property
    def op(self) -> str:
        return "search" if self.mode == "all" else "search_first"


@dataclass(kw_only=True)
class CInsert:
    op = "insert"
    request_id: str
    obj: DistObject
    route: tuple = ()
    hop: int = 1


@dataclass(kw_only=True)
class CUpdate:
    op = "update"
    request_id: str
    oid: ObjectId
    payload: bytes
    route: tuple = ()
    hop: int = 1


@dataclass(kw_only=True)
class CRead:
    request_id: str
    oid: ObjectId
    hop: int = 1


# super-peer to super-peer / to member agents


@dataclass(kw_only=True)
class RemoteSearch:
    request_id: str
    criterion: PatternKey
    mode: str
    hop: int = 0


@dataclass(kw_only=True)
class RemoteSearchReply:
    request_id: str
    objects: tuple = ()
    holder: NodeId | None = None
    hop: int = 0


# the fetch round trip is most of a search's messages: slotted records,
# built positionally, never relayed, so never passed to ``_copy``
@dataclass(slots=True)
class FetchObjects:
    request_id: str
    ids: tuple
    purpose: str = "search"  # search | migrate
    hop: int = 0


@dataclass(slots=True)
class FetchReply:
    request_id: str
    objects: tuple
    missing: tuple
    store_size: int
    purpose: str
    hop: int = 0


@dataclass(kw_only=True)
class DelegateInsert:
    op = "insert"
    request_id: str
    obj: DistObject
    route: tuple
    hop: int = 0


@dataclass(kw_only=True)
class OwnerQuery:
    request_id: str
    oid: ObjectId
    hop: int = 0


@dataclass(kw_only=True)
class OwnerQueryReply:
    request_id: str
    oid: ObjectId
    has: bool
    hop: int = 0


@dataclass(kw_only=True)
class ForwardUpdate:
    op = "update"
    request_id: str
    oid: ObjectId
    payload: bytes
    route: tuple
    hop: int = 0


@dataclass(kw_only=True)
class UpdateRetry:
    op = "update"
    request_id: str
    oid: ObjectId
    payload: bytes
    route: tuple
    hop: int = 0


@dataclass(kw_only=True)
class ApplyUpdate:
    request_id: str
    oid: ObjectId
    payload: bytes
    hop: int = 0


@dataclass(kw_only=True)
class ApplyAck:
    request_id: str
    oid: ObjectId
    version: int
    hop: int = 0


@dataclass(kw_only=True)
class ApplyMissing:
    request_id: str
    oid: ObjectId
    hop: int = 0


@dataclass(kw_only=True)
class ReplicaUpdate:
    request_id: str
    oid: ObjectId
    payload: bytes
    version: int
    hop: int = 0


@dataclass(kw_only=True)
class ReplicaUpdateAck:
    request_id: str
    oid: ObjectId
    hop: int = 0


@dataclass(kw_only=True)
class ProgressNote:
    request_id: str
    oid: ObjectId
    route: tuple
    hop: int = 0


@dataclass(kw_only=True)
class OpReply:
    request_id: str
    op: str
    outcome: str
    route: tuple
    objects: tuple = ()
    holder: NodeId | None = None
    version: int | None = None
    hop: int = 0


@dataclass(kw_only=True)
class MigrateRequest:
    request_id: str
    oid: ObjectId
    hop: int = 0


@dataclass(kw_only=True)
class MigrateDenied:
    request_id: str
    oid: ObjectId
    hop: int = 0


@dataclass(kw_only=True)
class MigrateTransfer:
    request_id: str
    obj: DistObject
    hop: int = 0


@dataclass(kw_only=True)
class MigrateAck:
    request_id: str
    oid: ObjectId
    hop: int = 0


def _copy(msg, **changes):
    """``dataclasses.replace(msg, **changes)`` for a message: a new
    instance of its class with the named fields set. It copies the
    instance dict instead of inspecting the fields on every call; a
    relay copies the message it passes on, as one object may have been
    multicast to many nodes."""
    fields = msg.__dict__.copy()
    n = len(fields)
    fields.update(changes)
    if len(fields) != n:
        raise TypeError(f"{type(msg).__name__} has no field "
                        f"{', '.join(sorted(changes.keys() - msg.__dict__.keys()))}")
    new = object.__new__(type(msg))
    new.__dict__ = fields
    return new


# ---------------------------------------------------------------------
# Base node


class BaseNode:
    role: Role  # each concrete class sets it; a role change swaps the object

    def __init_subclass__(cls, **kwargs):
        """Build the class's handler tables: message type name ->
        ``_on_<name>``, timer tag -> ``_tick_<tag>``."""
        super().__init_subclass__(**kwargs)
        cls._on = {n[4:]: getattr(cls, n) for n in dir(cls) if n.startswith("_on_")}
        cls._tick = {n[6:]: getattr(cls, n) for n in dir(cls) if n.startswith("_tick_")}

    def __init__(self, node_id: NodeId, locality: LocalityDescriptor):
        self.node_id = node_id
        self.locality = locality

    def on_message(self, sim: Simulator, msg, src: NodeId) -> bool:
        """Run the handler for ``msg``'s type. A type the node's current
        role has no handler for (stale traffic after a role change) is
        ignored, and False tells the engine so."""
        handler = self._on.get(type(msg).__name__)
        if handler is None:
            return False
        handler(self, sim, msg, src)
        return True

    def on_timer(self, sim: Simulator, tag: str, payload) -> None:
        handler = self._tick.get(tag)
        if handler is not None:
            handler(self, sim, payload)

    def on_crash(self, sim: Simulator) -> None:
        pass

    def on_rejoin(self, sim: Simulator) -> None:
        pass

    def _reply(self, sim, route: tuple, **fields) -> None:
        """Answer a client operation along its reply ``route``."""
        sim.send(self.node_id, route[0], OpReply(route=route[1:], **fields))

    def _relay(self, sim, msg: OpReply | ProgressNote, src):
        """Pass a routed reply on to its next hop; at the end of the
        route, take it."""
        if msg.route:
            sim.send(self.node_id, msg.route[0],
                     _copy(msg, route=msg.route[1:], hop=msg.hop + 1))
        elif type(msg) is OpReply:
            self._complete_op(sim, msg)
        else:
            self._note_progress(sim, msg)

    _on_OpReply = _on_ProgressNote = _relay

    def _complete_op(self, sim, msg: OpReply) -> None:
        pass

    def _note_progress(self, sim, msg: ProgressNote) -> None:
        pass


# ---------------------------------------------------------------------
# Lookup service


class LusNode(BaseNode):
    """One lookup-service instance: a plain registry that the super-peers
    write, each to every instance, and that joining agents query. The
    instances keep no protocol between them; they never crash."""

    role = Role.LUS

    def __init__(self, node_id, locality):
        super().__init__(node_id, locality)
        self.registry = LusRegistry()

    def _on_LusRegister(self, sim, msg: LusRegister, src):
        self.registry.register(msg.ragent, msg.locality, msg.count)

    def _on_LusDeregister(self, sim, msg: LusDeregister, src):
        self.registry.deregister(msg.ragent)

    def _on_LusQuery(self, sim, msg: LusQuery, src):
        # a super-peer that rejoined may still be listed: not to itself
        entries = tuple(e for e in self.registry.query(msg.role) if e[0] != src)
        sim.send(self.node_id, src, LusQueryReply(entries=entries, hop=msg.hop + 1))


# ---------------------------------------------------------------------
# Agent


class AgentNode(BaseNode):
    """Ordinary peer: holds object replicas, heartbeats its super-peer,
    relays client operations, and (when designated secondary backup)
    keeps a live copy of the cluster catalogue, promoting itself if the
    super-peer dies."""

    role = Role.AGENT

    def __init__(self, node_id, locality, config: ClusterConfig):
        super().__init__(node_id, locality)
        self.config = config
        self.store: dict[ObjectId, DistObject] = {}
        self.history: dict[ObjectId, list[int]] = {}
        self.ragent: NodeId | None = None
        self.secondary_id: NodeId | None = None
        self.last_ragent_seen = 0
        self.joined = False
        # secondary-backup shadow state, populated by CatalogueSync
        self.sync_catalogue: MetaCatalogue | None = None
        self.sync_source: NodeId | None = None
        self.sync_seq = 0
        self.sync_stale = False
        self.sync_members: tuple = ()
        self.sync_peers: tuple = ()
        self._suspected_ragent: NodeId | None = None

    @property
    def hb(self) -> HeartbeatConfig:
        return self.config.hb

    # -- lifecycle ------------------------------------------------------

    def start(self, sim: Simulator) -> None:
        if self.joined:
            self.last_ragent_seen = sim.clock
            sim.every(self.node_id, "hb", self.hb.period_us)
        else:
            self._begin_join(sim)

    def _begin_join(self, sim: Simulator) -> None:
        sim.send(self.node_id, self.config.lus_ids[0],
                 LusQuery(role=Role.AGENT))

    def _on_LusQueryReply(self, sim, msg: LusQueryReply, src):
        if self.joined:
            return
        if not msg.entries:
            sim.set_timer(self.node_id, "retry_join", self.hb.period_us)
            return
        choice = join_select_ragent(list(msg.entries), self.locality)
        sim.send(self.node_id, choice,
                 JoinRequest(joiner=self.node_id, locality=self.locality))

    def _tick_retry_join(self, sim, payload):
        if not self.joined:
            self._begin_join(sim)

    def _on_JoinAccept(self, sim, msg: JoinAccept, src):
        if self.joined:
            return
        self.joined = True
        self.ragent = msg.ragent
        self.secondary_id = msg.secondary
        self.last_ragent_seen = sim.clock
        self._suspected_ragent = None
        sim.every(self.node_id, "hb", self.hb.period_us)

    # -- role changes: the only two places a node object is replaced ----

    def _become_agent(self, sim) -> AgentNode:
        """Install a fresh agent under this node's id."""
        agent = AgentNode(self.node_id, self.locality, self.config)
        sim.nodes[self.node_id] = agent
        return agent

    def on_rejoin(self, sim):
        # replicas and secondary state are stale: re-enter as a fresh agent
        self._become_agent(sim)._begin_join(sim)

    def _become_ragent(self, sim, catalogue: MetaCatalogue, members, peers,
                       replacing: NodeId | None = None) -> None:
        """Install a super-peer under this node's id over the given
        cluster state: the synced copy when the secondary takes
        over the dead ``replacing``, a split's hand-off otherwise. Then
        vacate own replicas, replace the registry entry, announce itself
        to the peers, elect a secondary and tell the members."""
        gone = {self.node_id, replacing}
        ragent = RAgentNode(self.node_id, self.locality, self.config)
        ragent.catalogue = catalogue
        ragent.members = NodeSet(set(members) - gone)
        ragent.peers = NodeSet(set(peers) - gone)
        sim.nodes[self.node_id] = ragent
        if replacing is None:
            sim.record_member_event("assume_ragent", self.node_id, self.node_id,
                                    f"members={len(ragent.members)}")
        else:
            sim.record_member_event("promote", self.node_id, self.node_id,
                                    f"replacing={replacing}")
        ragent._vacate_holder(sim, self.node_id)
        if replacing is not None:
            sim.multicast(self.node_id, self.config.lus_ids,
                          LusDeregister(ragent=replacing))
        ragent._update_lus_count(sim)
        sim.multicast(self.node_id, ragent.peers.ordered, PeerUpdate(
            add=(self.node_id,), remove=(replacing,) if replacing else ()))
        ragent._elect_secondary(sim)
        sim.multicast(self.node_id, ragent.members.ordered, ConfigUpdate(
            ragent=self.node_id, secondary=ragent.secondary))
        ragent.start(sim)

    # -- heartbeats and failover ------------------------------------------

    def _tick_hb(self, sim, payload):
        if self.joined and self.ragent is not None:
            sim.send(self.node_id, self.ragent,
                     AGENT_HEARTBEAT_RESYNC if self.sync_stale else AGENT_HEARTBEAT)
            silent = sim.clock - self.last_ragent_seen
            if silent > self.config.hb.failure_timeout_us and self._suspected_ragent != self.ragent:
                self._suspect_ragent(sim)

    def _suspect_ragent(self, sim):
        # the secondary promotes on its own timeout; any other member gives
        # it one more timeout to announce itself, then reports the loss
        self._suspected_ragent = self.ragent
        if self.secondary_id == self.node_id:
            self._promote(sim)
        elif self.secondary_id is not None:
            sim.set_timer(self.node_id, "lost_check",
                          self.hb.failure_timeout_us, self.ragent)
        else:
            sim.record_cluster_lost(self.ragent, self.node_id)

    def _tick_lost_check(self, sim, suspected):
        # still pointing at the dead super-peer and nobody announced a
        # replacement: the cluster state is gone
        if self.ragent == suspected and sim.clock - self.last_ragent_seen > self.hb.failure_timeout_us:
            sim.record_cluster_lost(suspected, self.node_id)

    def _on_RAgentHeartbeat(self, sim, msg: RAgentHeartbeat, src):
        # a rejoined agent can still hear the super-peer it had before its
        # crash; only its own join answer admits it and starts its beat
        if not self.joined:
            return
        self.ragent = src
        self.secondary_id = msg.secondary
        self.last_ragent_seen = sim.clock
        self._suspected_ragent = None

    def _on_ConfigUpdate(self, sim, msg: ConfigUpdate, src):
        self.ragent = msg.ragent
        self.secondary_id = msg.secondary
        self.last_ragent_seen = sim.clock
        self._suspected_ragent = None

    def _on_ReassignCluster(self, sim, msg: ReassignCluster, src):
        self.ragent = msg.ragent
        self.last_ragent_seen = sim.clock
        self._suspected_ragent = None

    def _on_CatalogueSync(self, sim, msg: CatalogueSync, src):
        if msg.snapshot is not None:
            self.sync_catalogue = msg.snapshot
            self.sync_source = src
            self.sync_stale = False
        elif src != self.sync_source or msg.base != self.sync_seq:
            # a batch went missing: keep the copy, ask for a snapshot
            self.sync_stale = True
            return
        else:
            self.sync_catalogue.replay(msg.ops)
        self.sync_seq = msg.seq
        self.sync_members = msg.members
        self.sync_peers = msg.peers

    def _promote(self, sim):
        """Secondary backup takes over the crashed super-peer's role,
        using the synced catalogue copy."""
        self._become_ragent(sim, self.sync_catalogue or MetaCatalogue(),
                            self.sync_members, self.sync_peers,
                            replacing=self.ragent)

    # -- replica store -----------------------------------------------------

    def _record_version(self, oid: ObjectId, version: int) -> None:
        self.history.setdefault(oid, []).append(version)

    def _on_StoreReplica(self, sim, msg: StoreReplica, src):
        self.store[msg.obj.id] = msg.obj
        self._record_version(msg.obj.id, msg.obj.version)
        if msg.copy_id is not None and self.ragent is not None:
            # the super-peer only lists this node as holder once the
            # bytes have actually arrived
            sim.send(self.node_id, self.ragent,
                     CopyDone(oid=msg.obj.id, copy_id=msg.copy_id))

    def _on_DropReplica(self, sim, msg: DropReplica, src):
        for oid in msg.ids:
            self.store.pop(oid, None)

    def _on_CopyDone(self, sim, msg: CopyDone, src):
        # only a former super-peer gets one: a copy it started before it
        # crashed and rejoined, which no catalogue lists (a merge waits
        # for its copies)
        sim.send(self.node_id, src, DropReplica(ids=(msg.oid,)))

    def _on_CopyReplica(self, sim, msg: CopyReplica, src):
        obj = self.store.get(msg.oid)
        if obj is None:
            sim.send(self.node_id, src, CopyFailed(oid=msg.oid, copy_id=msg.copy_id))
        else:
            sim.send(self.node_id, msg.dest,
                     StoreReplica(obj=obj, copy_id=msg.copy_id))

    def _on_FetchObjects(self, sim, msg: FetchObjects, src):
        objects, missing, store = [], [], self.store
        for oid in msg.ids:
            obj = store.get(oid)
            if obj is None:
                missing.append(oid)
            else:
                objects.append(obj)
        sim.send(self.node_id, src, FetchReply(
            msg.request_id, tuple(objects), tuple(missing), len(store),
            msg.purpose, msg.hop + 1))

    def _on_ApplyUpdate(self, sim, msg: ApplyUpdate, src):
        obj = self.store.get(msg.oid)
        if obj is None:
            # a rejoin wiped the store; the super-peer unlists this node
            sim.send(self.node_id, src, ApplyMissing(
                request_id=msg.request_id, oid=msg.oid, hop=msg.hop + 1))
            return
        new = obj.with_payload(msg.payload, obj.version + 1)
        self.store[msg.oid] = new
        self._record_version(msg.oid, new.version)
        sim.send(self.node_id, src, ApplyAck(
            request_id=msg.request_id, oid=msg.oid, version=new.version,
            hop=msg.hop + 1))

    def _on_ReplicaUpdate(self, sim, msg: ReplicaUpdate, src):
        current = self.store.get(msg.oid)
        # versions are monotone; a copy that raced ahead is kept
        if current is not None and msg.version > current.version:
            self.store[msg.oid] = current.with_payload(msg.payload, msg.version)
            self._record_version(msg.oid, msg.version)
        sim.send(self.node_id, src, ReplicaUpdateAck(
            request_id=msg.request_id, oid=msg.oid, hop=msg.hop + 1))

    def _on_CRead(self, sim, msg: CRead, src):
        obj = self.store.get(msg.oid)
        self._reply(sim, (src,), request_id=msg.request_id, op="read",
                    outcome="ok" if obj is not None else "not_held",
                    objects=(obj,) if obj is not None else (), hop=msg.hop + 1)

    # -- client relays -------------------------------------------------------

    def _relay_op(self, sim, msg: CSearch | CInsert | CUpdate, src):
        """Hand a client op to the super-peer with this node and the
        client as its reply route. An op that already has a route was
        sent to this node while it was a super-peer; a merge has demoted
        it since, so the op goes on, route intact, to the cluster it
        merged into."""
        if not self.joined or self.ragent is None:
            self._reply(sim, msg.route or (src,), request_id=msg.request_id,
                        op=msg.op, outcome="no_ragent")
            return
        sim.send(self.node_id, self.ragent, _copy(
            msg, route=msg.route or (self.node_id, src), hop=msg.hop + 1))

    _on_CSearch = _on_CInsert = _on_CUpdate = _relay_op

    def _pass_on(self, sim, msg: MergeRequest | JoinRequest | DelegateInsert
                 | ForwardUpdate | UpdateRetry, src):
        """Sent to this node while it was a super-peer; a merge has
        demoted it since, so ``msg`` goes on, with the reply address it
        carries, to the cluster it merged into. Its own hand-off, passed
        back by a target that merged into this node in turn, makes it
        head the cluster again."""
        if isinstance(msg, MergeRequest) and msg.from_ragent == self.node_id:
            self._become_ragent(sim, msg.catalogue, msg.members, msg.peers)
        elif self.joined and self.ragent is not None:
            sim.send(self.node_id, self.ragent, _copy(msg, hop=msg.hop + 1))
        else:
            # in no cluster (a rejoin the registry still lists): refused,
            # as a dead node's would be, so that the sender goes on
            sim.send(self.node_id, src, SendFailed(original=msg, dead=self.node_id))

    _on_MergeRequest = _on_JoinRequest = _on_DelegateInsert = _pass_on
    _on_ForwardUpdate = _on_UpdateRetry = _pass_on

    # a peer that still lists this node as a super-peer is told "not
    # here", so it neither waits for an answer nor leaks request state
    def _on_RemoteSearch(self, sim, msg: RemoteSearch, src):
        sim.send(self.node_id, src, RemoteSearchReply(
            request_id=msg.request_id, objects=(), hop=msg.hop + 1))

    def _on_OwnerQuery(self, sim, msg: OwnerQuery, src):
        sim.send(self.node_id, src, OwnerQueryReply(
            request_id=msg.request_id, oid=msg.oid, has=False, hop=msg.hop + 1))

    def _on_MigrateRequest(self, sim, msg: MigrateRequest, src):
        sim.send(self.node_id, src, MigrateDenied(
            request_id=msg.request_id, oid=msg.oid, hop=msg.hop + 1))

    def _on_AssumeRAgent(self, sim, msg: AssumeRAgent, src):
        self._become_ragent(sim, msg.catalogue, msg.members, msg.peers)

    def _on_SendFailed(self, sim, msg: SendFailed, src):
        orig = msg.original
        if isinstance(orig, JoinRequest) and orig.joiner == self.node_id:
            sim.set_timer(self.node_id, "retry_join", self.hb.period_us)
        elif isinstance(orig, JoinRequest):
            # passed on to a super-peer that died: the joiner retries
            sim.send(self.node_id, orig.joiner, msg)
        elif isinstance(orig, (CSearch, CInsert, CUpdate, DelegateInsert,
                               ForwardUpdate, UpdateRetry)):
            # straight to the client, the last hop of the route
            self._reply(sim, orig.route[-1:], request_id=orig.request_id, op=orig.op,
                        outcome="ragent_down", hop=orig.hop + 1)
        elif isinstance(orig, MergeRequest) and orig.from_ragent == self.node_id:
            # the merge target died: head the cluster again at once, before
            # the bounces of what this node passed on come back
            self._become_ragent(sim, orig.catalogue, orig.members, orig.peers)
        elif isinstance(orig, MergeRequest) and msg.dead != orig.from_ragent:
            # passed on to a target that died: back to its sender, which
            # heads its cluster again (a dead one's secondary takes over)
            sim.send(self.node_id, orig.from_ragent, orig)
        # bounced heartbeats need no reaction; detection is timeout-driven


# ---------------------------------------------------------------------
# RAgent


def _answered(awaiting: dict, node: NodeId) -> None:
    """``node`` gave one of the answers it owed, if it owed any."""
    n = awaiting.pop(node, 0)
    if n > 1:
        awaiting[node] = n - 1


@dataclass(slots=True)
class SearchState:
    mode: str
    criterion: PatternKey
    route: tuple = ()                    # local origin: reply path
    remote_origin: NodeId | None = None  # remote origin: peer to answer
    # node -> answers still owed: a merge target can owe two
    awaiting_agents: dict = field(default_factory=dict)
    awaiting_peers: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    holder: NodeId | None = None
    max_hop: int = 0
    tally: ClusterTally | None = None    # this cluster's steps, set by _search


@dataclass
class ResolveState:
    oid: ObjectId
    payload: bytes
    route: tuple
    awaiting: dict  # peer -> answers still owed
    forwarded: bool = False
    hop: int = 0


@dataclass
class UpdateExec:
    pu: PendingUpdate
    oid: ObjectId
    awaiting_acks: set = field(default_factory=set)
    version: int | None = None


class RAgentNode(BaseNode):
    """Super-peer: heads a cluster of agents, owns the meta-data
    catalogue, runs the data protocols and the failure handlers, and
    keeps its secondary backup in sync."""

    role = Role.RAGENT

    def __init__(self, node_id, locality, config: ClusterConfig):
        super().__init__(node_id, locality)
        self.config = config
        self.catalogue = MetaCatalogue()
        # NodeSets: the sweep and the fan-outs read their ascending tuples
        self.members = NodeSet()
        self.secondary: NodeId | None = None
        self.peers = NodeSet()
        self.peer_sizes: dict[NodeId, int] = {}
        self.peer_members: dict[NodeId, int] = {}
        self.peer_last_seen: dict[NodeId, int] = {}
        self.member_last_seen: dict[NodeId, int] = {}
        self.locks = LockTable()
        self.hot = HotCounter(migration_threshold=config.migration_threshold)
        self.searches: dict[str, SearchState] = {}
        self.resolutions: dict[str, ResolveState] = {}
        self.updates: dict[str, UpdateExec] = {}
        self.out_migrations: dict[str, tuple] = {}   # rid -> (oid, requester)
        self.in_migrations: dict[str, ObjectId] = {}
        self._migseq = 0
        # in-flight re-replications: copy_id -> (oid, dest, source); the
        # dest only becomes a catalogue holder on CopyDone
        self.pending_copies: dict[str, tuple] = {}
        self._copyseq = 0
        # log shipping: the secondary and catalogue object the journal
        # is relative to, and the number of the last sync sent
        self._sync_to: NodeId | None = None
        self._sync_cat: MetaCatalogue | None = None
        self._sync_seq = 0

    @property
    def hb(self) -> HeartbeatConfig:
        return self.config.hb

    @property
    def thresholds(self) -> Thresholds:
        return self.config.thresholds

    # -- lifecycle -----------------------------------------------------------

    def start(self, sim: Simulator) -> None:
        now = sim.clock
        for a in self.members.ordered:
            self.member_last_seen.setdefault(a, now)
        for p in self.peers.ordered:
            self.peer_last_seen.setdefault(p, now)
        sim.every(self.node_id, "sweep", self.hb.period_us)

    def on_crash(self, sim):
        self._forget_sync()

    # the transition back to agent, shared with AgentNode
    _become_agent = AgentNode._become_agent
    on_rejoin = AgentNode.on_rejoin

    # -- secondary sync --------------------------------------------------

    def _sync_secondary(self, sim):
        if self.secondary is None:
            self._forget_sync()
            return
        sim.send(self.node_id, self.secondary, self.next_sync())

    def next_sync(self) -> CatalogueSync:
        """The next sync for the secondary: the journal since the last
        one, or a snapshot if the secondary or the catalogue object has
        changed since then."""
        cat = self.catalogue
        if self.secondary != self._sync_to or cat is not self._sync_cat:
            self._forget_sync()
            snapshot, ops = cat.copy(), ()
            cat.journal = []
            self._sync_to, self._sync_cat = self.secondary, cat
        else:
            snapshot, ops = None, cat.take_journal()
        self._sync_seq += 1
        return CatalogueSync(
            snapshot=snapshot, ops=ops, base=self._sync_seq - 1,
            seq=self._sync_seq,
            members=self.members.ordered,
            peers=tuple(sorted(self.peers | {self.node_id})))

    def _forget_sync(self):
        """Stop journaling: the next sync will be a snapshot."""
        if self._sync_cat is not None:
            self._sync_cat.journal = None
        self._sync_to = self._sync_cat = None

    def _elect_secondary(self, sim):
        if self.members:
            self.secondary = elect_agent(self.members)
            sim.record_member_event("secondary_elected", self.node_id, self.secondary)
        else:
            self.secondary = None
        self._sync_secondary(sim)

    def _update_lus_count(self, sim):
        sim.multicast(self.node_id, self.config.lus_ids, LusRegister(
            ragent=self.node_id, locality=self.locality,
            count=len(self.members)))

    # -- sweep: heartbeats, detection, threshold checks --------------------

    def _tick_sweep(self, sim, payload):
        sim.multicast(self.node_id, self.members.ordered,
                      RAgentHeartbeat(secondary=self.secondary))
        sim.multicast(self.node_id, self.peers.ordered, PeerHeartbeat(
            cat_size=len(self.catalogue), member_count=len(self.members)))
        for dead in detect_failures(sim.clock, self.member_last_seen,
                                    self.hb.failure_timeout_us):
            self._handle_agent_failure(sim, dead, "heartbeat")
        for dead in detect_failures(sim.clock, self.peer_last_seen,
                                    self.hb.failure_timeout_us):
            self._drop_peer(sim, dead)
        self._check_thresholds(sim)
        if sim.nodes[self.node_id] is not self:
            return  # merged away: an agent of the target now
        # the one retry for replica copies: re-replicate whatever is short
        # of holders, after a split or a copy that failed or was cut off
        if len(self.members) >= REPLICATION_FACTOR:
            for oid in sorted(self.catalogue.under_replicated):
                self._restore_redundancy(sim, oid)

    def _check_thresholds(self, sim):
        if len(self.members) > self.thresholds.max_cluster:
            self._split(sim)
        else:
            self._initiate_merge(sim)

    def _tick_reconfig_check(self, sim, payload):
        self._check_thresholds(sim)

    def _on_AgentHeartbeat(self, sim, msg: AgentHeartbeat, src):
        if src in self.members:
            self.member_last_seen[src] = sim.clock
            if msg.resync and src == self.secondary:
                self._forget_sync()
                self._sync_secondary(sim)

    def _on_PeerHeartbeat(self, sim, msg: PeerHeartbeat, src):
        if src == self.node_id:
            return
        self.peers.add(src)
        self.peer_last_seen[src] = sim.clock
        self.peer_sizes[src] = msg.cat_size
        self.peer_members[src] = msg.member_count

    def _on_PeerUpdate(self, sim, msg: PeerUpdate, src):
        # removed without a merge target: a promotion replaced it
        for p in msg.remove:
            self._drop_peer(sim, p, into=msg.merged_into,
                            gone=msg.merged_into is None)
        for p in msg.add:
            if p != self.node_id:
                self.peers.add(p)
                self.peer_last_seen[p] = sim.clock
        # the secondary must know the peer set it would take over
        self._sync_secondary(sim)

    def _drop_peer(self, sim, peer: NodeId, into: NodeId | None = None,
                   gone: bool = True):
        """Forget ``peer``. ``gone`` says the drop rests on this node's
        own evidence that the peer is dead or replaced: a sweep timeout,
        a bounce or a promotion's ``PeerUpdate``. Its whole cluster may
        have died with it, and no survivor would then replace its
        registry entry, so it is deregistered here. A peer that merged
        away deregistered itself."""
        if peer not in self.peers and peer not in self.peer_last_seen:
            return
        self.peers.discard(peer)
        self.peer_last_seen.pop(peer, None)
        self.peer_sizes.pop(peer, None)
        self.peer_members.pop(peer, None)
        if gone:
            sim.multicast(self.node_id, self.config.lus_ids,
                          LusDeregister(ragent=peer))
        # requests waiting on that peer must not stall; what it still owed
        # is asked of ``into``, the cluster it merged into if it did (by
        # the triangle inequality the ask arrives after the hand-off)
        for rid, st in sorted(self.searches.items()):
            if st.awaiting_peers.pop(peer, None):
                if into is not None:
                    st.awaiting_peers[into] = st.awaiting_peers.get(into, 0) + 1
                    sim.send(self.node_id, into, RemoteSearch(
                        request_id=rid, criterion=st.criterion, mode=st.mode,
                        hop=st.max_hop + 1))
                self._maybe_finish_search(sim, rid)
        for rid, rs in sorted(self.resolutions.items()):
            if rs.awaiting.pop(peer, None):
                if into is not None:
                    rs.awaiting[into] = rs.awaiting.get(into, 0) + 1
                    sim.send(self.node_id, into, OwnerQuery(
                        request_id=rid, oid=rs.oid, hop=rs.hop + 1))
                self._maybe_finish_resolution(sim, rid)

    # -- join / membership ----------------------------------------------

    def _on_JoinRequest(self, sim, msg: JoinRequest, src):
        joiner = msg.joiner
        if joiner in self.members:
            # transient crash+rejoin before detection: clear the stale
            # membership first, then admit as a fresh agent
            self._handle_agent_failure(sim, joiner, "transient-rejoin")
        self.members.add(joiner)
        self.member_last_seen[joiner] = sim.clock
        if self.secondary is None:
            self.secondary = joiner
        sim.send(self.node_id, joiner, JoinAccept(
            ragent=self.node_id, secondary=self.secondary, hop=msg.hop + 1))
        sim.record_member_event("admit", self.node_id, joiner)
        self._update_lus_count(sim)
        self._sync_secondary(sim)
        if len(self.members) > self.thresholds.max_cluster:
            sim.set_timer(self.node_id, "reconfig_check", 0)

    def _vacate_holder(self, sim, node: NodeId):
        """Remove ``node`` from every holder list, promoting survivors to
        owners and re-replicating from them onto the least-loaded members."""
        orphans = self.catalogue.remove_agent(node)
        for oid, survivors in sorted(orphans):
            if not survivors:
                sim.record_loss(oid, "all-holders-gone")
                continue
            self._restore_redundancy(sim, oid)

    def _restore_redundancy(self, sim, oid: ObjectId):
        survivors = self.catalogue.holders_of(oid)
        if len(survivors) >= REPLICATION_FACTOR:
            return
        if any(p[0] == oid for p in self.pending_copies.values()):
            return  # a copy for this object is already in flight
        try:
            extra = select_replica_holders(self.members.ordered, self.catalogue.loads,
                                           k=1, exclude=survivors)
        except InsufficientAgents:
            return  # transiently under-replicated; too few agents left
        new_holder = extra[0]
        self._copyseq += 1
        copy_id = f"{self.node_id}.cp{self._copyseq}"
        self.pending_copies[copy_id] = (oid, new_holder, survivors[0])
        sim.send(self.node_id, survivors[0],
                 CopyReplica(oid=oid, dest=new_holder, copy_id=copy_id))

    def _on_CopyDone(self, sim, msg: CopyDone, src):
        entry = self.pending_copies.pop(msg.copy_id, None)
        if entry is None:
            # a copy given up while in flight (a split drops those aimed
            # across it): unless src is, or is about to be, a listed
            # holder, no catalogue will ever list the replica it stored
            listed = msg.oid in self.catalogue and src in self.catalogue.holders_of(msg.oid)
            pending = any(p[:2] == (msg.oid, src) for p in self.pending_copies.values())
            if not listed and not pending:
                sim.send(self.node_id, src, DropReplica(ids=(msg.oid,)))
            return
        oid, dest, _source = entry
        if oid not in self.catalogue or dest not in self.members:
            # object migrated away or the new holder died meanwhile
            sim.send(self.node_id, src, DropReplica(ids=(oid,)))
            return
        if dest not in self.catalogue.holders_of(oid):
            self.catalogue.add_holder(oid, dest)
        self._sync_secondary(sim)

    def _on_CopyFailed(self, sim, msg: CopyFailed, src):
        # the source no longer stores the object; the sweep copies again
        self.pending_copies.pop(msg.copy_id, None)
        self._unlist(sim, src, (msg.oid,))

    def _unlist(self, sim, holder: NodeId, ids) -> None:
        """``holder`` says it lacks ``ids``: a rejoin wiped its store
        before its crash was detected. Stop listing it for each of them
        it is listed for, as ``_vacate_holder`` does after a crash: the
        next holder becomes owner, and an object left without one is
        lost. The sweep restores redundancy."""
        cat = self.catalogue
        listed = [oid for oid in ids if oid in cat and holder in cat.holders_of(oid)]
        for oid in listed:
            hl = cat.holders_of(oid)
            if len(hl) == 1:
                cat.remove_object(oid)
                sim.record_loss(oid, "all-holders-gone")
                continue
            if hl[0] == holder:
                cat.set_owner(oid, hl[1])
            cat.remove_holder(oid, holder)
        if listed:
            self._sync_secondary(sim)

    def _handle_agent_failure(self, sim, failed: NodeId, reason: str):
        if failed not in self.members:
            return  # idempotent under repeated reports
        self.members.discard(failed)
        self.member_last_seen.pop(failed, None)
        sim.record_member_event("agent_failed", self.node_id, failed, reason)
        # copies touching the dead node never complete; the sweep redoes them
        for cid, (_oid, dest, source) in sorted(self.pending_copies.items()):
            if failed in (dest, source):
                del self.pending_copies[cid]
        self._vacate_holder(sim, failed)
        if failed == self.secondary:
            self._elect_secondary(sim)
        else:
            self._sync_secondary(sim)
        self._update_lus_count(sim)
        if len(self.members) < self.thresholds.min_cluster:
            sim.set_timer(self.node_id, "reconfig_check", 0)

    # -- split -----------------------------------------------------------

    def _split(self, sim):
        if len(self.members) <= self.thresholds.max_cluster:
            return
        entries_before = len(self.catalogue)
        candidates = (self.members - {self.secondary}) or self.members
        new_r = elect_agent(candidates)
        # the elected agent becomes a super-peer; its replicas move to
        # the survivors first
        self.members.discard(new_r)
        self.member_last_seen.pop(new_r, None)
        self._vacate_holder(sim, new_r)
        keep_list, move_list = split_partition(self.members)
        keep_set, move_set = set(keep_list), set(move_list)
        keep_cat, move_cat = self.catalogue.split(keep_set, move_set)
        # replicas stranded on the other side are dropped; each side's
        # redundancy sweep copies them back in through acknowledged copies
        self._rehome_across(sim, keep_cat, keep_set)
        self._rehome_across(sim, move_cat, move_set)
        sim.send(self.node_id, new_r, AssumeRAgent(
            catalogue=move_cat, members=tuple(move_list),
            peers=tuple(sorted((self.peers | {self.node_id}) - {new_r}))))
        sim.multicast(self.node_id, move_list, ReassignCluster(ragent=new_r))
        # shrink self to the keep side
        self.catalogue = keep_cat
        self.members = NodeSet(keep_list)
        # in-flight copies aimed at (or sourced from) departed members
        # will never be acked here; the redundancy sweep re-issues them
        for cid in sorted(self.pending_copies):
            _oid, dest, source = self.pending_copies[cid]
            if dest not in keep_set or source not in keep_set:
                del self.pending_copies[cid]
        self.member_last_seen = {a: sim.clock for a in keep_list}
        if self.secondary not in keep_set:
            self._elect_secondary(sim)
        else:
            self._sync_secondary(sim)
        sim.multicast(self.node_id, self.peers.ordered, PeerUpdate(add=(new_r,)))
        self.peers.add(new_r)
        self.peer_last_seen[new_r] = sim.clock
        self.peer_sizes[new_r] = len(move_cat)
        self.peer_members[new_r] = len(move_list)
        self._update_lus_count(sim)
        sim.record_member_event(
            "split", self.node_id, new_r,
            f"entries={entries_before}->{len(keep_cat)}+{len(move_cat)} "
            f"keep={len(keep_set)} move={len(move_set)}")

    def _rehome_across(self, sim, cat: MetaCatalogue, member_set: set):
        for oid in sorted(cat.object_ids()):
            for stray in [a for a in cat.holders_of(oid) if a not in member_set]:
                cat.remove_holder(oid, stray)
                sim.send(self.node_id, stray, DropReplica(ids=(oid,)))

    # -- merge ------------------------------------------------------------

    def _merge_into(self) -> NodeId | None:
        """The peer to hand the cluster to once it is below min_cluster;
        None for the largest cluster, or while peer sizes are unknown."""
        if len(self.members) >= self.thresholds.min_cluster:
            return None
        known = [(p, self.peer_members[p]) for p in self.peers.ordered if p in self.peer_members]
        try:
            return choose_merge_target(known, (self.node_id, len(self.members)))
        except NoMergeTarget:
            return None

    def _admit(self, sim, msg: CSearch | CUpdate) -> bool:
        """Whether to run a client op here: once the cluster is due to
        merge, it goes on to the target instead, so that what is in
        flight here drains by the next sweep."""
        target = self._merge_into()
        if target is not None:
            sim.send(self.node_id, target, _copy(msg, hop=msg.hop + 1))
        return target is None

    def _initiate_merge(self, sim):
        """Hand the cluster to the merge target and be its agent at once;
        only with nothing of its own in flight, else the next sweep tries
        again. A peer's search here does not hold it back: the peer asks
        the target again, and a target that is that peer looks again."""
        target = self._merge_into()
        if target is None or (
                any(st.remote_origin is None for st in self.searches.values())
                or self.resolutions or self.updates or self.locks.locks
                or self.out_migrations or self.in_migrations or self.pending_copies):
            return
        self._forget_sync()
        sim.send(self.node_id, target, MergeRequest(
            from_ragent=self.node_id, catalogue=self.catalogue,
            members=self.members.ordered, peers=self.peers.ordered))
        sim.record_member_event("demote", self.node_id, self.node_id,
                                f"merged_into={target}")
        sim.multicast(self.node_id, self.config.lus_ids,
                      LusDeregister(ragent=self.node_id))
        sim.multicast(self.node_id, [p for p in self.peers.ordered if p != target],
                      PeerUpdate(remove=(self.node_id,), merged_into=target))
        agent = self._become_agent(sim)
        agent.joined, agent.ragent = True, target
        agent.start(sim)

    def _on_MergeRequest(self, sim, msg: MergeRequest, src):
        entries_own = len(self.catalogue)
        self.catalogue.merge(msg.catalogue)
        newcomers = sorted((*msg.members, msg.from_ragent))
        for a in newcomers:
            if a not in self.members:
                self.members.add(a)
                self.member_last_seen[a] = sim.clock
        # a search or owner resolution in flight here looked before the
        # cluster came in
        for rid, st in sorted(self.searches.items()):
            if st.holder is None:
                self._fetch_groups(sim, rid, self._look_up(st, msg.catalogue),
                                   st, st.max_hop + 1)
        for rid, rs in sorted(self.resolutions.items()):
            if rs.oid in msg.catalogue and not rs.forwarded:
                del self.resolutions[rid]
                self._resolve_update(sim, rid, rs.oid, rs.payload, rs.route, rs.hop)
        # with this secondary: the one they had is not a member here
        sim.multicast(self.node_id, newcomers, ConfigUpdate(
            ragent=self.node_id, secondary=self.secondary))
        self._drop_peer(sim, msg.from_ragent, gone=False)
        self._update_lus_count(sim)
        self._sync_secondary(sim)
        sim.record_member_event(
            "merge", self.node_id, msg.from_ragent,
            f"entries={entries_own}+{len(msg.catalogue)}={len(self.catalogue)} "
            f"members={len(self.members)}")
        if len(self.members) > self.thresholds.max_cluster:
            sim.set_timer(self.node_id, "reconfig_check", 0)

    # -- client ops --------------------------------------------------------

    def _routed(self, msg: CSearch | CInsert | CUpdate, src):
        """``msg`` with its reply route. An op without one came straight
        from a client that sent it here while this node was an agent; it
        is answered through this node."""
        return msg if msg.route else _copy(msg, route=(self.node_id, src))

    def _on_CRead(self, sim, msg: CRead, src):
        # a super-peer stores no replicas
        self._reply(sim, (src,), request_id=msg.request_id, op="read",
                    outcome="not_held", hop=msg.hop + 1)

    # -- search ------------------------------------------------------------

    def _look_up(self, st: SearchState, catalogue: MetaCatalogue):
        """``st``'s matches in ``catalogue`` as ``(owner, ids)`` groups;
        search-first keeps one."""
        matches, key_steps = catalogue.lookup(st.criterion)
        st.tally.lookup(catalogue.key_count, key_steps, len(matches))
        if st.mode == "first" and matches:
            oid, st.holder = matches[0]
            return ((st.holder, (oid,)),)
        return catalogue.owner_groups(st.criterion)

    def _fetch_groups(self, sim, request_id: str, groups, st: SearchState, hop: int):
        """Fetch matched objects from their owners, one batched request
        per ``(owner, ids)`` group, in the groups' order."""
        for owner, ids in groups:
            st.tally.fetch(owner, len(ids))
            st.awaiting_agents[owner] = st.awaiting_agents.get(owner, 0) + 1
            sim.send(self.node_id, owner, FetchObjects(request_id, ids, "search", hop))

    def _on_CSearch(self, sim, msg: CSearch, src):
        msg = self._routed(msg, src)
        if self._admit(sim, msg):
            self._search(sim, msg.request_id, SearchState(
                mode=msg.mode, criterion=msg.criterion,
                route=msg.route, max_hop=msg.hop), fan_out=True)

    def _on_RemoteSearch(self, sim, msg: RemoteSearch, src):
        if msg.request_id in self.searches:
            # asked again after a merge, while the first ask is in flight
            # here: that one answers for the cluster taken in too
            sim.send(self.node_id, src, RemoteSearchReply(
                request_id=msg.request_id, objects=(), hop=msg.hop + 1))
            return
        self._search(sim, msg.request_id, SearchState(
            mode=msg.mode, criterion=msg.criterion,
            remote_origin=src, max_hop=msg.hop), fan_out=False)

    def _search(self, sim, rid: str, st: SearchState, fan_out: bool):
        """Look the criterion up here and fetch the matches from their
        owners (search-first: only the first match). With ``fan_out``
        (the origin cluster), also ask every peer: always for
        search-all, only on a local miss for search-first."""
        self.searches[rid] = st
        # opened once; a re-ask or a merge target's second look charges
        # the same (request, cluster) tally
        st.tally = sim.steps.tally(rid, self.node_id)
        hop = st.max_hop + 1
        matches = self._look_up(st, self.catalogue)
        if fan_out and st.holder is None:
            st.awaiting_peers = dict.fromkeys(self.peers, 1)
            sim.multicast(self.node_id, self.peers.ordered, RemoteSearch(
                request_id=rid, criterion=st.criterion, mode=st.mode, hop=hop))
        self._fetch_groups(sim, rid, matches, st, hop)
        self._maybe_finish_search(sim, rid)

    def _on_FetchReply(self, sim, msg: FetchReply, src):
        if msg.missing:
            self._unlist(sim, src, msg.missing)
        if msg.purpose == "migrate":
            self._migrate_fetched(sim, msg.request_id, msg.objects)
            return
        st = self.searches.get(msg.request_id)
        if st is None:
            return  # request already answered
        if msg.objects:
            st.tally.probe(msg.store_size, len(msg.objects))
            if st.mode == "first":
                st.holder = src  # after a refetch, not the owner looked up
            st.results.extend(msg.objects)
        if msg.hop > st.max_hop:
            st.max_hop = msg.hop
        awaiting = st.awaiting_agents  # _answered, inline on this hot path
        n = awaiting.pop(src, 0)
        if n > 1:
            awaiting[src] = n - 1
        if msg.missing:  # fetch at once from the next holder, as after a bounce
            self._refetch(sim, msg.request_id, st, msg.missing)
        if not awaiting and not st.awaiting_peers:
            self._finish_search(sim, msg.request_id)

    def _refetch(self, sim, rid: str, st: SearchState, ids) -> None:
        # ``ids`` are a fetch's ids, or those its reply lacked, in the
        # fetch's ascending order, so each owner's ids ascend too
        by_owner: dict[NodeId, list[ObjectId]] = {}
        for oid in ids:
            if oid in self.catalogue:
                by_owner.setdefault(self.catalogue.owner_of(oid), []).append(oid)
        self._fetch_groups(sim, rid, [(owner, tuple(by_owner[owner]))
                                      for owner in sorted(by_owner)],
                           st, st.max_hop + 1)

    def _on_RemoteSearchReply(self, sim, msg: RemoteSearchReply, src):
        st = self.searches.get(msg.request_id)
        if st is None:
            return  # first-match already settled
        st.max_hop = max(st.max_hop, msg.hop)
        _answered(st.awaiting_peers, src)
        if st.mode == "first" and msg.objects:
            st.results = list(msg.objects)
            st.holder = msg.holder
            # tally remote interest; pull the object here when hot
            obj = msg.objects[0]
            if self.hot.record(obj.id) and obj.id not in self.catalogue:
                self._start_migration(sim, obj.id, src)
            self._finish_search(sim, msg.request_id)
            return
        st.results.extend(msg.objects)
        self._maybe_finish_search(sim, msg.request_id)

    def _maybe_finish_search(self, sim, rid: str):
        st = self.searches.get(rid)
        if st is None or st.awaiting_agents or st.awaiting_peers:
            return
        self._finish_search(sim, rid)

    def _finish_search(self, sim, rid: str):
        st = self.searches.pop(rid, None)
        if st is None:
            return
        if st.remote_origin is not None:
            # a search-all answer goes as fetched: the origin's one merge
            # dedupes and sorts every cluster's. A search-first answer is
            # merged here, as the origin's hot-object tally reads its first
            sim.send(self.node_id, st.remote_origin, RemoteSearchReply(
                request_id=rid, objects=tuple(st.results if st.mode == "all"
                                              else merge_results([st.results])),
                holder=st.holder, hop=st.max_hop + 1))
            return
        self._reply(sim, st.route, request_id=rid,
                    op="search" if st.mode == "all" else "search_first",
                    outcome="ok", objects=tuple(merge_results([st.results])),
                    holder=st.holder, hop=st.max_hop + 1)

    # -- insert ------------------------------------------------------------

    def _should_delegate(self) -> NodeId | None:
        factor = self.config.delegation_factor
        if factor <= 0 or not self.peer_sizes or len(self.catalogue) == 0:
            return None
        sizes = [len(self.catalogue)] + [self.peer_sizes[p]
                                         for p in sorted(self.peer_sizes)]
        mean = sum(sizes) / len(sizes)
        if len(self.catalogue) >= factor * mean:
            size, target = min((s, p) for p, s in sorted(self.peer_sizes.items()))
            if size < len(self.catalogue):
                return target
        return None

    def _on_CInsert(self, sim, msg: CInsert, src):
        msg = self._routed(msg, src)
        target = self._should_delegate()
        if target is not None and msg.obj.id not in self.catalogue:
            sim.send(self.node_id, target, DelegateInsert(
                request_id=msg.request_id, obj=msg.obj,
                route=(self.node_id, *msg.route), hop=msg.hop + 1))
            return
        self._place_insert(sim, msg.request_id, msg.obj, msg.route, msg.hop)

    def _on_DelegateInsert(self, sim, msg: DelegateInsert, src):
        self._place_insert(sim, msg.request_id, msg.obj, msg.route, msg.hop)

    def _place_insert(self, sim, rid: str, obj: DistObject, route, hop: int):
        def reply(outcome):
            self._reply(sim, route, request_id=rid, op="insert",
                        outcome=outcome, hop=hop + 1)

        if obj.id in self.catalogue:
            reply("duplicate")
            return
        try:
            owner, second = select_replica_holders(self.members.ordered, self.catalogue.loads)
        except InsufficientAgents:
            reply("insufficient_agents")
            return
        self.catalogue.insert(obj.id, obj.type_tag, obj.index_keys, [owner, second])
        sim.multicast(self.node_id, (owner, second),
                      StoreReplica(obj=obj, request_id=rid, hop=hop + 1))
        self._sync_secondary(sim)
        reply("ok")

    # -- update -------------------------------------------------------------

    def _on_CUpdate(self, sim, msg: CUpdate, src):
        msg = self._routed(msg, src)
        # an object listed here is updated here whatever is due
        if msg.oid in self.catalogue or self._admit(sim, msg):
            self._resolve_update(sim, msg.request_id, msg.oid, msg.payload,
                                 msg.route, msg.hop)

    def _resolve_update(self, sim, rid, oid, payload, route, hop):
        if oid in self.catalogue:
            pu = PendingUpdate(request_id=rid, payload=payload,
                               route=route, hop=hop)
            self._enqueue_update(sim, oid, pu)
            return
        if not self.peers:
            self._reply(sim, route, request_id=rid, op="update",
                        outcome="unknown_object", hop=hop + 1)
            return
        self.resolutions[rid] = ResolveState(
            oid=oid, payload=payload, route=route,
            awaiting=dict.fromkeys(self.peers, 1), hop=hop)
        sim.multicast(self.node_id, self.peers.ordered,
                      OwnerQuery(request_id=rid, oid=oid, hop=hop + 1))

    def _on_OwnerQuery(self, sim, msg: OwnerQuery, src):
        sim.send(self.node_id, src, OwnerQueryReply(
            request_id=msg.request_id, oid=msg.oid,
            has=msg.oid in self.catalogue, hop=msg.hop + 1))

    def _on_OwnerQueryReply(self, sim, msg: OwnerQueryReply, src):
        rs = self.resolutions.get(msg.request_id)
        if rs is None:
            return
        _answered(rs.awaiting, src)
        if msg.has and not rs.forwarded:
            rs.forwarded = True
            sim.send(self.node_id, src, ForwardUpdate(
                request_id=msg.request_id, oid=rs.oid, payload=rs.payload,
                route=(self.node_id, *rs.route), hop=msg.hop + 1))
        self._maybe_finish_resolution(sim, msg.request_id)

    def _maybe_finish_resolution(self, sim, rid: str):
        rs = self.resolutions.get(rid)
        if rs is None or rs.awaiting:
            return
        del self.resolutions[rid]
        if not rs.forwarded:
            self._reply(sim, rs.route, request_id=rid, op="update",
                        outcome="unknown_object", hop=rs.hop + 1)

    def _on_ForwardUpdate(self, sim, msg: ForwardUpdate, src):
        pu = PendingUpdate(request_id=msg.request_id, payload=msg.payload,
                           route=msg.route, hop=msg.hop, origin_ragent=msg.route[0])
        self._enqueue_update(sim, msg.oid, pu)

    def _on_UpdateRetry(self, sim, msg: UpdateRetry, src):
        self._resolve_update(sim, msg.request_id, msg.oid, msg.payload,
                             msg.route, msg.hop)

    def _enqueue_update(self, sim, oid: ObjectId, pu: PendingUpdate):
        if self.locks.acquire(oid, pu):
            self._lock_granted(sim, oid, pu)

    def _lock_granted(self, sim, oid: ObjectId, pu: PendingUpdate):
        if pu.kind == "migrate":
            self._start_migration_export(sim, oid, pu)
            return
        if oid not in self.catalogue:
            # the object moved away (or was lost) while queued
            self._release_lock(sim, oid)
            if pu.origin_ragent is not None:
                sim.send(self.node_id, pu.origin_ragent, UpdateRetry(
                    request_id=pu.request_id, oid=oid, payload=pu.payload,
                    route=pu.route[1:], hop=pu.hop))
            else:
                self._resolve_update(sim, pu.request_id, oid, pu.payload,
                                     pu.route, pu.hop)
            return
        self.updates[pu.request_id] = UpdateExec(pu=pu, oid=oid)
        sim.send(self.node_id, pu.route[0], ProgressNote(
            request_id=pu.request_id, oid=oid, route=pu.route[1:],
            hop=pu.hop + 1))
        sim.send(self.node_id, self.catalogue.owner_of(oid), ApplyUpdate(
            request_id=pu.request_id, oid=oid, payload=pu.payload,
            hop=pu.hop + 1))

    def _release_lock(self, sim, oid: ObjectId):
        nxt = self.locks.release(oid)
        if nxt is not None:
            self._lock_granted(sim, oid, nxt)

    def _on_ApplyAck(self, sim, msg: ApplyAck, src):
        ue = self.updates.get(msg.request_id)
        if ue is None:
            return
        ue.version = msg.version
        holders = self.catalogue.holders_of(ue.oid) if ue.oid in self.catalogue else []
        others = [h for h in holders if h != src]
        if not others:
            self._finish_update(sim, msg.request_id, "ok")
            return
        ue.awaiting_acks = set(others)
        sim.multicast(self.node_id, sorted(others), ReplicaUpdate(
            request_id=msg.request_id, oid=ue.oid, payload=ue.pu.payload,
            version=msg.version, hop=msg.hop + 1))

    def _on_ReplicaUpdateAck(self, sim, msg: ReplicaUpdateAck, src):
        ue = self.updates.get(msg.request_id)
        if ue is None:
            return
        ue.awaiting_acks.discard(src)
        if not ue.awaiting_acks:
            self._finish_update(sim, msg.request_id, "ok")

    def _finish_update(self, sim, rid: str, outcome: str):
        ue = self.updates.pop(rid, None)
        if ue is None:
            return
        pu = ue.pu
        self._reply(sim, pu.route, request_id=rid, op="update", outcome=outcome,
                    version=ue.version, hop=pu.hop + 2)
        self._release_lock(sim, ue.oid)

    def _on_ApplyMissing(self, sim, msg: ApplyMissing, src):
        # retry at once at the next holder, as after a bounce
        self._unlist(sim, src, (msg.oid,))
        if msg.request_id in self.updates:
            sim.set_timer(self.node_id, "apply_retry", 0, msg.request_id)

    def _tick_apply_retry(self, sim, rid):
        ue = self.updates.get(rid)
        if ue is None:
            return
        if ue.oid not in self.catalogue:
            ue.version = None
            self._finish_update(sim, rid, "lost")
            return
        sim.send(self.node_id, self.catalogue.owner_of(ue.oid), ApplyUpdate(
            request_id=rid, oid=ue.oid, payload=ue.pu.payload,
            hop=ue.pu.hop + 1))

    # -- migration -----------------------------------------------------------

    def _start_migration(self, sim, oid: ObjectId, target: NodeId):
        self._migseq += 1
        mid = f"{self.node_id}.mig{self._migseq}"
        self.in_migrations[mid] = oid
        sim.send(self.node_id, target, MigrateRequest(request_id=mid, oid=oid))

    def _on_MigrateRequest(self, sim, msg: MigrateRequest, src):
        if msg.oid not in self.catalogue:
            sim.send(self.node_id, src, MigrateDenied(
                request_id=msg.request_id, oid=msg.oid, hop=msg.hop + 1))
            return
        pu = PendingUpdate(request_id=msg.request_id, payload=b"",
                           route=(src,), kind="migrate")
        self._enqueue_update(sim, msg.oid, pu)

    def _start_migration_export(self, sim, oid: ObjectId, pu: PendingUpdate):
        requester = pu.route[0]
        if oid not in self.catalogue:
            self._release_lock(sim, oid)
            sim.send(self.node_id, requester, MigrateDenied(
                request_id=pu.request_id, oid=oid))
            return
        self.out_migrations[pu.request_id] = (oid, requester)
        sim.send(self.node_id, self.catalogue.owner_of(oid), FetchObjects(
            pu.request_id, (oid,), "migrate"))

    def _migrate_fetched(self, sim, mid: str, objects: tuple) -> None:
        """Send the fetched object to the requester. With none (the owner
        lacks it, or the fetch bounced), give up: unlock the object, which
        stays here, and deny the requester."""
        entry = self.out_migrations.get(mid)
        if entry is None:
            return
        oid, requester = entry
        if objects:
            sim.send(self.node_id, requester, MigrateTransfer(request_id=mid, obj=objects[0]))
            return
        del self.out_migrations[mid]
        self._release_lock(sim, oid)
        sim.send(self.node_id, requester, MigrateDenied(request_id=mid, oid=oid))

    def _on_MigrateTransfer(self, sim, msg: MigrateTransfer, src):
        if self.in_migrations.pop(msg.request_id, None) is None:
            return
        obj = msg.obj
        self.hot.reset(obj.id)
        try:
            owner, second = select_replica_holders(self.members.ordered, self.catalogue.loads)
            self.catalogue.insert(obj.id, obj.type_tag, obj.index_keys,
                                  [owner, second])
        except (InsufficientAgents, DuplicateObject) as exc:
            # refuse what cannot be placed, so the exporter keeps it; a
            # duplicate is already here, so the exporter may drop its copy
            answer = MigrateDenied if isinstance(exc, InsufficientAgents) else MigrateAck
            sim.send(self.node_id, src, answer(request_id=msg.request_id, oid=obj.id))
            return
        sim.multicast(self.node_id, (owner, second), StoreReplica(obj=obj))
        self._sync_secondary(sim)
        sim.send(self.node_id, src, MigrateAck(request_id=msg.request_id, oid=obj.id))
        sim.record_member_event("migrate_in", self.node_id, src,
                                f"object={obj.id.hex()[:12]} version={obj.version}")

    def _on_MigrateAck(self, sim, msg: MigrateAck, src):
        entry = self.out_migrations.pop(msg.request_id, None)
        if entry is None:
            return
        oid, _ = entry
        if oid in self.catalogue:
            for h in self.catalogue.holders_of(oid):
                sim.send(self.node_id, h, DropReplica(ids=(oid,)))
            self.catalogue.remove_object(oid)
            self._sync_secondary(sim)
        sim.record_member_event("migrate_out", self.node_id, src,
                                f"object={oid.hex()[:12]}")
        self._release_lock(sim, oid)

    def _on_MigrateDenied(self, sim, msg: MigrateDenied, src):
        # to the exporter: the requester could not place the object, so
        # it stays here
        entry = self.out_migrations.pop(msg.request_id, None)
        if entry is not None:
            self._release_lock(sim, entry[0])
            return
        # to the requester: forget the migration; the tally starts over
        oid = self.in_migrations.pop(msg.request_id, None)
        if oid is not None:
            self.hot.reset(oid)

    # -- reactive failure handling --------------------------------------------

    def _on_SendFailed(self, sim, msg: SendFailed, src):
        orig, dead = msg.original, msg.dead
        if dead in self.members:
            self._handle_agent_failure(sim, dead, "reactive")
        self._drop_peer(sim, dead)  # if it is one
        if isinstance(orig, FetchObjects):
            self._fetch_bounced(sim, orig)
        elif isinstance(orig, ApplyUpdate):
            if orig.request_id in self.updates:
                sim.set_timer(self.node_id, "apply_retry", 0, orig.request_id)
        elif isinstance(orig, ReplicaUpdate):
            ue = self.updates.get(orig.request_id)
            if ue is not None:
                ue.awaiting_acks.discard(dead)
                if not ue.awaiting_acks:
                    self._finish_update(sim, orig.request_id, "ok")
        elif isinstance(orig, StoreReplica) and orig.request_id:
            if orig.obj.id not in self.catalogue:
                sim.record_loss(orig.obj.id, "insert-holders-crashed")
        elif isinstance(orig, MigrateRequest):
            oid = self.in_migrations.pop(orig.request_id, None)
            if oid is not None:
                self.hot.reset(oid)
        elif isinstance(orig, MigrateTransfer):
            # the requester died before it took the object: keep it here
            entry = self.out_migrations.pop(orig.request_id, None)
            if entry is not None:
                self._release_lock(sim, entry[0])
        elif isinstance(orig, DelegateInsert):
            # the delegate died: place the insert here after all
            self._on_DelegateInsert(sim, _copy(orig, route=orig.route[1:]), self.node_id)
        elif isinstance(orig, (ForwardUpdate, UpdateRetry)):
            # the cluster the update was handed to died with it
            route = orig.route[1:] if isinstance(orig, ForwardUpdate) else orig.route
            self._reply(sim, route, request_id=orig.request_id, op="update",
                        outcome="ragent_down", hop=orig.hop + 1)
        elif isinstance(orig, (OpReply, ProgressNote)) and orig.route:
            # the relaying hop died: straight to the client, the last hop
            sim.send(self.node_id, orig.route[-1],
                     _copy(orig, route=(), hop=orig.hop + 1))
        elif isinstance(orig, (CSearch, CInsert, CUpdate, JoinRequest, MergeRequest)):
            # relayed or passed on while demoted by a merge that bounced
            self.on_message(sim, orig, self.node_id)
        elif isinstance(orig, CopyReplica):
            # the source died; the sweep copies again
            self.pending_copies.pop(orig.copy_id, None)

    def _fetch_bounced(self, sim, orig: FetchObjects):
        if orig.purpose == "migrate":
            self._migrate_fetched(sim, orig.request_id, ())
            return
        st = self.searches.get(orig.request_id)
        if st is None:
            return
        # drop the expectation on any no-longer-member agent, then fetch
        # the ids again from their repaired owners
        for a in [a for a in sorted(st.awaiting_agents) if a not in self.members]:
            del st.awaiting_agents[a]
        self._refetch(sim, orig.request_id, st, orig.ids)
        self._maybe_finish_search(sim, orig.request_id)


# ---------------------------------------------------------------------
# Client


# what an op that ran no search is charged
_NOT_A_SEARCH = SearchAccounting(measured=0, bound=0, decomposed=0,
                                 bound_applicable=False, clusters=0)


class ClientNode(BaseNode):
    """Drives scheduled operations through an agent and records their
    completions for the metrics stream."""

    role = Role.CLIENT

    def __init__(self, node_id, locality):
        super().__init__(node_id, locality)
        self.completions: list[dict] = []
        self.progress: dict[str, int] = {}
        self.known_holders: dict[ObjectId, NodeId] = {}
        self.pending: dict[str, dict] = {}  # issued, not yet answered

    def _tick_op(self, sim: Simulator, op: dict) -> None:
        """Execute one scheduled operation; ``op`` carries request_id,
        kind, target agent and the kind-specific fields."""
        rid = op["request_id"]
        self.pending[rid] = op
        kind = op["kind"]
        if kind == "insert":
            sim.send(self.node_id, op["agent"], CInsert(request_id=rid, obj=op["obj"]))
        elif kind in ("search", "search_first"):
            sim.send(self.node_id, op["agent"], CSearch(
                request_id=rid, criterion=op["criterion"],
                mode="all" if kind == "search" else "first"))
        elif kind == "update":
            sim.send(self.node_id, op["agent"], CUpdate(
                request_id=rid, oid=op["oid"], payload=op["payload"]))
        elif kind == "read":
            holder = self.known_holders.get(op["oid"])
            if holder is None:
                self._record(sim, rid, "read", "no_holder", hop=0)
                return
            sim.send(self.node_id, holder, CRead(request_id=rid, oid=op["oid"]))
        else:
            raise ValueError(f"unknown op kind {kind}")

    # its own attribute, so that wrapping BaseNode.on_timer from outside
    # the class does not wrap client timers twice
    on_timer = BaseNode.on_timer

    def _record(self, sim, rid, op, outcome, hop, objects=(), version=None):
        self.pending.pop(rid, None)
        steps = sim.steps
        acct = steps.account_search(rid) if rid in steps.requests else _NOT_A_SEARCH
        steps.settle(rid)
        rec = {
            "time": sim.clock,
            "op": op,
            "id": rid,
            "steps": acct.measured,
            "bound": acct.bound,
            "decomposed": acct.decomposed,
            "bound_applicable": acct.bound_applicable,
            "clusters": acct.clusters,
            "messages": steps.message_count(rid),
            "hops": hop,
            "outcome": outcome,
            "results": len(objects),
            "version": version,
            "progress": self.progress.pop(rid, 0),
            "objects": tuple(objects),
        }
        sim.op_records.append(rec)
        self.completions.append(rec)

    def _complete_op(self, sim, msg: OpReply):
        if msg.holder is not None:
            for obj in msg.objects:
                self.known_holders[obj.id] = msg.holder
        self._record(sim, msg.request_id, msg.op, msg.outcome, msg.hop,
                     objects=msg.objects, version=msg.version)

    def _note_progress(self, sim, msg: ProgressNote):
        # a note travels the reply's route ahead of the reply, so it
        # arrives first, unless a relay on the route was down for the
        # note and back up for the reply: such a late note is not kept
        rid = msg.request_id
        if rid in self.pending:
            self.progress[rid] = self.progress.get(rid, 0) + 1

    def _on_SendFailed(self, sim, msg: SendFailed, src):
        rid = getattr(msg.original, "request_id", None)
        if rid in self.pending:
            self._record(sim, rid, self.pending[rid]["kind"], "agent_down", hop=0)
