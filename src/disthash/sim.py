"""Deterministic discrete-event engine: virtual clock, ordered message
delivery with locality-sensitive latency, crash/rejoin fault injection,
and the per-request step accounting that makes the search cost model
checkable.

Determinism contract: an identical scenario produces byte-identical
traces and metrics. Events are processed in (time, seq) order; latency
is a pure function of the endpoint localities; nothing in the engine
draws randomness. Set iteration is always sorted so output does not
depend on the interpreter's hash seed.

The event queue is bucketed by simulated time, after Brown's calendar
queue (CACM 1988): a heap of distinct times, and for each time a FIFO of
flat event tuples with the event's ``seq`` first, so only a new instant
pays for the heap. Entries are told apart by length:

- ``(seq, src, dst, msg)``, 4: a unicast delivery, queued by ``send``;
- ``(seq, node, owner, tag, payload)``, 5: a timer, ``owner`` being the
  node object that set it;
- ``(round,)``, 1: untraced periodic firings, queued by ``every``, or
  ``(beats,)``, 1: the beats one firing of a steady round sent to one
  super-peer at one latency (both below);
- ``(seq, (src, dsts, msg))``, 2: a multicast run, one message to a run
  of destinations that arrive at the same time, the i-th destination
  taking ``seq + i``;
- ``(seq, node, owner, tag, None, period)``, 6: a periodic timer, queued
  by ``every`` when tracing;
- ``(seq, node, "crash"|"rejoin")``, 3: a fault, rare, so it takes the
  shape left over and the last branch.

A periodic firing runs ``owner``'s handler; then ``run_until`` queues the
next firing at ``time + period`` with the next seq, so behind everything
the handler queued, but only if ``owner`` is still the object installed
under ``node``: a promotion or a merge demotion replaces it, and the new
object runs on its own timers. A crashed node's firing is dropped and not
queued again, and neither is one whose handler raised. Untraced, firings
share entries: ``every`` and each re-arm add to the last entry of their
bucket when that is a round of the same tag and period, and open a new
round otherwise. So agents that started together share one round, in
the order their timers would fire, and an entry is only extended while
it is the last one in its bucket, so each firing keeps the place its own
timer would have. A handler that queues into the next round's bucket
splits that round there.

Each round entry and each ``(src, dsts, msg)`` run of an untraced run is
run one of two ways:

- member by member, through the real ``on_timer`` and ``on_message``:
  a round as the periodic timers it stands for, a beats entry as the
  unicasts it stands for;
- in O(1) of handler work and of member count, while the clusters it
  touches are steady:
  - a round of ``hb`` ticks queues the beat entries its plan holds and
    itself one period on;
  - a super-peer's ``sweep`` firing that would only multicast its two
    beats queues them and calls no ``_tick_sweep`` (``_fire_steadily``);
  - a beats entry, or a super-peer's ``RAgentHeartbeat`` run to its
    members, stamps its arrival on the engine's record of the cluster
    (``_Steady``), where the handlers would write one last-seen time
    per member;
  - a steady sweep's ``PeerHeartbeat`` run to live super-peers that
    list the sender runs ``peers_heard_steadily``, which moves what each
    keeps of the sender.

  ``delivered`` grows by the number of beats, and so does
  ``steady_deliveries``.

A cluster's stamps are settled into the node objects it was made steady
with (``_Steady.settle``): each member's last-seen time of its
super-peer, and the super-peer's of each member, each the later of the
stored and the stamped time. That happens when the cluster stops being
steady (``unsteady``), before one of its ticks or sweeps runs its
handler, and before ``run_until`` returns. Only those handlers read the
times, and every membership change calls ``unsteady`` before it writes.

A cluster is a super-peer with its members. Set-up builds every cluster
message-free and registers it (``register_steady``). The first round
that plans beats to a registered cluster checks its members as
``offer_steady`` does (``_quiet_since``) and makes it steady, so no beat
of a fault-free run reaches a handler; a cluster that fails the check
loses its registration. Any other cluster is steady after one round
that ran through the handlers and found nothing unusual: its super-peer
offers it at the end of each sweep (``offer_steady``), and a second
offer with no ``unsteady`` in between makes it steady. It stops being
steady, and loses any registration, when a node writes what makes a
beat do more than move a timestamp (the node calls ``unsteady``), at
any crash or rejoin, and when a node object is replaced. A round's plan
relies on the clusters it beats to as they were when it was planned,
and it runs only while each is still steady and each one's members
heard their super-peer within the timeout (``_Plan.ready``): a tick
that may suspect runs its handler. A sweep runs steady only while the
stamps show every member's beat planned and heard within the timeout
(``_Steady.fresh``): a sweep that may find one overdue runs its handler.
As the O(1) ways, once settled, leave the state exactly as the handlers
would, leaving the steady state needs no catching up beyond the settle:
later entries run member by member.
Beats that one firing sends to different super-peers at one time are
queued as one entry per super-peer, which reorders their deliveries
within that instant. A plain beat only moves its receiver's last-seen
time, so this commutes; at a crashed receiver each beat is bounced in
its sender's order, and an agent does nothing with a bounced beat.

With ``trace=True`` every event runs through its handler: periodic
timers are 6-tuples, beats unicasts, and each delivery is one handler
call, as the trace records each event by its seq. So a traced run is
the reference an untraced one is compared with (``tests/test_golden.py``).

``multicast`` is ``send`` to each destination in order, with the same
seqs and arrival times, but queues each run of consecutive destinations
with one arrival time as one entry, so a super-peer's beat round to
members at one latency costs one entry, not one per member. The runs of
a destination list are memoized per ``(src, dsts)``, beside the latency
memo: a list sent again queues one entry per run with no work per
destination, and the memo grows by one entry per distinct list. One
message object serves every destination of a multicast, so a node never
assigns to a message it receives; a relay sends a copy.
``send``, ``multicast``, ``set_timer`` and ``every`` append straight to their
bucket, which the first lookup of a time opens; crash, rejoin and the
``SendFailed`` bounce, itself a unicast, go through ``_push``.
``run_until`` drains each bucket in one local loop that delivers a
unicast in its own branch, a run in place, and timers inline, and hands
the rare faults to ``_fault``. It counts deliveries in a local and
writes the count back to ``deliver_count`` when it returns or raises.
A handler that raises leaves the rest of its round, beats entry or
multicast run at the front of its bucket.

No event is scheduled before the clock: ``_push`` checks the time,
``set_timer`` rejects a negative delay, ``every`` a period that is not
positive, and ``_latency`` admits only a
non-negative latency to the memo that ``send`` reads. As ``seq`` only
grows, every event pushed to a time lands behind all those already
there: draining buckets in time order and each bucket front to back is
exactly (time, seq) order. A run's seqs are consecutive and handed out
at once, so anything queued later into its bucket has a larger seq than
the whole run. A zero-delay timer set while its bucket drains joins the
end of that bucket.

Step accounting keeps one ``ClusterTally`` per (request, cluster), which
holds the charging rules; the super-peer search that owns a tally
charges it directly, and the client drops a request's tallies when it
settles the request (see ``StepCounter``).

The trace is opt-in: ``Simulator(trace=True)`` records one
``TraceRecord`` per event; without it the engine builds no record and
``trace_lines()`` raises ``SimError``. Tracing never changes what is
simulated: event order, delivery counts and step accounting are the same
either way, and so are the metrics.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass, replace

from .catalogue import clog2
from .core import LocalityDescriptor, NodeId, proximity_rank

MS = 1000  # sim-time is integer microseconds


class SimError(Exception):
    pass


class UnknownNode(SimError):
    pass


class NotCrashed(SimError):
    pass


class UnknownRequest(SimError):
    pass


@dataclass(frozen=True)
class NetworkModel:
    """Latency = base + penalty per missing proximity tier. Pure in the
    endpoint localities, hence deterministic."""

    base_us: int = 5 * MS
    tier_penalty_us: int = 10 * MS

    def latency(self, src: LocalityDescriptor, dst: LocalityDescriptor) -> int:
        return self.base_us + self.tier_penalty_us * (4 - proximity_rank(src, dst))


@dataclass(kw_only=True)
class SendFailed:
    """Engine notification: a message addressed to a crashed node. The
    sender learns after one round trip, like a refused connection."""

    original: object
    dead: NodeId
    request_id: str | None = None
    hop: int = 0


# ---------------------------------------------------------------------
# Step accounting


_NO_AGENTS = frozenset()


class ClusterTally:
    """One cluster's share of one search request, and the rules that
    charge it. The super-peer search that owns the tally charges it
    directly; ``measured`` sums every charge apart from the decomposed
    fields, so ``account_search`` can check that the two agree."""

    __slots__ = ("m_keys", "key_steps", "p", "id_steps", "fetch_steps",
                 "probe_steps", "l_max", "fetch_requests", "agents_contacted",
                 "measured")

    def __init__(self):
        self.m_keys = 0        # keys in the catalogue at lookup time
        self.key_steps = 0     # comparisons actually charged for the lookup
        self.p = 0             # matches in this cluster
        self.id_steps = 0      # id + owner retrievals (2 per match)
        self.fetch_steps = 0   # request/response shares (2 per object fetched)
        self.probe_steps = 0   # per-object hash probe at the serving agent
        self.l_max = 0         # largest replica store touched
        self.fetch_requests = 0
        self.agents_contacted = _NO_AGENTS  # a set from the first fetch on
        self.measured = 0      # every step charged here

    def lookup(self, m_keys: int, key_steps: int, matches: int) -> None:
        """A catalogue lookup of ``m_keys`` keys that found ``matches``."""
        if m_keys > self.m_keys:
            self.m_keys = m_keys
        self.key_steps += key_steps
        self.p += matches
        self.id_steps += 2 * matches
        self.measured += key_steps + 2 * matches

    def fetch(self, agent: NodeId, n_objects: int) -> None:
        """One batched fetch of ``n_objects`` from ``agent``."""
        self.fetch_requests += 1
        if self.agents_contacted:
            self.agents_contacted.add(agent)
        else:
            self.agents_contacted = {agent}
        self.fetch_steps += 2 * n_objects
        self.measured += 2 * n_objects

    def probe(self, store_size: int, n_objects: int) -> None:
        """``n_objects`` found in a replica store of ``store_size``."""
        if store_size > self.l_max:
            self.l_max = store_size
        steps = n_objects * clog2(store_size)
        self.probe_steps += steps
        self.measured += steps


@dataclass
class SearchAccounting:
    measured: int
    bound: int
    decomposed: int
    bound_applicable: bool  # every contacted cluster had M >= 1 and P >= 1
    clusters: int


class StepCounter:
    """Per-request tallies of the accounted operation classes, one
    ``ClusterTally`` per (request, cluster). Only key comparisons,
    id/owner retrievals, fetch messages and replica probes are charged.
    The catalogue's per-key cache of matches and owner groups lives on
    the host only: a lookup charges the same steps whether it hits it
    or not.

    A super-peer's search opens its cluster's tally once with ``tally``
    and charges it directly. ``on_lookup``, ``on_fetch_request`` and
    ``on_probe`` charge the same rules by request id and cluster.

    A tally lives only as long as its request: from the first ``tally``
    of its (request, cluster) pair until the client reads the request's
    accounting and calls ``settle``, which drops the request's tallies
    and hands over and drops its message count. A tally opened after
    that, by a peer that a search reaches after the search was answered,
    is charged but not kept; a delivery after it opens a count that
    nothing reads. So ``requests`` is bounded by the requests in flight,
    and ``messages`` by those and the few delivered to after settlement,
    while ``settled``, one id per settled request, grows with the run."""

    def __init__(self):
        self.requests: dict[str, dict[str, ClusterTally]] = {}
        self.settled: set[str] = set()
        self.messages: dict[str, int] = {}

    def tally(self, request_id: str, cluster: str) -> ClusterTally:
        """The tally of ``request_id`` at ``cluster``, opened on first
        use; after ``settle``, a new tally that is not kept."""
        clusters = self.requests.get(request_id)
        if clusters is None:
            if request_id in self.settled:
                return ClusterTally()
            clusters = self.requests[request_id] = {}
        tally = clusters.get(cluster)
        if tally is None:
            tally = clusters[cluster] = ClusterTally()
        return tally

    def on_lookup(self, request_id: str, cluster: str, m_keys: int, key_steps: int, matches: int) -> None:
        self.tally(request_id, cluster).lookup(m_keys, key_steps, matches)

    def on_fetch_request(self, request_id: str, cluster: str, agent: NodeId, n_objects: int) -> None:
        self.tally(request_id, cluster).fetch(agent, n_objects)

    def on_probe(self, request_id: str, cluster: str, store_size: int, n_objects: int) -> None:
        self.tally(request_id, cluster).probe(store_size, n_objects)

    def settle(self, request_id: str) -> int:
        """The request is answered: drop its tallies, and keep none that
        a late charge opens. Returns its message count, which is dropped."""
        self.requests.pop(request_id, None)
        self.settled.add(request_id)
        return self.messages.pop(request_id, 0)

    def on_message(self, request_id: str) -> None:
        """Count one delivery of a request's message. ``run_until`` makes
        the same count inline; this method is the named entry point a
        tracer wraps and a unit test calls."""
        self.messages[request_id] = self.messages.get(request_id, 0) + 1

    def message_count(self, request_id: str) -> int:
        return self.messages.get(request_id, 0)

    def account_search(self, request_id: str) -> SearchAccounting:
        if request_id not in self.requests:
            raise UnknownRequest(request_id)
        clusters = self.requests[request_id]
        measured = decomposed = m = p = l = 0
        applicable = bool(clusters)
        for t in clusters.values():
            measured += t.measured
            decomposed += t.key_steps + t.id_steps + t.fetch_steps + t.probe_steps
            m, p, l = max(m, t.m_keys), max(p, t.p), max(l, t.l_max)
            applicable = applicable and t.m_keys >= 1 and t.p >= 1
        # formula_bound of the clusters' (M, P, L), from the same pass
        bound = len(clusters) * m * (4 * p + clog2(l))
        return SearchAccounting(measured, bound, decomposed, applicable, len(clusters))


def formula_bound(per_cluster: list[tuple[int, int, int]]) -> int:
    """The closed-form step bound R * M * (4P + ceil(log2 L)) evaluated
    over observed per-cluster (M, P, L) values, taking the largest of
    each across the contacted clusters."""
    if not per_cluster:
        return 0
    r = len(per_cluster)
    m = max(c[0] for c in per_cluster)
    p = max(c[1] for c in per_cluster)
    l = max(c[2] for c in per_cluster)
    return r * m * (4 * p + clog2(l))


def ideal_search_steps(total_objects: int, total_agents: int, clusters: int = 1) -> int:
    """The bound under the uniform idealization: objects evenly divided
    among clusters, one match per exact-type criterion, every agent
    holding 2B/N objects. Collapses to B * (4 + log2(2B/N))."""
    b, n, r = total_objects, total_agents, clusters
    if b % r:
        raise ValueError("idealization requires clusters to divide the object count")
    m = b // r              # keys per cluster catalogue
    l = (2 * b) // n        # objects per agent
    return formula_bound([(m, 1, l)] * r)


# ---------------------------------------------------------------------
# Trace records and the engine


@dataclass(slots=True)
class TraceRecord:
    """One engine event. ``deliver``, ``ignored`` and ``drop`` records
    name the message; a ``timer`` record names its tag; ``crash`` and
    ``rejoin`` name only the node."""

    time: int
    seq: int
    kind: str
    node: str
    src: str | None = None
    msg_type: str | None = None
    request_id: str | None = None
    hop: int | None = None
    tag: str | None = None

    @property
    def detail(self) -> str:
        """The text the digest line hashes."""
        if self.kind in ("deliver", "ignored"):
            return f"{self.msg_type}:{self.request_id or ''}:{self.src}"
        if self.kind == "drop":
            return f"{self.msg_type}:{self.request_id or ''}"
        if self.kind == "timer":
            return self.tag
        return ""

    def line(self) -> str:
        digest = hashlib.blake2b(self.detail.encode(), digest_size=6).hexdigest()
        return f"{self.time} {self.seq} {self.node} {self.kind} {digest}"

    def json_line(self) -> str:
        return json.dumps({f: getattr(self, f) for f in self.__slots__})

    def __reduce__(self):
        # copied and pickled as one tuple of plain values, with no state
        # dict per record: the trace is most of a traced run's state, and
        # this copies it in a third of the time and pickles it in half
        # the bytes
        return TraceRecord, tuple(getattr(self, f) for f in self.__slots__)


# ``trace_lines`` formats: the digest line is compact and pinned by the
# golden tests; the JSON object is readable
TRACE_FORMATS = {"digest": TraceRecord.line, "jsonl": TraceRecord.json_line}


class _Buckets(dict):
    """Time -> FIFO of event tuples. Looking up a time with no bucket
    opens one and puts the time on the heap."""

    def __init__(self, heap: list[int]):
        super().__init__()
        self.heap = heap

    def __missing__(self, time: int) -> deque:
        bucket = self[time] = deque()
        heapq.heappush(self.heap, time)
        return bucket


class _Round:
    """One entry of an untraced run's periodic firings: ``nodes[i]``
    fires ``tag`` for ``owners[i]``, in order. ``plan`` is what a firing
    queues while every cluster it beats to is steady."""

    __slots__ = ("tag", "period", "nodes", "owners", "plan")

    def __init__(self, tag: str, period: int, nodes: list, owners: list):
        self.tag, self.period = tag, period
        self.nodes, self.owners = nodes, owners
        self.plan = None


def _arm(bucket: deque, node: NodeId, owner, tag: str, period: int) -> None:
    """Queue a periodic firing at the end of ``bucket``: in the last
    entry when that is a round of the same tag and period, so firings
    armed one after another share one entry in the same order, else in
    a round of its own."""
    if bucket:
        last = bucket[-1]
        if len(last) == 1 and type(rnd := last[0]) is _Round and (
                rnd.tag == tag and rnd.period == period):
            rnd.nodes.append(node)
            rnd.owners.append(owner)
            rnd.plan = None
            return
    bucket.append((_Round(tag, period, [node], [owner]),))


class _Steady:
    """A steady cluster (see ``Simulator.offer_steady``) and its beat
    times, which the engine keeps instead of writing them into the nodes
    at each beat (``settle``).

    Of the super-peer's beat to the members: ``runs`` are the memoized
    ``(first index, latency, run)`` of its members' beat list, ``agents``
    the member objects of each run as the cluster was made steady with,
    ``last`` the last arrival at each run, and ``floor`` the oldest of
    those, a time no member last heard its super-peer before.

    Of the members' beats to the super-peer: ``beats`` holds the planned
    entries that beat to it, by sender tuple, each stamped with its last
    arrival, and ``covered`` their senders until they are all the members,
    then None. ``peer_beat`` is the ``PeerHeartbeat`` its last steady
    sweep multicast. ``dirty`` says a stamp is newer than the last
    ``settle``."""

    __slots__ = ("head", "beat", "heard", "runs", "agents", "size", "last", "floor",
                 "timeout", "beats", "covered", "peer_beat", "dirty")

    def __init__(self, head, beat, heard, runs: tuple, agents: tuple, floor: int, timeout: int):
        self.head, self.beat, self.heard = head, beat, heard
        self.runs, self.agents = runs, agents
        self.size = len(head.members)
        self.last = [floor] * len(runs)
        self.floor, self.timeout = floor, timeout
        self.beats: dict[tuple, _Beats] = {}
        self.covered: set | None = set()
        self.peer_beat = None
        self.dirty = False

    def hear(self, run: tuple, time: int) -> bool:
        """Stamp the beat's arrival at one of the cluster's own runs;
        False for any other destination list."""
        for i, own in enumerate(self.runs):
            if own[2] is run:
                self.last[i] = time
                self.floor = min(self.last)
                self.dirty = True
                return True
        return False

    def fresh(self, time: int) -> bool:
        """What a sweep at ``time`` would find of the members by their
        stamped times: each one's beat is planned to the super-peer, and
        each planned entry last arrived within the timeout. A stamp is a
        time its senders were heard at or after, so this may find a member
        overdue that is not, never the other way round."""
        if self.covered is not None:
            return False
        oldest = time - self.timeout
        for b in self.beats.values():
            if b.time < oldest:
                return False
        return True

    def settle(self) -> None:
        """Write the stamped times into the objects the cluster was made
        steady with: each member's last-seen time of its super-peer, by
        the ``heard`` it was made steady with, and the super-peer's of
        each member, by its ``heard_steadily``. Each keeps the later of
        the stored and the stamped time, as a handler may have written
        since; no replacement object is written."""
        if not self.dirty:
            return
        self.dirty = False
        for agents, time in zip(self.agents, self.last):
            self.heard(agents, time)
        head = self.head
        for b in self.beats.values():
            head.heard_steadily(b.srcs, b.time)


class _Beats:
    """Beats from ``srcs`` to ``dst`` that one firing of a planned round
    queues at one arrival time, while ``dst``'s cluster is ``held``.
    ``time`` is the last time they arrived while it still was; before
    the first arrival, a time no sender was last heard before. One entry
    serves every period of every plan that beats from ``srcs``."""

    __slots__ = ("srcs", "dst", "msg", "held", "time")

    def __init__(self, srcs: tuple, dst: NodeId, msg, held: _Steady | None, time: int = 0):
        self.srcs, self.dst, self.msg, self.held, self.time = srcs, dst, msg, held, time


class _Plan:
    """What a planned round's firing queues, as ``(latency, entry)``, and
    the steady clusters it relies on."""

    __slots__ = ("beats", "held")

    def __init__(self, beats: tuple, held: tuple):
        self.beats, self.held = beats, held

    def ready(self, steady: dict, time: int) -> bool:
        """Every cluster still steady, and each one's super-peer heard
        by all its members within the timeout."""
        for h in self.held:
            if steady.get(h.head.node_id) is not h or time - h.floor > h.timeout:
                return False
        return True


class Simulator:
    """Single-threaded engine. Nodes are registered state machines; all
    interaction between them goes through ``send``/``multicast``/``set_timer``/``every``."""

    def __init__(self, network: NetworkModel | None = None, trace: bool = False):
        self.network = network or NetworkModel()
        self.tracing = trace
        self._latencies: dict[tuple[NodeId, NodeId], int] = {}
        self._runs: dict[tuple[NodeId, tuple], tuple] = {}  # multicast's memo
        self.clock = 0
        self._seq = 0
        self._heap: list[int] = []  # distinct times with queued events
        self._buckets = _Buckets(self._heap)
        self.nodes: dict[NodeId, object] = {}
        self.crashed: set[NodeId] = set()
        self.trace: list[TraceRecord] = []
        self.steps = StepCounter()
        self.deliver_count = 0
        self.steady_deliveries = 0  # of deliver_count, run with no handler call
        # untraced only: head -> _Steady, heads found steady once, and
        # heads set-up registered, each as (head, beat, heard)
        self._steady: dict[NodeId, _Steady] = {}
        self._candidates: dict[NodeId, object] = {}
        self._registered: dict[NodeId, tuple] = {}
        # event sinks filled by the node machines, drained by the runner
        self.member_events: list[tuple] = []
        self.loss_records: list[tuple] = []
        self.op_records: list[dict] = []
        self._lost_clusters: set[NodeId] = set()

    # -- registration --------------------------------------------------

    def add_node(self, node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node {node.node_id}")
        self.nodes[node.node_id] = node

    def is_alive(self, node_id: NodeId) -> bool:
        return node_id in self.nodes and node_id not in self.crashed

    # -- scheduling ----------------------------------------------------

    def _push(self, time: int, *ev) -> None:
        if time < self.clock:
            raise SimError(f"event at {time} is before the clock {self.clock}")
        self._buckets[time].append((self._seq, *ev))
        self._seq += 1

    def send(self, src: NodeId, dst: NodeId, msg) -> None:
        """``multicast(src, (dst,), msg)`` as one flat entry,
        ``(seq, src, dst, msg)``, which ``run_until`` delivers in its own
        branch, with no destination tuple and no run loop. Most messages
        are unicast: sending them through ``multicast`` measured 10% fewer
        messages per second on ``insert_search`` and ``churn`` and 18% on
        ``heartbeat`` (Python 3.11, 2-core VM)."""
        if src in self.crashed:
            return
        # the memo holds no negative latency, so this is not before the
        # clock; a memoized 0 is falsy and reaches _latency, which returns it
        time = self.clock + (self._latencies.get((src, dst)) or self._latency(src, dst))
        self._buckets[time].append((self._seq, src, dst, msg))
        self._seq += 1

    def multicast(self, src: NodeId, dsts, msg) -> None:
        """``send(src, d, msg)`` for each ``d`` in ``dsts``, in order. One
        message object serves every destination, so handlers must not
        mutate it. The runs of a destination list are memoized per
        ``(src, dsts)``, so a list sent again costs one queue entry per
        run and no work per destination; the memo grows by one entry per
        distinct destination list."""
        if src in self.crashed:
            return
        dsts = tuple(dsts)
        runs = self._runs.get((src, dsts))
        if runs is None:
            runs = self._split_runs(src, dsts)
        buckets, clock, seq0 = self._buckets, self.clock, self._seq
        for i, lat, run in runs:
            buckets[clock + lat].append((seq0 + i, (src, run, msg)))
        self._seq = seq0 + len(dsts)

    def _split_runs(self, src: NodeId, dsts: tuple) -> tuple:
        """``dsts`` cut into runs of consecutive destinations at one
        latency from ``src``, as ``(first index, latency, run)``, and
        memoized. Latencies are fixed for life, like localities. Every
        destination is checked before anything is memoized or queued."""
        lats = [self._latency(src, d) for d in dsts]
        runs, i, n = [], 0, len(dsts)
        while i < n:
            lat, j = lats[i], i + 1
            while j < n and lats[j] == lat:
                j += 1
            runs.append((i, lat, dsts[i:j]))
            i = j
        runs = self._runs[src, dsts] = tuple(runs)
        return runs

    def _latency(self, src: NodeId, dst: NodeId) -> int:
        """Link latency, memoized per (src, dst) pair. A node id keeps its
        locality for life: a role change passes it on to the new node."""
        lat = self._latencies.get((src, dst))
        if lat is None:
            if src not in self.nodes or dst not in self.nodes:
                raise UnknownNode(dst if src in self.nodes else src)
            lat = self.network.latency(self.nodes[src].locality, self.nodes[dst].locality)
            if lat < 0:
                raise SimError(f"negative latency {lat} from {src} to {dst}")
            self._latencies[src, dst] = lat
        return lat

    def set_timer(self, node: NodeId, tag: str, delay: int, payload=None) -> None:
        """Fire ``tag`` at ``node`` after ``delay``. The timer belongs to
        the object now installed under ``node``: if a role change or a
        rejoin replaces that object first, the timer is traced but runs
        no handler."""
        owner = self.nodes.get(node)
        if owner is None:
            raise UnknownNode(node)
        if delay < 0:
            raise SimError(f"timer {tag!r} at {node} has negative delay {delay}")
        self._buckets[self.clock + delay].append((self._seq, node, owner, tag, payload))
        self._seq += 1

    def every(self, node: NodeId, tag: str, period: int) -> None:
        """Fire ``tag`` at ``node`` every ``period``, first ``period``
        from now, for as long as the object now installed under ``node``
        stays installed and the node does not crash. ``run_until``
        queues each next firing after the handler returns, so it takes
        the seq a ``set_timer`` at the end of the handler would take.
        Untraced, firings armed one after another share a round entry."""
        owner = self.nodes.get(node)
        if owner is None:
            raise UnknownNode(node)
        if period <= 0:
            raise SimError(f"periodic timer {tag!r} at {node} has period {period}")
        if self.tracing:
            self._buckets[self.clock + period].append((self._seq, node, owner, tag, None, period))
        else:
            _arm(self._buckets[self.clock + period], node, owner, tag, period)
        self._seq += 1

    # -- steady clusters -----------------------------------------------

    def unsteady(self, head: NodeId | None = None) -> None:
        """``head``'s cluster is not, or no longer, steady: a node wrote
        what makes a beat do more than move a timestamp. With no head,
        no cluster is: a crash, a rejoin or a replaced node object. A
        cluster that stops being steady has its beat times settled first,
        so the node reads and writes them as its handlers would."""
        if head is None:
            for held in self._steady.values():
                held.settle()
            self._steady.clear()
            self._candidates.clear()
            self._registered.clear()
        else:
            held = self._steady.pop(head, None)
            if held is not None:
                held.settle()
            self._candidates.pop(head, None)
            self._registered.pop(head, None)

    def register_steady(self, head, beat, heard) -> None:
        """Set-up built ``head``'s cluster message-free, so nothing but
        plain beats passes in it: ``beat`` and ``heard`` as for
        ``offer_steady``. The first round that plans beats to the cluster
        confirms it (``_confirm``) and makes it steady, with no round
        through the handlers. O(1): no member is read here. Untraced
        runs only."""
        if not self.tracing:
            self._registered[head.node_id] = (head, beat, heard)

    def offer_steady(self, head, beat, heard) -> None:
        """Called by a super-peer at the end of each sweep. ``beat`` is the
        message the sweep multicast to its members, and ``heard(agents,
        time)`` does what that beat's handler does at the member objects
        ``agents`` while the cluster is steady, for a beat that arrived at
        ``time``: it moves their last-seen times, unless a handler moved
        one past ``time`` since. ``run_until`` stamps each arrival and
        calls ``heard`` only when it settles the stamps (``_Steady``).
        A cluster neither steady nor confirmed from set-up, as after a
        fault, is steady once found so (``_quiet_since``) at two sweeps
        in a row, with no ``unsteady`` in between: one round of beats and
        ticks ran through the handlers and found nothing unusual.
        From then on ``run_until`` runs its beats, and its sweeps that
        would only send them (``_fire_steadily``), without handler calls.
        Untraced runs only."""
        if self.tracing or head.node_id in self._steady:
            return
        hid = head.node_id
        floor = self._quiet_since(head)
        if self._candidates.pop(hid, None) is not head or floor is None:
            if floor is not None:
                self._candidates[hid] = head
            return
        self._make_steady(head, beat, heard, floor)

    def _confirm(self, hid: NodeId) -> _Steady | None:
        """The steady state of ``hid``'s registered cluster, if its
        members pass ``_quiet_since`` now. The registration goes either
        way: a cluster that fails waits for ``offer_steady``."""
        reg = self._registered.pop(hid, None)
        if reg is None:
            return None
        head, beat, heard = reg
        floor = self._quiet_since(head)
        return None if floor is None else self._make_steady(head, beat, heard, floor)

    def _make_steady(self, head, beat, heard, floor: int) -> _Steady:
        """Make ``head``'s cluster steady, ``floor`` from ``_quiet_since``."""
        hid, dsts, nodes = head.node_id, head.members.ordered, self.nodes
        runs = self._runs.get((hid, dsts)) or self._split_runs(hid, dsts)
        agents = tuple(tuple(map(nodes.__getitem__, run)) for _, _, run in runs)
        held = self._steady[hid] = _Steady(head, beat, heard, runs, agents, floor,
                                           head.hb.failure_timeout_us)
        return held

    def _quiet_since(self, head) -> int | None:
        """The oldest time a member last heard ``head``, if every member is
        a live agent whose ``steady_since`` says a plain beat is all that
        passes between them; else None."""
        nodes, crashed, hid = self.nodes, self.crashed, head.node_id
        secondary, timeout = head.secondary, head.hb.failure_timeout_us
        floor = self.clock
        for a in head.members.ordered:
            steady_since = None if a in crashed else getattr(nodes[a], "steady_since", None)
            since = None if steady_since is None else steady_since(hid, secondary, timeout)
            if since is None:
                return None
            if since < floor:
                floor = since
        return floor

    def _plan(self, rnd: _Round) -> _Plan | None:
        """What a firing of ``rnd`` queues if each firing only sends its
        owner's ``steady_beat`` to a member of a steady cluster: one
        ``_Beats`` per (receiver, latency), in order of first use, the
        receiver's own entry for those senders if it has one. None when
        some firing may do more, or a beat would land in the round's next
        bucket. A registered cluster is confirmed here, the first time a
        firing beats to it."""
        steady, nodes, crashed = self._steady, self.nodes, self.crashed
        groups, held = {}, {}
        for node, owner in zip(rnd.nodes, rnd.owners):
            steady_beat = getattr(owner, "steady_beat", None)
            if steady_beat is None or node in crashed or nodes[node] is not owner:
                return None
            beat = steady_beat(rnd.tag)
            if beat is None:
                return None
            dst, msg = beat
            h = steady.get(dst) or self._confirm(dst)
            if h is None or node not in h.head.members:
                return None
            lat = self._latency(node, dst)
            if lat == rnd.period:
                return None
            group = groups.get((lat, dst))
            if group is None:
                group = groups[lat, dst] = (msg, [])
            elif group[0] is not msg:
                return None
            group[1].append(node)
            held[dst] = h
        beats = []
        for (lat, dst), (msg, srcs) in groups.items():
            h, srcs = held[dst], tuple(srcs)
            entry = h.beats.get(srcs)
            if entry is None or entry.msg is not msg:
                entry = h.beats[srcs] = _Beats(srcs, dst, msg, h,
                                               h.head.last_heard(srcs, self.clock))
                if h.covered is not None:
                    h.covered.update(srcs)
                    if len(h.covered) == h.size:
                        h.covered = None
            beats.append((lat, (entry,)))
        return _Plan(tuple(beats), tuple(held.values()))

    def _fire_steadily(self, node: NodeId, owner, tag: str, time: int) -> bool:
        """Run ``owner``'s firing of ``tag`` with no handler call if it is
        the sweep of a steady cluster's super-peer that would only
        multicast its two beats (``steady_sweep``) and that finds no
        member overdue by the stamped times (``_Steady.fresh``): queue
        the beats as ``_tick_sweep`` would and return True. Else settle
        the steady cluster whose times the handler reads, the node's own
        as super-peer or as member, and return False."""
        held = self._steady.get(node)
        if held is None:
            steady_beat = getattr(owner, "steady_beat", None)
            beat = steady_beat(tag) if steady_beat is not None else None
            held = self._steady.get(beat[0]) if beat is not None else None
            if held is not None:
                held.settle()
            return False
        sweep = owner.steady_sweep(tag, time)
        if sweep is None or sweep[0] is not held.beat or not held.fresh(time):
            held.settle()
            return False
        beat, peers, peer_beat = sweep
        buckets, seq0 = self._buckets, self._seq
        for i, lat, run in held.runs:
            buckets[time + lat].append((seq0 + i, (node, run, beat)))
        self._seq = seq0 + held.size
        held.peer_beat = peer_beat
        self.multicast(node, peers, peer_beat)
        return True

    def inject_crash(self, node: NodeId, at: int) -> None:
        if node not in self.nodes:
            raise UnknownNode(node)
        self._push(at, node, "crash")

    def inject_rejoin(self, node: NodeId, at: int) -> None:
        if node not in self.nodes:
            raise UnknownNode(node)
        self._push(at, node, "rejoin")

    # -- event sinks ---------------------------------------------------

    def record_member_event(self, event: str, cluster: NodeId, node: NodeId, detail: str = "") -> None:
        self.member_events.append((self.clock, event, cluster, node, detail))

    def record_loss(self, oid, detail: str = "") -> None:
        self.loss_records.append((self.clock, oid, detail))

    def record_cluster_lost(self, ragent: NodeId, reporter: NodeId) -> None:
        # many members may report the same dead cluster; keep one record
        if ragent in self._lost_clusters:
            return
        self._lost_clusters.add(ragent)
        self.record_member_event("cluster_lost", ragent, reporter, "no-surviving-secondary")

    # -- execution -----------------------------------------------------

    def run_until(self, t: int) -> None:
        if t < self.clock:
            raise ValueError("cannot run backwards")
        heap, buckets, nodes, crashed = self._heap, self._buckets, self.nodes, self.crashed
        # request deliveries are counted here, inline, not through
        # StepCounter.on_message: one dict update per delivery
        tracing, trace, messages = self.tracing, self.trace, self.steps.messages
        steady, registered = self._steady, self._registered
        delivered, in_bulk = self.deliver_count, self.steady_deliveries
        try:
            while heap and heap[0] <= t:
                # the time leaves the heap only once its bucket is empty, so
                # an event a handler adds at this time is drained here, and a
                # handler that raises leaves the rest of the bucket queued
                time = heap[0]
                bucket = buckets[time]
                popleft = bucket.popleft
                self.clock = time
                while bucket:
                    ev = popleft()
                    n = len(ev)
                    if n == 4:
                        seq, src, dst, msg = ev
                        rid = getattr(msg, "request_id", None)
                        if dst in crashed:
                            if tracing:
                                trace.append(TraceRecord(time, seq, "drop", dst, src,
                                                         type(msg).__name__, rid,
                                                         getattr(msg, "hop", None)))
                            self._bounce(time, src, dst, msg, rid)
                            continue
                        if tracing:
                            rec = TraceRecord(time, seq, "deliver", dst, src, type(msg).__name__,
                                              rid, getattr(msg, "hop", None))
                            trace.append(rec)
                        delivered += 1
                        if rid is not None:
                            messages[rid] = messages.get(rid, 0) + 1
                        # a node whose role has no handler for the type returns False
                        if nodes[dst].on_message(self, msg, src) is False and tracing:
                            trace.append(replace(rec, kind="ignored"))
                    elif n == 5:
                        seq, node, owner, tag, payload = ev
                        if node in crashed:
                            continue
                        if tracing:
                            trace.append(TraceRecord(time, seq, "timer", node, tag=tag))
                        if nodes[node] is owner:
                            owner.on_timer(self, tag, payload)
                    elif n == 1:
                        entry = ev[0]
                        if type(entry) is _Beats:
                            srcs, dst, msg = entry.srcs, entry.dst, entry.msg
                            held = entry.held
                            if held is not None and steady.get(dst) is held:
                                # what _on_AgentHeartbeat does for each beat,
                                # stamped, to be settled later
                                entry.time = time
                                held.dirty = True
                                delivered += len(srcs)
                                in_bulk += len(srcs)
                                continue
                            # each beat as the unicast it stands for
                            i = 0
                            try:
                                for i, src in enumerate(srcs):
                                    if dst in crashed:
                                        self._bounce(time, src, dst, msg, None)
                                    else:
                                        delivered += 1
                                        nodes[dst].on_message(self, msg, src)
                            except BaseException:
                                if srcs[i + 1:]:
                                    bucket.appendleft((_Beats(srcs[i + 1:], dst, msg, None),))
                                raise
                            continue
                        rnd = entry
                        tag, period = rnd.tag, rnd.period
                        plan = rnd.plan
                        if plan is None and (steady or registered):
                            plan = rnd.plan = self._plan(rnd)
                        if plan is not None:
                            if plan.ready(steady, time):
                                # each firing would only send its beat: queue
                                # the beats and the round, and call no handler
                                for lat, beats in plan.beats:
                                    buckets[time + lat].append(beats)
                                buckets[time + period].append(ev)
                                self._seq += len(plan.beats) + 1
                                continue
                            rnd.plan = None
                        # each firing as the periodic timer it stands for;
                        # the re-arms extend the round they open, inline
                        owners, nxt, ahead, i = rnd.owners, None, None, 0
                        try:
                            for i, node in enumerate(rnd.nodes):
                                owner = owners[i]
                                if node in crashed or nodes[node] is not owner:
                                    continue
                                if not (steady and self._fire_steadily(node, owner, tag, time)):
                                    owner.on_timer(self, tag, None)
                                if nodes[node] is owner:
                                    if nxt is not None and ahead[-1] is nxt:
                                        nxt[0].nodes.append(node)
                                        nxt[0].owners.append(owner)
                                    else:
                                        ahead = buckets[time + period]
                                        _arm(ahead, node, owner, tag, period)
                                        nxt = ahead[-1]
                                    self._seq += 1
                        except BaseException:
                            if rnd.nodes[i + 1:]:
                                bucket.appendleft((_Round(tag, period, rnd.nodes[i + 1:],
                                                          owners[i + 1:]),))
                            raise
                    elif n == 2:
                        seq0, (src, dsts, msg) = ev
                        held = steady.get(src)
                        if held is not None and (
                                held.hear(dsts, time) if msg is held.beat else
                                msg is held.peer_beat and crashed.isdisjoint(dsts)
                                and held.head.peers_heard_steadily(nodes, src, dsts, msg, time)):
                            delivered += len(dsts)
                            in_bulk += len(dsts)
                            continue
                        rid = getattr(msg, "request_id", None)
                        seq = seq0
                        try:
                            for dst in dsts:
                                dead = dst in crashed
                                if tracing:
                                    rec = TraceRecord(time, seq, "drop" if dead else "deliver",
                                                      dst, src, type(msg).__name__, rid,
                                                      getattr(msg, "hop", None))
                                    trace.append(rec)
                                if dead:
                                    self._bounce(time, src, dst, msg, rid)
                                else:
                                    delivered += 1
                                    if rid is not None:
                                        messages[rid] = messages.get(rid, 0) + 1
                                    if nodes[dst].on_message(self, msg, src) is False and tracing:
                                        trace.append(replace(rec, kind="ignored"))
                                seq += 1
                        except BaseException:
                            # the rest of the run stays at the front of the
                            # bucket, with its seqs, and the error propagates
                            rest = dsts[seq - seq0 + 1:]
                            if rest:
                                bucket.appendleft((seq + 1, (src, rest, msg)))
                            raise
                    elif n == 6:
                        seq, node, owner, tag, _, period = ev
                        if node in crashed:
                            continue
                        trace.append(TraceRecord(time, seq, "timer", node, tag=tag))
                        if nodes[node] is owner:
                            owner.on_timer(self, tag, None)
                            # a handler that replaced its owner (a promotion,
                            # a merge demotion) ends the chain
                            if nodes[node] is owner:
                                buckets[time + period].append(
                                    (self._seq, node, owner, tag, None, period))
                                self._seq += 1
                    else:
                        self._fault(*ev)
                heapq.heappop(heap)
                del buckets[time]
        finally:
            self.deliver_count = delivered
            self.steady_deliveries = in_bulk
            for held in steady.values():
                held.settle()
        self.clock = t

    def _bounce(self, time: int, src: NodeId, dead: NodeId, msg, rid) -> None:
        """``msg`` was dropped at the crashed ``dead``: bounce a failure
        notice, a unicast, to a live, non-engine sender. Pushed directly,
        as its nominal source is dead."""
        if src not in self.crashed and not isinstance(msg, SendFailed):
            self._push(time + self._latency(dead, src), dead, src, SendFailed(
                original=msg, dead=dead, request_id=rid, hop=getattr(msg, "hop", 0)))

    def _fault(self, seq: int, node: NodeId, kind: str) -> None:
        """Crash or rejoin ``node``; rare, so kept out of the drain loop."""
        if kind == "crash":
            if node in self.crashed:
                return
            self.crashed.add(node)
        elif node in self.crashed:
            self.crashed.discard(node)
        else:
            raise NotCrashed(node)
        self.unsteady()
        if self.tracing:
            self.trace.append(TraceRecord(self.clock, seq, kind, node))
        getattr(self.nodes[node], "on_" + kind)(self)  # on_crash / on_rejoin

    def trace_lines(self, fmt: str = "digest") -> list[str]:
        """The trace, one line per record, in a ``TRACE_FORMATS`` format."""
        if not self.tracing:
            raise SimError("no trace recorded: build the simulator with trace=True")
        render = TRACE_FORMATS[fmt]
        return [render(r) for r in self.trace]
