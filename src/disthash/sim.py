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
- ``(seq, (src, dsts, msg))``, 2: a multicast run, one message to a run
  of destinations that arrive at the same time, the i-th destination
  taking ``seq + i``;
- ``(seq, node, "crash"|"rejoin")``, 3: a fault, rare, so it takes the
  shape left over and the last branch.

``multicast`` is ``send`` to each destination in order, with the same
seqs and arrival times, but queues each run of consecutive destinations
with one arrival time as one entry, so a super-peer's beat round to
members at one latency costs one entry, not one per member. The runs of
a destination list are memoized per ``(src, dsts)``, beside the latency
memo: a list sent again queues one entry per run with no work per
destination, and the memo grows by one entry per distinct list. One
message object serves every destination of a multicast, so a node never
assigns to a message it receives; a relay sends a copy.
``send``, ``multicast`` and ``set_timer`` append straight to their
bucket, which the first lookup of a time opens; crash, rejoin and the
``SendFailed`` bounce, itself a unicast, go through ``_push``.
``run_until`` drains each bucket in one local loop that delivers a
unicast in its own branch, a run in place, and timers inline, and hands
the rare faults to ``_fault``.

No event is scheduled before the clock: ``_push`` checks the time,
``set_timer`` rejects a negative delay, and ``_latency`` admits only a
non-negative latency to the memo that ``send`` reads. As ``seq`` only
grows, every event pushed to a time lands behind all those already
there: draining buckets in time order and each bucket front to back is
exactly (time, seq) order. A run's seqs are consecutive and handed out
at once, so anything queued later into its bucket has a larger seq than
the whole run. A zero-delay timer set while its bucket drains joins the
end of that bucket.

Step accounting keeps one ``ClusterTally`` per (request, cluster), which
holds the charging rules; the super-peer search that owns a tally
charges it directly (see ``StepCounter``).

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
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from functools import partial

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
        self.agents_contacted = set()
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
        self.agents_contacted.add(agent)
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
    ``on_probe`` charge the same rules by request id and cluster."""

    def __init__(self):
        # a request's tallies, and a cluster's tally, open on first use
        self.requests: dict[str, dict[str, ClusterTally]] = defaultdict(
            partial(defaultdict, ClusterTally))
        self.messages: dict[str, int] = {}

    def tally(self, request_id: str, cluster: str) -> ClusterTally:
        """The tally of ``request_id`` at ``cluster``, opened on first use."""
        return self.requests[request_id][cluster]

    def on_lookup(self, request_id: str, cluster: str, m_keys: int, key_steps: int, matches: int) -> None:
        self.requests[request_id][cluster].lookup(m_keys, key_steps, matches)

    def on_fetch_request(self, request_id: str, cluster: str, agent: NodeId, n_objects: int) -> None:
        self.requests[request_id][cluster].fetch(agent, n_objects)

    def on_probe(self, request_id: str, cluster: str, store_size: int, n_objects: int) -> None:
        self.requests[request_id][cluster].probe(store_size, n_objects)

    def on_message(self, request_id: str) -> None:
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


class Simulator:
    """Single-threaded engine. Nodes are registered state machines; all
    interaction between them goes through ``send``/``multicast``/``set_timer``."""

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
        tracing, trace, steps = self.tracing, self.trace, self.steps
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
                            trace.append(TraceRecord(time, seq, "drop", dst, src, type(msg).__name__,
                                                     rid, getattr(msg, "hop", None)))
                        self._bounce(time, src, dst, msg, rid)
                        continue
                    if tracing:
                        rec = TraceRecord(time, seq, "deliver", dst, src, type(msg).__name__,
                                          rid, getattr(msg, "hop", None))
                        trace.append(rec)
                    self.deliver_count += 1
                    if rid is not None:
                        steps.on_message(rid)
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
                elif n == 2:
                    seq0, (src, dsts, msg) = ev
                    rid = getattr(msg, "request_id", None)
                    seq = seq0
                    try:
                        for dst in dsts:
                            dead = dst in crashed
                            if tracing:
                                rec = TraceRecord(time, seq, "drop" if dead else "deliver", dst, src,
                                                  type(msg).__name__, rid, getattr(msg, "hop", None))
                                trace.append(rec)
                            if dead:
                                self._bounce(time, src, dst, msg, rid)
                            else:
                                self.deliver_count += 1
                                if rid is not None:
                                    steps.on_message(rid)
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
                else:
                    self._fault(*ev)
            heapq.heappop(heap)
            del buckets[time]
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
        if self.tracing:
            self.trace.append(TraceRecord(self.clock, seq, kind, node))
        getattr(self.nodes[node], "on_" + kind)(self)  # on_crash / on_rejoin

    def trace_lines(self, fmt: str = "digest") -> list[str]:
        """The trace, one line per record, in a ``TRACE_FORMATS`` format."""
        if not self.tracing:
            raise SimError("no trace recorded: build the simulator with trace=True")
        render = TRACE_FORMATS[fmt]
        return [render(r) for r in self.trace]
