"""Seeded workload generator and brute-force search oracle.

Standard library only. ``generate(name, seed)`` returns the scenario text
the program receives, plus what only the benchmark keeps: every client
op with its request id and scheduled time, and for each search the set of
object labels the brute-force oracle says must (search-all) or may
(search-first) come back.

Request ids follow ``schedule_events``: ``q{seq:04d}``, numbered over
client ops in event order. Event times are milliseconds.

Why these three workloads:

* ``insert_search``: many objects per cluster, then many searches. The
  catalogue (full secondary copy per mutation) and the search path do the
  work; the engine does little.
* ``heartbeat``: 2,000 agents and a thin trickle of searches and reads
  over 30 s of simulated time. Heartbeats through the engine do the work;
  catalogue sync barely runs.
* ``churn``: writes beside reads under faults: lock queueing on a hot
  set, migration, agent crashes and rejoins, splits from joins, and one
  super-peer failover. Client ops pause across the failover's detection
  window, where even a correct program cannot answer ``ok``; everything
  else is answerable, so an op that fails here points at a defect.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("insert_search", "heartbeat", "churn")

# ROADMAP ladder settings; migration is off through an unreachable threshold
LADDER = {"min_cluster": 2, "heartbeat_period_ms": 500,
          "failure_timeout_ms": 2000, "delegation_factor": 0.0,
          "migration_threshold": 10**9, "lus_count": 1, "drain_ms": 1500}


@dataclass
class Obj:
    label: str
    type_tag: str
    keys: tuple[str, ...]
    time_ms: int


@dataclass
class Op:
    rid: str
    time_ms: int
    kind: str                      # insert | search | search_first | update | read
    label: str = ""                # insert, update and read target
    crit: tuple[str, str] | None = None   # (exact|pattern, key) for searches


@dataclass
class Workload:
    text: str
    ops: list[Op]
    objects: list[Obj]
    fault_free: bool
    faults: dict = field(default_factory=dict)

    def oracle(self) -> dict[str, frozenset]:
        """Request id -> labels a search must (all) or may (first) return."""
        return {op.rid: brute_force(self.objects, op.crit, op.time_ms)
                for op in self.ops if op.crit is not None}


def matches(obj: Obj, crit: tuple[str, str]) -> bool:
    kind, key = crit
    return obj.type_tag == key if kind == "exact" else key in obj.keys


def brute_force(objects, crit: tuple[str, str], before_ms: int) -> frozenset:
    """Labels of every object inserted before ``before_ms`` that matches
    the criterion: the answer a complete search must give."""
    return frozenset(o.label for o in objects
                     if o.time_ms < before_ms and matches(o, crit))


def locality(cluster: int) -> str:
    """One network per cluster, two clusters per country, four per
    continent, so join placement is by proximity and latencies differ."""
    return (f"net{cluster} as{cluster} cc{(cluster + 1) // 2} "
            f"{'eu' if cluster <= 4 else 'na'}")


CLIENT_LOCALITY = "netc asc cc1 eu"

# a read follows the search-first that tells the client a holder; this
# gap is well beyond any search latency, so the holder is known by then
READ_AFTER_MS = 1000


class _Builder:
    def __init__(self, seed: int, config: dict):
        self.seed = seed
        self.config = config
        self.nodes: list[str] = []
        self.events: list[tuple[int, int, str, Op | None]] = []
        self.objects: list[Obj] = []
        self.faults: dict[str, int] = {}

    def node(self, name: str, role: str, cluster: int) -> None:
        self.nodes.append(f"{name} {role} {locality(cluster)}")

    def client(self) -> None:
        self.nodes.append(f"c1 client {CLIENT_LOCALITY}")

    def _event(self, t: int, line: str, op: Op | None = None) -> None:
        self.events.append((t, len(self.events), line, op))

    def insert(self, t: int, agent: str, label: str, type_tag: str, keys) -> None:
        keys = tuple(sorted(set(keys)))
        self.objects.append(Obj(label, type_tag, keys, t))
        payload = f"{self.seed & 0xffffffff:08x}{len(self.objects):08x}"
        self._event(t, f"{t} insert c1 {agent} {label} {type_tag} "
                       f"{','.join(keys) or '-'} {payload}",
                    Op("", t, "insert", label=label))

    def search(self, t: int, agent: str, crit: tuple[str, str], mode: str) -> None:
        kind = "search" if mode == "all" else "search_first"
        self._event(t, f"{t} {kind} c1 {agent} {crit[0]} {crit[1]}",
                    Op("", t, kind, crit=crit))

    def update(self, t: int, agent: str, label: str, payload: str) -> None:
        self._event(t, f"{t} update c1 {agent} {label} {payload}",
                    Op("", t, "update", label=label))

    def read(self, t: int, label: str) -> None:
        self._event(t, f"{t} read c1 {label}", Op("", t, "read", label=label))

    def fault(self, t: int, line: str, kind: str) -> None:
        self._event(t, f"{t} {line}")
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def build(self, fault_free: bool) -> Workload:
        self.events.sort(key=lambda e: (e[0], e[1]))
        ops: list[Op] = []
        for t, _, _, op in self.events:
            if op is None:
                continue
            op.rid = f"q{len(ops) + 1:04d}"
            ops.append(op)
        out = ["[config]"]
        out += [f"{k} = {v}" for k, v in self.config.items()]
        out += ["", "[nodes]", *self.nodes, "", "[events]"]
        out += [line for _, _, line, _ in self.events]
        return Workload("\n".join(out) + "\n", ops, self.objects, fault_free,
                        dict(self.faults))


def _clusters(b: _Builder, r: int, n: int) -> dict[int, list[str]]:
    agents = {}
    for c in range(1, r + 1):
        b.node(f"r{c}", "ragent", c)
    for c in range(1, r + 1):
        agents[c] = [f"a{c}x{i:03d}" for i in range(n)]
        for a in agents[c]:
            b.node(a, "agent", c)
    b.client()
    return agents


def _search_mix(rng: random.Random, n: int, types: int, keys: int) -> list:
    """``n`` searches, a quarter each of exact/pattern by all/first, keys
    cycled evenly, in shuffled order: seeds change the order and the
    agents asked, not how much the mix costs."""
    mix = []
    for i in range(n):
        j = i // 4
        crit = ("exact", f"t{j % types}") if i % 2 == 0 else ("pattern", f"k{j % keys}")
        mix.append((crit, "all" if i % 4 < 2 else "first"))
    rng.shuffle(mix)
    return mix


def insert_search(seed: int) -> Workload:
    """R=4, N=16 per cluster, B=1,500 inserts with the ladder's type
    ``t{i%50}`` and key ``k{i%13}``, then 1,000 searches."""
    rng = random.Random(seed * 7919 + 1)
    b = _Builder(seed, dict(LADDER))
    agents = _clusters(b, 4, 16)
    flat = [a for c in sorted(agents) for a in agents[c]]
    t = 100
    for i in range(1500):
        b.insert(t, rng.choice(flat), f"o{i}", f"t{i % 50}", [f"k{i % 13}"])
        t += 2
    t += 2000
    for crit, mode in _search_mix(rng, 1000, 50, 13):
        b.search(t, rng.choice(flat), crit, mode)
        t += 4
    return b.build(fault_free=True)


def heartbeat(seed: int) -> Workload:
    """R=8, N=250 per cluster, B=100, then a trickle of 1,050 searches
    and reads over 30 s."""
    rng = random.Random(seed * 7919 + 2)
    b = _Builder(seed, dict(LADDER))
    agents = _clusters(b, 8, 250)
    flat = [a for c in sorted(agents) for a in agents[c]]
    t = 100
    for i in range(100):
        b.insert(t, rng.choice(flat), f"o{i}", f"t{i % 20}", [f"k{i % 7}", f"u{i}"])
        t += 5
    # 550 single searches and 250 search-then-read pairs over 30 s
    actions = _search_mix(rng, 550, 20, 7) + [None] * 250
    rng.shuffle(actions)
    t = 1500
    for action in actions:
        if action is not None:
            b.search(t, rng.choice(flat), *action)
        else:
            i = rng.randrange(100)
            b.search(t, rng.choice(flat), ("pattern", f"u{i}"), "first")
            b.read(t + READ_AFTER_MS, f"o{i}")
        t += 37 + rng.randrange(2)
    return b.build(fault_free=True)


def churn(seed: int) -> Workload:
    """R=4, N=12 per cluster, max_cluster=14, B=600, then 1,000+ mixed
    ops beside agent crashes and rejoins, joins that force a split of
    cluster 3, and the crash of super-peer r2. Seeds change which agent
    of a cluster crashes, where objects go, and the order and targets of
    ops, not the shape of the run."""
    rng = random.Random(seed * 7919 + 3)
    cfg = dict(LADDER, max_cluster=14, migration_threshold=3, drain_ms=4000)
    b = _Builder(seed, cfg)
    agents = _clusters(b, 4, 12)
    timeout = cfg["failure_timeout_ms"]
    clusters = sorted(agents)
    everyone = [a for c in clusters for a in agents[c]]
    split_c, sp_c = 3, 2
    # hot objects live in cluster 4; cluster 1 keeps asking for them with
    # search-first until they migrate
    hot_c, asker_c = 4, 1

    t = 100
    for i in range(600):
        keys = [f"k{i % 9}"]
        if i % 50 == 7:
            agent = rng.choice(agents[hot_c])
            keys.append(f"h{i // 50}")
        else:
            agent = rng.choice(everyone)
            keys.append(f"u{i}")
        b.insert(t, agent, f"o{i}", f"t{i % 20}", keys)
        t += 2
    unique = [i for i in range(600) if i % 50 != 7]
    hot_keys = [f"h{j}" for j in range(12)]
    hot_set = [f"o{i}" for i in rng.sample(unique, 6)]

    down: list[tuple[int, int, str]] = []   # agent not targeted in [lo, hi)
    quiet: list[tuple[int, int]] = []       # no client ops at all
    no_reads: list[tuple[int, int]] = []    # no search-then-read pairs
    # one agent crash per cluster, none in cluster 2 before its super-peer
    # crashes; x000 is each cluster's secondary (the failover successor)
    # and x001 of cluster 3 becomes the split-off super-peer, so neither
    # is a victim, which would make a second super-peer fault
    victims = [rng.choice(agents[1][1:]), rng.choice(agents[4][1:]),
               rng.choice(agents[3][2:]), rng.choice(agents[2][1:])]
    for ct, victim in zip((6000, 13000, 29000, 37000), victims):
        rejoin = ct + 2 * timeout + 1000
        b.fault(ct, f"crash {victim}", "agent_crash")
        b.fault(rejoin, f"rejoin {victim}", "agent_rejoin")
        down.append((ct - 1500, rejoin + 1500, victim))
        no_reads.append((ct - 1000, ct + timeout + 1500))
    join_t = 9000
    joined = []
    for k in range(3):
        name = f"j{split_c}x{k}"
        b.fault(join_t + 200 * k, f"join {name} {locality(split_c)}", "join")
        joined.append(name)
        down.append((0, join_t + 200 * k + 1500, name))
    no_reads.append((join_t - 500, join_t + 3500))
    sp_crash = 21000
    b.fault(sp_crash, f"crash r{sp_c}", "superpeer_crash")
    quiet.append((sp_crash - 1500, sp_crash + timeout + 3000))

    def usable(a: str, at: int) -> bool:
        return not any(lo <= at < hi and a == v for lo, hi, v in down)

    def inside(spans, at: int) -> bool:
        return any(lo <= at < hi for lo, hi in spans)

    # actions come from shuffled decks of fixed make-up, so seeds change
    # their order, not their mix
    deck: list[str] = []
    searches: list = []
    pool = everyone + joined
    t, end = 3000, 43000
    while t < end:
        if inside(quiet, t):
            t += 50
            continue
        if not deck:
            deck = ["search"] * 7 + ["update"] * 3 + ["migrate"] * 2 + ["pair"] * 8
            rng.shuffle(deck)
        if not searches:
            searches = _search_mix(rng, 40, 20, 9)
        action = deck.pop()
        if action == "pair" and (inside(no_reads, t) or inside(no_reads, t + READ_AFTER_MS)):
            action = "search"
        live = [a for a in pool if usable(a, t)]
        if action == "search":
            b.search(t, rng.choice(live), *searches.pop())
        elif action == "update":
            # a burst on one hot object queues behind its lock
            label = rng.choice(hot_set)
            for k in range(3):
                b.update(t + k, rng.choice(live), label, f"{t:06x}{k:02x}")
        elif action == "migrate":
            askers = [a for a in agents[asker_c] if usable(a, t)]
            b.search(t, rng.choice(askers), ("pattern", rng.choice(hot_keys)), "first")
        else:
            i = unique.pop(rng.randrange(len(unique)))
            b.search(t, rng.choice(live), ("pattern", f"u{i}"), "first")
            b.read(t + READ_AFTER_MS, f"o{i}")
        t += 35 + rng.randrange(20)
    return b.build(fault_free=False)


GENERATORS = {"insert_search": insert_search, "heartbeat": heartbeat,
              "churn": churn}


def generate(name: str, seed: int) -> Workload:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return GENERATORS[name](seed)
