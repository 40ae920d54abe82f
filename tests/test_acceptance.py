"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line. The randomized criteria use independently generated scenarios and
brute-force oracles."""
import contextlib
import copy
import math
import random
import time

from disthash.core import KeyKind, NodeId, Role, make_object
from disthash.nodes import LusNode, RAgentNode
from disthash.runner import build_simulation, run_scenario, schedule_events
from disthash.scenario import (CrashEvent, InsertEvent, JoinEvent,
                               NodeDecl, Scenario, ScenarioConfig,
                               SearchEvent, UpdateEvent, parse_scenario)
from disthash.core import LocalityDescriptor
from disthash.sim import MS, StepCounter, ideal_search_steps


@contextlib.contextmanager
def opened_tallies():
    """Every tally ``StepCounter.tally`` hands out inside the block, once
    each, by ``id``: those the counter drops when their request is
    settled, and those opened after it, which it never keeps."""
    opened = {}
    tally = StepCounter.tally

    def spy(self, request_id, cluster):
        t = tally(self, request_id, cluster)
        opened[id(t)] = t
        return t

    StepCounter.tally = spy
    try:
        yield opened
    finally:
        StepCounter.tally = tally


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def loc(i):
    return LocalityDescriptor(f"net{i}", f"as{i}", f"c{i % 4}", f"k{i % 2}")


def quiet_config(**over):
    base = dict(min_cluster=2, max_cluster=10_000,
                heartbeat_period_ms=60_000, failure_timeout_ms=120_000,
                delegation_factor=0.0, migration_threshold=10 ** 6,
                lus_count=1, drain_ms=1500)
    base.update(over)
    return ScenarioConfig(**base)


def random_scenario(seed):
    rng = random.Random(seed)
    n_clusters = rng.randint(2, 8)
    nodes = [NodeDecl(f"r{i}", Role.RAGENT, loc(i)) for i in range(n_clusters)]
    agents = []
    for i in range(n_clusters):
        for j in range(rng.randint(4, 32)):
            name = f"a{i}_{j:02d}"
            nodes.append(NodeDecl(name, Role.AGENT, loc(i)))
            agents.append(name)
    nodes.append(NodeDecl("c0", Role.CLIENT, loc(0)))

    n_objects = rng.randint(50, 512)
    shared_tags = [f"shared{i}" for i in range(6)]
    key_pool = [f"k{i}" for i in range(12)]
    events, used_tags = [], set()
    for i in range(n_objects):
        tag = rng.choice(shared_tags) if rng.random() < 0.2 else f"t{i}"
        used_tags.add(tag)
        keys = tuple(rng.sample(key_pool, rng.randint(0, 2)))
        events.append(InsertEvent(1 + i, "c0", rng.choice(agents),
                                  f"obj{i}", tag, tuple(sorted(set(keys))),
                                  i.to_bytes(4, "big")))
    t = n_objects + 600
    tags = sorted(used_tags)
    for i in range(20):
        roll = rng.random()
        if roll < 0.5:
            kind, key = "exact", rng.choice(tags)
        elif roll < 0.9:
            kind, key = "pattern", rng.choice(key_pool)
        else:
            kind, key = "pattern", "matches-nothing"
        mode = "all" if rng.random() < 0.6 else "first"
        events.append(SearchEvent(t, "c0", rng.choice(agents), kind, key, mode))
        t += 5
    return Scenario(config=quiet_config(), nodes=nodes, events=events)


def brute_force(labels, kind, key):
    out = set()
    for obj in labels.values():
        if kind == "exact" and obj.type_tag == key:
            out.add(obj.id)
        elif kind == "pattern" and key in obj.index_keys:
            out.add(obj.id)
    return out


class TestAcceptance:
    searches_checked = 0

    def test_01_03_04_cost_formula_search_correctness_batching(self):
        """Criteria 1, 3 and 4 share the randomized scenario corpus."""
        started = time.monotonic()
        formula_ok = correct_ok = batch_ok = True
        checked = tallies_checked = 0
        for seed in range(100):
            sc = random_scenario(seed)
            by_label = {ev.label: ev for ev in sc.events
                        if isinstance(ev, InsertEvent)}
            with opened_tallies() as tallies:
                res = run_scenario(sc)
            assert res.issues == [], (seed, res.issues[:3])
            for rec in res.clients["c0"].completions:
                if rec["op"] == "insert":
                    assert rec["outcome"] == "ok", (seed, rec)
                    continue
                if not rec["op"].startswith("search"):
                    continue
                checked += 1
                ev = sc.events[int(rec["id"][1:]) - 1]
                # criterion 1: exact decomposition, bound when applicable
                if rec["steps"] != rec["decomposed"]:
                    formula_ok = False
                if rec["bound_applicable"] and rec["steps"] > rec["bound"]:
                    formula_ok = False
                # criterion 3: global scan oracle, no duplicate ids
                ids = [o.id for o in rec["objects"]]
                if len(ids) != len(set(ids)):
                    correct_ok = False
                expected = brute_force(res.labels, ev.kind, ev.key)
                if rec["op"] == "search":
                    if set(ids) != expected:
                        correct_ok = False
                elif ids and ids[0] not in expected:
                    correct_ok = False
            # criterion 4: fetches batched per holder agent
            for tally in tallies.values():
                tallies_checked += 1
                if tally.fetch_requests > len(tally.agents_contacted):
                    batch_ok = False
        elapsed = time.monotonic() - started
        TestAcceptance.searches_checked = checked
        assert report(1, "cost-formula decomposition and bound", formula_ok and elapsed < 60)
        assert report(3, "search equals global scan, no duplicates", correct_ok)
        assert report(4, "fetch requests batched per holder", batch_ok and tallies_checked > 0)
        assert checked >= 100 * 20 * 0.9
        assert elapsed < 60, elapsed

    def test_02_ideal_closed_form(self):
        ok = True
        for b in (64, 256, 1024):
            for n in (16, 64):
                expected = b * (4 + int(math.log2(2 * b // n)))
                if ideal_search_steps(b, n) != expected:
                    ok = False
        if ideal_search_steps(1024, 64) != 9216:
            ok = False
        assert report(2, "ideal uniform closed form", ok)

    def test_05_placement_balance(self):
        started = time.monotonic()
        nodes = [NodeDecl("r0", Role.RAGENT, loc(0)),
                 NodeDecl("c0", Role.CLIENT, loc(0))]
        nodes += [NodeDecl(f"a{j:02d}", Role.AGENT, loc(0)) for j in range(10)]
        events = [InsertEvent(1 + i, "c0", f"a{i % 10:02d}", f"obj{i}",
                              f"t{i}", (), i.to_bytes(4, "big"))
                  for i in range(1000)]
        res = run_scenario(Scenario(config=quiet_config(drain_ms=1000),
                                    nodes=nodes, events=events))
        assert res.issues == []
        r0 = res.sim.nodes[NodeId("r0")]
        counts = [r0.catalogue.loads.counts.get(m, 0) for m in r0.members]
        elapsed = time.monotonic() - started
        ok = max(counts) - min(counts) <= 1 and sum(counts) == 2000
        assert report(5, "replica placement balance after 1000 inserts",
                      ok and elapsed < 5)
        assert elapsed < 5, elapsed

    def test_06_split_merge_thresholds(self):
        nodes = [NodeDecl("r1", Role.RAGENT, loc(0)),
                 NodeDecl("a01", Role.AGENT, loc(0)),
                 NodeDecl("a02", Role.AGENT, loc(0)),
                 NodeDecl("c0", Role.CLIENT, loc(0))]
        events = [InsertEvent(1 + i, "c0", "a01", f"obj{i}", f"t{i}", (),
                              i.to_bytes(2, "big")) for i in range(6)]
        t = 1000
        checkpoints = []
        joined = [f"a{j:02d}" for j in range(3, 41)]
        for name in joined:
            events.append(JoinEvent(t, name, loc(0)))
            checkpoints.append(t + 1800)
            t += 2000
        t += 3000
        for name in reversed(joined):
            events.append(CrashEvent(t, name))
            checkpoints.append(t + 4800)
            t += 5000
        sc = Scenario(config=ScenarioConfig(
            min_cluster=2, max_cluster=8, drain_ms=8000, lus_count=1),
            nodes=nodes, events=events)
        result = build_simulation(sc)
        schedule_events(result)
        sim = result.sim
        ok = True
        for cp in checkpoints:
            sim.run_until(cp * MS)
            clusters = [n for n in sim.nodes.values()
                        if isinstance(n, RAgentNode) and sim.is_alive(n.node_id)]
            total = sum(len(r.members) for r in clusters)
            for r in clusters:
                if len(r.members) > 8:
                    ok = False
                if total >= 4 and len(clusters) > 1 and len(r.members) < 2:
                    ok = False
        sim.run_until((t + 8000) * MS)
        # catalogue entries conserved across every split and merge
        for e in sim.member_events:
            if e[1] == "split":
                part = e[4].split()[0].split("=", 1)[1]
                total_n, halves = part.split("->")
                k, m = halves.split("+")
                if int(total_n) != int(k) + int(m):
                    ok = False
            elif e[1] == "merge":
                part = e[4].split()[0].split("=", 1)[1]
                ab, c = part.rsplit("=", 1)
                a, b = ab.split("+")
                if int(a) + int(b) != int(c):
                    ok = False
        if sim.loss_records:
            ok = False
        live = [n for n in sim.nodes.values()
                if isinstance(n, RAgentNode) and sim.is_alive(n.node_id)]
        for obj in result.labels.values():
            if sum(obj.id in r.catalogue for r in live) != 1:
                ok = False
        assert report(6, "split/merge keeps clusters in bounds, entries conserved", ok)

    def _healing_base(self):
        nodes = [NodeDecl(f"r{i}", Role.RAGENT, loc(i)) for i in range(4)]
        for i in range(4):
            nodes += [NodeDecl(f"a{i}_{j}", Role.AGENT, loc(i)) for j in range(6)]
        nodes.append(NodeDecl("c0", Role.CLIENT, loc(0)))
        events = [InsertEvent(1 + i, "c0", f"a{i % 4}_{i % 6}", f"obj{i}",
                              f"t{i}", (f"k{i % 9}",), i.to_bytes(2, "big"))
                  for i in range(200)]
        sc = Scenario(config=quiet_config(heartbeat_period_ms=500,
                                          failure_timeout_ms=2000),
                      nodes=nodes, events=events)
        result = build_simulation(sc)
        schedule_events(result)
        result.sim.run_until(1500 * MS)
        assert check_replication(result) == []
        return result

    def test_07_single_crash_self_healing(self):
        base = self._healing_base()
        agents = sorted(n.node_id for n in base.sim.nodes.values()
                        if n.role is Role.AGENT
                        and not isinstance(n, RAgentNode))
        ok = True
        for victim in agents:
            res = copy.deepcopy(base)
            now_ms = res.sim.clock // MS
            res.sim.inject_crash(victim, (now_ms + 1) * MS)
            # one heartbeat timeout (2000 ms) plus recovery drain
            res.sim.run_until((now_ms + 1 + 2000 + 4000) * MS)
            problems = check_replication(res, dead={victim})
            if problems or res.sim.loss_records:
                ok = False
        assert report(7, "single agent crash restores 2 holders everywhere", ok)

    def test_08_double_crash_semantics(self):
        nodes = [NodeDecl("r0", Role.RAGENT, loc(0)),
                 NodeDecl("c0", Role.CLIENT, loc(0))]
        nodes += [NodeDecl(f"a{j}", Role.AGENT, loc(0)) for j in range(5)]
        events = [InsertEvent(1 + i, "c0", f"a{i % 5}", f"obj{i}", f"t{i}", (),
                              i.to_bytes(2, "big")) for i in range(10)]
        sc = Scenario(config=quiet_config(heartbeat_period_ms=500,
                                          failure_timeout_ms=2000),
                      nodes=nodes, events=events)
        base = build_simulation(sc)
        schedule_events(base)
        base.sim.run_until(1000 * MS)
        r0 = base.sim.nodes[NodeId("r0")]
        target = base.labels["obj0"].id
        h1, h2 = r0.catalogue.holders_of(target)

        # separated by well over two heartbeat timeouts: nothing is lost
        sep = copy.deepcopy(base)
        sep.sim.inject_crash(h1, 2000 * MS)
        sep.sim.inject_crash(h2, 8000 * MS)
        sep.sim.run_until(16_000 * MS)
        sep_ok = not sep.sim.loss_records and not check_replication(sep, dead={h1, h2})

        # same event step: exactly the co-located objects are lost, reported
        both = copy.deepcopy(base)
        expected_lost = {o.id for o in base.labels.values()
                         if set(r0.catalogue.holders_of(o.id)) == {h1, h2}}
        assert target in expected_lost
        both.sim.inject_crash(h1, 2000 * MS)
        both.sim.inject_crash(h2, 2000 * MS)
        both.sim.run_until(12_000 * MS)
        lost = {oid for _, oid, _ in both.sim.loss_records}
        both_ok = lost == expected_lost and not check_replication(
            both, dead={h1, h2}, ignore=expected_lost)
        assert report(8, "double crash: separated loses nothing, same step reported", sep_ok and both_ok)

    def test_09_ragent_failover(self):
        text = """
[config]
min_cluster = 2
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net2 as2 us na
a5 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a2 obj2 sensor k2 02
1000 search c1 a4 exact sensor
5000 crash r1
12000 search c1 a4 exact sensor
"""
        res = run_scenario(parse_scenario(text))
        recs = {r["id"]: r for c in res.clients.values() for r in c.completions}
        before = sorted(o.id for o in recs["q0003"]["objects"])
        after = sorted(o.id for o in recs["q0004"]["objects"])
        promotions = [e for e in res.sim.member_events if e[1] == "promote"]
        ok = (before == after and len(before) == 2 and len(promotions) == 1
              and res.issues == [])
        promoted = promotions[0][3]
        for node in res.sim.nodes.values():
            if isinstance(node, LusNode):
                if promoted not in node.registry or NodeId("r1") in node.registry:
                    ok = False
        new_r = res.sim.nodes[promoted]
        # any number of concurrent vote initiators settle on the minimum
        if new_r.secondary != min(new_r.members):
            ok = False
        assert report(9, "super-peer failover: same results, registry updated", ok)

    def test_10_update_consistency(self):
        nodes = [NodeDecl("r0", Role.RAGENT, loc(0)),
                 NodeDecl("c0", Role.CLIENT, loc(0))]
        nodes += [NodeDecl(f"a{j}", Role.AGENT, loc(0)) for j in range(10)]
        events = [InsertEvent(1, "c0", "a0", "hot", "sensor", (), b"v0")]
        events += [UpdateEvent(1000, "c0", f"a{i % 10}", "hot",
                               i.to_bytes(2, "big")) for i in range(50)]
        sc = Scenario(config=quiet_config(drain_ms=30_000), nodes=nodes,
                      events=events)
        res = run_scenario(sc)
        recs = [r for r in res.clients["c0"].completions if r["op"] == "update"]
        versions = sorted(r["version"] for r in recs)
        ok = versions == list(range(1, 51))
        ok = ok and all(r["outcome"] == "ok" and r["progress"] >= 1 for r in recs)
        r0 = res.sim.nodes[NodeId("r0")]
        oid = res.labels["hot"].id
        stored = [res.sim.nodes[h].store[oid] for h in r0.catalogue.holders_of(oid)]
        ok = ok and len({(o.version, o.payload) for o in stored}) == 1
        ok = ok and stored[0].version == 50
        for h in r0.catalogue.holders_of(oid):
            hist = res.sim.nodes[h].history[oid]
            if hist != list(range(hist[0], hist[-1] + 1)):
                ok = False
        assert report(10, "50 concurrent updates: gapless versions, identical replicas", ok)

    def test_11_hot_object_migration(self):
        text = """
[config]
min_cluster = 2
migration_threshold = 3
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net2 as2 us na
a4 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 deadbeef
1000 search_first c1 a3 exact sensor
2000 search_first c1 a3 exact sensor
3000 search_first c1 a3 exact sensor
8000 search_first c1 a3 exact sensor
"""
        res = run_scenario(parse_scenario(text), trace=True)
        assert res.sim.tracing, "an absent message proves nothing in an untraced run"
        ragents = {"r1", "r2"}
        at_ragents = [r for r in res.sim.trace
                      if r.kind == "deliver" and r.node in ragents
                      and ":q0005:" in f":{r.detail}:"]
        inter = [r for r in at_ragents if r.detail.rsplit(":", 1)[1] in ragents]
        oid = res.labels["obj1"].id
        r2 = res.sim.nodes[NodeId("r2")]
        ok = (res.issues == [] and oid in r2.catalogue and at_ragents != [] and inter == []
              and len([e for e in res.sim.member_events if e[1] == "migrate_in"]) == 1)
        rec = [r for r in res.clients["c1"].completions if r["id"] == "q0005"][0]
        ok = ok and rec["clusters"] == 1 and len(rec["objects"]) == 1
        assert report(11, "post-migration search needs no inter-cluster messages", ok)

    def test_12_determinism(self):
        text = """
[config]
min_cluster = 2
max_cluster = 6
drain_ms = 15000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net2 as2 us na
a5 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1,k2 01
200 insert c1 a2 obj2 camera k1 02
1000 search c1 a4 pattern k1
2000 update c1 a5 obj1 beef
5000 crash r1
12000 search c1 a4 exact camera
13000 rejoin r1
14000 join a9 net1 as1 ro eu
"""
        r1 = run_scenario(parse_scenario(text), trace=True)
        r2 = run_scenario(parse_scenario(text), trace=True)
        m1 = "\n".join(r1.metrics_lines()).encode()
        m2 = "\n".join(r2.metrics_lines()).encode()
        t1 = "\n".join(r1.sim.trace_lines()).encode()
        t2 = "\n".join(r2.sim.trace_lines()).encode()
        ok = m1 == m2 and t1 != b"" and t1 == t2
        assert report(12, "identical scenario gives byte-identical metrics and trace", ok)


def check_replication(result, dead=(), ignore=()):
    """Every tracked object must sit in exactly one live catalogue with
    two live holders (owner first) whose stores really contain it."""
    sim = result.sim
    problems = []
    live = [n for n in sim.nodes.values()
            if isinstance(n, RAgentNode) and sim.is_alive(n.node_id)]
    for label, obj in sorted(result.labels.items()):
        if obj.id in ignore:
            continue
        homes = [r for r in live if obj.id in r.catalogue]
        if len(homes) != 1:
            problems.append(f"{label}: in {len(homes)} catalogues")
            continue
        holders = homes[0].catalogue.holders_of(obj.id)
        if len(holders) != 2 or len(set(holders)) != 2:
            problems.append(f"{label}: holders {holders}")
            continue
        for h in holders:
            if h in dead or not sim.is_alive(h):
                problems.append(f"{label}: dead holder {h}")
            elif obj.id not in sim.nodes[h].store:
                problems.append(f"{label}: {h} missing bytes")
    return problems
