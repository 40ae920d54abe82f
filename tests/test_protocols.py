"""End-to-end protocol behavior, driven through complete scenarios:
placement, search, update consistency, delegation, migration, failover
and cluster reconfiguration."""
import ast
import copy
import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest

from disthash import nodes
from disthash.catalogue import MetaCatalogue
from disthash.core import (KeyKind, LocalityDescriptor, NodeId, PatternKey, Role,
                           make_object)
from disthash.nodes import (AGENT_HEARTBEAT, AGENT_HEARTBEAT_RESYNC,
                            AgentHeartbeat, AgentNode, ApplyMissing,
                            AssumeRAgent, BaseNode, CatalogueSync, CInsert,
                            ClientNode, CopyDone, CopyFailed, CopyReplica,
                            CRead, CSearch, DelegateInsert, FetchObjects,
                            FetchReply, ForwardUpdate, LusNode, MigrateDenied,
                            MigrateRequest,
                            OwnerQuery, OwnerQueryReply, PeerHeartbeat,
                            RAgentHeartbeat, RAgentNode, RemoteSearch,
                            RemoteSearchReply, UpdateRetry)
from disthash.runner import (build_simulation, check_invariants, run_scenario,
                             schedule_events)
from disthash.scenario import JoinEvent, parse_scenario
from disthash.sim import MS, NetworkModel, Simulator, StepCounter
from test_acceptance import opened_tallies, random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def build(text, trace=False):
    return run_scenario(parse_scenario(text), trace)


def ragent(res, name):
    node = res.sim.nodes[NodeId(name)]
    assert isinstance(node, RAgentNode)
    return node


def completions(res):
    out = {}
    for client in res.clients.values():
        for rec in client.completions:
            out[rec["id"]] = rec
    return out


def deliveries(res, msg_name, rid=None):
    assert res.sim.tracing, "an untraced run has no deliveries to look at"
    hits = []
    for r in res.sim.trace:
        if r.kind != "deliver" or not r.detail.startswith(msg_name + ":"):
            continue
        if rid is None or r.detail.split(":")[1] == rid:
            hits.append(r)
    return hits


ONE_CLUSTER = """
[config]
min_cluster = 2
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1,k2 deadbeef
600 search c1 a2 exact sensor
700 search_first c1 a3 pattern k1
800 read c1 obj1
"""


def test_insert_places_two_replicas_owner_first():
    res = build(ONE_CLUSTER)
    assert res.issues == []
    r1 = ragent(res, "r1")
    oid = res.labels["obj1"].id
    holders = r1.catalogue.holders_of(oid)
    assert len(holders) == 2 and r1.catalogue.owner_of(oid) == holders[0]
    for h in holders:
        assert res.sim.nodes[h].store[oid].payload == b"\xde\xad\xbe\xef"


def test_search_read_roundtrip():
    res = build(ONE_CLUSTER, trace=True)
    recs = completions(res)
    oid = res.labels["obj1"].id
    assert [o.id for o in recs["q0002"]["objects"]] == [oid]
    assert [o.id for o in recs["q0003"]["objects"]] == [oid]
    # the read goes straight to the holder learned from the search
    read = recs["q0004"]
    assert read["outcome"] == "ok" and read["objects"][0].id == oid
    assert read["messages"] == 2
    touched = {r.node for r in res.sim.trace
               if r.kind == "deliver" and ":q0004:" in r.detail + ":"}
    assert "c1" in touched and "r1" not in touched


def test_read_without_known_holder():
    sc = parse_scenario(ONE_CLUSTER)
    # a read scheduled before any search: the client knows no holder
    sc.events = [sc.events[0]] + [sc.events[-1]]
    sc.events[-1].time_ms = 500
    res = run_scenario(sc)
    assert completions(res)["q0002"]["outcome"] == "no_holder"
    assert res.clients["c1"].pending == {} and res.issues == []


def test_duplicate_insert_reported():
    text = ONE_CLUSTER.replace(
        "600 search c1 a2 exact sensor",
        "600 insert c1 a2 obj9 sensor k1,k2 deadbeef")
    res = build(text)
    assert completions(res)["q0002"]["outcome"] == "duplicate"


def test_an_agent_answers_an_op_it_cannot_relay_with_its_kind():
    # a9 has not joined yet; after r1 dies, a2 still relays to r1
    text = ONE_CLUSTER[:ONE_CLUSTER.index("[events]")] + """[events]
100 insert c1 a1 obj1 sensor k1,k2 deadbeef
400 join a9 net1 as1 ro eu
401 search_first c1 a9 exact sensor
402 insert c1 a9 obj2 sensor k1 02
403 update c1 a9 obj1 beef
500 crash r1
600 search_first c1 a2 exact sensor
601 search c1 a2 exact sensor
602 insert c1 a2 obj3 sensor k1 03
603 update c1 a2 obj1 beef
"""
    recs = sorted(completions(build(text)).items())[1:]
    assert [(r["op"], r["outcome"], r["hops"]) for _, r in recs] == [
        ("search_first", "no_ragent", 0), ("insert", "no_ragent", 0),
        ("update", "no_ragent", 0), ("search_first", "ragent_down", 3),
        ("search", "ragent_down", 3), ("insert", "ragent_down", 3),
        ("update", "ragent_down", 3)]


def test_insert_needs_two_agents():
    text = """
[config]
min_cluster = 1
max_cluster = 4
drain_ms = 2000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor - -
"""
    res = build(text)
    assert completions(res)["q0001"]["outcome"] == "insufficient_agents"


TWO_CLUSTERS = """
[config]
min_cluster = 2
delegation_factor = 0
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
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a2 obj2 sensor k1,k2 02
300 insert c1 a3 obj3 camera k1 03
400 insert c1 a4 obj4 camera k9 04
1500 search c1 a1 pattern k1
1600 search c1 a1 exact camera
1700 search c1 a1 pattern nothing
1800 search_first c1 a2 exact camera
"""


def test_search_all_matches_brute_force_scan():
    res = build(TWO_CLUSTERS)
    recs = completions(res)

    def expected(kind, key):
        out = set()
        for obj in res.labels.values():
            if (kind is KeyKind.EXACT_TYPE and obj.type_tag == key) or \
               (kind is KeyKind.PATTERN and key in obj.index_keys):
                out.add(obj.id)
        return out

    got = [o.id for o in recs["q0005"]["objects"]]
    assert set(got) == expected(KeyKind.PATTERN, "k1")
    assert len(got) == len(set(got))  # never a duplicate id
    assert set(o.id for o in recs["q0006"]["objects"]) == expected(KeyKind.EXACT_TYPE, "camera")
    assert recs["q0007"]["objects"] == () and recs["q0007"]["outcome"] == "ok"
    # first-match: one result even though the remote cluster has 2 replicas
    assert len(recs["q0008"]["objects"]) == 1
    assert recs["q0008"]["objects"][0].type_tag == "camera"


def test_local_match_sends_no_peer_traffic():
    text = TWO_CLUSTERS.replace("1800 search_first c1 a2 exact camera",
                                "1800 search_first c1 a1 exact sensor")
    res = build(text, trace=True)
    rec = completions(res)["q0008"]
    assert len(rec["objects"]) == 1 and rec["clusters"] == 1
    assert [r.node for r in deliveries(res, "CSearch", "q0008")] == ["a1", "r1"]
    assert deliveries(res, "RemoteSearch", "q0008") == []


def test_step_accounting_is_decomposable_and_bounded():
    res = build(TWO_CLUSTERS)
    for rec in completions(res).values():
        if rec["op"].startswith("search"):
            assert rec["steps"] == rec["decomposed"]
            if rec["bound_applicable"]:
                assert rec["steps"] <= rec["bound"]


def test_the_origin_merges_remote_search_all_answers_once():
    """A remote cluster answers a search-all with its objects as fetched;
    the origin's one merge keeps the first-arrived copy of each id and
    sorts. A remote search-first answer is still merged before it goes."""
    res = staged(TWO_CLUSTERS)
    sim = res.sim
    sim.run_until(50 * MS)
    r1, r2 = ragent(res, "r1"), ragent(res, "r2")
    o1, o2, o3 = sorted((make_object("sensor", ("k1",), bytes([i])) for i in range(3)),
                        key=lambda o: o.id)
    o1_new = o1.with_payload(b"new", 1)
    criterion = PatternKey(KeyKind.PATTERN, "k1")
    log = spy_sends(sim)

    # at a remote cluster: search-all as fetched, search-first merged
    for rid, mode in (("qa", "all"), ("qf", "first")):
        r2.searches[rid] = nodes.SearchState(
            mode=mode, criterion=criterion, remote_origin=r1.node_id,
            results=[o3, o1, o2, o1_new])
        r2._maybe_finish_search(sim, rid)
    answers = {msg.request_id: msg.objects for src, dst, msg, _ in log
               if isinstance(msg, RemoteSearchReply)}
    assert answers == {"qa": (o3, o1, o2, o1_new), "qf": (o1, o2, o3)}

    # at the origin: two answers out of id order, o1 in both, newer second
    r1.searches["qx"] = nodes.SearchState(
        mode="all", criterion=criterion, route=(NodeId("c1"),),
        awaiting_peers={r2.node_id: 1, NodeId("r3"): 1})
    r1.on_message(sim, RemoteSearchReply(request_id="qx", objects=(o3, o1), hop=2),
                  r2.node_id)
    assert "qx" in r1.searches
    r1.on_message(sim, RemoteSearchReply(request_id="qx", objects=(o1_new, o2, o3),
                                         hop=2), NodeId("r3"))
    assert "qx" not in r1.searches
    sim.run_until(60 * MS)
    rec = completions(res)["qx"]
    assert rec["outcome"] == "ok" and rec["results"] == 3
    assert rec["objects"] == (o1, o2, o3)  # o1 as first arrived, not o1_new


def test_fetch_requests_batched_per_holder():
    with opened_tallies() as tallies:
        build(TWO_CLUSTERS)
    assert tallies
    for tally in tallies.values():
        assert tally.fetch_requests <= max(1, len(tally.agents_contacted))


# r1 and r2 share a network, r3 is on another continent: r2 answers a
# search-first that misses at r1 and the client has it 30 ms after r1
# asks its peers, before r3 receives the ask at 45 ms
FAR_PEER = """
[config]
min_cluster = 2
delegation_factor = 0
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net1 as1 ro eu
r3 ragent net3 as3 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net3 as3 us na
a6 agent net3 as3 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a2 obj1 camera k1 01
200 insert c1 a5 obj2 sensor k2 02
1500 search_first c1 a1 exact camera
"""


def test_a_peer_asked_after_the_search_was_settled_charges_a_tally_not_kept(monkeypatch):
    opened = []
    tally = StepCounter.tally

    def spy(self, request_id, cluster):
        t = tally(self, request_id, cluster)
        opened.append((request_id, cluster, request_id in self.settled, t))
        return t

    monkeypatch.setattr(StepCounter, "tally", spy)
    res = build(FAR_PEER, trace=True)
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["results"], rec["clusters"]) == ("ok", 1, 2)
    [settled_at] = [r.time for r in deliveries(res, "OpReply", "q0003") if r.node == "c1"]
    [asked_at] = [r.time for r in deliveries(res, "RemoteSearch", "q0003") if r.node == "r3"]
    assert settled_at < asked_at
    late = [(cluster, t) for rid, cluster, was_settled, t in opened
            if rid == "q0003" and was_settled]
    assert [cluster for cluster, _ in late] == ["r3"]
    assert late[0][1].key_steps > 0 and late[0][1].measured > 0  # charged
    assert res.sim.steps.requests == {}  # and not kept


@pytest.mark.parametrize("source",
                         [pytest.param(p, id=p.name) for p in sorted(SCENARIOS.glob("*.txt"))]
                         + [pytest.param(s, id=f"random_scenario({s})") for s in range(5)])
def test_fetch_requests_list_their_ids_in_ascending_order(source):
    # ``_fetch_groups`` relies on this instead of sorting each batch
    sc = parse_scenario(source.read_text()) if isinstance(source, Path) else random_scenario(source)
    res = build_simulation(sc)
    schedule_events(res)
    sent = []
    send = res.sim.send

    def spy(src, dst, msg):
        if isinstance(msg, FetchObjects):
            sent.append(msg.ids)
        send(src, dst, msg)

    res.sim.send = spy
    finish(res)
    assert sent
    for ids in sent:
        assert all(x < y for x, y in zip(ids, ids[1:])), ids


def test_a_search_charges_the_one_tally_of_its_request_and_cluster(monkeypatch):
    """After each ``_search`` the search state holds the tally the step
    counter keeps for (request, cluster), and a merge target that looks
    its in-flight searches up again charges that same tally."""
    searched, relooked = [], []

    def assert_kept(sim, rid, cluster, tally):
        # a search the client has settled keeps no tally: a peer asked
        # after that charges one the counter does not keep
        if rid in sim.steps.settled:
            assert rid not in sim.steps.requests
        else:
            assert tally is sim.steps.requests[rid][cluster]

    def spy_search(self, sim, rid, st, fan_out):
        search(self, sim, rid, st, fan_out)
        assert_kept(sim, rid, self.node_id, st.tally)
        searched.append((rid, self.node_id))

    def spy_merge(self, sim, msg, src):
        before = {rid: (st, st.tally, st.tally.key_steps)
                  for rid, st in self.searches.items() if st.holder is None}
        merge(self, sim, msg, src)
        for rid, (st, tally, key_steps) in before.items():
            assert st.tally is tally
            assert_kept(sim, rid, self.node_id, tally)
            assert tally.key_steps > key_steps
            relooked.append(rid)

    search, merge = RAgentNode._search, RAgentNode._on["MergeRequest"]
    monkeypatch.setattr(RAgentNode, "_search", spy_search)
    monkeypatch.setitem(RAgentNode._on, "MergeRequest", spy_merge)
    texts = [p.read_text() for p in sorted(SCENARIOS.glob("*.txt"))]
    texts += [v for v in globals().values() if isinstance(v, str) and "[nodes]" in v]
    texts.append(with_events(SEARCH_ACROSS_A_MERGE, "3000 search c1 d2 exact sensor"))
    for text in texts:
        build(text)
    assert searched and relooked
    # a re-ask reaches a cluster that searched the request before
    assert len(searched) > len(set(searched))


def test_update_bumps_version_on_every_replica():
    text = ONE_CLUSTER + "900 update c1 a2 obj1 beef\n"
    res = build(text)
    rec = completions(res)["q0005"]
    assert rec["outcome"] == "ok" and rec["version"] == 1
    assert rec["progress"] >= 1
    r1 = ragent(res, "r1")
    oid = res.labels["obj1"].id
    stored = [res.sim.nodes[h].store[oid] for h in r1.catalogue.holders_of(oid)]
    assert all(o.version == 1 and o.payload == b"\xbe\xef" for o in stored)
    for h in r1.catalogue.holders_of(oid):
        history = res.sim.nodes[h].history[oid]
        assert history == list(range(history[0], history[-1] + 1))  # gapless


def test_concurrent_updates_serialize_gaplessly():
    text = ONE_CLUSTER + """900 update c1 a2 obj1 aa
900 update c1 a3 obj1 bb
900 update c1 a1 obj1 cc
"""
    res = build(text)
    recs = completions(res)
    versions = sorted(recs[f"q{i:04d}"]["version"] for i in (5, 6, 7))
    assert versions == [1, 2, 3]
    assert all(recs[f"q{i:04d}"]["progress"] >= 1 for i in (5, 6, 7))
    r1 = ragent(res, "r1")
    oid = res.labels["obj1"].id
    stored = [res.sim.nodes[h].store[oid] for h in r1.catalogue.holders_of(oid)]
    assert len({(o.version, o.payload) for o in stored}) == 1
    assert stored[0].version == 3


def test_update_unknown_object():
    sc = parse_scenario(ONE_CLUSTER)
    sc.events = sc.events[:1]
    res = build_simulation(sc)
    schedule_events(res)
    ghost = make_object("nowhere", (), b"zz")
    res.sim.set_timer(res.clients["c1"].node_id, "op", 500 * MS, {
        "request_id": "qx", "kind": "update", "agent": NodeId("a1"),
        "oid": ghost.id, "payload": b"p"})
    res.sim.run_until(5000 * MS)
    rec = [r for r in res.sim.op_records if r["id"] == "qx"][0]
    assert rec["outcome"] == "unknown_object"


def test_remote_update_resolves_owner():
    text = TWO_CLUSTERS + "2000 update c1 a4 obj1 beef\n"
    res = build(text)
    rec = completions(res)["q0009"]
    assert rec["outcome"] == "ok" and rec["version"] == 1
    r1 = ragent(res, "r1")
    oid = res.labels["obj1"].id
    for h in r1.catalogue.holders_of(oid):
        assert res.sim.nodes[h].store[oid].payload == b"\xbe\xef"


DELEGATION = """
[config]
min_cluster = 2
delegation_factor = 2.0
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
100 insert c1 a1 obj1 sensor - 01
1500 insert c1 a1 obj2 sensor - 02
"""


def test_insert_delegated_to_smaller_cluster():
    res = build(DELEGATION)
    assert res.issues == []
    # first insert lands locally; by the second, r1 is at twice the mean
    # catalogue size, so the insert is delegated to the emptier peer
    assert res.labels["obj1"].id in ragent(res, "r1").catalogue
    assert res.labels["obj2"].id in ragent(res, "r2").catalogue
    assert completions(res)["q0002"]["outcome"] == "ok"


MIGRATION = """
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


def test_hot_object_migrates_after_threshold():
    res = build(MIGRATION, trace=True)
    assert res.issues == []
    oid = res.labels["obj1"].id
    events = [e for e in res.sim.member_events if e[1] in ("migrate_in", "migrate_out")]
    assert {e[1] for e in events} == {"migrate_in", "migrate_out"}
    for e in events:
        assert re.match(rf"object={oid.hex()[:12]}( |$)", e[4])
    r2 = ragent(res, "r2")
    assert oid in r2.catalogue and oid not in ragent(res, "r1").catalogue
    # payload and version survive the move byte for byte
    for h in r2.catalogue.holders_of(oid):
        moved = res.sim.nodes[h].store[oid]
        assert moved.payload == b"\xde\xad\xbe\xef" and moved.version == 0
    # the post-migration search resolves without leaving the cluster
    rec = completions(res)["q0005"]
    assert rec["clusters"] == 1
    assert [r.node for r in deliveries(res, "CSearch", "q0005")] == ["a3", "r2"]
    assert deliveries(res, "RemoteSearch", "q0005") == []


# the update reaches r1 while the migration to r2 holds obj1's lock
MIGRATION_UPDATE = MIGRATION.replace("8000 search_first",
                                     "3050 update c1 a3 obj1 cafe\n8000 search_first")


def test_update_forwarded_into_a_migration_is_retried_where_the_object_went():
    # once the object has left, r1 hands the update back to r2, the
    # cluster it came from, which now owns the object
    res = build(MIGRATION_UPDATE, trace=True)
    assert res.issues == []
    assert [r.node for r in deliveries(res, "UpdateRetry", "q0005")] == ["r2"]
    rec = completions(res)["q0005"]
    assert (rec["outcome"], rec["version"], rec["progress"], rec["hops"]) == ("ok", 1, 1, 8)
    oid = res.labels["obj1"].id
    holders = ragent(res, "r2").catalogue.holders_of(oid)
    assert [res.sim.nodes[h].store[oid].payload for h in holders] == [b"\xca\xfe"] * 2


def test_below_threshold_no_migration():
    sc = parse_scenario(MIGRATION)
    sc.events = sc.events[:3]  # only two remote first-matches
    res = run_scenario(sc)
    assert all(e[1] not in ("migrate_in", "migrate_out")
               for e in res.sim.member_events)
    assert res.labels["obj1"].id in ragent(res, "r1").catalogue


def test_a_migration_the_requester_cannot_place_leaves_the_object_home():
    # r2 has one agent, too few for two replicas: it refuses the object,
    # and r1 keeps it and unlocks it
    res = build(MIGRATION.replace("min_cluster = 2", "min_cluster = 1")
                .replace("a4 agent net2 as2 us na\n", "")
                .replace("8000 search_first c1 a3", "8000 search c1 a1"))
    assert res.issues == [] and res.sim.loss_records == []
    oid = res.labels["obj1"].id
    r1, r2 = ragent(res, "r1"), ragent(res, "r2")
    assert oid in r1.catalogue and oid not in r2.catalogue
    for h in r1.catalogue.holders_of(oid):
        assert res.sim.nodes[h].store[oid].payload == b"\xde\xad\xbe\xef"
    assert not r1.locks.is_locked(oid) and r1.out_migrations == {}
    assert r2.in_migrations == {} and oid not in r2.hot.counts
    assert all(e[1] not in ("migrate_in", "migrate_out") for e in res.sim.member_events)
    rec = completions(res)["q0005"]
    assert (rec["outcome"], [o.id for o in rec["objects"]]) == ("ok", [oid])


def test_a_migration_whose_requester_dies_leaves_the_object_home_and_unlocked():
    # r2 crashes while r1 exports obj1 to it: the MigrateTransfer bounces,
    # and r1 must forget the export and free the lock so a later update runs
    res = build(MIGRATION.replace("8000 search_first", "3220 crash r2\n8000 search_first")
                + "9000 update c1 a1 obj1 beef\n")
    assert res.issues == []
    assert completions(res)["q0006"]["outcome"] == "ok"
    oid = res.labels["obj1"].id
    r1 = ragent(res, "r1")
    assert r1.out_migrations == {} and not r1.locks.is_locked(oid)
    assert oid in r1.catalogue and len(r1.catalogue.holders_of(oid)) == 2


def test_a_denied_migration_is_forgotten_and_its_tally_reset():
    # the owner and its second holder die while r1 exports the hot object:
    # r1 denies, and with no cluster left owning it r2 has nothing to retry
    res = build("""
[config]
min_cluster = 1
migration_threshold = 3
drain_ms = 3000
expect_loss = true

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
a3 agent net2 as2 us na
a4 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 deadbeef
1000 search_first c1 a3 exact sensor
2000 search_first c1 a3 exact sensor
2900 search_first c1 a3 exact sensor
3005 crash a1
3005 crash a2
""", trace=True)
    assert res.issues == []
    oid = res.labels["obj1"].id
    assert [(d[1], d[2]) for d in res.sim.loss_records] == [(oid, "all-holders-gone")]
    assert [r.node for r in deliveries(res, "MigrateDenied")] == ["r2"]
    r2 = ragent(res, "r2")
    assert r2.in_migrations == {} and oid not in r2.hot.counts


# -- a forward to a cluster that died ---------------------------------------

BOUNCE = """
[config]
min_cluster = 2
delegation_factor = 2.0
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net2 as2 us na
a4 agent net2 as2 us na
a5 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
"""


@pytest.mark.parametrize("bounced,text,rid,outcome", [
    # r1 delegates the insert to the emptier r2, which has just died
    ("DelegateInsert", BOUNCE + "100 insert c1 a1 obj1 sensor - 01\n"
     "1000 crash r2\n1001 insert c1 a1 obj2 sensor - 02\n", "q0002", "ok"),
    # r2 answers r1's owner query for obj1, then dies
    ("ForwardUpdate", BOUNCE + "100 insert c1 a3 obj1 sensor - 01\n"
     "1000 update c1 a1 obj1 beef\n1120 crash r2\n", "q0002", "ragent_down"),
    # r2, where the update came from, dies once obj1 has migrated to it
    ("UpdateRetry", MIGRATION.replace("8000 search_first", "3050 update c1 a3 obj1 cafe\n"
                                      "3320 crash r2\n8000 search_first"),
     "q0005", "ragent_down"),
], ids=["DelegateInsert", "ForwardUpdate", "UpdateRetry"])
def test_a_bounced_forward_gives_its_op_one_outcome(bounced, text, rid, outcome):
    res = build(text, trace=True)
    assert [(r.node, r.kind) for r in res.sim.trace
            if r.msg_type == bounced and r.request_id == rid] == [("r2", "drop")]
    assert [rec["outcome"] for rec in res.ops if rec["id"] == rid] == [outcome]
    assert res.issues == []
    if bounced == "DelegateInsert":
        assert res.labels["obj2"].id in ragent(res, "r1").catalogue


@pytest.mark.parametrize("ops,bounced,results,progress", [
    # a2 relays the search to r1, then dies before r1's answer reaches it
    ("600 search c1 a2 exact sensor\n606 crash a2\n", ["OpReply"], 1, 0),
    # a2 relays the update, then dies before the lock note and the answer
    ("900 update c1 a2 obj1 beef\n906 crash a2\n", ["ProgressNote", "OpReply"], 0, 1),
], ids=["search", "update"])
def test_a_reply_bounced_off_a_dead_relay_still_reaches_its_client(ops, bounced, results, progress):
    res = build(ONE_CLUSTER.split("600 search")[0] + ops, trace=True)
    assert [(r.node, r.msg_type) for r in res.sim.trace
            if r.request_id == "q0002" and r.kind == "drop"] == [("a2", t) for t in bounced]
    assert [(rec["outcome"], rec["results"], rec["progress"]) for rec in res.ops
            if rec["id"] == "q0002"] == [("ok", results, progress)]
    assert res.issues == []


# a1 relays c1's update to r1 from another continent, then is down when
# the lock note reaches it and back up for the answer: the note bounces
# and goes straight to c1, slower than the answer through a1
LATE_NOTE = """
[config]
min_cluster = 2
delegation_factor = 0
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net9 as9 us na
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
c1 client net9 as9 us na

[events]
100 insert c1 a2 obj0 sensor k1 00
150 insert c1 a2 obj1 sensor k1 01
1000 update c1 a1 obj1 ff
1060 crash a1
1100 rejoin a1
"""


def test_a_progress_note_that_arrives_after_its_reply_is_not_kept():
    res = build(LATE_NOTE, trace=True)
    assert [(r.msg_type, r.kind) for r in res.sim.trace
            if r.request_id == "q0003" and r.node == "c1"] == [
        ("OpReply", "deliver"), ("ProgressNote", "deliver")]
    assert [rec["outcome"] for rec in res.ops if rec["id"] == "q0003"] == ["ok"]
    assert res.clients["c1"].progress == {}


def test_a_quiescent_run_reports_what_is_still_in_flight():
    res = build(ONE_CLUSTER)
    assert res.issues == []
    r1 = ragent(res, "r1")
    res.clients["c1"].pending["q9"] = {"kind": "search"}
    for name in ("searches", "resolutions", "updates", "out_migrations",
                 "in_migrations", "pending_copies"):
        getattr(r1, name)["x"] = None
    r1.locks.acquire(res.labels["obj1"].id, None)
    assert check_invariants(res) == [
        "r1: 1 searches left over", "r1: 1 resolutions left over",
        "r1: 1 updates left over", "r1: 1 out_migrations left over",
        "r1: 1 in_migrations left over", "r1: 1 pending_copies left over",
        "r1: 1 object locks held",
        "c1: op q9 never completed"]


FAILOVER = (SCENARIOS / "failover.txt").read_text()


def test_ragent_failover_preserves_search_results():
    res = build(FAILOVER)
    assert res.issues == []
    recs = completions(res)
    before = sorted(o.id for o in recs["q0003"]["objects"])
    after = sorted(o.id for o in recs["q0004"]["objects"])
    assert before == after and len(before) == 2
    promotions = [e for e in res.sim.member_events if e[1] == "promote"]
    assert len(promotions) == 1
    promoted = promotions[0][3]
    # the registry follows the promotion
    for node in res.sim.nodes.values():
        if isinstance(node, LusNode):
            assert promoted in node.registry
            assert NodeId("r1") not in node.registry
    new_r = res.sim.nodes[promoted]
    assert isinstance(new_r, RAgentNode)
    # concurrent suspicion reports converge on the deterministic minimum
    assert new_r.secondary == min(new_r.members)
    for m in sorted(new_r.members):
        assert res.sim.nodes[m].secondary_id == new_r.secondary


def test_ragent_and_secondary_lost_together():
    res = build("""
[config]
min_cluster = 2
drain_ms = 8000
expect_loss = true

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a2 obj1 sensor k1 01
2000 crash r1
2000 crash a1
""")
    lost = [e for e in res.sim.member_events if e[1] == "cluster_lost"]
    assert len(lost) == 1 and lost[0][2] == NodeId("r1")


def test_agent_crash_self_heals_and_rejoin_starts_clean():
    res = build("""
[config]
min_cluster = 2
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a1 obj2 camera k2 02
300 insert c1 a1 obj3 drone k3 03
2000 crash a2
12000 rejoin a2
""")
    assert res.issues == []
    assert res.sim.loss_records == []
    r1 = ragent(res, "r1")
    for obj in res.labels.values():
        holders = r1.catalogue.holders_of(obj.id)
        assert len(holders) == 2 and len(set(holders)) == 2
        assert NodeId("a2") not in holders or res.sim.nodes[NodeId("a2")].store.get(obj.id)
    rejoined = res.sim.nodes[NodeId("a2")]
    assert isinstance(rejoined, AgentNode) and rejoined.joined
    assert NodeId("a2") in r1.members


SPLIT_MERGE = (SCENARIOS / "split_merge.txt").read_text()


def test_split_and_merge_conserve_entries():
    res = build(SPLIT_MERGE)
    assert res.issues == []
    splits = [e for e in res.sim.member_events if e[1] == "split"]
    merges = [e for e in res.sim.member_events if e[1] == "merge"]
    assert splits and merges
    for e in splits:
        # detail: entries=T->K+M keep=.. move=..
        part = e[4].split()[0].split("=", 1)[1]
        total, halves = part.split("->")
        k, m = halves.split("+")
        assert int(total) == int(k) + int(m)
    for e in merges:
        part = e[4].split()[0].split("=", 1)[1]  # entries=a+b=c
        ab, c = part.rsplit("=", 1)
        a, b = ab.split("+")
        assert int(a) + int(b) == int(c)
    # all objects still present exactly once across live catalogues
    live = [n for n in res.sim.nodes.values()
            if isinstance(n, RAgentNode) and res.sim.is_alive(n.node_id)]
    for obj in res.labels.values():
        assert sum(obj.id in r.catalogue for r in live) == 1


BELOW_MIN = """
[config]
min_cluster = 3
max_cluster = 10
drain_ms = 15000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
a6 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
3000 crash a1
"""


def test_a_cluster_that_drops_below_min_merges_into_its_peer():
    res = build(BELOW_MIN)
    # losing a1 puts its cluster below min; it merges into the peer and
    # the system settles healthy
    assert res.issues == []
    merges = [e for e in res.sim.member_events if e[1] == "merge"]
    assert merges


def test_run_twice_identical_output():
    sc_text = TWO_CLUSTERS + "2000 crash a3\n"
    r1 = build(sc_text, trace=True)
    r2 = build(sc_text, trace=True)
    assert r1.metrics_lines() == r2.metrics_lines()
    trace = r1.sim.trace_lines()
    assert trace and trace == r2.sim.trace_lines()


# -- secondary log shipping ------------------------------------------------

BURST_NODES = """
[config]
min_cluster = 2
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
"""


def burst(*faults):
    """30 inserts 10 ms apart from 100 ms (op ``q{i+1}`` inserts ``o{i}``),
    interleaved with the given fault event lines."""
    lines = [f"{100 + 10 * i} insert c1 a{2 + i % 3} o{i} t{i % 4} k{i % 3} {i:02x}"
             for i in range(30)] + list(faults)
    lines.sort(key=lambda line: int(line.split()[0]))
    return BURST_NODES + "\n".join(lines) + "\n"


def staged(text, trace=False):
    res = build_simulation(parse_scenario(text), trace)
    schedule_events(res)
    return res


def finish(res):
    sc = res.scenario
    last = max(ev.time_ms for ev in sc.events)
    res.sim.run_until((last + sc.config.drain_ms) * MS)
    res.issues = check_invariants(res)
    return res


def spy_outgoing(sim, seen):
    """Call ``seen(src, dst, msg)`` for every destination of every send
    and multicast, before the engine queues it; the message goes on to
    the network only where ``seen`` returns a true value."""
    send, multicast = sim.send, sim.multicast

    def spy_send(src, dst, msg):
        if seen(src, dst, msg):
            send(src, dst, msg)

    def spy_multicast(src, dsts, msg):
        dsts = tuple(dsts)
        if all([seen(src, d, msg) for d in dsts]):
            multicast(src, dsts, msg)

    sim.send, sim.multicast = spy_send, spy_multicast


def spy_sends(sim, drop=lambda msg: False):
    """Log every send, one entry per destination of a multicast, as (src,
    dst, msg, sender's catalogue copy or None); sends that ``drop`` picks
    are logged but never reach the network."""
    log = []

    def seen(src, dst, msg):
        node = sim.nodes[src]
        cat = node.catalogue.copy() if isinstance(node, RAgentNode) else None
        log.append((src, dst, msg, cat))
        return not drop(msg)

    spy_outgoing(sim, seen)
    return log


def syncs(log, src=None, dst=None):
    return [(m, cat) for s, d, m, cat in log if isinstance(m, CatalogueSync)
            and src in (None, s) and dst in (None, d)]


def assert_chained(batches):
    """Sequence numbers run on without a gap from batch to batch."""
    for prev, cur in zip(batches, batches[1:]):
        assert cur.base == prev.seq and cur.seq == cur.base + 1


def test_primary_crash_mid_burst_promotes_last_synced_catalogue():
    res = staged(burst("250 crash r1"))
    sim = res.sim
    r1 = ragent(res, "r1")
    sec = r1.secondary
    log = spy_sends(sim)
    sim.run_until(1000 * MS)  # crash handled, promotion not yet due
    sent = syncs(log, src=r1.node_id)
    assert len(sent) > 5
    # set-up handed over the first snapshot, so every runtime sync is a
    # batch, and the batches chain
    assert all(m.snapshot is None for m, _ in sent)
    assert_chained([m for m, _ in sent])
    assert sim.nodes[sec].sync_catalogue == sent[-1][1]
    finish(res)
    assert res.issues == []
    promoted = sim.nodes[sec]
    assert isinstance(promoted, RAgentNode) and sim.is_alive(sec)
    acked = [rec for rec in completions(res).values()
             if rec["op"] == "insert" and rec["outcome"] == "ok"]
    assert len(acked) > 5
    for rec in acked:
        label = f"o{int(rec['id'][1:]) - 1}"
        assert res.labels[label].id in promoted.catalogue


def test_reelected_secondary_gets_snapshot_then_batches():
    res = staged(burst("200 crash a1"))
    sim = res.sim
    r1 = ragent(res, "r1")
    assert r1.secondary == NodeId("a1")
    log = spy_sends(sim)
    sim.run_until(600 * MS)
    new = r1.secondary
    assert new not in (None, NodeId("a1"))
    sent = [m for m, _ in syncs(log, src=r1.node_id, dst=new)]
    assert sent[0].snapshot is not None
    assert len(sent) > 3 and all(m.snapshot is None for m in sent[1:])
    assert_chained(sent)
    assert sim.nodes[new].sync_catalogue == r1.catalogue
    finish(res)
    assert res.issues == []
    assert not sim.nodes[new].sync_stale


def test_lost_batch_is_flagged_and_repaired_by_snapshot():
    res = staged(burst())
    sim = res.sim
    r1 = ragent(res, "r1")
    sec = sim.nodes[r1.secondary]
    dropped = []

    def drop_fifth_batch(msg):
        if isinstance(msg, CatalogueSync) and msg.snapshot is None and msg.ops:
            dropped.append(msg)
            return len(dropped) == 5
        return False

    log = spy_sends(sim, drop_fifth_batch)
    sim.run_until(400 * MS)  # burst over; the gap was seen, not yet reported
    assert sec.sync_stale and sec.sync_catalogue != r1.catalogue
    finish(res)
    flagged = [i for i, (s, _, m, _) in enumerate(log)
               if s == sec.node_id and isinstance(m, AgentHeartbeat) and m.resync]
    assert flagged
    after = [m for _, _, m, _ in log[flagged[0]:] if isinstance(m, CatalogueSync)]
    assert after[0].snapshot is not None
    assert not sec.sync_stale
    assert res.issues == []


def test_failover_after_split_keeps_the_split_off_peer():
    res = build("""
[config]
min_cluster = 2
max_cluster = 4
drain_ms = 12000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
b1 agent net2 as2 us na
b2 agent net2 as2 us na
b3 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 b1 obj2 sensor k2 02
1000 join a6 net1 as1 ro eu
1100 join a7 net1 as1 ro eu
6000 crash r2
""")
    splits = [e for e in res.sim.member_events if e[1] == "split"]
    promotions = [e for e in res.sim.member_events if e[1] == "promote"]
    assert len(splits) == 1 and len(promotions) == 1
    split_off, promoted = splits[0][3], promotions[0][3]
    assert promoted.startswith("b")
    assert split_off in ragent(res, promoted).peers
    assert res.issues == []


# -- off-role messages and split re-homing ---------------------------------


def test_message_without_a_handler_in_this_role_is_ignored_and_traced():
    res = staged(ONE_CLUSTER, trace=True)
    sim = res.sim
    sim.run_until(50 * MS)
    a2 = sim.nodes[NodeId("a2")]
    assert isinstance(a2, AgentNode) and not hasattr(a2, "_on_PeerHeartbeat")
    before = copy.deepcopy(vars(a2))
    log = spy_sends(sim)
    timers = []
    set_timer = sim.set_timer
    sim.set_timer = lambda node, *rest: (timers.append(node), set_timer(node, *rest))
    sim.send(NodeId("r1"), a2.node_id, PeerHeartbeat(cat_size=1, member_count=3))
    sim.run_until(80 * MS)
    assert [s for s, *_ in log if s == a2.node_id] == []
    assert a2.node_id not in timers
    assert vars(a2) == before
    ignored = [r for r in sim.trace if r.kind == "ignored"]
    assert [(r.node, r.detail) for r in ignored] == [("a2", "PeerHeartbeat::r1")]
    deliver = [r for r in sim.trace if r.kind == "deliver"]
    assert sim.deliver_count == len(deliver)
    assert any(r.seq == ignored[0].seq for r in deliver)


@pytest.mark.parametrize("ask,answer", [
    (lambda oid: RemoteSearch(request_id="q9", criterion=PatternKey(KeyKind.EXACT_TYPE, "sensor"),
                              mode="all", hop=3),
     lambda oid: RemoteSearchReply(request_id="q9", objects=(), hop=4)),
    (lambda oid: OwnerQuery(request_id="q9", oid=oid, hop=3),
     lambda oid: OwnerQueryReply(request_id="q9", oid=oid, has=False, hop=4)),
    (lambda oid: MigrateRequest(request_id="r1.mig9", oid=oid, hop=3),
     lambda oid: MigrateDenied(request_id="r1.mig9", oid=oid, hop=4)),
], ids=["RemoteSearch", "OwnerQuery", "MigrateRequest"])
def test_an_agent_asked_as_a_super_peer_says_not_here_and_changes_nothing(ask, answer):
    res = staged(ONE_CLUSTER)
    sim = res.sim
    sim.run_until(50 * MS)
    a2 = sim.nodes[NodeId("a2")]
    oid = res.labels["obj1"].id
    before = copy.deepcopy(vars(a2))
    log = spy_sends(sim)
    sim.send(NodeId("r1"), a2.node_id, ask(oid))
    sim.run_until(80 * MS)
    assert [(dst, msg) for src, dst, msg, _ in log if src == a2.node_id] == [
        (NodeId("r1"), answer(oid))]
    assert isinstance(sim.nodes[a2.node_id], AgentNode) and vars(a2) == before


@pytest.mark.parametrize("make", [
    lambda obj: DelegateInsert(request_id="q9", obj=obj, route=(NodeId("c1"),), hop=3),
    lambda obj: ForwardUpdate(request_id="q9", oid=obj.id, payload=b"x",
                              route=(NodeId("r1"), NodeId("c1")), hop=3),
    lambda obj: UpdateRetry(request_id="q9", oid=obj.id, payload=b"x",
                            route=(NodeId("c1"),), hop=3),
], ids=["DelegateInsert", "ForwardUpdate", "UpdateRetry"])
def test_an_agent_passes_on_to_its_super_peer_what_was_sent_to_it_as_one(make):
    res = staged(ONE_CLUSTER)
    sim = res.sim
    sim.run_until(50 * MS)
    a2 = sim.nodes[NodeId("a2")]
    msg = make(res.labels["obj1"])
    log = spy_sends(sim)
    sim.send(NodeId("r1"), a2.node_id, msg)
    sim.run_until(80 * MS)
    assert [(dst, m) for src, dst, m, _ in log if src == a2.node_id] == [
        (NodeId("r1"), dataclasses.replace(msg, hop=4))]


def test_every_message_has_a_handler_and_every_handler_a_message():
    states = {nodes.ClusterConfig, nodes.SearchState, nodes.ResolveState, nodes.UpdateExec}
    messages = {name for name, obj in vars(nodes).items()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == nodes.__name__ and obj not in states}
    handled = set().union(*(cls._on for cls in (LusNode, AgentNode, RAgentNode, ClientNode)))
    assert handled == messages | {"SendFailed"}


def test_every_timer_tag_has_a_handler_and_every_handler_a_tag():
    source = "".join(p.read_text() for p in Path(nodes.__file__).parent.glob("*.py"))
    tags = set(re.findall(r'(?:set_timer|every)\([^,()]+,\s*"(\w+)"', source))
    ticked = set().union(*(cls._tick for cls in (LusNode, AgentNode, RAgentNode, ClientNode)))
    assert tags == ticked


# all that protocol code may read of the engine: the clock, the ways to
# send and to set timers, step accounting, the records it reports into,
# and its own node's entry in ``sim.nodes``
SIM_READS = {"clock", "send", "multicast", "set_timer", "every", "steps", "op_records",
             "record_member_event", "record_loss", "record_cluster_lost", "nodes"}


def test_protocol_code_reads_no_ground_truth():
    tree = ast.parse(Path(nodes.__file__).read_text())
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "sim"]
    assert reads and {n.attr for n in reads} <= SIM_READS
    # ``sim.nodes`` only to look up or install the node's own object
    own = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Subscript)
           and ast.unparse(n.value) == "sim.nodes" and ast.unparse(n.slice) == "self.node_id"}
    assert own and all(id(n) in own for n in reads if n.attr == "nodes")


# three lookup services; r1 crashes and its secondary a1 takes over, two
# joins split r2's cluster (a5 heads the new half), and a crash leaves
# a1's cluster below min_cluster, so a1 hands it to a5
THREE_REGISTRIES = """
[config]
min_cluster = 2
max_cluster = 4
lus_count = 3
drain_ms = 20000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent  net1 as1 ro eu
a2 agent  net1 as1 ro eu
a3 agent  net1 as1 ro eu
a4 agent  net2 as2 us na
a5 agent  net2 as2 us na
a6 agent  net2 as2 us na
c1 client net1 as1 ro eu

[events]
100   insert c1 a1 obj1 sensor k1 01
200   insert c1 a4 obj2 camera k2 02
1000  crash r1
8000  join a7 net2 as2 us na
8100  join a8 net2 as2 us na
12000 search c1 a4 exact sensor
14000 crash a3
"""


def lus_nodes(res):
    return [n for _, n in sorted(res.sim.nodes.items()) if isinstance(n, LusNode)]


def test_every_registry_is_written_by_the_super_peers_alone():
    res = build(THREE_REGISTRIES, trace=True)
    assert res.issues == []
    assert [(e[1], e[3]) for e in res.sim.member_events
            if e[1] in ("promote", "assume_ragent", "demote", "merge")] == [
        ("promote", "a1"), ("assume_ragent", "a5"), ("demote", "a1"), ("merge", "a1")]
    live = {n.node_id: len(n.members) for n in res.sim.nodes.values()
            if isinstance(n, RAgentNode) and res.sim.is_alive(n.node_id)}
    assert sorted(live) == ["a5", "r2"]
    registries = lus_nodes(res)
    assert [n.node_id for n in registries] == ["lus1", "lus2", "lus3"]
    for lus in registries:
        assert {rid: e.connected_count for rid, e in lus.registry.entries.items()} == live
    # the lookup services keep no protocol among themselves: all they
    # send is the answer to a joiner's query
    assert {r.msg_type for r in res.sim.trace if r.kind == "deliver"
            and r.src in {n.node_id for n in registries}} == {"LusQueryReply"}


def test_a_registry_that_lost_an_entry_or_holds_a_stale_count_is_reported():
    res = build(THREE_REGISTRIES)
    assert res.issues == []
    _, lus2, lus3 = lus_nodes(res)
    del lus2.registry.entries[NodeId("r2")]
    assert check_invariants(res) == ["lus2: registry wrong (missing=['r2'] extra=[])"]
    lus2.registry.register(NodeId("r2"), ragent(res, "r2").locality,
                           len(ragent(res, "r2").members))
    lus3.registry.entries[NodeId("a5")].connected_count += 1
    assert check_invariants(res) == ["lus3: stale count for a5"]


def test_each_node_objects_heartbeat_chain_runs_once_per_period(monkeypatch):
    # promotions, merge demotions and crash-rejoins replace node objects:
    # each object's hb or sweep handler must run exactly one period apart,
    # never twice at one instant, and end with exactly one firing queued
    # while the object is installed and its node up
    fired = {}
    on_timer = BaseNode.on_timer

    def spy(self, sim, tag, payload):
        if tag in ("hb", "sweep"):
            fired.setdefault((self, tag), []).append(sim.clock)
        on_timer(self, sim, tag, payload)

    monkeypatch.setattr(BaseNode, "on_timer", spy)
    runs = [parse_scenario(p.read_text()) for p in sorted(SCENARIOS.glob("*.txt"))]
    runs += [random_scenario(seed) for seed in range(20)]
    replaced = 0
    for sc in runs:
        fired.clear()
        sim = run_scenario(sc).sim
        queued = {}
        for time, bucket in sim._buckets.items():
            for ev in bucket:
                if len(ev) >= 5 and ev[3] in ("hb", "sweep"):  # a timer
                    queued.setdefault((ev[2], ev[3]), []).append(time)
        for (node, tag), times in fired.items():
            period = node.config.hb.period_us
            chain = times + sorted(queued.get((node, tag), []))
            assert all(b - a == period for a, b in zip(chain, chain[1:])), (node.node_id, tag)
            replaced += sim.nodes[node.node_id] is not node
        for node_id, node in sim.nodes.items():
            if not sim.is_alive(node_id):
                continue
            tag = ("sweep" if isinstance(node, RAgentNode)
                   else "hb" if isinstance(node, AgentNode) and node.joined else None)
            if tag is not None:
                assert len(queued.get((node, tag), [])) == 1, (node_id, tag)
        assert all(len(times) == 1 for times in queued.values())
    assert replaced >= 3  # promotion, demotion and rejoin each ended a chain


def test_client_ops_reach_the_merge_target_after_a_demotion():
    # a2 heads the split-off cluster until it merges into r1 at 24 s
    res = staged(SPLIT_MERGE, trace=True)
    sim, a2, c1 = res.sim, NodeId("a2"), NodeId("c1")
    sim.run_until(24_000 * MS)
    member = next(m for m in sorted(sim.nodes[a2].members) if sim.is_alive(m))
    while isinstance(sim.nodes[a2], RAgentNode):
        sim.run_until(sim.clock + MS)
    # straight from the client, as to the super-peer a2 was a moment ago:
    # relayed to r1 with the route through a2
    late = make_object("late", ("k9",), b"\x09")
    sim.send(c1, a2, CInsert(request_id="x1", obj=late))
    finish(res)
    assert isinstance(sim.nodes[a2], AgentNode)
    # relayed by an agent that still points at a2
    sim.send(member, a2, CSearch(
        request_id="x2", criterion=PatternKey(KeyKind.EXACT_TYPE, "sensor"),
        mode="all", route=(member, c1), hop=2))
    sim.run_until(sim.clock + 100 * MS)
    recs = completions(res)
    assert recs["x1"]["outcome"] == "ok" and late.id in ragent(res, "r1").catalogue
    assert recs["x2"]["outcome"] == "ok"
    assert [o.id for o in recs["x2"]["objects"]] == [res.labels["obj1"].id]
    assert res.issues == []
    for name, rid in (("CInsert", "x1"), ("CSearch", "x2")):
        assert [r.node for r in deliveries(res, name, rid)] == [a2, "r1"]


SPLIT_ACROSS = """
[config]
min_cluster = 2
max_cluster = 5
drain_ms = 5000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a1 obj2 sensor k1 02
300 insert c1 a1 obj3 sensor k1 03
400 insert c1 a1 obj4 sensor k1 04
500 insert c1 a1 obj5 sensor k1 05
2000 join a6 net1 as1 ro eu
"""


def test_split_lists_a_new_holder_only_once_its_copy_is_acknowledged():
    res = staged(SPLIT_ACROSS, trace=True)
    sim = res.sim
    r1 = ragent(res, "r1")
    log = spy_sends(sim)
    t = 0
    while not any(e[1] == "split" for e in sim.member_events):
        t += MS
        sim.run_until(t)
    # five agents placed the pairs (a1,a2) (a3,a4) (a5,a1) (a2,a3)
    # (a4,a5); a2 became the new super-peer, a1 a3 a4 stay, a5 a6 move,
    # so obj3 and obj5 straddle the two sides
    new_r, handover = next((d, m) for _, d, m, _ in log if isinstance(m, AssumeRAgent))
    sides = [(r1.node_id, r1.catalogue, r1.members),
             (new_r, handover.catalogue, set(handover.members))]
    holders = {}
    for _, cat, members in sides:
        for oid in cat.object_ids():
            holders[oid] = cat.holders_of(oid)
            for h in holders[oid]:
                assert h in members and oid in sim.nodes[h].store
    assert len(handover.catalogue) == 1
    assert sorted(len(hl) for hl in holders.values()) == [1, 1, 1, 1, 2]
    end = t + 3000 * MS
    while t < end:
        prev, t = t, t + MS
        sim.run_until(t)
        for ragent_id, cat, _ in sides:
            for oid in cat.object_ids():
                hl = cat.holders_of(oid)
                for h in hl:
                    assert oid in sim.nodes[h].store
                for h in hl[len(holders[oid]):]:
                    acked = [m for s, d, m, _ in log if isinstance(m, CopyDone)
                             and m.oid == oid and s == h and d == ragent_id]
                    delivered = [r for r in sim.trace if r.kind == "deliver"
                                 and prev < r.time <= t and r.node == ragent_id
                                 and r.detail == f"CopyDone::{h}"]
                    assert acked and delivered, (oid, h)
                holders[oid] = hl
    assert sorted(len(hl) for hl in holders.values()) == [2] * 5


def test_client_ops_sent_to_a_promoted_agent_complete():
    res = build(SPLIT_ACROSS + "4000 search c1 a2 exact sensor\n"
                               "4100 update c1 a2 obj1 beef\n")
    sim = res.sim
    promoted = ragent(res, "a2")
    recs = completions(res)
    assert recs["q0006"]["outcome"] == "ok"
    assert {o.id for o in recs["q0006"]["objects"]} == \
           {o.id for o in res.labels.values() if o.type_tag == "sensor"}
    assert recs["q0007"]["outcome"] == "ok" and recs["q0007"]["version"] == 1
    assert res.issues == []
    # a super-peer holds no replicas, so a read sent to it is not held
    sim.send(NodeId("c1"), promoted.node_id,
             CRead(request_id="x1", oid=res.labels["obj3"].id))
    sim.run_until(sim.clock + 100 * MS)
    assert completions(res)["x1"]["outcome"] == "not_held"


def unlisted_replicas(res):
    """(agent, label) for every replica a live agent stores that its
    super-peer's catalogue does not list it as holding."""
    sim = res.sim
    label = {obj.id: name for name, obj in res.labels.items()}
    out = []
    for node in sorted(sim.nodes.values(), key=lambda n: n.node_id):
        if not isinstance(node, AgentNode) or not sim.is_alive(node.node_id):
            continue
        cat = sim.nodes[node.ragent].catalogue
        out += [(node.node_id, label[oid]) for oid in sorted(node.store, key=label.get)
                if oid not in cat or node.node_id not in cat.holders_of(oid)]
    return out


def test_split_leaves_no_replica_that_no_catalogue_lists():
    res = build(SPLIT_ACROSS)
    assert res.issues == []
    assert unlisted_replicas(res) == []


def spy_fetches(res):
    """Request id -> [(super-peer, agent, ids)], one entry for each
    ``FetchObjects`` sent from now on."""
    sent = {}
    send = res.sim.send

    def spy(src, dst, msg):
        if isinstance(msg, FetchObjects):
            sent.setdefault(msg.request_id, []).append((src, dst, msg.ids))
        send(src, dst, msg)

    res.sim.send = spy
    return sent


def bounced(res, rid):
    return [r for r in res.sim.trace if r.request_id == rid
            and (r.kind == "drop" or r.msg_type == "SendFailed")]


WARM_THEN_CRASH = """
[config]
min_cluster = 2
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a1 obj2 sensor k1 02
300 insert c1 a1 obj3 sensor k1 03
1000 search c1 a3 exact sensor
1500 crash a1
6000 search c1 a3 exact sensor
"""


def test_a_search_looked_up_before_an_owner_crashed_fetches_from_the_survivor():
    # the first search looks the key up; a1's crash must reach the
    # catalogue's answer for that key, or the second fetches from a1
    res = staged(WARM_THEN_CRASH, trace=True)
    sent = spy_fetches(res)
    res.sim.run_until(1400 * MS)
    cat = ragent(res, "r1").catalogue
    before = {oid: cat.holders_of(oid) for oid in cat.object_ids()}
    finish(res)
    assert res.issues == []
    recs = completions(res)
    everything = sorted(obj.id for obj in res.labels.values())
    for rid in ("q0004", "q0005"):
        assert recs[rid]["outcome"] == "ok"
        assert [o.id for o in recs[rid]["objects"]] == everything
    a1 = NodeId("a1")
    assert any(dst == a1 for _, dst, _ in sent["q0004"])
    fetched_from = {oid: dst for _, dst, ids in sent["q0005"] for oid in ids}
    assert sorted(fetched_from) == everything
    for oid, hl in before.items():
        assert fetched_from[oid] == (hl[1] if hl[0] == a1 else hl[0])
    assert bounced(res, "q0005") == []


def test_the_moved_half_of_a_split_answers_a_search_looked_up_before_it():
    res = staged(with_events(SPLIT_ACROSS, "1000 search c1 a3 exact sensor",
                             "4000 search c1 a3 exact sensor"), trace=True)
    sent = spy_fetches(res)
    finish(res)
    assert res.issues == []
    recs = completions(res)
    everything = sorted(obj.id for obj in res.labels.values())
    for rid in ("q0006", "q0007"):
        assert recs[rid]["outcome"] == "ok"
        assert [o.id for o in recs[rid]["objects"]] == everything
    assert {src for src, _, _ in sent["q0006"]} == {NodeId("r1")}
    # after the split each super-peer fetches what its own catalogue lists
    by_cluster = {}
    for src, _, ids in sent["q0007"]:
        by_cluster.setdefault(src, []).extend(ids)
    moved = ragent(res, "a2")
    assert set(by_cluster) == {NodeId("r1"), moved.node_id}
    for src, ids in by_cluster.items():
        assert sorted(ids) == sorted(ragent(res, src).catalogue.object_ids())
    assert bounced(res, "q0007") == []


# -- roles and link latency across role changes ----------------------------


def test_role_comes_from_the_node_class():
    for cls, role in ((AgentNode, Role.AGENT), (RAgentNode, Role.RAGENT),
                      (LusNode, Role.LUS), (ClientNode, Role.CLIENT)):
        assert cls.role is role
    res = build(FAILOVER)
    # the secondary a1 took over from r1, which later rejoined as an agent
    a1, r1 = res.sim.nodes[NodeId("a1")], res.sim.nodes[NodeId("r1")]
    assert isinstance(a1, RAgentNode) and a1.role is Role.RAGENT
    assert isinstance(r1, AgentNode) and r1.role is Role.AGENT
    assert "role" not in vars(a1) and "role" not in vars(r1)
    # a2 is promoted by the split at 2015 ms, and demoted as it hands its
    # cluster to r1, before r1 merges it
    res = staged(SPLIT_MERGE)
    res.sim.run_until(3000 * MS)
    assert res.sim.nodes[NodeId("a2")].role is Role.RAGENT
    finish(res)
    assert [e[1] for e in res.sim.member_events if e[3] == "a2"][-2:] == ["demote", "merge"]
    assert res.sim.nodes[NodeId("a2")].role is Role.AGENT


def test_the_engine_calls_every_wrap_point_through_its_class(monkeypatch):
    """Per-layer tracing wraps these methods on their classes. An engine
    that called around a wrap would leave that layer reading zero."""
    counts = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((Simulator, "send"), (Simulator, "set_timer"),
                        (NetworkModel, "latency"), (BaseNode, "on_message"),
                        (BaseNode, "on_timer")):
        count(owner, name)
    text = (SCENARIOS / "basic.txt").read_text()
    seen = {}
    for trace in (False, True):
        counts.clear()
        res = build(text, trace)
        assert res.issues == [] and counts["on_message"] == res.sim.deliver_count
        seen[trace] = dict(counts)
    assert seen[False] == seen[True]
    assert all(seen[False][name] > 0 for name in ("send", "set_timer", "latency", "on_timer"))


@pytest.mark.parametrize("text", [FAILOVER, SPLIT_MERGE], ids=["failover", "split_merge"])
def test_role_changes_keep_locality_and_memoized_latency_matches_the_model(text):
    res = build(text)
    sim, sc = res.sim, res.scenario
    declared = {d.name: d.locality for d in sc.nodes}
    declared.update((ev.name, ev.locality) for ev in sc.events if isinstance(ev, JoinEvent))
    for nid, node in sim.nodes.items():
        if nid in declared:
            assert node.locality == declared[nid], nid
        else:
            assert isinstance(node, LusNode)
    changed = {e[3] for e in sim.member_events if e[1] in ("promote", "assume_ragent")}
    assert changed and any(changed & set(pair) for pair in sim._latencies)
    for (src, dst), lat in sim._latencies.items():
        assert lat == sim.network.latency(sim.nodes[src].locality, sim.nodes[dst].locality)


# -- the two role transitions -----------------------------------------------

SECONDARY_REJOIN = """
[config]
min_cluster = 2
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a2 obj1 sensor k1 01
200 insert c1 a3 obj2 camera k2 02
1000 crash a1
6000 rejoin a1
"""


def test_rejoined_secondary_starts_without_its_old_secondary_state():
    res = staged(SECONDARY_REJOIN)
    res.sim.run_until(900 * MS)
    old = res.sim.nodes[NodeId("a1")]
    assert ragent(res, "r1").secondary == old.node_id
    assert old.sync_members and old.sync_peers and old.sync_seq > 0
    finish(res)
    assert res.issues == []
    new = res.sim.nodes[NodeId("a1")]
    assert new is not old and isinstance(new, AgentNode) and new.joined
    assert ragent(res, "r1").secondary != new.node_id
    assert new.sync_catalogue is None
    assert new.sync_members == () and new.sync_peers == () and new.sync_seq == 0


def handoffs(res, monkeypatch):
    """Run ``res`` to the end. For each event that turned an agent into a
    super-peer, the state right after it: (old node, new super-peer, its
    members, peers, its catalogue's replica counts, the same counted from
    the catalogue's holder lists, the super-peer it replaced or None).
    The engine enters a node only through these four methods, so the spy
    wraps each class's own copy of them."""
    sim = res.sim
    out = []

    def spy(fn):
        def entered(*args):
            before, events = dict(sim.nodes), len(sim.member_events)
            result = fn(*args)
            for nid, node in sim.nodes.items():
                if node is not before.get(nid, node) and isinstance(node, RAgentNode):
                    detail = next(e[4] for e in sim.member_events[events:]
                                  if e[3] == nid and e[1] in ("promote", "assume_ragent"))
                    replaced = detail.split("=", 1)[1] if detail.startswith("replacing=") else None
                    scanned = Counter(a for hl in node.catalogue.holders.values() for a in hl)
                    out.append((before[nid], node, set(node.members), set(node.peers),
                                dict(node.catalogue.loads.counts), dict(scanned), replaced))
            return result
        return entered

    for cls in (BaseNode, AgentNode, RAgentNode):
        for name in ("on_message", "on_timer", "on_crash", "on_rejoin"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, spy(vars(cls)[name]))
    finish(res)
    # one hand-off per new super-peer, so no entry point went unwatched
    assert len(out) == sum(e[1] in ("promote", "assume_ragent") for e in sim.member_events)
    return out


@pytest.mark.parametrize("text,kind", [(FAILOVER, "promote"), (SPLIT_MERGE, "split")],
                         ids=["failover", "split_merge"])
def test_a_new_super_peer_starts_from_a_clean_hand_off(text, kind, monkeypatch):
    res = staged(text)
    seen = handoffs(res, monkeypatch)
    assert seen and res.issues == []
    for old, new, members, peers, counts, scanned, replaced in seen:
        assert isinstance(old, AgentNode)
        assert (replaced is not None) == (kind == "promote")
        gone = {new.node_id, replaced}
        assert not gone & members and not gone & peers
        assert counts.keys() <= members and counts == scanned


def test_a_rejoined_agent_beats_on_its_own_timer_only():
    # the crash falls between two beats, so the old object's next "hb"
    # timer fires after the rejoin and must not start a second chain
    res = staged(ONE_CLUSTER + "1200 crash a3\n1300 rejoin a3\n", trace=True)
    res.sim.run_until(3000 * MS)
    beats = [r.time for r in deliveries(res, "AgentHeartbeat")
             if r.detail.endswith(":a3") and r.time > 1300 * MS]
    assert len(beats) >= 3
    assert {b - a for a, b in zip(beats, beats[1:])} == {500 * MS}


def test_a_rejoined_agent_that_hears_its_old_super_peer_first_still_joins():
    # r1 has not yet noticed the crash, so its beat reaches the fresh a1
    # before a1's lookup-service answer does
    res = build(ONE_CLUSTER + "1200 crash a1\n1500 rejoin a1\n", trace=True)
    heard = [r.msg_type for r in res.sim.trace
             if r.node == "a1" and r.kind == "deliver" and r.time > 1500 * MS]
    assert heard[:3] == ["RAgentHeartbeat", "LusQueryReply", "JoinAccept"]
    assert res.issues == []
    a1 = res.sim.nodes[NodeId("a1")]
    assert a1.joined and a1.ragent == "r1" and NodeId("a1") in ragent(res, "r1").members


def test_a_promoted_agent_leaves_no_heartbeat_timer_behind():
    res = build(FAILOVER, trace=True)
    promoted = [(t, node) for t, event, _, node, _ in res.sim.member_events
                if event == "promote"]
    assert promoted
    for t, node in promoted:
        assert isinstance(res.sim.nodes[node], RAgentNode)
        beats = [r.time for r in res.sim.trace
                 if r.kind == "timer" and r.tag == "hb" and r.node == node]
        assert beats and max(beats) == t


def test_one_frozen_heartbeat_instance_serves_a_whole_beat_round():
    res = staged(BOUNCE + "100 insert c1 a1 obj1 sensor - 01\n", trace=True)
    sim = res.sim
    beats: dict[tuple, list] = {}

    def seen(src, dst, msg):
        if isinstance(msg, (AgentHeartbeat, RAgentHeartbeat, PeerHeartbeat)):
            beats.setdefault((sim.clock, src, type(msg)), []).append((dst, msg))
        return True

    spy_outgoing(sim, seen)
    finish(res)
    # each sweep sends one instance per kind, delivered once per member or peer
    for kind, each in ((RAgentHeartbeat, {"r1": ["a1", "a2"], "r2": ["a3", "a4", "a5"]}),
                       (PeerHeartbeat, {"r1": ["r2"], "r2": ["r1"]})):
        rounds = [(src, sent) for (_, src, k), sent in beats.items() if k is kind]
        assert rounds and all([d for d, _ in sent] == each[src]
                              and len({id(m) for _, m in sent}) == 1 for src, sent in rounds)
        delivered = [r for r in sim.trace if r.msg_type == kind.__name__ and r.kind == "deliver"]
        assert len(delivered) == sum(len(sent) for _, sent in rounds)
        beat = rounds[0][1][0][1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(beat, dataclasses.fields(beat)[0].name, None)
    agent_beats = {id(m) for (_, _, kind), sent in beats.items()
                   if kind is AgentHeartbeat for _, m in sent}
    assert agent_beats <= {id(AGENT_HEARTBEAT), id(AGENT_HEARTBEAT_RESYNC)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        AGENT_HEARTBEAT.resync = True


def test_sweep_repairs_only_short_holder_lists_in_id_order():
    res = staged(BURST_NODES + "100 insert c1 a1 x sensor k aa\n"
                 "150 insert c1 a2 y sensor k bb\n"
                 "200 insert c1 a3 z sensor k cc\n")
    sim = res.sim
    sim.run_until(1000 * MS)
    cat = ragent(res, "r1").catalogue
    listed = list(cat.holders)  # insertion order
    assert len(listed) == 3 and all(len(cat.holders_of(o)) == 2 for o in listed)
    # deplete a pair that the catalogue lists out of id order
    first, second = next((a, b) for i, a in enumerate(listed)
                         for b in listed[i + 1:] if a > b)
    for oid in (first, second):
        cat.remove_holder(oid, cat.holders_of(oid)[1])
    log = spy_sends(sim)
    sim.run_until(1500 * MS)  # one sweep period
    copies = [m.oid for s, _, m, _ in log if s == "r1" and isinstance(m, CopyReplica)]
    assert copies == sorted([first, second])


# -- a holder that lacks an object it is listed for --------------------------

REJOIN = (SCENARIOS / "rejoin_before_detection.txt").read_text()
REJOIN_NODES = REJOIN[:REJOIN.index("[events]")]

# the fetch to the crashed owner bounces; the client's own search goes
# to the crashed agent itself
BOUNCED_FETCH = REJOIN_NODES + """[events]
100  insert c1 a3 obj1 sensor k1,k2 deadbeef
1006 crash a1
1101 search_first c1 a3 exact sensor
1102 search c1 a1 exact sensor
2000 read c1 obj1
"""

# both holders crash; a1's bounced fetch reveals its crash, and the copy
# from a2, the survivor, reaches a2 after a rejoin has wiped its store
WIPED_SOURCE = REJOIN_NODES.replace("drain_ms = 6000", "drain_ms = 6000\nexpect_loss = true") + """[events]
100  insert c1 a3 obj1 sensor k1,k2 deadbeef
1006 crash a1
1006 crash a2
1100 search c1 a3 exact sensor
1121 rejoin a2
"""


def test_each_op_goes_on_one_round_trip_after_a_holder_says_it_lacks_the_object():
    # a1 rejoined with an empty store before r1 noticed its crash, so both
    # searches and the update first go to a1 as obj1's owner
    res = build(REJOIN, trace=True)
    assert res.issues == [] and res.sim.loss_records == []
    # every node shares one locality, so every message takes one hop
    hop = res.sim.network.latency(*(res.sim.nodes[NodeId(n)].locality for n in ("r1", "a2")))
    misses = {r.request_id: r.time for r in res.sim.trace if r.kind == "deliver"
              and (r.node, r.src) == ("r1", "a1") and r.msg_type in ("FetchReply", "ApplyMissing")}
    assert sorted(misses) == ["q0002", "q0003", "q0004"]
    for rid, miss in misses.items():
        # on to the next holder at once, not a heartbeat period later
        assert [r.time for r in res.sim.trace if r.kind == "deliver" and r.node == "a2"
                and r.request_id == rid and r.msg_type in ("FetchObjects", "ApplyUpdate")] == [miss + hop]
    recs = completions(res)
    # a search: the fetch round trip to a2, then the reply's two hops to
    # c1; the update also waits for the ReplicaUpdate round trip to the
    # new copy, listed by then
    assert recs["q0002"]["time"] == recs["q0003"]["time"] == misses["q0002"] + 4 * hop
    assert recs["q0004"]["time"] == misses["q0004"] + 6 * hop
    assert res.scenario.config.heartbeat_period_ms * MS > 6 * hop
    assert [(recs[q]["outcome"], recs[q]["results"]) for q in ("q0002", "q0003", "q0005")] == [
        ("ok", 1)] * 3
    assert (recs["q0004"]["outcome"], recs["q0004"]["version"]) == ("ok", 1)


@pytest.mark.parametrize("text", [REJOIN, BOUNCED_FETCH], ids=["missing", "bounced"])
def test_a_search_first_served_after_a_refetch_names_the_holder_that_served_it(text):
    res = build(text)
    assert res.issues == []
    oid = res.labels["obj1"].id
    assert res.clients["c1"].known_holders[oid] == "a2"
    read = [r for r in res.ops if r["op"] == "read"]
    assert [(r["outcome"], r["results"]) for r in read] == [("ok", 1)]


def test_an_op_sent_to_a_crashed_agent_is_answered_agent_down():
    recs = completions(build(BOUNCED_FETCH))
    assert (recs["q0003"]["op"], recs["q0003"]["outcome"]) == ("search", "agent_down")


def test_a_copy_source_that_lacks_the_last_listed_replica_loses_the_object():
    res = build(WIPED_SOURCE, trace=True)
    assert res.issues == []
    oid = res.labels["obj1"].id
    [failed] = [r.time for r in deliveries(res, "CopyFailed") if r.node == "r1"]
    # lost when a2 says it lacks obj1, before its join request arrives
    assert [(d[0], d[1], d[2]) for d in res.sim.loss_records] == [(failed, oid, "all-holders-gone")]
    [join] = [r.time for r in deliveries(res, "JoinRequest") if r.node == "r1"]
    assert failed < join
    rec = completions(res)["q0002"]
    assert (rec["outcome"], rec["results"]) == ("ok", 0)


def wipe(res, at_ms):
    """Run to ``at_ms``; then obj1's owner in r1's catalogue no longer
    stores it, as if a rejoin had wiped it before r1 noticed."""
    res.sim.run_until(at_ms * MS)
    r1, oid = ragent(res, "r1"), res.labels["obj1"].id
    owner, second = r1.catalogue.holders_of(oid)
    del res.sim.nodes[owner].store[oid]
    return r1, oid, owner, second


def test_a_copy_whose_source_lacks_the_object_unlists_it_and_the_sweep_copies_again():
    res = staged(ONE_CLUSTER)
    sim = res.sim
    r1, oid, owner, second = wipe(res, 200)
    dest = next(a for a in sorted(r1.members) if a not in (owner, second))
    r1.pending_copies["r1.cp9"] = (oid, dest, owner)
    log = spy_sends(sim)
    sim.send(r1.node_id, owner, CopyReplica(oid=oid, dest=dest, copy_id="r1.cp9"))
    sim.run_until(220 * MS)
    assert [m for s, _, m, _ in log if s == owner] == [CopyFailed(oid=oid, copy_id="r1.cp9")]
    assert r1.pending_copies == {} and r1.catalogue.holders_of(oid) == [second]
    assert owner not in r1.catalogue.loads.counts
    log.clear()
    sim.run_until(600 * MS)  # the sweep at 500 ms
    assert [(d, m.oid) for s, d, m, _ in log if isinstance(m, CopyReplica)] == [(second, oid)]
    assert len(r1.catalogue.holders_of(oid)) == 2
    assert finish(res).issues == []


def test_an_export_whose_owner_lacks_the_object_is_denied_and_the_owner_unlisted():
    res = staged(TWO_CLUSTERS)
    sim = res.sim
    r1, oid, owner, second = wipe(res, 1000)
    log = spy_sends(sim)
    sim.send(NodeId("r2"), r1.node_id, MigrateRequest(request_id="r2.mig9", oid=oid))
    sim.run_until(1200 * MS)
    [reply] = [m for s, _, m, _ in log if s == owner]
    assert (type(reply), reply.objects, reply.missing) == (FetchReply, (), (oid,))
    assert [(d, m) for s, d, m, _ in log if s == r1.node_id and isinstance(m, MigrateDenied)] == [
        ("r2", MigrateDenied(request_id="r2.mig9", oid=oid))]
    assert r1.out_migrations == {} and not r1.locks.is_locked(oid)
    assert r1.catalogue.holders_of(oid) == [second]


@pytest.mark.parametrize("says", [
    lambda oid: FetchReply(request_id="q9", objects=(), missing=(oid,), store_size=0,
                           purpose="search"),
    lambda oid: ApplyMissing(request_id="q9", oid=oid),
    lambda oid: CopyFailed(oid=oid, copy_id="r1.cp9"),
], ids=["FetchReply", "ApplyMissing", "CopyFailed"])
def test_a_sole_holder_that_lacks_its_object_loses_it(says):
    res = staged(ONE_CLUSTER)
    sim = res.sim
    r1, oid, owner, second = wipe(res, 200)
    r1.catalogue.remove_holder(oid, second)
    sim.send(owner, r1.node_id, says(oid))
    sim.run_until(220 * MS)
    assert [(d[1], d[2]) for d in sim.loss_records] == [(oid, "all-holders-gone")]
    assert oid not in r1.catalogue and owner not in r1.catalogue.loads.counts
    assert sim.nodes[r1.secondary].sync_catalogue == r1.catalogue


# -- every handler is reached ---------------------------------------------

# r1 drops below min_cluster and merges into r2; r3 still lists r1 as a
# super-peer until r1's PeerUpdate arrives, and asks it as one meanwhile.
# The PeerUpdate names r2, so r3 asks r2 again what r1 still owed it
STALE_PEER = """
[config]
min_cluster = 3
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as1 ro eu
r3 ragent net3 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net2 as1 ro eu
a5 agent net2 as1 ro eu
a6 agent net2 as1 ro eu
a7 agent net3 as1 ro eu
a8 agent net3 as1 ro eu
a9 agent net3 as1 ro eu
c1 client net3 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
1000 search_first c1 a7 exact sensor
2000 search_first c1 a7 exact sensor
3000 crash a1
3450 search_first c1 a7 exact sensor
3490 search c1 a7 exact sensor
3491 update c1 a7 obj1 beef
"""

# r1 drops below min_cluster and hands its cluster to r2, but r2 dies
# before the hand-off arrives; the hand-off and an insert the demoted r1
# relayed meanwhile bounce, and r1 heads its cluster again
MERGE_TARGET_DIES = """
[config]
min_cluster = 3
drain_ms = 15000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net2 as1 ro eu
a5 agent net2 as1 ro eu
a6 agent net2 as1 ro eu
a7 agent net2 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
3000 crash a1
3495 insert c1 a2 obj2 camera k2 02
3505 crash r2
"""

# r2 dies while r1 is still copying a1's replica; then r1 and a4 (which
# took over from r2) are both below min_cluster, and each is the other's
# only peer
BOTH_BELOW_MIN = """
[config]
min_cluster = 3
drain_ms = 60000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net2 as1 ro eu
a5 agent net2 as1 ro eu
a6 agent net2 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
3000 crash a1
3005 insert c1 a2 obj2 camera k2 02
3015 crash r2
"""

# r1 and r2 drop below min_cluster at once, each while the other's last
# beat still gave it more members, so each hands its cluster to the other
CROSSED_MERGES = """
[config]
min_cluster = 3
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
b1 agent net2 as2 us na
b2 agent net2 as2 us na
b3 agent net2 as2 us na
b4 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 b1 obj2 sensor k2 02
3000 crash a3
3000 crash b3
3000 crash b4
"""

# r2 drops below min_cluster and merges into r1 at 3010 ms; a join and
# an insert r1 delegates to r2 both reach r2 after that
PASSED_ON = """
[config]
min_cluster = 3
delegation_factor = 1.0
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
b1 agent net2 as2 us na
b2 agent net2 as2 us na
b3 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a2 obj2 sensor k2 02
2950 join b4 net2 as2 us na
3000 crash b1
3020 insert c1 a3 obj3 camera k3 03
"""

# r1 dies after it took in r2's cluster, and before the join and the
# insert that the demoted r2 passes on reach it
PASSED_ON_TARGET_DIES = PASSED_ON.replace("3020 insert c1 a3 obj3 camera k3 03\n",
                                          "3020 insert c1 a3 obj3 camera k3 03\n3070 crash r1\n")

# r2 drops below min_cluster at 3,010 ms and hands its cluster to r3,
# the smaller of its peers; obj1 is in r2's cluster, obj2 in r3's
SEARCH_ACROSS_A_MERGE = """
[config]
min_cluster = 3
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as1 ro eu
r3 ragent net3 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
b1 agent net2 as1 ro eu
b2 agent net2 as1 ro eu
b3 agent net2 as1 ro eu
d1 agent net3 as1 ro eu
d2 agent net3 as1 ro eu
d3 agent net3 as1 ro eu
d4 agent net3 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 b1 obj1 sensor k1 01
200 insert c1 d1 obj2 sensor k2 02
3000 crash b3
"""

# at 3,010 ms r1 hands its cluster to r3 and r2 its own to r1, which r2
# still lists as a super-peer; r3 dies after it took r1's in, before
# the demoted r1 passes r2's hand-off on to it
HAND_OFF_TO_A_DEAD_TARGET = """
[config]
min_cluster = 3
drain_ms = 12000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net3 as2 us na
r3 ragent net2 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
b1 agent net3 as2 us na
b2 agent net3 as2 us na
b3 agent net3 as2 us na
b4 agent net3 as2 us na
d1 agent net2 as1 ro eu
d2 agent net2 as1 ro eu
d3 agent net2 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 b1 obj2 sensor k2 02
3000 crash a3
3000 crash b2
3000 crash b3
3000 crash b4
3040 crash r3
9000 search c1 a2 exact sensor
"""

# r1 starts a copy of obj2 after a3's crash, then crashes and rejoins
# before the copy's CopyDone reaches it; the registry still lists r1
# until a1, its secondary, takes over, so a9 first asks r1 to join
REJOINED_SUPER_PEER = """
[config]
min_cluster = 2
drain_ms = 8000

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a1 obj2 sensor k2 02
3000 crash a3
3012 crash r1
3020 rejoin r1
3100 join a9 net1 as1 ro eu
6000 search c1 a2 exact sensor
"""


def with_events(text, *lines):
    """``text`` with more event lines, each put in time order."""
    head, events = text.split("[events]\n")
    rows = events.splitlines() + list(lines)
    return head + "[events]\n" + "\n".join(sorted(rows, key=lambda r: int(r.split()[0]))) + "\n"


# r1 asks r2, obj1's owner, for obj1 at 2,965 ms, and r3's update of it
# queues behind the export at r2; r3 drops below min_cluster and hands
# its cluster to r2 at 3,010 ms, before r2 tells it to retry
RETRY_AFTER_A_MERGE = with_events("""
[config]
min_cluster = 3
migration_threshold = 1
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as1 ro eu
r3 ragent net3 as1 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
b1 agent net2 as1 ro eu
b2 agent net2 as1 ro eu
b3 agent net2 as1 ro eu
d1 agent net3 as1 ro eu
d2 agent net3 as1 ro eu
d3 agent net3 as1 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 b1 obj1 sensor k1 01
""", "2900 search_first c1 a1 exact sensor", "2920 update c1 d1 obj1 beef", "2990 crash d3")

# r2 answers r1's owner query for obj1 at 2,995 ms, then hands its
# cluster to r3; r1's ForwardUpdate reaches r2 at 3,025 ms
UPDATE_ACROSS_A_MERGE = with_events(SEARCH_ACROSS_A_MERGE, "2970 update c1 a1 obj1 beef")

# as above, but r3 dies at 3,030 ms, after it took r2's cluster in and
# before r2 passes the ForwardUpdate on to it
FORWARD_TO_A_DEAD_TARGET = with_events(UPDATE_ACROSS_A_MERGE, "3030 crash r3")

# a9's join reaches r1 at 3,505 ms, just after r1 handed its cluster to
# the dead r2; r1 passes it on, and it bounces after r1's own hand-off
JOIN_PASSED_TO_A_DEAD_TARGET = with_events(MERGE_TARGET_DIES, "3490 join a9 net1 as1 ro eu")

# c1 learns a1 as obj1's holder; a1 is the secondary and takes over r1
PROMOTED_HOLDER = ONE_CLUSTER.replace("800 read c1 obj1", "1000 crash r1\n5000 read c1 obj1")


def test_a_demoted_super_peer_asked_as_one_says_not_here():
    res = build(STALE_PEER, trace=True)
    assert res.issues == []
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote" and e[2] == "r1"]
    asked = [r for r in res.sim.trace if r.kind == "deliver" and r.time > demoted
             and (r.node, r.src) == ("r1", "r3") and r.request_id]
    assert sorted((r.msg_type, r.request_id) for r in asked) == [
        ("MigrateRequest", "r3.mig1"), ("OwnerQuery", "q0006"), ("RemoteSearch", "q0005")]
    assert sorted(r.msg_type for r in res.sim.trace if r.kind == "deliver" and (r.node, r.src) == ("r3", "r1")
                  and r.request_id in ("q0005", "q0006", "r3.mig1")) == [
        "MigrateDenied", "OwnerQueryReply", "RemoteSearchReply"]
    # asked again at r2, which r1 handed its cluster to
    [told] = [r.time for r in res.sim.trace if r.kind == "deliver" and (r.node, r.src) == ("r3", "r1")
              and r.msg_type == "PeerUpdate"]
    for ask, rid in (("RemoteSearch", "q0005"), ("OwnerQuery", "q0006")):
        assert [r.time for r in deliveries(res, ask, rid) if r.node == "r2"][1:] == [told + 15 * MS]
    recs = completions(res)
    assert [(recs[q]["outcome"], recs[q]["results"]) for q in ("q0004", "q0005", "q0006")] == [
        ("ok", 1), ("ok", 1), ("ok", 0)]
    assert recs["q0006"]["version"] == 1
    # r1 waited for the copy it started after a1's crash, so the copy
    # is listed and not dropped
    [copied] = [r.time for r in deliveries(res, "CopyDone") if r.node == "r1"]
    assert copied < demoted and deliveries(res, "DropReplica") == []


def test_a_merge_whose_target_dies_comes_back_and_its_sender_heads_the_cluster_again():
    res = build(MERGE_TARGET_DIES, trace=True)
    assert res.issues == []
    [bounced] = [r.time for r in res.sim.trace if r.kind == "drop" and r.msg_type == "MergeRequest"]
    roles = [(e[0], e[1], e[3]) for e in res.sim.member_events
             if e[1] in ("demote", "assume_ragent", "promote", "merge")]
    # r1 heads its cluster again once the bounce is back, then merges
    # into the cluster r2's secondary took over
    assert [(event, node) for _, event, node in roles] == [
        ("demote", "r1"), ("assume_ragent", "r1"), ("promote", "a4"), ("demote", "r1"), ("merge", "r1")]
    assert roles[0][0] < bounced < roles[1][0]
    # the insert r1 relayed to r2 while demoted bounced too, and ran at r1
    assert [(r.kind, r.node) for r in res.sim.trace if r.request_id == "q0002"
            and r.msg_type == "CInsert"] == [("deliver", "a2"), ("deliver", "r1"), ("drop", "r2")]
    assert sorted(r.node for r in deliveries(res, "StoreReplica", "q0002")) == ["a2", "a3"]
    assert completions(res)["q0002"]["outcome"] == "ok"


def test_two_clusters_below_min_never_choose_each_other():
    res = build(BOTH_BELOW_MIN)
    assert res.issues == []
    # merges only go up by (members, id): a4's 2 members order below r1's
    assert [(e[1], e[2], e[3]) for e in res.sim.member_events if e[1] in ("demote", "merge")][-2:] == [
        ("demote", "a4", "a4"), ("merge", "r1", "a4")]


def test_hand_offs_crossed_on_stale_counts_come_back_and_the_next_sweeps_merge_one_way():
    res = build(CROSSED_MERGES, trace=True)
    assert res.issues == []
    roles = [(e[1], e[3]) for e in res.sim.member_events
             if e[1] in ("demote", "assume_ragent", "merge")]
    assert roles == [("demote", "r1"), ("demote", "r2"), ("assume_ragent", "r1"),
                     ("assume_ragent", "r2"), ("demote", "r1"), ("merge", "r1")]
    # each hand-off reached the other, now an agent, and was passed back
    passed = [(r.node, r.src) for r in deliveries(res, "MergeRequest") if r.hop == 1]
    assert sorted(passed) == [("r1", "r2"), ("r2", "r1")]


def test_a_join_and_a_delegated_insert_sent_to_a_demoted_super_peer_are_passed_on():
    res = build(PASSED_ON, trace=True)
    assert res.issues == []
    [(demoted, _)] = [(e[0], e[3]) for e in res.sim.member_events if e[1] == "demote"]
    for name in ("JoinRequest", "DelegateInsert"):
        hops = deliveries(res, name)
        assert [(r.node, r.src) for r in hops] == [("r2", hops[0].src), ("r1", "r2")]
        assert hops[0].time > demoted
    r1 = ragent(res, "r1")
    assert NodeId("b4") in r1.members and res.labels["obj3"].id in r1.catalogue
    assert completions(res)["q0003"]["outcome"] == "ok"


def test_a_super_peer_with_a_search_in_flight_merges_at_its_next_sweep():
    # the search reaches a2 at 24,028 ms; a2 would hand its cluster to r1
    # at 24,030 ms, but waits for the search's answer
    res = build(SPLIT_MERGE + "24023 search c1 a2 exact sensor\n", trace=True)
    assert res.issues == []
    rec = completions(res)["q0005"]
    assert (rec["outcome"], [o.id for o in rec["objects"]]) == ("ok", [res.labels["obj1"].id])
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote"]
    sweeps = [r.time for r in res.sim.trace if (r.kind, r.node, r.tag) == ("timer", "a2", "sweep")]
    assert demoted == min(t for t in sweeps if t > 24_030 * MS) == 24_520 * MS
    alone = build(SPLIT_MERGE)
    assert [e[0] for e in alone.sim.member_events if e[1] == "demote"] == [24_030 * MS]


def test_while_a_merge_waits_new_client_ops_go_to_the_target_so_it_happens_a_period_later():
    # a search reaches a2 every 10 ms from 23,955 ms to 25,195 ms, so one
    # is in flight at the 24,030 ms check that finds a2 due to merge
    stream = [f"{ms} search c1 a2 exact sensor" for ms in range(23950, 25200, 10)]
    res = build(with_events(SPLIT_MERGE, *stream), trace=True)
    assert res.issues == []
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote"]
    assert demoted == 24_520 * MS
    # from the 24,030 ms check on, a2 passes every new search on to r1
    searches = deliveries(res, "CSearch")
    waiting = {r.request_id for r in searches if r.node == "a2" and 24_030 * MS <= r.time < demoted}
    relayed = {r.request_id for r in searches if (r.src, r.node) == ("a2", "r1")}
    assert waiting and waiting <= relayed
    recs = [r for r in res.ops if r["op"] == "search"]
    assert len(recs) == len(stream) + 1  # and the one at 3,000 ms
    assert {(r["outcome"], r["results"]) for r in recs} == {("ok", 1)}


@pytest.mark.parametrize("at", [2990, 3010], ids=["fan_out_before_the_merge", "after"])
def test_a_peer_asked_again_while_its_first_answer_is_in_flight_answers_both(at):
    # r1 fans out at 3,000 ms (its ask reaches r2 after r2 handed its
    # cluster to r3 at 3,010 ms) or at 3,020 ms, and learns at 3,025 ms
    # that r2 merged into r3; its second ask reaches r3 while the first
    # one still waits there for its fetches
    res = build(with_events(SEARCH_ACROSS_A_MERGE, f"{at} search c1 a1 exact sensor"), trace=True)
    assert res.issues == []
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote"]
    asks = [r.time for r in deliveries(res, "RemoteSearch", "q0003") if r.node == "r3"]
    answers = [r.time for r in deliveries(res, "RemoteSearchReply", "q0003") if r.src == "r3"]
    assert len(asks) == len(answers) == 2 and asks[0] < asks[1] < answers[1] - 15 * MS
    # the second ask is answered at once, empty; the first with both
    # clusters' objects, since r3 took r2's in before it looked
    assert answers[0] == asks[1] + 15 * MS
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["results"]) == ("ok", 2)
    assert demoted < asks[0]


def test_a_peers_search_in_flight_does_not_hold_a_merge_back():
    # r1's ask reaches r2 at 3,005 ms; r2 hands its cluster off at 3,010
    # ms with the fetch for it still out, and r1 asks r3 instead
    res = build(with_events(SEARCH_ACROSS_A_MERGE, "2980 search c1 a1 exact sensor"), trace=True)
    assert res.issues == []
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote"]
    [asked] = [r.time for r in deliveries(res, "RemoteSearch", "q0003") if r.node == "r2"]
    [fetched] = [r.time for r in deliveries(res, "FetchReply", "q0003") if r.node == "r2"]
    assert asked < demoted == 3010 * MS < fetched
    assert len([r for r in deliveries(res, "RemoteSearch", "q0003") if r.node == "r3"]) == 2
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["results"]) == ("ok", 2)


def test_a_search_at_the_merge_target_looks_at_the_cluster_it_takes_in():
    # r3 looks obj2 up at 3,020 ms; r2's hand-off arrives at 3,025 ms,
    # and r2, an agent by then, tells r3 it has nothing
    res = build(with_events(SEARCH_ACROSS_A_MERGE, "3000 search c1 d2 exact sensor"), trace=True)
    assert res.issues == []
    [merged] = [e[0] for e in res.sim.member_events if e[1] == "merge"]
    [asked] = [r.time for r in deliveries(res, "CSearch", "q0003") if r.node == "r3"]
    assert asked < merged
    assert [r.node for r in deliveries(res, "FetchObjects", "q0003")] == ["d1", "b1"]
    rec = completions(res)["q0003"]
    assert (rec["outcome"], [o.id for o in rec["objects"]]) == (
        "ok", sorted(res.labels[n].id for n in ("obj1", "obj2")))


def test_an_update_forwarded_to_an_owner_that_merged_meanwhile_runs_at_the_target():
    res = build(UPDATE_ACROSS_A_MERGE, trace=True)
    assert res.issues == []
    [demoted] = [e[0] for e in res.sim.member_events if e[1] == "demote"]
    hops = deliveries(res, "ForwardUpdate", "q0003")
    assert [(r.src, r.node) for r in hops] == [("r1", "r2"), ("r2", "r3")]
    assert hops[0].time > demoted
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["version"]) == ("ok", 1)


def test_an_update_retry_sent_to_an_origin_that_merged_meanwhile_is_resolved_at_the_target():
    res = build(RETRY_AFTER_A_MERGE, trace=True)
    assert res.issues == []
    [demoted] = [(e[0], e[2]) for e in res.sim.member_events if e[1] == "demote"]
    hops = deliveries(res, "UpdateRetry", "q0003")
    assert [(r.src, r.node) for r in hops] == [("r2", "r3"), ("r3", "r2")]
    assert demoted == (3010 * MS, "r3") and hops[0].time > demoted[0]
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["version"]) == ("ok", 1)


def test_an_update_passed_on_to_a_target_that_died_is_answered_ragent_down():
    res = build(FORWARD_TO_A_DEAD_TARGET, trace=True)
    assert res.issues == []
    assert [(r.kind, r.src, r.node) for r in res.sim.trace
            if r.msg_type == "ForwardUpdate" and r.request_id == "q0003"] == [
        ("deliver", "r1", "r2"), ("drop", "r2", "r3")]
    # straight to the client from r2, now an agent of the dead r3
    assert [r.src for r in deliveries(res, "OpReply", "q0003")] == ["r2"]
    assert completions(res)["q0003"]["outcome"] == "ragent_down"


def test_an_update_resolving_at_the_merge_target_finds_the_object_it_takes_in():
    # r3 asks its peers for obj1's owner at 3,020 ms; r2's hand-off, which
    # lists obj1, arrives at 3,025 ms, and r2, an agent by then, says no
    res = build(with_events(SEARCH_ACROSS_A_MERGE, "3000 update c1 d2 obj1 beef"), trace=True)
    assert res.issues == []
    [merged] = [e[0] for e in res.sim.member_events if e[1] == "merge"]
    [applied] = [r.time for r in deliveries(res, "ApplyUpdate", "q0003")]
    assert [r.node for r in deliveries(res, "OwnerQuery", "q0003")] == ["r1", "r2"]
    assert applied == merged + 15 * MS
    rec = completions(res)["q0003"]
    assert (rec["outcome"], rec["version"]) == ("ok", 1)


def test_a_join_and_an_insert_passed_on_to_a_target_that_died_are_answered():
    res = build(PASSED_ON_TARGET_DIES, trace=True)
    assert res.issues == []
    # the join's bounce goes on to b4, which asks the registry again
    [bounce] = [r for r in deliveries(res, "SendFailed") if (r.src, r.node) == ("r2", "b4")]
    admits = [(e[2], e[3]) for e in res.sim.member_events if e[1] == "admit"]
    assert admits == [("a1", "b4")]
    assert bounce.time > [e[0] for e in res.sim.member_events if e[1] == "merge"][0]
    # the insert r1 delegated, and r2 passed back, is answered straight
    # to the client when it bounces
    assert [r.src for r in deliveries(res, "OpReply", "q0003")] == ["r2"]
    assert completions(res)["q0003"]["outcome"] == "ragent_down"


def test_a_join_passed_on_and_bounced_runs_once_its_passer_heads_the_cluster_again():
    res = build(JOIN_PASSED_TO_A_DEAD_TARGET, trace=True)
    assert res.issues == []
    [back] = [e[0] for e in res.sim.member_events if e[1] == "assume_ragent"]
    [passed] = [r.time for r in res.sim.trace
                if (r.kind, r.msg_type, r.src, r.node) == ("drop", "JoinRequest", "r1", "r2")]
    assert [(e[0], e[2], e[3]) for e in res.sim.member_events if e[1] == "admit"] == [
        (back + 5 * MS, "r1", "a9")]
    assert passed < back


def test_a_hand_off_passed_on_to_a_dead_target_goes_back_to_its_sender():
    res = build(HAND_OFF_TO_A_DEAD_TARGET, trace=True)
    assert res.issues == []
    hops = [(r.kind, r.src, r.node) for r in res.sim.trace if r.msg_type == "MergeRequest"]
    assert hops == [("deliver", "r1", "r3"), ("deliver", "r2", "r1"), ("drop", "r1", "r3"),
                    ("deliver", "r1", "r2"), ("deliver", "r2", "d1")]
    roles = [(e[1], e[2]) for e in res.sim.member_events
             if e[1] in ("demote", "merge", "assume_ragent", "promote")]
    # only d1, r3's secondary, takes over: r3 told the members it took
    # in which secondary it had, so a1 no longer thinks it is one
    assert roles == [("demote", "r1"), ("demote", "r2"), ("merge", "r3"), ("assume_ragent", "r2"),
                     ("promote", "d1"), ("demote", "r2"), ("merge", "d1")]
    assert completions(res)["q0003"]["results"] == 2


def test_a_super_peer_that_crashed_and_rejoined_drops_the_copy_it_started_and_joins_its_successor():
    res = build(REJOINED_SUPER_PEER, trace=True)
    assert res.issues == []
    [done] = [r for r in deliveries(res, "CopyDone") if r.node == "r1"]
    [drop] = deliveries(res, "DropReplica")
    assert (drop.src, drop.node) == ("r1", done.src) and drop.time > done.time
    # the registry still listed r1, but did not offer it to itself
    assert [r for r in deliveries(res, "JoinRequest") if r.src == "r1" and r.node == "r1"] == []
    # r1, in no cluster yet, refuses a9's join, and a9 asks again until
    # the registry lists a1 instead
    [promoted] = [e[0] for e in res.sim.member_events if e[1] == "promote"]
    refused = [r.time for r in deliveries(res, "SendFailed") if (r.src, r.node) == ("r1", "a9")]
    assert refused and max(refused) < promoted
    assert [(e[1], e[2], e[3]) for e in res.sim.member_events if e[1] in ("promote", "admit")] == [
        ("promote", "a1", "a1"), ("admit", "a1", "r1"), ("admit", "a1", "a9")]


def test_generated_runs_that_merge_under_load_end_clean():
    # clusters of 4-32 agents and min_cluster 16: the small ones merge
    # while the inserts (one per ms) and searches are still arriving
    merges = 0
    for seed in range(40):
        sc = random_scenario(seed)
        sc.config = dataclasses.replace(
            sc.config, min_cluster=16, max_cluster=64, heartbeat_period_ms=500,
            failure_timeout_ms=2000, delegation_factor=1.0, drain_ms=6000)
        res = run_scenario(sc, trace=False)
        assert res.issues == [], seed
        merges += sum(e[1] == "merge" for e in res.sim.member_events)
    assert merges >= 40


def test_a_read_sent_to_a_holder_since_promoted_is_not_held():
    res = build(PROMOTED_HOLDER)
    assert res.issues == []
    assert isinstance(res.sim.nodes[NodeId("a1")], RAgentNode)
    assert (completions(res)["q0004"]["op"], completions(res)["q0004"]["outcome"]) == (
        "read", "not_held")


# entries no scenario can reach, each with the reason; this may only shrink
REACH_EXEMPT = {
    # inherited from BaseNode; no reply route passes through the lookup service
    "LusNode._on_OpReply", "LusNode._on_ProgressNote",
}


def test_every_handler_runs_in_some_scenario(monkeypatch):
    """Every entry of each node class's ``_on`` and ``_tick`` tables, and
    the fault paths they share, runs in ``scenarios/*.txt`` or in a
    module-level scenario of this file."""
    ran = set()

    def counted(label, fn):
        def wrapper(*args, **kw):
            ran.add(label)
            return fn(*args, **kw)
        return wrapper

    wanted = set()
    for cls in (LusNode, AgentNode, RAgentNode, ClientNode):
        for table, prefix in (("_on", "_on_"), ("_tick", "_tick_")):
            labels = {key: f"{cls.__name__}.{prefix}{key}" for key in vars(cls)[table]}
            wanted |= set(labels.values())
            monkeypatch.setattr(cls, table, {key: counted(labels[key], fn)
                                             for key, fn in vars(cls)[table].items()})
    for name in ("_refetch", "_fetch_bounced", "_unlist"):
        wanted.add(f"RAgentNode.{name}")
        monkeypatch.setattr(RAgentNode, name, counted(f"RAgentNode.{name}", getattr(RAgentNode, name)))
    texts = [p.read_text() for p in sorted(SCENARIOS.glob("*.txt"))]
    texts += [v for v in globals().values() if isinstance(v, str) and "[nodes]" in v]
    for text in texts:
        build(text)
    assert wanted - ran == REACH_EXEMPT


# -- message copies --------------------------------------------------------


def copied_messages():
    """One of each message class that a node copies to pass it on."""
    obj = make_object("sensor", ["k1"], b"x")
    route = (NodeId("a1"), NodeId("c1"))
    return [
        nodes.OpReply(request_id="q1", op="search", outcome="ok", route=route,
                      objects=(obj,), holder=NodeId("a2")),
        nodes.ProgressNote(request_id="q1", oid=obj.id, route=route, hop=2),
        CSearch(request_id="q1", criterion=PatternKey(KeyKind.PATTERN, "k1"),
                mode="all", route=route),
        CInsert(request_id="q1", obj=obj, route=route),
        nodes.CUpdate(request_id="q1", oid=obj.id, payload=b"y", route=route),
        DelegateInsert(request_id="q1", obj=obj, route=route, hop=3),
        ForwardUpdate(request_id="q1", oid=obj.id, payload=b"y", route=route, hop=3),
        UpdateRetry(request_id="q1", oid=obj.id, payload=b"y", route=route, hop=4),
        nodes.JoinRequest(joiner=NodeId("a9"), locality=LocalityDescriptor("n1", "as1", "ro", "eu")),
        nodes.MergeRequest(from_ragent=NodeId("r1"), catalogue=MetaCatalogue(),
                           members=(NodeId("a1"),),
                           peers=(NodeId("r2"),)),
    ]


@pytest.mark.parametrize("msg", copied_messages(), ids=lambda m: type(m).__name__)
def test_a_message_copy_is_a_new_message_with_only_the_named_fields_changed(msg):
    before = dict(vars(msg))
    changes = {"hop": msg.hop + 1}
    if hasattr(msg, "route"):
        changes["route"] = msg.route[1:]
    new = nodes._copy(msg, **changes)
    assert type(new) is type(msg) and new is not msg and vars(new) is not vars(msg)
    assert vars(new) == {**before, **changes}
    assert all(vars(new)[f] is before[f] for f in before if f not in changes)
    assert new == dataclasses.replace(msg, **changes)
    assert vars(msg) == before  # the original is untouched


@pytest.mark.parametrize("msg", copied_messages(), ids=lambda m: type(m).__name__)
def test_a_message_copy_naming_no_field_raises_as_replace_does(msg):
    before = dict(vars(msg))
    # ``op`` is a class attribute or a property where a class has one
    for name in ("nope", "op"):
        if name in before:
            continue
        with pytest.raises(TypeError):
            dataclasses.replace(msg, **{name: 1})
        with pytest.raises(TypeError, match=name):
            nodes._copy(msg, hop=9, **{name: 1})
    assert vars(msg) == before


def test_the_copied_classes_are_those_the_scenarios_copy(monkeypatch):
    copied = set()

    def counted(msg, **changes):
        copied.add(type(msg))
        return copy_message(msg, **changes)

    copy_message = nodes._copy
    monkeypatch.setattr(nodes, "_copy", counted)
    texts = [p.read_text() for p in sorted(SCENARIOS.glob("*.txt"))]
    texts += [v for v in globals().values() if isinstance(v, str) and "[nodes]" in v]
    for text in texts:
        build(text)
    assert copied == {type(m) for m in copied_messages()}


def test_member_and_peer_order_and_short_ids_stay_current_at_every_sweep(monkeypatch):
    """Across splits, merges, promotions and rejoins, the sweep reads
    ascending member and peer tuples and the catalogue's short ids equal
    a scan of its holder lists."""
    swept = set()

    def checked(self, sim, payload):
        assert self.members.ordered == tuple(sorted(self.members))
        assert self.peers.ordered == tuple(sorted(self.peers))
        assert self.catalogue.under_replicated == {
            o for o, hl in self.catalogue.holders.items() if len(hl) < 2}
        swept.add(self.node_id)
        sweep(self, sim, payload)

    sweep = RAgentNode._tick["sweep"]
    monkeypatch.setitem(RAgentNode._tick, "sweep", checked)
    texts = [p.read_text() for p in sorted(SCENARIOS.glob("*.txt"))]
    texts += [v for v in globals().values() if isinstance(v, str) and "[nodes]" in v]
    declared = set()
    for text in texts:
        sc = parse_scenario(text)
        declared |= {d.name for d in sc.nodes if d.role is Role.RAGENT}
        run_scenario(sc)
    # super-peers made by a split or a promotion swept too
    assert swept - declared


def test_fetch_records_built_positionally_equal_those_built_by_keyword():
    # the fetch round trip builds its records positionally: a reordered
    # field would put a value in the wrong slot and compare unequal
    obj, other = make_object("sensor", ["k1"], b"x"), make_object("camera", ["k2"], b"y")
    assert FetchObjects("q1", (obj.id,), "migrate", 3) == FetchObjects(
        request_id="q1", ids=(obj.id,), purpose="migrate", hop=3)
    assert FetchObjects("q1", (obj.id,)) == FetchObjects(
        request_id="q1", ids=(obj.id,), purpose="search", hop=0)
    assert FetchReply("q1", (obj,), (other.id,), 7, "search", 2) == FetchReply(
        request_id="q1", objects=(obj,), missing=(other.id,), store_size=7,
        purpose="search", hop=2)
    assert FetchReply("q1", (), (), 0, "migrate") == FetchReply(
        request_id="q1", objects=(), missing=(), store_size=0, purpose="migrate", hop=0)
    # slotted: never relayed, so never given to ``_copy``, which needs a dict
    assert not hasattr(FetchObjects("q1", ()), "__dict__")
    assert not hasattr(FetchReply("q1", (), (), 0, "search"), "__dict__")


def test_a_stored_replica_is_looked_up_at_its_own_super_peer_then_at_every_other():
    res = finish(staged(TWO_CLUSTERS))
    assert res.issues == []
    a1, r2 = res.sim.nodes[NodeId("a1")], ragent(res, "r2")
    obj3, stray = res.labels["obj3"], make_object("stray", ["k1"], b"s")
    a1.store[obj3.id] = obj3  # r2's object, on a member of r1
    a1.store[stray.id] = stray
    assert check_invariants(res) == [f"a1: stores {oid.hex()[:12]} that no super-peer lists"
                                     for oid in sorted((obj3.id, stray.id))]
    # listed by another super-peer than its own: that one is found too
    r2.catalogue.add_holder(obj3.id, a1.node_id)
    assert [i for i in check_invariants(res) if i.startswith("a1:")] == [
        f"a1: stores {stray.id.hex()[:12]} that no super-peer lists"]
