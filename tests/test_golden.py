"""Golden outputs: the sha256 of the bytes ``disthash --metrics`` and
``disthash --trace`` write for the example scenarios, of the metrics
and traces of a fixed generated corpus, and of the metrics of the
benchmark's workloads. A change that alters simulated behaviour must
re-pin these and say why. Also: turning the trace off changes nothing
that is simulated, and the JSONL trace says what the digest trace
hashes."""
import copy
import dataclasses
import hashlib
import importlib.util
import json
import pickle
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from disthash import sim as engine
from disthash.cli import main
from disthash.core import Role
from disthash.nodes import AgentNode, BaseNode, ClientNode, RAgentNode
from disthash.runner import (build_simulation, check_invariants, format_metrics, run_scenario,
                             schedule_events)
from disthash.scenario import (CrashEvent, InsertEvent, RejoinEvent, Scenario, SearchEvent,
                               parse_scenario)
from disthash.sim import MS, SimError, TraceRecord
from test_acceptance import random_scenario
from test_protocols import (BELOW_MIN, MERGE_TARGET_DIES, PEER_DOWN, REJOINED_SUPER_PEER,
                            SECONDARY_REJOIN, SPLIT_ACROSS, WARM_THEN_CRASH)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOLDEN = {
    "basic.txt": "22cc70253f17af5159c0206b847ba119daa6d3eb0ff511d486ebfd87940808e0",
    "failover.txt": "c3dd1714402cd5e241da626ff124bf8154f03f77bd2920c46aa429b7120e2259",
    "rejoin_before_detection.txt": "5fb97e541476cf3f7f9f0ca3d7fd689eec47b47cd7882cd254c4aa6783dfcc29",
    "split_merge.txt": "3233db43dd705d2bf9c28597f8e75e2b6e0544c8d707cbde5d0457dddd452e1a",
}
GOLDEN_TRACE = {
    "basic.txt": "2534fafdfd016247c5daf8039369dc219d02bdd4470e23f03fa8fa2d62c5329c",
    "failover.txt": "04b9c7facc73a3ca82706977763a4c4ecddc5cd03686b97dbcf7a5b61e3ae07c",
    "rejoin_before_detection.txt": "324e79999a969cef69c30d4b07d89a074a61e0d2de3e76cd81e088d2a01ef288",
    "split_merge.txt": "8a8210aaafc051de845f30da9f7e71a338ff9a1e7e701b352ba16ef06c56d1c8",
}
# one digest over random_scenario(0), ..., random_scenario(19), in order
GOLDEN_CORPUS = "a4386f9e33b0d2e5642e54f1dd7300d96c31dc4bf4f1a66043493654695aacf7"
GOLDEN_CORPUS_TRACE = "a1ab38b20a98dbc78ca6d4fad6b1e8bfafe8673e26f25fa9bb96345988c38b9e"
# the benchmark's workloads (bench/workloads.py) at seed 0: what
# ``bench/run.py --workload NAME --seed 0`` reports as its metrics digest
GOLDEN_WORKLOADS = {
    "insert_search": "751c871ea84f6847ae86126f67b1c6c0899207a4071a8500d0d273f1c6912920",
    "heartbeat": "7dfcb8784120cd1c215f100a5f174e72c3e6024e7849a83af07b3af30b6692c0",
    "churn": "b2d2f025662d61f4326c01dda1a67c588c490102d0a846cadb8bd45db42fccf1",
}


def lines_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def corpus_digests():
    metrics, trace = hashlib.sha256(), hashlib.sha256()
    for seed in range(20):
        res = run_scenario(random_scenario(seed), trace=True)
        metrics.update(lines_bytes(format_metrics(res)))
        trace.update(lines_bytes(res.sim.trace_lines()))
    return metrics.hexdigest(), trace.hexdigest()


def test_every_example_scenario_is_pinned():
    names = sorted(p.name for p in SCENARIOS.glob("*.txt"))
    assert names == sorted(GOLDEN) == sorted(GOLDEN_TRACE)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_metrics_are_pinned(name, tmp_path):
    out = tmp_path / "metrics.txt"
    assert main(["--scenario", str(SCENARIOS / name), "--metrics", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE))
def test_scenario_trace_is_pinned(name, tmp_path):
    out = tmp_path / "trace.txt"
    assert main(["--scenario", str(SCENARIOS / name),
                 "--metrics", str(tmp_path / "metrics.txt"), "--trace", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_TRACE[name]


def test_generated_corpus_metrics_are_pinned(corpus_digests):
    assert corpus_digests[0] == GOLDEN_CORPUS


def test_generated_corpus_trace_is_pinned(corpus_digests):
    assert corpus_digests[1] == GOLDEN_CORPUS_TRACE


@pytest.fixture(scope="module")
def bench_workloads():
    """``bench/workloads.py``, loaded by path: it is not a package."""
    name = "disthash_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_benchmark_workload_metrics_are_pinned(name, bench_workloads):
    assert sorted(GOLDEN_WORKLOADS) == sorted(bench_workloads.WORKLOADS)
    res = run_scenario(parse_scenario(bench_workloads.generate(name, 0).text))
    assert hashlib.sha256(lines_bytes(format_metrics(res))).hexdigest() == GOLDEN_WORKLOADS[name]


@pytest.mark.parametrize("source", [*sorted(GOLDEN), *range(20), *sorted(GOLDEN_WORKLOADS)])
def test_no_settled_request_keeps_a_tally_or_a_progress_count(source, bench_workloads,
                                                              monkeypatch):
    """A request's tallies, its message count and its client's count of
    its progress notes live until the client settles it: what a run
    keeps of the tallies and notes is bounded by the ops still in
    flight. A message count is gone once its op is recorded; a delivery
    after that opens one that nothing reads."""
    recorded, settled_counts = ClientNode._record, []

    def spy(self, sim, rid, *args, **kwargs):
        recorded(self, sim, rid, *args, **kwargs)
        settled_counts.append(sim.steps.messages.get(rid))

    monkeypatch.setattr(ClientNode, "_record", spy)
    if isinstance(source, int):
        sc = random_scenario(source)
    elif source in GOLDEN:
        sc = parse_scenario((SCENARIOS / source).read_text())
    else:
        sc = parse_scenario(bench_workloads.generate(source, 0).text)
    res = run_scenario(sc)
    pending = set().union(*(c.pending for c in res.clients.values()))
    assert res.sim.steps.requests.keys() <= pending
    assert all(c.progress.keys() <= c.pending.keys() for c in res.clients.values())
    assert len(settled_counts) == len(res.ops) and set(settled_counts) == {None}


# staged layouts of tests/test_protocols.py with crashes, rejoins, a
# split and a merge, each of which ends some cluster's steady state
FAULT_LAYOUTS = {"WARM_THEN_CRASH": WARM_THEN_CRASH, "SECONDARY_REJOIN": SECONDARY_REJOIN,
                 "SPLIT_ACROSS": SPLIT_ACROSS, "MERGE_TARGET_DIES": MERGE_TARGET_DIES,
                 "REJOINED_SUPER_PEER": REJOINED_SUPER_PEER}
CHURN_SEEDS = [f"churn:{seed}" for seed in range(1, 5)]
# links slower than the failure timeout: the cluster is found steady
# before any beat arrives, and the next tick must still suspect r1
SLOW_LINKS = """
[config]
min_cluster = 2
heartbeat_period_ms = 10
failure_timeout_ms = 20
drain_ms = 400

[nodes]
r1 ragent net1 as1 ro eu
a1 agent net2 as2 us na
a2 agent net2 as2 us na
a3 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 search c1 a2 exact none
"""
FAULT_LAYOUTS["SLOW_LINKS"] = SLOW_LINKS

# set-up registers every cluster as steady, and the first beat round
# confirms it: each layout below ends or changes a cluster before that
# round, at the edges of the bootstrap
TWO_CLUSTERS_AT = """
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
a6 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
{first}
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a4 obj2 camera k2 02
4000 search c1 a3 exact camera
"""
# r1 holds six agents above max_cluster = 4, and splits at 0 ms
OVERSIZE_AT_SETUP = """
[config]
min_cluster = 2
max_cluster = 4
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net1 as1 ro eu
a6 agent net1 as1 ro eu
a7 agent net2 as2 us na
a8 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a7 obj2 camera k2 02
3000 search c1 a3 exact camera
"""
# no agent is near r2, so set-up gives it none and r1 one; r2 merges
# into r1 at its first sweep
ONE_AND_NO_MEMBER = """
[config]
min_cluster = 1
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net9 as9 jp as
r3 ragent net3 as3 us na
a1 agent net1 as1 ro eu
a3 agent net3 as3 us na
a4 agent net3 as3 us na
a5 agent net3 as3 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a4 obj2 camera k2 02
3000 search c1 a1 exact camera
"""
BOOTSTRAP_LAYOUTS = {
    "AGENT_CRASH_AT_ZERO": TWO_CLUSTERS_AT.format(first="0 crash a2"),
    "SUPER_PEER_CRASH_BEFORE_SWEEP": TWO_CLUSTERS_AT.format(first="50 crash r1"),
    "JOIN_BEFORE_FIRST_BEAT": TWO_CLUSTERS_AT.format(first="50 join a7 net1 as1 ro eu"),
    "OVERSIZE_AT_SETUP": OVERSIZE_AT_SETUP,
    "ONE_AND_NO_MEMBER": ONE_AND_NO_MEMBER,
}
FAULT_LAYOUTS.update(BOOTSTRAP_LAYOUTS)

# steady clusters at the edges of the steady path: a join that splits
# one, a crash that merges one, a crash that only the peers' sweeps see
# (PEER_DOWN), and inserts placed by the sizes steady peer beats carry
# r1 holds max_cluster = 4 agents when a8 joins it, and splits
JOIN_PAST_MAX = """
[config]
min_cluster = 2
max_cluster = 4
drain_ms = 6000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net1 as1 ro eu
a4 agent net1 as1 ro eu
a5 agent net2 as2 us na
a6 agent net2 as2 us na
a7 agent net2 as2 us na
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
200 insert c1 a2 obj2 sensor k2 02
300 insert c1 a5 obj3 camera k1 03
2000 join a8 net1 as1 ro eu
5000 search c1 a6 exact sensor
5100 search c1 a3 pattern k1
"""
# inserts spread over three clusters by the catalogue sizes that the
# super-peers' steady peer beats carry
DELEGATION_BY_PEER_BEATS = """
[config]
min_cluster = 2
delegation_factor = 1.2
drain_ms = 3000

[nodes]
r1 ragent net1 as1 ro eu
r2 ragent net2 as2 us na
r3 ragent net3 as3 ro eu
a1 agent net1 as1 ro eu
a2 agent net1 as1 ro eu
a3 agent net2 as2 us na
a4 agent net2 as2 us na
a5 agent net3 as3 ro eu
a6 agent net3 as3 ro eu
c1 client net1 as1 ro eu

[events]
100 insert c1 a1 obj1 sensor k1 01
700 insert c1 a1 obj2 sensor k2 02
1300 insert c1 a2 obj3 camera k1 03
1900 insert c1 a1 obj4 camera k2 04
2500 insert c1 a3 obj5 sensor k3 05
3100 insert c1 a2 obj6 sensor k1 06
3700 search c1 a5 exact sensor
3800 search c1 a1 pattern k1
"""
STEADY_EDGES = {"JOIN_PAST_MAX": JOIN_PAST_MAX, "CRASH_BELOW_MIN": BELOW_MIN,
                "SUPER_PEER_SEEN_BY_SWEEPS": PEER_DOWN,
                "DELEGATION_BY_PEER_BEATS": DELEGATION_BY_PEER_BEATS}
FAULT_LAYOUTS.update(STEADY_EDGES)
# the generated corpus beats once a minute, so no cluster of it goes
# steady; these beat every 100 ms and crash and rejoin one agent
BEATING_SEEDS = [f"beating:{seed}" for seed in range(5)]


def beating_scenario(seed):
    """``random_scenario(seed)`` with beats every 100 ms, a 400 ms
    timeout, and one seeded agent that crashes after the inserts and
    rejoins after the searches."""
    sc = random_scenario(seed)
    agent = random.Random(seed).choice([d.name for d in sc.nodes if d.role is Role.AGENT])
    inserted = max(ev.time_ms for ev in sc.events if isinstance(ev, InsertEvent))
    searched = max(ev.time_ms for ev in sc.events if isinstance(ev, SearchEvent))
    config = dataclasses.replace(sc.config, heartbeat_period_ms=100, failure_timeout_ms=400)
    return Scenario(config=config, nodes=sc.nodes, events=[
        *sc.events, CrashEvent(inserted + 100, agent), RejoinEvent(searched + 300, agent)])


def load_source(source, bench_workloads):
    """A scenario by pin name, corpus seed, layout name, ``beating:seed``
    or ``workload:seed``."""
    if isinstance(source, int):
        return random_scenario(source)
    if source in GOLDEN:
        return parse_scenario((SCENARIOS / source).read_text())
    if source in FAULT_LAYOUTS:
        return parse_scenario(FAULT_LAYOUTS[source])
    name, _, seed = source.partition(":")
    if name == "beating":
        return beating_scenario(int(seed))
    return parse_scenario(bench_workloads.generate(name, int(seed or 0)).text)


@pytest.mark.parametrize("source", [*sorted(GOLDEN), *range(20), *sorted(GOLDEN_WORKLOADS),
                                    *CHURN_SEEDS, *sorted(FAULT_LAYOUTS), *BEATING_SEEDS])
def test_untraced_run_simulates_the_same(source, bench_workloads):
    """The traced run takes every event through its handler, as the
    engine did before steady clusters; the untraced run runs the beats of
    steady clusters without handler calls, and must simulate the same."""
    plain = run_scenario(load_source(source, bench_workloads))
    traced = run_scenario(load_source(source, bench_workloads), trace=True)
    assert format_metrics(plain) == format_metrics(traced)
    assert plain.sim.deliver_count == traced.sim.deliver_count > 0
    assert plain.sim.trace == [] and len(traced.sim.trace) > traced.sim.deliver_count
    assert traced.sim.steady_deliveries == 0
    with pytest.raises(SimError):
        plain.sim.trace_lines()


@pytest.mark.parametrize("name", sorted(BOOTSTRAP_LAYOUTS))
def test_each_bootstrap_edge_layout_ends_clean(name):
    res = run_scenario(parse_scenario(BOOTSTRAP_LAYOUTS[name]))
    assert res.issues == [] and len(res.ops) == 3


@pytest.mark.parametrize("source", [*sorted(STEADY_EDGES), *BEATING_SEEDS])
def test_each_steady_edge_and_beating_source_ends_clean(source):
    """Each runs steady clusters, untraced, with no handler call, and does
    what its name says; all end with no invariant issue."""
    res = run_scenario(load_source(source, None))
    assert res.issues == [] and res.sim.steady_deliveries > 0
    events = [e[1] for e in res.sim.member_events]
    heads = [n for _, n in sorted(res.sim.nodes.items()) if isinstance(n, RAgentNode)]
    if source == "JOIN_PAST_MAX":
        assert "assume_ragent" in events
    elif source == "CRASH_BELOW_MIN":
        assert "merge" in events
    elif source == "SUPER_PEER_SEEN_BY_SWEEPS":
        # no member was left to report r2: the peers dropped it
        assert events == [] and all("r2" not in r.peers for r in heads if r.node_id != "r2")
    elif source == "DELEGATION_BY_PEER_BEATS":
        assert [len(r.catalogue) for r in heads] == [2, 2, 2]
    else:
        assert events.count("agent_failed") == 1 and events.count("admit") == 1


def test_the_heartbeat_workload_runs_no_beat_handler(bench_workloads, monkeypatch):
    """Set-up leaves every cluster steady and ``heartbeat`` seed 0 has no
    fault, so an exact count: no beat, tick or sweep reaches a handler,
    and each delivery is either a handler call or a beat the engine ran
    itself."""
    calls, handled = Counter(), []
    on_message, on_timer = BaseNode.on_message, BaseNode.on_timer

    def count_message(self, sim, msg, src):
        calls[type(msg).__name__] += 1
        handled.append(1)
        return on_message(self, sim, msg, src)

    def count_timer(self, sim, tag, payload):
        calls[tag] += 1
        return on_timer(self, sim, tag, payload)

    monkeypatch.setattr(BaseNode, "on_message", count_message)
    monkeypatch.setattr(BaseNode, "on_timer", count_timer)
    res = run_scenario(load_source("heartbeat", bench_workloads))
    assert res.issues == []
    beats = ("AgentHeartbeat", "RAgentHeartbeat", "PeerHeartbeat", "hb", "sweep")
    assert [calls[name] for name in beats] == [0, 0, 0, 0, 0]
    assert len(handled) + res.sim.steady_deliveries == res.sim.deliver_count


def test_the_heartbeat_workload_writes_beat_times_only_when_run_until_returns(
        bench_workloads, monkeypatch):
    """Steady beats are stamped on the engine's records and settled into
    the nodes only when a cluster stops being steady, before one of its
    ticks or sweeps runs its handler, or when ``run_until`` returns.
    ``heartbeat`` seed 0 has none of the first two, so each of its 8
    clusters settles once per ``run_until`` call, whatever the number of
    periods: one write per member each way, none per period."""
    settled, writes = [], Counter()
    settle = engine._Steady.settle
    agent_heard, head_heard = AgentNode.heard_steadily, RAgentNode.heard_steadily

    def count_settle(self):
        settled.append((self.head.node_id, self.dirty))
        settle(self)

    def count_agent(agents, time):
        writes["last_ragent_seen"] += len(agents)
        agent_heard(agents, time)

    def count_head(self, agents, time):
        writes["member_last_seen"] += len(agents)
        head_heard(self, agents, time)

    monkeypatch.setattr(engine._Steady, "settle", count_settle)
    monkeypatch.setattr(AgentNode, "heard_steadily", staticmethod(count_agent))
    monkeypatch.setattr(RAgentNode, "heard_steadily", count_head)
    res = build_simulation(load_source("heartbeat", bench_workloads))
    schedule_events(res)
    sc, sim = res.scenario, res.sim
    end = (max(ev.time_ms for ev in sc.events) + sc.config.drain_ms) * MS
    agents = sum(len(n.members) for n in sim.nodes.values() if isinstance(n, RAgentNode))
    for calls, cut in enumerate((end // 2, end), 1):
        sim.run_until(cut)
        assert len(settled) == 8 * calls and all(dirty for _, dirty in settled)
        assert writes == {"last_ragent_seen": agents * calls, "member_last_seen": agents * calls}
    res.issues = check_invariants(res)
    assert agents == 2000 and res.issues == []


def pickled(res):
    return pickle.loads(pickle.dumps(res))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("source", [*sorted(GOLDEN), *range(5), "heartbeat"])
def test_a_copied_run_resumes_to_the_metrics_of_an_uninterrupted_one(source, trace,
                                                                     bench_workloads):
    """A run copied by pickle and by copy.deepcopy, at 250 ms, while its
    clusters are registered and not yet confirmed, and at half its end
    time, resumes to the metrics of a run never stopped: the copy shares
    nothing with the original, and no closure or lambda sits in engine
    or node state."""
    want = format_metrics(run_scenario(load_source(source, bench_workloads), trace))
    res = build_simulation(load_source(source, bench_workloads), trace)
    schedule_events(res)
    sc = res.scenario
    end = (max(ev.time_ms for ev in sc.events) + sc.config.drain_ms) * MS
    for cut in (250 * MS, end // 2):
        res.sim.run_until(cut)
        if cut == 250 * MS:
            # untraced, set-up registered the clusters, and no beat round
            # has confirmed one yet
            assert bool(res.sim._registered) is not trace and res.sim._steady == {}
        for copier in (pickled, copy.deepcopy):
            twin = copier(res)
            twin.sim.run_until(end)
            twin.issues = check_invariants(twin)
            assert format_metrics(twin) == want, (cut, copier.__name__)
            del twin  # one copy alive at a time


@pytest.mark.parametrize("source", ["WARM_THEN_CRASH", "SECONDARY_REJOIN", "churn:1"])
def test_a_cluster_goes_steady_again_after_a_fault(source, bench_workloads):
    """Every crash and rejoin ends every steady cluster; here one is
    steady again after the last fault, so the comparison above covers runs
    that leave the steady path and come back to it."""
    sc = load_source(source, bench_workloads)
    last_fault = max(ev.time_ms for ev in sc.events if isinstance(ev, (CrashEvent, RejoinEvent)))
    res = build_simulation(sc)
    schedule_events(res)
    sim = res.sim
    sim.run_until(last_fault * MS)
    assert sim._steady == {}
    before = sim.steady_deliveries
    sim.run_until((max(ev.time_ms for ev in sc.events) + sc.config.drain_ms) * MS)
    assert sim._steady and sim.steady_deliveries > before


def test_jsonl_trace_has_one_record_per_digest_line(tmp_path):
    scenario = str(SCENARIOS / "failover.txt")
    digest, jsonl = tmp_path / "trace.txt", tmp_path / "trace.jsonl"
    for out, fmt in ((digest, "digest"), (jsonl, "jsonl")):
        assert main(["--scenario", scenario, "--metrics", str(tmp_path / "metrics.txt"),
                     "--trace", str(out), "--trace-format", fmt]) == 0
    lines = digest.read_text().splitlines()
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == len(lines) > 0
    for rec, line in zip(records, lines):
        time, seq, node, kind, _ = line.split()
        assert (rec["time"], rec["seq"], rec["kind"], rec["node"]) == (int(time), int(seq), kind, node)
        # the record holds everything its digest line hashes
        assert TraceRecord(**rec).line() == line
