"""The discrete-event engine: ordering, latency, fault injection and the
search step accounting with its closed-form bound."""
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disthash.catalogue import clog2
from disthash.core import LocalityDescriptor, NodeId
from disthash.sim import (MS, NetworkModel, NotCrashed, SendFailed,
                          SimError, Simulator, StepCounter, UnknownNode,
                          UnknownRequest, formula_bound, ideal_search_steps)


def loc(net="n1", asd="as1", country="ro", continent="eu"):
    return LocalityDescriptor(net, asd, country, continent)


class Recorder:
    """Minimal node: logs every delivery and timer."""

    def __init__(self, node_id, locality):
        self.node_id = node_id
        self.locality = locality
        self.log = []

    def on_message(self, sim, msg, src):
        self.log.append((sim.clock, "msg", msg, src))

    def on_timer(self, sim, tag, payload):
        self.log.append((sim.clock, "timer", tag, payload))

    def on_crash(self, sim):
        self.log.append((sim.clock, "crash", None, None))

    def on_rejoin(self, sim):
        self.log.append((sim.clock, "rejoin", None, None))


def two_nodes(net_b="n1", trace=True):
    sim = Simulator(NetworkModel(5 * MS, 10 * MS), trace=trace)
    a = Recorder(NodeId("a"), loc())
    b = Recorder(NodeId("b"), loc(net=net_b))
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


def test_latency_model():
    net = NetworkModel(5 * MS, 10 * MS)
    assert net.latency(loc(), loc()) == 5 * MS              # rank 4
    assert net.latency(loc(), loc(net="x")) == 15 * MS      # rank 3
    assert net.latency(loc(), loc(continent="na")) == 45 * MS  # rank 0


def test_delivery_order_and_clock():
    sim, a, b = two_nodes()
    sim.send(a.node_id, b.node_id, "first")
    sim.send(a.node_id, b.node_id, "second")  # same time: seq breaks the tie
    sim.set_timer(b.node_id, "late", 9 * MS)
    sim.run_until(20 * MS)
    assert [(t, k, d) for t, k, d, _ in b.log] == [
        (5 * MS, "msg", "first"),
        (5 * MS, "msg", "second"),
        (9 * MS, "timer", "late"),
    ]
    assert sim.clock == 20 * MS
    with pytest.raises(ValueError):
        sim.run_until(0)


def test_send_to_unregistered_node():
    sim, a, _ = two_nodes()
    with pytest.raises(UnknownNode):
        sim.send(a.node_id, NodeId("ghost"), "x")


def test_send_from_an_unregistered_node_names_the_sender():
    sim, a, _ = two_nodes()
    with pytest.raises(UnknownNode) as err:
        sim.send(NodeId("ghost"), a.node_id, "x")
    assert err.value.args == (NodeId("ghost"),)
    assert sim._latencies == {} and sim._seq == 0


def test_a_negative_latency_is_rejected_and_never_memoized():
    sim = Simulator(NetworkModel(-20 * MS, MS))
    a, b = Recorder(NodeId("a"), loc()), Recorder(NodeId("b"), loc())
    sim.add_node(a)
    sim.add_node(b)
    for _ in range(2):  # the second send must not find the bad value memoized
        with pytest.raises(SimError, match="negative latency"):
            sim.send(a.node_id, b.node_id, "x")
    assert sim._latencies == {} and sim._seq == 0
    assert sim._heap == [] and sim._buckets == {}


def test_crash_drops_and_bounces():
    sim, a, b = two_nodes()
    sim.inject_crash(b.node_id, 1 * MS)
    sim.send(a.node_id, b.node_id, "hello")
    sim.run_until(60 * MS)
    assert b.log == [(1 * MS, "crash", None, None)]
    bounced = [m for _, k, m, _ in a.log if k == "msg"]
    assert len(bounced) == 1
    assert isinstance(bounced[0], SendFailed)
    assert bounced[0].original == "hello" and bounced[0].dead == b.node_id


def test_crashed_node_cannot_send_and_timers_freeze():
    sim, a, b = two_nodes()
    sim.inject_crash(a.node_id, 0)
    sim.set_timer(a.node_id, "tick", 2 * MS)
    sim.run_until(1 * MS)
    sim.send(a.node_id, b.node_id, "x")  # silently dropped
    sim.run_until(60 * MS)
    assert b.log == []
    assert all(k != "timer" for _, k, _, _ in a.log)


def test_rejoin_semantics():
    sim, a, _ = two_nodes()
    with pytest.raises(NotCrashed):
        sim.inject_rejoin(a.node_id, 0)
        sim.run_until(1)
    sim2, a2, _ = two_nodes()
    sim2.inject_crash(a2.node_id, 0)
    sim2.inject_rejoin(a2.node_id, 5 * MS)
    sim2.run_until(10 * MS)
    assert (5 * MS, "rejoin", None, None) in a2.log
    assert sim2.is_alive(a2.node_id)


def test_deliver_count_matches_trace():
    sim, a, b = two_nodes()
    sim.send(a.node_id, b.node_id, "x")
    sim.send(b.node_id, a.node_id, "y")
    sim.run_until(50 * MS)
    delivers = [r for r in sim.trace if r.kind == "deliver"]
    assert sim.deliver_count == len(delivers) == 2


def test_determinism_identical_traces():
    def run():
        sim, a, b = two_nodes(net_b="n9")
        for i in range(10):
            sim.send(a.node_id, b.node_id, f"m{i}")
            sim.set_timer(a.node_id, f"t{i}", i * MS)
        sim.inject_crash(b.node_id, 100 * MS)
        sim.run_until(200 * MS)
        return sim.trace_lines()

    first = run()
    assert first and first == run()


@dataclass
class Ping:
    request_id: str
    hop: int = 0


def crash_and_rejoin_b(sim, a, b):
    sim.send(a.node_id, b.node_id, Ping("q1", hop=2))
    sim.set_timer(a.node_id, "tick", 1 * MS)
    sim.inject_crash(b.node_id, 10 * MS)
    sim.run_until(12 * MS)
    sim.send(a.node_id, b.node_id, Ping("q2"))
    sim.inject_rejoin(b.node_id, 40 * MS)
    sim.run_until(60 * MS)


def test_trace_records_carry_their_fields():
    sim, a, b = two_nodes()
    crash_and_rejoin_b(sim, a, b)
    got = [(r.kind, r.node, r.src, r.msg_type, r.request_id, r.hop, r.tag, r.detail)
           for r in sim.trace]
    assert got == [
        ("timer", "a", None, None, None, None, "tick", "tick"),
        ("deliver", "b", "a", "Ping", "q1", 2, None, "Ping:q1:a"),
        ("crash", "b", None, None, None, None, None, ""),
        ("drop", "b", "a", "Ping", "q2", 0, None, "Ping:q2"),
        ("deliver", "a", "b", "SendFailed", "q2", 0, None, "SendFailed:q2:b"),
        ("rejoin", "b", None, None, None, None, None, ""),
    ]
    assert [r.time for r in sim.trace] == [1 * MS, 5 * MS, 10 * MS, 17 * MS, 22 * MS, 40 * MS]
    records = [json.loads(line) for line in sim.trace_lines("jsonl")]
    assert records[1] == {"time": 5 * MS, "seq": 0, "kind": "deliver", "node": "b",
                          "src": "a", "msg_type": "Ping", "request_id": "q1",
                          "hop": 2, "tag": None}
    assert len(sim.trace_lines()) == len(records) == 6


def test_untraced_engine_records_nothing_and_simulates_the_same():
    runs = []
    for trace in (True, False):
        sim, a, b = two_nodes(trace=trace)
        crash_and_rejoin_b(sim, a, b)
        runs.append((sim, a.log, b.log))
    (traced, *logs), (plain, *plain_logs) = runs
    assert plain_logs == logs and plain.deliver_count == traced.deliver_count == 2
    assert plain.steps.messages == traced.steps.messages == {"q1": 1, "q2": 1}
    assert plain.trace == [] and not plain.tracing
    with pytest.raises(SimError):
        plain.trace_lines()


# -- the bucketed event queue ----------------------------------------------


class Scripted(Recorder):
    """A recorder that runs ``react[item](sim)`` after logging a message
    or timer ``item``."""

    def __init__(self, node_id, locality, react):
        super().__init__(node_id, locality)
        self.react = react

    def on_message(self, sim, msg, src):
        super().on_message(sim, msg, src)
        if msg in self.react:
            self.react[msg](sim)

    def on_timer(self, sim, tag, payload):
        super().on_timer(sim, tag, payload)
        if tag in self.react:
            self.react[tag](sim)


def scripted_pair(react_b):
    sim = Simulator(NetworkModel(5 * MS, 10 * MS), trace=True)
    a = Recorder(NodeId("a"), loc())
    b = Scripted(NodeId("b"), loc(), react_b)
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


def seen(node):
    return [(t, item) for t, _, item, _ in node.log]


def test_events_added_at_a_draining_time_run_after_those_already_there():
    sim, a, b = scripted_pair({
        "m1": lambda s: (s.set_timer(b.node_id, "z1", 0),
                         s.send(b.node_id, a.node_id, "reply")),
        "z1": lambda s: s.set_timer(b.node_id, "z2", 0),
    })
    sim.send(a.node_id, b.node_id, "m1")
    sim.send(a.node_id, b.node_id, "m2")
    sim.set_timer(b.node_id, "t", 5 * MS)
    sim.set_timer(a.node_id, "x", 10 * MS)
    sim.run_until(20 * MS)
    assert seen(b) == [(5 * MS, "m1"), (5 * MS, "m2"), (5 * MS, "t"),
                       (5 * MS, "z1"), (5 * MS, "z2")]
    # the reply joins the 10 ms bucket behind the timer set at time 0
    assert seen(a) == [(10 * MS, "x"), (10 * MS, "reply")]
    order = [(r.time, r.seq) for r in sim.trace]
    assert order == sorted(order) and len({s for _, s in order}) == len(order)
    assert sim._heap == [] and sim._buckets == {}


def test_a_handler_that_raises_leaves_the_rest_of_its_bucket_queued():
    def boom(s):
        raise RuntimeError("boom")

    sim, a, b = scripted_pair({"boom": boom})
    for msg in ("m1", "boom", "m2"):
        sim.send(a.node_id, b.node_id, msg)
    sim.set_timer(b.node_id, "later", 7 * MS)
    with pytest.raises(RuntimeError):
        sim.run_until(20 * MS)
    assert seen(b) == [(5 * MS, "m1"), (5 * MS, "boom")] and sim.clock == 5 * MS
    del b.react["boom"]
    sim.run_until(20 * MS)
    assert seen(b)[2:] == [(5 * MS, "m2"), (7 * MS, "later")]
    assert [r.seq for r in sim.trace] == [0, 1, 2, 3]
    # a multicast run: b raises in its middle, the rest of the run stays
    # at the front of its bucket with its seqs, ahead of a later send
    b.react["boom"] = boom
    c, d = Recorder(NodeId("c"), loc()), Recorder(NodeId("d"), loc())
    sim.add_node(c)
    sim.add_node(d)
    sim.multicast(a.node_id, [c.node_id, b.node_id, d.node_id], "boom")
    sim.send(a.node_id, c.node_id, "after")
    with pytest.raises(RuntimeError):
        sim.run_until(40 * MS)
    assert seen(c) == [(25 * MS, "boom")] and d.log == [] and sim.clock == 25 * MS
    del b.react["boom"]
    sim.run_until(40 * MS)
    assert seen(d) == [(25 * MS, "boom")] and seen(c)[1:] == [(25 * MS, "after")]
    assert [(r.seq, r.node) for r in sim.trace[4:]] == [(4, "c"), (5, "b"), (6, "d"), (7, "c")]
    assert sim._heap == [] and sim._buckets == {}


def test_run_until_stops_between_two_buckets():
    sim, a, b = two_nodes()
    sim.set_timer(b.node_id, "early", 5 * MS)
    sim.set_timer(b.node_id, "late", 9 * MS)
    sim.run_until(7 * MS)
    assert seen(b) == [(5 * MS, "early")] and sim.clock == 7 * MS
    sim.set_timer(b.node_id, "now", 0)  # lands exactly on the stop time
    sim.run_until(7 * MS)
    sim.run_until(9 * MS)  # the stop time is inclusive
    assert seen(b)[1:] == [(7 * MS, "now"), (9 * MS, "late")]
    assert sim.clock == 9 * MS and sim._heap == []


def test_a_bounce_a_delivery_and_a_timer_on_one_instant_run_in_seq_order():
    # all links take 5 ms. At 5 ms the send to the crashed b is dropped,
    # and its SendFailed bounce (queued by _push) lands at 10 ms between
    # a timer set at 0 and a message c sends at 5 ms (queued by send)
    sim, a, b = two_nodes()
    c = Scripted(NodeId("c"), loc(), {"go": lambda s: s.send(c.node_id, a.node_id, "y")})
    sim.add_node(c)
    sim.inject_crash(b.node_id, 0)
    sim.send(a.node_id, b.node_id, "x")
    sim.set_timer(a.node_id, "t", 10 * MS)
    sim.set_timer(c.node_id, "go", 5 * MS)
    sim.run_until(20 * MS)
    got = [(t, k, type(item).__name__ if k == "msg" else item) for t, k, item, _ in a.log]
    assert got == [(10 * MS, "timer", "t"), (10 * MS, "msg", "SendFailed"),
                   (10 * MS, "msg", "str")] and a.log[2][2] == "y"
    at_10 = [(r.seq, r.kind, r.detail) for r in sim.trace if r.time == 10 * MS]
    assert at_10 == [(2, "timer", "t"), (4, "deliver", "SendFailed::b"),
                     (5, "deliver", "str::c")]
    order = [(r.time, r.seq) for r in sim.trace]
    assert order == sorted(set(order))  # strictly increasing (time, seq)


def test_every_kind_of_event_on_one_instant_runs_in_queue_order():
    # all six land at 5 ms: b takes m1, crashes, drops m2 (bounced to a),
    # skips its timer while down, rejoins and takes m3
    sim, a, b = two_nodes()
    sim.send(a.node_id, b.node_id, "m1")
    sim.inject_crash(b.node_id, 5 * MS)
    sim.send(a.node_id, b.node_id, "m2")
    sim.set_timer(b.node_id, "t", 5 * MS)
    sim.inject_rejoin(b.node_id, 5 * MS)
    sim.send(a.node_id, b.node_id, "m3")
    sim.run_until(20 * MS)
    assert b.log == [(5 * MS, "msg", "m1", "a"), (5 * MS, "crash", None, None),
                     (5 * MS, "rejoin", None, None), (5 * MS, "msg", "m3", "a")]
    assert [(t, k, type(m).__name__, src) for t, k, m, src in a.log] == [
        (10 * MS, "msg", "SendFailed", "b")]
    assert a.log[0][2].original == "m2" and a.log[0][2].dead == b.node_id
    assert [(r.time, r.seq, r.kind, r.detail) for r in sim.trace] == [
        (5 * MS, 0, "deliver", "str::a"), (5 * MS, 1, "crash", ""),
        (5 * MS, 2, "drop", "str:"), (5 * MS, 4, "rejoin", ""),
        (5 * MS, 5, "deliver", "str::a"), (10 * MS, 6, "deliver", "SendFailed::b")]
    assert sim.deliver_count == 3 and sim._heap == [] and sim._buckets == {}


def test_an_event_before_the_clock_is_rejected():
    sim, a, b = two_nodes()
    sim.inject_crash(b.node_id, 5 * MS)
    sim.run_until(10 * MS)
    pending = sim._seq
    with pytest.raises(SimError):
        sim.inject_crash(a.node_id, 9 * MS)
    with pytest.raises(SimError):
        sim.inject_rejoin(b.node_id, 9 * MS)
    with pytest.raises(SimError):
        sim.set_timer(a.node_id, "past", -1)
    assert sim._seq == pending and sim._heap == []
    sim.inject_rejoin(b.node_id, 10 * MS)  # the current time is allowed
    sim.run_until(10 * MS)
    assert seen(b) == [(5 * MS, None), (10 * MS, None)]


# -- step accounting -----------------------------------------------------


def test_worked_example_measured_and_bound():
    # one cluster, 3 catalogue keys, 2 matches, largest store 8:
    # measured = 3 key scans + 2*2 id steps + 2*2 fetch + 2*ceil(log2 8)
    steps = StepCounter()
    rid = "q1"
    tally = steps.tally(rid, "c1")
    tally.lookup(m_keys=3, key_steps=3, matches=2)
    tally.fetch(NodeId("a1"), n_objects=2)
    tally.probe(store_size=8, n_objects=2)
    acct = steps.account_search(rid)
    assert acct.measured == 17
    assert acct.decomposed == 17
    assert acct.bound == 33  # 1 * 3 * (4*2 + 3)
    assert acct.bound_applicable and acct.clusters == 1


def test_repeated_calls_share_one_tally_per_request_and_cluster():
    steps = StepCounter()
    tally = steps.tally("q1", "c1")
    tally.lookup(m_keys=3, key_steps=3, matches=1)
    assert steps.tally("q1", "c1") is tally
    steps.tally("q1", "c1").lookup(m_keys=5, key_steps=5, matches=2)
    for agent, n in (("a1", 2), ("a2", 1), ("a1", 1)):
        tally.fetch(NodeId(agent), n_objects=n)
    tally.probe(store_size=8, n_objects=2)
    tally.probe(store_size=4, n_objects=1)
    steps.tally("q2", "c1").lookup(m_keys=1, key_steps=1, matches=0)
    assert list(steps.requests["q1"]) == ["c1"] and steps.requests["q1"]["c1"] is tally
    assert steps.requests["q2"]["c1"] is not tally
    assert (tally.m_keys, tally.key_steps, tally.p, tally.id_steps) == (5, 8, 3, 6)
    assert (tally.fetch_requests, tally.fetch_steps, tally.agents_contacted) == (3, 8, {"a1", "a2"})
    assert (tally.l_max, tally.probe_steps) == (8, 2 * 3 + 1 * 2)
    acct = steps.account_search("q1")
    # key 3+5, ids 2*(1+2), fetch 2*(2+1+1), probes 2*ceil(log2 8) + 1*ceil(log2 4)
    assert acct.measured == acct.decomposed == 8 + 6 + 8 + 8
    assert acct.bound == 1 * 5 * (4 * 3 + 3)
    assert acct.bound_applicable and acct.clusters == 1


_charges = st.lists(st.tuples(
    st.sampled_from(["q1", "q2", "q3"]), st.sampled_from(["c1", "c2", "c3"]),
    st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, 60), st.integers(0, 60), st.integers(0, 20)),
        st.tuples(st.just("fetch"), st.sampled_from(["a1", "a2", "a3"]), st.integers(0, 20)),
        st.tuples(st.just("probe"), st.integers(0, 300), st.integers(0, 20)))),
    max_size=40)


def _scratch_accounting(charges, rid):
    """``account_search(rid)`` recomputed from the charges alone."""
    per = {}
    for r, cluster, (kind, *args) in charges:
        if r != rid:
            continue
        c = per.setdefault(cluster, {"m": 0, "p": 0, "l": 0, "steps": 0})
        if kind == "lookup":
            m_keys, key_steps, matches = args
            c["m"] = max(c["m"], m_keys)
            c["p"] += matches
            c["steps"] += key_steps + 2 * matches
        elif kind == "fetch":
            c["steps"] += 2 * args[1]
        else:
            store_size, n = args
            c["l"] = max(c["l"], store_size)
            c["steps"] += n * clog2(store_size)
    steps = sum(c["steps"] for c in per.values())
    return (steps, steps, formula_bound([(c["m"], c["p"], c["l"]) for c in per.values()]),
            bool(per) and all(c["m"] >= 1 and c["p"] >= 1 for c in per.values()), len(per))


@settings(max_examples=200, deadline=None)
@given(_charges)
def test_tally_charges_and_by_id_charges_account_alike(charges):
    direct, by_id = StepCounter(), StepCounter()
    delegate = {"lookup": by_id.on_lookup, "fetch": by_id.on_fetch_request,
                "probe": by_id.on_probe}
    for rid, cluster, (kind, *args) in charges:
        if kind == "fetch":
            args[0] = NodeId(args[0])
        getattr(direct.tally(rid, cluster), kind)(*args)
        delegate[kind](rid, cluster, *args)
    for rid in ("q1", "q2", "q3"):
        if not any(r == rid for r, _, _ in charges):
            for counter in (direct, by_id):
                with pytest.raises(UnknownRequest):
                    counter.account_search(rid)
            continue
        got = [(a.measured, a.decomposed, a.bound, a.bound_applicable, a.clusters)
               for a in (direct.account_search(rid), by_id.account_search(rid))]
        assert got[0] == got[1] == _scratch_accounting(charges, rid)


def test_no_match_charges_key_scans_only():
    steps = StepCounter()
    steps.on_lookup("q", "c1", m_keys=4, key_steps=4, matches=0)
    steps.on_lookup("q", "c2", m_keys=2, key_steps=2, matches=0)
    acct = steps.account_search("q")
    assert acct.measured == acct.decomposed == 6
    assert not acct.bound_applicable


def test_unknown_request_raises():
    with pytest.raises(UnknownRequest):
        StepCounter().account_search("nope")


def test_message_counter():
    steps = StepCounter()
    assert steps.message_count("q") == 0
    steps.on_message("q")
    steps.on_message("q")
    assert steps.message_count("q") == 2


def test_formula_bound_multi_cluster_takes_maxima():
    assert formula_bound([]) == 0
    assert formula_bound([(3, 2, 8)]) == 33
    assert formula_bound([(3, 1, 2), (5, 2, 16)]) == 2 * 5 * (8 + 4)


def test_ideal_closed_form():
    import math
    for b in (64, 256, 1024):
        for n in (16, 64):
            expected = b * (4 + int(math.log2(2 * b // n)))
            assert ideal_search_steps(b, n) == expected
    assert ideal_search_steps(1024, 64) == 9216
    with pytest.raises(ValueError):
        ideal_search_steps(10, 4, clusters=3)


def test_timer_of_a_replaced_node_object_is_traced_but_not_run():
    sim, a, _ = two_nodes()
    sim.set_timer(a.node_id, "old", 5 * MS)
    successor = Recorder(a.node_id, a.locality)
    sim.nodes[a.node_id] = successor
    sim.set_timer(a.node_id, "new", 5 * MS)
    sim.run_until(10 * MS)
    assert [r.detail for r in sim.trace if r.kind == "timer"] == ["old", "new"]
    assert a.log == []
    assert successor.log == [(5 * MS, "timer", "new", None)]
    with pytest.raises(UnknownNode):
        sim.set_timer(NodeId("ghost"), "x", 1 * MS)


# -- multicast -------------------------------------------------------------


FAN_OUT = [NodeId(n) for n in ("b", "c", "far", "d", "world", "b")]


def send_to_each(sim, multicast: bool, dsts, msg):
    if multicast:
        sim.multicast(NodeId("a"), dsts, msg)
    else:
        for dst in dsts:
            sim.send(NodeId("a"), dst, msg)


def fan_out(multicast: bool, crashed=(), extra=()):
    """a sends one message to six destinations at mixed latencies, between
    two timers and a later send, by one multicast or by one send each."""
    sim = Simulator(NetworkModel(5 * MS, 10 * MS), trace=True)
    nodes = {name: Recorder(NodeId(name), locality) for name, locality in (
        ("a", loc()), ("b", loc()), ("c", loc()), ("far", loc(net="x")),
        ("d", loc()), ("world", loc(continent="na")), *extra)}
    for node in nodes.values():
        sim.add_node(node)
    for name in crashed:
        sim.inject_crash(NodeId(name), 0)
    sim.run_until(0)
    sim.set_timer(NodeId("b"), "t", 5 * MS)
    send_to_each(sim, multicast, FAN_OUT, Ping("q1", hop=1))
    sim.send(NodeId("a"), NodeId("c"), "later")
    sim.set_timer(NodeId("c"), "u", 5 * MS)
    return sim, nodes


def test_multicast_is_a_send_to_each_destination_in_order():
    sim, nodes = fan_out(multicast=True)
    # runs of consecutive destinations with one arrival time share an
    # entry, (seq, (src, dsts, msg)); the send is a flat (seq, src, dst, msg)
    bucket = sim._buckets[5 * MS]
    assert [(e[0], e[1][1]) for e in bucket if len(e) == 2] == [
        (1, ("b", "c")), (4, ("d",)), (6, ("b",))]
    assert [e for e in bucket if len(e) == 4] == [(7, "a", "c", "later")]
    sim.run_until(100 * MS)
    ref, ref_nodes = fan_out(multicast=False)
    ref.run_until(100 * MS)
    assert sim.trace_lines() == ref.trace_lines()
    assert sim.trace_lines("jsonl") == ref.trace_lines("jsonl")
    assert sim.deliver_count == ref.deliver_count == 7
    assert sim.steps.messages == ref.steps.messages == {"q1": 6}
    assert {n: node.log for n, node in nodes.items()} == {
        n: node.log for n, node in ref_nodes.items()}
    order = [(r.time, r.seq) for r in sim.trace]
    assert order == sorted(set(order)) and sim._seq == ref._seq


def unicast_traffic(multicast: bool):
    """a sends to b, to d and to the crashed c, one destination at a time,
    by ``send`` or by a one-destination ``multicast``. b answers ``m1``
    the same way and raises on ``boom`` in the middle of its bucket; the
    run is resumed after the error."""
    def out(sim, src, dst, msg):
        if multicast:
            sim.multicast(NodeId(src), [NodeId(dst)], msg)
        else:
            sim.send(NodeId(src), NodeId(dst), msg)

    def boom(sim):
        raise RuntimeError("boom")

    sim = Simulator(NetworkModel(5 * MS, 10 * MS), trace=True)
    nodes = {"a": Recorder(NodeId("a"), loc()),
             "b": Scripted(NodeId("b"), loc(), {
                 "m1": lambda s: out(s, "b", "a", Ping("q2", hop=2)), "boom": boom}),
             "c": Recorder(NodeId("c"), loc()),
             "d": Recorder(NodeId("d"), loc(net="x"))}
    for node in nodes.values():
        sim.add_node(node)
    sim.inject_crash(NodeId("c"), 0)
    sim.run_until(0)
    for dst, msg in (("d", Ping("q1", hop=1)), ("c", Ping("q3")), ("b", "m1"),
                     ("b", "boom"), ("b", "m2"), ("c", "gone"), ("d", "last")):
        out(sim, "a", dst, msg)
    sim.set_timer(NodeId("b"), "t", 5 * MS)
    shapes = {len(e) for e in sim._buckets[5 * MS]}
    with pytest.raises(RuntimeError):
        sim.run_until(100 * MS)
    assert sim.clock == 5 * MS
    del nodes["b"].react["boom"]
    sim.run_until(100 * MS)
    return sim, nodes, shapes


def test_a_send_and_a_one_destination_multicast_are_the_same_traffic():
    sim, nodes, shapes = unicast_traffic(multicast=False)
    ref, ref_nodes, ref_shapes = unicast_traffic(multicast=True)
    # a send is one flat entry; a multicast queues a run of one
    assert shapes == {4, 5} and ref_shapes == {2, 5}
    assert sim.trace_lines() == ref.trace_lines()
    assert sim.trace_lines("jsonl") == ref.trace_lines("jsonl")
    assert [r.seq for r in sim.trace] == [r.seq for r in ref.trace]
    assert sim._seq == ref._seq and sim.deliver_count == ref.deliver_count == 8
    assert sim.steps.messages == ref.steps.messages == {"q1": 1, "q2": 1, "q3": 1}
    assert {n: node.log for n, node in nodes.items()} == {
        n: node.log for n, node in ref_nodes.items()}
    # both drops bounced, a unicast each; b took m2 after the error
    kinds = [(r.kind, r.node, r.detail) for r in sim.trace if r.kind in ("deliver", "drop")]
    assert kinds == [
        ("drop", "c", "Ping:q3"), ("deliver", "b", "str::a"),
        ("deliver", "b", "str::a"), ("deliver", "b", "str::a"), ("drop", "c", "str:"),
        ("deliver", "a", "SendFailed:q3:c"), ("deliver", "a", "Ping:q2:b"),
        ("deliver", "a", "SendFailed::c"), ("deliver", "d", "Ping:q1:a"),
        ("deliver", "d", "str::a")]
    assert seen(nodes["b"]) == [(5 * MS, "m1"), (5 * MS, "boom"), (5 * MS, "m2"),
                                (5 * MS, "t")]


def test_a_crashed_destination_in_a_run_is_dropped_and_bounced_alone():
    sim, nodes = fan_out(multicast=True, crashed=("c",))
    sim.run_until(100 * MS)
    ref, _ = fan_out(multicast=False, crashed=("c",))
    ref.run_until(100 * MS)
    assert sim.trace_lines() == ref.trace_lines()
    drops = [(r.node, r.msg_type) for r in sim.trace if r.kind == "drop"]
    assert drops == [("c", "Ping"), ("c", "str")]
    bounces = [m for _, k, m, _ in nodes["a"].log if k == "msg"]
    assert [(type(m).__name__, m.original, m.dead) for m in bounces] == [
        ("SendFailed", Ping("q1", hop=1), "c"), ("SendFailed", "later", "c")]
    assert [n for n in ("b", "far", "d", "world")
            if not any(k == "msg" for _, k, _, _ in nodes[n].log)] == []
    assert sim.deliver_count == 5 + 2  # four live nodes, b twice; two bounces


def test_a_list_sent_again_later_reuses_its_runs(monkeypatch):
    def run(multicast):
        sim, _ = fan_out(multicast)
        sim.run_until(20 * MS)  # between the first round's arrivals
        if multicast:
            runs = sim._runs[NodeId("a"), tuple(FAN_OUT)]
            # the second round does no per-destination work
            monkeypatch.setattr(sim, "_latency", None)
        send_to_each(sim, multicast, FAN_OUT, Ping("q2", hop=1))
        if multicast:
            monkeypatch.undo()
            assert list(sim._runs) == [(NodeId("a"), tuple(FAN_OUT))]
            assert sim._runs[NodeId("a"), tuple(FAN_OUT)] is runs
        sim.run_until(100 * MS)
        return sim

    sim, ref = run(multicast=True), run(multicast=False)
    assert sim.trace_lines() == ref.trace_lines()
    assert sim.trace_lines("jsonl") == ref.trace_lines("jsonl")
    assert sim.deliver_count == ref.deliver_count == 13 and sim._seq == ref._seq


def test_a_list_with_one_member_more_or_less_gets_runs_of_its_own():
    lists = [FAN_OUT, [*FAN_OUT[:3], NodeId("e"), *FAN_OUT[3:]], FAN_OUT[:-1], FAN_OUT[1:]]

    def run(multicast):
        sim, _ = fan_out(multicast, extra=(("e", loc(asd="as2")),))
        for i, dsts in enumerate(lists):
            sim.run_until((i + 1) * 7 * MS)
            send_to_each(sim, multicast, dsts, Ping(f"q{i + 2}", hop=1))
        sim.run_until(200 * MS)
        return sim

    sim, ref = run(multicast=True), run(multicast=False)
    assert sim.trace_lines() == ref.trace_lines()
    assert sorted(sim._runs) == sorted((NodeId("a"), tuple(d)) for d in lists)
    assert [len(sim._runs[NodeId("a"), tuple(d)]) for d in lists] == [5, 6, 4, 5]


def test_multicast_to_an_unknown_node_queues_nothing():
    sim, a, b = two_nodes()
    with pytest.raises(UnknownNode) as err:
        sim.multicast(a.node_id, [b.node_id, NodeId("ghost"), b.node_id], "x")
    assert err.value.args == (NodeId("ghost"),)
    assert sim._seq == 0 and sim._heap == [] and sim._buckets == {}
    assert sim._runs == {}  # nor memoizes: the same list raises again
    with pytest.raises(UnknownNode):
        sim.multicast(a.node_id, [b.node_id, NodeId("ghost"), b.node_id], "x")
    sim.multicast(a.node_id, [], "x")
    assert sim._seq == 0 and sim._heap == []


def test_a_crashed_node_multicasts_nothing():
    sim, a, b = two_nodes()
    sim.inject_crash(a.node_id, 0)
    sim.run_until(1 * MS)
    seq = sim._seq
    sim.multicast(a.node_id, [b.node_id, b.node_id], "x")
    assert sim._seq == seq and sim._heap == [] and sim._runs == {}
    sim.run_until(60 * MS)
    assert b.log == [] and [r.kind for r in sim.trace] == ["crash"]
