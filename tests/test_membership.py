"""Cluster lifecycle policy rules: join selection, deterministic voting,
split partitioning, merge-partner choice and failure detection; and the
set-up placement of declared agents, which applies the join rule."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disthash import membership
from disthash.core import LocalityDescriptor, NodeId, Role
from disthash.membership import (HeartbeatConfig, EmptyElectorate,
                                 NoCandidates, NoMergeTarget, Thresholds,
                                 choose_merge_target, closest_ragents,
                                 detect_failures, elect_agent,
                                 join_select_ragent, least_loaded,
                                 split_partition)
from disthash.runner import build_simulation
from disthash.scenario import NodeDecl, Scenario


def loc(net="n1", asd="as1", country="ro", continent="eu"):
    return LocalityDescriptor(net, asd, country, continent)


def nid(name):
    return NodeId(name)


def test_thresholds_validation():
    Thresholds(2, 8)
    with pytest.raises(ValueError):
        Thresholds(0, 8)
    with pytest.raises(ValueError):
        Thresholds(8, 8)


def test_heartbeat_validation():
    HeartbeatConfig(500, 1000)
    with pytest.raises(ValueError):
        HeartbeatConfig(0, 1000)
    with pytest.raises(ValueError):
        HeartbeatConfig(500, 999)


def test_join_prefers_proximity_then_load():
    joiner = loc()
    candidates = [
        (nid("r1"), loc(), 10),                 # rank 4, busy
        (nid("r2"), loc(), 4),                  # rank 4, lighter
        (nid("r3"), loc(continent="na"), 2),    # rank 0 despite low load
    ]
    assert join_select_ragent(candidates, joiner) == nid("r2")


def test_join_rank_cases_from_counts():
    joiner = loc()
    # ranks [3,3,1], counts [10,4,2] -> the rank-3 candidate with count 4
    candidates = [
        (nid("r1"), loc(net="other"), 10),
        (nid("r2"), loc(net="other2"), 4),
        (nid("r3"), loc(asd="a2", net="x"), 2),
    ]
    assert join_select_ragent(candidates, joiner) == nid("r2")


def test_join_single_and_ties_and_empty():
    joiner = loc()
    assert join_select_ragent([(nid("r9"), loc(continent="na"), 5)], joiner) == nid("r9")
    tied = [(nid("r2"), loc(), 3), (nid("r1"), loc(), 3)]
    assert join_select_ragent(tied, joiner) == nid("r1")
    with pytest.raises(NoCandidates):
        join_select_ragent([], joiner)


def count_ranks(monkeypatch) -> list:
    """Count the proximity ranks the membership rules compute."""
    calls = []
    rank = membership.proximity_rank
    monkeypatch.setattr(membership, "proximity_rank",
                        lambda a, b: calls.append(1) or rank(a, b))
    return calls


def test_closest_ragents_ranks_each_candidate_once(monkeypatch):
    calls = count_ranks(monkeypatch)
    candidates = [
        (nid("r3"), loc(net="x"), 0),           # rank 3
        (nid("r1"), loc(), 7),                  # rank 4
        (nid("r2"), loc(continent="na"), 0),    # rank 0
        (nid("r0"), loc(), 9),                  # rank 4
    ]
    assert closest_ragents(candidates, loc()) == [candidates[1], candidates[3]]
    assert len(calls) == len(candidates)
    assert least_loaded(candidates) == nid("r2")  # (0, r2) < (0, r3)
    with pytest.raises(NoCandidates):
        closest_ragents([], loc())


def sequential_placement(sc: Scenario) -> dict:
    """Oracle: each declared agent joins on its own, in declaration order,
    through join_select_ragent over every super-peer."""
    ragents = [d for d in sc.nodes if d.role is Role.RAGENT]
    counts = {d.name: 0 for d in ragents}
    placed = {}
    for d in sc.nodes:
        if d.role is Role.AGENT:
            choice = join_select_ragent(
                [(nid(r.name), r.locality, counts[r.name]) for r in ragents], d.locality)
            counts[choice] += 1
            placed[d.name] = choice
    return placed


def assert_placed_as_joins(sc: Scenario, res) -> None:
    placed = sequential_placement(sc)
    for name, rid in placed.items():
        assert res.sim.nodes[name].ragent == rid, name
    for d in sc.nodes:
        if d.role is Role.RAGENT:
            members = {a for a, rid in placed.items() if rid == d.name}
            assert res.sim.nodes[d.name].members == members


# two values per tier: shared localities, distinct ones and rank ties
tiers = st.tuples(*[st.sampled_from(["x", "y"])] * 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_places_agents_as_one_at_a_time_joins(data):
    n_ragents = data.draw(st.integers(1, 6))
    # declared in a shuffled order, so declaration order and id order differ
    ragent_ids = data.draw(st.permutations(range(n_ragents)))
    sc = Scenario()
    sc.nodes = [NodeDecl(f"r{i}", Role.RAGENT, LocalityDescriptor(*data.draw(tiers)))
                for i in ragent_ids]
    sc.nodes += [NodeDecl(f"a{i}", Role.AGENT, LocalityDescriptor(*data.draw(tiers)))
                 for i in range(data.draw(st.integers(0, 40)))]
    assert_placed_as_joins(sc, build_simulation(sc))


def test_build_ranks_once_per_distinct_locality(monkeypatch):
    """4,000 agents under 16 super-peers, in 8 localities: the placement
    ranks at most (distinct agent localities x super-peers) pairs."""
    places = [LocalityDescriptor(f"net{k}", f"as{k // 2}", f"c{k // 4}", "eu")
              for k in range(8)]
    sc = Scenario()
    sc.nodes = [NodeDecl(f"r{i:02d}", Role.RAGENT, places[i % 8]) for i in range(16)]
    # equal, not shared, descriptors: the placement keys localities by value
    sc.nodes += [NodeDecl(f"a{i:04d}", Role.AGENT, replace(places[i % 8]))
                 for i in range(4000)]
    calls = count_ranks(monkeypatch)
    res = build_simulation(sc)
    assert len(calls) <= 8 * 16
    monkeypatch.undo()
    assert sorted(len(res.sim.nodes[f"r{i:02d}"].members) for i in range(16)) == [250] * 16
    assert_placed_as_joins(sc, res)


def test_elect_agent_deterministic():
    members = {nid("a7"), nid("a3"), nid("a9")}
    assert elect_agent(members) == nid("a3")
    assert elect_agent(list(members)) == elect_agent(members)
    assert elect_agent({nid("z")}) == nid("z")
    with pytest.raises(EmptyElectorate):
        elect_agent([])


def test_split_partition_halves():
    eight = [nid(f"a{i}") for i in range(8)]
    keep, move = split_partition(eight)
    assert len(keep) == 4 and len(move) == 4
    nine = [nid(f"a{i}") for i in range(9)]
    keep, move = split_partition(nine)
    assert len(keep) == 5 and len(move) == 4
    assert keep == sorted(nine)[:5] and move == sorted(nine)[5:]


def test_choose_merge_target():
    clusters = [(nid("r1"), 5), (nid("r2"), 3), (nid("r3"), 3)]
    # the fewest-membered peer above the caller by (members, id)
    assert choose_merge_target(clusters, (nid("r9"), 1)) == nid("r2")
    assert choose_merge_target(clusters, (nid("r2"), 3)) == nid("r3")
    assert choose_merge_target(clusters, (nid("r4"), 3)) == nid("r1")
    for own in ((nid("r1"), 5), (nid("r4"), 5)):
        with pytest.raises(NoMergeTarget):
            choose_merge_target(clusters, own)
    with pytest.raises(NoMergeTarget):
        choose_merge_target([], (nid("r1"), 1))


@given(st.dictionaries(st.sampled_from([f"r{i}" for i in range(8)]),
                       st.integers(min_value=0, max_value=4), min_size=1))
def test_merge_targets_only_go_up_so_no_two_clusters_choose_each_other(sizes):
    clusters = [(nid(r), n) for r, n in sorted(sizes.items())]
    top = max((n, rid) for rid, n in clusters)
    choice = {}
    for rid, n in clusters:
        peers = [c for c in clusters if c[0] != rid]
        if (n, rid) == top:
            with pytest.raises(NoMergeTarget):
                choose_merge_target(peers, (rid, n))
            continue
        target = choice[rid] = choose_merge_target(peers, (rid, n))
        # above the caller, with no peer between the two
        assert (n, rid) < (sizes[target], target)
        assert not any((n, rid) < (m, p) < (sizes[target], target) for p, m in peers)
    assert all(choice.get(target) != rid for rid, target in choice.items())


def test_detect_failures():
    period, timeout = 500, 1250  # timeout 2.5x the period
    now = 3 * period
    last_seen = {nid("a1"): now, nid("a2"): 0, nid("a3"): now - timeout}
    assert detect_failures(now, last_seen, timeout) == [nid("a2")]
    assert detect_failures(100, {nid("a1"): 100}, timeout) == []
    overdue = {nid("b"): 0, nid("a"): 0}
    assert detect_failures(10_000, overdue, timeout) == [nid("a"), nid("b")]
