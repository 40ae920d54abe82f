"""Cluster lifecycle policy rules: join selection, deterministic voting,
split partitioning, merge-partner choice and failure detection."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from disthash.core import LocalityDescriptor, NodeId
from disthash.membership import (HeartbeatConfig, EmptyElectorate,
                                 NoCandidates, NoMergeTarget, Thresholds,
                                 choose_merge_target, detect_failures,
                                 elect_agent, join_select_ragent,
                                 split_partition)


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
