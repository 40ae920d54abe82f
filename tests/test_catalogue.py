"""Meta-data catalogue behavior checked against an independent
linear-scan oracle, plus the split/merge conservation rules."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disthash.catalogue import (REPLICATION_FACTOR, AgentLoadTable,
                                ConflictingObject, DuplicateObject,
                                MetaCatalogue, NotAHolder, UnknownObject,
                                clog2)
from disthash.core import KeyKind, NodeId, PatternKey, derive_object_id


def oid(n: int):
    return derive_object_id(n.to_bytes(4, "big"))


def nid(name: str):
    return NodeId(name)


def exact(tag):
    return PatternKey(KeyKind.EXACT_TYPE, tag)


def pattern(key):
    return PatternKey(KeyKind.PATTERN, key)


def test_clog2_table():
    expected = {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
    for x, want in expected.items():
        assert clog2(x) == want, x
    # around every power of two, where a float log2 rounds wrong from 2**49 + 1
    for k in range(1, 120):
        assert (clog2(2**k - 1), clog2(2**k), clog2(2**k + 1)) == (k, k, k + 1), k


def test_insert_and_exact_lookup():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    assert cat.key_count == 1
    found, steps = cat.lookup(exact("A"))
    assert found == [(oid(1), nid("a1"))]
    assert steps == clog2(1)


def test_insert_indexes_both_key_kinds():
    cat = MetaCatalogue()
    cat.insert(oid(2), "B", ("hot",), [nid("a1")])
    assert cat.lookup(exact("B"))[0] == [(oid(2), nid("a1"))]
    assert cat.lookup(pattern("hot"))[0] == [(oid(2), nid("a1"))]
    assert cat.lookup(pattern("B"))[0] == []  # kinds do not cross-match


def test_insert_rejects_duplicates_and_bad_holders():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1")])
    with pytest.raises(DuplicateObject):
        cat.insert(oid(1), "A", (), [nid("a2")])
    with pytest.raises(ValueError):
        cat.insert(oid(2), "A", (), [])
    with pytest.raises(ValueError):
        cat.insert(oid(3), "A", (), [nid("a1"), nid("a1")])


def test_empty_catalogue_lookup():
    cat = MetaCatalogue()
    assert cat.lookup(exact("A")) == ([], 0)
    assert cat.lookup(pattern("k")) == ([], 0)


def test_lookup_step_charges():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", ("k1", "k2"), [nid("a1")])
    cat.insert(oid(2), "B", ("k1",), [nid("a2")])
    m = cat.key_count
    assert m == 4  # A, B, k1, k2
    assert cat.lookup(pattern("k1"))[1] == m
    assert cat.lookup(exact("A"))[1] == clog2(m)
    assert cat.lookup(pattern("nope"))[1] == m  # a miss still scans


def test_two_entry_lookup_oracle():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    cat.insert(oid(2), "B", (), [nid("a2"), nid("a3")])
    assert cat.lookup(exact("A"))[0] == [(oid(1), nid("a1"))]


def test_set_owner():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    cat.set_owner(oid(1), nid("a2"))
    assert cat.holders_of(oid(1)) == [nid("a2"), nid("a1")]
    cat.set_owner(oid(1), nid("a2"))  # idempotent
    assert cat.holders_of(oid(1)) == [nid("a2"), nid("a1")]
    with pytest.raises(NotAHolder):
        cat.set_owner(oid(1), nid("a3"))


def test_holders_round_trip():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    assert cat.holders_of(oid(1)) == [nid("a1"), nid("a2")]
    assert cat.owner_of(oid(1)) == nid("a1")
    with pytest.raises(UnknownObject):
        cat.holders_of(oid(9))


def test_add_and_remove_holder():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    cat.add_holder(oid(1), nid("a3"))
    assert cat.holders_of(oid(1)) == [nid("a1"), nid("a2"), nid("a3")]
    with pytest.raises(ValueError):
        cat.add_holder(oid(1), nid("a3"))
    cat.remove_holder(oid(1), nid("a2"))
    assert cat.holders_of(oid(1)) == [nid("a1"), nid("a3")]
    with pytest.raises(ValueError):
        cat.remove_holder(oid(1), nid("a1"))  # owner can't be dropped
    with pytest.raises(NotAHolder):
        cat.remove_holder(oid(1), nid("a9"))


def test_remove_agent_orphans():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1"), nid("a2")])
    orphans = cat.remove_agent(nid("a1"))
    assert orphans == [(oid(1), [nid("a2")])]
    assert cat.owner_of(oid(1)) == nid("a2")
    # an agent holding nothing changes nothing
    assert cat.remove_agent(nid("a9")) == []
    # losing the last holder removes the entry
    orphans = cat.remove_agent(nid("a2"))
    assert orphans == [(oid(1), [])]
    assert oid(1) not in cat
    assert cat.key_count == 0


def test_remove_object_cleans_keys():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", ("k",), [nid("a1")])
    cat.insert(oid(2), "A", (), [nid("a1")])
    cat.remove_object(oid(1))
    assert cat.key_count == 1  # "A" survives via oid(2), "k" is gone
    assert cat.lookup(pattern("k"))[0] == []
    with pytest.raises(UnknownObject):
        cat.remove_object(oid(1))


def test_split_owner_side_rule():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a3"), nid("a1")])  # owner moves
    keep, move = cat.split({nid("a1")}, {nid("a3")})
    assert len(keep) == 0 and len(move) == 1
    assert move.holders_of(oid(1)) == [nid("a3"), nid("a1")]


def test_split_conservation_and_validation():
    cat = MetaCatalogue()
    for i in range(10):
        owner = nid(f"a{i % 4 + 1}")
        other = nid(f"a{(i + 1) % 4 + 1}")
        cat.insert(oid(i), f"T{i}", (), [owner, other])
    keep, move = cat.split({nid("a1"), nid("a2")}, {nid("a3"), nid("a4")})
    assert len(keep) + len(move) == len(cat)
    assert keep.object_ids() | move.object_ids() == cat.object_ids()
    with pytest.raises(ValueError):
        cat.split({nid("a1")}, {nid("a1")})
    with pytest.raises(ValueError):
        cat.split({nid("a1")}, {nid("a2")})  # a3, a4 uncovered


def test_split_all_owners_kept():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", (), [nid("a1")])
    keep, move = cat.split({nid("a1")}, {nid("a2")})
    assert len(keep) == 1 and len(move) == 0


def test_merge_union_and_conflict():
    a, b = MetaCatalogue(), MetaCatalogue()
    for i in range(3):
        a.insert(oid(i), f"T{i}", (), [nid("a1")])
    for i in range(3, 5):
        b.insert(oid(i), f"T{i}", (), [nid("b1")])
    a.merge(b)
    assert len(a) == 5
    a.merge(MetaCatalogue())  # identity
    assert len(a) == 5
    clash = MetaCatalogue()
    clash.insert(oid(0), "X", (), [nid("c1")])
    with pytest.raises(ConflictingObject):
        a.merge(clash)


def test_copy_and_equality():
    cat = MetaCatalogue()
    cat.insert(oid(1), "A", ("k",), [nid("a1"), nid("a2")])
    dup = cat.copy()
    assert dup == cat
    dup.set_owner(oid(1), nid("a2"))
    assert dup != cat


def test_randomized_lookup_matches_linear_scan_oracle():
    rng = random.Random(7)
    cat = MetaCatalogue()
    corpus = []  # (oid, type_tag, index_keys)
    agents = [nid(f"a{i}") for i in range(6)]
    tags = [f"t{i}" for i in range(12)]
    keys = [f"k{i}" for i in range(8)]
    for i in range(200):
        tag = rng.choice(tags)
        idx = tuple(sorted(set(rng.sample(keys, rng.randint(0, 3)))))
        holders = rng.sample(agents, 2)
        cat.insert(oid(1000 + i), tag, idx, holders)
        corpus.append((oid(1000 + i), tag, idx, holders[0]))

    def scan(criterion):
        out = []
        for o, tag, idx, owner in corpus:
            hit = (tag == criterion.key if criterion.kind is KeyKind.EXACT_TYPE
                   else criterion.key in idx)
            if hit:
                out.append((o, owner))
        return sorted(out)

    all_keys = {k for _, _, idx, _ in corpus for k in idx}
    all_tags = {tag for _, tag, _, _ in corpus}
    m = len(all_keys) + len(all_tags)
    assert cat.key_count == m
    for criterion in ([exact(t) for t in tags] + [pattern(k) for k in keys]
                      + [exact("none"), pattern("none")]):
        found, steps = cat.lookup(criterion)
        assert found == scan(criterion)
        assert steps == (clog2(m) if criterion.kind is KeyKind.EXACT_TYPE else m)


AGENTS = [nid(f"a{i}") for i in range(5)]
MUTATIONS = ("insert", "remove_object", "set_owner", "add_holder",
             "remove_holder", "remove_agent")


def draw_mutation(data, cat: MetaCatalogue, serial: int) -> None:
    """Apply one random valid mutation to ``cat``."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    ids = sorted(cat.object_ids())
    if kind == "insert" or not ids:
        holders = data.draw(st.lists(st.sampled_from(AGENTS), min_size=1,
                                     max_size=3, unique=True))
        keys = data.draw(st.lists(st.sampled_from(["k1", "k2", "k3"])))
        cat.insert(oid(serial), data.draw(st.sampled_from("AB")), keys, holders)
        return
    if kind == "remove_agent":
        cat.remove_agent(data.draw(st.sampled_from(AGENTS)))
        return
    o = data.draw(st.sampled_from(ids))
    hl = cat.holders_of(o)
    if kind == "remove_object":
        cat.remove_object(o)
    elif kind == "set_owner":
        cat.set_owner(o, data.draw(st.sampled_from(hl)))
    elif kind == "add_holder" and len(hl) < len(AGENTS):
        cat.add_holder(o, data.draw(st.sampled_from(
            [a for a in AGENTS if a not in hl])))
    elif kind == "remove_holder" and len(hl) > 1:
        cat.remove_holder(o, data.draw(st.sampled_from(hl[1:])))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_journal_replay_from_any_cut_rebuilds_the_catalogue(data):
    cat = MetaCatalogue()
    cat.journal = []
    cuts = [(cat.copy(), 0)]  # (state, journal length) before each mutation
    for serial in range(data.draw(st.integers(0, 40))):
        before = len(cat.journal)
        draw_mutation(data, cat, serial)
        assert len(cat.journal) - before <= 1  # remove_agent is one entry
        cuts.append((cat.copy(), len(cat.journal)))
    ops = cat.take_journal()
    assert cat.journal == []
    for state, cut in cuts:
        assert state.journal is None
        state.replay(ops[cut:])
        assert state == cat  # holder lists compared in order
        assert state.entries == cat.entries
        assert state.journal is None  # replaying records nothing
    # catalogues derived from a journaled one do not journal
    keep, move = cat.split(set(AGENTS[:2]), set(AGENTS[2:]))
    payload = keep.copy()
    assert payload.journal is None
    assert keep.journal is None and move.journal is None
    move.merge(payload)
    assert move.journal is None and payload.journal is None


def short_by_scan(cat: MetaCatalogue) -> set:
    return {o for o, hl in cat.holders.items() if len(hl) < REPLICATION_FACTOR}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_under_replicated_set_matches_a_scan_after_every_mutation(data):
    cat = MetaCatalogue()
    cat.journal = []
    start = cat.copy()
    for serial in range(data.draw(st.integers(0, 40))):
        draw_mutation(data, cat, serial)
        assert cat.under_replicated == short_by_scan(cat)
    # replay, copy, split and merge go through the same methods
    start.replay(cat.take_journal())
    assert start.under_replicated == short_by_scan(start) == cat.under_replicated
    dup = cat.copy()
    assert dup.under_replicated == cat.under_replicated
    keep, move = cat.split(set(AGENTS[:2]), set(AGENTS[2:]))
    assert keep.under_replicated == short_by_scan(keep)
    assert move.under_replicated == short_by_scan(move)
    assert keep.under_replicated | move.under_replicated == cat.under_replicated
    move.merge(keep)
    assert move.under_replicated == short_by_scan(move) == cat.under_replicated


def test_merge_into_a_journaled_catalogue_logs_inserts():
    cat = MetaCatalogue()
    cat.journal = []
    other = MetaCatalogue()
    other.insert(oid(1), "A", ("k",), [nid("a1"), nid("a2")])
    cat.merge(other)
    assert cat.take_journal() == (
        ("insert", oid(1), "A", ("k",), (nid("a1"), nid("a2"))),)


def test_load_table():
    t = AgentLoadTable([nid("a1"), nid("a2")])
    t.bump(nid("a1"))
    t.bump(nid("a1"))
    assert t.get(nid("a1")) == 2 and t.get(nid("a2")) == 0
    t.bump(nid("a1"), -2)
    with pytest.raises(ValueError):
        t.bump(nid("a1"), -1)
    t.add_agent(nid("a1"))  # idempotent, keeps count
    assert t.get(nid("a1")) == 0
    dup = t.copy()
    assert dup == t
    t.drop_agent(nid("a2"))
    assert dup != t
