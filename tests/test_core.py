"""Identifier derivation, canonical encoding, search keys and the
proximity metric."""
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from disthash.core import (ID_BYTES, DistObject, KeyKind, LocalityDescriptor,
                           NodeId, NodeSet, ObjectId, PatternKey,
                           canonical_encode, derive_object_id, make_object,
                           proximity_rank)

short_text = st.text(min_size=0, max_size=8)
key_lists = st.lists(st.text(min_size=1, max_size=6), max_size=5)


def loc(net="n1", asd="as1", country="ro", continent="eu"):
    return LocalityDescriptor(net, asd, country, continent)


# -- canonical encoding ------------------------------------------------


@given(short_text, key_lists, st.binary(max_size=32))
def test_encode_is_deterministic(tag, keys, payload):
    assert canonical_encode(tag, keys, payload) == canonical_encode(tag, keys, payload)


@given(short_text, st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=5, unique=True), st.binary(max_size=32))
def test_encode_ignores_key_order(tag, keys, payload):
    assert canonical_encode(tag, keys, payload) == canonical_encode(tag, list(reversed(keys)), payload)


def test_encode_payload_injective_over_corpus():
    seen = {}
    for tag in ("a", "b", ""):
        for keys in ((), ("k",), ("k", "l")):
            for payload in (b"", b"x", b"xy", b"\x00"):
                enc = canonical_encode(tag, keys, payload)
                assert enc not in seen, (tag, keys, payload, seen[enc])
                seen[enc] = (tag, keys, payload)


def test_encode_separates_keys_from_tag_and_payload():
    # the length-prefixed layout must not let fields bleed into each other
    assert canonical_encode("ab", (), b"") != canonical_encode("a", ("b",), b"")
    assert canonical_encode("", ("ab",), b"") != canonical_encode("", ("a", "b"), b"")
    assert canonical_encode("", ("a",), b"b") != canonical_encode("", (), b"ab")


@given(short_text, key_lists, st.binary(max_size=16), st.binary(max_size=16))
def test_encode_distinguishes_payloads(tag, keys, p1, p2):
    if p1 != p2:
        assert canonical_encode(tag, keys, p1) != canonical_encode(tag, keys, p2)


# -- object ids --------------------------------------------------------


def test_id_width_and_determinism():
    a = derive_object_id(b"hello")
    assert len(a) == ID_BYTES
    assert a == derive_object_id(b"hello")
    big = derive_object_id(b"x" * 100_000)
    assert len(big) == ID_BYTES


def test_id_collision_scan():
    ids = {derive_object_id(i.to_bytes(4, "big")) for i in range(10_000)}
    assert len(ids) == 10_000


def test_id_rejects_empty_and_bad_width():
    with pytest.raises(ValueError):
        derive_object_id(b"")
    for value in (b"short", b"", b"\x01" * (ID_BYTES - 1), b"\x01" * (ID_BYTES + 1)):
        with pytest.raises(ValueError):
            ObjectId(value)


def test_id_orders_as_its_bytes():
    ids = [derive_object_id(i.to_bytes(4, "big")) for i in range(1_000)]
    assert sorted(ids) == sorted(ids, key=bytes)
    assert all(isinstance(i, ObjectId) for i in sorted(ids))


def test_id_rebuilt_from_its_bytes_is_the_same_key():
    a = derive_object_id(b"hello")
    again = ObjectId(bytes(a))
    assert again == a and hash(again) == hash(a)
    assert {a: "entry"}[again] == "entry"


def test_id_repr_shows_first_twelve_hex():
    a = derive_object_id(b"hello")
    assert repr(a) == f"ObjectId({bytes(a).hex()[:12]})"
    assert str(a) == f"{a}" == repr(a)
    assert a.hex() == bytes(a).hex() and len(a.hex()) == 2 * ID_BYTES


def test_make_object_sorts_and_dedupes_keys():
    obj = make_object("sensor", ["b", "a", "b"], b"p")
    assert obj.index_keys == ("a", "b")
    assert obj.version == 0
    assert obj == make_object("sensor", ("a", "b"), b"p")


def test_pattern_keys_cover_type_and_indexes():
    obj = make_object("sensor", ["k1", "k2"], b"")
    assert obj.pattern_keys() == [
        PatternKey(KeyKind.EXACT_TYPE, "sensor"),
        PatternKey(KeyKind.PATTERN, "k1"),
        PatternKey(KeyKind.PATTERN, "k2"),
    ]


# -- search keys -------------------------------------------------------

pattern_keys = st.tuples(st.sampled_from(KeyKind), short_text)


@given(pattern_keys, pattern_keys)
def test_pattern_key_equality_hash_and_order_are_the_pairs(x, y):
    a, b = PatternKey(*x), PatternKey(*y)
    assert (a == b) == (x == y)
    assert (a < b) == (x < y) and (a <= b) == (x <= y)
    assert hash(a) == hash(x)
    assert sorted([a, b]) == sorted([x, y])
    assert len({a, b, x, y}) == len({x, y})


def test_pattern_key_equals_its_bare_pair():
    # a tuple since the catalogue index hashes keys in C; a dataclass
    # key never equalled a tuple
    key = PatternKey(KeyKind.EXACT_TYPE, "sensor")
    assert key == (KeyKind.EXACT_TYPE, "sensor") and key == ("exact", "sensor")
    assert {key: 1}[(KeyKind.EXACT_TYPE, "sensor")] == 1
    assert key != PatternKey(KeyKind.PATTERN, "sensor")


def test_pattern_key_is_an_immutable_named_value():
    key = PatternKey(KeyKind.PATTERN, "k1")
    assert (key.kind, key.key) == (KeyKind.PATTERN, "k1")
    assert repr(key) == "PatternKey(kind=<KeyKind.PATTERN: 'pattern'>, key='k1')"
    for field in ("kind", "key", "other"):
        with pytest.raises(AttributeError):
            setattr(key, field, "x")
    assert key == PatternKey(KeyKind.PATTERN, "k1")
    back = pickle.loads(pickle.dumps(key))
    assert back == key and type(back) is PatternKey and back.kind is KeyKind.PATTERN


def test_with_payload_keeps_identity():
    obj = make_object("t", (), b"old")
    new = obj.with_payload(b"new", 3)
    assert new.id == obj.id and new.payload == b"new" and new.version == 3
    assert isinstance(new, DistObject)


# -- node ids ----------------------------------------------------------


def test_node_id_is_its_name():
    a1 = NodeId("a1")
    assert isinstance(a1, str) and a1 == "a1" and str(a1) == "a1"
    assert repr(a1) == "NodeId(a1)"
    assert not hasattr(a1, "role") and not hasattr(a1, "__dict__")


@given(short_text, short_text)
def test_node_id_equality_hash_and_order_are_the_strings(x, y):
    a, b = NodeId(x), NodeId(y)
    assert (a == b) == (x == y) and (a == y) == (x == y)
    assert (a < b) == (x < y) and (a <= b) == (x <= y)
    assert hash(a) == hash(x)
    assert sorted([a, b]) == sorted([x, y])
    assert len({a, b, x, y}) == len({x, y})


# -- locality ----------------------------------------------------------


def test_locality_requires_all_tiers():
    with pytest.raises(ValueError):
        LocalityDescriptor("", "as", "c", "e")


def test_proximity_rank_cases():
    assert proximity_rank(loc(), loc()) == 4
    # same continent+country, different AS
    assert proximity_rank(loc(asd="as1"), loc(asd="as2")) == 2
    assert proximity_rank(loc(continent="eu"), loc(continent="na")) == 0
    # narrower tiers do not count once a broad tier differs
    assert proximity_rank(loc(country="ro"), loc(country="fr")) == 1
    assert proximity_rank(loc(net="n1"), loc(net="n2")) == 3


@given(st.tuples(*[st.sampled_from(["x", "y"])] * 4),
       st.tuples(*[st.sampled_from(["x", "y"])] * 4))
def test_proximity_matches_tier_scan_oracle(a, b):
    la = LocalityDescriptor(*a)
    lb = LocalityDescriptor(*b)
    # independent oracle: count matching tiers broad -> narrow
    expected = 0
    for attr in ("continent", "country", "as_domain", "network_domain"):
        if getattr(la, attr) != getattr(lb, attr):
            break
        expected += 1
    assert proximity_rank(la, lb) == expected
    assert proximity_rank(la, lb) == proximity_rank(lb, la)


# -- ordered node sets -------------------------------------------------

NAMES = [NodeId(f"n{i}") for i in range(12)]
name_sets = st.sets(st.sampled_from(NAMES), max_size=5)
SET_OPS = {
    "add": lambda s, d: s.add(d.draw(st.sampled_from(NAMES))),
    "discard": lambda s, d: s.discard(d.draw(st.sampled_from(NAMES))),
    "remove": lambda s, d: s and s.remove(d.draw(st.sampled_from(sorted(s)))),
    "pop": lambda s, d: s and s.pop(),
    "clear": lambda s, d: s.clear(),
    "update": lambda s, d: s.update(d.draw(name_sets)),
    "difference_update": lambda s, d: s.difference_update(d.draw(name_sets)),
    "intersection_update": lambda s, d: s.intersection_update(d.draw(name_sets)),
    "symmetric_difference_update":
        lambda s, d: s.symmetric_difference_update(d.draw(name_sets)),
}


def _in_place(op):
    def apply(s, d):
        other = d.draw(name_sets)
        if op == "|":
            s |= other
        elif op == "&":
            s &= other
        elif op == "-":
            s -= other
        else:
            s ^= other
        return s
    return apply


@given(st.data())
def test_node_set_order_follows_every_mutation(data):
    s = NodeSet(data.draw(name_sets))
    assert s.ordered == tuple(sorted(s))
    ops = {**SET_OPS, **{f"{op}=": _in_place(op) for op in "|&-^"}}
    for name in data.draw(st.lists(st.sampled_from(sorted(ops)), max_size=20)):
        if name.endswith("="):
            s = ops[name](s, data)  # an in-place operator rebinds the name
            assert isinstance(s, NodeSet)
        else:
            ops[name](s, data)
        assert s.ordered == tuple(sorted(s))
        assert s.ordered is s.ordered  # kept until the next change


def test_node_set_builds_plain_sets_and_pickles():
    s = NodeSet([NodeId("b"), NodeId("a")])
    assert s.ordered == (NodeId("a"), NodeId("b"))
    assert type(s | {NodeId("c")}) is set and type(s - {NodeId("a")}) is set
    assert s == {NodeId("a"), NodeId("b")}
    back = pickle.loads(pickle.dumps(s))
    assert type(back) is NodeSet and back == s
    back.add(NodeId("0"))
    assert back.ordered == (NodeId("0"), NodeId("a"), NodeId("b"))
