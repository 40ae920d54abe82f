"""Shared domain types: node/object identifiers, replicated objects,
locality descriptors and the proximity metric used when peers pick a
super-peer to connect to.

Everything in this module but ``NodeSet`` is an immutable value; all
functions are pure.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

ID_BYTES = 20  # 160-bit object identifiers


class Role(str, Enum):
    AGENT = "agent"
    RAGENT = "ragent"
    LUS = "lus"
    CLIENT = "client"


class ObjectId(bytes):
    """Fixed-width opaque identifier derived from an object's content.
    Equality, hash and order are the 20 bytes'; ``oid.hex()`` is its
    text form."""

    __slots__ = ()

    def __new__(cls, value: bytes):
        if len(value) != ID_BYTES:
            raise ValueError(f"ObjectId must be {ID_BYTES} bytes, got {len(value)}")
        return super().__new__(cls, value)

    def __repr__(self):
        return f"ObjectId({self.hex()[:12]})"

    __str__ = __repr__  # bytes.__str__ would print the raw bytes


class NodeId(str):
    """Unique node identifier: the node's name. Equality, hash and order
    are the string's; the role belongs to the node, not to its id."""

    __slots__ = ()

    def __repr__(self):
        return f"NodeId({self})"


class NodeSet(set):
    """A set of node ids that keeps its ascending tuple, ``ordered``,
    until the set next changes: every in-place mutator drops it, so a
    set read in order again and again is sorted once per change.
    Operators that build a new set (``|``, ``-``, ...) return a plain
    ``set``."""

    def __init__(self, ids=()):
        super().__init__(ids)
        self._ordered = None

    @property
    def ordered(self) -> tuple[NodeId, ...]:
        if self._ordered is None:
            self._ordered = tuple(sorted(self))
        return self._ordered

    def add(self, node_id) -> None:
        if node_id not in self:
            super().add(node_id)
            self._ordered = None

    def discard(self, node_id) -> None:
        if node_id in self:
            super().discard(node_id)
            self._ordered = None


def _drops_order(name: str):
    mutate = getattr(set, name)

    def method(self, *args):
        self._ordered = None
        return mutate(self, *args)

    method.__name__ = name
    return method


for _name in ("remove", "pop", "clear", "update", "difference_update",
              "intersection_update", "symmetric_difference_update",
              "__ior__", "__iand__", "__isub__", "__ixor__"):
    setattr(NodeSet, _name, _drops_order(_name))
del _name


@dataclass(frozen=True)
class LocalityDescriptor:
    """Where a node sits in the network: four containment tiers, broad
    to narrow when read right-to-left."""

    network_domain: str
    as_domain: str
    country: str
    continent: str

    def __post_init__(self):
        for name in ("network_domain", "as_domain", "country", "continent"):
            if not getattr(self, name):
                raise ValueError(f"LocalityDescriptor.{name} must be non-empty")


class KeyKind(str, Enum):
    EXACT_TYPE = "exact"
    PATTERN = "pattern"


class PatternKey(NamedTuple):
    """A search key: either an object's exact type tag or one of its
    user-declared access-pattern strings. A tuple, so that the
    catalogue's index hashes and compares its keys in C: equality, hash
    and order are those of ``(kind, key)``, and a key equals that bare
    tuple."""

    kind: KeyKind
    key: str


@dataclass(frozen=True)
class DistObject:
    """A replicated typed payload. ``index_keys`` are the user-declared
    search patterns; the payload itself is opaque bytes."""

    id: ObjectId
    type_tag: str
    index_keys: tuple[str, ...]  # sorted, deduplicated
    payload: bytes
    version: int = 0

    def pattern_keys(self) -> list[PatternKey]:
        keys = [PatternKey(KeyKind.EXACT_TYPE, self.type_tag)]
        keys.extend(PatternKey(KeyKind.PATTERN, k) for k in self.index_keys)
        return keys

    def with_payload(self, payload: bytes, version: int) -> "DistObject":
        return DistObject(self.id, self.type_tag, self.index_keys, payload, version)


_pack_u32 = struct.Struct(">I").pack


def canonical_encode(type_tag: str, index_keys, payload: bytes) -> bytes:
    """Encode the identity-bearing fields of an object into a canonical
    byte string: big-endian u32 length prefixes, fields in fixed order
    (type_tag, key count, sorted index keys, payload). Independent of the
    in-memory ordering of the keys; injective over distinct inputs."""
    return _encode_sorted(type_tag, sorted(set(index_keys)), payload)


def _encode_sorted(type_tag: str, keys, payload: bytes) -> bytes:
    """``canonical_encode`` of keys already sorted and distinct."""
    tb = type_tag.encode()
    parts = [_pack_u32(len(tb)), tb, _pack_u32(len(keys))]
    for k in keys:
        kb = k.encode()
        parts.append(_pack_u32(len(kb)))
        parts.append(kb)
    parts.append(_pack_u32(len(payload)))
    parts.append(payload)
    return b"".join(parts)


def derive_object_id(encoded: bytes) -> ObjectId:
    """160-bit content digest of a canonical encoding."""
    if not encoded:
        raise ValueError("cannot derive an id from empty bytes")
    return ObjectId(hashlib.blake2b(encoded, digest_size=ID_BYTES).digest())


def make_object(type_tag: str, index_keys, payload: bytes) -> DistObject:
    """Build a fresh version-0 object with its content-derived id."""
    keys = tuple(sorted(set(index_keys)))
    oid = derive_object_id(_encode_sorted(type_tag, keys, payload))
    return DistObject(oid, type_tag, keys, payload, 0)


# Containment tiers scanned broad -> narrow; stop at first mismatch.
_TIERS = ("continent", "country", "as_domain", "network_domain")


def proximity_rank(a: LocalityDescriptor, b: LocalityDescriptor) -> int:
    """Count of matching locality tiers, 0 (different continents) to 4
    (same network domain)."""
    rank = 0
    for tier in _TIERS:
        if getattr(a, tier) != getattr(b, tier):
            break
        rank += 1
    return rank
