"""Cluster lifecycle policy: super-peer selection at join time,
deterministic voting, split partitioning, merge-partner choice and
heartbeat-based failure detection.

These are the pure decision rules; the message choreography that applies
them lives in the node state machines (see ``nodes``).
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import LocalityDescriptor, NodeId, proximity_rank


class MembershipError(Exception):
    pass


class NoCandidates(MembershipError):
    pass


class EmptyElectorate(MembershipError):
    pass


class NoMergeTarget(MembershipError):
    pass


# Paper-scale defaults; desk-scale scenarios override these.
DEFAULT_MIN_CLUSTER = 5
DEFAULT_MAX_CLUSTER = 10_000


@dataclass(frozen=True)
class Thresholds:
    min_cluster: int = DEFAULT_MIN_CLUSTER
    max_cluster: int = DEFAULT_MAX_CLUSTER

    def __post_init__(self):
        if self.min_cluster < 1:
            raise ValueError("min_cluster must be positive")
        if self.min_cluster >= self.max_cluster:
            raise ValueError("min_cluster must be below max_cluster")


@dataclass(frozen=True)
class HeartbeatConfig:
    period_us: int
    failure_timeout_us: int

    def __post_init__(self):
        if self.period_us <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.failure_timeout_us < 2 * self.period_us:
            raise ValueError("failure timeout must be at least twice the period")


def closest_ragents(
    candidates: list[tuple[NodeId, LocalityDescriptor, int]],
    joiner: LocalityDescriptor,
) -> list[tuple[NodeId, LocalityDescriptor, int]]:
    """The candidates closest to the joiner: those sharing the most
    locality tiers with it, in the given order. Each candidate is ranked
    once."""
    if not candidates:
        raise NoCandidates()
    ranks = [proximity_rank(loc, joiner) for _, loc, _ in candidates]
    best_rank = max(ranks)
    return [c for c, rank in zip(candidates, ranks) if rank == best_rank]


def least_loaded(candidates: list[tuple[NodeId, LocalityDescriptor, int]]) -> NodeId:
    """The candidate with the fewest connected agents; ties broken by
    smallest node id."""
    return min((count, nid) for nid, _, count in candidates)[1]


def join_select_ragent(
    candidates: list[tuple[NodeId, LocalityDescriptor, int]],
    joiner: LocalityDescriptor,
) -> NodeId:
    """Pick the super-peer a joining agent should connect to: among the
    candidates closest to the joiner, the one with the fewest connected
    agents; ties broken by smallest node id."""
    return least_loaded(closest_ragents(candidates, joiner))


def elect_agent(eligible) -> NodeId:
    """Deterministic vote: the smallest node id wins, so any number of
    concurrent initiators agree on the outcome."""
    eligible = set(eligible)
    if not eligible:
        raise EmptyElectorate()
    return min(eligible)


def split_partition(members) -> tuple[list[NodeId], list[NodeId]]:
    """Partition members into two halves of sizes differing by at most
    one; by sorted node id, the lower half stays."""
    ordered = sorted(members)
    cut = (len(ordered) + 1) // 2
    return ordered[:cut], ordered[cut:]


def choose_merge_target(
    clusters: list[tuple[NodeId, int]], own: tuple[NodeId, int]
) -> NodeId:
    """Merge partner for the under-threshold cluster ``own`` (RAgent id,
    members): among the clusters that order strictly above it by
    (members, id), the one with the fewest members, ties by smallest
    RAgent id. Merges only go up this order, so two clusters never
    choose each other, and the largest cluster merges into none."""
    own_id, own_size = own
    options = [(size, rid) for rid, size in clusters if (size, rid) > (own_size, own_id)]
    if not options:
        raise NoMergeTarget()
    return min(options)[1]


def detect_failures(
    now: int, last_seen: dict[NodeId, int], timeout_us: int
) -> list[NodeId]:
    """Nodes whose last heartbeat is older than the failure timeout,
    in ascending id order."""
    return sorted(n for n, t in last_seen.items() if now - t > timeout_us)
