"""The lookup-and-discovery registry: which super-peers exist, where they
sit and how many agents each has connected. Joining agents query it;
clients are refused.

``LusRegistry`` is the pure registry; the replicated service instances
around it are ``LusNode`` state machines in ``nodes``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import LocalityDescriptor, NodeId, Role


class AccessDenied(Exception):
    pass


@dataclass
class LusEntry:
    locality: LocalityDescriptor
    connected_count: int


class LusRegistry:
    def __init__(self):
        self.entries: dict[NodeId, LusEntry] = {}

    def register(self, ragent: NodeId, locality: LocalityDescriptor,
                 count: int) -> None:
        """Insert or replace; idempotent."""
        self.entries[ragent] = LusEntry(locality, count)

    def deregister(self, ragent: NodeId) -> None:
        """Remove if present; idempotent."""
        self.entries.pop(ragent, None)

    def query(self, requester_role: Role) -> list[tuple[NodeId, LocalityDescriptor, int]]:
        """Full entry list, for agents only: clients have no direct
        access to the super-peer list."""
        if requester_role is Role.CLIENT:
            raise AccessDenied("clients may not query the lookup service")
        return [
            (rid, e.locality, e.connected_count)
            for rid, e in sorted(self.entries.items())
        ]

    def snapshot(self) -> dict[NodeId, tuple[LocalityDescriptor, int]]:
        return {rid: (e.locality, e.connected_count) for rid, e in self.entries.items()}

    def __len__(self):
        return len(self.entries)

    def __contains__(self, ragent: NodeId) -> bool:
        return ragent in self.entries
