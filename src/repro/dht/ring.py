"""Consistent-hash ring.

BlobSeer stores segment-tree nodes "on the metadata providers using a
DHT" (paper §III-A.3).  The ring maps every tree-node key to a metadata
provider (and to a replica set for fault tolerance) with two properties
the system needs:

* **stability** — the mapping is a pure function of the key and the
  member set, identical across runs and processes (keys are hashed with
  BLAKE2b, never Python's randomized ``hash``);
* **smoothness** — adding/removing a provider only moves O(1/n) of the
  keyspace (virtual nodes smooth the distribution).
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Hashable, Iterable

__all__ = ["HashRing", "stable_hash"]


def stable_hash(key: Hashable, salt: bytes = b"") -> int:
    """64-bit stable hash of *key* (via ``repr`` + BLAKE2b).

    Deterministic across processes and Python versions for the key types
    used in this library (strings, ints, tuples thereof).
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8") + salt, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@functools.lru_cache(maxsize=1024)
def _vnode_points(member: str, vnodes: int) -> tuple[tuple[int, str], ...]:
    """The sorted ring points of *member*.

    A pure function of ``(member, vnodes)``, so every ring in the process
    shares one immutable copy instead of hashing the member again.
    """
    points = ((stable_hash((member, i), salt=b"ring"), member) for i in range(vnodes))
    return tuple(sorted(points))


class HashRing:
    """Consistent hashing with virtual nodes.

    Args:
        members: initial member identifiers (e.g. provider names).
        vnodes: virtual nodes per member; more gives a smoother split.
    """

    def __init__(self, members: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()
        for member in members:
            self.add(member)

    # -- membership ---------------------------------------------------------

    def add(self, member: str) -> None:
        """Join *member*; idempotent additions are rejected loudly."""
        if member in self._members:
            raise ValueError(f"member {member!r} already on the ring")
        self._members.add(member)
        self._points.extend(_vnode_points(member, self.vnodes))
        self._points.sort()

    def remove(self, member: str) -> None:
        """Leave the ring (keys move to successors)."""
        if member not in self._members:
            raise KeyError(f"member {member!r} not on the ring")
        self._members.discard(member)
        self._points = [(h, m) for (h, m) in self._points if m != member]

    @property
    def members(self) -> frozenset[str]:
        """Current member set."""
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # -- lookups ------------------------------------------------------------

    def lookup(self, key: Hashable) -> str:
        """The member owning *key*."""
        if not self._members:
            raise LookupError("lookup on an empty ring")
        h = stable_hash(key)
        idx = bisect.bisect_right(self._points, (h, "￿"))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def replicas(self, key: Hashable, n: int) -> list[str]:
        """The *n* distinct members responsible for *key*, primary first.

        Walks the ring clockwise from the key's point, skipping duplicate
        members.  ``n`` larger than the membership returns all members.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not self._members:
            raise LookupError("replicas on an empty ring")
        n = min(n, len(self._members))
        h = stable_hash(key)
        idx = bisect.bisect_right(self._points, (h, "￿"))
        chosen: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            member = self._points[(idx + step) % len(self._points)][1]
            if member not in seen:
                seen.add(member)
                chosen.append(member)
                if len(chosen) == n:
                    break
        return chosen
