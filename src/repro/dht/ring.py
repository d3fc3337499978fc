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

Every metadata access routes one key per tree node, so routing is one
step: hash the key, bisect a flat list of point hashes, and read the
replica set from a successor memo filled on first use (DESIGN.md §9).
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

    A lookup is one bisect over the sorted point hashes; the distinct
    successors of a point are walked once per ``(n, point)`` and then
    served from a memo that membership changes reset.  The memo fills
    on demand because every simulated deployment builds a fresh ring
    and routes only a few keys on it: a full successor table would cost
    more than the routing it saves.

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
            self._join(member)
        self._reindex()

    # -- membership ---------------------------------------------------------

    def add(self, member: str) -> None:
        """Join *member*; idempotent additions are rejected loudly."""
        self._join(member)
        self._reindex()

    def remove(self, member: str) -> None:
        """Leave the ring (keys move to successors)."""
        if member not in self._members:
            raise KeyError(f"member {member!r} not on the ring")
        self._members.discard(member)
        self._points = [(h, m) for (h, m) in self._points if m != member]
        self._reindex()

    def _join(self, member: str) -> None:
        if member in self._members:
            raise ValueError(f"member {member!r} already on the ring")
        self._members.add(member)
        self._points.extend(_vnode_points(member, self.vnodes))

    def _reindex(self) -> None:
        """Sort the points and drop every memoised successor tuple."""
        self._points.sort()
        self._hashes = [h for h, _ in self._points]
        self._successors: dict[tuple[int, int], tuple[str, ...]] = {}

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
        return self.replicas(key, 1)[0]

    def replicas(self, key: Hashable, n: int) -> tuple[str, ...]:
        """The *n* distinct members responsible for *key*, primary first.

        The clockwise walk from the key's point, skipping duplicate
        members.  ``n`` larger than the membership returns all members.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not self._members:
            raise LookupError("the ring has no members")
        idx = bisect.bisect_right(self._hashes, stable_hash(key)) % len(self._points)
        chosen = self._successors.get((n, idx))
        if chosen is None:
            chosen = self._successors[(n, idx)] = self._walk(idx, n)
        return chosen

    def _walk(self, idx: int, n: int) -> tuple[str, ...]:
        n = min(n, len(self._members))
        points = self._points
        chosen: dict[str, None] = {}
        for step in range(len(points)):
            chosen[points[(idx + step) % len(points)][1]] = None
            if len(chosen) == n:
                break
        return tuple(chosen)
