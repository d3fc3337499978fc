"""Metadata service: segment-tree nodes stored in the DHT.

"To favor efficient concurrent access to metadata, tree nodes are
distributed: they are stored on the metadata providers using a DHT"
(paper §III-A.3).  This wraps :class:`~repro.dht.store.DhtStore` with
the tree-node typing and the immutability discipline: a node key is
written at most once (writing the *identical* node twice is tolerated,
so retries are idempotent).

The facade is **batch-only** (DESIGN.md §9): ``get_nodes`` resolves a
whole descent frontier in one DHT pass (``gather_nodes`` is the same
pass, naming the keys it could not read instead of raising),
``put_patch`` publishes a write's entire patch through one conditional
multi-put (the bucket enforces write-once-or-identical in that same
hop — no get-then-put double round trip), and ``put_fillers``
force-publishes a tombstone's filler the same way (``get_node`` is a
batch of one).  Because nodes are immutable, the service also keeps a
**versioned node cache**: an entry can only go stale through the three
sanctioned mutation paths — force-put (tombstone filler superseding a
dead write's nodes, or a repaired leaf), GC deletion, and scrub
healing — each of which invalidates the key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Optional, Sequence

from repro.blob.segment_tree import NodeKey, TreeNode
from repro.dht.store import MISSING, DhtStore
from repro.errors import BlobError, ReplicationError, VersionNotFound, WriteConflict

__all__ = ["MetadataService", "NodeCache", "agreed_value"]

#: Node-cache capacity of every metadata service (DESIGN.md §9).
CACHE_NODES = 1024


def agreed_value(values: dict[str, object]) -> Optional[TreeNode]:
    """The node every non-missing replica agrees on, or ``None``.

    The one replica-agreement predicate shared by the convergence
    check (:meth:`MetadataService.divergent_keys`) and the scrub's
    healing pass, so "do the replicas agree" can never mean two
    different things.  ``None`` when no online replica holds a copy,
    or when two copies conflict.
    """
    present = [v for v in values.values() if v is not MISSING]
    if not present:
        return None
    first = present[0]
    if all(v == first for v in present[1:]):
        return first
    return None


class NodeCache:
    """LRU cache over immutable tree nodes (thread-safe).

    Immutability makes this trivially coherent: a key is written once,
    so a cached entry is the truth for as long as the key exists.  The
    only ways a stored node can change are the three sanctioned
    mutation paths (DESIGN.md §9) — force-put tombstone filler, GC
    delete, scrub heal — and :class:`MetadataService` invalidates the
    key on each.  The cache is read-through only: publishing does not
    populate it, so a client never "reads" metadata the DHT could not
    actually serve it (failure-injection semantics stay honest).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._nodes: "OrderedDict[NodeKey, TreeNode]" = OrderedDict()
        #: Monotonic invalidation counter plus a bounded per-key record
        #: of *when* each key was last invalidated, so an insert racing
        #: an invalidation is rejected per key — a GC sweep invalidating
        #: thousands of swept keys must not discard every concurrent
        #: reader's in-flight insert for unrelated keys.
        self._epoch = 0
        self._floor = 0  # tokens below this predate an evicted record
        self._invalidated: "OrderedDict[NodeKey, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: NodeKey) -> Optional[TreeNode]:
        with self._lock:
            node = self._nodes.get(key)
            if node is None:
                self.misses += 1
                return None
            self._nodes.move_to_end(key)
            self.hits += 1
            return node

    def begin(self) -> int:
        """Token to take *before* fetching from the DHT; pass it to
        :meth:`put_if_fresh` so a fetch that raced a sanctioned
        mutation (whose invalidation ran in between) can never install
        the superseded value after the invalidation already happened —
        the insert is simply skipped and the next lookup refetches."""
        with self._lock:
            return self._epoch

    def put_if_fresh(self, nodes: dict[NodeKey, TreeNode], token: int) -> int:
        """Insert every node whose key was not invalidated since *token*,
        under one lock acquisition; returns how many went in.

        Per-key precision: invalidations of other keys do not reject
        an insert.  A token so old that a key's record could already
        have been evicted from the bounded invalidation log rejects the
        whole batch conservatively (the next lookup just refetches).
        """
        with self._lock:
            if token < self._floor:
                return 0
            cached, invalidated = self._nodes, self._invalidated
            inserted = 0
            for key, node in nodes.items():
                invalidated_at = invalidated.get(key)
                if invalidated_at is not None and invalidated_at > token:
                    continue
                cached[key] = node
                cached.move_to_end(key)
                inserted += 1
            while len(cached) > self.capacity:
                cached.popitem(last=False)
            return inserted

    def invalidate(self, key: NodeKey) -> None:
        with self._lock:
            self._epoch += 1
            self._invalidated[key] = self._epoch
            self._invalidated.move_to_end(key)
            # Bound the log; anything evicted raises the conservative
            # floor for tokens that predate it.
            while len(self._invalidated) > max(1024, self.capacity):
                _, epoch = self._invalidated.popitem(last=False)
                self._floor = max(self._floor, epoch)
            if self._nodes.pop(key, None) is not None:
                self.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._nodes.clear()

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "cache_size": len(self._nodes),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_invalidations": self.invalidations,
            "cache_hit_rate": round(self.hit_rate, 4),
        }


class MetadataService:
    """Typed, batch-aware facade over the metadata-provider DHT.

    Args:
        store: the replicated DHT holding the tree nodes.

    Lookups go through a :class:`NodeCache` of :data:`CACHE_NODES`
    nodes.
    """

    def __init__(self, store: DhtStore):
        self.store = store
        self.cache = NodeCache(CACHE_NODES)

    # -- publish paths -----------------------------------------------------------

    def put_patch(self, nodes: Sequence[TreeNode]) -> None:
        """Publish a whole write's patch in one conditional multi-put.

        Each owner bucket receives its share of the patch in a single
        request and enforces write-once-or-identical in that same hop:
        an identical re-put (an idempotent retry — which now also
        re-feeds any replica the first attempt missed) is silent, a
        different stored value raises :class:`WriteConflict`, and a
        node no live replica could take raises
        :class:`ReplicationError`.
        """
        error = self.put_patches([nodes])[0]
        if error is not None:
            raise error

    def put_patches(
        self, patches: Sequence[Sequence[TreeNode]]
    ) -> list[Optional[Exception]]:
        """Publish several writers' patches in one conditional DHT pass.

        The multi-writer twin of :meth:`put_patch` (DESIGN.md §10): all
        patches' nodes travel together — per owner bucket, one request
        carries every patch's share — but outcomes stay **per patch**,
        because the patches belong to strangers coalesced by a publish
        window and one writer's conflict must not poison its
        batch-mates.  Returns a list aligned with *patches*: ``None``
        for a fully stored patch, else the :class:`WriteConflict` /
        :class:`ReplicationError` that patch alone should raise
        (conflict wins when a patch suffers both).  Distinct writers' patches never share a
        key — every node key embeds its writer's version.
        """
        owner_patch: dict[NodeKey, int] = {}
        pairs: list[tuple[NodeKey, TreeNode]] = []
        for i, nodes in enumerate(patches):
            for node in nodes:
                owner_patch[node.key] = i
                pairs.append((node.key, node))
        result = self.store.multi_put(pairs, conditional=True)
        errors: list[Optional[Exception]] = [None] * len(patches)
        for key in result.unstored:
            i = owner_patch[key]
            if errors[i] is None:
                errors[i] = ReplicationError(
                    f"no live replica took metadata node {key}"
                )
        for key in result.conflicts:
            errors[owner_patch[key]] = WriteConflict(
                f"metadata node {key} already exists with different content; "
                "tree nodes are immutable by design"
            )
        return errors

    def put_fillers(self, nodes: Sequence[TreeNode]) -> list[NodeKey]:
        """Force-publish a tombstone's filler patch, best effort.

        One batched force multi-put per patch; every key is invalidated
        from the cache (sanctioned mutation path #1).  Returns the keys
        that reached no live replica — the abort/scrub caller records
        them rather than failing, because the filler is usually being
        published *during* the outage that doomed the original write.
        The scrub's block repair republishes a rewritten leaf the same
        way.
        """
        result = self.store.multi_put(
            [(node.key, node) for node in nodes], conditional=False
        )
        for node in nodes:
            self.invalidate_cached(node.key)
        return list(result.unstored)

    # -- read paths --------------------------------------------------------------

    def get_node(self, key: NodeKey) -> TreeNode:
        """Fetch one tree node (a batch of one :meth:`get_nodes`)."""
        return self.get_nodes([key])[key]

    def get_nodes(self, keys: Sequence[NodeKey]) -> dict[NodeKey, TreeNode]:
        """Fetch a whole frontier of nodes in one batched DHT pass.

        Cache hits are served locally; only the misses travel, grouped
        by owner bucket (one request per bucket, requests in parallel)
        — a descent costs O(tree depth) round trips instead of O(nodes
        visited).  Raises :class:`VersionNotFound` if any key does not
        exist.
        """
        try:
            return self._lookup(keys, lambda misses: (self.store.multi_get(misses), {}))[0]
        except KeyError as exc:
            raise VersionNotFound(f"metadata node {exc.args[0]} not found") from None

    def gather_nodes(
        self, keys: Sequence[NodeKey]
    ) -> tuple[dict[NodeKey, TreeNode], dict[NodeKey, BlobError]]:
        """:meth:`get_nodes` naming, in the same rounds, what it could not
        read instead of raising: the nodes found, and per unread key its
        :class:`VersionNotFound` or ``ProviderUnavailable``."""
        found, unread = self._lookup(keys, self.store.gather)
        for key, error in unread.items():
            if isinstance(error, KeyError):
                unread[key] = VersionNotFound(f"metadata node {key} not found")
        return found, unread

    def _lookup(self, keys: Sequence[NodeKey], fetch) -> tuple[dict, dict]:
        """Cache hits, then ``fetch(misses) -> (nodes, errors)``; fetched
        nodes are cached unless invalidated meanwhile."""
        found: dict[NodeKey, TreeNode] = {}
        misses: list[NodeKey] = []
        for key in dict.fromkeys(keys):
            cached = self.cache.get(key)
            if cached is not None:
                found[key] = cached
            else:
                misses.append(key)
        if not misses:
            return found, {}
        token = self.cache.begin()
        fetched, errors = fetch(misses)
        self.cache.put_if_fresh(fetched, token)
        found.update(fetched)
        return found, errors

    # -- cache control -----------------------------------------------------------

    def invalidate_cached(self, key: NodeKey) -> None:
        """Drop one key from the node cache.

        Every mutation of a stored node must pass through here —
        force-put filler, GC deletion, scrub healing — or a cached
        descent could serve the superseded value forever.
        """
        self.cache.invalidate(key)

    def stats(self) -> dict[str, object]:
        """Wire + cache counters in one diagnostic dict (CLI surface)."""
        return {**self.store.stats.snapshot(), **self.cache.snapshot()}

    def load_by_provider(self) -> dict[str, int]:
        """Stored node count per metadata provider (balance diagnostics)."""
        return self.store.load_by_bucket()

    # -- anti-entropy surface (DESIGN.md §8) -----------------------------------

    def all_node_keys(self) -> set[NodeKey]:
        """Every tree-node key held by any *online* bucket."""
        return {k for k in self.store.all_keys() if isinstance(k, NodeKey)}

    def replica_nodes_many(
        self, keys: Sequence[NodeKey]
    ) -> dict[NodeKey, dict[str, object]]:
        """Per-online-replica view (value or ``MISSING``) of every key,
        in one DHT pass: a whole chunk of the scrub's reconciliation
        sweep, or a whole tombstone patch."""
        return self.store.multi_replica_values(keys)

    def heal_replicas(
        self, heals: Sequence[tuple[str, TreeNode]]
    ) -> dict[str, Exception]:
        """Overwrite replicas' copies with authoritative nodes
        (cache-invalidation path #3): the ``(bucket, node)`` heals go
        out in one round of unconditional puts, one request per bucket,
        and every healed key is invalidated.  Returns the buckets whose
        request failed, with their error."""
        by_bucket: dict[str, list[tuple[NodeKey, TreeNode]]] = {}
        for name, node in heals:
            by_bucket.setdefault(name, []).append((node.key, node))
        try:
            return self.store.put_by_bucket(by_bucket)
        finally:
            for _, node in heals:
                self.invalidate_cached(node.key)

    def divergent_keys(
        self, keys: Optional[Iterable[NodeKey]] = None
    ) -> list[NodeKey]:
        """Keys whose online replicas disagree (missing or different).

        The anti-entropy convergence check: an empty result means every
        online replica of every (given) key holds an identical node —
        replica digests over any shared key set are then equal.
        """
        chosen = list(self.all_node_keys() if keys is None else keys)
        divergent = []
        for key, values in self.replica_nodes_many(chosen).items():
            if not values:
                continue  # every owner offline; nothing to compare
            if agreed_value(values) is None or any(
                v is MISSING for v in values.values()
            ):
                divergent.append(key)
        return sorted(divergent, key=repr)
