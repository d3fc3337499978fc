"""The batched metadata pipeline through the whole store (DESIGN.md §9).

The paper stores tree nodes in a DHT "to favor efficient concurrent
access to metadata" (§III-A.3); these tests pin down what that buys in
this reproduction: a read's descent costs O(tree depth) batched round
trips (counter-verified) instead of O(nodes visited), the node cache
never serves a value the three sanctioned mutation paths have
superseded, and concurrent readers on a published snapshot stay
byte-identical while writers publish through the batched path.
"""

import threading

import pytest

from repro.blob import (
    LeafNode,
    LocalBlobStore,
    NodeKey,
    StoreConfig,
    collect_blocks,
    collect_blocks_batched,
    collect_garbage,
)
from repro.errors import ProviderUnavailable, VersionNotFound

BS = 16


def make_store(**kwargs):
    defaults = dict(data_providers=4, metadata_providers=6, block_size=BS)
    defaults.update(kwargs)
    return LocalBlobStore(config=StoreConfig(**defaults))


def tree_depth(nblocks: int) -> int:
    """Levels of a segment tree covering *nblocks* blocks."""
    depth = 1
    while (1 << (depth - 1)) < nblocks:
        depth += 1
    return depth


class TestRoundTripBound:
    def test_read_round_trips_scale_with_depth_not_nodes(self):
        """The acceptance bound: an N-block read performs O(tree depth)
        batched metadata round trips; the scalar baseline pays one per
        node visited (2N - 1 for a full single-version tree)."""
        nblocks = 32
        store = make_store(metadata_cache_nodes=0)  # count the raw descent
        blob = store.create()
        store.append(blob, b"d" * (nblocks * BS))
        stats = store.metadata.store.stats
        stats.reset()
        assert store.read(blob) == b"d" * (nblocks * BS)
        snap = stats.snapshot()
        assert snap["round_trips"] == tree_depth(nblocks)  # 6 for 32 blocks
        assert snap["keys_fetched"] == 2 * nblocks - 1
        store.close()

    def test_reference_descent_pays_per_node(self):
        nblocks = 32
        store = make_store(metadata_cache_nodes=0)
        blob = store.create()
        store.append(blob, b"d" * (nblocks * BS))
        stats = store.metadata.store.stats
        stats.reset()
        found = collect_blocks(
            store.metadata.get_node, NodeKey(blob, 1, 0, nblocks), 0, nblocks
        )
        assert len(found) == nblocks
        assert stats.snapshot()["round_trips"] == 2 * nblocks - 1
        store.close()

    def test_partial_range_visits_only_its_paths(self):
        store = make_store(metadata_cache_nodes=0)
        blob = store.create()
        store.append(blob, b"d" * (32 * BS))
        stats = store.metadata.store.stats
        stats.reset()
        assert store.read(blob, offset=5 * BS, size=BS) == b"d" * BS
        snap = stats.snapshot()
        assert snap["round_trips"] <= tree_depth(32)
        assert snap["keys_fetched"] == tree_depth(32)  # one root-to-leaf path
        store.close()

    def test_batched_and_reference_descents_agree(self):
        """Identical descriptors from both drivers on one store: full
        and partial ranges of multi-version trees with shared subtrees,
        a branch (keys resolve to the ancestor) and a tombstone's
        redirect chase."""
        store = make_store()
        blob = store.create("same")
        store.append(blob, b"a" * (7 * BS))
        store.write(blob, 2 * BS, b"b" * (2 * BS))
        store.append(blob, b"c" * BS)
        fork = store.branch(blob, version=2)
        store.append(fork, b"f" * (3 * BS))
        real_patch = store.metadata.put_patch
        store.metadata.put_patch = lambda nodes: (_ for _ in ()).throw(
            ProviderUnavailable("metadata outage")
        )
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v4 aborts into a tombstone
        store.metadata.put_patch = real_patch
        assert store.snapshot(blob, 4).tombstone
        store.append(blob, b"d" * BS)  # v5 weaves over the tombstone

        resolver = store.key_resolver()
        compared = zero_blocks = 0
        for blob_id, versions in ((blob, (1, 2, 3, 4, 5)), (fork, (3,))):
            for version in versions:
                info = store.snapshot(blob_id, version)
                root = NodeKey(blob_id, version, 0, info.root_span)
                nblocks = info.size // BS
                for lo, hi in ((0, nblocks), (3, 5), (nblocks - 1, nblocks)):
                    batched = collect_blocks_batched(
                        store.metadata.get_nodes, root, lo, hi, key_resolver=resolver
                    )
                    assert batched == collect_blocks(
                        store.metadata.get_node, root, lo, hi, key_resolver=resolver
                    )
                    compared += 1
                    zero_blocks += sum(d.is_zero for d in batched)
        assert compared == 18 and zero_blocks > 0
        store.close()

    def test_batched_descent_fails_over_between_replicas(self):
        store = make_store(metadata_replication=2)
        blob = store.create()
        store.append(blob, b"m" * (16 * BS))
        store.metadata.store.fail_bucket(sorted(store.metadata.store.buckets)[0])
        assert store.read(blob) == b"m" * (16 * BS)
        store.close()


class TestCacheCoherence:
    def test_repeat_reads_hit_the_cache(self):
        store = make_store()
        blob = store.create()
        store.append(blob, b"r" * (16 * BS))
        assert store.read(blob) == b"r" * (16 * BS)
        before = store.metadata.store.stats.snapshot()
        assert store.read(blob) == b"r" * (16 * BS)
        after = store.metadata.store.stats.snapshot()
        assert after["keys_fetched"] == before["keys_fetched"]  # all cached
        assert store.metadata.cache.hit_rate > 0.4
        store.close()

    def test_gc_sweep_invalidates_cached_nodes(self):
        """Cache-invalidation path #2: a swept node must not survive in
        any client cache, or a descent could resurrect collected
        garbage."""
        store = make_store()
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))  # v1
        store.write(blob, 0, b"b" * BS)  # v2 rewrites block 0
        assert store.read(blob, version=1) == b"a" * (4 * BS)  # caches v1
        swept_key = NodeKey(blob, 1, 0, 1)  # v1's block-0 leaf: garbage at v2
        assert store.metadata.get_node(swept_key)  # cached for sure
        collect_garbage(store, blob, retain_from=2)
        with pytest.raises(VersionNotFound):
            store.metadata.get_node(swept_key)
        # Retained snapshot still reads (shared v1 leaves survive).
        assert store.read(blob, version=2) == b"b" * BS + b"a" * (3 * BS)
        store.close()

    def test_write_abort_force_publish_supersedes_cached_real_nodes(self):
        """Cache-invalidation path #1: a client that cached a doomed
        write's partially-published real node must see the tombstone's
        filler after the abort force-publishes it — never the dead
        write's leaf (whose block was rolled back)."""
        from repro.errors import ProviderUnavailable

        store = make_store()
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))  # v1
        real_patch = store.metadata.put_patch
        state = {}

        def land_one_then_fail(nodes):
            for node in nodes:
                if node.key.version == 2 and isinstance(node, LeafNode):
                    real_patch([node])  # the real leaf lands ...
                    state["key"] = node.key
                    # ... and a concurrent client caches it (hint-woven
                    # descents may touch a peer's nodes pre-publication).
                    assert store.metadata.get_node(node.key) == node
                    raise ProviderUnavailable("metadata outage")
            raise ProviderUnavailable("metadata outage")

        store.metadata.put_patch = land_one_then_fail
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v2 dies mid-publish
        store.metadata.put_patch = real_patch

        assert store.snapshot(blob, 2).tombstone
        filler = store.metadata.get_node(state["key"])
        assert not (
            isinstance(filler, LeafNode) and not filler.block.is_zero
        ), "cached pre-tombstone real leaf served after force-publish"
        assert store.read(blob, version=2) == b"a" * (2 * BS) + bytes(2 * BS)
        store.close()


class TestSnapshotIsolation:
    def test_concurrent_readers_stay_byte_identical_during_publishes(self):
        """Readers pinned to version v must read identical bytes while
        a writer publishes v+1..v+K through the batched path — node
        immutability plus snapshot versioning, observed end to end."""
        store = make_store(io_workers=4, metadata_replication=2)
        blob = store.create()
        store.append(blob, b"s" * (8 * BS))  # v1: the pinned snapshot
        expected = b"s" * (8 * BS)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    if store.read(blob, version=1) != expected:
                        failures.append("reader saw non-identical bytes")
                        return
                except Exception as exc:  # pragma: no cover - diagnostic
                    failures.append(repr(exc))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for i in range(8):
                store.append(blob, bytes([65 + i]) * BS)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert failures == []
        assert store.latest_version(blob) == 9
        # And the writer's snapshots read back correctly afterwards.
        assert store.read(blob, version=1) == expected
        assert store.read(blob)[: 8 * BS] == expected
        store.close()
