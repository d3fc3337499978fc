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
    DescentPlan,
    LeafNode,
    LocalBlobStore,
    NodeKey,
    RunLeaf,
    StoreConfig,
    collect_blocks_batched,
    collect_garbage,
)
from repro.blob.segment_tree import RUN_SPAN
from repro.errors import ProviderUnavailable, VersionNotFound

BS = 16


def make_store(**kwargs):
    defaults = dict(data_providers=4, metadata_providers=6, block_size=BS)
    defaults.update(kwargs)
    return LocalBlobStore(config=StoreConfig(**defaults))


def tree_depth(nblocks: int) -> int:
    """Levels of a segment tree covering *nblocks* leaves."""
    depth = 1
    while (1 << (depth - 1)) < nblocks:
        depth += 1
    return depth


def one_key_per_fetch(fetch, root, lo, hi, resolver):
    """A :class:`DescentPlan` driven one node fetch at a time."""
    plan = DescentPlan(root, lo, hi, key_resolver=resolver)
    while not plan.done:
        for key in plan.take_frontier():
            plan.feed(key, fetch(key))
    return plan.blocks()


class TestRoundTripBound:
    def test_read_round_trips_scale_with_depth_not_nodes(self):
        """The acceptance bound: an N-block read performs O(tree depth)
        batched metadata round trips over a tree whose leaves are runs
        of RUN_SPAN blocks.  One append wrote the whole tree, so both
        children of the root are covered references: the descent jumps
        from them to the runs (root, then 4 runs) instead of fetching
        the 2·runs - 1 nodes of the level-by-level walk."""
        nblocks = 4 * RUN_SPAN
        runs = nblocks // RUN_SPAN
        store = make_store()
        blob = store.create()
        store.append(blob, b"d" * (nblocks * BS))
        stats = store.metadata.store.stats
        stats.reset()
        store.metadata.cache.clear()  # count the raw descent
        assert store.read(blob) == b"d" * (nblocks * BS)
        snap = stats.snapshot()
        assert snap["round_trips"] == 2
        assert snap["keys_fetched"] == 1 + runs
        assert snap["round_trips"] <= tree_depth(runs)  # 3 for 4 runs, level by level
        assert snap["keys_fetched"] <= 2 * runs - 1
        store.close()

    def test_per_node_driver_pays_per_node(self):
        nblocks = 4 * RUN_SPAN
        store = make_store()
        blob = store.create()
        store.append(blob, b"d" * (nblocks * BS))
        stats = store.metadata.store.stats
        stats.reset()
        store.metadata.cache.clear()
        found = collect_blocks_batched(
            lambda keys: {key: store.metadata.get_node(key) for key in keys},
            NodeKey(blob, 1, 0, nblocks),
            0,
            nblocks,
        )
        assert len(found) == nblocks
        runs = nblocks // RUN_SPAN
        assert stats.snapshot()["round_trips"] == 1 + runs  # root, then each run
        assert stats.snapshot()["round_trips"] <= 2 * runs - 1  # every node, level by level
        store.close()

    def test_partial_range_visits_only_its_paths(self):
        nblocks = 4 * RUN_SPAN
        store = make_store()
        blob = store.create()
        store.append(blob, b"d" * (nblocks * BS))
        stats = store.metadata.store.stats
        stats.reset()
        store.metadata.cache.clear()
        assert store.read(blob, offset=5 * BS, size=BS) == b"d" * BS
        snap = stats.snapshot()
        depth = tree_depth(nblocks // RUN_SPAN)
        # The root, then the one run under its covered left child.
        assert snap["round_trips"] == 2
        assert snap["keys_fetched"] == 2
        assert snap["round_trips"] <= depth
        assert snap["keys_fetched"] <= depth  # one root-to-run path, level by level
        store.close()

    def test_batched_and_reference_descents_agree(self):
        """Identical descriptors from the level-batched driver and a
        one-key-per-fetch driver on one store: full and partial ranges
        of multi-version trees with shared subtrees, a branch (keys
        resolve to the ancestor) and a tombstone's redirect chase."""
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
                    assert batched == one_key_per_fetch(
                        store.metadata.get_node, root, lo, hi, resolver
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
        store.append(blob, b"a" * (4 * BS))  # v1: run [0, 4)
        store.append(blob, b"b" * (4 * BS))  # v2: run [4, 8)
        store.write(blob, 4 * BS, b"c" * (4 * BS))  # v3 rewrites v2's run
        assert store.read(blob, version=2) == b"a" * (4 * BS) + b"b" * (4 * BS)
        swept_key = NodeKey(blob, 2, 4, 4)  # v2's run: garbage at v3
        assert store.metadata.get_node(swept_key)  # cached for sure
        collect_garbage(store, blob, retain_from=3)
        with pytest.raises(VersionNotFound):
            store.metadata.get_node(swept_key)
        # Retained snapshot still reads (the shared v1 run survives).
        assert store.read(blob, version=3) == b"a" * (4 * BS) + b"c" * (4 * BS)
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
                if node.key.version == 2 and isinstance(node, (LeafNode, RunLeaf)):
                    real_patch([node])  # the real run lands ...
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
        assert isinstance(filler, RunLeaf) and all(
            entry.is_zero for entry in filler.entries
        ), "cached pre-tombstone real run served after force-publish"
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
