"""Tests for the metadata service (tree nodes in the DHT)."""

import pytest

from repro.blob import BlockDescriptor, LeafNode, MetadataService, NodeCache, NodeKey
from repro.dht import DhtStore
from repro.errors import ReplicationError, VersionNotFound, WriteConflict
from tests.io_requests import delete_keys


def leaf(index=0, version=1, provider="p"):
    return LeafNode(
        key=NodeKey("b", version, index, 1),
        block=BlockDescriptor(
            blob_id="b",
            version=version,
            index=index,
            size=64,
            providers=(provider,),
            nonce=version,
            seq=0,
        ),
    )


@pytest.fixture
def service():
    return MetadataService(DhtStore([f"mdp-{i}" for i in range(4)], replication=2))


def sweep(service, key):
    """Delete *key* the way the GC sweep does: one delete request per
    owner bucket, then the cache invalidation."""
    for name in service.store.owners(key):
        delete_keys(service.store.buckets[name], [key])
    service.invalidate_cached(key)


class TestNodeStorage:
    def test_roundtrip(self, service):
        node = leaf()
        service.put_patch([node])
        assert service.get_node(node.key) == node
        assert service.get_nodes([node.key]) == {node.key: node}

    def test_missing_node(self, service):
        with pytest.raises(VersionNotFound):
            service.get_node(NodeKey("b", 5, 0, 1))

    def test_idempotent_identical_reput(self, service):
        node = leaf()
        service.put_patch([node])
        service.put_patch([node])  # retry of the same write is fine
        assert service.get_node(node.key) == node

    def test_conflicting_reput_rejected(self, service):
        service.put_patch([leaf(provider="p1")])
        with pytest.raises(WriteConflict, match="immutable"):
            service.put_patch([leaf(provider="p2")])

    def test_put_patch_order(self, service):
        nodes = [leaf(index=i) for i in range(4)]
        service.put_patch(nodes)
        assert service.get_nodes([node.key for node in nodes]) == {
            node.key: node for node in nodes
        }

    def test_sweep_idempotent(self, service):
        node = leaf()
        service.put_patch([node])
        sweep(service, node.key)
        sweep(service, node.key)
        with pytest.raises(VersionNotFound):
            service.get_node(node.key)

    def test_load_by_provider_counts_replicas(self, service):
        for i in range(10):
            service.put_patch([leaf(index=i)])
        load = service.load_by_provider()
        assert sum(load.values()) == 20  # replication 2
        assert set(load) == {f"mdp-{i}" for i in range(4)}


class TestBatchFacade:
    def test_get_nodes_matches_scalar(self, service):
        nodes = [leaf(index=i) for i in range(8)]
        service.put_patch(nodes)
        got = service.get_nodes([node.key for node in nodes])
        assert got == {node.key: node for node in nodes}

    def test_get_nodes_missing_key_raises_version_not_found(self, service):
        service.put_patch([leaf(index=0)])
        with pytest.raises(VersionNotFound):
            service.get_nodes([leaf(index=0).key, NodeKey("b", 9, 0, 1)])

    def test_put_patch_is_one_round_trip_per_publish(self, service):
        nodes = [leaf(index=i) for i in range(8)]
        before = service.store.stats.snapshot()["round_trips"]
        service.put_patch(nodes)
        assert service.store.stats.snapshot()["round_trips"] - before == 1

    def test_put_patch_conflict_raises_and_keeps_stored_value(self, service):
        service.put_patch([leaf(provider="p1")])
        with pytest.raises(WriteConflict, match="immutable"):
            service.put_patch([leaf(provider="p2"), leaf(index=1)])
        assert service.get_node(leaf().key) == leaf(provider="p1")

    def test_put_patch_identical_retry_is_idempotent(self, service):
        nodes = [leaf(index=i) for i in range(4)]
        service.put_patch(nodes)
        service.put_patch(nodes)  # no WriteConflict, no duplicate state
        assert sum(service.load_by_provider().values()) == 8

    def test_put_patch_with_every_replica_down_raises(self, service):
        node = leaf()
        for name in service.store.owners(node.key):
            service.store.fail_bucket(name)
        with pytest.raises(ReplicationError):
            service.put_patch([node])

    def test_put_fillers_reports_unstored_keys(self, service):
        reachable, dead = leaf(index=0), leaf(index=1)
        for name in service.store.owners(dead.key):
            service.store.fail_bucket(name)
        unstored = service.put_fillers([reachable, dead])
        assert unstored == [dead.key]
        assert service.get_node(reachable.key) == reachable


class TestNodeCache:
    def test_read_through_and_hit_counters(self, service):
        node = leaf()
        service.put_patch([node])
        before = service.store.stats.snapshot()["round_trips"]
        assert service.get_node(node.key) == node  # miss -> DHT
        assert service.get_node(node.key) == node  # hit -> local
        assert service.store.stats.snapshot()["round_trips"] - before == 1
        assert service.cache.hits == 1
        assert service.cache.misses == 1

    def test_publish_does_not_populate_cache(self, service):
        """Write-through caching would let a client 'read' metadata the
        DHT never served it — failure injection must stay observable."""
        node = leaf()
        service.put_patch([node])
        assert len(service.cache) == 0

    def test_force_put_invalidates(self, service):
        service.put_patch([leaf(provider="p1")])
        service.get_node(leaf().key)  # cached
        assert service.put_fillers([leaf(provider="p2")]) == []
        assert service.get_node(leaf().key) == leaf(provider="p2")

    def test_sweep_invalidates(self, service):
        node = leaf()
        service.put_patch([node])
        service.get_node(node.key)  # cached
        sweep(service, node.key)
        with pytest.raises(VersionNotFound):
            service.get_node(node.key)

    def test_heal_replica_invalidates(self, service):
        service.put_patch([leaf(provider="p1")])
        service.get_node(leaf().key)  # cached
        healed = leaf(provider="p2")
        for name in service.store.owners(healed.key):
            service.heal_replicas([(name, healed)])
        assert service.get_node(healed.key) == healed

    def test_lru_eviction_bounds_size(self):
        cache = NodeCache(4)
        nodes = [leaf(index=i) for i in range(8)]
        for node in nodes:
            cache.put_if_fresh({node.key: node}, cache.begin())
        assert len(cache) == 4
        # The four least recently inserted went first.
        assert [cache.get(node.key) for node in nodes] == [None] * 4 + nodes[4:]

    def test_get_nodes_mixes_hits_and_misses(self, service):
        nodes = [leaf(index=i) for i in range(6)]
        service.put_patch(nodes)
        keys = [node.key for node in nodes]
        service.get_nodes(keys[:3])  # warm half
        before = service.store.stats.snapshot()["keys_fetched"]
        got = service.get_nodes(keys)
        assert got == {node.key: node for node in nodes}
        # Only the cold half travelled.
        assert service.store.stats.snapshot()["keys_fetched"] - before == 3

    @pytest.mark.parametrize("fetch", ["get_node", "get_nodes"])
    def test_fetch_racing_an_invalidation_is_not_cached(self, service, fetch):
        """A DHT fetch that overlaps a sanctioned mutation must not
        install the superseded node after the mutation's invalidation
        already ran — otherwise one unlucky read pins the stale value
        forever (no further invalidation is coming)."""
        stale, healed = leaf(provider="p1"), leaf(provider="p2")
        service.put_patch([stale])
        real_multi_get = service.store.multi_get

        def multi_get_then_heal(keys):
            nodes = real_multi_get(keys)  # the fetch observes the pre-heal value
            for name in service.store.owners(stale.key):
                service.heal_replicas([(name, healed)])  # heal + invalidate
            return nodes

        service.store.multi_get = multi_get_then_heal
        if fetch == "get_node":
            assert service.get_node(stale.key) == stale  # raced read
        else:
            assert service.get_nodes([stale.key]) == {stale.key: stale}
        service.store.multi_get = real_multi_get
        # The raced fetch must NOT have been cached: the next lookup
        # refetches and sees the healed node.
        assert service.get_node(stale.key) == healed

    def test_unrelated_invalidation_does_not_reject_insert(self):
        """Per-key freshness: a maintenance sweep invalidating *other*
        keys (a GC pass does thousands) must not discard a concurrent
        reader's in-flight insert, or the cache never populates while
        the scrub daemon runs."""
        cache = NodeCache(capacity=8)
        node, other = leaf(index=0), leaf(index=1)
        token = cache.begin()
        cache.invalidate(other.key)  # unrelated key
        assert cache.put_if_fresh({node.key: node}, token) == 1
        assert cache.get(node.key) == node
        # ... while the raced key itself is still rejected.
        token = cache.begin()
        cache.invalidate(node.key)
        assert cache.put_if_fresh({node.key: node}, token) == 0
        assert cache.get(node.key) is None

    def test_stats_surface(self, service):
        service.put_patch([leaf()])
        service.get_node(leaf().key)
        stats = service.stats()
        assert stats["round_trips"] > 0
        assert stats["cache_misses"] == 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
