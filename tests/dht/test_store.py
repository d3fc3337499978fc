"""Tests for the replicated DHT store (the batched surface and its
batches of one)."""

import pytest

from repro.dht import DhtStore
from repro.dht.store import MISSING
from repro.errors import ProviderUnavailable, ReplicationError
from tests.io_requests import delete_keys


@pytest.fixture
def store():
    return DhtStore([f"mdp-{i}" for i in range(5)], replication=2)


def keys_with_distinct_primaries(store, count):
    """Keys spread over at least two primary owners (so a batch round
    genuinely touches several buckets)."""
    keys, primaries = [], set()
    i = 0
    while len(keys) < count:
        key = ("k", i)
        keys.append(key)
        primaries.add(store.owners(key)[0])
        i += 1
    assert len(primaries) >= 2
    return keys


class TestBasicOps:
    def test_put_get_roundtrip(self, store):
        store.put(("k", 1), "value")
        assert store.get(("k", 1)) == "value"
        assert all(("k", 1) in store.buckets[n] for n in store.owners(("k", 1)))

    def test_missing_key(self, store):
        with pytest.raises(KeyError):
            store.get("ghost")

    def test_bucket_delete_request_idempotent(self, store):
        store.put("k", 1)
        for _ in range(2):
            for name in store.owners("k"):
                delete_keys(store.buckets[name], ["k", "ghost"])
        with pytest.raises(KeyError):
            store.get("k")

    def test_bucket_delete_request_refused_offline(self, store):
        store.put("k", 1)
        primary = store.owners("k")[0]
        store.fail_bucket(primary)
        with pytest.raises(ProviderUnavailable):
            delete_keys(store.buckets[primary], ["k"])
        store.recover_bucket(primary)
        assert "k" in store.buckets[primary]

    def test_replication_places_n_copies(self, store):
        for i in range(200):
            store.put(("key", i), i)
        total = sum(store.load_by_bucket().values())
        assert total == 400  # 200 keys x 2 replicas

    def test_validation(self):
        with pytest.raises(ValueError):
            DhtStore([])
        with pytest.raises(ValueError):
            DhtStore(["a"], replication=0)


class TestFailureTolerance:
    def test_read_fails_over_to_replica(self, store):
        store.put("k", "v")
        primary = store.owners("k")[0]
        store.fail_bucket(primary)
        assert store.get("k") == "v"

    def test_write_succeeds_with_one_live_replica(self, store):
        primary, secondary = store.owners("k")
        store.fail_bucket(primary)
        store.put("k", "v")
        store.recover_bucket(primary)
        # Value must be readable even though only the secondary has it.
        assert store.get("k") == "v"
        assert "k" in store.buckets[secondary]

    def test_write_fails_with_all_replicas_down(self, store):
        for owner in store.owners("k"):
            store.fail_bucket(owner)
        with pytest.raises(ReplicationError):
            store.put("k", "v")

    def test_read_with_all_replicas_down(self, store):
        store.put("k", "v")
        for owner in store.owners("k"):
            store.fail_bucket(owner)
        with pytest.raises(ProviderUnavailable):
            store.get("k")

    def test_recovery_restores_content(self, store):
        store.put("k", "v")
        primary = store.owners("k")[0]
        store.fail_bucket(primary)
        store.recover_bucket(primary)
        assert store.buckets[primary].get_many(["k"]) == {"k": "v"}

    def test_replication_one_has_no_failover(self):
        store = DhtStore(["a", "b", "c"], replication=1)
        store.put("k", "v")
        store.fail_bucket(store.owners("k")[0])
        with pytest.raises(ProviderUnavailable):
            store.get("k")


class TestBatchedOps:
    """The DESIGN.md §9 batch surface: scalar semantics, key for key,
    at one round trip per (healthy) pass."""

    def test_multi_get_matches_scalar_gets(self, store):
        keys = keys_with_distinct_primaries(store, 12)
        for i, key in enumerate(keys):
            store.put(key, f"v{i}")
        assert store.multi_get(keys) == {
            key: store.get(key) for key in keys
        }

    def test_multi_get_healthy_pass_is_one_round_trip(self, store):
        keys = keys_with_distinct_primaries(store, 12)
        store.multi_put([(key, "v") for key in keys])
        before = store.stats.snapshot()
        store.multi_get(keys)
        after = store.stats.snapshot()
        assert after["round_trips"] - before["round_trips"] == 1
        # ... while the same keys read scalar cost one wait each.
        before = store.stats.snapshot()
        for key in keys:
            store.get(key)
        after = store.stats.snapshot()
        assert after["round_trips"] - before["round_trips"] >= len(keys)

    def test_multi_get_fails_over_per_key(self, store):
        keys = keys_with_distinct_primaries(store, 8)
        store.multi_put([(key, "v") for key in keys])
        store.fail_bucket(store.owners(keys[0])[0])
        assert store.multi_get(keys) == {key: "v" for key in keys}

    def test_multi_get_missing_key_raises_keyerror(self, store):
        store.put("present", "v")
        with pytest.raises(KeyError):
            store.multi_get(["present", "ghost"])

    def test_multi_get_all_replicas_down_raises_unavailable(self, store):
        store.put("k", "v")
        for owner in store.owners("k"):
            store.fail_bucket(owner)
        with pytest.raises(ProviderUnavailable):
            store.multi_get(["k"])

    def test_multi_get_empty(self, store):
        assert store.multi_get([]) == {}

    def test_multi_get_with_replication_above_bucket_count(self):
        """The owner chain is capped at the distinct bucket count; the
        batched rounds must respect that cap like the scalar path does
        (not index past the chain)."""
        store = DhtStore(["a", "b"], replication=3)
        store.put("k", "v")
        assert store.multi_get(["k"]) == {"k": "v"}
        with pytest.raises(KeyError):
            store.multi_get(["ghost"])
        for name in store.buckets:
            store.fail_bucket(name)
        with pytest.raises(ProviderUnavailable):
            store.multi_get(["k"])

    def test_multi_put_places_full_replication(self, store):
        keys = keys_with_distinct_primaries(store, 20)
        result = store.multi_put([(key, "v") for key in keys])
        assert result.clean
        assert sum(store.load_by_bucket().values()) == 2 * len(keys)

    def test_multi_put_reports_fully_unstored_keys(self, store):
        for owner in store.owners("k"):
            store.fail_bucket(owner)
        result = store.multi_put([("k", "v"), ("other", "w")])
        assert "k" in result.unstored
        assert "other" not in result.unstored

    def test_conditional_multi_put_is_idempotent_and_conflict_aware(self, store):
        assert store.multi_put([("k", "v")], conditional=True).clean
        # Identical retry: silent no-op.
        assert store.multi_put([("k", "v")], conditional=True).clean
        # Different value: reported, stored value untouched.
        result = store.multi_put([("k", "OTHER")], conditional=True)
        assert result.conflicts == {"k": "v"}
        assert store.get("k") == "v"

    def test_conflicting_conditional_put_leaves_lagging_replica_unwritten(
        self, store
    ):
        """A rejected conditional put must leave the replica set exactly
        as it found it: a replica that was behind (missed the original
        value) must not end up holding the *rejected* value — the old
        get-then-put path rejected without writing anything."""
        primary, secondary = store.owners("k")
        store.fail_bucket(secondary)
        store.multi_put([("k", "v1")], conditional=True)  # primary only
        store.recover_bucket(secondary)
        result = store.multi_put([("k", "v2")], conditional=True)
        assert result.conflicts == {"k": "v1"}
        assert "k" not in store.buckets[secondary]  # v2 withdrawn
        assert store.multi_replica_values(["k"])["k"][primary] == "v1"
        # The established value can still re-feed the straggler.
        store.multi_put([("k", "v1")], conditional=True)
        assert store.buckets[secondary].get_many(["k"]) == {"k": "v1"}

    def test_conditional_retry_refeeds_lagging_replica(self, store):
        """The single-hop conditional put beats the old get-then-put in
        one more way: a retry re-feeds replicas the first attempt
        missed instead of short-circuiting on the healthy copy."""
        primary, secondary = store.owners("k")
        store.fail_bucket(secondary)
        store.multi_put([("k", "v")], conditional=True)
        store.recover_bucket(secondary)
        assert "k" not in store.buckets[secondary]
        store.multi_put([("k", "v")], conditional=True)  # idempotent retry
        assert store.buckets[secondary].get_many(["k"]) == {"k": "v"}

    def test_multi_replica_values_maps_online_owners(self, store):
        keys = keys_with_distinct_primaries(store, 6)
        store.multi_put([(key, "v") for key in keys])
        lagging = store.owners(keys[0])[1]
        delete_keys(store.buckets[lagging], [keys[0]])  # one lag
        offline = store.owners(keys[1])[0]
        store.fail_bucket(offline)  # one offline owner
        expected = {
            key: {
                name: MISSING if (key, name) == (keys[0], lagging) else "v"
                for name in store.owners(key)
                if name != offline
            }
            for key in keys
        }
        assert store.multi_replica_values(keys) == expected


class TestBatchOfOne:
    """``get``/``put`` are one-key batches: on a healthy store they cost
    what a scalar op did — one round trip, one request per replica."""

    def test_get_costs_one_round_trip_and_one_bucket_op(self, store):
        store.put("k", "v")
        before = store.stats.snapshot()
        assert store.get("k") == "v"
        after = store.stats.snapshot()
        assert after["round_trips"] - before["round_trips"] == 1
        assert after["bucket_ops"] - before["bucket_ops"] == 1

    def test_put_costs_one_round_trip_one_op_per_replica(self, store):
        before = store.stats.snapshot()
        store.put("k", "v")
        after = store.stats.snapshot()
        assert after["round_trips"] - before["round_trips"] == 1
        assert after["bucket_ops"] - before["bucket_ops"] == store.replication

    def test_get_counts_the_round_spent_on_an_offline_owner(self, store):
        store.put("k", "v")
        store.fail_bucket(store.owners("k")[0])
        before = store.stats.snapshot()
        assert store.get("k") == "v"
        after = store.stats.snapshot()
        assert after["round_trips"] - before["round_trips"] == 2


class TestBucketLatency:
    def test_batch_pays_latency_once(self, clock):
        store = DhtStore(["a", "b"], replication=1, latency=0.01)
        keys = [("k", i) for i in range(10)]
        assert len({store.owners(key)[0] for key in keys}) == 2
        store.multi_put([(key, "v") for key in keys])
        store.multi_get(keys)
        batched = len(clock.sleeps)
        for key in keys:
            store.get(key)
        scalar = len(clock.sleeps) - batched
        # Inline: 2 buckets x (1 put + 1 get) = 4 delays batched vs 10 scalar.
        assert (batched, scalar) == (4, 10)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            DhtStore(["a"], latency=-0.1)
