"""The control plane's per-bucket steps are rounds (DESIGN.md §5, §8, §13).

A conditional put's withdrawal, GC's metadata sweep and the scrub's
heals each send every bucket its share as one request, all in one
round, so a step sleeps once however many buckets it touches; so do
the block deletes of GC's sweep and a write's rollback, one request
per provider.  A tombstone's filler heals ride their chunk's heal
round.  GC's mark and the scrub's block phase are one walk over every
retained root, one metadata round per tree level, and a key the walk
cannot read stops only the subtree below it; the scrub's repair then
reads its sources, lands its copies and republishes in one round
each, however many blocks it repairs.  Everything runs on
the engine's virtual clock (the ``clock`` fixture): the tests count
``_sleep`` calls and round trips, never time.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import (
    AsyncIOEngine,
    BlockDescriptor,
    LocalBlobStore,
    NodeKey,
    StoreConfig,
    collect_garbage,
    iter_reachable_batched,
)
from repro.blob import scrub as scrub_module
from repro.blob import segment_tree
from repro.blob.gc import mark_reachable
from repro.blob.segment_tree import clipped_entries
from repro.dht import DhtStore
from repro.errors import ProviderUnavailable, VersionNotFound
from tests.blob.test_write_rollback import fail_publish_for_version
from tests.io_requests import delete_keys

BS = 16


def per_call(monkeypatch, owner, attr, *counters):
    """Wrap ``owner.attr``: per call, how far each zero-argument
    *counter* moved during it."""
    calls = []
    real = getattr(owner, attr)

    def wrapped(*args, **kwargs):
        before = [counter() for counter in counters]
        try:
            return real(*args, **kwargs)
        finally:
            calls.append(tuple(counter() - b for counter, b in zip(counters, before)))

    monkeypatch.setattr(owner, attr, wrapped)
    return calls


def round_trips(dht):
    return lambda: dht.stats.snapshot()["round_trips"]


class TestWithdrawal:
    def test_a_conflicted_conditional_put_withdraws_in_one_round(self, clock):
        with AsyncIOEngine(max_in_flight=64) as engine:
            store = DhtStore(
                ["a", "b", "c", "d"], replication=3, latency=0.005, engine=engine
            )
            keys = [("k", i) for i in range(40)]
            store.multi_put([(key, "v1") for key in keys], conditional=True)
            # Every key's third replica lags, so the rejected value lands
            # there fresh and must be withdrawn, from several buckets.
            laggards = {}
            for key in keys:
                laggards.setdefault(store.owners(key)[2], []).append(key)
            for name, lagging in laggards.items():
                delete_keys(store.buckets[name], lagging)
            assert len(laggards) >= 2

            def cost(items):
                slept, trips = len(clock.sleeps), store.stats.snapshot()["round_trips"]
                result = store.multi_put(items, conditional=True)
                return (
                    result,
                    len(clock.sleeps) - slept,
                    store.stats.snapshot()["round_trips"] - trips,
                )

            clean, clean_sleeps, clean_trips = cost([(("fresh", i), "v") for i in range(40)])
            conflicted, sleeps, trips = cost([(key, "v2") for key in keys])
            assert clean.clean and (clean_sleeps, clean_trips) == (1, 1)
            assert set(conflicted.conflicts) == set(keys)
            assert sleeps == clean_sleeps + 1  # the withdrawal: one sleep
            assert trips == sleeps
            for name, lagging in laggards.items():
                assert store.buckets[name].peek_many(lagging) == {}

    def test_a_bucket_dead_at_the_withdrawal_keeps_the_debris(self, clock):
        store = DhtStore(["a", "b", "c"], replication=2)
        primary, secondary = store.owners("k")
        store.fail_bucket(secondary)
        store.multi_put([("k", "v1")], conditional=True)
        store.recover_bucket(secondary)
        real = store.buckets[secondary]._delete_vector

        def die(keys):
            store.buckets[secondary].online = False
            return real(keys)

        store.buckets[secondary]._delete_vector = die
        result = store.multi_put([("k", "v2")], conditional=True)
        assert result.conflicts == {"k": "v1"}
        assert store.buckets[secondary].peek_many(["k"]) == {"k": "v2"}  # for the scrub


def _garbage_store(buckets, blocks):
    store = LocalBlobStore(config=StoreConfig(
        data_providers=4,
        metadata_providers=buckets,
        metadata_replication=2,
        block_size=BS,
        io_workers=2,
        metadata_latency=0.005,
    ))
    blob = store.create()
    store.write(blob, 0, b"a" * (blocks * BS))
    store.write(blob, 0, b"b" * (blocks * BS))  # v1 becomes garbage
    return store, blob


class TestGcSweep:
    @pytest.mark.parametrize("buckets", [4, 16])
    def test_the_sweep_sleeps_once_however_many_buckets_hold_garbage(
        self, monkeypatch, clock, buckets
    ):
        store, blob = _garbage_store(buckets, blocks=2048)
        holders = {
            name
            for name, bucket in store.metadata.store.buckets.items()
            if any(key.version == 1 for key in bucket.keys())
        }
        assert len(holders) == buckets
        dht = store.metadata.store
        sweeps = per_call(
            monkeypatch, dht, "delete_by_bucket", lambda: len(clock.sleeps), round_trips(dht)
        )
        report = collect_garbage(store, blob, retain_from=2)
        assert sweeps == [(1, 1)]
        assert report.nodes_deleted > 0
        assert not [key for name in holders for key in dht.buckets[name].keys() if key.version == 1]
        assert store.read(blob, version=2) == b"b" * (2048 * BS)
        store.close()

    def test_a_bucket_dead_before_its_request_keeps_its_garbage(self, monkeypatch, clock):
        store, blob = _garbage_store(4, blocks=512)
        dht = store.metadata.store
        victim = dht.buckets["mdp-000"]
        real = dht.delete_by_bucket

        def die_first(doomed):
            assert doomed["mdp-000"]  # enumerated while it was up
            victim.online = False
            return real(doomed)

        monkeypatch.setattr(dht, "delete_by_bucket", die_first)
        report = collect_garbage(store, blob, retain_from=2)
        monkeypatch.setattr(dht, "delete_by_bucket", real)
        victim.online = True
        assert report.nodes_deleted > 0
        assert any(key.version == 1 for key in victim.keys())  # for the next pass
        collect_garbage(store, blob, retain_from=2)
        assert not any(key.version == 1 for key in victim.keys())
        store.close()


class TestScrubHeals:
    def test_a_heal_pass_sleeps_once_per_round_not_per_node(
        self, monkeypatch, clock
    ):
        monkeypatch.setattr(segment_tree, "RUN_SPAN", 1)  # one leaf per block
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=4,
            metadata_replication=2,
            block_size=BS,
            io_workers=2,
            metadata_latency=0.005,
        ))
        blob = store.create()
        dht = store.metadata.store
        store.append(blob, b"a" * (8 * BS))
        dht.fail_bucket("mdp-000")  # lags on everything written from here
        for k in range(12):
            store.append(blob, bytes([k]) * (4 * BS))
        undo = fail_publish_for_version(store, 14)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (16 * BS))  # v14 aborts: a tombstone
        undo()
        dht.recover_bucket("mdp-000")
        # A second bucket loses a few of v1's keys (their other replica
        # holds them), so a round spans buckets.
        held = dht.buckets["mdp-001"].keys()
        lost = sorted((key for key in held if key.version == 1), key=repr)[:5]
        assert lost
        delete_keys(dht.buckets["mdp-001"], lost)

        heals = per_call(
            monkeypatch,
            store.metadata,
            "heal_replicas",
            lambda: len(clock.sleeps),
            round_trips(dht),
        )
        report = store.scrub()
        rounds = len(heals)
        eligible = len(store.metadata.all_node_keys())
        assert report.errors == ()
        assert report.tombstones_checked == 1
        assert report.filler_republished > 0 and report.replicas_healed > 0
        # One round per damaged tombstone patch and per damaged chunk.
        assert rounds <= 1 + math.ceil(eligible / 64)
        assert heals == [(1, 1)] * rounds
        assert report.filler_republished + report.replicas_healed > rounds
        assert store.metadata.divergent_keys() == []
        store.close()


    def test_tombstone_fillers_heal_in_their_chunk_round(self, monkeypatch, clock):
        """Three tombstones whose filler nodes each lost a replica heal
        with the chunk they share: one round, not one per tombstone."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=4,
            metadata_replication=2,
            block_size=BS,
            io_workers=2,
            metadata_latency=0.005,
        ))
        blob = store.create()
        dht = store.metadata.store
        store.append(blob, b"a" * (4 * BS))
        for version in (2, 3, 4):
            undo = fail_publish_for_version(store, version)
            with pytest.raises(ProviderUnavailable):
                store.append(blob, b"x" * (2 * BS))  # aborts: a tombstone
            undo()
        fillers = [
            node.key
            for version in (2, 3, 4)
            for node in store.version_manager.tombstone_spec(blob, version).patch()
        ]
        for key in fillers:
            delete_keys(dht.buckets[dht.owners(key)[0]], [key])
        assert len(store.metadata.all_node_keys()) <= 64  # one chunk

        heals = per_call(
            monkeypatch,
            store.metadata,
            "heal_replicas",
            lambda: len(clock.sleeps),
            round_trips(dht),
        )
        report = store.scrub()
        assert report.errors == ()
        assert report.tombstones_checked == 3
        assert report.filler_republished == len(fillers)
        assert heals == [(1, 1)]
        assert store.metadata.divergent_keys() == []
        store.close()


def _overwritten_store(buckets=8, overwrites=40):
    store = LocalBlobStore(config=StoreConfig(
        data_providers=4, metadata_providers=buckets, block_size=BS
    ))
    blob = store.create()
    store.append(blob, b"a" * (64 * BS))
    for i in range(overwrites):
        store.write(blob, ((i * 37) % 64) * BS, bytes([i]) * BS)
    return store, blob


def _roots(store, blob, first):
    infos = [store.snapshot(blob, v) for v in range(first, store.latest_version(blob) + 1)]
    return [NodeKey(blob, info.version, 0, info.root_span) for info in infos if info.size]


def _mark(visits):
    nodes, blocks = set(), set()
    for node, lo, hi in visits:
        nodes.add(node.key)
        for entry in clipped_entries(node, lo, hi):
            if type(entry) is BlockDescriptor:
                blocks.add(entry.block_id)
    return nodes, blocks


def _per_root_mark(store, roots):
    """The oracle: one fresh walk per root, sharing nothing."""
    visits = []
    for root in roots:
        visits.extend(
            iter_reachable_batched(
                store.metadata.get_nodes, [root], key_resolver=store.key_resolver()
            )
        )
    return _mark(visits)


class TestGcMark:
    def test_the_mark_takes_one_round_per_tree_level(self, monkeypatch):
        store, blob = _overwritten_store()
        roots = _roots(store, blob, 2)
        assert len(roots) == 40
        store.metadata.cache.clear()
        marks = per_call(
            monkeypatch, store.metadata, "gather_nodes", round_trips(store.metadata.store)
        )
        collect_garbage(store, blob, retain_from=2)
        levels = int(math.log2(max(root.span for root in roots))) + 1
        assert sum(trips for (trips,) in marks) <= levels + 1

    def test_the_mark_keeps_what_the_per_root_oracle_marks(self):
        store, blob = _overwritten_store()
        roots = _roots(store, blob, 2)
        oracle_nodes, oracle_blocks = _per_root_mark(store, roots)
        nodes, blocks = _mark(
            iter_reachable_batched(store.metadata.get_nodes, roots, store.key_resolver())
        )
        assert (nodes, blocks) == (oracle_nodes, oracle_blocks)
        collect_garbage(store, blob, retain_from=2)
        stored = {key for key in store.metadata.all_node_keys() if key.blob_id == blob}
        assert stored == oracle_nodes
        kept = {b for p in store.providers.values() for b in p.block_ids() if b[0] == blob}
        assert kept == oracle_blocks

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 24)), min_size=1, max_size=12
        ),
        retain=st.data(),
    )
    def test_one_walk_marks_what_one_walk_per_root_marks(self, writes, retain):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=3, metadata_providers=5, block_size=BS
        ))
        blob = store.create()
        size = 0
        for i, (offset, length) in enumerate(writes):
            offset = min(offset, size)
            store.write(blob, offset * BS, bytes([i + 1]) * (length * BS))
            size = max(size, offset + length)
        latest = store.latest_version(blob)
        roots = _roots(store, blob, retain.draw(st.integers(1, latest)))
        store.metadata.cache.clear()
        walked = _mark(
            iter_reachable_batched(store.metadata.get_nodes, roots, store.key_resolver())
        )
        assert walked == _per_root_mark(store, roots)

        # With buckets down, the one walk still reaches everything an
        # independent walk per root reaches around the unreadable keys.
        dht = store.metadata.store
        for name in retain.draw(st.sets(st.sampled_from(sorted(dht.buckets)), max_size=2)):
            dht.fail_bucket(name)
        store.metadata.cache.clear()
        reached, unread = mark_reachable(store, roots)
        assert _reached(reached, unread) == _independent_mark(store, roots)
        store.close()


def _reached(reached, unread):
    indices = {(key, index) for key, (_, blocks) in reached.items() for index in blocks}
    return set(reached), indices, set(unread)


def _independent_mark(store, roots):
    """The oracle: a recursive walk per root, one key per fetch and no
    seen-set, skipping the keys it cannot read."""
    resolve = store.key_resolver()
    nodes, indices, unread = set(), set(), set()

    def visit(key, lo, hi):
        key = resolve(key)
        found, errors = store.metadata.gather_nodes([key])
        if key in errors:
            unread.add(key)
            return
        node = found[key]
        nodes.add(key)
        for index, entry in enumerate(clipped_entries(node, lo, hi), lo):
            if type(entry) is BlockDescriptor:
                indices.add((key, index))
        for ref, ref_lo, ref_hi in segment_tree._references(node, lo, hi):
            visit(ref, ref_lo, ref_hi)

    for root in roots:
        visit(root, root.offset, root.end)
    return nodes, indices, unread


class TestGcRefusesToUnderMark:
    @pytest.mark.parametrize(
        "damage, error", [("bucket down", ProviderUnavailable), ("key lost", VersionNotFound)]
    )
    def test_an_unreadable_retained_key_raises_and_deletes_nothing(self, damage, error):
        store, blob = _overwritten_store()
        dht = store.metadata.store
        retained = _roots(store, blob, 30)
        reached, _ = mark_reachable(store, retained)
        victim = min((key for key in reached if key not in retained), key=repr)
        (owner,) = dht.owners(victim)
        if damage == "bucket down":
            dht.fail_bucket(owner)
        else:
            delete_keys(dht.buckets[owner], [victim])
        store.metadata.cache.clear()
        keys = {name: set(bucket.keys()) for name, bucket in dht.buckets.items()}
        blocks = {name: set(p.block_ids()) for name, p in store.providers.items()}
        named = "all replicas down" if damage == "bucket down" else re.escape(repr(victim))
        with pytest.raises(error, match=named):
            collect_garbage(store, blob, retain_from=30)
        assert {name: set(bucket.keys()) for name, bucket in dht.buckets.items()} == keys
        assert {name: set(p.block_ids()) for name, p in store.providers.items()} == blocks
        # Readable again, the pass sweeps what only v1..v29 held.
        dht.recover_bucket(owner)
        dht.put(victim, reached[victim][0])
        report = collect_garbage(store, blob, retain_from=30)
        assert report.nodes_deleted > 0 and report.blocks_deleted > 0
        store.close()


def _lagged_store(**latency):
    """A bucket misses 40 two-block appends and recovers, then a
    provider dies: 20 blocks under target below 224 tree nodes."""
    KB = 1024
    store = LocalBlobStore(config=StoreConfig(
        data_providers=8,
        metadata_providers=8,
        replication=2,
        metadata_replication=2,
        block_size=KB,
        io_workers=4,
        **latency,
    ))
    blob = store.create()
    dht = store.metadata.store
    store.append(blob, b"a" * (2 * KB))
    dht.fail_bucket("mdp-003")
    for i in range(40):
        store.append(blob, bytes([i]) * (2 * KB))
    dht.recover_bucket("mdp-003")
    store.fail_provider("provider-003")
    store.metadata.cache.clear()
    return store, blob


class TestScrubBlockPhase:
    def test_the_block_phase_takes_one_round_per_tree_level(self, monkeypatch, clock):
        """A bucket misses 40 two-block appends and recovers, then a
        provider dies: the block phase walks all 41 retained roots at
        once, one metadata round per tree level (one 1-key round per
        new node when the scrub walked root by root)."""
        store, blob = _lagged_store()
        dht = store.metadata.store
        phase = per_call(monkeypatch, scrub_module, "_scrub_blocks", round_trips(dht))
        mark = per_call(monkeypatch, store.metadata, "gather_nodes", round_trips(dht))
        report = store.scrub()
        levels = int(math.log2(store.snapshot(blob).root_span)) + 1
        assert len(phase) == 1 and mark
        assert sum(trips for (trips,) in mark) <= levels + 1  # 224 root by root
        assert report.errors == () and report.blocks_repaired > 0
        assert store.scrub().clean
        store.close()

    def test_the_repair_takes_three_rounds_however_many_blocks(self, monkeypatch, clock):
        """After the walk, every under-replicated block's source read,
        copy and republish each ride one round: the phase sleeps at most
        tree levels + 3 times (57 when each block was repaired alone)."""
        store, blob = _lagged_store(provider_latency=0.005, metadata_latency=0.005)
        phase = per_call(monkeypatch, scrub_module, "_scrub_blocks", lambda: len(clock.sleeps))
        report = store.scrub()
        levels = int(math.log2(store.snapshot(blob).root_span)) + 1
        assert report.errors == () and report.blocks_repaired == report.copies_created == 20
        assert phase[0][0] <= levels + 3
        assert store.scrub().clean
        store.close()


class TestBlockDeletes:
    def test_a_gc_sweep_sleeps_once_for_every_provider(self, clock):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=8, block_size=BS, io_workers=4, provider_latency=0.005
        ))
        blob = store.create()
        store.append(blob, b"a" * (256 * BS))
        store.write(blob, 0, b"b" * (256 * BS))  # v1's 256 blocks become garbage
        holders = [p for p in store.providers.values() if any(b[1] == 1 for b in p.block_ids())]
        assert len(holders) == 8
        slept = len(clock.sleeps)
        report = collect_garbage(store, blob, retain_from=2)
        assert report.blocks_deleted == 256
        assert len(clock.sleeps) - slept == 1
        assert store.provider_manager.block_counts() == store.provider_block_counts()
        store.close()

    def test_a_failed_scatters_rollback_sleeps_once(self, monkeypatch, clock):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, block_size=BS, io_workers=4, provider_latency=0.005
        ))
        blob = store.create()
        # One provider dies while the scatter's requests are in flight,
        # so the other three land their blocks and the rollback deletes
        # them, one request per provider.
        clock.at(clock.now + 0.001, store.providers["provider-003"].fail)
        rollbacks = per_call(monkeypatch, store, "_rollback_write", lambda: len(clock.sleeps))
        deletes = []
        for provider in store.providers.values():
            monkeypatch.setattr(
                provider, "_delete_vector",
                lambda ids, real=provider._delete_vector: deletes.append(ids) or real(ids),
            )
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"a" * (8 * BS))
        assert rollbacks == [(1,)]
        assert len(deletes) == 3 and sum(map(len, deletes)) == 6
        assert sum(store.provider_block_counts().values()) == 0
        assert store.provider_manager.block_counts() == store.provider_block_counts()
        store.close()
