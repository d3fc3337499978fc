"""Failed writes must leave no trace (paper §III-D + DESIGN.md §7).

"If, for some reason, writing of a block fails, then the whole write
fails."  The seed implementation honoured the *failure* half but not
the cleanup half: replicas already stored by the doomed write stranded
forever on their providers, inflating ``block_count``/``stored_bytes``
and permanently skewing least-loaded placement.  These are the
regression tests for the rollback — and, below, for the write-abort
(tombstone) protocol that extends all-or-nothing past version
assignment: a writer dying during metadata publication must neither
wedge the publication watermark nor strand blocks/charges.
"""

import pytest

from repro.blob import (
    LocalBlobStore,
    StoreConfig,
    build_tombstone_patch,
    collect_garbage,
)
from repro.errors import (
    InvalidRange,
    ProviderUnavailable,
    ReplicationError,
    VersionNotFound,
)

from tests.blob.vman_calls import assign

BS = 16

#: Engine modes every rollback/abort invariant must hold under: inline
#: I/O, the I/O engine, and the engine behind a one-slot in-flight
#: window (DESIGN.md §13 — the engine inherits every §7 guarantee).
IO_MODES = (0, 4, "window1")


def engine_kwargs(io_mode):
    """StoreConfig kwargs for one engine mode.

    Modes 0/4 are ``io_workers`` values.  ``"window1"`` is the engine
    with ``max_in_flight=1``: every transfer queues behind the one in
    flight, so a failure cancels siblings still waiting for their slot.
    It is truthy, so tests that skip the engine modes for deterministic
    interleaving skip it too.
    """
    if io_mode == "window1":
        return {"io_workers": 2, "max_in_flight": 1}
    return {"io_workers": io_mode}


def snapshot_provider_state(store):
    return {
        name: (p.block_count, p.stored_bytes) for name, p in store.providers.items()
    }


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestFailedWriteRollback:
    def test_issue_repro_two_providers_one_fails_no_orphan(self, io_workers):
        # The ISSUE repro: 2 providers, replication=2, one provider dies
        # *without telling the provider manager* (so allocation still
        # targets it), then append.  The put to the dead provider fails;
        # the replica already stored on the live one must be deleted.
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()

        store.providers["provider-001"].fail()
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * BS)

        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        store.close()

    def test_multi_block_failure_rolls_back_every_stored_replica(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.append(blob, b"a" * (6 * BS))  # some healthy baseline data
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()
        pre_version = store.latest_version(blob)

        store.providers["provider-002"].fail()
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"b" * (8 * BS))

        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        # The failed write never got a version; readers are unaffected.
        assert store.latest_version(blob) == pre_version
        assert store.read(blob) == b"a" * (6 * BS)
        store.close()

    def test_least_loaded_placement_not_skewed_by_failed_writes(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=3,
            metadata_providers=2,
            block_size=BS,
            replication=1,
            placement="least_loaded",
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.providers["provider-000"].fail()
        # Repeated failed writes against the dead provider must not
        # charge it: otherwise recovery would see it as "loaded" and
        # least-loaded would dogpile the survivors forever.
        for _ in range(5):
            try:
                store.append(blob, b"x" * BS)
            except ProviderUnavailable:
                pass
        assert store.provider_manager.block_counts()["provider-000"] == 0
        store.close()

    def test_stranded_replica_keeps_its_charge_until_gc_reclaims_it(self, io_workers):
        # A provider that stores a replica and THEN dies mid-write
        # strands the block (rollback cannot delete from an offline
        # provider).  The stranded replica must keep its allocator
        # charge — the bytes really are there — and the GC sweep must
        # release it exactly once, not a second time.
        if io_workers:
            pytest.skip("deterministic put interleaving needs the inline path")
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2, metadata_providers=2, block_size=BS, replication=2
        ))
        blob = store.create()
        store.append(blob, b"\0" * BS)  # v1: healthy baseline
        baseline_alloc = store.provider_manager.block_counts()
        baseline_counts = store.provider_block_counts()

        victim = store.providers["provider-000"]
        real_put = victim._put_vector

        def put_then_die(items, landed):
            # The vector's first block lands, then the victim dies: the
            # rest of the vector meets an offline provider.
            real_put(items[:1], landed)
            victim.fail()
            real_put(items[1:], landed)

        victim._put_vector = put_then_die
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))
        victim._put_vector = real_put

        # One replica stranded on the (offline) victim: it keeps both
        # its physical copy and its allocator charge.
        assert victim.block_count == baseline_counts["provider-000"] + 1
        alloc = store.provider_manager.block_counts()
        assert alloc["provider-000"] == baseline_alloc["provider-000"] + 1
        assert alloc["provider-001"] == baseline_alloc["provider-001"]

        # GC while the victim is still down must neither crash nor
        # touch the stranded charge (the bytes are still there)...
        collect_garbage(store, blob, retain_from=1)
        assert store.provider_manager.block_counts() == alloc

        # ... and the first sweep after recovery reclaims it — once.
        victim.recover()
        collect_garbage(store, blob, retain_from=1)
        assert store.provider_block_counts() == baseline_counts
        assert store.provider_manager.block_counts() == baseline_alloc
        collect_garbage(store, blob, retain_from=1)  # idempotent
        assert store.provider_manager.block_counts() == baseline_alloc
        assert store.read(blob) == b"\0" * BS
        store.close()

    def test_version_manager_rejection_rolls_back_stored_blocks(self, io_workers):
        # Blocks go out in Phase 1; the version manager validates the
        # range in Phase 2.  A rejected write (unaligned append,
        # misaligned offset, hole) must clean up its Phase-1 blocks.
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.write(blob, 0, b"\0" * (BS + 3))  # unaligned size: appends now invalid
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()

        with pytest.raises(InvalidRange):
            store.append(blob, b"x" * BS)
        with pytest.raises(InvalidRange):  # misaligned offset
            store.write(blob, 1, b"x" * BS)
        with pytest.raises(InvalidRange):  # hole past the end
            store.write(blob, 10 * BS, b"x" * BS)

        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        assert store.read(blob) == b"\0" * (BS + 3)
        store.close()

    def test_keyboard_interrupt_mid_write_still_rolls_back(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.append(blob, b"\0" * BS)
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()

        original = store.providers["provider-001"]._put_vector

        def interrupted_put(items, landed):
            raise KeyboardInterrupt

        store.providers["provider-001"]._put_vector = interrupted_put
        with pytest.raises(KeyboardInterrupt):
            store.append(blob, b"x" * (2 * BS))
        store.providers["provider-001"]._put_vector = original

        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        store.close()

    def test_gc_survives_provider_dying_mid_sweep(self, io_workers):
        if io_workers:
            pytest.skip("single-scenario test; engine adds nothing here")
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2, metadata_providers=2, block_size=BS, replication=1
        ))
        blob = store.create()
        store.append(blob, b"\0" * (4 * BS))
        store.write(blob, 0, b"\1" * (4 * BS))  # v2 replaces all v1 blocks

        # retain_from=2 makes v1's blocks garbage, spread round-robin
        # over both providers; one provider dies between its delete
        # request's issue and its body.
        victim = store.providers["provider-000"]
        original_delete = victim._delete_vector

        def delete_then_die(block_ids):
            victim.fail()  # goes down just as the sweep reaches it
            return original_delete(block_ids)

        victim._delete_vector = delete_then_die
        report = collect_garbage(store, blob, retain_from=2)
        victim._delete_vector = original_delete
        # The pass completed (no ProviderUnavailable escaped) and the
        # survivor's garbage was reclaimed.
        assert report.blocks_deleted >= 1
        store.recover_provider("provider-000")
        assert store.read(blob, version=2) == b"\1" * (4 * BS)
        store.close()

    def test_gc_does_not_release_charges_for_already_deleted_blocks(self, io_workers):
        if io_workers:
            pytest.skip("single-scenario test; engine adds nothing here")
        store = LocalBlobStore(config=StoreConfig(
            data_providers=1, metadata_providers=2, block_size=BS, replication=1
        ))
        blob = store.create()
        store.append(blob, b"\0" * BS)
        store.write(blob, 0, b"\1" * BS)  # v1's block becomes garbage

        # Simulate a racing deletion (e.g. a concurrent write rollback)
        # landing between the sweep's id snapshot and its delete: the
        # sweep sees the id twice, the second pop finds nothing.
        provider = store.providers["provider-000"]
        real_block_ids = provider.block_ids

        def duplicated_ids():
            ids = list(real_block_ids())
            return iter(ids + ids)

        provider.block_ids = duplicated_ids
        report = collect_garbage(store, blob, retain_from=2)
        provider.block_ids = real_block_ids

        assert report.blocks_deleted == 1
        assert report.bytes_freed == BS
        # The live block's charge survived; only the garbage's was
        # released — and only once.
        assert store.provider_manager.block_counts() == {"provider-000": 1}
        assert store.read(blob) == b"\1" * BS
        store.close()

    def test_successful_write_after_rollback_reuses_capacity(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.providers["provider-001"].fail()
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * BS)
        store.providers["provider-001"].recover()

        version = store.append(blob, b"y" * BS)
        assert version == 1
        assert store.read(blob) == b"y" * BS
        counts = store.provider_block_counts()
        assert counts == {"provider-000": 1, "provider-001": 1}
        store.close()


def fail_publish_for_version(store, version):
    """Make every batched *real-patch* publish of *version* fail — the
    signature of all replicas of the owning bucket being down while a
    writer publishes its patch.  Force puts (the tombstone's filler,
    which travels via ``put_fillers``) still land, as they would on the
    surviving buckets.  Returns an undo callable."""
    real = store.metadata.put_patch

    def failing_put_patch(nodes):
        if any(node.key.version == version for node in nodes):
            raise ProviderUnavailable("all replicas of the owning bucket are down")
        return real(nodes)

    store.metadata.put_patch = failing_put_patch
    return lambda: setattr(store.metadata, "put_patch", real)


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestWriteAbortTombstone:
    """A writer dying after version assignment (§VI-B's admitted
    weakness) aborts into a tombstone instead of wedging the store."""

    def test_publish_failure_aborts_cleanly(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))  # v1: healthy baseline
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()

        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v2: dies mid-publish
        undo()

        # Blocks rolled back, charges released — like any failed write.
        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        # The ticket did NOT stay in flight: it tombstoned and the
        # watermark advanced over it.
        assert store.version_manager.in_flight(blob) == []
        assert store.latest_version(blob) == 2
        info = store.snapshot(blob, 2)
        assert info.tombstone and info.size == 6 * BS
        # The tombstone reads as the prior state, zero-filled over the
        # range the dead append would have created.
        assert store.read(blob, version=1) == b"a" * (4 * BS)
        assert store.read(blob, version=2) == b"a" * (4 * BS) + bytes(2 * BS)
        store.close()

    def test_write_and_gc_succeed_after_abort(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.append(blob, b"a" * (4 * BS))
        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))
        undo()

        # A subsequent append lands after the tombstone's zero gap: its
        # offset was fixed by the (kept) tombstone size, §III-D style.
        v3 = store.append(blob, b"y" * (2 * BS))
        assert v3 == 3
        assert store.read(blob) == b"a" * (4 * BS) + bytes(2 * BS) + b"y" * (2 * BS)
        # GC is not blocked by the dead writer; the tombstone
        # participates in the mark phase like any snapshot.
        report = collect_garbage(store, blob, retain_from=1)
        assert store.read(blob) == b"a" * (4 * BS) + bytes(2 * BS) + b"y" * (2 * BS)
        report = collect_garbage(store, blob, retain_from=3)
        assert report.nodes_deleted > 0
        assert store.read(blob, version=3)[: 4 * BS] == b"a" * (4 * BS)
        with pytest.raises(VersionNotFound):
            store.read(blob, version=2)
        store.close()

    def test_interior_overwrite_abort_serves_prior_content(self, io_workers):
        """Redirect leaves: an aborted overwrite's tombstone resolves to
        the woven state without the dead write."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))  # v1
        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.write(blob, BS, b"x" * (2 * BS))  # v2 dies rewriting [1, 3)
        undo()

        assert store.read(blob, version=2) == b"a" * (4 * BS)  # unchanged
        v3 = store.append(blob, b"y" * BS)
        assert store.read(blob, version=v3) == b"a" * (4 * BS) + b"y" * BS
        # GC keeping only the tombstone: its redirects must keep v1's
        # shared blocks alive.
        collect_garbage(store, blob, retain_from=2)
        assert store.read(blob, version=2) == b"a" * (4 * BS)
        assert store.read(blob, version=3) == b"a" * (4 * BS) + b"y" * BS
        store.close()

    def test_writer_assigned_before_abort_still_resolves(self, io_workers):
        """The tentpole scenario: writer B takes its ticket (and weaves
        hints referencing dead writer A) *before* A aborts.  B's
        metadata must resolve through A's filler nodes."""
        if io_workers:
            pytest.skip("deterministic publish interleaving needs the inline path")
        store = LocalBlobStore(config=StoreConfig(data_providers=4, metadata_providers=2, block_size=BS))
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))  # v1
        holder = {}
        real = store.metadata.put_patch

        def failing_put_patch(nodes):
            if any(node.key.version == 2 for node in nodes):
                if "ticket" not in holder:
                    # B sneaks in between A's assignment and A's abort.
                    holder["ticket"] = assign(store.version_manager, blob, BS)
                raise ProviderUnavailable("bucket down")
            return real(nodes)

        store.metadata.put_patch = failing_put_patch
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # A: v2, dies
        store.metadata.put_patch = real

        ticket = holder["ticket"]
        assert ticket.version == 3
        assert ticket.offset == 4 * BS  # fixed on A's (now zero-filled) size
        assert ticket.history == ((1, 0, 2), (2, 2, 4))  # wove A's range
        # B finishes its write with the pre-abort ticket, exactly as a
        # concurrent writer would: store blocks, publish, commit.
        from repro.blob.block import BytesPayload

        nonce = next(store._nonce)
        placements = store.provider_manager.allocate(1, [BS], replication=1)
        vectors, send = store._scatter_tasks(
            [(blob, nonce, 0)], [BytesPayload(b"z" * BS)], placements, []
        )
        store._map_io(send, vectors)
        store._publish_metadata(ticket, nonce, [BS], placements)
        store.publish_pipeline.commit(blob, ticket.version)

        assert store.latest_version(blob) == 3
        assert store.read(blob) == b"a" * (2 * BS) + bytes(2 * BS) + b"z" * BS
        store.close()

    def test_interrupt_after_commit_never_rolls_back_committed_write(
        self, io_workers
    ):
        """An interrupt reaching the writer after its commit flush must
        not route the published snapshot into the abort path — its
        blocks belong to readers now."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        real_commit = store.publish_pipeline.commit

        def commit_then_interrupt(blob_id, version):
            real_commit(blob_id, version)
            raise KeyboardInterrupt

        store.publish_pipeline.commit = commit_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            store.append(blob, b"a" * (2 * BS))
        store.publish_pipeline.commit = real_commit
        assert store.latest_version(blob) == 1
        assert not store.snapshot(blob, 1).tombstone
        assert store.version_manager.in_flight(blob) == []
        assert store.read(blob) == b"a" * (2 * BS)  # blocks intact
        store.close()

    def test_error_after_commit_never_rolls_back_committed_write(self, io_workers):
        """An ordinary error surfacing after the commit flush is the
        writer's to report, not a write failure: the snapshot committed,
        its blocks keep their charges, and the next write builds on it."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        real_commit = store.publish_pipeline.commit

        def commit_then_fail(blob_id, version):
            real_commit(blob_id, version)
            raise RuntimeError("lost the reply")

        store.publish_pipeline.commit = commit_then_fail
        with pytest.raises(RuntimeError, match="lost the reply"):
            store.append(blob, b"a" * BS)
        store.publish_pipeline.commit = real_commit
        assert store.latest_version(blob) == 1
        assert not store.snapshot(blob, 1).tombstone
        assert store.version_manager.in_flight(blob) == []
        assert store.provider_manager.block_counts() == store.provider_block_counts()
        assert sum(store.provider_block_counts().values()) == 1
        assert store.append(blob, b"b" * BS) == 2
        assert store.read(blob) == b"a" * BS + b"b" * BS
        store.close()

    def test_scrub_leaves_in_flight_versions_alone(self, io_workers):
        """The scrub must not force-overwrite a healthy in-flight
        write's metadata with tombstone filler."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.append(blob, b"a" * BS)
        ticket = assign(store.version_manager, blob, BS)  # v2 in flight
        store._publish_metadata(
            ticket, nonce=999, sizes=[BS], placements=[("provider-000",)]
        )
        keys = [k for k in store.metadata.all_node_keys() if k.version == 2]
        published = store.metadata.get_nodes(keys)
        report = store.scrub()
        assert report.tombstones_checked == 0
        assert report.filler_republished == 0
        assert store.metadata.get_nodes(keys) == published
        store.close()

    def test_scrub_through_branch_heals_ancestor_keys(self, io_workers):
        """A tombstone inherited across a branch point is owned by the
        ancestor: the scrub must heal the ancestor's keys (which is
        where readers resolve), not mint unreachable nodes under the
        branch's id."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4, metadata_providers=2, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))  # v1
        real_patch = store.metadata.put_patch
        real_fillers = store.metadata.put_fillers

        def failing_patch(nodes):
            if any(node.key.version == 2 for node in nodes):
                raise ProviderUnavailable("bucket down")
            return real_patch(nodes)

        def failing_fillers(nodes):  # filler puts fail too: no node lands
            dead = [n.key for n in nodes if n.key.version == 2]
            rest = [n for n in nodes if n.key.version != 2]
            return dead + (real_fillers(rest) if rest else [])

        store.metadata.put_patch = failing_patch
        store.metadata.put_fillers = failing_fillers
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v2 tombstones, no filler
        store.metadata.put_patch = real_patch
        store.metadata.put_fillers = real_fillers

        branch = store.branch(blob, version=2)  # branch at the tombstone
        with pytest.raises(VersionNotFound):
            store.read(branch, version=2)
        report = store.scrub()
        assert report.tombstones_checked == 1  # the ancestor's, once
        assert report.filler_republished > 0
        assert not any(k.blob_id == branch for k in store.metadata.all_node_keys())
        expected = b"a" * (2 * BS) + bytes(2 * BS)
        assert store.read(branch, version=2) == expected
        assert store.read(blob, version=2) == expected
        store.close()

    def test_tombstone_needs_no_replication_repair(self, io_workers):
        """Zero leaves store nothing: the scrub's block sweep must not
        flag (or crash on) them."""
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.append(blob, b"a" * (2 * BS))
        undo = fail_publish_for_version(store, 2)
        with pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))
        undo()
        report = store.scrub()
        assert report.blocks_checked == 2  # v1's blocks; v2 is all zero leaves
        assert report.copies_created == 0
        assert report.errors == ()
        store.close()


def _patch_keys(blob, version, start, end, size_after, prior_size, history):
    """Canonical node keys version *version* publishes for this write
    (the filler patch occupies exactly the real patch's key set)."""
    nodes = build_tombstone_patch(
        blob_id=blob,
        version=version,
        write_start=start,
        write_end=end,
        size_after=size_after,
        prior_size=prior_size,
        block_size=BS,
        history=history,
    )
    return {node.key for node in nodes}


def make_chaos_store(io_workers=0):
    """A store plus a victim metadata bucket whose permanent death dooms
    exactly one in-flight write.

    Scenario geometry (all appends): v1 = 4 blocks (healthy), v2 = 2
    blocks (doomed), v3 = 2 blocks (written after the abort).  The
    victim bucket must own at least one of v2's metadata keys (so v2's
    publication fails) but none of the keys v1's readback, v3's
    publication or v3's readback need — those are v1's and v3's whole
    patches plus the part of v2's filler that v3's descent resolves
    through (the subtree under v2's own write range).  With
    ``metadata_replication=1`` each key has exactly one owner, so "the
    victim is down" is precisely "every replica of that bucket is down".
    """
    h1 = ((1, 0, 4),)
    h2 = ((1, 0, 4), (2, 4, 6))
    for n_buckets in (8, 16, 24, 32, 48, 64, 96):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=n_buckets,
            block_size=BS,
            **engine_kwargs(io_workers),
        ))
        blob = store.create("chaos")
        v1_keys = _patch_keys(blob, 1, 0, 4, 4 * BS, 0, ())
        v2_keys = _patch_keys(blob, 2, 4, 6, 6 * BS, 4 * BS, h1)
        v3_keys = _patch_keys(blob, 3, 6, 8, 8 * BS, 6 * BS, h2)
        needed = (
            v1_keys
            | v3_keys
            | {k for k in v2_keys if k.offset >= 4 and k.span <= 2}
        )
        droppable = v2_keys - needed
        owners = store.metadata.store.owners
        victim = next(
            (
                name
                for name in store.metadata.store.buckets
                if any(name in owners(k) for k in droppable)
                and not any(name in owners(k) for k in needed)
            ),
            None,
        )
        if victim is not None:
            return store, blob, victim
        store.close()
    raise AssertionError("no bucket layout isolates the doomed write's keys")


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestChaosMetadataBucketDown:
    """Acceptance scenario: every replica of a metadata bucket dies
    permanently mid-write.  No monkeypatching — a real bucket fails."""

    def test_abort_is_clean_and_store_stays_live(self, io_workers):
        store, blob, victim = make_chaos_store(io_workers)
        store.append(blob, b"a" * (4 * BS))  # v1
        pre_providers = snapshot_provider_state(store)
        pre_allocator = store.provider_manager.block_counts()

        store.metadata.store.fail_bucket(victim)  # permanent
        # Whether the publish dies on the immutability pre-read or the
        # put itself, every replica of the owning bucket is down.
        with pytest.raises((ReplicationError, ProviderUnavailable)):
            store.append(blob, b"x" * (2 * BS))  # v2: publish hits the victim

        # Tombstone published (where possible), blocks rolled back,
        # charges released, nothing in flight, watermark advanced.
        assert snapshot_provider_state(store) == pre_providers
        assert store.provider_manager.block_counts() == pre_allocator
        assert store.version_manager.in_flight(blob) == []
        assert store.latest_version(blob) == 2
        assert store.snapshot(blob, 2).tombstone

        # Surviving snapshots stay readable byte-for-byte...
        assert store.read(blob, version=1) == b"a" * (4 * BS)
        # ... a subsequent write succeeds and resolves through the
        # filler nodes that did land...
        assert store.append(blob, b"y" * (2 * BS)) == 3
        assert store.read(blob) == b"a" * (4 * BS) + bytes(2 * BS) + b"y" * (2 * BS)
        # ... and GC completes with the bucket still down (offline
        # metadata buckets are skipped like offline data providers).
        report = collect_garbage(store, blob, retain_from=3)
        assert report.nodes_deleted > 0
        assert store.read(blob) == b"a" * (4 * BS) + bytes(2 * BS) + b"y" * (2 * BS)
        store.close()

    def test_scrub_heals_tombstone_after_bucket_recovery(self, io_workers):
        store, blob, victim = make_chaos_store(io_workers)
        store.append(blob, b"a" * (4 * BS))
        store.metadata.store.fail_bucket(victim)
        with pytest.raises((ReplicationError, ProviderUnavailable)):
            store.append(blob, b"x" * (2 * BS))

        # Filler nodes owned by the dead bucket could not be placed:
        # the tombstone is (partially) unreadable, like anything else
        # the outage owns, and the leftovers are reported.
        with pytest.raises((VersionNotFound, ProviderUnavailable)):
            store.read(blob, version=2)
        assert store.scrub().errors  # still down: v2's tree stays unreadable

        store.metadata.store.recover_bucket(victim)
        report = store.scrub()
        assert report.filler_republished > 0
        assert report.errors == ()
        assert store.read(blob, version=2) == b"a" * (4 * BS) + bytes(2 * BS)
        # With the filler complete, GC can retain the tombstone too.
        collect_garbage(store, blob, retain_from=2)
        assert store.read(blob, version=2) == b"a" * (4 * BS) + bytes(2 * BS)
        with pytest.raises(VersionNotFound):
            store.read(blob, version=1)
        store.close()
