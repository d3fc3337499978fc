"""Tests for snapshot differencing (metadata-only diffs)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob import LocalBlobStore, StoreConfig
from repro.blob.diff import BlockRange, changed_ranges

BS = 16


@pytest.fixture
def store():
    return LocalBlobStore(config=StoreConfig(data_providers=5, metadata_providers=2, block_size=BS))


class TestChangedRanges:
    def test_identical_versions_empty_diff(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        assert changed_ranges(store, blob, 1, 1) == []

    def test_single_block_overwrite(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (8 * BS))
        store.write(blob, 2 * BS, b"b" * BS)
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(2, 3)]

    def test_multi_block_overwrite_coalesced(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (8 * BS))
        store.write(blob, 2 * BS, b"b" * (3 * BS))
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(2, 5)]

    def test_disjoint_changes(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (8 * BS))
        store.write(blob, 0, b"b" * BS)  # v2
        store.write(blob, 6 * BS, b"c" * BS)  # v3
        assert changed_ranges(store, blob, 1, 3) == [
            BlockRange(0, 1),
            BlockRange(6, 7),
        ]

    def test_append_counts_as_change(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (2 * BS))
        store.append(blob, b"b" * (2 * BS))
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(2, 4)]

    def test_append_across_root_growth(self, store):
        """Diffing snapshots whose trees have different root spans."""
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))  # span 4
        store.append(blob, b"b" * (3 * BS))  # span 8
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(4, 7)]

    def test_diff_is_symmetric(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (6 * BS))
        store.write(blob, BS, b"b" * (2 * BS))
        assert changed_ranges(store, blob, 1, 2) == changed_ranges(store, blob, 2, 1)

    def test_empty_vs_nonempty(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (3 * BS))
        assert changed_ranges(store, blob, 0, 1) == [BlockRange(0, 3)]

    def test_rewrite_with_identical_bytes_still_differs(self, store):
        """Diff is metadata-level: a rewrite is a new block identity
        even if the bytes happen to match."""
        blob = store.create()
        store.write(blob, 0, b"same" * 4)
        store.write(blob, 0, b"same" * 4)
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(0, 1)]

    def test_diff_across_branch(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))
        fork = store.branch(blob, "fork")
        store.write(fork, 3 * BS, b"f" * BS)
        ranges = changed_ranges(store, blob, 1, 2, blob_b=fork)
        assert ranges == [BlockRange(3, 4)]

    def test_to_bytes_clipping(self, store):
        blob = store.create()
        store.write(blob, 0, b"a" * (BS + BS // 2))  # trailing partial
        store.write(blob, BS, b"b" * (BS // 2))  # rewrite the tail
        (rng,) = changed_ranges(store, blob, 1, 2)
        offset, length = rng.to_bytes(BS, store.snapshot(blob, 2).size)
        assert offset == BS and length == BS // 2


class TestDiffAgainstBruteForce:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),  # start block
                st.integers(min_value=1, max_value=4),  # block count
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=40)
    def test_property_diff_equals_block_id_comparison(self, ops):
        """The tree diff must agree with brute-force descriptor
        comparison on every pair of consecutive versions."""
        store = LocalBlobStore(config=StoreConfig(data_providers=4, metadata_providers=2, block_size=BS))
        blob = store.create()
        size_blocks = 0
        applied = 0
        for start, count in ops:
            start = min(start, size_blocks)  # no holes
            store.write(blob, start * BS, bytes([applied % 251]) * (count * BS))
            size_blocks = max(size_blocks, start + count)
            applied += 1
        latest = store.latest_version(blob)
        for va in range(1, latest):
            vb = va + 1
            expected = set()
            desc_a = {
                d.index: d.block_id
                for d in store._collect_descriptors(
                    store.snapshot(blob, va), 0, store.snapshot(blob, va).size
                )
            }
            desc_b = {
                d.index: d.block_id
                for d in store._collect_descriptors(
                    store.snapshot(blob, vb), 0, store.snapshot(blob, vb).size
                )
            }
            for index in set(desc_a) | set(desc_b):
                if desc_a.get(index) != desc_b.get(index):
                    expected.add(index)
            got = set()
            for rng in changed_ranges(store, blob, va, vb):
                got.update(range(rng.start, rng.end))
            assert got == expected


class TestTombstoneDiff:
    """Diffs over tombstoned versions follow redirects (DESIGN.md §7)."""

    def _abort_version(self, store, version):
        real = store.metadata.put_patch

        def failing(nodes):
            if any(node.key.version == version for node in nodes):
                from repro.errors import ProviderUnavailable

                raise ProviderUnavailable("bucket down")
            return real(nodes)

        store.metadata.put_patch = failing
        return lambda: setattr(store.metadata, "put_patch", real)

    def test_aborted_overwrite_diffs_empty_against_prior(self, store):
        import pytest as _pytest
        from repro.errors import ProviderUnavailable

        blob = store.create()
        store.write(blob, 0, b"a" * (4 * BS))  # v1
        undo = self._abort_version(store, 2)
        with _pytest.raises(ProviderUnavailable):
            store.write(blob, BS, b"x" * (2 * BS))  # v2 dies, tombstones
        undo()
        # The tombstone's content IS v1's: redirects resolve to the
        # same blocks, so nothing changed.
        assert changed_ranges(store, blob, 1, 2) == []

    def test_aborted_append_diffs_only_the_zero_gap(self, store):
        import pytest as _pytest
        from repro.errors import ProviderUnavailable

        blob = store.create()
        store.write(blob, 0, b"a" * (2 * BS))  # v1
        undo = self._abort_version(store, 2)
        with _pytest.raises(ProviderUnavailable):
            store.append(blob, b"x" * (2 * BS))  # v2 dies, zero-fills [2, 4)
        undo()
        assert changed_ranges(store, blob, 1, 2) == [BlockRange(2, 4)]


class TestLevelBatchedDiff:
    """The diff descends both trees a level at a time, by the reference
    rule every walker follows (DESIGN.md §4, §9)."""

    def test_rounds_of_a_one_block_overwrite_in_a_wide_blob(self):
        """Two 1024-block appends, then block 700 rewritten, no node
        cache: each diff takes at most one batched round per level of
        the overwrite's path (12), and never fetches a node alone."""
        store = LocalBlobStore(
            config=StoreConfig(
                data_providers=4, metadata_providers=4, block_size=BS, metadata_cache_nodes=0
            )
        )
        blob = store.create()
        store.append(blob, b"a" * (1024 * BS))
        store.append(blob, b"b" * (1024 * BS))
        store.write(blob, 700 * BS, b"c" * BS)
        rounds = []
        real = store.metadata.get_nodes

        def get_nodes(keys):
            rounds.append(len(keys))
            return real(keys)

        def get_node(key):
            raise AssertionError(f"diff fetched {key} alone")

        store.metadata.get_nodes = get_nodes
        store.metadata.get_node = get_node
        stats = store.metadata.store.stats
        for older, expected in (
            (2, [BlockRange(700, 701)]),
            (1, [BlockRange(700, 701), BlockRange(1024, 2048)]),
        ):
            rounds.clear()
            stats.reset()
            assert changed_ranges(store, blob, older, 3) == expected
            assert len(rounds) <= 12, rounds
            assert stats.snapshot()["round_trips"] == len(rounds)
