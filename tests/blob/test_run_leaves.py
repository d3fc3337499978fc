"""Run leaves (DESIGN.md §4): one metadata node per run of up to
``RUN_SPAN`` blocks, clipped wherever a later write overwrote part of it.

The property at the top drives random writes, appends, aborted writes
(tombstones), branches and GC passes through a real store and checks
every retained snapshot — pinned ones too — against a plain byte-array
model.  The rest pins the node counts and the run-specific paths:
redirects into runs, differencing over a partly overwritten run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob import (
    LocalBlobStore,
    NodeKey,
    RedirectLeaf,
    RunLeaf,
    StoreConfig,
    collect_garbage,
)
from repro.blob.diff import BlockRange, changed_ranges
from repro.blob.segment_tree import RUN_SPAN
from repro.errors import ProviderUnavailable, VersionNotFound

BS = 4


def make_store(**kwargs):
    config = dict(data_providers=4, metadata_providers=4, block_size=BS)
    config.update(kwargs)
    return LocalBlobStore(config=StoreConfig(**config))


def pattern(tag: int, length: int) -> bytes:
    """Bytes that differ per op and per position, so a stale entry shows."""
    return bytes((tag * 37 + i) % 251 + 1 for i in range(length))


def fail_next_publish(store):
    """Make the next metadata publish fail after version assignment: the
    write aborts into a tombstone (DESIGN.md §7)."""
    real = store.metadata.put_patch

    def failing(nodes):
        store.metadata.put_patch = real
        raise ProviderUnavailable("metadata outage")

    store.metadata.put_patch = failing


def tombstone_content(prior: bytes, offset: int, length: int) -> bytes:
    """What an aborted write of [offset, offset+length) reads as: blocks
    it would have overwritten exactly keep their prior bytes, every
    other block of its range reads as zeros."""
    size_after = max(len(prior), offset + length)
    out = bytearray(prior) + bytes(size_after - len(prior))
    for index in range(offset // BS, -(-(offset + length) // BS)):
        need = min(BS, size_after - index * BS)
        prior_len = min(BS, max(0, len(prior) - index * BS))
        if prior_len != need:
            out[index * BS : index * BS + need] = bytes(need)
    return bytes(out)


class Model:
    """Per BLOB: the bytes of every version (index 0 is the empty BLOB)
    and the GC floor."""

    def __init__(self):
        self.versions: dict[str, list[bytes]] = {}
        self.floor: dict[str, int] = {}


@settings(max_examples=60)
@given(data=st.data())
def test_every_retained_version_reads_back_as_the_model(data):
    store = make_store()
    model = Model()
    first = store.create()
    model.versions[first] = [b""]
    model.floor[first] = 1
    pins = []
    for tag in range(data.draw(st.integers(3, 9), label="ops")):
        blob = data.draw(st.sampled_from(sorted(model.versions)), label="blob")
        history = model.versions[blob]
        size = len(history[-1])
        op = data.draw(
            st.sampled_from(["append", "write", "abort", "branch", "gc", "pin"]),
            label="op",
        )
        if op in ("append", "write", "abort"):
            if op == "append" and size % BS:
                op = "write"  # an append needs a block-aligned size
            nblocks = data.draw(st.integers(1, 300), label="blocks")
            offset = size if op == "append" else BS * data.draw(
                st.integers(0, size // BS), label="start"
            )
            length = nblocks * BS
            if offset + length >= size and data.draw(st.booleans(), label="partial"):
                length -= data.draw(st.integers(1, BS - 1), label="short")
            if offset + length < size and length % BS:
                length += BS - length % BS  # interior writes cover whole blocks
            payload = pattern(tag, length)
            if op == "abort":
                fail_next_publish(store)
                with pytest.raises(ProviderUnavailable):
                    store.write(blob, offset, payload)
                history.append(tombstone_content(history[-1], offset, length))
                continue
            if op == "append":
                version = store.append(blob, payload)
            else:
                version = store.write(blob, offset, payload)
            content = bytearray(history[-1]) + bytes(max(0, offset + length - size))
            content[offset : offset + length] = payload
            history.append(bytes(content))
            assert version == len(history) - 1
        elif op == "branch":
            if len(history) == 1:
                continue
            fork = store.branch(blob)
            model.versions[fork] = list(history)
            model.floor[fork] = model.floor[blob]
        elif op == "gc":
            latest = len(history) - 1
            if latest < 1:
                continue
            retain = data.draw(st.integers(model.floor[blob], latest), label="retain")
            collect_garbage(store, blob, retain_from=retain)
            model.floor[blob] = retain
        elif len(history) > 1:  # pin the latest snapshot for a later read
            pins.append((blob, store.snapshot(blob), history[-1]))

    for blob, history in model.versions.items():
        for version in range(1, len(history)):
            if version < model.floor[blob]:
                with pytest.raises(VersionNotFound):
                    store.read(blob, version=version)
            else:
                assert store.read(blob, version=version) == history[version], (blob, version)
    for blob, info, expected in pins:
        if info.version >= model.floor[blob]:
            assert store.read(blob, version=info) == expected
        else:
            # A pin below the floor reads its bytes while its nodes
            # survive (shared with retained snapshots), else fails.
            try:
                assert store.read(blob, version=info) == expected
            except VersionNotFound:
                pass
    store.close()


def published_nodes(store, blob, data) -> int:
    """Nodes one write publishes (counted at the metadata facade)."""
    counted = []
    real = store.metadata.put_patch

    def counting(nodes):
        counted.append(len(nodes))
        return real(nodes)

    store.metadata.put_patch = counting
    store.append(blob, data)
    store.metadata.put_patch = real
    (count,) = counted
    return count


@pytest.mark.parametrize("prior_runs", [0, 1, 10])
@pytest.mark.parametrize("k", [1, 2, 63, 64, 65, 200, 300, 1000])
def test_aligned_append_publishes_about_one_node_per_run(prior_runs, k):
    """A k-block append starting on a run boundary publishes at most
    2·⌈k/64⌉ + 2·⌈log2 N⌉ + 1 nodes (N the size after): its whole runs
    and the inner nodes joining them inside the write (fewer than
    ⌈k/64⌉), plus at most two nodes per level on the path to its end —
    the tail's narrower runs and the inner nodes above them — and the
    path down to its start."""
    store = make_store()
    blob = store.create()
    if prior_runs:
        store.append(blob, b"p" * (prior_runs * RUN_SPAN * BS))
    n = prior_runs * RUN_SPAN + k
    bound = 2 * -(-k // RUN_SPAN) + 2 * (n - 1).bit_length() + 1
    assert published_nodes(store, blob, b"k" * (k * BS)) <= bound
    store.close()


def test_a_whole_run_is_one_node():
    store = make_store()
    blob = store.create()
    assert published_nodes(store, blob, b"r" * (RUN_SPAN * BS)) == 1
    (run,) = [store.metadata.get_node(key) for key in store.metadata.all_node_keys()]
    assert isinstance(run, RunLeaf) and run.key == NodeKey(blob, 1, 0, RUN_SPAN)
    assert [entry.index for entry in run.entries] == list(range(RUN_SPAN))
    store.close()


def test_overwrite_inside_a_run_is_clipped_out_of_it():
    """A later version references the old run around its own write: the
    run's stale entries for the overwritten blocks are never read."""
    store = make_store()
    blob = store.create()
    old = pattern(1, RUN_SPAN * BS)
    store.append(blob, old)
    store.write(blob, 10 * BS, b"N" * (3 * BS))
    expected = old[: 10 * BS] + b"N" * (3 * BS) + old[13 * BS :]
    assert store.read(blob) == expected
    assert store.read(blob, version=1) == old
    # Every block read through the run, overwritten ones excluded.
    assert store.read(blob, offset=9 * BS, size=5 * BS) == expected[9 * BS : 14 * BS]
    store.close()


class TestRedirectsIntoRuns:
    def test_redirect_leaf_into_a_run_resolves(self):
        store = make_store()
        blob = store.create()
        old = pattern(2, RUN_SPAN * BS)
        store.append(blob, old)
        fail_next_publish(store)
        with pytest.raises(ProviderUnavailable):
            store.write(blob, 10 * BS, b"x" * BS)  # v2 tombstones
        filler = store.metadata.get_node(NodeKey(blob, 2, 10, 1))
        assert isinstance(filler, RedirectLeaf)
        assert filler.target_key == NodeKey(blob, 1, 0, RUN_SPAN)
        assert store.read(blob, version=2) == old
        assert store.read(blob, version=2, offset=10 * BS, size=BS) == old[10 * BS : 11 * BS]
        store.close()

    def test_tombstone_run_defers_each_entry(self):
        """A dead write of a whole run overwriting older data publishes a
        run whose entries are target keys; created blocks read as zeros."""
        store = make_store()
        blob = store.create()
        old = pattern(3, 40 * BS)
        store.append(blob, old)
        fail_next_publish(store)
        with pytest.raises(ProviderUnavailable):
            store.write(blob, 32 * BS, b"x" * (32 * BS))  # v2 tombstones
        filler = store.metadata.get_node(NodeKey(blob, 2, 32, 32))
        assert isinstance(filler, RunLeaf)
        targets = filler.entries[:8]
        assert all(type(target) is NodeKey and target.version == 1 for target in targets)
        assert all(entry.is_zero for entry in filler.entries[8:])
        assert store.read(blob, version=2) == old + bytes(24 * BS)
        # A later write weaves over the tombstone's run.
        store.write(blob, 34 * BS, b"y" * BS)
        assert store.read(blob) == old[: 34 * BS] + b"y" * BS + old[35 * BS :] + bytes(24 * BS)
        store.close()


def test_changed_ranges_over_a_partly_overwritten_run():
    store = make_store()
    blob = store.create()
    store.append(blob, pattern(4, RUN_SPAN * BS))
    store.write(blob, 5 * BS, b"a" * (2 * BS))
    store.write(blob, 40 * BS, b"b" * BS)
    assert changed_ranges(store, blob, 1, 2) == [BlockRange(5, 7)]
    assert changed_ranges(store, blob, 2, 3) == [BlockRange(40, 41)]
    assert changed_ranges(store, blob, 1, 3) == [BlockRange(5, 7), BlockRange(40, 41)]
    assert changed_ranges(store, blob, 3, 3) == []
    store.close()


def test_gc_frees_a_block_overwritten_inside_a_shared_run():
    store = make_store(data_providers=1)
    blob = store.create()
    store.append(blob, pattern(5, RUN_SPAN * BS))
    store.write(blob, 7 * BS, b"z" * BS)
    report = collect_garbage(store, blob, retain_from=2)
    # v1's run stays (v2 reaches 63 of its blocks); its block 7 goes.
    assert report.blocks_deleted == 1 and report.nodes_deleted == 0
    assert store.metadata.get_node(NodeKey(blob, 1, 0, RUN_SPAN))
    assert store.provider_block_counts()["provider-000"] == RUN_SPAN
    store.close()
