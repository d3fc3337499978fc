"""Covered references (DESIGN.md §4, §9): an inner node marks each child
that lies wholly inside the write of the version it references, and a
read jumps from such a child wider than ``RUN_SPAN`` straight to that
write's runs.

The property drives random writes and appends of 1–300 blocks at
unaligned offsets, overwrites inside earlier wide writes, aborted writes
(tombstones), branches and GC passes through a real store, then checks
every retained snapshot three ways: it reads back as a byte-array model;
every reachable inner node's covered bits equal "child range inside
that version's write range", computed from the version manager's write
history; and its cold read costs no more metadata round trips than the
deepest path of its tree, derived from the write history and the
aborted versions alone (:func:`shape_rounds`).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import (
    InnerNode,
    LocalBlobStore,
    NodeKey,
    StoreConfig,
    collect_garbage,
    iter_reachable_batched,
)
from repro.blob.segment_tree import RUN_SPAN
from repro.errors import ProviderUnavailable, VersionNotFound
from tests.blob.test_run_leaves import fail_next_publish, pattern, tombstone_content

BS = 4


def make_store():
    # No node cache: every read is cold, so its round trips are the descent's.
    return LocalBlobStore(
        config=StoreConfig(
            data_providers=4, metadata_providers=4, block_size=BS, metadata_cache_nodes=0
        )
    )


def shape_rounds(history, tombstones, size_blocks, root_span) -> int:
    """Metadata rounds of a cold whole read of a snapshot, derived from
    its tree's shape alone: *history* is the version manager's write
    records ``(version, start, end)`` up to the snapshot, *tombstones*
    maps each aborted version to its ``(prior size, size)`` in bytes.

    A node is ``(version, offset, span)``.  A version's node over a
    position its write covers, at most ``RUN_SPAN`` wide, is the run
    holding it: its references are the redirects of a tombstone's
    entries.  Any other node is inner: each child names the latest
    version whose write meets it, entered at that version's runs if the
    child lies inside its write and is wider than ``RUN_SPAN``, at its
    node there otherwise.  A round fetches every key first reached in
    the previous one; a key fetched before is entered without a fetch.
    """
    writes = {version: (start, end) for version, start, end in history}

    def node_at(version, offset, span):
        start, end = writes[version]
        if start <= offset and offset + span <= end:
            while span < RUN_SPAN:
                parent = offset - offset % (2 * span)
                if parent < start or parent + 2 * span > end:
                    break
                offset, span = parent, 2 * span
        return version, offset, span

    def latest(lo, hi, at_most):
        return max(v for v, (s, e) in writes.items() if v <= at_most and s < hi and e > lo)

    def references(node, lo, hi):
        version, offset, span = node
        start, end = writes[version]
        if start <= offset and offset + span <= end and span <= RUN_SPAN:
            if version not in tombstones:
                return
            prior, size = tombstones[version]
            for block in range(lo, hi):
                need = min(BS, size - block * BS)
                if min(BS, max(0, prior - block * BS)) != need:
                    continue  # a zero block: the dead write created it
                older = [v for v, (s, e) in writes.items() if v < version and s <= block < e]
                if older:
                    yield node_at(max(older), block, 1), block, block + 1
            return
        half = span // 2
        for child in (offset, offset + half):
            clip_lo, clip_hi = max(lo, child), min(hi, child + half)
            if clip_lo >= clip_hi:
                continue
            owner = latest(child, child + half, version)
            start, end = writes[owner]
            if start <= child and child + half <= end and half > RUN_SPAN:
                for run in range(clip_lo - clip_lo % RUN_SPAN, clip_hi, RUN_SPAN):
                    yield (owner, run, RUN_SPAN), max(clip_lo, run), min(clip_hi, run + RUN_SPAN)
            else:
                yield node_at(owner, child, half), clip_lo, clip_hi

    fetched = set()
    frontier = {node_at(history[-1][0], 0, root_span): [(0, size_blocks)]}
    rounds = 0
    while frontier:
        rounds += 1
        fetched.update(frontier)
        entered, frontier = frontier, {}

        def enter(node, lo, hi):
            for ref, ref_lo, ref_hi in references(node, lo, hi):
                if ref in fetched:
                    enter(ref, ref_lo, ref_hi)
                else:
                    frontier.setdefault(ref, []).append((ref_lo, ref_hi))

        for node, clips in entered.items():
            for lo, hi in clips:
                enter(node, lo, hi)
    return rounds


def snapshot_rounds(store, blob, version, contents=(), aborted=()) -> int:
    """:func:`shape_rounds` of one snapshot: *contents* are the BLOB's
    bytes per version, *aborted* its aborted versions."""
    info = store.snapshot(blob, version)
    tombstones = {v: (len(contents[v - 1]), len(contents[v])) for v in aborted}
    history = store.version_manager.history_upto(blob, version)
    return shape_rounds(history, tombstones, info.size_blocks, info.root_span)


def check_covered_bits(store, blob, version, root, resolver) -> int:
    """Assert every reachable inner node's covered bits against the
    write history; return how many covered children were seen."""
    ranges = {v: (start, end) for v, start, end in store.version_manager.history_upto(blob, version)}
    covered = 0
    for node, _, _ in iter_reachable_batched(
        store.metadata.get_nodes, root, key_resolver=resolver
    ):
        if not isinstance(node, InnerNode):
            continue
        for child_offset, child_version, bit in (
            (node.key.offset, node.left_version, node.left_covered),
            (node.key.offset + node.half, node.right_version, node.right_covered),
        ):
            if child_version is None:
                assert not bit
                continue
            start, end = ranges[child_version]
            assert bit == (start <= child_offset and child_offset + node.half <= end), (
                node,
                ranges[child_version],
            )
            covered += bit
    return covered


class Model:
    """Per BLOB: the bytes of every version (index 0 is the empty BLOB),
    the aborted versions and the GC floor."""

    def __init__(self):
        self.versions: dict[str, list[bytes]] = {}
        self.aborted: dict[str, set[int]] = {}
        self.floor: dict[str, int] = {}


@given(data=st.data())
def test_covered_bits_reads_and_round_trips(data):
    store = make_store()
    model = Model()
    first = store.create()
    model.versions[first] = [b""]
    model.aborted[first] = set()
    model.floor[first] = 1
    wide = []  # (blob, first block, end block) of every write wider than two runs
    for tag in range(data.draw(st.integers(3, 8), label="ops")):
        blob = data.draw(st.sampled_from(sorted(model.versions)), label="blob")
        history = model.versions[blob]
        size = len(history[-1])
        op = data.draw(
            st.sampled_from(["append", "write", "inside", "abort", "branch", "gc"]),
            label="op",
        )
        if op == "inside":
            # A short overwrite inside an earlier wide write of this BLOB:
            # it splits a covered subtree, so later reads of the old
            # version jump while reads of the new one must not.
            inside = [(s, e) for b, s, e in wide if b == blob]
            if not inside:
                continue
            start, end = data.draw(st.sampled_from(inside), label="wide")
            first_block = data.draw(st.integers(start, end - 1), label="at")
            count = data.draw(st.integers(1, min(8, end - first_block)), label="count")
            offset, length = first_block * BS, count * BS
        elif op in ("append", "write", "abort"):
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
        elif op == "branch":
            if len(history) > 1:
                fork = store.branch(blob)
                model.versions[fork] = list(history)
                model.aborted[fork] = set(model.aborted[blob])
                model.floor[fork] = model.floor[blob]
                wide.extend((fork, s, e) for b, s, e in list(wide) if b == blob)
            continue
        else:  # gc
            latest = len(history) - 1
            if latest >= 1:
                retain = data.draw(st.integers(model.floor[blob], latest), label="retain")
                collect_garbage(store, blob, retain_from=retain)
                model.floor[blob] = retain
            continue

        payload = pattern(tag, length)
        if op == "abort":
            fail_next_publish(store)
            with pytest.raises(ProviderUnavailable):
                store.write(blob, offset, payload)
            history.append(tombstone_content(history[-1], offset, length))
            model.aborted[blob].add(len(history) - 1)
        else:
            version = (
                store.append(blob, payload) if op == "append" else store.write(blob, offset, payload)
            )
            content = bytearray(history[-1]) + bytes(max(0, offset + length - size))
            content[offset : offset + length] = payload
            history.append(bytes(content))
            assert version == len(history) - 1
        if length > 2 * RUN_SPAN * BS:
            wide.append((blob, offset // BS, (offset + length) // BS))

    resolver = store.key_resolver()
    stats = store.metadata.store.stats
    for blob, history in model.versions.items():
        for version in range(1, len(history)):
            if version < model.floor[blob]:
                with pytest.raises(VersionNotFound):
                    store.read(blob, version=version)
                continue
            info = store.snapshot(blob, version)
            stats.reset()
            assert store.read(blob, version=info) == history[version], (blob, version)
            cold = stats.snapshot()["round_trips"]
            root = NodeKey(blob, version, 0, info.root_span)
            bound = snapshot_rounds(store, blob, version, history, model.aborted[blob])
            assert cold <= bound, (blob, version)
            check_covered_bits(store, blob, version, root, resolver)
            # A range read enters the runs below a covered child clipped.
            size = len(history[version])
            lo = data.draw(st.integers(0, size - 1), label="lo")
            hi = data.draw(st.integers(lo + 1, size), label="hi")
            assert store.read(blob, offset=lo, size=hi - lo, version=info) == (
                history[version][lo:hi]
            ), (blob, version, lo, hi)
    store.close()


def test_an_overwrite_inside_a_covered_subtree_keeps_old_reads_jumping():
    """v1 appends 4 runs; v2 rewrites one block of run 1.  v1's root
    references stay covered and its read jumps; v2's left child now
    holds two versions, so its read walks down to the run v2 split."""
    store = make_store()
    blob = store.create()
    store.append(blob, pattern(1, 256 * BS))
    store.write(blob, 70 * BS, pattern(2, BS))
    resolver = store.key_resolver()
    stats = store.metadata.store.stats
    trips = {}
    for version in (1, 2):
        info = store.snapshot(blob, version)
        stats.reset()
        store.read(blob, version=info)
        trips[version] = stats.snapshot()["round_trips"]
        root = NodeKey(blob, version, 0, info.root_span)
        assert check_covered_bits(store, blob, version, root, resolver) >= 1
        assert trips[version] <= snapshot_rounds(store, blob, version)
    # v1: the root, then its 4 runs.  v2: the root; [0, 128) of v2
    # beside v1's 2 runs under [128, 256); then down [64, 128) to the
    # leaf v2 wrote, as deep as its tree.
    assert trips == {1: 2, 2: 9}
    assert store.read(blob, version=1) == pattern(1, 256 * BS)
    expected = bytearray(pattern(1, 256 * BS))
    expected[70 * BS : 71 * BS] = pattern(2, BS)
    assert store.read(blob, version=2) == bytes(expected)
    store.close()
