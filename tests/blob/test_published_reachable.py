"""Published = reachable (DESIGN.md §3, §4): a write stores exactly the
tree nodes that some walker reads, and every walker reads by one rule.

The property drives random appends, writes of 1–300 blocks at offsets
off the run grid (with partial tails), short overwrites inside earlier
wide writes, aborted writes (tombstones), branches and GC passes through
a real store on the I/O engine, at data and metadata replication 1–2.
It checks that

* the keys each version stores are the keys the walk from its own root
  reaches at that version: nothing is stored that no walker reads;
* every key a walker asks for exists (reads, GC mark, the scrub's sweep,
  diffs): no walker enters a covered reference at a key nobody stored;
* the block entries each retained snapshot reaches equal a per-block
  oracle computed from the write history alone (:func:`oracle`);
* GC frees exactly the blocks no retained snapshot's oracle names, and
  a diff reports exactly the blocks whose oracle entries differ.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.blob import (
    BlockDescriptor,
    LeafNode,
    LocalBlobStore,
    NodeKey,
    RunLeaf,
    StoreConfig,
    changed_ranges,
    collect_garbage,
    iter_reachable_batched,
)
from repro.blob.segment_tree import RUN_SPAN, clipped_entries
from repro.errors import ProviderUnavailable, VersionNotFound
from tests.blob.test_run_leaves import fail_next_publish, pattern, tombstone_content

BS = 4


class Model:
    """Per BLOB: the bytes of every version (index 0 is the empty BLOB),
    the aborted versions and the GC floor."""

    def __init__(self):
        self.versions: dict[str, list[bytes]] = {}
        self.aborted: dict[str, set[int]] = {}
        self.floor: dict[str, int] = {}

    def retained(self, blob):
        return range(self.floor[blob], len(self.versions[blob]))


def oracle(store, model, blob, version) -> list[tuple]:
    """Per block of a snapshot, what it holds, from the version
    manager's write history alone, block by block: the latest write at
    or below the snapshot covering the block.  A real write names the
    block it stored, ``("block", owner, version, index, size)``.  An
    aborted write defers to the block's prior content where it would
    have overwritten the whole block, and is ``("zero", version, index,
    size)`` where it would have created it."""
    history = store.version_manager.history_upto(blob, version)
    contents, aborted = model.versions[blob], model.aborted[blob]
    out = []
    for index in range(-(-len(contents[version]) // BS)):
        at_most = version
        while True:
            writer = max(v for v, start, end in history if v <= at_most and start <= index < end)
            need = min(BS, len(contents[writer]) - index * BS)
            if writer not in aborted:
                owner = store.version_manager.owner_of(blob, writer)
                out.append(("block", owner, writer, index, need))
                break
            if min(BS, max(0, len(contents[writer - 1]) - index * BS)) != need:
                out.append(("zero", writer, index, need))
                break
            at_most = writer - 1
    return out


def describe(entry) -> tuple:
    if type(entry) is BlockDescriptor:
        return ("block", entry.blob_id, entry.version, entry.index, entry.size)
    return ("zero", entry.version, entry.index, entry.size)


def walk(store, blob, version) -> tuple[set, list[tuple]]:
    """The keys the whole-tree walk from a snapshot's root visits, and
    the block entries it reaches, in block order."""
    info = store.snapshot(blob, version)
    root = NodeKey(blob, version, 0, info.root_span)
    keys, found = set(), {}
    for node, lo, hi in iter_reachable_batched(
        store.metadata.get_nodes, [root], key_resolver=store.key_resolver()
    ):
        keys.add(node.key)
        for index, entry in enumerate(clipped_entries(node, lo, hi), lo):
            if type(entry) is not NodeKey:  # a redirect: its target is walked too
                assert index not in found, (blob, version, index)
                found[index] = describe(entry)
    assert sorted(found) == list(range(len(found))), (blob, version)
    return keys, [found[index] for index in range(len(found))]


def check_published(store, fetched, blob, version) -> None:
    """The keys a version stored are the keys of its own that the walk
    from its root reaches, and those a cold read of it fetches
    (*fetched* logs every key asked of the metadata service)."""
    walked, _ = walk(store, blob, version)
    fetched.clear()
    store.read(blob, version=version)
    stored = {
        key
        for key in store.metadata.all_node_keys()
        if (key.blob_id, key.version) == (blob, version)
    }
    for reached in (walked, fetched):
        own = {key for key in reached if (key.blob_id, key.version) == (blob, version)}
        assert own == stored, (blob, version, sorted(stored - own), sorted(own - stored))


def stored_blocks(store, blob) -> list:
    """``(provider, block id)`` of every stored replica of *blob*'s blocks."""
    return [
        (name, block_id)
        for name, provider in store.providers.items()
        for block_id in provider.block_ids()
        if block_id[0] == blob
    ]


@given(data=st.data())
def test_published_equals_reachable(data):
    config = StoreConfig(
        data_providers=4,
        metadata_providers=4,
        block_size=BS,
        replication=data.draw(st.integers(1, 2), label="replication"),
        metadata_replication=data.draw(st.integers(1, 2), label="metadata replication"),
        io_workers=2,
    )
    with LocalBlobStore(config=config) as store:
        # Every key a walker asks for must exist; record the misses.
        fetched, misses = [], []
        real_get = store.metadata.get_nodes

        def get_nodes(keys):
            fetched.extend(keys)
            try:
                return real_get(keys)
            except VersionNotFound:
                misses.append(list(keys))
                raise

        store.metadata.get_nodes = get_nodes
        # The block id each written (owner, version, index) stored.
        block_ids = {}
        real_put = store.metadata.put_patch

        def put_patch(nodes):
            for node in nodes:
                entries = node.entries if isinstance(node, RunLeaf) else (
                    (node.block,) if isinstance(node, LeafNode) else ()
                )
                for entry in entries:
                    if type(entry) is BlockDescriptor:
                        block_ids[entry.blob_id, entry.version, entry.index] = entry.block_id
            return real_put(nodes)

        store.metadata.put_patch = put_patch

        def named_blocks(blob) -> set:
            """Block ids of *blob* the oracle of any retained snapshot
            names, over the BLOB and every branch descending from it."""
            named = set()
            for other in model.versions:
                if other != blob and not store.version_manager.descends_from(other, blob):
                    continue
                for version in model.retained(other):
                    for name in oracle(store, model, other, version):
                        if name[0] == "block" and name[1] == blob:
                            named.add(block_ids[name[1:4]])
            return named

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
                # A short overwrite inside an earlier wide write: it splits
                # a subtree older versions still reference covered.
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
                    before = stored_blocks(store, blob)
                    report = collect_garbage(store, blob, retain_from=retain)
                    model.floor[blob] = retain
                    after = stored_blocks(store, blob)
                    assert {block_id for _, block_id in after} == named_blocks(blob)
                    assert report.blocks_deleted == len(before) - len(after)
                continue

            payload = pattern(tag, length)
            if op == "abort":
                fail_next_publish(store)
                try:
                    store.write(blob, offset, payload)
                except ProviderUnavailable:
                    pass
                else:
                    raise AssertionError("the publish was meant to fail")
                history.append(tombstone_content(history[-1], offset, length))
                model.aborted[blob].add(len(history) - 1)
            else:
                if op == "append":
                    version = store.append(blob, payload)
                else:
                    version = store.write(blob, offset, payload)
                content = bytearray(history[-1]) + bytes(max(0, offset + length - size))
                content[offset : offset + length] = payload
                history.append(bytes(content))
                assert version == len(history) - 1
            check_published(store, fetched, blob, len(history) - 1)
            if length > 2 * RUN_SPAN * BS:
                wide.append((blob, offset // BS, (offset + length) // BS))

        assert store.scrub().errors == ()
        for blob, history in model.versions.items():
            retained = list(model.retained(blob))
            expected = {}
            for version in retained:
                expected[version] = oracle(store, model, blob, version)
                assert walk(store, blob, version)[1] == expected[version], (blob, version)
                assert store.read(blob, version=version) == history[version], (blob, version)
            for va, vb in zip(retained, retained[1:] + retained[:1]):
                # A diff tells zero blocks apart by size alone.
                names = [
                    [name[:1] + name[2:] if name[0] == "zero" else name for name in expected[v]]
                    for v in (va, vb)
                ]
                changed = {
                    index
                    for index in range(max(map(len, names)))
                    if index >= min(map(len, names)) or names[0][index] != names[1][index]
                }
                got = {
                    index
                    for rng in changed_ranges(store, blob, va, vb)
                    for index in range(rng.start, rng.end)
                }
                assert got == changed, (blob, va, vb)
        assert misses == []
