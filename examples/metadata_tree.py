#!/usr/bin/env python3
"""Figure 1, live: watch the metadata segment tree evolve.

Replays the paper's Figure 1 sequence on a real store — (a) append four
blocks, (b) overwrite two, (c) append one more — and prints each
snapshot's tree, showing which subtrees are new and which are shared
with older versions (the essence of cheap versioning).  A last, wider
append shows covered references: the root and the write's runs are all
it publishes.

Run:  python examples/metadata_tree.py
"""

from repro.blob import (
    InnerNode,
    LocalBlobStore,
    NodeKey,
    RunLeaf,
    StoreConfig,
    iter_reachable_batched,
)
from repro.blob.segment_tree import RUN_SPAN, LeafNode

BS = 64


def render_tree(store, blob, version) -> list[str]:
    """ASCII rendering of one snapshot's tree; '*' marks nodes created
    by this very version, everything else is shared with the past.  A
    write's whole range inside one canonical subtree is one run node; a
    later version reaches into an old run only for the blocks of the
    position that references it.  A reference lying wholly inside its
    version's write (covered) is entered at that write's runs: the
    nodes between were never published, and no reader needs them.

    The walk is the one GC and the scrub use, a level at a time; its
    visits sorted by position (offset, then widest first) are the
    tree's preorder."""
    info = store.snapshot(blob, version)
    root = NodeKey(blob, version, 0, info.root_span)
    visits = list(
        iter_reachable_batched(store.metadata.get_nodes, [root], store.key_resolver())
    )
    visits.sort(key=lambda visit: (visit[1], visit[1] - visit[2]))
    lines = []
    open_ranges: list[tuple[int, int]] = []  # ancestors of the next visit
    for node, lo, hi in visits:
        while open_ranges and not (open_ranges[-1][0] <= lo and hi <= open_ranges[-1][1]):
            open_ranges.pop()
        key = node.key
        marker = "*" if key.version == version else " "
        indent = "    " * len(open_ranges)
        open_ranges.append((lo, hi))
        if isinstance(node, LeafNode):
            lines.append(
                f"{indent}{marker} leaf[block {key.offset}] v{key.version}"
                f" -> {node.block.providers[0]}"
            )
        elif isinstance(node, RunLeaf):
            reached = "" if (lo, hi) == (key.offset, key.end) else f", blocks [{lo}, {hi})"
            lines.append(f"{indent}{marker} run[{key.offset}, {key.end}) v{key.version}{reached}")
        else:
            assert isinstance(node, InnerNode)
            lines.append(f"{indent}{marker} node[{key.offset}, {key.end}) v{key.version}")
    return lines


def show(store, blob, version, title) -> None:
    print(f"--- {title} (version {version}) ---")
    lines = render_tree(store, blob, version)
    fresh = sum(1 for line in lines if line.lstrip().startswith("*"))
    for line in lines:
        print(line)
    print(f"    ({fresh} new nodes this version, {len(lines) - fresh} shared)\n")


def main() -> None:
    store = LocalBlobStore(config=StoreConfig(data_providers=4, metadata_providers=2, block_size=BS))
    blob = store.create("fig1")

    # (a) "appending the first four blocks to an empty BLOB"
    store.append(blob, b"A" * (4 * BS))
    show(store, blob, 1, "Figure 1(a): append 4 blocks")

    # (b) "overwriting the first two blocks of the BLOB"
    store.write(blob, 0, b"B" * (2 * BS))
    show(store, blob, 2, "Figure 1(b): overwrite blocks 0-1")

    # (c) "an append of one block to the BLOB"
    store.append(blob, b"C" * BS)
    show(store, blob, 3, "Figure 1(c): append 1 block (root doubles)")

    # All three snapshots remain readable, of course.
    assert store.read(blob, version=1) == b"A" * (4 * BS)
    assert store.read(blob, version=2) == b"B" * (2 * BS) + b"A" * (2 * BS)
    assert store.read(blob, version=3).endswith(b"C" * BS)

    # Beyond Figure 1: an append of four whole runs.  Both children of
    # the root lie inside the write, so the root references them covered
    # and the append publishes the root and its runs, nothing between.
    wide = store.create("wide")
    store.append(wide, b"W" * (4 * RUN_SPAN * BS))
    show(store, wide, 1, f"a {4 * RUN_SPAN}-block append: covered references")
    assert store.read(wide) == b"W" * (4 * RUN_SPAN * BS)
    print("every snapshot still reads back byte-for-byte — OK")


if __name__ == "__main__":
    main()
