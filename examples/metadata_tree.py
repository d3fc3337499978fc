#!/usr/bin/env python3
"""Figure 1, live: watch the metadata segment tree evolve.

Replays the paper's Figure 1 sequence on a real store — (a) append four
blocks, (b) overwrite two, (c) append one more — and prints each
snapshot's tree, showing which subtrees are new and which are shared
with older versions (the essence of cheap versioning).

Run:  python examples/metadata_tree.py
"""

from repro.blob import InnerNode, LocalBlobStore, NodeKey, RunLeaf, StoreConfig
from repro.blob.segment_tree import LeafNode

BS = 64


def render_tree(store, blob, version) -> list[str]:
    """ASCII rendering of one snapshot's tree; '*' marks nodes created
    by this very version, everything else is shared with the past.  A
    write's whole range inside one canonical subtree is one run node; a
    later version reaches into an old run only for the blocks of the
    position that references it."""
    info = store.snapshot(blob, version)
    resolve = store.key_resolver()
    lines = []

    def visit(key: NodeKey, depth: int, lo: int, hi: int) -> None:
        node = store.metadata.get_node(resolve(key))
        marker = "*" if key.version == version else " "
        indent = "    " * depth
        if isinstance(node, LeafNode):
            lines.append(
                f"{indent}{marker} leaf[block {key.offset}] v{key.version}"
                f" -> {node.block.providers[0]}"
            )
            return
        if isinstance(node, RunLeaf):
            reached = "" if (lo, hi) == (key.offset, key.end) else f", blocks [{lo}, {hi})"
            lines.append(f"{indent}{marker} run[{key.offset}, {key.end}) v{key.version}{reached}")
            return
        assert isinstance(node, InnerNode)
        lines.append(
            f"{indent}{marker} node[{key.offset}, {key.end}) v{key.version}"
        )
        half = node.half
        for child, offset in ((node.left_key, key.offset), (node.right_key, key.offset + half)):
            if child is not None:
                visit(child, depth + 1, offset, offset + half)

    root = NodeKey(blob, version, 0, info.root_span)
    visit(root, 0, 0, root.end)
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
    print("all three snapshots still read back byte-for-byte — OK")


if __name__ == "__main__":
    main()
