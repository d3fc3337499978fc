"""Tests for the tree-node key: validation, value semantics and the
``repr`` the ring hashes (placement depends on it byte for byte)."""

import copy
import hashlib
import pickle

import pytest

from repro.blob.segment_tree import NodeKey
from repro.dht import stable_hash


def pinned_keys():
    return [
        NodeKey(f"blob-{b}", v, o * s, s)
        for b in range(5) for v in range(1, 21) for s in (1, 4, 16, 64) for o in range(25)
    ]


def test_repr_and_stable_hash_pinned():
    """The ``repr`` and ring hash of 10^4 keys, as the frozen-dataclass
    key produced them: a changed ``repr`` would move every node."""
    keys = pinned_keys()
    assert len(set(keys)) == 10_000
    text = "\n".join(f"{key!r} {stable_hash(key)}" for key in keys)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "24bf76690abdb326406fb12fce9434db80b8e2164fa340b2075b450d391af282"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (("b", 0, 0, 1), "tree nodes exist for versions >= 1, got 0"),
        (("b", 1, 0, 3), "span must be a positive power of two, got 3"),
        (("b", 1, 0, 0), "span must be a positive power of two, got 0"),
        (("b", 1, -1, 1), "offset must be a non-negative multiple of span, got offset=-1 span=1"),
        (("b", 1, 2, 4), "offset must be a non-negative multiple of span, got offset=2 span=4"),
        (("b", 1, 1, 2), "offset must be a non-negative multiple of span, got offset=1 span=2"),
    ],
)
def test_construction_errors(args, message):
    with pytest.raises(ValueError) as info:
        NodeKey(*args)
    assert str(info.value) == message


def test_missing_and_unknown_fields_rejected():
    with pytest.raises(TypeError):
        NodeKey("b", 1, 0)
    with pytest.raises(TypeError):
        NodeKey(blob_id="b", version=1, offset=0, span=1, extra=0)


def test_keyword_construction_and_fields():
    key = NodeKey(blob_id="b", version=3, offset=8, span=4)
    assert key == NodeKey("b", 3, 8, 4)
    assert (key.blob_id, key.version, key.offset, key.span, key.end) == ("b", 3, 8, 4, 12)
    assert repr(key) == "NodeKey(blob_id='b', version=3, offset=8, span=4)"


def test_pickle_and_copy_round_trip():
    key = NodeKey("blob-7", 5, 16, 16)
    for clone in (
        pickle.loads(pickle.dumps(key)),
        copy.copy(key),
        copy.deepcopy(key),
    ):
        assert type(clone) is NodeKey
        assert clone == key and hash(clone) == hash(key)
        assert repr(clone) == repr(key)


def test_tuple_backed_value():
    """Equal and hash-equal to the plain 4-tuple, with no per-instance
    dict and no mutation."""
    key = NodeKey("b", 2, 4, 4)
    assert key == ("b", 2, 4, 4) and hash(key) == hash(("b", 2, 4, 4))
    assert not hasattr(key, "__dict__")
    with pytest.raises(AttributeError):
        key.version = 3
