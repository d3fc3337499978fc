"""Tests for payloads and block descriptors."""

import copy
import pickle

import pytest

from repro.blob import (
    BlockDescriptor,
    BytesPayload,
    LocalBlobStore,
    StoreConfig,
    SyntheticPayload,
    ZeroBlockDescriptor,
    concat,
)
from repro.blob import scrub as scrub_module
from repro.blob.store import _split_payload


class TestBytesPayload:
    def test_size_and_bytes(self):
        p = BytesPayload(b"hello world")
        assert p.size == 11
        assert p.is_real
        assert p.tobytes() == b"hello world"

    def test_slice(self):
        p = BytesPayload(b"hello world")
        assert p.slice(6, 5).tobytes() == b"world"

    def test_slice_bounds(self):
        p = BytesPayload(b"abc")
        with pytest.raises(ValueError):
            p.slice(1, 3)
        with pytest.raises(ValueError):
            p.slice(-1, 1)

    def test_empty(self):
        assert BytesPayload(b"").size == 0


class TestSyntheticPayload:
    def test_size_only(self):
        p = SyntheticPayload(1 << 26, tag=("b", 1, 0))
        assert p.size == 1 << 26
        assert not p.is_real
        assert p.tag == ("b", 1, 0)

    def test_tobytes_refused(self):
        with pytest.raises(TypeError):
            SyntheticPayload(10).tobytes()

    def test_slice_keeps_tag(self):
        p = SyntheticPayload(100, tag="t").slice(10, 50)
        assert p.size == 50 and p.tag == "t"

    def test_slice_bounds(self):
        with pytest.raises(ValueError):
            SyntheticPayload(10).slice(5, 6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SyntheticPayload(-1)


class TestConcat:
    def test_all_real(self):
        joined = concat([BytesPayload(b"ab"), BytesPayload(b"cd")])
        assert joined.is_real and joined.tobytes() == b"abcd"

    def test_mixed_degrades_to_synthetic(self):
        joined = concat([BytesPayload(b"ab"), SyntheticPayload(5)])
        assert not joined.is_real and joined.size == 7

    def test_empty_list(self):
        assert concat([]).tobytes() == b""


class TestBlockDescriptor:
    def _mk(self, **kw):
        defaults = dict(
            blob_id="b", version=1, index=0, size=64, providers=("p0",), nonce=7, seq=0
        )
        defaults.update(kw)
        return BlockDescriptor(**defaults)

    def test_block_id_uses_nonce_not_version(self):
        d = self._mk(version=9, nonce=7, seq=2, index=5)
        assert d.block_id == ("b", 7, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._mk(version=0)
        with pytest.raises(ValueError):
            self._mk(index=-1)
        with pytest.raises(ValueError):
            self._mk(size=0)
        with pytest.raises(ValueError):
            self._mk(providers=())
        with pytest.raises(ValueError):
            self._mk(seq=-1)

    def test_frozen(self):
        d = self._mk()
        with pytest.raises(AttributeError):
            d.size = 1


def block(**kw):
    fields = dict(blob_id="b", version=3, index=8, size=64, providers=("p0", "p1"), nonce=7, seq=2)
    fields.update(kw)
    return BlockDescriptor(**fields)


def zero(**kw):
    fields = dict(blob_id="b", version=3, index=8, size=64)
    fields.update(kw)
    return ZeroBlockDescriptor(**fields)


class TestTupleBackedDescriptors:
    """Both descriptor types are tuples: value semantics, no per-instance
    dict, no mutation, and the constructor's checks and messages."""

    @pytest.mark.parametrize("make", [block, zero])
    def test_pickle_and_copy_round_trip(self, make):
        descriptor = make()
        for clone in (
            pickle.loads(pickle.dumps(descriptor)),
            copy.copy(descriptor),
            copy.deepcopy(descriptor),
        ):
            assert type(clone) is type(descriptor)
            assert clone == descriptor and hash(clone) == hash(descriptor)
            assert repr(clone) == repr(descriptor)

    @pytest.mark.parametrize("make", [block, zero])
    def test_tuple_backed_value(self, make):
        descriptor = make()
        plain = tuple(descriptor)
        assert descriptor == plain and hash(descriptor) == hash(plain)
        assert not hasattr(descriptor, "__dict__")
        with pytest.raises(AttributeError):
            descriptor.size = 1
        with pytest.raises(AttributeError):
            descriptor.is_zero = not descriptor.is_zero

    def test_fields_and_repr(self):
        d = block()
        assert d._fields == ("blob_id", "version", "index", "size", "providers", "nonce", "seq")
        assert (d.index, d.block_id, d.is_zero) == (8, ("b", 7, 2), False)
        assert repr(d) == (
            "BlockDescriptor(blob_id='b', version=3, index=8, size=64, "
            "providers=('p0', 'p1'), nonce=7, seq=2)"
        )
        z = zero()
        assert (z.providers, z.block_id, z.is_zero) == ((), None, True)
        assert repr(z) == (
            "ZeroBlockDescriptor(blob_id='b', version=3, index=8, size=64, providers=())"
        )

    @pytest.mark.parametrize(
        "make, field, value, message",
        [
            (block, "version", 0, "blocks are written by versions >= 1, got 0"),
            (block, "index", -1, "block index must be >= 0, got -1"),
            (block, "size", 0, "block size must be positive, got 0"),
            (block, "providers", (), "a block needs at least one provider"),
            (block, "seq", -1, "seq must be >= 0, got -1"),
            (zero, "version", 0, "blocks are written by versions >= 1, got 0"),
            (zero, "index", -1, "block index must be >= 0, got -1"),
            (zero, "size", -4, "block size must be positive, got -4"),
            (zero, "providers", ("p0",), "zero blocks are synthesised by readers, never stored"),
        ],
    )
    def test_construction_errors(self, make, field, value, message):
        with pytest.raises(ValueError) as info:
            make(**{field: value})
        assert str(info.value) == message

    def test_missing_and_unknown_fields_rejected(self):
        with pytest.raises(TypeError):
            BlockDescriptor("b", 1, 0, 8, ("p0",), 7)
        with pytest.raises(TypeError):
            ZeroBlockDescriptor("b", 1, 0)
        with pytest.raises(TypeError):
            block(extra=0)

    def test_block_never_equals_zero_block(self):
        stored, zeros = block(), zero()
        assert tuple(stored)[:4] == tuple(zeros)[:4]
        assert stored != zeros and zeros != stored
        assert len({stored, zeros}) == 2

    def test_scrub_rehome_onto_empty_replica_set_raises(self, monkeypatch):
        store = LocalBlobStore(
            config=StoreConfig(data_providers=6, metadata_providers=4, block_size=16, replication=2)
        )
        blob = store.create()
        store.write(blob, 0, b"a" * 16)
        store.fail_provider(store.block_locations(blob, 0, 16)[0].providers[0])
        monkeypatch.setattr(scrub_module, "_homes", lambda *args: ([], [], []))
        with pytest.raises(ValueError, match="a block needs at least one provider"):
            store.scrub()
        store.close()


class TestFreezeOfWindows:
    """Copy-on-publish of a write's windows: only ``bytes`` is aliased."""

    def windows(self, buffer):
        payloads, _ = _split_payload(buffer, 4)
        return payloads

    def test_window_over_bytes_is_aliased(self):
        for window in self.windows(b"abcdefghij"):
            assert window.freeze() is window

    @pytest.mark.parametrize(
        "wrap", [lambda b: b, lambda b: memoryview(b).toreadonly()], ids=["bytearray", "readonly"]
    )
    def test_window_over_bytearray_is_copied(self, wrap):
        backing = bytearray(b"abcdefghij")
        windows = self.windows(wrap(backing))
        frozen = [window.freeze() for window in windows]
        assert all(f is not w and type(f.data) is bytes for f, w in zip(frozen, windows))
        backing[:] = b"ABCDEFGHIJ"
        assert b"".join(f.tobytes() for f in frozen) == b"abcdefghij"
