"""Tests for the immutable block store."""

import pytest

from repro.blob import BytesPayload, DataProviderCore
from repro.errors import ProviderUnavailable, WriteConflict
from tests.io_requests import delete_blocks


@pytest.fixture
def provider():
    return DataProviderCore("p0")


class TestStorage:
    def test_put_get(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"data"))
        assert provider.get(("b", 1, 0)).tobytes() == b"data"
        assert provider.has(("b", 1, 0))
        assert provider.block_count == 1
        assert provider.stored_bytes == 4

    def test_immutability_enforced(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"data"))
        with pytest.raises(WriteConflict, match="immutable"):
            provider.put(("b", 1, 0), BytesPayload(b"other"))

    def test_missing_block(self, provider):
        with pytest.raises(KeyError):
            provider.get(("b", 9, 9))
        assert not provider.has(("b", 9, 9))

    def test_delete_returns_bytes_freed(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"12345"))
        assert provider.delete(("b", 1, 0)) == 5
        assert provider.delete(("b", 1, 0)) == 0
        assert provider.stored_bytes == 0

    def test_delete_request_frees_per_block(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"12345"))
        provider.put(("b", 1, 1), BytesPayload(b"12"))
        freed = delete_blocks(provider, [("b", 1, 0), ("b", 1, 1), ("b", 9, 9)])
        assert freed == {("b", 1, 0): 5, ("b", 1, 1): 2, ("b", 9, 9): 0}
        assert provider.block_count == 0
        provider.fail()
        with pytest.raises(ProviderUnavailable):
            delete_blocks(provider, [("b", 1, 0)])

    def test_block_ids_snapshot(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"x"))
        provider.put(("b", 1, 1), BytesPayload(b"y"))
        ids = list(provider.block_ids())
        assert set(ids) == {("b", 1, 0), ("b", 1, 1)}


class TestFailure:
    def test_offline_refuses_everything(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"x"))
        provider.fail()
        with pytest.raises(ProviderUnavailable):
            provider.get(("b", 1, 0))
        with pytest.raises(ProviderUnavailable):
            provider.put(("b", 1, 1), BytesPayload(b"y"))
        with pytest.raises(ProviderUnavailable):
            provider.delete(("b", 1, 0))
        assert not provider.has(("b", 1, 0))

    def test_recover_restores_content(self, provider):
        provider.put(("b", 1, 0), BytesPayload(b"x"))
        provider.fail()
        provider.recover()
        assert provider.get(("b", 1, 0)).tobytes() == b"x"
