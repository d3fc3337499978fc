"""Block transfers are per-provider vectors (DESIGN.md §13).

A write's replicas travel as one put request per provider (one per 64
blocks past that), a read's blocks as one get request per provider per
failover round, on every engine mode.  Counter-based: the tests count
calls on wrapped provider methods and replace the latency sleeps with
recorders; nothing is timed.
"""

import asyncio
import itertools
import threading
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.blob import BytesPayload, DataProviderCore, LocalBlobStore, StoreConfig
from repro.blob import async_engine
from repro.blob import data_provider as data_provider_module
from repro.errors import ProviderUnavailable, WriteConflict
from tests.io_requests import delete_blocks, get_blocks, put_blocks

BS = 8
#: Inline I/O, the I/O engine, and the engine behind a one-slot
#: in-flight window, where every vector queues behind the one in flight.
MODES = {
    "inline": {},
    "engine": {"io_workers": 2},
    "window1": {"io_workers": 2, "max_in_flight": 1},
}


@pytest.fixture(params=list(MODES))
def mode(request):
    return request.param


def make_store(mode, **fields):
    return LocalBlobStore(
        config=StoreConfig(metadata_providers=2, block_size=BS, **MODES[mode], **fields)
    )


def payload(size, salt=0):
    return bytes((i * 7 + salt) % 251 for i in range(size))


def record_calls(store, attr):
    """Wrap a vector body, ``_put_vector`` or ``_get_vector``, on every
    provider; returns the call log, one ``(provider, block ids)`` entry
    per vector.  Every entry point, sync or async, runs its body once
    per vector, so every engine mode is seen."""
    log = []
    lock = threading.Lock()
    for name, provider in store.providers.items():
        real = getattr(provider, attr)

        def wrapped(items, *rest, _real=real, _name=name):
            ids = tuple(item[0] if attr == "_put_vector" else item for item in items)
            with lock:
                log.append((_name, ids))
            return _real(items, *rest)

        setattr(provider, attr, wrapped)
    return log


def fail_on_kth_put(provider, k):
    """Make the k-th block *provider* stores from now on fail: the
    vector carrying it lands the blocks before it, then raises.
    Returns a list that holds True once it did."""
    real = provider._put_vector
    seen = itertools.count(1)
    raised = []

    def put_vector(items, landed):
        for position in range(len(items)):
            if next(seen) == k:
                real(items[:position], landed)
                raised.append(True)
                raise ProviderUnavailable(f"{provider.name} failed on put {k}")
        return real(items, landed)

    provider._put_vector = put_vector
    return raised


def layout(store):
    """Everything a rolled-back write must leave as it found it: stored
    block ids and bytes per provider, and the allocator's charges."""
    return (
        {
            name: (set(p.block_ids()), p.stored_bytes)
            for name, p in store.providers.items()
        },
        store.provider_block_counts(),
        store.provider_manager.block_counts(),
    )


class TestProviderVectors:
    def test_one_service_delay_per_vector(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(data_provider_module.time, "sleep", sleeps.append)
        monkeypatch.setattr(async_engine, "_sleep", sleeps.append)
        provider = DataProviderCore("p", latency=0.5)
        ids = [("b", 1, i) for i in range(100)]
        put_blocks(provider, [(block_id, BytesPayload(b"x")) for block_id in ids])
        assert sleeps == [0.5]
        found = get_blocks(provider, ids + [("b", 9, 9)])
        assert sleeps == [0.5, 0.5]
        assert set(found) == set(ids)  # the absent block is omitted
        provider.put(("b", 2, 0), BytesPayload(b"y"))  # a plain call still pays
        assert sleeps == [0.5] * 3

    def test_async_twins_await_the_one_delay(self, monkeypatch):
        blocking, awaited = [], []

        async def fake_sleep(seconds):
            awaited.append(seconds)

        monkeypatch.setattr(data_provider_module.time, "sleep", blocking.append)
        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        provider = DataProviderCore("p", latency=0.5)
        block_id = ("b", 1, 0)
        asyncio.run(provider.aput(block_id, BytesPayload(b"x")))
        assert asyncio.run(provider.aget(block_id)).size == 1
        assert blocking == [] and awaited == [0.5, 0.5]
        provider.get(block_id)  # a plain sync call still blocks
        assert blocking == [0.5]

    def test_put_request_reports_the_landed_prefix(self):
        provider = DataProviderCore("p")
        raised = fail_on_kth_put(provider, 4)
        landed = []
        with pytest.raises(ProviderUnavailable):
            put_blocks(
                provider, [(("b", 1, i), BytesPayload(b"x")) for i in range(6)], landed
            )
        assert raised
        assert landed == [("b", 1, 0), ("b", 1, 1), ("b", 1, 2)]
        assert set(provider.block_ids()) == set(landed)

    def test_a_write_conflict_mid_vector_lands_exactly_the_prefix(self):
        # The real overwrite check, not an injected failure: block 3 is
        # already stored, so blocks 0-2 land and 4-5 never do.
        provider = DataProviderCore("p")
        provider.put(("b", 1, 3), BytesPayload(b"old"))
        landed = []
        with pytest.raises(WriteConflict):
            put_blocks(
                provider, [(("b", 1, i), BytesPayload(b"new")) for i in range(6)], landed
            )
        assert landed == [("b", 1, 0), ("b", 1, 1), ("b", 1, 2)]
        assert set(provider.block_ids()) == set(landed) | {("b", 1, 3)}
        assert provider.get(("b", 1, 3)).tobytes() == b"old"
        assert provider.stored_bytes == 3 * 3 + 3


class TestScatterAndGather:
    @pytest.mark.parametrize("providers, blocks", [(16, 1024), (4, 1024), (16, 1100)])
    def test_one_put_request_per_provider_per_64_blocks(self, mode, providers, blocks):
        with make_store(mode, data_providers=providers) as store:
            blob = store.create()
            puts = record_calls(store, "_put_vector")
            data = payload(blocks * BS)
            store.append(blob, data)
            counts = store.provider_block_counts()
            assert Counter(name for name, _ in puts) == {
                name: -(-count // 64) for name, count in counts.items()
            }
            assert all(len(ids) <= 64 for _, ids in puts)
            if (providers, blocks) == (16, 1024):
                assert len(puts) == 16

            gets = record_calls(store, "_get_vector")
            assert store.read(blob) == data
            assert sorted(name for name, _ in gets) == sorted(store.providers)

    def test_a_block_missing_from_its_first_replica_is_a_round_two_vector(self, mode):
        with make_store(mode, data_providers=4, replication=2) as store:
            blob = store.create()
            data = payload(16 * BS)
            store.append(blob, data)
            first, second = store.block_locations(blob, 5 * BS, BS)[0].providers
            (block_id,) = [b for b in store.providers[first].block_ids() if b[2] == 5]
            delete_blocks(store.providers[first], [block_id])

            gets = record_calls(store, "_get_vector")
            assert store.read(blob) == data
            assert len(gets) == 4 + 1  # round 0: every provider; round 1: one
            assert gets[-1] == (second, (block_id,))

    def test_a_provider_lost_mid_vector_fails_over_as_a_whole_vector(self, mode):
        with make_store(mode, data_providers=4, replication=2) as store:
            blob = store.create()
            data = payload(16 * BS)
            store.append(blob, data)
            locations = store.block_locations(blob, 0, len(data))
            lost, successor = locations[0].providers
            moved = [i for i, loc in enumerate(locations) if loc.providers[0] == lost]
            victim = store.providers[lost]

            def die(block_ids):
                victim.fail()
                raise ProviderUnavailable(f"{lost} died mid-vector")

            victim._get_vector = die
            gets = record_calls(store, "_get_vector")
            assert store.read(blob) == data
            assert len(gets) == 4 + 1
            name, ids = gets[-1]
            assert name == successor
            assert sorted(block_id[2] for block_id in ids) == moved

    def test_an_offline_provider_is_skipped_in_round_zero(self, mode):
        with make_store(mode, data_providers=4, replication=2) as store:
            blob = store.create()
            data = payload(16 * BS)
            store.append(blob, data)
            lost, successor = store.block_locations(blob, 0, BS)[0].providers
            store.providers[lost].fail()

            gets = record_calls(store, "_get_vector")
            assert store.read(blob) == data
            names = [name for name, _ in gets]
            assert lost not in names
            assert len(names) == len(set(names)) == 3  # one round, no retry
            assert len(dict(gets)[successor]) == 8  # its own blocks and the lost ones


#: Both scatters: the plain one on every mode, the ``overlap_publish``
#: one wherever there is an engine to overlap on.
SCATTERS = [(m, False) for m in MODES] + [(m, True) for m in MODES if m != "inline"]


class TestVectorRollback:
    @pytest.mark.parametrize("io_mode, overlap", SCATTERS)
    @pytest.mark.parametrize("k", [1, 40, 64, 65, 128])
    def test_a_put_failing_mid_vector_leaves_no_trace(self, io_mode, overlap, k):
        with make_store(
            io_mode, data_providers=4, replication=2, overlap_publish=overlap
        ) as store:
            blob = store.create()
            base = payload(8 * BS)
            store.append(blob, base)
            before = layout(store)
            # 256 blocks x 2 replicas over 4 providers: 128 per provider,
            # two vectors of 64 each.
            raised = fail_on_kth_put(store.providers["provider-001"], k)
            with pytest.raises(ProviderUnavailable):
                store.append(blob, payload(256 * BS, salt=1))
            assert raised
            assert layout(store) == before
            assert store.read(blob, version=1) == base


@pytest.mark.parametrize("io_mode", list(MODES))
@given(
    blocks=st.integers(1, 150),
    providers=st.integers(1, 6),
    replication=st.integers(1, 3),
    fail_at=st.integers(0, 160),
    tail=st.integers(0, BS - 1),
    overlap=st.booleans(),
)
def test_vectors_keep_bytes_and_roll_back_exactly(
    io_mode, blocks, providers, replication, fail_at, tail, overlap
):
    """Any layout, any failure point: a write either lands and reads
    back exactly, or fails and leaves every provider and every charge
    as it found them."""
    overlap = overlap and io_mode != "inline"
    with make_store(
        io_mode,
        data_providers=providers,
        replication=min(replication, providers),
        overlap_publish=overlap,
    ) as store:
        blob = store.create()
        base = payload(3 * BS)
        store.append(blob, base)
        before = layout(store)
        raised = fail_on_kth_put(store.providers["provider-000"], fail_at) if fail_at else []
        data = payload(blocks * BS - tail, salt=blocks)
        try:
            store.append(blob, data)
        except ProviderUnavailable:
            assert raised
            assert layout(store) == before
            assert store.read(blob, version=1) == base
        else:
            assert not raised
            assert store.read(blob) == base + data
