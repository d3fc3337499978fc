"""The store's parallel data plane, inline and on the I/O engine.

Covers the read-failover fix (``ProviderUnavailable`` mid-fetch falls
through to the next replica) in every engine mode, and a concurrent stress
scenario: threads appending and reading while a provider fails and
recovers under them.  The engine's own contract is pinned in
``test_async_engine.py``.
"""

import threading

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.errors import ProviderUnavailable, ReplicationError
from tests.blob.test_write_rollback import IO_MODES, engine_kwargs

BS = 16


@pytest.mark.parametrize("io_workers", IO_MODES)
class TestStoreParallelPaths:
    def test_read_write_roundtrip_matches_inline_semantics(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=8, metadata_providers=3, block_size=BS, **engine_kwargs(io_workers)
        ))
        blob = store.create()
        data = bytes(i % 251 for i in range(10 * BS + 7))
        store.append(blob, data)
        assert store.read(blob) == data
        assert store.read(blob, offset=BS + 3, size=3 * BS) == data[BS + 3 : 4 * BS + 3]
        store.close()

    def test_fetch_failover_on_provider_unavailable_mid_read(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.append(blob, b"q" * (4 * BS))
        primary = store.block_locations(blob, 0, BS)[0].providers[0]
        # The regression: a provider that passes the ``online`` check
        # but raises ProviderUnavailable while serving its vector (it
        # died between check and fetch) must fail over, not abort the
        # read.
        provider = store.providers[primary]
        raised = []

        def get_raising(block_ids):
            raised.append(block_ids)
            raise ProviderUnavailable(f"{primary} died mid-fetch")

        provider._get_vector = get_raising
        assert store.read(blob) == b"q" * (4 * BS)
        assert raised  # the injection really fired
        store.close()

    def test_read_fails_only_when_every_replica_is_gone(self, io_workers):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=2,
            metadata_providers=2,
            block_size=BS,
            replication=2,
            **engine_kwargs(io_workers),
        ))
        blob = store.create()
        store.append(blob, b"z" * BS)
        for name in store.block_locations(blob, 0, BS)[0].providers:
            store.fail_provider(name)
        with pytest.raises(ProviderUnavailable):
            store.read(blob)
        store.close()


class TestConcurrentStress:
    def test_appends_and_reads_while_a_provider_fails_and_recovers(self):
        store = LocalBlobStore(config=StoreConfig(
            data_providers=8,
            metadata_providers=3,
            block_size=BS,
            replication=2,
            io_workers=4,
        ))
        blob = store.create()
        store.append(blob, bytes([255]) * BS)  # v1: one block baseline
        n_appenders, appends_each = 4, 8
        stop = threading.Event()
        errors = []

        def appender(tid):
            done = 0
            payload = bytes([tid + 1]) * BS
            while done < appends_each:
                try:
                    store.append(blob, payload)
                    done += 1
                except (ProviderUnavailable, ReplicationError):
                    continue  # failed write rolled back; try again
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        def reader():
            while not stop.is_set():
                try:
                    version = store.latest_version(blob)
                    data = store.read(blob, version=version)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                if len(data) != version * BS:
                    errors.append(
                        AssertionError(f"v{version} returned {len(data)}B")
                    )
                    return
                # Every block is one append's uniform payload.
                for i in range(version):
                    block = data[i * BS : (i + 1) * BS]
                    if block != bytes([block[0]]) * BS:
                        errors.append(AssertionError(f"torn block at {i}"))
                        return

        def chaos():
            victims = ["provider-003", "provider-006"]
            i = 0
            while not stop.is_set():
                victim = victims[i % len(victims)]
                store.fail_provider(victim)
                stop.wait(0.002)
                store.recover_provider(victim)
                stop.wait(0.001)
                i += 1

        threads = [
            threading.Thread(target=appender, args=(t,)) for t in range(n_appenders)
        ] + [threading.Thread(target=reader) for _ in range(2)] + [
            threading.Thread(target=chaos)
        ]
        for t in threads:
            t.start()
        for t in threads[:n_appenders]:
            t.join()
        stop.set()
        for t in threads[n_appenders:]:
            t.join()

        assert not errors
        total_blocks = 1 + n_appenders * appends_each
        assert store.latest_version(blob) == total_blocks
        data = store.read(blob)
        assert len(data) == total_blocks * BS
        # No orphans: providers hold exactly replication copies of each
        # published block, nothing more (failed writes rolled back).
        assert sum(store.provider_block_counts().values()) == 2 * total_blocks
        store.close()
