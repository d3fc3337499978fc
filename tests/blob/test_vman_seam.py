"""One way into the version manager (DESIGN.md §10).

The version manager is the protocol's only serialization point
(§III-A.4), and ``LocalBlobStore._vman_call`` is the one place the
store touches it under its lock.  These tests swap that lock for one
that records its owner and check that every mutating core call, and
every read the GC and the scrub take of the control plane, runs while
the calling thread holds it — under appends on the I/O engine with one
injected provider failure (so one abort) racing ``collect_garbage``,
``scrub``, ``branch`` and ``create``.  The simulated deployment sends
the same calls, as batches of one.
"""

import itertools
import threading

from repro.blob import LocalBlobStore, StoreConfig, collect_garbage
from repro.blob.block import BytesPayload
from repro.errors import BlobError, ProviderUnavailable

from tests.deploy.test_availability_weakness import make_deployment

BS = 16

#: The core's mutating surface.
MUTATING = (
    "create_blob",
    "branch_blob",
    "assign_batch",
    "commit_batch",
    "abort",
    "set_gc_floor",
)
#: The control-plane reads of the GC pass, the scrub and the abort.
CONTROL_READS = (
    "in_flight",
    "snapshot_info",
    "published_version",
    "latest",
    "blob_ids",
    "descends_from",
    "tombstone_spec",
)


class OwnerLock:
    """A lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def __enter__(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc):
        self.owner = None
        self._lock.release()


def watch_core(store):
    """Swap in an :class:`OwnerLock`; return the log of watched core
    calls and the list of those made without holding it."""
    lock = store._lock = OwnerLock()
    vm = store.version_manager
    calls, unlocked = [], []
    for name in MUTATING + CONTROL_READS:

        def checked(*args, _real=getattr(vm, name), _name=name, **kwargs):
            calls.append(_name)
            if lock.owner != threading.get_ident():
                unlocked.append(_name)
            return _real(*args, **kwargs)

        setattr(vm, name, checked)
    return calls, unlocked


def fail_one_put(store):
    """The next block vector any provider receives fails, once."""
    shots = itertools.count()
    for provider in store.providers.values():

        def put_vector(items, landed, _real=provider._put_vector):
            if next(shots) == 0:
                raise ProviderUnavailable("injected: one vector lost")
            return _real(items, landed)

        provider._put_vector = put_vector


def block(writer: int, op: int) -> bytes:
    return bytes([writer * 16 + op + 1]) * BS


def test_every_core_call_holds_the_lock_under_a_maintenance_race():
    writers, ops = 4, 6
    store = LocalBlobStore(
        config=StoreConfig(
            data_providers=4,
            metadata_providers=2,
            block_size=BS,
            io_workers=4,
            overlap_publish=True,
        )
    )
    blob = store.create()
    store.append(blob, block(0, 15))
    calls, unlocked = watch_core(store)
    fail_one_put(store)

    written, failed, errors = [], [], []
    done = threading.Event()

    def appender(writer):
        for op in range(ops):
            data = block(writer, op)
            try:
                store.append(blob, data)
            except ProviderUnavailable:
                failed.append(data)
            else:
                written.append(data)

    def maintain(step):
        try:
            while True:
                step()
                if done.is_set():
                    return
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    def collect():
        try:
            collect_garbage(store, blob, retain_from=store.latest_version(blob))
        except BlobError:
            pass  # a version in flight: the pass refuses to start

    def fork():
        store.branch(blob)
        store.create()

    threads = [threading.Thread(target=appender, args=(w,)) for w in range(1, writers + 1)]
    threads += [
        threading.Thread(target=maintain, args=(step,))
        for step in (collect, store.scrub, fork)
    ]
    for thread in threads:
        thread.start()
    for thread in threads[:writers]:
        thread.join()
    done.set()
    for thread in threads[writers:]:
        thread.join()
    # One quiet pass of each, so the floor is set at least once.
    collect_garbage(store, blob, retain_from=store.latest_version(blob))
    store.scrub()

    assert errors == []
    assert unlocked == []
    assert set(calls) >= set(MUTATING) | {
        "in_flight", "snapshot_info", "blob_ids", "descends_from", "tombstone_spec"
    }
    assert len(failed) == 1 and calls.count("abort") == 1
    # The aborted append is a tombstone: its block reads as zeros, and
    # every other append landed exactly once.
    content = store.read(blob)
    blocks = [content[i : i + BS] for i in range(0, len(content), BS)]
    assert blocks[0] == block(0, 15)
    assert sorted(blocks[1:]) == sorted(written + [bytes(BS)])
    assert store.provider_manager.block_counts() == store.provider_block_counts()
    store.close()


def test_the_simulator_sends_the_same_calls():
    """``SimBlobSeer``'s version-manager messages name core methods,
    and its writes send batches of one."""
    cluster, blobseer, client = make_deployment()
    engine = cluster.engine
    server = blobseer.vm_server
    sent = []

    def handler(message, _real=server.handler):
        sent.append(message)
        return _real(message)

    server.handler = handler

    def scenario():
        yield from blobseer.create(client, "b")
        yield from blobseer.append(client, "b", BytesPayload(b"x" * 1024))
        yield from blobseer.read(client, "b")
        yield from blobseer.read(client, "b", version=1)
        return True

    assert engine.run(engine.process(scenario()))
    assert [message[0] for message in sent] == [
        "create_blob", "assign_batch", "commit_batch", "latest", "snapshot_info"
    ]
    assert [len(message[1]) for message in sent if message[0].endswith("_batch")] == [1, 1]
    assert blobseer.vman_rpcs == len(sent)
