"""Concurrent appends to ONE file, through both front doors.

The paper's Fig. 5 headline is many clients appending to the same file
at once (§V-F).  A block-aligned append must therefore commit through
``store.append`` — the version manager fixes each offset (§III-D) — not
through a positional write at the size the stream saw when it opened,
which lets two appenders overwrite each other.
"""

import sys
import threading

import pytest

from repro.blob import StoreConfig
from repro.bsfs.filesystem import BSFSFileSystem
from repro.gateway import Gateway

BS = 1024
THREADS = 8
APPENDS = 4


def record(tid: int, seq: int) -> bytes:
    return bytes([tid * APPENDS + seq]) * BS


@pytest.fixture(params=["bsfs", "gateway"])
def front_door(request):
    """``(open_append, read_file)`` over a shared, still empty ``/log``."""
    config = StoreConfig(data_providers=4, block_size=BS, io_workers=4)
    if request.param == "bsfs":
        fs = BSFSFileSystem(config=config)
        fs.write_file("/log", b"")
        yield (lambda tid: fs.append("/log")), (lambda: fs.read_file("/log"))
        fs.store.close()
    else:
        with Gateway(config=config) as gw:
            token = gw.register_tenant("t")
            clients = [gw.connect("t", token) for _ in range(THREADS)]
            clients[0].write_file("/log", b"")
            yield (
                (lambda tid: clients[tid].append("/log")),
                (lambda: clients[0].read_file("/log")),
            )


def test_concurrent_block_aligned_appends_lose_nothing(front_door):
    open_append, read_file = front_door
    start = threading.Barrier(THREADS)
    errors = []

    def appender(tid: int) -> None:
        try:
            start.wait(timeout=10)
            for seq in range(APPENDS):
                with open_append(tid) as stream:
                    stream.write(record(tid, seq))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=appender, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings between open and commit
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []

    data = read_file()
    assert len(data) == THREADS * APPENDS * BS
    blocks = [data[i : i + BS] for i in range(0, len(data), BS)]
    assert sorted(blocks) == sorted(
        record(tid, seq) for tid in range(THREADS) for seq in range(APPENDS)
    )
