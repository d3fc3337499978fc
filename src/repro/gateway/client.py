"""One tenant's authenticated session with the gateway.

:class:`GatewayClient` mirrors the :class:`~repro.fsapi.FileSystem`
surface — ``create``/``open``/``append``/``read``/``stat``/``list`` —
but every call goes through admission first and every path is tenant-
relative: the client says ``/data/log``, the store sees
``/tenants/<tenant_id>/data/log``, and everything reported back (stat,
listings) is translated into the tenant's view again, so a tenant can
never learn — let alone touch — another tenant's paths.

Write quota is settled per ``write()`` call with a reserve → commit
(or release, on failure) cycle against the provider manager, so the
over-quota byte is refused before the store ever sees it, and a failed
write never leaves the tenant charged.
"""

from __future__ import annotations

from typing import Optional

from repro.fsapi import FileStatus, ReadStream, WriteStream
from repro.gateway.tenants import TenantState

__all__ = ["GatewayClient", "GatewayWriteStream", "GatewayReadStream"]


class GatewayWriteStream(WriteStream):
    """Admission-charging wrapper around a store write stream.

    Each ``write()`` first pays the tenant's bandwidth bucket, then
    reserves the bytes against its quota — :class:`~repro.errors.
    QuotaExceeded` surfaces here, before the inner stream buffers or
    places anything — and commits the reservation once the inner write
    accepted the data.
    """

    def __init__(self, gateway, state: TenantState, inner: WriteStream):
        self._gw = gateway
        self._state = state
        self._inner = inner
        self._written = 0
        self._closed = False

    def write(self, data: bytes) -> None:
        nbytes = len(data)
        self._gw.charge_bytes(self._state, nbytes)
        manager = self._gw.store.provider_manager
        manager.tenant_reserve(self._state.tenant_id, nbytes)
        try:
            self._inner.write(data)
        except BaseException:
            manager.tenant_release(self._state.tenant_id, nbytes)
            raise
        manager.tenant_commit(self._state.tenant_id, nbytes)
        self._state.counters.record(bytes_in=nbytes)
        self._written += nbytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._inner.close()
        finally:
            self._gw.finish(self._state, self._written)

    @property
    def size(self) -> int:
        """Bytes written so far (committed + buffered)."""
        return self._inner.size


class GatewayReadStream(ReadStream):
    """Admission-charging wrapper around a store read stream."""

    def __init__(self, gateway, state: TenantState, inner: ReadStream):
        self._gw = gateway
        self._state = state
        self._inner = inner
        self._moved = 0
        self._closed = False

    def read(self, size: int = -1) -> bytes:
        remaining = self._inner.size - self._inner.tell
        want = remaining if size < 0 else max(0, min(size, remaining))
        self._gw.charge_bytes(self._state, want)
        data = self._inner.read(size)
        self._state.counters.record(bytes_out=len(data))
        self._moved += len(data)
        return data

    def pread(self, offset: int, size: int) -> bytes:
        # Charge what the read can return: nothing at or past EOF, and
        # nothing for a negative offset the inner stream rejects.
        want = max(0, min(size, self._inner.size - offset)) if offset >= 0 else 0
        self._gw.charge_bytes(self._state, want)
        data = self._inner.pread(offset, size)
        self._state.counters.record(bytes_out=len(data))
        self._moved += len(data)
        return data

    @property
    def tell(self) -> int:
        """Current cursor position."""
        return self._inner.tell

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def version(self) -> int:
        """The pinned snapshot version (BSFS extra)."""
        return self._inner.version

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._inner.close()
        finally:
            self._gw.finish(self._state, self._moved)


class GatewayClient:
    """A tenant's session.  Obtained from :meth:`Gateway.connect`."""

    def __init__(self, gateway, state: TenantState):
        self._gw = gateway
        self._state = state

    @property
    def tenant_id(self) -> str:
        """The authenticated tenant this session acts as."""
        return self._state.tenant_id

    # -- streams ---------------------------------------------------------------

    def create(self, path: str) -> GatewayWriteStream:
        """Create a file for writing (one append-class admission)."""
        return self._open_write(path, resume=False)

    def append(self, path: str) -> GatewayWriteStream:
        """Open a file for appending (one append-class admission)."""
        return self._open_write(path, resume=True)

    def _open_write(self, path: str, resume: bool) -> GatewayWriteStream:
        self._gw.admit(self._state, "append")
        tpath = self._gw.tenant_path(self.tenant_id, path)
        try:
            inner = (
                self._gw.fs.append(tpath) if resume else self._gw.fs.create(tpath)
            )
        except BaseException:
            self._gw.finish(self._state)
            raise
        return GatewayWriteStream(self._gw, self._state, inner)

    def open(self, path: str, version: Optional[int] = None) -> GatewayReadStream:
        """Open for reading (one read-class admission); *version* pins
        an old snapshot, like BSFS."""
        self._gw.admit(self._state, "read")
        tpath = self._gw.tenant_path(self.tenant_id, path)
        try:
            inner = self._gw.fs.open(tpath, version=version)
        except BaseException:
            self._gw.finish(self._state)
            raise
        return GatewayReadStream(self._gw, self._state, inner)

    # -- one-shot I/O ----------------------------------------------------------

    def read(
        self,
        path: str,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> bytes:
        """Read a range (default: the whole file) in one call."""
        with self.open(path, version=version) as stream:
            if size is None:
                size = max(0, stream.size - offset)
            return stream.pread(offset, size)

    def read_file(self, path: str) -> bytes:
        """Slurp a whole file."""
        return self.read(path)

    def write_file(self, path: str, data: bytes) -> None:
        """Create *path* holding exactly *data*."""
        with self.create(path) as stream:
            if data:
                stream.write(data)

    # -- namespace (read-class admissions) -------------------------------------

    def stat(self, path: str) -> FileStatus:
        """Status, reported in the tenant's own path space."""
        status = self._namespace_op(path, self._gw.fs.status)
        return FileStatus(
            path=self._gw.visible_path(self.tenant_id, status.path),
            is_dir=status.is_dir,
            size=status.size,
        )

    def list(self, path: str = "/") -> list[str]:
        """Immediate children, reported in the tenant's own path space."""
        children = self._namespace_op(path, self._gw.fs.list_dir)
        return [self._gw.visible_path(self.tenant_id, child) for child in children]

    def exists(self, path: str) -> bool:
        """Existence check (inside the tenant's namespace only)."""
        return self._namespace_op(path, self._gw.fs.exists)

    def make_dirs(self, path: str) -> None:
        """``mkdir -p`` inside the tenant's namespace."""
        self._namespace_op(path, self._gw.fs.make_dirs)

    def delete(self, path: str, recursive: bool = False) -> None:
        """Unlink; the removed file bytes are credited back to the quota."""
        self._gw.admit(self._state, "read")
        tpath = self._gw.tenant_path(self.tenant_id, path)
        if tpath == self._gw.root_of(self.tenant_id):
            self._gw.finish(self._state)
            raise ValueError("refusing to delete the tenant root")
        try:
            freed = self._du(tpath)
            self._gw.fs.delete(tpath, recursive=recursive)
        finally:
            self._gw.finish(self._state)
        self._gw.store.provider_manager.tenant_discard(self.tenant_id, freed)

    def _du(self, tpath: str) -> int:
        status = self._gw.fs.status(tpath)
        if status.is_file:
            return status.size
        return sum(self._du(child) for child in self._gw.fs.list_dir(tpath))

    def _namespace_op(self, path: str, fs_call):
        self._gw.admit(self._state, "read")
        try:
            return fs_call(self._gw.tenant_path(self.tenant_id, path))
        finally:
            self._gw.finish(self._state)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """This tenant's merged fairness/quota counters."""
        return self._gw.tenant_stats()[self.tenant_id]
