"""Exception hierarchy shared by every subsystem of the reproduction.

The tree mirrors the subsystem boundaries: generic :class:`ReproError` at
the root, one branch per service (blob store, file systems, MapReduce,
simulation).  Catching ``ReproError`` is always safe for "anything this
library raised on purpose".
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BlobError",
    "BlobNotFound",
    "VersionNotFound",
    "VersionNotReady",
    "InvalidRange",
    "WriteConflict",
    "ProviderError",
    "ProviderUnavailable",
    "ReplicationError",
    "GatewayError",
    "UnknownTenant",
    "TenantAuthError",
    "QuotaExceeded",
    "AdmissionRejected",
    "FileSystemError",
    "FileNotFound",
    "FileAlreadyExists",
    "NotADirectory",
    "IsADirectory",
    "DirectoryNotEmpty",
    "LeaseConflict",
    "AppendNotSupported",
    "ReadOnlyFile",
    "MapReduceError",
    "JobFailed",
    "TaskFailed",
    "SimulationError",
]


class ReproError(Exception):
    """Base class of every exception deliberately raised by this library."""


# --------------------------------------------------------------------------
# BlobSeer core
# --------------------------------------------------------------------------


class BlobError(ReproError):
    """Base class for errors raised by the BlobSeer data service."""


class BlobNotFound(BlobError, KeyError):
    """The requested BLOB id does not exist."""


class VersionNotFound(BlobError, KeyError):
    """The requested snapshot version does not exist (or was garbage-collected)."""


class VersionNotReady(BlobError):
    """The snapshot exists but has not been revealed to readers yet.

    Raised when a client explicitly asks for a version whose metadata (or
    a lower version's metadata) is still being woven; see paper §III-A.5
    on linearizability: snapshots are published strictly in version order.
    """


class InvalidRange(BlobError, ValueError):
    """Offset/size pair outside the addressable range of the snapshot."""


class WriteConflict(BlobError):
    """A write could not be serialized (should not happen by design).

    BlobSeer's claim is write/write concurrency *by design*; this error
    only surfaces when invariants are violated, e.g. a test harness
    injects a duplicate version number.
    """


class ProviderError(BlobError):
    """A data or metadata provider failed to service a request."""


class ProviderUnavailable(ProviderError):
    """The provider is offline (failure injection or decommissioned)."""


class ReplicationError(BlobError):
    """Not enough live providers to satisfy the requested replication level."""


# --------------------------------------------------------------------------
# Multi-tenant gateway (the service front door, DESIGN.md §12)
# --------------------------------------------------------------------------


class GatewayError(ReproError):
    """Base class for errors raised by the multi-tenant gateway."""


class UnknownTenant(GatewayError, KeyError):
    """The tenant id has never been registered with this gateway."""


class TenantAuthError(GatewayError):
    """The presented access token does not match the tenant's."""


class QuotaExceeded(GatewayError):
    """A write would push the tenant past its stored-bytes quota.

    Raised *before* any placement is allocated — an over-quota write
    never charges the load balancer, stores a block, or consumes a
    version ticket.  Carries the accounting that made the decision so
    clients can size a retry.
    """

    def __init__(self, tenant_id: str, requested: int, used: int, quota: int):
        super().__init__(
            f"tenant {tenant_id!r} over quota: {used} + {requested} "
            f"requested > {quota} bytes allowed"
        )
        self.tenant_id = tenant_id
        self.requested = requested
        self.used = used
        self.quota = quota


class AdmissionRejected(GatewayError):
    """Admission control refused the operation without queueing it.

    Raised when a tenant is past its in-flight cap, or when draining
    its token-bucket backlog would exceed the policy's queue timeout.
    The operation had no effect; retry after backing off.
    """

    def __init__(self, tenant_id: str, op: str, reason: str):
        super().__init__(f"tenant {tenant_id!r} {op} rejected: {reason}")
        self.tenant_id = tenant_id
        self.op = op
        self.reason = reason


# --------------------------------------------------------------------------
# File-system layers (BSFS and the HDFS baseline)
# --------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for namespace/file-system errors."""


class FileNotFound(FileSystemError, KeyError):
    """Path does not exist."""


class FileAlreadyExists(FileSystemError):
    """Create refused because the path already exists."""


class NotADirectory(FileSystemError):
    """A path component used as a directory is a regular file."""


class IsADirectory(FileSystemError):
    """File operation attempted on a directory."""


class DirectoryNotEmpty(FileSystemError):
    """Non-recursive delete of a non-empty directory."""


class LeaseConflict(FileSystemError):
    """HDFS single-writer rule violated: the file is already open for write."""


class AppendNotSupported(FileSystemError):
    """The file system does not implement append (HDFS baseline, §V-F)."""


class ReadOnlyFile(FileSystemError):
    """HDFS write-once rule violated: closed files are immutable."""


# --------------------------------------------------------------------------
# MapReduce engine
# --------------------------------------------------------------------------


class MapReduceError(ReproError):
    """Base class for MapReduce engine errors."""


class JobFailed(MapReduceError):
    """The job exhausted task retries and was aborted."""


class TaskFailed(MapReduceError):
    """A single map/reduce attempt raised; may be retried by the jobtracker."""


# --------------------------------------------------------------------------
# Discrete-event simulation
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors in the discrete-event engine."""
