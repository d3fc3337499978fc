"""StoreConfig: the validated construction surface of a blob store.

Most combinations of a store's knobs are fine; a few are silently
broken — an ``overlap_publish`` store with no I/O engine never overlaps
anything, and a ``replication`` level above the provider count
constructs happily and then fails on the first write.  This module
holds the knobs in one documented dataclass whose
:meth:`~StoreConfig.validate` rejects the broken combinations up front
with actionable messages.

``LocalBlobStore(config=StoreConfig(...))`` is the only construction
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.blob.provider_manager import PlacementPolicy, _POLICIES
from repro.util.bytesize import MB, parse_size

__all__ = ["StoreConfig", "DEFAULT_BLOCK_SIZE"]

#: The paper's block size: 64 MB, "equal to the chunk size in HDFS".
DEFAULT_BLOCK_SIZE = 64 * MB


def _resolve_names(spec: Union[int, Sequence[str]], prefix: str) -> list[str]:
    """Expand a count into generated names; pass explicit names through."""
    if isinstance(spec, bool):  # bool is an int; catch the likely typo
        raise ValueError(f"{prefix} spec must be a count or name list, got {spec!r}")
    if isinstance(spec, int):
        return [f"{prefix}-{i:03d}" for i in range(spec)]
    return list(spec)


@dataclass
class StoreConfig:
    """Everything a :class:`~repro.blob.store.LocalBlobStore` is built from.

    Args:
        data_providers: count, or explicit provider names.
        metadata_providers: count, or explicit names, of DHT buckets.
        block_size: striping unit (default 64 MB; accepts "64MB" forms).
        replication: data-block replica count.
        metadata_replication: DHT replica count for tree nodes.
        placement: policy name or instance (default BlobSeer round-robin).
        seed: seed for any stochastic policy (random placement).
        io_workers: 0 = inline I/O, one vector after another on the
            caller; any positive value gives the store the
            :class:`~repro.blob.async_engine.AsyncIOEngine`, whose
            fan-outs are deadline rounds on the calling thread (every
            request issued at once, one sleep, DESIGN.md §13), and
            sizes its lazy helper pool for ``submit`` work (read-ahead,
            split planning) — rounds start no thread.
        io_scheduler: vestigial; ``"async"`` is its only accepted
            value.  It selects nothing — ``io_workers > 0`` selects the
            engine — and goes once ``perf/workloads.py`` stops passing
            it (ROADMAP item 1 step B).
        max_in_flight: the engine's in-flight window: requests issued
            and not yet completed, across every thread of the store; a
            round that finds it full issues in waves.
        provider_latency: simulated service time per data-provider op.
        metadata_latency: simulated service time per metadata-bucket
            *request* — a batched multi-get/put pays it once per bucket
            per round (DESIGN.md §9).
        vman_latency: simulated service time per serialized
            version-manager *interaction* (DESIGN.md §10).
        overlap_publish: overlap the block scatter with metadata
            weaving/publication; requires ``io_workers > 0``.
    """

    data_providers: Union[int, Sequence[str]] = 16
    metadata_providers: Union[int, Sequence[str]] = 4
    block_size: Union[int, str] = DEFAULT_BLOCK_SIZE
    replication: int = 1
    metadata_replication: int = 1
    placement: Union[str, PlacementPolicy] = "round_robin"
    seed: int = 0
    io_workers: int = 0
    io_scheduler: str = "async"
    max_in_flight: int = 1024
    provider_latency: float = 0.0
    metadata_latency: float = 0.0
    vman_latency: float = 0.0
    overlap_publish: bool = False

    # -- derived views ---------------------------------------------------------

    def provider_names(self) -> list[str]:
        """Data-provider names (counts expand to ``provider-NNN``)."""
        return _resolve_names(self.data_providers, "provider")

    def metadata_bucket_names(self) -> list[str]:
        """Metadata-bucket names (counts expand to ``mdp-NNN``)."""
        return _resolve_names(self.metadata_providers, "mdp")

    def block_size_bytes(self) -> int:
        """The block size as an integer byte count."""
        return parse_size(self.block_size)

    # -- validation ------------------------------------------------------------

    def validate(self) -> "StoreConfig":
        """Raise ``ValueError`` on any invalid or silently-broken combo.

        Every rejection here names the offending fields and what to
        change.
        """
        providers = self.provider_names()
        buckets = self.metadata_bucket_names()
        if not providers:
            raise ValueError("data_providers must name at least one provider")
        if not buckets:
            raise ValueError("metadata_providers must name at least one bucket")
        if len(set(providers)) != len(providers):
            raise ValueError(f"duplicate data-provider names in {providers}")
        if len(set(buckets)) != len(buckets):
            raise ValueError(f"duplicate metadata-bucket names in {buckets}")
        if self.block_size_bytes() < 1:
            raise ValueError(f"block_size must be >= 1 byte, got {self.block_size!r}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.replication > len(providers):
            raise ValueError(
                f"replication={self.replication} exceeds the "
                f"{len(providers)} configured data providers: every write "
                "would fail with ReplicationError — add providers or lower "
                "replication"
            )
        if self.metadata_replication < 1:
            raise ValueError(
                f"metadata_replication must be >= 1, got {self.metadata_replication}"
            )
        if self.metadata_replication > len(buckets):
            raise ValueError(
                f"metadata_replication={self.metadata_replication} exceeds the "
                f"{len(buckets)} configured metadata buckets: every publish "
                "would fail — add buckets or lower metadata_replication"
            )
        if isinstance(self.placement, str) and self.placement not in _POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {sorted(_POLICIES)}"
            )
        if self.io_workers < 0:
            raise ValueError(f"io_workers must be >= 0, got {self.io_workers}")
        if self.io_scheduler != "async":
            raise ValueError(
                f"io_scheduler={self.io_scheduler!r} is not available: the "
                "thread-pool scheduler was removed, and io_workers > 0 "
                "selects the one I/O engine (io_scheduler accepts only "
                "'async')"
            )
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        for field in ("provider_latency", "metadata_latency", "vman_latency"):
            if getattr(self, field) < 0:
                raise ValueError(
                    f"{field} must be >= 0, got {getattr(self, field)}"
                )
        if self.overlap_publish and self.io_workers == 0:
            raise ValueError(
                "overlap_publish=True requires io_workers > 0: the overlap "
                "launches the block scatter on the I/O engine, and with no "
                "engine it silently degrades to the serial path"
            )
        return self
