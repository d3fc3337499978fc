"""BlobSeer core: the paper's contribution.

A versioning-oriented blob store built from: data striping over data
providers (round-robin placement), distributed segment-tree metadata in
a DHT, a version manager whose assignment step is the only serialized
part of a write, and lock-free version-based concurrency control with
linearizable publication (paper §III).
"""

from repro.blob.block import (
    AnyBlockDescriptor,
    BlockDescriptor,
    BlockId,
    BytesPayload,
    CopyStats,
    Payload,
    SyntheticPayload,
    ZeroBlockDescriptor,
    concat,
    materialize,
)
from repro.blob.async_engine import AsyncIOEngine, EngineStats
from repro.blob.config import StoreConfig
from repro.blob.data_provider import DataProviderCore
from repro.blob.diff import BlockRange, changed_ranges, diff_snapshots
from repro.blob.gc import GcReport, collect_garbage
from repro.blob.metadata import MetadataService, NodeCache
from repro.blob.provider_manager import (
    LeastLoadedPolicy,
    LocalFirstPolicy,
    PlacementPolicy,
    ProviderManagerCore,
    RandomPolicy,
    RoundRobinPolicy,
    TenantAccount,
    make_policy,
)
from repro.blob.scrub import ScrubReport, scrub_store
from repro.blob.segment_tree import (
    DescentPlan,
    InnerNode,
    LeafNode,
    NodeKey,
    RedirectLeaf,
    RunLeaf,
    TreeNode,
    build_patch,
    build_tombstone_patch,
    collect_blocks_batched,
    iter_reachable_batched,
    latest_intersecting,
    root_span,
)
from repro.blob.store import DEFAULT_BLOCK_SIZE, BlockLocation, LocalBlobStore
from repro.blob.version_manager import (
    BlobState,
    SnapshotInfo,
    TombstoneSpec,
    VersionManagerCore,
    WriteRecord,
    WriteTicket,
)

__all__ = [
    "BytesPayload",
    "SyntheticPayload",
    "Payload",
    "concat",
    "materialize",
    "CopyStats",
    "BlockDescriptor",
    "ZeroBlockDescriptor",
    "AnyBlockDescriptor",
    "BlockId",
    "NodeKey",
    "LeafNode",
    "RedirectLeaf",
    "RunLeaf",
    "InnerNode",
    "TreeNode",
    "root_span",
    "latest_intersecting",
    "build_patch",
    "build_tombstone_patch",
    "DescentPlan",
    "collect_blocks_batched",
    "iter_reachable_batched",
    "VersionManagerCore",
    "WriteRecord",
    "WriteTicket",
    "SnapshotInfo",
    "TombstoneSpec",
    "BlobState",
    "ProviderManagerCore",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "RandomPolicy",
    "LocalFirstPolicy",
    "make_policy",
    "DataProviderCore",
    "AsyncIOEngine",
    "EngineStats",
    "MetadataService",
    "NodeCache",
    "LocalBlobStore",
    "StoreConfig",
    "TenantAccount",
    "BlockLocation",
    "DEFAULT_BLOCK_SIZE",
    "GcReport",
    "collect_garbage",
    "BlockRange",
    "changed_ranges",
    "diff_snapshots",
    "ScrubReport",
    "scrub_store",
]
