"""Blocks: the unit of striping, and the payloads they carry.

BlobSeer stripes every BLOB into fixed-size blocks scattered over data
providers (64 MB in the paper's evaluation).  The reproduction runs the
same protocol code in two modes:

* **real payloads** (:class:`BytesPayload`) — actual bytes, used by the
  functional layer, the examples and the correctness tests;
* **synthetic payloads** (:class:`SyntheticPayload`) — a size plus an
  identity tag, used by the discrete-event experiments where a 16 GB
  file must *cost* 16 GB of simulated transfer without occupying RAM.

Both honour the same interface, so providers, caches and clients never
branch on the mode.

**Zero-copy discipline (DESIGN.md §11).**  A :class:`BytesPayload`
wraps *any* buffer-protocol object — ``bytes``, ``bytearray`` or
``memoryview`` — and :meth:`BytesPayload.slice` returns a zero-copy
*view* of the same buffer.  Data therefore flows through the block path
(chunking → scatter → provider → gather → reassembly) without being
re-materialized at every hop; the only sanctioned copies are

* **copy-on-publish** (:meth:`BytesPayload.freeze`): a write freezes
  the caller's buffer once, at the store boundary — a buffer exported
  by an immutable ``bytes`` object is aliased, any other is snapshotted
  once whatever the replication — so published blocks can never change
  underneath readers;
* **the gather** (:func:`concat`): a read joins its parts — stored
  payloads, the covered windows of the two extremal blocks, zeros for
  tombstone blocks — into ONE immutable ``bytes``, each byte copied
  exactly once.  That copy *is* the read's result:
  :func:`materialize` hands it back without copying again.

:class:`CopyStats` counts those copies (and the bytes that legitimately
crossed a provider boundary) per layer, which is how the tests pin the
"one read of N bytes materializes ≤ 1×N client-side" invariant.

**One check per write (DESIGN.md §4, §11).**  A write's buffer is
checked once, when it becomes a :class:`BytesPayload`, and its block
windows (:meth:`BytesPayload.windows`) inherit that check.  Block
descriptors are tuples, and :func:`write_descriptors` checks a write's
whole vector of sizes and replica sets once and then builds every
descriptor in C; the validating constructors remain for every other
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from repro.obs import Counters

__all__ = [
    "BytesPayload",
    "SyntheticPayload",
    "Payload",
    "BlockDescriptor",
    "ZeroBlockDescriptor",
    "AnyBlockDescriptor",
    "write_descriptors",
    "BlockId",
    "CopyStats",
    "concat",
    "materialize",
]

#: Buffer-protocol objects a :class:`BytesPayload` may wrap.
BytesLike = Union[bytes, bytearray, memoryview]


class CopyStats(Counters):
    """Byte-movement counters for the data plane (a :class:`~repro.obs.Counters`).

    The data-plane sibling of :class:`~repro.dht.store.DhtStats` and
    :class:`~repro.blob.publish.VmanStats`: where those count round
    trips, this counts *bytes* — separating the bytes a protocol step
    legitimately moved from the bytes it needlessly re-materialized.

    * ``bytes_copied`` — client-side materializations: every byte
      duplicated into a new buffer (the gather into a read's result
      buffer, a write's one copy-on-publish freeze, any legacy slice
      copy).  The zero-copy refactor's target: a read of N bytes keeps
      this ≤ N (one gather), where the pre-refactor path paid ~3–4×.
    * ``bytes_transferred`` — bytes that crossed a provider boundary
      (block put/get traffic); unavoidable, and unchanged by the
      refactor — the counter pair proves copies dropped while transfers
      stayed constant.
    * ``bytes_result`` — bytes materialized as the user-facing return
      value (the final ``bytes()`` a caller asked for; not a waste,
      tracked separately so ``bytes_copied`` measures pure overhead).

    ``record(layer, copied=0, transferred=0, result=0)`` names the layer
    it happened at (``"read.gather"``, ``"provider.put"``, …);
    :meth:`layers` exposes the per-layer breakdown the ``repro.cli
    zerocopy`` demo prints.
    """

    SUMS = ("copied", "transferred", "result")
    PREFIX = "bytes_"
    LABELLED = True

    # The totals also read as attributes under their snapshot keys.
    bytes_copied = property(lambda self: self.copied)
    bytes_transferred = property(lambda self: self.transferred)
    bytes_result = property(lambda self: self.result)

    def layers(self) -> dict[str, dict[str, int]]:
        """Per-layer breakdown (layer name -> copied/transferred/result)."""
        return self.by_label()


@dataclass(frozen=True, slots=True)
class BytesPayload:
    """A payload backed by real bytes — any buffer-protocol object.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``;
    :meth:`slice` returns a zero-copy view either way.  Ownership rules
    (DESIGN.md §11): a payload over a ``bytes`` object is safe to alias
    forever (published blocks are immutable); a payload over any other
    buffer — a read-only ``memoryview`` included, as its exporter may
    still be written through another reference — is a transient view
    that a write must :meth:`freeze` before its blocks reach a provider.
    """

    data: BytesLike

    def __post_init__(self) -> None:
        try:
            view = memoryview(self.data)
        except TypeError:
            raise TypeError(
                f"payload data must support the buffer protocol, "
                f"got {type(self.data).__name__}"
            ) from None
        if view.itemsize != 1 or not view.c_contiguous:
            raise TypeError("payload buffers must be contiguous byte buffers")
        if view.ndim != 1:
            # ``len`` of a multi-dimensional view counts its rows: keep
            # the flat view, so that ``size`` counts bytes.
            _set_data(self, view.cast("B"))

    @property
    def size(self) -> int:
        """Number of bytes carried."""
        return len(self.data)

    @property
    def is_real(self) -> bool:
        """True: contents are materialised."""
        return True

    def slice(self, start: int, length: int) -> "BytesPayload":
        """Zero-copy sub-view ``[start, start+length)`` (bounds-checked)."""
        if start < 0 or length < 0 or start + length > len(self.data):
            raise ValueError(
                f"slice [{start}, {start + length}) outside payload of {len(self.data)}B"
            )
        return _window(memoryview(self.data)[start : start + length])

    def windows(self, block_size: int) -> list["BytesPayload"]:
        """Zero-copy windows of *block_size* bytes (the last may be
        short) — a write's blocks.  The buffer was checked once, when
        this payload was built; a window of it needs no second check."""
        view = memoryview(self.data)
        return [
            _window(view[lo : lo + block_size])
            for lo in range(0, len(view), block_size)
        ]

    def view(self) -> memoryview:
        """A zero-copy view of the whole payload.

        Legal to hand out freely for *published* (frozen) payloads —
        block immutability is exactly what makes aliased read-only views
        safe (DESIGN.md §11).
        """
        return memoryview(self.data)

    def freeze(self) -> "BytesPayload":
        """An immutable-backed payload with the same contents.

        Returns ``self`` (no copy) when the buffer is exported by a
        ``bytes`` object, which nothing can mutate; otherwise snapshots
        the view into fresh ``bytes`` — the copy-on-publish a write makes
        once, at the store boundary, so a stored block can never alias a
        caller's buffer (DESIGN.md §11).  A read-only ``memoryview`` is
        no proof of immutability: it may view a ``bytearray`` the caller
        still writes through.
        """
        data = self.data
        if type(data) is bytes or (
            type(data) is memoryview and type(data.obj) is bytes
        ):
            return self
        return _window(bytes(data))

    def tobytes(self) -> bytes:
        """The raw bytes (no copy when already immutable ``bytes``)."""
        if type(self.data) is bytes:
            return self.data
        return bytes(self.data)


_set_data = BytesPayload.data.__set__


def _window(data: BytesLike) -> BytesPayload:
    """A payload over a buffer already known to be a valid one: a
    window of a checked payload, or fresh ``bytes``."""
    payload = object.__new__(BytesPayload)
    _set_data(payload, data)
    return payload


@dataclass(frozen=True)
class SyntheticPayload:
    """A payload that only remembers how large it is (and whose it is).

    ``tag`` preserves identity (e.g. ``(blob_id, version, index)``) so
    correctness checks on the simulated path can at least verify that
    the *right* block came back, if not its bytes.
    """

    nbytes: int
    tag: object = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"payload size must be >= 0, got {self.nbytes}")

    @property
    def size(self) -> int:
        """Number of simulated bytes."""
        return self.nbytes

    @property
    def is_real(self) -> bool:
        """False: contents are not materialised."""
        return False

    def slice(self, start: int, length: int) -> "SyntheticPayload":
        """Sub-payload of the same tag with the sliced size."""
        if start < 0 or length < 0 or start + length > self.nbytes:
            raise ValueError(
                f"slice [{start}, {start + length}) outside payload of {self.nbytes}B"
            )
        return SyntheticPayload(length, tag=self.tag)

    def view(self) -> memoryview:
        """Refused: synthetic payloads have no contents by construction."""
        raise TypeError("synthetic payloads carry no bytes (simulation-only data)")

    def freeze(self) -> "SyntheticPayload":
        """Already immutable (there is nothing to copy)."""
        return self

    def tobytes(self) -> bytes:
        """Refused: synthetic payloads have no contents by construction."""
        raise TypeError("synthetic payloads carry no bytes (simulation-only data)")


Payload = Union[BytesPayload, SyntheticPayload]


def concat(parts: list[Payload]) -> Payload:
    """Join payload parts: real bytes if all parts are real, else synthetic.

    The real case is ONE ``b"".join`` over the parts' buffers: each
    byte is copied exactly once, straight into the immutable ``bytes``
    that becomes the result — no preallocated buffer to copy out of
    again, and :func:`materialize` then copies nothing.  Mixed
    concatenation degrades to synthetic (size-only) — mixing only
    happens in simulated experiments, never on the functional path.
    """
    if all(type(p) is BytesPayload for p in parts):
        return _window(b"".join([p.data for p in parts]))
    return SyntheticPayload(sum(p.size for p in parts), tag="concat")


def materialize(
    payload: Payload,
    stats: Optional[CopyStats] = None,
    layer: str = "result",
) -> bytes:
    """The sanctioned user-facing ``bytes()`` of a payload.

    The ONLY place the blob layer converts an assembled payload into
    caller-owned ``bytes`` (the hot-path lint forbids raw ``tobytes``
    calls there); records the materialization against *stats* so
    ``bytes_copied`` keeps measuring pure overhead.
    """
    data = payload.tobytes()
    if stats is not None:
        stats.record(layer, result=len(data))
    return data


#: Storage identity of one block: (blob_id, write nonce, position in write).
#: The nonce — not the version — keys provider storage, because BlobSeer
#: publishes data blocks *before* the version manager assigns a version
#: (first phase of the two-phase write protocol, paper §III-A.4).
BlockId = tuple[str, int, int]


class _BlockDescriptorFields(NamedTuple):
    blob_id: str
    version: int
    index: int
    size: int
    providers: tuple[str, ...]
    nonce: int
    seq: int


def _check_block(version: int, index: int, size: int) -> None:
    """The checks every block descriptor makes, in the order it makes them."""
    if version < 1:
        raise ValueError(f"blocks are written by versions >= 1, got {version}")
    if index < 0:
        raise ValueError(f"block index must be >= 0, got {index}")
    if size <= 0:
        raise ValueError(f"block size must be positive, got {size}")


class BlockDescriptor(_BlockDescriptorFields):
    """Where one block of one snapshot lives.

    Tuple-backed, like :class:`~repro.blob.segment_tree.NodeKey`, so a
    write can build its descriptors in C (:func:`write_descriptors`) and
    hashing and equality run in C.  The field ``index`` shadows
    ``tuple.index``.  ``_replace`` skips the checks of the constructor,
    so a new replica set goes through the constructor instead.

    Attributes:
        blob_id: owning BLOB.
        version: snapshot that *wrote* this block (blocks are immutable;
            later snapshots reference them through metadata sharing).
        index: absolute block index within the BLOB (known only once the
            version manager fixes the write offset — appends!).
        size: actual bytes stored (< block_size only for a trailing
            partial block).
        providers: data providers holding replicas, primary first.
        nonce: unique id of the write operation that produced the block.
        seq: position of this block within its write (0-based).
    """

    __slots__ = ()

    def __new__(
        cls,
        blob_id: str,
        version: int,
        index: int,
        size: int,
        providers: tuple[str, ...],
        nonce: int,
        seq: int,
    ) -> "BlockDescriptor":
        _check_block(version, index, size)
        if not providers:
            raise ValueError("a block needs at least one provider")
        if seq < 0:
            raise ValueError(f"seq must be >= 0, got {seq}")
        return tuple.__new__(cls, (blob_id, version, index, size, providers, nonce, seq))

    #: Storage key for provider lookups (version-independent):
    #: ``(blob_id, nonce, seq)``, picked out in C.
    block_id = property(itemgetter(0, 5, 6))

    #: False: this block is physically stored on its providers.
    is_zero = False


def write_descriptors(
    blob_id: str,
    version: int,
    start: int,
    sizes: list[int],
    placements: list[tuple[str, ...]],
    nonce: int,
) -> list[BlockDescriptor]:
    """The descriptors of one write's blocks: block *seq* of the write
    has index ``start + seq``, size ``sizes[seq]`` and replica set
    ``placements[seq]``.

    The vector is checked once — version, first index, every size,
    every replica set — and then every descriptor is built in C, with
    no per-block call of the constructor.  A bad entry raises the
    constructor's own :class:`ValueError` for the first one.
    """
    if len(sizes) != len(placements):
        raise ValueError(
            f"{len(sizes)} block sizes but {len(placements)} replica sets"
        )
    if version < 1 or start < 0 or min(sizes, default=1) <= 0 or not all(placements):
        for seq, (size, providers) in enumerate(zip(sizes, placements)):
            BlockDescriptor(blob_id, version, start + seq, size, providers, nonce, seq)
    count = len(sizes)
    return list(
        map(
            tuple.__new__,
            repeat(BlockDescriptor, count),
            zip(
                repeat(blob_id, count),
                repeat(version, count),
                range(start, start + count),
                sizes,
                placements,
                repeat(nonce, count),
                range(count),
            ),
        )
    )


class _ZeroBlockDescriptorFields(NamedTuple):
    blob_id: str
    version: int
    index: int
    size: int
    #: Kept for interface parity with :class:`BlockDescriptor`
    #: (layout queries report "no provider holds this range").
    providers: tuple[str, ...] = ()


class ZeroBlockDescriptor(_ZeroBlockDescriptorFields):
    """A block of zeros materialised by a tombstoned (aborted) version.

    When a writer dies after version assignment, its version is
    converted into a tombstone (see DESIGN.md §7): ranges the dead
    write would have *created* are defined to read as zeros.  No
    provider stores such a block — readers synthesise the zeros
    locally — so the descriptor carries no nonce, no replica set and
    no storage identity.  Tuple-backed like :class:`BlockDescriptor`;
    having fewer fields, it never equals one.
    """

    __slots__ = ()

    def __new__(
        cls,
        blob_id: str,
        version: int,
        index: int,
        size: int,
        providers: tuple[str, ...] = (),
    ) -> "ZeroBlockDescriptor":
        _check_block(version, index, size)
        if providers:
            raise ValueError("zero blocks are synthesised by readers, never stored")
        return tuple.__new__(cls, (blob_id, version, index, size, providers))

    #: Zero blocks have no storage identity (nothing to fetch or GC).
    block_id = None

    #: True: readers materialise this block as zeros, no fetch.
    is_zero = True


#: Either descriptor flavour; discriminate with ``descriptor.is_zero``.
AnyBlockDescriptor = Union[BlockDescriptor, ZeroBlockDescriptor]
