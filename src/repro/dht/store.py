"""Replicated key-value store over a hash ring.

This is the functional-layer DHT used by BlobSeer's metadata providers:
a set of named buckets (one per provider), a :class:`HashRing` deciding
key placement, and write/read paths that tolerate bucket failures up to
the replication level.  The simulated deployment re-uses the same ring
logic but puts each bucket behind an RPC server.

Every access is batched (``multi_get``/``multi_put``/
``multi_replica_values``): many keys are resolved against their owner
buckets in one pass — keys are grouped by bucket, each bucket is asked
once per round, and the per-bucket requests of a round are issued
together when an engine is attached, so the whole round costs one
wall-clock round trip (paper §III-A.3: metadata must never serialize
readers on a hop).  ``get``/``put`` are batches of one.

``stats`` counts wall-clock round trips (a batched round of parallel
bucket requests counts once) so callers can verify the O(tree-depth)
metadata cost of a batched descent.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from repro.blob.async_engine import run_inline
from repro.dht.ring import HashRing
from repro.errors import ProviderUnavailable, ReplicationError
from repro.obs import Counters

__all__ = ["Bucket", "DhtStore", "DhtStats", "MultiPutResult", "MISSING"]


class _Missing:
    """Sentinel for "this replica does not hold the key" in enumerations."""

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return "<missing>"


#: Replica-enumeration sentinel: the bucket is online but lacks the key.
MISSING = _Missing()

#: Internal absent-value sentinel for conditional puts (values may be None).
_ABSENT = _Missing()


class DhtStats(Counters):
    """Wire-level counters (a :class:`~repro.obs.Counters`).

    ``round_trips`` counts *wall-clock* waits on the DHT: one round of
    a batched operation — all its per-bucket requests run in parallel —
    counts one, no matter how many keys or buckets it touched.  ``bucket_ops`` counts
    the individual bucket requests behind those waits.  The gap between
    the two is exactly what batching buys.
    """

    SUMS = ("round_trips", "bucket_ops", "keys_fetched", "keys_stored")


@dataclass(frozen=True)
class MultiPutResult:
    """Outcome of one :meth:`DhtStore.multi_put`.

    ``conflicts`` maps keys whose conditional put found a *different*
    stored value to that existing value (identical re-puts are silent —
    idempotent-retry semantics, enforced in the bucket's single hop).
    ``unstored`` lists keys that reached **no** live replica; the
    caller decides whether that is fatal (a write publish) or merely
    reportable (a best-effort tombstone filler).
    """

    conflicts: dict[Hashable, object]
    unstored: tuple[Hashable, ...]

    @property
    def clean(self) -> bool:
        return not self.conflicts and not self.unstored


class Bucket:
    """One provider's local slice of the DHT: a dict with an on/off switch.

    A request is an issue, :meth:`_issue`, which fails fast when the
    bucket is down and returns its service delay, then one locked body
    per direction, :meth:`_get_vector` or :meth:`_put_vector`, which
    checks again that the bucket is online.  The I/O engine waits out
    many issued requests' delays together; the sync entry points sleep
    their own.

    Args:
        name: bucket identity.
        latency: simulated seconds of service time charged once per
            request: every ``*_many`` op pays it once per batch,
            however many keys the batch carries.
    """

    def __init__(self, name: str, latency: float = 0.0):
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.name = name
        self.online = True
        self.latency = latency
        self._items: dict[Hashable, object] = {}
        self._lock = threading.Lock()

    def _check_online(self) -> None:
        if not self.online:
            raise ProviderUnavailable(f"bucket {self.name} is down")

    def _issue(self) -> float:
        """Issue one request: fail fast when down, else its service delay."""
        self._check_online()
        return self.latency

    def _service_delay(self) -> None:
        """A sync entry point's wait: issue, then sleep the delay."""
        delay = self._issue()
        if delay:
            time.sleep(delay)  # asynclint: allow a sync entry point's service time

    def _get_vector(self, keys: Sequence[Hashable]) -> dict[Hashable, object]:
        """The present keys' values: the body of every get entry point."""
        with self._lock:
            self._check_online()
            items = self._items
            return {key: items[key] for key in keys if key in items}

    def _put_vector(
        self, items: Sequence[tuple[Hashable, object]], conditional: bool
    ) -> tuple[dict[Hashable, object], list[Hashable]]:
        """Store the pairs: the body of every put entry point (see
        :meth:`put_many`); the check-and-put is atomic under the lock."""
        conflicts: dict[Hashable, object] = {}
        stored: list[Hashable] = []
        with self._lock:
            self._check_online()
            held = self._items
            for key, value in items:
                if conditional:
                    existing = held.get(key, _ABSENT)
                    if existing is _ABSENT:
                        held[key] = value
                        stored.append(key)
                    elif existing != value:
                        conflicts[key] = existing
                else:
                    held[key] = value
                    stored.append(key)
        return conflicts, stored

    # -- batched surface ----------------------------------------------------------

    def get_many(self, keys: Sequence[Hashable]) -> dict[Hashable, object]:
        """Fetch every present key in one request (one service delay).

        Absent keys are simply omitted — the caller's failover logic
        needs "which keys this replica lacks", not an exception per key.
        """
        self._service_delay()  # asynclint: allow sync entry point
        return self._get_vector(keys)

    def put_many(
        self,
        items: Sequence[tuple[Hashable, object]],
        conditional: bool = False,
    ) -> tuple[dict[Hashable, object], list[Hashable]]:
        """Store many pairs in one request (one service delay).

        With ``conditional=True`` each key is stored only if absent;
        a present-and-equal value is a silent no-op (idempotent retry)
        and a present-but-different value is left untouched and
        reported in the returned ``{key: existing}`` conflict map — the
        check-and-put happens in this single hop, not as a get-then-put
        double round trip.  Also returns the keys this call *newly*
        stored, so a caller whose conditional batch conflicted on a
        peer replica can withdraw the rejected value from the replicas
        that (being behind) accepted it.
        """
        self._service_delay()  # asynclint: allow sync entry point
        return self._put_vector(items, conditional)

    async def aget_many(self, keys: Sequence[Hashable]) -> dict[Hashable, object]:
        """Coroutine twin of :meth:`get_many`: the same two halves with
        ``asyncio.sleep`` between them.  Nothing in ``src`` awaits it:
        ``perf/trace.py`` wraps it by name (ROADMAP item 1 step B)."""
        import asyncio

        delay = self._issue()
        if delay:
            await asyncio.sleep(delay)
        return self._get_vector(keys)

    async def aput_many(
        self,
        items: Sequence[tuple[Hashable, object]],
        conditional: bool = False,
    ) -> tuple[dict[Hashable, object], list[Hashable]]:
        """Coroutine twin of :meth:`put_many` (see :meth:`aget_many`)."""
        import asyncio

        delay = self._issue()
        if delay:
            await asyncio.sleep(delay)
        return self._put_vector(items, conditional)

    def delete_many(self, keys: Sequence[Hashable]) -> None:
        """Remove every present key in one request (one service delay;
        absent keys are ignored, so a retried sweep is idempotent)."""
        self._service_delay()  # asynclint: allow sync entry point
        with self._lock:
            self._check_online()
            for key in keys:
                self._items.pop(key, None)

    def peek_many(self, keys: Sequence[Hashable]) -> dict[Hashable, object]:
        """Present keys only, with no online gate and no delay: the
        anti-entropy pass reads a bucket's durable content even around
        failure injection, as a recovered node would scan its disk."""
        items = self._items
        return {key: items[key] for key in keys if key in items}

    def __contains__(self, key: Hashable) -> bool:
        return self.online and key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def keys(self) -> Iterator[Hashable]:
        """Iterate stored keys (GC sweeps use this)."""
        return iter(list(self._items.keys()))

    def digest(self, keys: Optional[Iterable[Hashable]] = None) -> str:
        """Stable content digest over *keys* (default: every stored key).

        Two replicas holding identical values for the digested keys
        produce identical digests — the anti-entropy convergence check
        (DESIGN.md §8).  Keys absent from the bucket hash as missing
        rather than raising, so digests over a shared key set are
        comparable even while a replica is behind.
        """
        chosen = list(self._items.keys()) if keys is None else list(keys)
        h = hashlib.sha256()
        for key in sorted(chosen, key=repr):
            h.update(repr(key).encode())
            h.update(b"=")
            h.update(repr(self._items.get(key, MISSING)).encode())
            h.update(b";")
        return h.hexdigest()


class DhtStore:
    """Hash-ring-replicated store across named buckets.

    Args:
        bucket_names: provider names (20 metadata providers in the
            paper's microbenchmark deployment).
        replication: copies per key; reads fail over between them.
        latency: simulated per-request service time on every bucket
            (see :class:`Bucket`); makes batching observable in
            wall-clock benchmarks.
        engine: optional I/O engine (the store's
            :class:`~repro.blob.async_engine.AsyncIOEngine`) that issues
            one batched round's per-bucket requests together.  ``None``
            runs them one after another on the caller (still one
            *logical* round trip; the accounting is identical).
    """

    def __init__(
        self,
        bucket_names: list[str],
        replication: int = 1,
        vnodes: int = 64,
        latency: float = 0.0,
        engine=None,
    ):
        if not bucket_names:
            raise ValueError("DhtStore needs at least one bucket")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.buckets = {name: Bucket(name, latency=latency) for name in bucket_names}
        self.ring = HashRing(bucket_names, vnodes=vnodes)
        self.engine = engine
        self.stats = DhtStats()

    def owners(self, key: Hashable) -> tuple[str, ...]:
        """Replica set (bucket names) responsible for *key*."""
        return self.ring.replicas(key, self.replication)

    def _settle(
        self, request: Callable, groups: Sequence
    ) -> list[tuple[object, Optional[Exception]]]:
        """Run one batched round's per-bucket requests — issued together
        when an engine is attached, one after another otherwise —
        capturing per-bucket failures so one dead bucket can never
        abort the other buckets' work.  ``request(group)`` returns the
        group's request (``repro.blob.async_engine``)."""
        if self.engine is not None and len(groups) > 1:
            return self.engine.map_settle(request, groups, dest=itemgetter(0))
        results = []
        for group in groups:
            try:
                results.append((run_inline(request(group)), None))
            except Exception as exc:
                results.append((None, exc))
        return results

    # -- batches of one -------------------------------------------------------

    def get(self, key: Hashable) -> object:
        """One key through :meth:`multi_get` (same failover, same errors)."""
        return self.multi_get([key])[key]

    def put(self, key: Hashable, value: object) -> None:
        """One unconditional pair through :meth:`multi_put`; raises
        :class:`ReplicationError` if no live replica took it."""
        if self.multi_put([(key, value)]).unstored:
            raise ReplicationError(f"no live replica for key {key!r}")

    # -- batched ops --------------------------------------------------------------

    def multi_get(self, keys: Iterable[Hashable]) -> dict[Hashable, object]:
        """Resolve many keys against their owner buckets in one pass.

        Round *r* asks each unresolved key's *r*-th replica, grouping
        keys by bucket so every bucket is contacted at most once per
        round (requests of a round run in parallel — one wall-clock
        round trip).  Keys served by their first replica finish in
        round 0; only stragglers (offline or lagging replicas) pay
        failover rounds.

        Raises ``KeyError`` for a key some online replica was asked
        about but none holds, ``ProviderUnavailable`` for a key whose
        every replica is down.
        """
        ordered = list(dict.fromkeys(keys))
        if not ordered:
            return {}
        owners = {key: self.owners(key) for key in ordered}
        results: dict[Hashable, object] = {}
        seen_missing: set[Hashable] = set()
        remaining = ordered
        # The ring hands out at most one replica per distinct bucket, so
        # every key's owner chain is exactly this long.
        rounds = min(self.replication, len(self.buckets))
        for attempt in range(rounds):
            if not remaining:
                break
            by_bucket: dict[str, list[Hashable]] = {}
            for key in remaining:
                by_bucket.setdefault(owners[key][attempt], []).append(key)
            groups = list(by_bucket.items())
            self.stats.record(
                round_trips=1, bucket_ops=len(groups), keys_fetched=len(remaining)
            )

            def fetch(group):
                bucket = self.buckets[group[0]]
                yield bucket._issue()
                return bucket._get_vector(group[1])

            retry: list[Hashable] = []
            for (name, bucket_keys), (found, error) in zip(
                groups, self._settle(fetch, groups)
            ):
                if error is not None:
                    if isinstance(error, ProviderUnavailable):
                        retry.extend(bucket_keys)  # fail over to the next replica
                        continue
                    raise error
                for key in bucket_keys:
                    if key in found:
                        results[key] = found[key]
                    else:
                        seen_missing.add(key)
                        retry.append(key)
            remaining = retry
        if remaining:
            for key in remaining:
                if key in seen_missing:
                    raise KeyError(key)
            raise ProviderUnavailable(
                f"all replicas down for {len(remaining)} key(s), "
                f"e.g. {remaining[0]!r}"
            )
        return results

    def multi_put(
        self,
        items: Sequence[tuple[Hashable, object]],
        conditional: bool = False,
    ) -> MultiPutResult:
        """Write many pairs to their replica sets in one parallel pass.

        Every pair goes to every live owner replica; each bucket
        receives its whole share in a single request.  With
        ``conditional=True`` the bucket enforces write-once-or-identical
        in that same hop (see :meth:`Bucket.put_many`) — no get-then-put
        double round trip, and per-bucket atomicity for the batch.

        Never raises for unreachable keys: the :class:`MultiPutResult`
        reports conflicts and fully-unstored keys, and the caller
        applies its own policy (a write publish fails, a best-effort
        filler publish records and moves on).

        A key whose conditional put conflicts on *any* replica is
        withdrawn from the replicas this call newly stored it on: a
        rejected publish must leave the replica set exactly as it found
        it (the old get-then-put path rejected without writing; a
        lagging replica must not end up holding the rejected value).
        """
        pairs = list(items)
        if not pairs:
            return MultiPutResult(conflicts={}, unstored=())
        by_bucket: dict[str, list[tuple[Hashable, object]]] = {}
        for key, value in pairs:
            for name in self.owners(key):
                by_bucket.setdefault(name, []).append((key, value))
        groups = list(by_bucket.items())
        self.stats.record(
            round_trips=1, bucket_ops=len(groups), keys_stored=len(pairs)
        )

        def put(group):
            bucket = self.buckets[group[0]]
            yield bucket._issue()
            return bucket._put_vector(group[1], conditional)

        touched: dict[Hashable, int] = {key: 0 for key, _ in pairs}
        conflicts: dict[Hashable, object] = {}
        stored_by_bucket: dict[str, list[Hashable]] = {}
        for (name, kvs), (outcome, error) in zip(groups, self._settle(put, groups)):
            if error is not None:
                if isinstance(error, ProviderUnavailable):
                    continue  # this replica misses the batch; others may land
                raise error
            bucket_conflicts, stored = outcome
            stored_by_bucket[name] = stored
            for key, _ in kvs:
                touched[key] += 1
            for key, existing in bucket_conflicts.items():
                conflicts.setdefault(key, existing)
        if conflicts:
            self._withdraw(conflicts, stored_by_bucket)
        unstored = tuple(key for key, count in touched.items() if count == 0)
        return MultiPutResult(conflicts=conflicts, unstored=unstored)

    def _withdraw(
        self,
        conflicts: dict[Hashable, object],
        stored_by_bucket: dict[str, list[Hashable]],
    ) -> None:
        """Undo the fresh stores of conflicted keys (best effort: a
        bucket dying mid-withdrawal leaves debris for the scrub, which
        converges the replica set on the established value anyway)."""
        withdrew = 0
        for name, stored in stored_by_bucket.items():
            doomed = [key for key in stored if key in conflicts]
            if not doomed:
                continue
            withdrew += 1
            try:
                self.buckets[name].delete_many(doomed)
            except ProviderUnavailable:
                continue
        if withdrew:
            self.stats.record(round_trips=1, bucket_ops=withdrew)

    def multi_replica_values(
        self, keys: Iterable[Hashable]
    ) -> dict[Hashable, dict[str, object]]:
        """What each *online* owner replica holds for every key, in one
        pass over the owner buckets.

        Maps key to ``{bucket name: stored value}``, with :data:`MISSING`
        where the replica is online but lacks the key.  Offline owners
        are omitted: their content cannot be compared until they
        recover.
        """
        ordered = list(dict.fromkeys(keys))
        if not ordered:
            return {}
        by_bucket: dict[str, list[Hashable]] = {}
        online_owners: dict[Hashable, list[str]] = {}
        for key in ordered:
            online = [n for n in self.owners(key) if self.buckets[n].online]
            online_owners[key] = online
            for name in online:
                by_bucket.setdefault(name, []).append(key)
        if by_bucket:
            self.stats.record(
                round_trips=1, bucket_ops=len(by_bucket), keys_fetched=len(ordered)
            )

        # A peek has no online gate and no latency: nothing to issue.
        held = {name: self.buckets[name].peek_many(names) for name, names in by_bucket.items()}
        return {
            key: {name: held[name].get(key, MISSING) for name in online_owners[key]}
            for key in ordered
        }

    # -- anti-entropy surface (DESIGN.md §8) -----------------------------------

    def online_buckets(self) -> Iterator[Bucket]:
        """Live buckets only — the shared offline-bucket skip-list used
        by every maintenance sweep (GC's metadata sweep, the scrub
        pass).  Offline buckets keep their content and are picked up by
        the first sweep after recovery."""
        for bucket in self.buckets.values():
            if bucket.online:
                yield bucket

    def all_keys(self) -> set[Hashable]:
        """Union of keys across every *online* bucket (scrub enumeration)."""
        keys: set[Hashable] = set()
        for bucket in self.online_buckets():
            keys.update(bucket.keys())
        return keys

    def fail_bucket(self, name: str) -> None:
        """Failure injection: mark one bucket offline."""
        self.buckets[name].online = False

    def recover_bucket(self, name: str) -> None:
        """Bring a failed bucket back (its old content is intact)."""
        self.buckets[name].online = True

    def load_by_bucket(self) -> dict[str, int]:
        """Stored item count per bucket (balance diagnostics)."""
        return {name: len(bucket) for name, bucket in self.buckets.items()}
