"""Provider manager: block-placement policies.

"The provider manager keeps information about the available storage
space and schedules the placement of newly generated blocks ...
according to a load balancing strategy that aims at evenly distributing
the blocks across data providers" (paper §III-B).  BlobSeer's default —
and the root cause of its single-writer and concurrent-reader wins in
§V-D/§V-E — is a **round-robin** scatter over remote providers.

The HDFS-style policies (``local-first`` writes, random remote
placement) are implemented here too, both for the HDFS baseline and for
the placement ablation (``tests/deploy/test_ablations.py``).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, Union

from repro.errors import ProviderUnavailable, QuotaExceeded, ReplicationError
from repro.util.rng import SeededRng

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProviderInfo",
    "TenantAccount",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "RandomPolicy",
    "LocalFirstPolicy",
    "ProviderManagerCore",
    "make_policy",
]

#: Sliding window (seconds) over which per-tenant bytes/s is measured.
RATE_WINDOW = 2.0


@dataclass
class ProviderInfo:
    """Load statistics for one data provider."""

    name: str
    blocks: int = 0
    bytes: int = 0
    online: bool = True


@dataclass
class TenantAccount:
    """Quota accounting for one gateway tenant (DESIGN.md §12).

    Lives in the provider manager — the placement serialization point —
    so an over-quota write is refused by the same authority that would
    otherwise have charged providers for its blocks: rejection happens
    *before* any placement exists.  ``bytes_reserved`` covers writes
    admitted but not yet durable; reservations either convert to
    ``bytes_stored`` on success or are released on failure, so the
    quota check ``stored + reserved + request <= quota`` never
    double-admits concurrent writers.
    """

    tenant_id: str
    quota_bytes: Optional[int] = None
    bytes_stored: int = 0
    bytes_reserved: int = 0
    in_flight: int = 0
    ops_total: int = 0
    bytes_total: int = 0
    quota_rejections: int = 0
    #: (monotonic timestamp, nbytes) samples inside RATE_WINDOW.
    _samples: deque = field(default_factory=deque, repr=False)

    def _note(self, nbytes: int, now: float) -> None:
        self.bytes_total += nbytes
        self._samples.append((now, nbytes))
        self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - RATE_WINDOW
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def bytes_per_sec(self, now: Optional[float] = None) -> float:
        """Data-plane bytes/s over the trailing window."""
        now = time.monotonic() if now is None else now
        self._trim(now)
        return sum(n for _, n in self._samples) / RATE_WINDOW

    def usage(self) -> dict:
        """Point-in-time snapshot for stats reporting."""
        return {
            "quota_bytes": self.quota_bytes,
            "bytes_stored": self.bytes_stored,
            "bytes_reserved": self.bytes_reserved,
            "in_flight": self.in_flight,
            "ops_total": self.ops_total,
            "bytes_total": self.bytes_total,
            "bytes_per_sec": round(self.bytes_per_sec(), 1),
            "quota_rejections": self.quota_rejections,
        }


class PlacementPolicy(Protocol):
    """Strategy choosing the primary provider for each new block."""

    def choose(
        self,
        count: int,
        providers: Sequence[ProviderInfo],
        rng: np.random.Generator,
        client: Optional[str],
    ) -> list[str]:
        """Primary provider name for each of *count* blocks.

        *providers* lists only live providers; *client* is the writer's
        node name (used by locality-aware policies).
        """
        ...  # pragma: no cover - protocol


class RoundRobinPolicy:
    """BlobSeer's default: scatter blocks over providers in turn.

    A persistent cursor continues where the previous allocation left
    off, so successive writes keep the global layout balanced.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, count, providers, rng, client=None):
        names = [p.name for p in providers]
        start = self._cursor % len(names)
        laps = (start + count) // len(names) + 1
        self._cursor = (self._cursor + count) % len(names)
        return (names * laps)[start : start + count]


class LeastLoadedPolicy:
    """Balance on stored block counts (ties broken by name)."""

    def choose(self, count, providers, rng, client=None):
        heap = [(p.blocks, p.name) for p in providers]
        heapq.heapify(heap)
        chosen: list[str] = []
        for _ in range(count):
            load, name = heap[0]
            chosen.append(name)
            heapq.heapreplace(heap, (load + 1, name))
        return chosen


class RandomPolicy:
    """Uniform random placement (HDFS's remote-client behaviour)."""

    def choose(self, count, providers, rng, client=None):
        names = [p.name for p in providers]
        picks = rng.integers(0, len(names), size=count)
        return [names[i] for i in picks]


class LocalFirstPolicy:
    """HDFS's datanode-colocated behaviour: write locally when possible.

    If the client is itself a live provider every block lands there
    (the pathological layout of §V-E's first experiment); otherwise
    falls back to uniform random remote placement.
    """

    def choose(self, count, providers, rng, client=None):
        names = [p.name for p in providers]
        if client is not None and client in names:
            return [client] * count
        picks = rng.integers(0, len(names), size=count)
        return [names[i] for i in picks]


_POLICIES = {
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
    "random": RandomPolicy,
    "local_first": LocalFirstPolicy,
}


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a policy by config name (see ``_POLICIES`` keys)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None


class ProviderManagerCore:
    """Tracks providers and allocates replica sets for new blocks.

    Replicas: the policy picks each block's *primary*; remaining
    replicas are the next live providers in name order after the
    primary (deterministic, distinct, and spread).  They are built once
    per replication, as a ring kept until the membership changes.

    *rng* is the generator random policies draw from, or a seed for
    one built on the first draw (default: seed 0).
    """

    def __init__(
        self,
        policy: PlacementPolicy | str = "round_robin",
        rng: Union[np.random.Generator, int, None] = None,
    ):
        self.policy: PlacementPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        if rng is None or isinstance(rng, int):
            rng = SeededRng(rng or 0)
        self._rng = rng
        self._providers: dict[str, ProviderInfo] = {}
        self._tenants: dict[str, TenantAccount] = {}
        self._lock = threading.Lock()
        #: replication -> (live providers, primary -> replica set); built
        #: and dropped under ``_lock``, so no ring outlives a change.
        self._rings: dict[int, tuple[list[ProviderInfo], dict[str, tuple[str, ...]]]] = {}

    # -- membership -------------------------------------------------------------

    def register(self, name: str) -> None:
        """A data provider joins (they "may dynamically join", §III-B)."""
        with self._lock:
            if name in self._providers:
                raise ValueError(f"provider {name!r} already registered")
            self._providers[name] = ProviderInfo(name=name)
            self._rings.clear()

    def decommission(self, name: str) -> None:
        """Mark a provider offline; its stats are retained."""
        with self._lock:
            self._provider(name).online = False
            self._rings.clear()

    def recover(self, name: str) -> None:
        """Bring a provider back online."""
        with self._lock:
            self._provider(name).online = True
            self._rings.clear()

    def _provider(self, name: str) -> ProviderInfo:
        try:
            return self._providers[name]
        except KeyError:
            raise ProviderUnavailable(f"unknown provider {name!r}") from None

    @property
    def provider_names(self) -> list[str]:
        """All registered providers, name order."""
        return sorted(self._providers)

    def live_providers(self) -> list[ProviderInfo]:
        """Currently online providers, name order."""
        return [self._providers[n] for n in self.provider_names if self._providers[n].online]

    # -- allocation ---------------------------------------------------------------

    def allocate(
        self,
        count: int,
        block_sizes: Sequence[int],
        replication: int = 1,
        client: Optional[str] = None,
    ) -> list[tuple[str, ...]]:
        """Replica sets (primary first) for *count* new blocks.

        Raises :class:`ReplicationError` when fewer than *replication*
        providers are live.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if len(block_sizes) != count:
            raise ValueError(f"need {count} block sizes, got {len(block_sizes)}")
        with self._lock:
            ring = self._rings.get(replication)
            if ring is None:
                live = self.live_providers()
                if len(live) < replication:
                    raise ReplicationError(
                        f"replication {replication} impossible with {len(live)} live providers"
                    )
                # Each primary's replica set: it and the next live
                # providers in name order, wrapping around.
                names = [p.name for p in live] * 2
                ring = self._rings[replication] = live, {
                    name: tuple(names[start : start + replication])
                    for start, name in enumerate(names[: len(live)])
                }
            live, replica_sets = ring
            primaries = self.policy.choose(count, live, self._rng, client)
            # Blocks and bytes are tallied per primary, so a replica
            # set's providers are charged once per primary per call
            # rather than once per block.
            tally: dict[str, list[int]] = {}
            for primary, nbytes in zip(primaries, block_sizes):
                counts = tally.get(primary)
                if counts is None:
                    tally[primary] = [1, nbytes]
                else:
                    counts[0] += 1
                    counts[1] += nbytes
            for primary, (blocks, nbytes) in tally.items():
                for name in replica_sets[primary]:
                    info = self._providers[name]
                    info.blocks += blocks
                    info.bytes += nbytes
            return [replica_sets[primary] for primary in primaries]

    def _release_one(self, name: str, nbytes: int) -> None:
        """Return one block's charge; caller holds ``self._lock``."""
        info = self._provider(name)
        info.blocks = max(0, info.blocks - 1)
        info.bytes = max(0, info.bytes - nbytes)

    def charge(self, provider: str, nbytes: int) -> None:
        """Charge one block of *nbytes* placed outside :meth:`allocate`
        (a scrub repair's copy); :meth:`release` returns it."""
        with self._lock:
            info = self._provider(provider)
            info.blocks += 1
            info.bytes += nbytes

    def release(self, provider: str, nbytes: int) -> None:
        """Return one block's charge of *nbytes* (a GC deletion, or a
        repair copy removed again)."""
        with self._lock:
            self._release_one(provider, nbytes)

    def release_placements(
        self,
        placements: Sequence[tuple[str, ...]],
        block_sizes: Sequence[int],
        skip: frozenset[tuple[int, str]] = frozenset(),
    ) -> None:
        """Undo :meth:`allocate` after a failed write (paper §III-D).

        "If, for some reason, writing of a block fails, then the whole
        write fails" — and a failed write must not keep charging the
        load-balancer: leaked ``blocks``/``bytes`` would permanently
        skew :class:`LeastLoadedPolicy` and the Figure 3(b) layout
        vector toward providers that never actually stored anything.

        *skip* holds ``(seq, provider_name)`` replicas to leave
        charged: a replica stranded on an offline provider really does
        still occupy its bytes, and the GC sweep returns that charge
        exactly once when it reclaims the orphan.
        """
        if len(placements) != len(block_sizes):
            raise ValueError(
                f"need {len(placements)} block sizes, got {len(block_sizes)}"
            )
        with self._lock:
            for seq, (replicas, nbytes) in enumerate(zip(placements, block_sizes)):
                for name in replicas:
                    if (seq, name) not in skip:
                        self._release_one(name, nbytes)

    # -- tenant quota accounting (gateway front door, DESIGN.md §12) --------------

    def register_tenant(
        self, tenant_id: str, quota_bytes: Optional[int] = None
    ) -> TenantAccount:
        """Open (or update the quota of) a tenant's account."""
        with self._lock:
            account = self._tenants.get(tenant_id)
            if account is None:
                account = self._tenants[tenant_id] = TenantAccount(tenant_id)
            account.quota_bytes = quota_bytes
            return account

    def _tenant(self, tenant_id: str) -> TenantAccount:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(f"tenant {tenant_id!r} has no account") from None

    def tenant_reserve(self, tenant_id: str, nbytes: int) -> None:
        """Admit *nbytes* of new stored data against the tenant's quota.

        Raises :class:`~repro.errors.QuotaExceeded` — before any
        placement is allocated — when stored + reserved + request would
        pass the quota.  The reservation must later be settled with
        :meth:`tenant_commit` (the write published) or
        :meth:`tenant_release` (the write failed or was rolled back).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        with self._lock:
            account = self._tenant(tenant_id)
            if account.quota_bytes is not None:
                used = account.bytes_stored + account.bytes_reserved
                if used + nbytes > account.quota_bytes:
                    account.quota_rejections += 1
                    raise QuotaExceeded(
                        tenant_id, nbytes, used, account.quota_bytes
                    )
            account.bytes_reserved += nbytes

    def tenant_commit(self, tenant_id: str, nbytes: int) -> None:
        """Convert a reservation into durably stored bytes."""
        with self._lock:
            account = self._tenant(tenant_id)
            account.bytes_reserved = max(0, account.bytes_reserved - nbytes)
            account.bytes_stored += nbytes

    def tenant_release(self, tenant_id: str, nbytes: int) -> None:
        """Return a reservation after a failed or abandoned write."""
        with self._lock:
            account = self._tenant(tenant_id)
            account.bytes_reserved = max(0, account.bytes_reserved - nbytes)

    def tenant_discard(self, tenant_id: str, nbytes: int) -> None:
        """Return stored bytes after a delete (storage reclaim is GC's)."""
        with self._lock:
            account = self._tenant(tenant_id)
            account.bytes_stored = max(0, account.bytes_stored - nbytes)

    def tenant_begin_op(self, tenant_id: str, max_in_flight: Optional[int] = None) -> bool:
        """Count one operation entering service, unless *max_in_flight*
        are already in service: the cap's check and the count are one
        locked step, so concurrent admissions can never overshoot it.
        Returns whether the operation was counted."""
        with self._lock:
            account = self._tenant(tenant_id)
            if max_in_flight is not None and account.in_flight >= max_in_flight:
                return False
            account.in_flight += 1
            account.ops_total += 1
            return True

    def tenant_end_op(self, tenant_id: str, nbytes: int = 0, served: bool = True) -> None:
        """An operation left service, having moved *nbytes* of data; one
        that was never *served* is taken back out of ``ops_total``."""
        with self._lock:
            account = self._tenant(tenant_id)
            account.in_flight = max(0, account.in_flight - 1)
            if not served:
                account.ops_total -= 1
            if nbytes:
                account._note(nbytes, time.monotonic())

    def tenant_usage(self, tenant_id: str) -> dict:
        """One tenant's accounting snapshot."""
        with self._lock:
            return self._tenant(tenant_id).usage()

    def tenant_usages(self) -> dict[str, dict]:
        """Every tenant's accounting snapshot, keyed by tenant id."""
        with self._lock:
            return {tid: acct.usage() for tid, acct in sorted(self._tenants.items())}

    # -- diagnostics -------------------------------------------------------------------

    def block_counts(self) -> dict[str, int]:
        """Blocks per provider — the Figure 3(b) layout vector source."""
        return {name: self._providers[name].blocks for name in self.provider_names}
