"""Tenant policies and per-tenant admission state (DESIGN.md §12).

A :class:`TenantPolicy` is the declarative half — what a tenant is
allowed to do: how many bytes it may keep stored, how fast it may push
ops and bytes per op class, how many operations it may have in flight,
and how long it is willing to queue before being refused.

:class:`TenantState` is the runtime half the gateway keeps per
registered tenant: the access token, one :class:`~repro.util.throttle.
TokenBucket` per rated op class plus a shared data-plane bytes bucket,
and the fairness counters (ops served, bytes moved, seconds spent
throttled, admissions refused) the load reports are built from.
Everything byte-quota related lives in
:class:`~repro.blob.provider_manager.TenantAccount` instead — the
provider manager is the placement authority, so it is the one that
refuses over-quota writes before they consume placements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.obs import Counters
from repro.util.throttle import TokenBucket

__all__ = ["TenantPolicy", "TenantState", "OP_CLASSES"]

#: The gateway's admission op classes.  Namespace lookups (stat, list,
#: exists, delete) ride the ``read`` bucket: they are cheap
#: control-plane reads and a separate bucket would over-fit.
OP_CLASSES = ("read", "append")

_TENANT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


def validate_tenant_id(tenant_id: str) -> str:
    """Reject ids that could escape the per-tenant namespace prefix."""
    if not isinstance(tenant_id, str) or not _TENANT_ID.fullmatch(tenant_id):
        raise ValueError(
            f"tenant id must match {_TENANT_ID.pattern!r}, got {tenant_id!r}"
        )
    return tenant_id


@dataclass(frozen=True)
class TenantPolicy:
    """Quotas and limits for one tenant.  ``None`` always means unlimited.

    Args:
        quota_bytes: hard cap on logical bytes stored (appended minus
            deleted).  Enforced by the provider manager *before* any
            placement is allocated; exceeding it raises
            :class:`~repro.errors.QuotaExceeded`.
        append_ops_per_sec: token-bucket rate for opening append-class
            operations (create/append streams, one token each).
        read_ops_per_sec: token-bucket rate for read-class operations
            (open/read/stat/list/exists/delete, one token each).
        bytes_per_sec: shared data-plane bandwidth bucket: every byte
            written or read through the gateway costs one token.
        max_in_flight: cap on a tenant's concurrently admitted
            operations; the op past the cap is refused immediately
            with :class:`~repro.errors.AdmissionRejected`, not queued.
        burst_seconds: bucket capacity, expressed as seconds of rate —
            an idle tenant banks up to ``rate * burst_seconds`` tokens.

    A tenant past a bucket's rate always waits its turn; only the
    in-flight cap refuses.
    """

    quota_bytes: Optional[int] = None
    append_ops_per_sec: Optional[float] = None
    read_ops_per_sec: Optional[float] = None
    bytes_per_sec: Optional[float] = None
    max_in_flight: Optional[int] = None
    burst_seconds: float = 1.0

    def validate(self) -> "TenantPolicy":
        """Raise ``ValueError`` on nonsensical limits."""
        if self.quota_bytes is not None and self.quota_bytes < 0:
            raise ValueError(f"quota_bytes must be >= 0, got {self.quota_bytes}")
        for name in ("append_ops_per_sec", "read_ops_per_sec", "bytes_per_sec"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0 (or None), got {value}")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1 (or None), got {self.max_in_flight}"
            )
        if self.burst_seconds <= 0:
            raise ValueError(f"burst_seconds must be > 0, got {self.burst_seconds}")
        return self


class TenantCounters(Counters):
    """Admitted ops per class, payload bytes, and refused admissions."""

    SUMS = (*OP_CLASSES, "bytes_in", "bytes_out", "admission_rejections")


class TenantState:
    """Runtime admission state the gateway keeps for one tenant."""

    def __init__(self, tenant_id: str, token: str, policy: TenantPolicy):
        self.tenant_id = tenant_id
        self.token = token
        self.policy = policy
        self.counters = TenantCounters()
        self._op_buckets: dict[str, Optional[TokenBucket]] = {
            "append": self._bucket(policy.append_ops_per_sec),
            "read": self._bucket(policy.read_ops_per_sec),
        }
        self.bytes_bucket = self._bucket(policy.bytes_per_sec)

    def _bucket(self, rate: Optional[float]) -> Optional[TokenBucket]:
        if rate is None:
            return None
        return TokenBucket(rate, burst=rate * self.policy.burst_seconds)

    def op_bucket(self, op: str) -> Optional[TokenBucket]:
        """The tenant's bucket for *op* (``None`` = unrated)."""
        return self._op_buckets[op]

    def throttle_wait(self) -> float:
        """Total seconds this tenant's callers spent parked in buckets."""
        buckets = [b for b in self._op_buckets.values() if b is not None]
        if self.bytes_bucket is not None:
            buckets.append(self.bytes_bucket)
        return sum(b.waited for b in buckets)

    def stats(self) -> dict:
        """Gateway-side fairness counters (merged with the provider
        manager's quota accounting by ``Gateway.tenant_stats``)."""
        counts = self.counters.snapshot()
        return {
            "ops": {op: counts.pop(op) for op in OP_CLASSES},
            **counts,
            "throttle_wait_s": round(self.throttle_wait(), 6),
        }
