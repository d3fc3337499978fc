"""The multi-tenant front door over a blob store (DESIGN.md §12).

BlobSeer's deployment story (paper §III) is a *service*: many client
applications share one storage fabric.  :class:`Gateway` is that front
door.  It owns (or wraps) one :class:`~repro.bsfs.filesystem.
BSFSFileSystem` and multiplexes authenticated tenants onto it:

* **authentication** — ``register_tenant`` mints an access token;
  ``connect`` verifies it and hands back a
  :class:`~repro.gateway.client.GatewayClient` session;
* **namespace isolation** — every tenant path is mapped under
  ``/tenants/<tenant_id>``; ``normalize_path`` refuses ``..``, so no
  tenant-supplied path can escape its prefix;
* **admission control** — per-tenant, per-op-class token buckets plus
  an in-flight cap, applied *before* any store work happens.  A tenant
  past its rate waits its turn; past its in-flight cap it is refused
  immediately;
* **quota accounting** — stored-bytes quotas live with the placement
  authority (:class:`~repro.blob.provider_manager.ProviderManagerCore`),
  so over-quota writes raise :class:`~repro.errors.QuotaExceeded`
  before they consume placements.

The gateway is deliberately thin: all data-plane heavy lifting stays in
the store, and every admission decision is O(1) bucket arithmetic.
"""

from __future__ import annotations

import hmac
import secrets
import threading
from typing import Optional

from repro.blob.config import StoreConfig
from repro.blob.store import LocalBlobStore
from repro.bsfs.filesystem import BSFSFileSystem
from repro.errors import AdmissionRejected, TenantAuthError, UnknownTenant
from repro.fsapi import normalize_path
from repro.gateway.client import GatewayClient
from repro.gateway.tenants import TenantPolicy, TenantState, validate_tenant_id

__all__ = ["Gateway"]


class Gateway:
    """Authenticated, rate-limited, quota-enforced access to one store.

    Args:
        fs: an existing :class:`BSFSFileSystem` to front (the gateway
            does not close it).  Mutually exclusive with *config*.
        config: a :class:`~repro.blob.config.StoreConfig` to build a
            private store/file system from (closed by :meth:`close`).
        default_policy: policy applied when ``register_tenant`` is
            called without one (default: unlimited everything).
        tenant_root: namespace directory sharding the tenants.
    """

    def __init__(
        self,
        fs: Optional[BSFSFileSystem] = None,
        config: Optional[StoreConfig] = None,
        *,
        default_policy: Optional[TenantPolicy] = None,
        tenant_root: str = "/tenants",
    ):
        if fs is not None and config is not None:
            raise TypeError("pass either an existing fs or a config, not both")
        self._owns_store = fs is None
        if fs is None:
            fs = BSFSFileSystem(store=LocalBlobStore(config=config))
        self.fs = fs
        self.store = fs.store
        self.default_policy = (default_policy or TenantPolicy()).validate()
        self.tenant_root = normalize_path(tenant_root)
        if self.tenant_root == "/":
            raise ValueError("tenant_root must not be the namespace root")
        self._tenants: dict[str, TenantState] = {}
        self._lock = threading.Lock()
        self.fs.make_dirs(self.tenant_root)

    # -- tenant lifecycle ------------------------------------------------------

    def register_tenant(
        self, tenant_id: str, policy: Optional[TenantPolicy] = None
    ) -> str:
        """Create a tenant; returns its access token.

        Registers the quota account with the provider manager, carves
        out the tenant's namespace directory, and builds its admission
        buckets from *policy* (default: the gateway's default policy).
        """
        validate_tenant_id(tenant_id)
        policy = self.default_policy if policy is None else policy.validate()
        token = secrets.token_hex(16)
        with self._lock:
            if tenant_id in self._tenants:
                raise ValueError(f"tenant {tenant_id!r} is already registered")
            self._tenants[tenant_id] = TenantState(tenant_id, token, policy)
        self.store.provider_manager.register_tenant(
            tenant_id, quota_bytes=policy.quota_bytes
        )
        self.fs.make_dirs(self.root_of(tenant_id))
        return token

    def connect(self, tenant_id: str, token: str) -> GatewayClient:
        """Authenticate and open a tenant session."""
        state = self._state(tenant_id)
        if not hmac.compare_digest(state.token, str(token)):
            raise TenantAuthError(f"bad token for tenant {tenant_id!r}")
        return GatewayClient(self, state)

    def tenants(self) -> list[str]:
        """Registered tenant ids, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def _state(self, tenant_id: str) -> TenantState:
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise UnknownTenant(tenant_id) from None

    # -- namespace mapping -----------------------------------------------------

    def root_of(self, tenant_id: str) -> str:
        """The tenant's private namespace root."""
        return f"{self.tenant_root}/{tenant_id}"

    def tenant_path(self, tenant_id: str, path: str) -> str:
        """Map a tenant-visible path into the shared namespace.

        ``normalize_path`` rejects ``.`` / ``..`` components, so the
        result is always underneath the tenant's root — there is no
        input that reaches another tenant's prefix.
        """
        visible = normalize_path(path)
        root = self.root_of(tenant_id)
        return root if visible == "/" else root + visible

    def visible_path(self, tenant_id: str, store_path: str) -> str:
        """Map a shared-namespace path back to the tenant's view."""
        root = self.root_of(tenant_id)
        if store_path == root:
            return "/"
        if not store_path.startswith(root + "/"):
            raise ValueError(
                f"path {store_path!r} is outside tenant {tenant_id!r}'s namespace"
            )
        return store_path[len(root):]

    # -- admission -------------------------------------------------------------

    def admit(self, state: TenantState, op: str) -> None:
        """Admit one *op*-class operation for *state*'s tenant.

        In-flight cap first, checked and counted in one locked step so
        concurrent admissions never overshoot it (refusal is immediate —
        a saturated tenant should shed load, not build queues, so no
        token is spent), then the op-class token bucket (waits its
        turn; a wait that fails ends the operation uncounted).  The
        operation is counted in service until :meth:`finish` is called.
        """
        manager, policy = self.store.provider_manager, state.policy
        if not manager.tenant_begin_op(state.tenant_id, policy.max_in_flight):
            state.counters.record(admission_rejections=1)
            raise AdmissionRejected(
                state.tenant_id, op, f"in-flight cap of {policy.max_in_flight} reached"
            )
        bucket = state.op_bucket(op)
        if bucket is not None:
            try:
                bucket.acquire()
            except BaseException:
                manager.tenant_end_op(state.tenant_id, served=False)
                raise
        state.counters.record(**{op: 1})

    def charge_bytes(self, state: TenantState, nbytes: int) -> None:
        """Charge *nbytes* against the tenant's data-plane bandwidth bucket."""
        bucket = state.bytes_bucket
        if bucket is not None:
            bucket.acquire(nbytes)

    def finish(self, state: TenantState, nbytes: int = 0) -> None:
        """Mark an admitted operation as done (*nbytes* moved end-to-end)."""
        self.store.provider_manager.tenant_end_op(state.tenant_id, nbytes)

    # -- reporting -------------------------------------------------------------

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant fairness report: gateway counters merged with the
        provider manager's quota accounting."""
        with self._lock:
            states = dict(self._tenants)
        usages = self.store.provider_manager.tenant_usages()
        out: dict[str, dict] = {}
        for tenant_id in sorted(states):
            merged = states[tenant_id].stats()
            merged.update(usages.get(tenant_id, {}))
            out[tenant_id] = merged
        return out

    def close(self) -> None:
        """Release the store if this gateway built it (idempotent)."""
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
