"""Multi-tenant gateway: authentication, isolation, quotas, admission.

The contract under test (DESIGN.md §12): tenants sharing one store can
never see each other's namespaces, an over-quota write is refused with
a typed error *before* it consumes placements, and one tenant's
throttle backlog never blocks another tenant's traffic.
"""

import threading

import pytest

from repro.blob import StoreConfig
from repro.errors import (
    AdmissionRejected,
    FileNotFound,
    GatewayError,
    QuotaExceeded,
    TenantAuthError,
    UnknownTenant,
)
from repro.gateway import Gateway, GatewayClient, TenantPolicy

BS = 1024


@pytest.fixture
def gateway():
    gw = Gateway(config=StoreConfig(data_providers=4, block_size=BS))
    yield gw
    gw.close()


def connect(gateway, tenant_id, policy=None):
    token = gateway.register_tenant(tenant_id, policy)
    return gateway.connect(tenant_id, token)


class TestAuthentication:
    def test_register_returns_a_usable_token(self, gateway):
        token = gateway.register_tenant("alice")
        client = gateway.connect("alice", token)
        assert isinstance(client, GatewayClient)
        assert client.tenant_id == "alice"

    def test_wrong_token_is_refused(self, gateway):
        gateway.register_tenant("alice")
        with pytest.raises(TenantAuthError):
            gateway.connect("alice", "not-the-token")

    def test_another_tenants_token_does_not_transfer(self, gateway):
        gateway.register_tenant("alice")
        token_bob = gateway.register_tenant("bob")
        with pytest.raises(TenantAuthError):
            gateway.connect("alice", token_bob)

    def test_unknown_tenant(self, gateway):
        with pytest.raises(UnknownTenant):
            gateway.connect("nobody", "token")

    def test_duplicate_registration_is_refused(self, gateway):
        gateway.register_tenant("alice")
        with pytest.raises(ValueError, match="already registered"):
            gateway.register_tenant("alice")

    @pytest.mark.parametrize("bad", ["", "a/b", "../up", ".hidden", "-x", "a b"])
    def test_malformed_tenant_ids_are_refused(self, gateway, bad):
        with pytest.raises(ValueError, match="tenant id"):
            gateway.register_tenant(bad)

    def test_gateway_errors_share_a_base_class(self):
        for exc in (UnknownTenant, TenantAuthError, QuotaExceeded, AdmissionRejected):
            assert issubclass(exc, GatewayError)


class TestNamespaceIsolation:
    def test_same_path_is_a_different_file_per_tenant(self, gateway):
        alice = connect(gateway, "alice")
        bob = connect(gateway, "bob")
        alice.write_file("/data/log", b"alice bytes")
        bob.write_file("/data/log", b"bob bytes")
        assert alice.read_file("/data/log") == b"alice bytes"
        assert bob.read_file("/data/log") == b"bob bytes"

    def test_a_tenant_cannot_see_anothers_files(self, gateway):
        alice = connect(gateway, "alice")
        bob = connect(gateway, "bob")
        alice.write_file("/secret", b"s")
        assert not bob.exists("/secret")
        with pytest.raises(FileNotFound):
            bob.stat("/secret")
        assert bob.list("/") == []

    def test_listings_and_stat_report_tenant_relative_paths(self, gateway):
        alice = connect(gateway, "alice")
        alice.write_file("/a/b", b"x")
        assert alice.list("/") == ["/a"]
        assert alice.list("/a") == ["/a/b"]
        status = alice.stat("/a/b")
        assert status.path == "/a/b"
        assert status.size == 1
        assert alice.stat("/").is_dir

    def test_relative_components_cannot_escape_the_prefix(self, gateway):
        alice = connect(gateway, "alice")
        connect(gateway, "bob").write_file("/x", b"bob")
        for sneaky in ("/../bob/x", "/a/../../bob/x", "/./x"):
            with pytest.raises(ValueError):
                alice.read_file(sneaky)

    def test_tenants_share_one_store_namespace_under_the_hood(self, gateway):
        alice = connect(gateway, "alice")
        bob = connect(gateway, "bob")
        alice.write_file("/f", b"a")
        bob.write_file("/f", b"b")
        assert gateway.fs.list_dir("/tenants") == ["/tenants/alice", "/tenants/bob"]

    def test_delete_is_confined_and_credits_the_owner_only(self, gateway):
        alice = connect(gateway, "alice")
        bob = connect(gateway, "bob")
        alice.write_file("/d/f", b"xxxx")
        bob.write_file("/d/f", b"yyyy")
        alice.delete("/d", recursive=True)
        assert not alice.exists("/d/f")
        assert bob.read_file("/d/f") == b"yyyy"

    def test_the_tenant_root_itself_is_not_deletable(self, gateway):
        alice = connect(gateway, "alice")
        with pytest.raises(ValueError, match="tenant root"):
            alice.delete("/", recursive=True)


class TestQuota:
    def test_over_quota_write_raises_typed_error(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=10 * BS))
        alice.write_file("/a", b"x" * (8 * BS))
        with pytest.raises(QuotaExceeded) as info:
            alice.write_file("/b", b"x" * (4 * BS))
        assert info.value.tenant_id == "alice"
        assert info.value.requested == 4 * BS
        assert info.value.used == 8 * BS
        assert info.value.quota == 10 * BS

    def test_over_quota_write_consumes_no_placements(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=BS))
        manager = gateway.store.provider_manager
        before = manager.block_counts()
        with pytest.raises(QuotaExceeded):
            alice.write_file("/big", b"x" * (64 * BS))
        assert manager.block_counts() == before
        usage = manager.tenant_usage("alice")
        assert usage["bytes_stored"] == 0
        assert usage["bytes_reserved"] == 0
        assert usage["quota_rejections"] == 1

    def test_quota_counts_across_files_and_appends(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=4 * BS))
        alice.write_file("/a", b"x" * (2 * BS))
        with alice.append("/a") as stream:
            stream.write(b"x" * (2 * BS))
        with pytest.raises(QuotaExceeded):
            alice.write_file("/b", b"x")

    def test_delete_returns_headroom(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=2 * BS))
        alice.write_file("/a", b"x" * (2 * BS))
        with pytest.raises(QuotaExceeded):
            alice.write_file("/b", b"y")
        alice.delete("/a")
        # "/b" itself survived the refused write as an empty file — the
        # namespace entry was created before the quota check fired.
        assert alice.stat("/b").size == 0
        alice.write_file("/c", b"y" * BS)
        assert alice.read_file("/c") == b"y" * BS

    def test_quota_is_per_tenant_not_global(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=BS))
        bob = connect(gateway, "bob", TenantPolicy(quota_bytes=10 * BS))
        with pytest.raises(QuotaExceeded):
            alice.write_file("/f", b"x" * (2 * BS))
        bob.write_file("/f", b"x" * (2 * BS))  # unaffected

    def test_failed_quota_write_leaves_earlier_bytes_intact(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=3 * BS))
        with pytest.raises(QuotaExceeded):
            with alice.create("/f") as stream:
                stream.write(b"a" * (2 * BS))  # fits
                stream.write(b"b" * (2 * BS))  # refused
        assert alice.stat("/f").size == 2 * BS
        usage = gateway.store.provider_manager.tenant_usage("alice")
        assert usage["bytes_stored"] == 2 * BS
        assert usage["bytes_reserved"] == 0


class TestAdmissionControl:
    def test_in_flight_cap_rejects_immediately(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(max_in_flight=1))
        stream = alice.create("/f")
        with pytest.raises(AdmissionRejected) as info:
            alice.create("/g")
        assert "in-flight" in info.value.reason
        stream.close()
        alice.create("/g").close()  # capacity came back with the close

    def test_in_flight_cap_counts_an_admission_parked_in_its_bucket(self, gateway, vclock):
        # The cap is checked and the op counted in one step, before the
        # bucket wait: a second admission arriving while the first
        # waits out its op-rate deficit finds the cap reached.
        policy = TenantPolicy(max_in_flight=1, append_ops_per_sec=1, burst_seconds=1)
        alice = connect(gateway, "alice", policy)
        alice.write_file("/a", b"x")  # consumes the single burst token
        vclock.gate.clear()
        streams = []
        first = threading.Thread(target=lambda: streams.append(alice.create("/b")))
        first.start()
        try:
            assert vclock.sleeping.wait(60.0)  # parked in its bucket
            with pytest.raises(AdmissionRejected):
                alice.open("/a")  # a read: unrated, it would not wait
            usage = gateway.store.provider_manager.tenant_usage("alice")
            assert usage["in_flight"] == 1
        finally:
            vclock.gate.set()
            first.join(60.0)
        streams[0].close()
        assert alice.stats()["admission_rejections"] == 1
        assert gateway.store.provider_manager.tenant_usage("alice")["in_flight"] == 0

    def test_an_interrupted_bucket_wait_ends_its_admission(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(max_in_flight=1, append_ops_per_sec=1))

        class Interrupted:
            def acquire(self, n=1.0):
                raise KeyboardInterrupt

        gateway._tenants["alice"]._op_buckets["append"] = Interrupted()
        with pytest.raises(KeyboardInterrupt):
            alice.create("/f")
        usage = gateway.store.provider_manager.tenant_usage("alice")
        assert (usage["in_flight"], usage["ops_total"]) == (0, 0)  # never served
        assert alice.list() == []  # a read-class op: the cap has room again

    def test_op_rate_overflow_waits_exactly_its_deficit(self, gateway, vclock):
        policy = TenantPolicy(append_ops_per_sec=1, burst_seconds=1)
        alice = connect(gateway, "alice", policy)
        alice.write_file("/a", b"x")  # consumes the single burst token
        assert vclock.slept == []
        alice.create("/b").close()  # one token short at 1/s: waits 1 s
        assert vclock.slept == [pytest.approx(1.0)]
        assert vclock.now() == pytest.approx(1.0)
        assert alice.stats()["admission_rejections"] == 0

    def test_bandwidth_bucket_paces_writes(self, gateway, vclock):
        # 64 KB/s with a 1/16-second burst: a 8 KB write must wait
        # exactly its (8 - 4) KB deficit at 64 KB/s, and is not refused.
        policy = TenantPolicy(bytes_per_sec=64 * BS, burst_seconds=1 / 16)
        alice = connect(gateway, "alice", policy)
        alice.write_file("/f", b"x" * (8 * BS))
        assert vclock.slept == [pytest.approx(4 / 64)]
        assert vclock.now() == pytest.approx(4 / 64)
        assert alice.stats()["throttle_wait_s"] == pytest.approx(4 / 64)
        assert alice.stats()["admission_rejections"] == 0

    def test_sequential_reads_charge_what_they_return(self, gateway):
        # The stream's cursor bounds each charge: a short read at the
        # end is charged its bytes, a read at EOF nothing.
        alice = connect(gateway, "alice")
        alice.write_file("/f", b"x" * 20)
        charges = []
        real_charge = gateway.charge_bytes

        def charge(state, nbytes):
            charges.append(nbytes)
            real_charge(state, nbytes)

        gateway.charge_bytes = charge
        with alice.open("/f") as stream:
            assert stream.read(7) == b"x" * 7
            assert stream.read(100) == b"x" * 13
            assert stream.read(5) == b""
            assert stream.tell == 20
        assert charges == [7, 13, 0]

    def test_read_ops_are_a_separate_bucket_from_appends(self, gateway):
        policy = TenantPolicy(append_ops_per_sec=1, burst_seconds=1)
        alice = connect(gateway, "alice", policy)
        alice.write_file("/f", b"x")
        for _ in range(5):  # reads are unrated by this policy
            assert alice.read_file("/f") == b"x"

    def test_one_tenants_backlog_does_not_block_anothers_reads(self, gateway, vclock):
        slow = connect(
            gateway,
            "slowpoke",
            TenantPolicy(append_ops_per_sec=2, burst_seconds=0.5),
        )
        fast = connect(gateway, "speedy")
        fast.write_file("/data", b"z" * BS)

        done = threading.Event()

        def slow_appends():
            for i in range(4):  # 1 burst token + 3 waits of 0.5s each
                slow.write_file(f"/f{i}", b"s")
            done.set()

        # Slowpoke's first wait parks it in its bucket until the gate
        # opens; the other tenant's reads must all finish meanwhile.
        vclock.gate.clear()
        worker = threading.Thread(target=slow_appends)
        # Opens the gate should the reads hang: a guard, nothing is timed.
        guard = threading.Timer(60.0, vclock.gate.set)
        worker.start()
        guard.start()
        try:
            assert vclock.sleeping.wait(60.0)
            for _ in range(20):
                assert fast.read_file("/data") == b"z" * BS
            assert not vclock.gate.is_set()  # the reads did not wait for the guard
            assert not done.is_set()  # slowpoke is still paying its backlog
            assert fast.stats()["throttle_wait_s"] == 0
        finally:
            vclock.gate.set()
            guard.cancel()
            worker.join()
        assert done.is_set()
        assert vclock.slept == [0.5, 0.5, 0.5]
        assert slow.stats()["throttle_wait_s"] == pytest.approx(1.5)


class TestSessionsAndStats:
    def test_version_pinning_survives_the_gateway(self, gateway):
        alice = connect(gateway, "alice")
        alice.write_file("/f", b"v1")
        with alice.append("/f") as stream:
            stream.write(b"+v2")
        assert alice.read("/f", version=1) == b"v1"
        assert alice.read_file("/f") == b"v1+v2"

    def test_stats_merge_gateway_and_quota_counters(self, gateway):
        alice = connect(gateway, "alice", TenantPolicy(quota_bytes=BS))
        alice.write_file("/f", b"x" * 10)
        alice.read_file("/f")
        stats = gateway.tenant_stats()["alice"]
        assert stats["ops"]["append"] == 1
        assert stats["ops"]["read"] == 1
        assert stats["bytes_in"] == 10
        assert stats["bytes_out"] == 10
        assert stats["bytes_stored"] == 10
        assert stats["quota_bytes"] == BS
        assert stats["in_flight"] == 0

    def test_wrapping_an_existing_fs_does_not_close_it(self):
        from repro.bsfs.filesystem import BSFSFileSystem

        fs = BSFSFileSystem(config=StoreConfig(data_providers=2, block_size=BS))
        gw = Gateway(fs=fs)
        connect(gw, "alice").write_file("/f", b"x")
        gw.close()
        assert fs.store.read(fs.blob_of("/tenants/alice/f")) == b"x"
        fs.store.close()

    def test_fs_and_config_are_mutually_exclusive(self):
        from repro.bsfs.filesystem import BSFSFileSystem

        fs = BSFSFileSystem(config=StoreConfig(data_providers=2))
        with pytest.raises(TypeError):
            Gateway(fs=fs, config=StoreConfig())
        fs.store.close()
