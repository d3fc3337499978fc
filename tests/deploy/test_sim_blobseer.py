"""Tests for the simulated BlobSeer deployment.

These run the real distributed protocol (RPCs, parallel block flows,
version assignment, metadata weaving, publication order) inside the
DES — with real byte payloads where content is checked.
"""

import pytest

from repro.blob.block import BytesPayload
from repro.deploy import Calibration, SimBlobSeer
from repro.simulation import NodeSpec, SimCluster
from repro.util.bytesize import MB

BS = 1024  # small sim block size keeps payloads cheap


def make_deployment(
    n_providers=6,
    n_mdp=3,
    placement="round_robin",
    block_size=BS,
    metadata_replication=1,
):
    cal = Calibration(block_size=block_size)
    cluster = SimCluster(latency=cal.latency)
    spec = NodeSpec(nic_rate=cal.nic_rate, disk=cal.disk)
    vm = cluster.add_node("vm", spec)
    pm = cluster.add_node("pm", spec)
    ns = cluster.add_node("ns", spec)
    mdps = cluster.add_nodes("mdp", n_mdp, spec)
    providers = cluster.add_nodes("dp", n_providers, spec)
    client = cluster.add_node("client", spec)
    blobseer = SimBlobSeer(
        cluster,
        provider_nodes=providers,
        metadata_nodes=mdps,
        version_manager_node=vm,
        provider_manager_node=pm,
        namespace_node=ns,
        calibration=cal,
        placement=placement,
        metadata_replication=metadata_replication,
    )
    return cluster, blobseer, client


class TestSimProtocol:
    def test_create_write_read_roundtrip_real_bytes(self):
        cluster, blobseer, client = make_deployment()
        data = bytes(i % 256 for i in range(3 * BS))

        def scenario():
            yield from blobseer.create(client, "b")
            version = yield from blobseer.write(
                client, "b", BytesPayload(data), offset=0
            )
            assert version == 1
            result = yield from blobseer.read(client, "b")
            return result.tobytes()

        out = cluster.engine.run(cluster.engine.process(scenario()))
        assert out == data

    def test_appends_accumulate(self):
        cluster, blobseer, client = make_deployment()

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.append(client, "b", BytesPayload(b"a" * BS))
            yield from blobseer.append(client, "b", BytesPayload(b"b" * BS))
            result = yield from blobseer.read(client, "b")
            return result.tobytes()

        out = cluster.engine.run(cluster.engine.process(scenario()))
        assert out == b"a" * BS + b"b" * BS

    def test_old_version_readable(self):
        cluster, blobseer, client = make_deployment()

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.write(client, "b", BytesPayload(b"1" * BS), offset=0)
            yield from blobseer.write(client, "b", BytesPayload(b"2" * BS), offset=0)
            old = yield from blobseer.read(client, "b", version=1)
            new = yield from blobseer.read(client, "b", version=2)
            return old.tobytes(), new.tobytes()

        old, new = cluster.engine.run(cluster.engine.process(scenario()))
        assert old == b"1" * BS and new == b"2" * BS

    def test_synthetic_write_costs_simulated_time(self):
        cluster, blobseer, client = make_deployment(block_size=64 * MB)

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.write(client, "b", 64 * MB, offset=0)
            return cluster.engine.now

        t = cluster.engine.run(cluster.engine.process(scenario()))
        # 64 MB over a 117.5 MB/s NIC: at least 0.54 s of simulated time.
        assert t > 0.5

    def test_produce_rate_bounds_write_time(self):
        cluster, blobseer, client = make_deployment(block_size=64 * MB)
        cap = 70 * MB

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.write(client, "b", 64 * MB, offset=0, produce_rate=cap)
            return cluster.engine.now

        t = cluster.engine.run(cluster.engine.process(scenario()))
        assert t == pytest.approx(64 * MB / cap, rel=0.05)

    def test_round_robin_layout(self):
        cluster, blobseer, client = make_deployment(n_providers=6)

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.write(client, "b", BytesPayload(b"z" * 6 * BS), offset=0)

        cluster.engine.run(cluster.engine.process(scenario()))
        counts = blobseer.provider_block_counts()
        assert set(counts.values()) == {1}
        hosts = blobseer.block_hosts("b")
        assert len({h[0] for h in hosts}) == 6

    def test_namespace_roundtrip(self):
        cluster, blobseer, client = make_deployment()

        def scenario():
            yield from blobseer.create(client, "b7")
            yield from blobseer.register_file(client, "/data/f", "b7")

        cluster.engine.run(cluster.engine.process(scenario()))
        assert blobseer.namespace.lookup("/data/f").blob_id == "b7"


class TestConcurrencySemantics:
    def test_concurrent_appends_serialize_versions_not_data(self):
        """N concurrent appenders: all versions distinct, all data lands;
        data transfers overlap (the §III-D claim)."""
        cluster, blobseer, client = make_deployment(n_providers=8)
        clients = [cluster.node(f"dp-00{i}") for i in range(4)]
        versions = []

        def appender(node, tag):
            v = yield from blobseer.append(
                node, "shared", BytesPayload(bytes([tag]) * BS)
            )
            versions.append(v)

        def scenario():
            yield from blobseer.create(client, "shared")
            procs = [
                cluster.engine.process(appender(node, i + 1))
                for i, node in enumerate(clients)
            ]
            yield cluster.engine.all_of(procs)
            result = yield from blobseer.read(client, "shared")
            return result.tobytes()

        data = cluster.engine.run(cluster.engine.process(scenario()))
        assert sorted(versions) == [1, 2, 3, 4]
        blocks = sorted(data[i * BS : (i + 1) * BS][0] for i in range(4))
        assert blocks == [1, 2, 3, 4]

    def test_appends_overlap_in_time(self):
        """4 concurrent 64 MB appends must take far less than 4x one
        append (lock-free data path)."""
        cluster, blobseer, client = make_deployment(n_providers=8, block_size=64 * MB)
        engine = cluster.engine
        clients = [cluster.node(f"dp-00{i}") for i in range(4)]

        def one(node):
            yield from blobseer.append(node, "shared", 64 * MB)

        def scenario():
            yield from blobseer.create(client, "shared")
            t0 = engine.now
            procs = [engine.process(one(node)) for node in clients]
            yield engine.all_of(procs)
            return engine.now - t0

        elapsed = engine.run(engine.process(scenario()))
        single = 64 * MB / (117.5 * MB)
        assert elapsed < 2.0 * single  # near-parallel, not 4x

    def test_publication_respects_version_order(self):
        """Version 2 is published only once versions 1 and 2 are both
        committed (linearizability, §III-A.4)."""
        cluster, blobseer, client = make_deployment()
        engine = cluster.engine
        log = []

        def slow_then_fast():
            yield from blobseer.create(client, "b")
            # Two appends race.  The big one takes version 1, then its
            # client straggles (a throttled NIC), so the small one
            # (version 2) runs its whole protocol while version 1 still
            # publishes metadata.
            big = engine.process(
                blobseer.append(client, "b", 8 * BS), name="big"
            )
            while blobseer.vm_core.blob("b").last_assigned < 1:
                yield engine.timeout(1e-5)
            cluster.network.set_node_rates(client.name, egress=1e3)
            small = engine.process(
                blobseer.append(cluster.node("dp-000"), "b", BS), name="small"
            )
            version = yield small
            log.append((version, big.processed, blobseer.vm_core.published_version("b")))
            yield engine.all_of([big, small])
            log.append(blobseer.vm_core.published_version("b"))

        engine.run(engine.process(slow_then_fast()))
        # Version 2 committed first and stayed unpublished behind 1.
        assert log == [(2, False, 0), 2]

    def test_create_publishes_version_zero(self):
        cluster, blobseer, client = make_deployment()

        def scenario():
            yield from blobseer.create(client, "b")
            return blobseer.vm_core.published_version("b")

        assert cluster.engine.run(cluster.engine.process(scenario())) == 0

    def test_straggler_releases_every_later_version_at_once(self):
        """Versions 2-4 commit while version 1 straggles: none of them is
        published until version 1 commits, then all four are at once."""
        cluster, blobseer, client = make_deployment(n_providers=8)
        engine = cluster.engine
        finished = []

        def fast(node):
            version = yield from blobseer.append(node, "b", BS)
            finished.append((version, blobseer.vm_core.published_version("b")))

        def scenario():
            yield from blobseer.create(client, "b")
            straggler = engine.process(blobseer.append(client, "b", 8 * BS))
            while blobseer.vm_core.blob("b").last_assigned < 1:
                yield engine.timeout(1e-5)
            cluster.network.set_node_rates(client.name, egress=1e3)
            yield engine.all_of(
                [engine.process(fast(cluster.node(f"dp-00{i}"))) for i in range(3)]
            )
            before = blobseer.vm_core.published_version("b")
            yield straggler
            return before, blobseer.vm_core.published_version("b")

        assert engine.run(engine.process(scenario())) == (0, 4)
        assert sorted(finished) == [(2, 0), (3, 0), (4, 0)]


class TestFailureInjection:
    def test_read_fails_over_to_replica(self):
        cluster, blobseer, client = make_deployment(n_providers=4)

        def scenario():
            yield from blobseer.create(client, "b", replication=2)
            yield from blobseer.write(
                client, "b", BytesPayload(b"r" * BS), offset=0, replication=2
            )
            hosts = blobseer.block_hosts("b")[0]
            cluster.node(hosts[0]).online = False
            result = yield from blobseer.read(client, "b")
            return result.tobytes()

        assert cluster.engine.run(cluster.engine.process(scenario())) == b"r" * BS

    def test_unreplicated_read_fails(self):
        from repro.errors import ProviderUnavailable

        cluster, blobseer, client = make_deployment(n_providers=4)

        def scenario():
            yield from blobseer.create(client, "b")
            yield from blobseer.write(client, "b", BytesPayload(b"r" * BS), offset=0)
            hosts = blobseer.block_hosts("b")[0]
            cluster.node(hosts[0]).online = False
            with pytest.raises(ProviderUnavailable):
                yield from blobseer.read(client, "b")
            return True

        assert cluster.engine.run(cluster.engine.process(scenario()))


class TestVmanRpcs:
    """``vman_rpcs`` counts the version-manager RPCs client protocols
    issue — the write-path twin of ``meta_rpcs``."""

    def _deployment(self):
        cal = Calibration(block_size=BS)
        cluster = SimCluster(latency=cal.latency)
        spec = NodeSpec(nic_rate=cal.nic_rate, disk=cal.disk)
        vm = cluster.add_node("vm", spec)
        pm = cluster.add_node("pm", spec)
        ns = cluster.add_node("ns", spec)
        mdps = cluster.add_nodes("mdp", 3, spec)
        providers = cluster.add_nodes("dp", 6, spec)
        clients = cluster.add_nodes("client", 8, spec)
        blobseer = SimBlobSeer(
            cluster,
            provider_nodes=providers,
            metadata_nodes=mdps,
            version_manager_node=vm,
            provider_manager_node=pm,
            namespace_node=ns,
            calibration=cal,
        )
        return cluster, blobseer, clients

    def test_per_writer_commits_cost_one_rpc_each(self):
        cluster, blobseer, clients = self._deployment()

        def scenario():
            yield from blobseer.create(clients[0], "b")
            before = blobseer.vman_rpcs
            procs = [
                blobseer.engine.process(
                    blobseer.append(c, "b", BytesPayload(bytes([65 + i]) * BS))
                )
                for i, c in enumerate(clients)
            ]
            yield blobseer.engine.all_of(procs)
            return blobseer.vman_rpcs - before

        rpcs = cluster.engine.run(cluster.engine.process(scenario()))
        assert blobseer.vm_core.published_version("b") == 8
        assert rpcs == 2 * 8  # one assign + one commit RPC per writer
