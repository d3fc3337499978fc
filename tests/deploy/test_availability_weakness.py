"""The availability weakness the paper acknowledges (§VI-B).

"The centralized managers represent single points of failure" — and at
the protocol level, a writer that dies *between* version assignment and
commit wedges the publication watermark: later versions commit but can
never be revealed, because reveal order must follow assignment order
(§III-A.4).  These tests pin that negative space down explicitly.
"""

import pytest

from repro.blob.block import BytesPayload
from repro.deploy import Calibration, SimBlobSeer
from repro.errors import ProviderUnavailable
from repro.simulation import NodeSpec, SimCluster

from tests.blob.vman_calls import assign

BS = 1024


def make_deployment(n_providers=4):
    cal = Calibration(block_size=BS)
    cluster = SimCluster(latency=cal.latency)
    spec = NodeSpec(nic_rate=cal.nic_rate, disk=cal.disk)
    vm = cluster.add_node("vm", spec)
    pm = cluster.add_node("pm", spec)
    ns = cluster.add_node("ns", spec)
    mdps = cluster.add_nodes("mdp", 2, spec)
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
    )
    return cluster, blobseer, client


class TestWedgedWatermark:
    def test_dead_writer_blocks_later_publications(self):
        cluster, blobseer, client = make_deployment()
        engine = cluster.engine

        def scenario():
            yield from blobseer.create(client, "b")
            # Writer A takes version 1 and dies before committing.
            assign(blobseer.vm_core, "b", BS)
            # Writer B runs the full protocol and gets version 2.
            v2 = yield from blobseer.append(client, "b", BytesPayload(b"x" * BS))
            assert v2 == 2
            # Version 2 is committed but NOT published: the watermark
            # cannot pass the dead writer's version 1.
            assert blobseer.vm_core.blob("b").committed >= {2}
            assert blobseer.vm_core.published_version("b") == 0
            latest = blobseer.vm_core.latest("b")
            assert latest.version == 0 and latest.size == 0
            return True

        assert engine.run(engine.process(scenario()))

    def test_watermark_stays_wedged_for_a_minute(self):
        cluster, blobseer, client = make_deployment()
        engine = cluster.engine

        def scenario():
            yield from blobseer.create(client, "b")
            assign(blobseer.vm_core, "b", BS)  # dead writer: v1
            yield from blobseer.append(client, "b", BytesPayload(b"x" * BS))
            yield engine.timeout(60.0)  # plenty of simulated time
            return True

        assert engine.run(engine.process(scenario()))
        assert engine.now >= 60.0
        assert blobseer.vm_core.published_version("b") == 0  # still wedged

    def test_failed_block_write_fails_whole_write_cleanly(self):
        """'If, for some reason, writing of a block fails, then the
        whole write fails' (§III-D) — and since the failure precedes
        version assignment, nothing wedges."""
        cluster, blobseer, client = make_deployment(n_providers=2)
        engine = cluster.engine

        def scenario():
            yield from blobseer.create(client, "b")
            # Kill the provider round-robin will pick first.
            cluster.node("dp-000").online = False
            with pytest.raises(ProviderUnavailable):
                yield from blobseer.append(client, "b", BytesPayload(b"x" * BS))
            # No version was assigned; the blob is pristine and a
            # subsequent write (on the live provider) publishes fine.
            assert blobseer.vm_core.blob("b").last_assigned == 0
            version = yield from blobseer.append(
                client, "b", BytesPayload(b"y" * BS)
            )
            assert version == 1
            assert blobseer.vm_core.published_version("b") == 1
            return True

        assert engine.run(engine.process(scenario()))
