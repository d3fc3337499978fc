"""Tests for the RPC service model (incl. serialization-point behaviour)."""

import pytest

from repro.deploy.deployment import deploy_microbench
from repro.errors import ProviderUnavailable
from repro.simulation import Engine, NodeSpec, Reply, RpcServer, SimCluster, call


@pytest.fixture
def setup():
    engine = Engine()
    cluster = SimCluster(engine, latency=0.001)
    server_node = cluster.add_node("server", NodeSpec(nic_rate=1e6))
    client_node = cluster.add_node("client", NodeSpec(nic_rate=1e6))
    return engine, cluster, server_node, client_node


class TestBasicRpc:
    def test_plain_handler(self, setup):
        engine, _, server_node, client_node = setup
        server = RpcServer(server_node, "echo", handler=lambda x: x * 2, service_time=0.0)

        def client():
            result = yield from call(client_node, server, 21)
            return result

        assert engine.run(engine.process(client())) == 42
        assert server.requests_served == 1

    def test_generator_handler_with_disk(self, setup):
        engine, _, server_node, client_node = setup

        def handler(payload):
            yield server_node.disk.write(payload)
            return "stored"

        server = RpcServer(server_node, "store", handler=handler, service_time=0.0)

        def client():
            result = yield from call(client_node, server, 1000.0)
            return (result, engine.now)

        result, t = engine.run(engine.process(client()))
        assert result == "stored"
        assert t > 0.002  # two latencies plus disk time

    def test_reply_sets_response_size(self, setup):
        engine, cluster, server_node, client_node = setup
        big = 5e5  # takes 0.5s at 1e6 B/s

        server = RpcServer(
            server_node, "reader", handler=lambda _x: Reply("data", size=big),
            service_time=0.0,
        )

        def client():
            result = yield from call(client_node, server, None)
            return (result, engine.now)

        result, t = engine.run(engine.process(client()))
        assert result == "data"
        assert t == pytest.approx(0.5 + 3 * 0.001, rel=1e-3)

    def test_handler_exception_propagates(self, setup):
        engine, _, server_node, client_node = setup

        def handler(_payload):
            raise ValueError("bad request")

        server = RpcServer(server_node, "bad", handler=handler, service_time=0.0)

        def client():
            with pytest.raises(ValueError, match="bad request"):
                yield from call(client_node, server, None)
            return "survived"

        assert engine.run(engine.process(client())) == "survived"

    def test_offline_server_raises(self, setup):
        engine, _, server_node, client_node = setup
        server = RpcServer(server_node, "dead", handler=lambda x: x, service_time=0.0)
        server_node.online = False

        def client():
            with pytest.raises(ProviderUnavailable):
                yield from call(client_node, server, None)
            return engine.now

        t = engine.run(engine.process(client()))
        assert t == pytest.approx(0.001)  # paid one latency to find out

    def test_validation(self, setup):
        _, _, server_node, _ = setup
        with pytest.raises(ValueError):
            RpcServer(server_node, "x", handler=lambda p: p, service_time=-1)
        with pytest.raises(ValueError):
            RpcServer(server_node, "x", handler=lambda p: p, concurrency=0)


class TestSerializationPoint:
    def test_single_worker_serializes(self, setup):
        """concurrency=1 forces FIFO service — the version-manager model."""
        engine, _, server_node, client_node = setup
        server = RpcServer(
            server_node, "vm", handler=lambda x: x, service_time=0.1, concurrency=1
        )
        completions = []

        def client(i):
            yield from call(client_node, server, i)
            completions.append((i, round(engine.now, 4)))

        for i in range(4):
            engine.process(client(i))
        engine.run()
        times = [t for _, t in completions]
        # Four requests, 0.1s service each, serialized: spaced by ~0.1s.
        assert times == sorted(times)
        assert times[-1] - times[0] == pytest.approx(0.3, abs=0.01)

    def test_multi_worker_parallelism(self, setup):
        engine, _, server_node, client_node = setup
        server = RpcServer(
            server_node, "mdp", handler=lambda x: x, service_time=0.1, concurrency=4
        )
        completions = []

        def client(i):
            yield from call(client_node, server, i)
            completions.append(engine.now)

        for i in range(4):
            engine.process(client(i))
        engine.run()
        # All four served in parallel: same completion time.
        assert max(completions) - min(completions) < 0.01

    def test_busy_time_accounting(self, setup):
        engine, _, server_node, client_node = setup
        server = RpcServer(server_node, "svc", handler=lambda x: x, service_time=0.2)

        def client():
            yield from call(client_node, server, None)

        engine.run(engine.process(client()))
        assert server.busy_time == pytest.approx(0.2, rel=1e-6)


class TestOnDemandWorkers:
    def test_idle_server_schedules_nothing(self, setup):
        engine, _, server_node, _ = setup
        RpcServer(server_node, "data", handler=lambda x: x, concurrency=32)
        assert engine.peek() == float("inf")

    @pytest.mark.parametrize("backend", ["bsfs", "hdfs"])
    def test_idle_deployment_schedules_nothing(self, backend):
        deployment = deploy_microbench(backend, total_nodes=270)
        assert deployment.cluster.engine.peek() == float("inf")

    def test_burst_beyond_concurrency_queues_in_arrival_order(self, setup):
        """40 requests of one instant on 32 workers: 32 finish at s, 8 at 2s."""
        engine, _, server_node, client_node = setup
        s = 0.1
        served = []

        def handler(i):
            served.append((i, engine.now))
            return i

        server = RpcServer(server_node, "data", handler=handler, service_time=s, concurrency=32)
        arrivals = []
        put = server.inbox.put

        def recording_put(item):
            arrivals.append((item[0], engine.now))
            return put(item)

        server.inbox.put = recording_put
        for i in range(40):
            engine.process(call(client_node, server, i))
        engine.run()
        order = [i for i, _ in arrivals]
        (arrival,) = {t for _, t in arrivals}
        assert served == [(i, pytest.approx(arrival + s)) for i in order[:32]] + [
            (i, pytest.approx(arrival + 2 * s)) for i in order[32:]
        ]
        assert server.busy_time == pytest.approx(40 * s)
