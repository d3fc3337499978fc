"""Tests for the max-min fair flow network.

These verify the analytic sharing behaviour the experiments depend on:
NIC capacities are respected, competing flows share fairly, bandwidth is
re-allocated when flows come and go, and the model is deterministic.
"""

import pytest

from repro.errors import ProviderUnavailable, SimulationError
from repro.simulation import Engine, FlowNetwork

MB = 1 << 20


@pytest.fixture
def engine():
    return Engine()


def make_net(engine, nodes=("a", "b", "c", "d"), rate=100.0, latency=0.0):
    net = FlowNetwork(engine, latency=latency)
    for n in nodes:
        net.add_node(n, egress=rate, ingress=rate)
    return net


class TestSingleFlow:
    def test_full_rate(self, engine):
        net = make_net(engine, rate=100.0)
        done = net.transfer("a", "b", 1000.0)
        engine.run(done)
        assert engine.now == pytest.approx(10.0, rel=1e-9)

    def test_latency_added_before_flow(self, engine):
        net = make_net(engine, rate=100.0, latency=0.5)
        done = net.transfer("a", "b", 1000.0)
        engine.run(done)
        assert engine.now == pytest.approx(10.5, rel=1e-9)

    def test_zero_bytes_costs_latency_only(self, engine):
        net = make_net(engine, rate=100.0, latency=0.25)
        engine.run(net.transfer("a", "b", 0.0))
        assert engine.now == pytest.approx(0.25)

    def test_loopback_fast_path(self, engine):
        net = make_net(engine, rate=100.0, latency=0.0)
        engine.run(net.transfer("a", "a", 10 * MB))
        # Loopback default rate is 4 GB/s: far faster than the NIC.
        assert engine.now < 0.01

    def test_unknown_node_rejected(self, engine):
        net = make_net(engine)
        with pytest.raises(SimulationError):
            net.transfer("a", "zz", 10)
        with pytest.raises(SimulationError):
            net.transfer("zz", "a", 10)

    def test_negative_bytes_rejected(self, engine):
        net = make_net(engine)
        with pytest.raises(ValueError):
            net.transfer("a", "b", -1)

    def test_duplicate_node_rejected(self, engine):
        net = make_net(engine)
        with pytest.raises(SimulationError):
            net.add_node("a", egress=1.0)

    def test_a_flow_bounded_by_no_finite_link_is_an_error(self, engine):
        net = make_net(engine, rate=float("inf"))
        with pytest.raises(SimulationError, match="no bottleneck"):
            engine.run(net.transfer("a", "b", 100.0))


class TestFairSharing:
    def test_two_flows_same_source_halve(self, engine):
        """Egress NIC of 'a' is the bottleneck: each flow gets rate/2."""
        net = make_net(engine, rate=100.0)
        d1 = net.transfer("a", "b", 1000.0)
        d2 = net.transfer("a", "c", 1000.0)
        engine.run(engine.all_of([d1, d2]))
        assert engine.now == pytest.approx(20.0, rel=1e-9)

    def test_two_flows_same_dest_halve(self, engine):
        """Ingress NIC of 'b' is the bottleneck (reader hotspot)."""
        net = make_net(engine, rate=100.0)
        d1 = net.transfer("a", "b", 1000.0)
        d2 = net.transfer("c", "b", 1000.0)
        engine.run(engine.all_of([d1, d2]))
        assert engine.now == pytest.approx(20.0, rel=1e-9)

    def test_disjoint_flows_full_rate(self, engine):
        """Balanced layout: no shared NICs, no slowdown."""
        net = make_net(engine, rate=100.0)
        d1 = net.transfer("a", "b", 1000.0)
        d2 = net.transfer("c", "d", 1000.0)
        engine.run(engine.all_of([d1, d2]))
        assert engine.now == pytest.approx(10.0, rel=1e-9)

    def test_bandwidth_reallocated_after_completion(self, engine):
        """Short flow finishes; long flow speeds up to full rate."""
        net = make_net(engine, rate=100.0)
        net.transfer("a", "b", 500.0)  # shares egress until done
        long = net.transfer("a", "c", 1000.0)
        engine.run(long)
        # Phase 1: both at 50 B/s until short (500B) is done at t=10.
        # Long has 500B left, now at 100 B/s -> 5s more. Total 15s.
        assert engine.now == pytest.approx(15.0, rel=1e-6)

    def test_late_arrival_slows_existing_flow(self, engine):
        net = make_net(engine, rate=100.0)
        first = net.transfer("a", "b", 1000.0)

        def late():
            yield engine.timeout(5.0)
            yield net.transfer("a", "c", 1000.0)
            return engine.now

        p = engine.process(late())
        engine.run(first)
        # First: 5s at 100 (500B) + shared 50 B/s for remaining 500B -> t=15.
        assert engine.now == pytest.approx(15.0, rel=1e-6)
        engine.run(p)
        # Late flow: 500B at 50 B/s (t=5..15) + 500B at 100 B/s -> t=20.
        assert engine.process and engine.now == pytest.approx(20.0, rel=1e-6)

    def test_maxmin_not_proportional(self, engine):
        """Max-min gives the cross flow the leftover, not a naive split.

        Flows: a->b, a->c, d->c.  Egress(a) splits 50/50; ingress(c)
        then has 50 left for d->c after a->c's 50... both links at 100:
        a->b: 50, a->c: 50, d->c: 50 under equal caps.  With ingress(c)
        raised to 150, d->c should get 100 (its egress cap).
        """
        net = FlowNetwork(engine, latency=0.0)
        net.add_node("a", egress=100.0, ingress=100.0)
        net.add_node("b", egress=100.0, ingress=100.0)
        net.add_node("c", egress=100.0, ingress=150.0)
        net.add_node("d", egress=100.0, ingress=100.0)
        net.transfer("a", "b", 1e9)
        net.transfer("a", "c", 1e9)
        done = net.transfer("d", "c", 1000.0)
        engine.run(done)
        assert engine.now == pytest.approx(10.0, rel=1e-6)

    def test_core_capacity_limits_aggregate(self, engine):
        net = FlowNetwork(engine, latency=0.0, core_capacity=100.0)
        for n in ("a", "b", "c", "d"):
            net.add_node(n, egress=100.0, ingress=100.0)
        d1 = net.transfer("a", "b", 500.0)
        d2 = net.transfer("c", "d", 500.0)
        engine.run(engine.all_of([d1, d2]))
        # Disjoint NICs but shared 100 B/s core: each at 50 -> 10s.
        assert engine.now == pytest.approx(10.0, rel=1e-6)

    def test_n_readers_one_server_shape(self, engine):
        """The Figure 4 hotspot in miniature: k readers of one node."""
        nodes = ["server"] + [f"client{i}" for i in range(4)]
        net = make_net(engine, nodes=nodes, rate=100.0)
        events = [net.transfer("server", f"client{i}", 1000.0) for i in range(4)]
        engine.run(engine.all_of(events))
        assert engine.now == pytest.approx(40.0, rel=1e-6)


class TestStatsAndCancel:
    def test_stats_accumulate(self, engine):
        net = make_net(engine, rate=100.0)
        engine.run(net.transfer("a", "b", 1000.0))
        engine.run(net.transfer("a", "c", 500.0))
        assert net.stats.transfers_started == 2
        assert net.stats.transfers_completed == 2
        assert net.stats.bytes_completed == pytest.approx(1500.0)
        assert net.stats.bytes_by_source["a"] == pytest.approx(1500.0)
        assert net.stats.bytes_by_dest["b"] == pytest.approx(1000.0)

    def test_cancel_node_flows(self, engine):
        net = make_net(engine, rate=100.0)
        doomed = net.transfer("a", "b", 1e6)
        survivor = net.transfer("c", "d", 1000.0)

        def killer():
            yield engine.timeout(1.0)
            count = net.cancel_node_flows("b", ProviderUnavailable("b down"))
            assert count == 1

        engine.process(killer())

        def waiter():
            with pytest.raises(ProviderUnavailable):
                yield doomed
            return engine.now

        p = engine.process(waiter())
        engine.run(survivor)
        assert engine.now == pytest.approx(10.0, rel=1e-6)
        engine.run(p)

    def test_cancel_before_start_with_latency(self, engine):
        net = make_net(engine, rate=100.0, latency=1.0)
        doomed = net.transfer("a", "b", 1e6)
        doomed_flows = [f for f in [doomed]]
        assert doomed_flows  # the event exists even before the flow starts

        def waiter():
            with pytest.raises(ProviderUnavailable):
                yield doomed

        p = engine.process(waiter())

        def killer():
            yield engine.timeout(0.5)  # before latency elapses
            # No active flow yet; cancel via the event directly.
            assert net.cancel_node_flows("b", ProviderUnavailable("x")) == 0

        engine.process(killer())
        engine.run(until=0.6)
        # flow starts at t=1.0 and then runs to completion normally
        engine.run(until=2.0)
        # The flow started and is still draining: the late kill hits it.
        assert net.cancel_node_flows("b", ProviderUnavailable("late kill")) == 1
        engine.run(p)
        assert engine.now == pytest.approx(2.0)


class TestDeterminism:
    def test_identical_runs_identical_timings(self):
        def run_once():
            engine = Engine()
            net = FlowNetwork(engine, latency=1e-4)
            for i in range(20):
                net.add_node(f"n{i}", egress=100.0, ingress=100.0)
            completions = []
            events = []
            for i in range(30):
                ev = net.transfer(f"n{i % 20}", f"n{(i * 7 + 3) % 20}", 100.0 + i)
                ev.add_callback(lambda e, i=i: completions.append((i, engine.now)))
                events.append(ev)
            engine.run(engine.all_of(events))
            return completions

        assert run_once() == run_once()

    def test_flows_finishing_in_one_wake_complete_in_start_order(self, engine):
        """Three equal flows drain together; one wake completes them in
        the order they started, so their waiters resume in that order."""
        net = make_net(engine, nodes=("a", "b", "c", "x", "y", "z"), rate=100.0)
        resumed = []

        def waiter(tag, src, dst):
            yield net.transfer(src, dst, 1000.0)
            resumed.append((tag, engine.now))

        for tag, (src, dst) in enumerate((("a", "x"), ("b", "y"), ("c", "z"))):
            engine.process(waiter(tag, src, dst))
        engine.run()
        assert [tag for tag, _ in resumed] == [0, 1, 2]
        assert len({t for _, t in resumed}) == 1
        assert net.stats.transfers_completed == 3
