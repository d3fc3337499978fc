"""Tests for placement policies and the provider manager."""

import sys
import threading

import numpy as np
import pytest

from repro.blob import ProviderManagerCore, make_policy
from repro.errors import ProviderUnavailable, ReplicationError
from repro.util import manhattan_unbalance


def manager(n=8, policy="round_robin", seed=0):
    pm = ProviderManagerCore(policy=policy, rng=np.random.default_rng(seed))
    for i in range(n):
        pm.register(f"p{i}")
    return pm


class TestRoundRobin:
    def test_cycles_in_name_order(self):
        pm = manager(4)
        placements = pm.allocate(6, [64] * 6)
        assert [p[0] for p in placements] == ["p0", "p1", "p2", "p3", "p0", "p1"]

    def test_cursor_persists_across_allocations(self):
        pm = manager(4)
        pm.allocate(3, [64] * 3)
        placements = pm.allocate(2, [64] * 2)
        assert [p[0] for p in placements] == ["p3", "p0"]

    def test_perfectly_balanced_when_count_divides(self):
        pm = manager(8)
        pm.allocate(64, [1] * 64)
        counts = pm.block_counts()
        assert manhattan_unbalance(list(counts.values())) == 0


class TestOtherPolicies:
    def test_least_loaded_fills_valleys(self):
        pm = manager(3, policy="least_loaded")
        pm.allocate(3, [1, 1, 1])
        pm.allocate(3, [1, 1, 1])
        assert set(pm.block_counts().values()) == {2}

    def test_random_is_seed_deterministic(self):
        a = manager(8, policy="random", seed=42).allocate(20, [1] * 20)
        b = manager(8, policy="random", seed=42).allocate(20, [1] * 20)
        assert a == b

    @pytest.mark.parametrize("policy", ["random", "local_first"])
    def test_a_seed_draws_the_eager_generators_stream(self, policy):
        # A store passes its seed; the generator is built on the first
        # draw and must draw exactly what an eager one would.
        lazy = ProviderManagerCore(policy=policy, rng=42)
        for i in range(8):
            lazy.register(f"p{i}")
        eager = manager(8, policy=policy, seed=42)
        for count in (20, 7):
            assert lazy.allocate(count, [1] * count) == eager.allocate(count, [1] * count)

    def test_random_is_unbalanced_vs_round_robin(self):
        rnd = manager(16, policy="random", seed=1)
        rr = manager(16, policy="round_robin")
        rnd.allocate(64, [1] * 64)
        rr.allocate(64, [1] * 64)
        d_rnd = manhattan_unbalance(list(rnd.block_counts().values()))
        d_rr = manhattan_unbalance(list(rr.block_counts().values()))
        assert d_rnd > d_rr

    def test_local_first_uses_client_when_provider(self):
        pm = manager(4, policy="local_first")
        placements = pm.allocate(5, [1] * 5, client="p2")
        assert all(p[0] == "p2" for p in placements)

    def test_local_first_random_when_remote_client(self):
        pm = manager(4, policy="local_first")
        placements = pm.allocate(30, [1] * 30, client="not-a-provider")
        assert len({p[0] for p in placements}) > 1

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_policy("fancy")


class TestReplication:
    def test_replica_sets_distinct(self):
        pm = manager(6)
        placements = pm.allocate(6, [1] * 6, replication=3)
        for replicas in placements:
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_replication_exceeding_live_rejected(self):
        pm = manager(2)
        with pytest.raises(ReplicationError):
            pm.allocate(1, [1], replication=3)

    def test_decommissioned_excluded(self):
        pm = manager(3)
        pm.decommission("p1")
        placements = pm.allocate(8, [1] * 8)
        assert all("p1" not in replicas for replicas in placements)
        pm.recover("p1")
        placements = pm.allocate(3, [1] * 3)
        assert any("p1" in replicas for replicas in placements)

    def test_replication_counts_all_copies(self):
        pm = manager(4)
        pm.allocate(4, [10] * 4, replication=2)
        assert sum(pm.block_counts().values()) == 8


class TestBookkeeping:
    def test_register_duplicate_rejected(self):
        pm = manager(2)
        with pytest.raises(ValueError):
            pm.register("p0")

    def test_unknown_provider_rejected(self):
        pm = manager(2)
        with pytest.raises(ProviderUnavailable):
            pm.decommission("nope")

    def test_release_decrements(self):
        pm = manager(2)
        pm.allocate(2, [100, 100])
        pm.release("p0", 100)
        assert pm.block_counts()["p0"] == 0

    def test_allocation_validation(self):
        pm = manager(2)
        with pytest.raises(ValueError):
            pm.allocate(0, [])
        with pytest.raises(ValueError):
            pm.allocate(2, [1])
        with pytest.raises(ValueError, match="replication must be >= 1"):
            pm.allocate(1, [1], replication=0)


class TestTenantAdmission:
    def test_begin_op_checks_the_cap_and_counts_in_one_step(self):
        pm = manager(2)
        pm.register_tenant("t")
        assert pm.tenant_begin_op("t", max_in_flight=1)
        assert not pm.tenant_begin_op("t", max_in_flight=1)
        assert pm.tenant_begin_op("t")  # no cap
        usage = pm.tenant_usage("t")
        assert (usage["in_flight"], usage["ops_total"]) == (2, 2)

    def test_cap_holds_under_a_short_switch_interval(self):
        """More admitting threads than cores, switching every
        microsecond: a check-then-act race would overshoot the cap."""
        pm, cap, threads, rounds = manager(2), 2, 8, 200
        pm.register_tenant("t")
        seen, admitted = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def admit():
            for _ in range(rounds):
                if pm.tenant_begin_op("t", max_in_flight=cap):
                    seen.append(pm.tenant_usage("t")["in_flight"])
                    admitted.append(1)
                    pm.tenant_end_op("t")

        try:
            workers = [threading.Thread(target=admit) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert admitted and max(seen) <= cap
        usage = pm.tenant_usage("t")
        assert (usage["in_flight"], usage["ops_total"]) == (0, len(admitted))
