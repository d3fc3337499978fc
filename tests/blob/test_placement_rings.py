"""Replica rings are built once per membership, with placements unchanged.

``ProviderManagerCore`` keeps one replica ring per (live membership,
replication) and drops it whenever a provider registers, is
decommissioned or recovers; round-robin rotates by slicing and
least-loaded picks from a heap.  This property drives random
membership changes and allocations through every policy and checks
each placement and every provider's charges against the per-primary
algorithm the rings replaced, kept here as the oracle.  A stale ring
places a block on a provider that left, or skips one that came back.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob import ProviderManagerCore
from repro.errors import ProviderUnavailable, ReplicationError

NAMES = [f"p{i}" for i in range(5)]
POLICIES = ["round_robin", "least_loaded", "random", "local_first"]


class OracleManager:
    """The per-primary allocation: live providers re-listed, each
    primary's replica set rebuilt by index on every call, and the
    policies' original choices (modular round robin, least loaded by a
    full sort per block)."""

    def __init__(self, policy, seed):
        self.policy = policy
        self.rng = np.random.default_rng(seed)
        self.cursor = 0
        self.providers = {}  # name -> [online, blocks, bytes]

    def register(self, name):
        if name in self.providers:
            raise ValueError(name)
        self.providers[name] = [True, 0, 0]

    def set_online(self, name, online):
        if name not in self.providers:
            raise ProviderUnavailable(name)
        self.providers[name][0] = online

    def choose(self, count, live, client):
        if self.policy == "round_robin":
            chosen = [live[(self.cursor + i) % len(live)] for i in range(count)]
            self.cursor = (self.cursor + count) % len(live)
            return chosen
        if self.policy == "least_loaded":
            loads = {name: self.providers[name][1] for name in live}
            chosen = []
            for _ in range(count):
                name = min(sorted(loads), key=lambda n: loads[n])
                chosen.append(name)
                loads[name] += 1
            return chosen
        if self.policy == "local_first" and client in live:
            return [client] * count
        return [live[i] for i in self.rng.integers(0, len(live), size=count)]

    def allocate(self, count, sizes, replication, client):
        live = sorted(name for name, state in self.providers.items() if state[0])
        if len(live) < replication:
            raise ReplicationError(replication)
        primaries = self.choose(count, live, client)
        placements = []
        for primary, nbytes in zip(primaries, sizes):
            start = live.index(primary)
            replicas = tuple(live[(start + r) % len(live)] for r in range(replication))
            for name in replicas:
                self.providers[name][1] += 1
                self.providers[name][2] += nbytes
            placements.append(replicas)
        return placements

    def charges(self):
        return {name: (state[1], state[2]) for name, state in sorted(self.providers.items())}


def charges(pm):
    return {
        name: (pm._provider(name).blocks, pm._provider(name).bytes)
        for name in pm.provider_names
    }


names = st.sampled_from(NAMES)
#: One step: an optional membership change, then an allocation, so every
#: change is followed by an allocation that a stale ring would get wrong.
steps = st.tuples(
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["register", "decommission", "recover"]), names),
    ),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), names),
)


def outcome(call):
    """What *call* returned, or the type of what it raised."""
    try:
        return call()
    except (ValueError, ProviderUnavailable, ReplicationError) as exc:
        return type(exc)


def change(manager, kind, name):
    if kind == "register":
        return manager.register(name)
    if isinstance(manager, OracleManager):
        return manager.set_online(name, kind == "recover")
    return getattr(manager, kind)(name)


def check_against_oracle(policy, seed, initial, steps):
    pm = ProviderManagerCore(policy=policy, rng=np.random.default_rng(seed))
    oracle = OracleManager(policy, seed)
    for name in initial:  # registration order is not name order
        pm.register(name)
        oracle.register(name)
    for membership, sizes, replication, client in steps:
        if membership is not None:
            assert outcome(lambda: change(pm, *membership)) == outcome(
                lambda: change(oracle, *membership)
            )
        got = outcome(lambda: pm.allocate(len(sizes), sizes, replication, client))
        want = outcome(lambda: oracle.allocate(len(sizes), sizes, replication, client))
        assert got == want, (membership, sizes, replication, client)
        assert charges(pm) == oracle.charges()


@given(
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
    initial=st.lists(names, min_size=1, max_size=3, unique=True),
    steps=st.lists(steps, min_size=1, max_size=20),
)
def test_rings_place_and_charge_as_the_per_primary_algorithm(policy, seed, initial, steps):
    check_against_oracle(policy, seed, initial, steps)


@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("policy", POLICIES)
def test_every_membership_change_drops_the_rings(policy, replication):
    # Each change lands between two allocations at the same
    # replication, so a ring kept across any one of them is caught.
    sizes = [5] * 7
    changes = [
        None,
        ("decommission", "p1"),
        ("recover", "p1"),
        ("register", "p4"),
        ("decommission", "p0"),
        ("register", "p2"),
        ("recover", "p0"),
    ]
    steps = [(membership, sizes, replication, "p3") for membership in changes]
    check_against_oracle(policy, 7, ["p3", "p0", "p1"], steps)


def test_a_membership_change_racing_allocations_leaves_no_stale_ring():
    # Allocating threads (more than cores) race a thread that takes one
    # provider out and back.  Rings are built and dropped under the
    # manager's lock, so an allocation that starts after the provider
    # left never places a block on it, and every allocated replica is
    # charged exactly once.
    pm = ProviderManagerCore()
    for name in NAMES:
        pm.register(name)
    stop = threading.Event()
    allocated, stale = [], []

    def allocate():
        while not stop.is_set():
            allocated.append(len(pm.allocate(3, [1, 1, 1], replication=2)))

    def flip():
        for _ in range(300):
            pm.decommission("p2")
            placements = pm.allocate(4, [1] * 4, replication=2)
            allocated.append(len(placements))
            stale.extend(replicas for replicas in placements if "p2" in replicas)
            pm.recover("p2")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=allocate) for _ in range(4)]
        flipper = threading.Thread(target=flip)
        for thread in workers + [flipper]:
            thread.start()
        flipper.join(timeout=60)
        stop.set()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in workers + [flipper])
    assert stale == []
    assert sum(pm.block_counts().values()) == 2 * sum(allocated)


def test_a_decommission_during_a_ring_build_waits_for_it():
    # The exact interleaving a stale ring needs: the provider leaves
    # while an allocation is reading the live membership.  The change
    # must wait for the allocation, then drop the ring it stored.
    pm = ProviderManagerCore()
    for name in NAMES:
        pm.register(name)
    real = pm.live_providers
    leaver = threading.Thread(target=pm.decommission, args=("p2",))

    def live_providers():
        live = real()
        if leaver.ident is None:  # the first call only
            leaver.start()
            leaver.join(timeout=0.2)  # returns at once if nothing holds the lock
        return live

    pm.live_providers = live_providers
    pm.allocate(len(NAMES), [1] * len(NAMES), replication=2)
    leaver.join(timeout=60)
    assert not leaver.is_alive()
    placements = pm.allocate(len(NAMES), [1] * len(NAMES), replication=2)
    assert all("p2" not in replicas for replicas in placements)
