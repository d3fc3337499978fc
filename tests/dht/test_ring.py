"""Tests for the consistent-hash ring."""

import bisect
import hashlib
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blob.segment_tree import NodeKey
from repro.dht import HashRing, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("blob", 3, 0, 8)) == stable_hash(("blob", 3, 0, 8))

    def test_salt_changes_value(self):
        assert stable_hash("x") != stable_hash("x", salt=b"other")

    def test_spread(self):
        values = {stable_hash(i) for i in range(1000)}
        assert len(values) == 1000


class TestRingMembership:
    def test_empty_ring_lookup_fails(self):
        with pytest.raises(LookupError):
            HashRing().lookup("k")

    def test_single_member_owns_everything(self):
        ring = HashRing(["only"])
        assert all(ring.lookup(i) == "only" for i in range(50))

    def test_duplicate_add_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(KeyError):
            HashRing(["a"]).remove("b")

    def test_contains_len(self):
        ring = HashRing(["a", "b"])
        assert "a" in ring and "c" not in ring
        assert len(ring) == 2

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestRingProperties:
    def test_lookup_stable_across_instances(self):
        members = [f"mdp-{i}" for i in range(20)]
        r1, r2 = HashRing(members), HashRing(list(reversed(members)))
        keys = [("blob", v, o, s) for v in range(5) for o in range(10) for s in (1, 2)]
        assert [r1.lookup(k) for k in keys] == [r2.lookup(k) for k in keys]

    def test_distribution_roughly_even(self):
        ring = HashRing([f"m{i}" for i in range(10)], vnodes=128)
        counts = Counter(ring.lookup(key) for key in range(10_000))
        assert len(counts) == 10
        assert min(counts.values()) > 400  # ideal is 1000 each
        assert max(counts.values()) < 2500

    def test_removal_moves_only_victims_keys(self):
        ring = HashRing([f"m{i}" for i in range(10)])
        keys = list(range(2000))
        before = {k: ring.lookup(k) for k in keys}
        ring.remove("m3")
        after = {k: ring.lookup(k) for k in keys}
        for k in keys:
            if before[k] != "m3":
                assert after[k] == before[k]
            else:
                assert after[k] != "m3"

    @given(st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=12))
    def test_property_lookup_always_a_member(self, members):
        ring = HashRing(sorted(members), vnodes=8)
        for key in range(100):
            assert ring.lookup(key) in members


class TestReplicas:
    def test_distinct_and_primary_first(self):
        ring = HashRing([f"m{i}" for i in range(8)])
        for key in range(100):
            reps = ring.replicas(key, 3)
            assert len(reps) == len(set(reps)) == 3
            assert reps[0] == ring.lookup(key)

    def test_capped_at_membership(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.replicas("k", 5)) == ["a", "b"]

    def test_n_validation(self):
        with pytest.raises(ValueError):
            HashRing(["a"]).replicas("k", 0)


class _InsortRing:
    """Standalone reference ring: hashes every vnode on each ``add`` and
    inserts it with one ``insort``, and answers ``replicas`` with a
    linear clockwise walk and a ``seen`` set, as the ring did before it
    cached points and memoised successors."""

    def __init__(self, vnodes: int):
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()

    def add(self, member: str) -> None:
        self._members.add(member)
        for i in range(self.vnodes):
            bisect.insort(self._points, (stable_hash((member, i), salt=b"ring"), member))

    def remove(self, member: str) -> None:
        self._members.discard(member)
        self._points = [(h, m) for (h, m) in self._points if m != member]

    def lookup(self, key) -> str:
        idx = bisect.bisect_right(self._points, (stable_hash(key), "\uffff"))
        return self._points[idx % len(self._points)][1]

    def replicas(self, key, n: int) -> tuple[str, ...]:
        n = min(n, len(self._members))
        idx = bisect.bisect_right(self._points, (stable_hash(key), "\uffff"))
        chosen: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            member = self._points[(idx + step) % len(self._points)][1]
            if member not in seen:
                seen.add(member)
                chosen.append(member)
                if len(chosen) == n:
                    break
        return tuple(chosen)


_names = st.text(alphabet="abcdefgh-0123", min_size=1, max_size=6)


class TestCachedPoints:
    @given(
        st.integers(min_value=1, max_value=128),
        st.lists(st.tuples(st.booleans(), _names), min_size=1, max_size=24),
    )
    def test_matches_insort_construction(self, vnodes, ops):
        """Any add/remove sequence leaves the cached ring equal to the oracle."""
        ring, oracle = HashRing(vnodes=vnodes), _InsortRing(vnodes=vnodes)
        for is_add, member in ops:
            if is_add and member not in ring:
                ring.add(member)
                oracle.add(member)
            elif not is_add and member in ring:
                ring.remove(member)
                oracle.remove(member)
            assert ring._points == oracle._points
        if ring.members:
            for key in range(50):
                for n in (1, 2, 3):
                    assert ring.replicas(key, n) == oracle.replicas(key, n)

    @given(
        st.integers(min_value=1, max_value=16),
        st.lists(st.tuples(st.booleans(), _names), min_size=1, max_size=24),
    )
    def test_memoised_lookup_matches_linear_walk(self, vnodes, ops):
        """Routing after every membership change (so a stale memo would
        show) equals the reference walk, for n in 1..4 and both key
        kinds the store routes."""
        ring, oracle = HashRing(vnodes=vnodes), _InsortRing(vnodes)
        keys = [*range(20), *(NodeKey("b", v, 0, 1) for v in range(1, 21))]
        for is_add, member in ops:
            if is_add and member not in ring:
                ring.add(member)
                oracle.add(member)
            elif not is_add and member in ring:
                ring.remove(member)
                oracle.remove(member)
            if not ring.members:
                continue
            for key in keys:
                assert ring.lookup(key) == oracle.lookup(key)
                for n in (1, 2, 3, 4):
                    assert ring.replicas(key, n) == oracle.replicas(key, n)

    def test_concurrent_lookups_fill_one_memo(self):
        """Threads filling the shared memo at once (more threads than
        cores, frequent switches) all get the reference answer."""
        members = [f"mdp-{i}" for i in range(20)]
        ring, oracle = HashRing(members), _InsortRing(64)
        for member in members:
            oracle.add(member)
        keys = [NodeKey("b", v, o, 1) for v in range(1, 11) for o in range(100)]
        expected = {(key, n): oracle.replicas(key, n) for key in keys for n in (1, 3)}
        wrong: list[tuple] = []

        def route(shift: int) -> None:
            for key in keys[shift:] + keys[:shift]:
                for n in (1, 3):
                    if ring.replicas(key, n) != expected[(key, n)]:
                        wrong.append((key, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=route, args=(i * 97,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_node_key_replicas_pinned(self):
        """The metadata placement of 10^4 tree nodes on 20 providers."""
        ring = HashRing([f"mdp-{i}" for i in range(20)])
        keys = [
            NodeKey(f"blob-{b}", v, o * s, s)
            for b in range(5) for v in range(1, 21) for s in (1, 4, 16, 64) for o in range(25)
        ]
        assert len(keys) == 10_000
        text = "\n".join(",".join(ring.replicas(k, 3)) for k in keys)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d7fe059d7fce23067b743acdaea75b4057485ccb34e0f02189b360e14fb35d56"
        )

    def test_remove_leaves_other_rings_alone(self):
        members = [f"m{i}" for i in range(6)]
        ring, twin = HashRing(members), HashRing(members)
        points = list(twin._points)
        ring.remove("m2")
        ring.add("m2")
        ring.remove("m4")
        assert twin._points == points
        assert len(twin._points) == 6 * twin.vnodes
