"""Tests for the consistent-hash ring."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
