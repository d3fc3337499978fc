"""Determinism tests for the RNG plumbing."""

import copy
import pickle

import numpy as np

from repro.util import SeedFactory, derive_rng
from repro.util.rng import SeededRng


class TestSeedFactory:
    def test_same_seed_same_streams(self):
        a, b = SeedFactory(42), SeedFactory(42)
        assert a.spawn().integers(0, 1 << 30, 16).tolist() == b.spawn().integers(
            0, 1 << 30, 16
        ).tolist()

    def test_spawn_order_matters_but_is_reproducible(self):
        fac = SeedFactory(1)
        first = fac.spawn().integers(0, 1 << 30, 8).tolist()
        second = fac.spawn().integers(0, 1 << 30, 8).tolist()
        assert first != second
        fac2 = SeedFactory(1)
        assert fac2.spawn().integers(0, 1 << 30, 8).tolist() == first

    def test_named_streams_order_independent(self):
        fac1 = SeedFactory(7)
        x1 = fac1.named("placement").integers(0, 1000, 4).tolist()
        y1 = fac1.named("workload").integers(0, 1000, 4).tolist()
        fac2 = SeedFactory(7)
        y2 = fac2.named("workload").integers(0, 1000, 4).tolist()
        x2 = fac2.named("placement").integers(0, 1000, 4).tolist()
        assert (x1, y1) == (x2, y2)

    def test_named_streams_differ(self):
        fac = SeedFactory(7)
        assert fac.named("a").integers(0, 1 << 20, 8).tolist() != fac.named(
            "b"
        ).integers(0, 1 << 20, 8).tolist()

    def test_different_seeds_differ(self):
        assert SeedFactory(1).spawn().integers(0, 1 << 30, 8).tolist() != SeedFactory(
            2
        ).spawn().integers(0, 1 << 30, 8).tolist()


class TestDeriveRng:
    def test_reproducible(self):
        assert derive_rng(3, 1, 2).random() == derive_rng(3, 1, 2).random()

    def test_key_sensitivity(self):
        assert derive_rng(3, 1).random() != derive_rng(3, 2).random()


class TestSeededRng:
    def test_draws_the_stream_of_default_rng(self):
        lazy, eager = SeededRng(11), np.random.default_rng(11)
        assert lazy.integers(0, 1 << 30, 8).tolist() == eager.integers(0, 1 << 30, 8).tolist()
        assert lazy.permutation(9).tolist() == eager.permutation(9).tolist()

    def test_copies_and_pickles_before_and_after_the_first_draw(self):
        fresh, drawn = SeededRng(5), SeededRng(5)
        drawn.random()
        for rng in (fresh, drawn):
            for clone in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
                assert clone.random() == copy.deepcopy(rng).random()
