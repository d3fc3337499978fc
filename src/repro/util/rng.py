"""Deterministic randomness plumbing.

Every stochastic component (HDFS random placement, synthetic text
generation, failure injection, workload think times) draws from a
:class:`SeedSequence`-derived generator so that a top-level experiment
seed reproduces the entire run bit-for-bit — a prerequisite for
regression-testing simulated results.

This module is the one place that builds a seeded generator, and it
imports numpy only inside the call that builds one: a store, BSFS,
gateway or MapReduce-with-grep process that never draws a number
never loads numpy (DESIGN.md §1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeedFactory", "SeededRng", "derive_rng"]


class SeedFactory:
    """Hands out independent, reproducible child generators.

    A factory is created from one root seed; each :meth:`spawn` call
    returns a fresh ``numpy.random.Generator`` whose stream is
    independent of every other child (via ``SeedSequence.spawn``) yet
    fully determined by ``(root_seed, spawn order)``.

    Components that want stable streams regardless of creation order can
    use :meth:`named`, which derives the child from a string key instead
    of from the spawn counter.
    """

    def __init__(self, seed: int | None = 0):
        import numpy as np

        self._root = np.random.SeedSequence(seed)
        #: Root seed (``None`` means OS entropy; avoid in experiments).
        self.seed = seed

    def spawn(self) -> np.random.Generator:
        """Next order-dependent child generator."""
        import numpy as np

        (child,) = self._root.spawn(1)
        return np.random.default_rng(child)

    def named(self, name: str) -> np.random.Generator:
        """Child generator keyed by *name*, independent of spawn order."""
        import numpy as np

        digest = np.frombuffer(
            name.encode("utf-8").ljust(8, b"\0")[:8], dtype=np.uint64
        )[0]
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(int(digest),)
        )
        return np.random.default_rng(child)


class SeededRng:
    """``numpy.random.default_rng(seed)``, built on the first draw.

    Placement policies hold one of these: the default round-robin
    policy never draws, so its stores never import numpy, and a random
    policy draws exactly the stream ``default_rng(seed)`` would.
    """

    def __init__(self, seed: int | None):
        self._seed, self._rng = seed, None

    def __getattr__(self, name: str):
        if name.startswith("_"):  # copy and pickle probe an uninitialised one
            raise AttributeError(name)
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return getattr(self._rng, name)


def derive_rng(seed: int | None, *key: int) -> np.random.Generator:
    """One-shot helper: generator for ``(seed, *key)`` without a factory."""
    import numpy as np

    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
