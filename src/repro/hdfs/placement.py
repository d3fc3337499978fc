"""HDFS chunk placement (paper §II-B, §V-D).

"The policy used by HDFS consists in writing locally whenever a write
is initiated on a datanode" — otherwise the namenode picks a random
datanode.  This local-first-else-random rule is the root cause of both
HDFS behaviours the paper measures: the pathological all-on-one-node
layout when the writer is co-located (§V-E first experiment), and the
unbalanced random layout (Figure 3(b)) when it is not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ReplicationError
from repro.util.rng import SeededRng

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HdfsPlacementPolicy"]


class HdfsPlacementPolicy:
    """Pick a replication pipeline for one new chunk.

    Args:
        rng: randomness source (seeded for reproducible experiments).
        target_reuse: reuse the randomly chosen remote target for this
            many consecutive chunks.  1 (the default) is independent
            uniform choice; ~3 reproduces the layout imbalance the
            paper *measured* in Figure 3(b) — see
            :mod:`repro.deploy.platform` for the calibration argument.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        target_reuse: int = 1,
    ):
        if target_reuse < 1:
            raise ValueError(f"target_reuse must be >= 1, got {target_reuse}")
        self._rng = rng if rng is not None else SeededRng(0)
        self.target_reuse = target_reuse
        self._current: Optional[str] = None
        self._remaining = 0

    def choose_pipeline(
        self,
        live_datanodes: Sequence[str],
        replication: int,
        client: Optional[str],
    ) -> tuple[str, ...]:
        """Datanodes for one chunk, primary first.

        The primary is the client itself when the client runs a
        datanode (local write), else a (possibly reused) random pick;
        remaining replicas are distinct random picks.
        """
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        live = list(live_datanodes)
        if len(live) < replication:
            raise ReplicationError(
                f"replication {replication} impossible with {len(live)} live datanodes"
            )
        if client is not None and client in live:
            primary = client
        else:
            if self._remaining > 0 and self._current in live:
                primary = self._current
                self._remaining -= 1
            else:
                primary = live[int(self._rng.integers(0, len(live)))]
                self._current = primary
                self._remaining = self.target_reuse - 1
        pipeline = [primary]
        others = [d for d in live if d != primary]
        if replication > 1:
            picks = self._rng.permutation(len(others))[: replication - 1]
            pipeline.extend(others[i] for i in picks)
        return tuple(pipeline)
