"""Small statistics helpers used by the experiment harness.

Includes the paper's load-balance metric (§V-D): the Manhattan distance
between the observed blocks-per-node vector and the vector of a
perfectly balanced system, called the "degree of unbalance" in
Figure 3(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "manhattan_unbalance",
    "Summary",
    "summarize",
]


def manhattan_unbalance(vector: Sequence[float]) -> float:
    """Degree of unbalance of a block-layout vector (paper Figure 3(b)).

    Manhattan (L1) distance between *vector* and the ideal vector whose
    every element equals ``sum(vector)/len(vector)``.  0 means perfectly
    balanced; the larger the value the more skewed the layout.
    """
    if not vector:
        return 0.0
    total = float(sum(vector))
    ideal = total / len(vector)
    return float(sum(abs(v - ideal) for v in vector))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample: n, mean, stdev, min, max."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean:.3f} sd={self.stdev:.3f} "
            f"min={self.minimum:.3f} max={self.maximum:.3f}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; stdev is the sample standard deviation.

    A single observation gets stdev 0 (the paper averaged 5 repetitions
    and reported that the deviation "proved to be low").
    """
    if not values:
        raise ValueError("summarize of empty sequence")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return Summary(
        n=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )
