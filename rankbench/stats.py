"""Exact quantiles over raw samples.

Percentiles are interpolated linearly between order statistics, the
same rule as ``numpy.percentile``'s default (``method="linear"``), and
computed from every recorded sample — never from histogram buckets, so a
change inside a bucket stays visible.

A percentile above the median is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it; with fewer, one slow sample
moves it, so :func:`percentile` refuses. The median itself is always
reported, together with its sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples
    beyond it."""


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile (0-100) of ``samples``, numpy-linear.

    Raises :class:`TooFewSamples` for an empty sample set, and for a
    percentile above 50 with fewer than :data:`MIN_BEYOND` samples
    beyond it.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    count = len(samples)
    if count == 0:
        raise TooFewSamples("no samples")
    if pct > 50.0 and samples_beyond(count, pct) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {count} samples has only "
            f"{samples_beyond(count, pct):.1f} beyond it "
            f"(need {MIN_BEYOND})")
    ordered = sorted(samples)
    position = (count - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, count - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def slow_percentile(count: int) -> float:
    """The highest whole percentile with MIN_BEYOND samples beyond it
    (p50 when there are fewer than 2 * MIN_BEYOND samples)."""
    if count <= 0:
        raise TooFewSamples("no samples")
    return max(50.0, float(math.floor(100.0 - 100.0 * MIN_BEYOND / count)))


@dataclass(frozen=True)
class Summary:
    """Median and slow percentile of one kind of operation."""

    count: int
    median: float
    slow_pct: float
    slow: float

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Summary":
        pct = slow_percentile(len(samples))
        return cls(count=len(samples), median=median(samples),
                   slow_pct=pct, slow=percentile(samples, pct))

    def describe(self, unit: str) -> str:
        return (f"median {self.median:.4f} {unit}, p{self.slow_pct:g} "
                f"{self.slow:.4f} {unit} (n={self.count})")


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of run-level values,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}

