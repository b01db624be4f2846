"""Percentiles and box-plot statistics.

Hand-rolled (linear-interpolation percentiles, Tukey-style whiskers) so the
library core stays dependency-free; the test suite cross-checks against
numpy where available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["percentile", "BoxStats", "grouped_box_stats"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation.

    Matches ``numpy.percentile(values, q)`` for the default method.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    return _percentile_sorted(sorted(values), q)


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` over an already-sorted sample (sort once,
    interpolate many -- what :meth:`BoxStats.from_values` does)."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return float(ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction)


@dataclass(frozen=True)
class BoxStats:
    """Summary statistics behind one box in a box plot."""

    n: int
    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStats":
        """Compute box statistics with 1.5-IQR whiskers clamped to data."""
        if not values:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(values)
        q25 = _percentile_sorted(ordered, 25)
        q75 = _percentile_sorted(ordered, 75)
        iqr = q75 - q25
        low_fence = q25 - 1.5 * iqr
        high_fence = q75 + 1.5 * iqr
        inside = [v for v in ordered if low_fence <= v <= high_fence]
        # Whiskers reach the most extreme data inside the fences, but never
        # retreat inside the box (matplotlib's convention for degenerate
        # samples like [1, 1, 1, 100]).
        whisker_low = min(min(inside), q25) if inside else ordered[0]
        whisker_high = max(max(inside), q75) if inside else ordered[-1]
        return cls(
            n=len(ordered),
            median=_percentile_sorted(ordered, 50),
            q25=q25,
            q75=q75,
            whisker_low=min(whisker_low, q25),
            whisker_high=max(whisker_high, q75),
            minimum=ordered[0],
            maximum=ordered[-1],
        )

    def as_row(self) -> dict[str, float]:
        """The stats as a flat dict (for tables and JSON output)."""
        return {
            "n": self.n,
            "median": self.median,
            "q25": self.q25,
            "q75": self.q75,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "min": self.minimum,
            "max": self.maximum,
        }


def grouped_box_stats(
    samples: dict[str, list[float]], *, min_samples: int = 1
) -> dict[str, "BoxStats"]:
    """key -> :class:`BoxStats`, dropping groups below ``min_samples``.

    The reduction every grouped-distribution figure (2, 4, 7, 9) ends
    with: the columnar kernels feed their accumulated samples through
    here, in group insertion order.
    """
    return {
        key: BoxStats.from_values(values)
        for key, values in samples.items()
        if len(values) >= min_samples
    }
