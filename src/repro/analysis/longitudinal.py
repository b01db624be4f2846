"""Longitudinal analysis: is the variation persistent and repeatable?

§4.1: "In some cases, we see a 100% coverage, pointing to the fact that
price variations are a persistent and repeatable phenomenon."  §6: "The
results however are repeatable."

The crawl measures every product on several days; these functions quantify
stability across those rounds:

* :func:`daily_extent` -- per-domain extent computed separately per day,
* :func:`extent_stability` -- how much a domain's extent moves day to day,
* :func:`product_persistence` -- per domain, the fraction of its varying
  products that vary on *every* day they were measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.reports import PriceCheckReport
from repro.store import as_table_slice

__all__ = ["daily_extent", "extent_stability", "product_persistence", "StabilityRow"]


def daily_extent(
    reports: Sequence[PriceCheckReport],
) -> dict[str, dict[int, float]]:
    """domain -> day_index -> fraction of that day's checks with variation."""
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard = table.ratio, table.guard
    totals: dict[tuple[int, int], int] = {}
    varied: dict[tuple[int, int], int] = {}
    for i in sliced.rows:
        r = ratio[i]
        if r is None:
            continue
        key = (table.domain_id[i], table.day_index[i])
        totals[key] = totals.get(key, 0) + 1
        if r > guard[i]:
            varied[key] = varied.get(key, 0) + 1
    value = table.domains.value
    out: dict[str, dict[int, float]] = {}
    for (did, day), total in totals.items():
        out.setdefault(value(did), {})[day] = varied.get((did, day), 0) / total
    return out


@dataclass(frozen=True)
class StabilityRow:
    """Per-domain extent stability across measurement days."""

    domain: str
    days: int
    mean_extent: float
    max_daily_delta: float  # largest |extent(day) - extent(next day)|

    @property
    def is_stable(self) -> bool:
        """Stable = day-to-day extent moves by less than 15 points."""
        return self.max_daily_delta <= 0.15


def extent_stability(reports: Sequence[PriceCheckReport]) -> dict[str, StabilityRow]:
    """domain -> :class:`StabilityRow` over the crawl days."""
    per_day = daily_extent(reports)
    out: dict[str, StabilityRow] = {}
    for domain, by_day in per_day.items():
        days = sorted(by_day)
        extents = [by_day[d] for d in days]
        deltas = [abs(a - b) for a, b in zip(extents, extents[1:])] or [0.0]
        out[domain] = StabilityRow(
            domain=domain,
            days=len(days),
            mean_extent=sum(extents) / len(extents),
            max_daily_delta=max(deltas),
        )
    return out


def product_persistence(
    reports: Sequence[PriceCheckReport], *, min_days: int = 2
) -> dict[str, float]:
    """domain -> fraction of ever-varying products that vary on every day.

    Only products measured on at least ``min_days`` distinct days
    contribute -- persistence of a single observation is vacuous.
    """
    if min_days < 2:
        raise ValueError("min_days must be >= 2 to speak of persistence")
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard = table.ratio, table.guard
    rounds: dict[int, dict[int, list[bool]]] = {}
    for i in sliced.rows:
        r = ratio[i]
        if r is None:
            continue
        rounds.setdefault(table.domain_id[i], {}).setdefault(
            table.url_id[i], []
        ).append(r > guard[i])
    value = table.domains.value
    out: dict[str, float] = {}
    for did, products in rounds.items():
        eligible = [
            flags for flags in products.values()
            if len(flags) >= min_days and any(flags)
        ]
        if not eligible:
            continue
        persistent = sum(1 for flags in eligible if all(flags))
        out[value(did)] = persistent / len(eligible)
    return out
