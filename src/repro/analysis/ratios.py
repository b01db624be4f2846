"""Per-domain variation counts and magnitude distributions.

Inputs to Fig. 1 (how many checks per domain showed variation), Fig. 2
(distribution of max/min ratios per domain, crowdsourced) and Fig. 4 (same,
crawled).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.analysis.stats import BoxStats, grouped_box_stats
from repro.core.reports import PriceCheckReport
from repro.store import as_table_slice

__all__ = ["domain_variation_counts", "domain_ratio_stats", "domain_ratios"]


def domain_variation_counts(reports: Sequence[PriceCheckReport]) -> Counter:
    """domain -> number of reports whose variation beat the guard (Fig. 1)."""
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard, domain_id = table.ratio, table.guard, table.domain_id
    value = table.domains.value
    counts: Counter = Counter()
    for i in sliced.rows:
        r = ratio[i]
        if r is not None and r > guard[i]:
            counts[value(domain_id[i])] += 1
    return counts


def domain_ratios(
    reports: Sequence[PriceCheckReport], *, only_variation: bool = False
) -> dict[str, list[float]]:
    """domain -> all observed max/min ratios.

    With ``only_variation`` the lists are restricted to guard-beating
    checks (Fig. 2 plots ratios *of the checks with differences*); without
    it every well-formed check contributes (Fig. 4 pools the full crawl).
    """
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard, domain_id = table.ratio, table.guard, table.domain_id
    grouped: dict[int, list[float]] = {}
    for i in sliced.rows:
        r = ratio[i]
        if r is None:
            continue
        if only_variation and r <= guard[i]:
            continue
        grouped.setdefault(domain_id[i], []).append(r)
    value = table.domains.value
    return {value(did): values for did, values in grouped.items()}


def domain_ratio_stats(
    reports: Sequence[PriceCheckReport],
    *,
    only_variation: bool = False,
    min_samples: int = 1,
) -> dict[str, BoxStats]:
    """domain -> box statistics of the max/min ratio (Figs. 2 and 4)."""
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    ratios = domain_ratios(reports, only_variation=only_variation)
    return grouped_box_stats(ratios, min_samples=min_samples)
