"""Product-axis analyses (Figs. 5 and 6).

Fig. 5: for every product, the maximal per-check (synchronized) max/min
ratio against the product's minimal observed price -- cheap products show
the largest relative gaps (additive surcharges), the multi-$K tail stays
under ×1.5.

Fig. 6: for one retailer, each vantage point's ratio-to-minimum as a
function of product price.  Parallel flat lines = multiplicative pricing;
lines converging to 1 as price grows = additive pricing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.stats import percentile
from repro.core.reports import PriceCheckReport
from repro.store import as_table_slice

__all__ = ["ProductPoint", "ratio_vs_min_price", "per_vantage_structure", "VantageSeries"]


@dataclass(frozen=True)
class ProductPoint:
    """One dot of Fig. 5."""

    url: str
    domain: str
    min_price_usd: float
    max_ratio: float


def ratio_vs_min_price(
    reports: Sequence[PriceCheckReport], *, only_variation: bool = False
) -> list[ProductPoint]:
    """Aggregate reports per product into Fig. 5's scatter points.

    The ratio is the *maximum over measurement rounds* of the per-round
    (synchronized) max/min ratio -- cross-day price drift never pollutes a
    ratio, matching the paper's synchronization rationale.  The price is
    the product's minimum across everything seen.
    """
    sliced = as_table_slice(reports)
    table = sliced.table
    ratio, guard = table.ratio, table.guard
    # url_id -> [min price, max ratio, any variation, domain_id]
    acc: dict[int, list] = {}
    for i in sliced.rows:
        r = ratio[i]
        if r is None:
            continue
        lo = table.min_usd[i]
        varied = r > guard[i]
        entry = acc.get(table.url_id[i])
        if entry is None:
            acc[table.url_id[i]] = [lo, r, varied, table.domain_id[i]]
            continue
        if lo is not None and (entry[0] is None or lo < entry[0]):
            entry[0] = lo
        if r > entry[1]:
            entry[1] = r
        entry[2] = entry[2] or varied
    url_value, domain_value = table.urls.value, table.domains.value
    points = [
        ProductPoint(
            url=url_value(uid),
            domain=domain_value(entry[3]),
            min_price_usd=entry[0],
            max_ratio=entry[1],
        )
        for uid, entry in acc.items()
        if not (only_variation and not entry[2])
    ]
    points.sort(key=lambda p: p.min_price_usd)
    return points


@dataclass(frozen=True)
class VantageSeries:
    """One vantage point's line in Fig. 6: (price, ratio) pairs."""

    vantage: str
    points: tuple[tuple[float, float], ...]  # (min product price, ratio)

    def median_ratio(self) -> float:
        """The series' typical level: median ratio across its products."""
        if not self.points:
            raise ValueError("empty series")
        return percentile([ratio for _, ratio in self.points], 50)


def per_vantage_structure(
    reports: Sequence[PriceCheckReport],
    domain: str,
    *,
    vantages: Optional[Sequence[str]] = None,
) -> list[VantageSeries]:
    """Fig. 6's per-vantage ratio-vs-price structure for one retailer.

    For each product the per-day ratios of one vantage are reduced to their
    median (suppressing A/B flutter), yielding one (price, ratio) point per
    (product, vantage).
    """
    sliced = as_table_slice(reports)
    table = sliced.table
    did = table.domains.id_of(domain)
    per_product: dict[int, list[int]] = {}
    for i in sliced.rows:
        if table.domain_id[i] == did:
            per_product.setdefault(table.url_id[i], []).append(i)
    vantage_value = table.vantages.value
    series_points: dict[str, list[tuple[float, float]]] = {}
    for rows in per_product.values():
        mins = [table.min_usd[i] for i in rows if table.min_usd[i] is not None]
        if not mins:
            continue
        price = min(mins)
        per_vantage: dict[int, list[float]] = {}
        for i in rows:
            for vid, ratio in table.ratios_by_vantage(i):
                per_vantage.setdefault(vid, []).append(ratio)
        for vid, ratios in per_vantage.items():
            name = vantage_value(vid)
            if vantages is not None and name not in vantages:
                continue
            series_points.setdefault(name, []).append(
                (price, percentile(ratios, 50))
            )

    out = []
    for vantage in sorted(series_points):
        points = tuple(sorted(series_points[vantage]))
        out.append(VantageSeries(vantage=vantage, points=points))
    return out
