"""Location-axis analyses (Figs. 7, 8 and 9).

Fig. 7: distribution, per vantage point, of price(location)/min-price over
all products -- shows USA/Brazil cheap, Europe dearer, Finland dearest.

Fig. 8: pairwise location grids for one retailer -- each panel scatters
ratio-at-location-Y against ratio-at-location-X per product; diagonal =
equal prices, points hugging an axis = one side consistently dearer, blobs
off-diagonal both ways = "mixed" pricing.

Fig. 9: Finland's ratio-to-minimum per retailer -- almost never 1.0
(Finland almost never the cheap location; exceptions mauijim and
tuscanyleather).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import BoxStats, grouped_box_stats, percentile
from repro.core.reports import PriceCheckReport
from repro.store import as_table_slice

__all__ = [
    "location_ratios",
    "location_ratio_stats",
    "pairwise_grid",
    "PairwisePanel",
    "finland_profile",
]


def location_ratios(reports: Sequence[PriceCheckReport]) -> dict[str, list[float]]:
    """vantage name -> every price(loc)/min(product) sample (Fig. 7's input)."""
    sliced = as_table_slice(reports)
    table = sliced.table
    grouped: dict[int, list[float]] = {}
    for i in sliced.rows:
        for vid, ratio in table.ratios_by_vantage(i):
            grouped.setdefault(vid, []).append(ratio)
    value = table.vantages.value
    return {value(vid): values for vid, values in grouped.items()}


def location_ratio_stats(
    reports: Sequence[PriceCheckReport], *, min_samples: int = 1
) -> dict[str, BoxStats]:
    """vantage name -> box stats of price(loc)/min(product) (Fig. 7)."""
    return grouped_box_stats(location_ratios(reports), min_samples=min_samples)


@dataclass(frozen=True)
class PairwisePanel:
    """One panel of a Fig. 8 grid: per-product ratio pairs for (row, col)."""

    row_location: str
    col_location: str
    points: tuple[tuple[float, float], ...]  # (x=col ratio, y=row ratio)

    def fraction_row_dearer(self, *, tolerance: float = 0.01) -> float:
        """Share of products where the row location pays strictly more."""
        if not self.points:
            return 0.0
        dearer = sum(1 for x, y in self.points if y > x * (1 + tolerance))
        return dearer / len(self.points)

    def fraction_equal(self, *, tolerance: float = 0.01) -> float:
        """Share of products where both locations pay the same."""
        if not self.points:
            return 1.0
        equal = sum(
            1 for x, y in self.points
            if y <= x * (1 + tolerance) and x <= y * (1 + tolerance)
        )
        return equal / len(self.points)

    def relationship(self, *, tolerance: float = 0.01) -> str:
        """Classify the panel: 'equal', 'row-dearer', 'col-dearer', 'mixed'.

        A product is neutral when the two ratios differ by less than
        ``tolerance``; the panel is 'equal' when >=90% of products are
        neutral, one-sided when the non-neutral products all lean one way,
        'mixed' otherwise.
        """
        if not self.points:
            return "equal"
        row_side = sum(1 for x, y in self.points if y > x * (1 + tolerance))
        col_side = sum(1 for x, y in self.points if x > y * (1 + tolerance))
        neutral = len(self.points) - row_side - col_side
        if neutral >= 0.9 * len(self.points):
            return "equal"
        if row_side > 0 and col_side == 0:
            return "row-dearer"
        if col_side > 0 and row_side == 0:
            return "col-dearer"
        return "mixed"


def pairwise_grid(
    reports: Sequence[PriceCheckReport],
    domain: str,
    locations: Sequence[str],
) -> dict[tuple[str, str], PairwisePanel]:
    """Fig. 8's grid for ``domain`` over the given vantage names.

    Per product, each location's ratio-to-minimum is the median across
    measurement rounds; panels are produced for every ordered pair
    (row != col).
    """
    if len(locations) < 2:
        raise ValueError("need at least two locations")
    per_product = _median_ratios_per_product(reports, domain)

    grid: dict[tuple[str, str], PairwisePanel] = {}
    for row in locations:
        for col in locations:
            if row == col:
                continue
            points = []
            for ratios in per_product.values():
                if row in ratios and col in ratios:
                    points.append((ratios[col], ratios[row]))
            grid[(row, col)] = PairwisePanel(
                row_location=row, col_location=col, points=tuple(points)
            )
    return grid


def _median_ratios_per_product(
    reports: Sequence[PriceCheckReport], domain: str
) -> dict[str, dict[str, float]]:
    sliced = as_table_slice(reports)
    table = sliced.table
    did = table.domains.id_of(domain)
    if did is None:
        return {}
    acc: dict[int, dict[int, list[float]]] = {}
    for i in sliced.rows:
        if table.domain_id[i] != did:
            continue
        per_url = acc.setdefault(table.url_id[i], {})
        for vid, ratio in table.ratios_by_vantage(i):
            per_url.setdefault(vid, []).append(ratio)
    url_value, vantage_value = table.urls.value, table.vantages.value
    return {
        url_value(uid): {
            vantage_value(vid): percentile(values, 50)
            for vid, values in ratios.items()
        }
        for uid, ratios in acc.items()
    }


def finland_profile(
    reports: Sequence[PriceCheckReport],
    *,
    finland_vantage: str = "Finland - Tampere",
    min_samples: int = 1,
) -> dict[str, BoxStats]:
    """domain -> box stats of Finland's ratio-to-minimum (Fig. 9)."""
    sliced = as_table_slice(reports)
    table = sliced.table
    fin_id = table.vantages.id_of(finland_vantage)
    grouped: dict[int, list[float]] = {}
    if fin_id is not None:
        for i in sliced.rows:
            for vid, ratio in table.ratios_by_vantage(i):
                if vid == fin_id:
                    grouped.setdefault(table.domain_id[i], []).append(ratio)
                    break
    value = table.domains.value
    samples = {value(did): values for did, values in grouped.items()}
    return grouped_box_stats(samples, min_samples=min_samples)
