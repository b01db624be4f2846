"""Fig. 7: magnitude of price differences per location (all retailers)."""

from __future__ import annotations

import statistics

from repro.analysis.locations import location_ratios
from repro.analysis.stats import grouped_box_stats
from repro.experiments.base import FigureResult
from repro.experiments.context import ExperimentContext

US_VANTAGES = (
    "USA - Boston", "USA - Chicago", "USA - Lincoln",
    "USA - Los Angeles", "USA - New York", "USA - Albany",
)
EU_VANTAGES = (
    "Belgium - Liege", "Germany - Berlin",
    "Spain (Linux,FF)", "Spain (Mac,Safari)", "Spain (Win,Chrome)",
)
SPAIN_VANTAGES = ("Spain (Linux,FF)", "Spain (Mac,Safari)", "Spain (Win,Chrome)")


def run(ctx: ExperimentContext) -> FigureResult:
    """Regenerate Fig. 7's per-location distributions."""
    result = FigureResult(
        figure_id="FIG7",
        title="Magnitude of price differences per location (all retailers)",
        paper_claim=(
            "USA and Brazil tend to get lower prices than Europe; within "
            "Europe, Finland stands out as the most expensive location"
        ),
        columns=("location", "n", "median", "mean", "q75", "whisker_high"),
    )
    samples = location_ratios(ctx.crawl_clean.kept)
    stats = grouped_box_stats(samples)
    means = {vantage: statistics.fmean(values) for vantage, values in samples.items()}

    for vantage in sorted(stats, key=lambda v: means.get(v, 0.0)):
        s = stats[vantage]
        result.add_row(vantage, s.n, s.median, means[vantage], s.q75, s.whisker_high)

    fi = means.get("Finland - Tampere", 0.0)
    result.check(
        "Finland is the most expensive location",
        fi == max(means.values())
        and stats["Finland - Tampere"].q75 == max(s.q75 for s in stats.values()),
    )
    # The paper reads the claim off the boxes: US/Brazil boxes sit low,
    # European boxes reach higher.  Box tops (q75) are the robust measure;
    # raw means are nearly tied because a handful of luxury exceptions
    # (mauijim/tuscany/luisaviaroma) charge the US heavily.
    us_q75 = statistics.fmean(stats[v].q75 for v in US_VANTAGES)
    eu_q75 = statistics.fmean(stats[v].q75 for v in EU_VANTAGES)
    result.check(
        "US boxes sit below continental-Europe boxes (q75)", us_q75 < eu_q75
    )
    br = stats.get("Brazil - Sao Paulo")
    result.check(
        "Brazil among the cheapest locations (q75 below Europe's)",
        br is not None and br.q75 <= eu_q75
        and br.q75 <= stats["UK - London"].q75,
    )
    spain = [means[v] for v in SPAIN_VANTAGES]
    result.check(
        "browser configuration alone changes nothing (Spain x3 equal)",
        max(spain) - min(spain) < 0.005,
    )
    return result
