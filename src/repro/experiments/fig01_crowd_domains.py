"""Fig. 1: domains with the highest number of requests showing price
differences, in the crowdsourced dataset."""

from __future__ import annotations

from repro.analysis.ratios import domain_variation_counts
from repro.experiments.base import FigureResult
from repro.experiments.context import ExperimentContext

#: The head of the paper's Fig. 1 ordering (most-flagged first).
PAPER_TOP_DOMAINS = (
    "www.amazon.com",
    "www.hotels.com",
    "store.steampowered.com",
    "www.misssixty.com",
    "www.energie.it",
)


def run(ctx: ExperimentContext) -> FigureResult:
    """Regenerate Fig. 1 from the crowdsourced dataset."""
    result = FigureResult(
        figure_id="FIG1",
        title="Domains with the highest number of requests with price differences",
        paper_claim=(
            "a diverse head led by amazon/hotels/steam with counts spanning "
            "roughly 2-50 on a log axis; niche and local shops appear too"
        ),
        columns=("domain", "requests_with_differences"),
    )
    counts = domain_variation_counts(ctx.crowd.reports())
    ranked = counts.most_common()
    for domain, count in ranked:
        result.add_row(domain, count)

    top = [domain for domain, _ in ranked[:8]]
    result.check(
        "amazon/hotels/steam occupy the head",
        all(domain in top for domain in PAPER_TOP_DOMAINS[:3]),
    )
    result.check(
        "counts span an order of magnitude",
        bool(ranked) and ranked[0][1] >= 5 * max(1, ranked[-1][1]),
    )
    named = set(PAPER_TOP_DOMAINS)
    result.check(
        "long-tail shops rarely flagged",
        sum(count for domain, count in ranked if domain not in named
            and "www." + domain.split(".", 1)[-1] != domain) <= len(ctx.crowd),
    )
    honest = [d for d in ctx.world.long_tail if counts.get(d, 0) > 0]
    result.check("no uniform-priced long-tail shop is flagged", not honest)
    result.notes.append(
        f"{len(ranked)} domains flagged out of {ctx.crowd.n_domains} checked"
    )
    return result
