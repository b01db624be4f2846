"""§2.2 attribution check, automated: shipping/tax cannot explain the gaps.

The paper: "To the best of our efforts we could not attribute the observed
price gaps to currency, shipping, or taxation differences."  We reproduce
that as a measurement -- checkout quotes are scraped from the cheapest and
dearest vantage points for a sample of flagged products -- and additionally
demonstrate the positive control: zavvi.com bundles shipping into non-UK
displayed prices, and the probe correctly *clears* it.
"""

from __future__ import annotations

from repro.analysis.attribution import CheckoutProbe
from repro.analysis.personal import derive_anchor_for_domain
from repro.core.backend import CheckRequest
from repro.experiments.base import FigureResult
from repro.experiments.context import ExperimentContext

CONFOUND_DOMAIN = "www.zavvi.com"


def run(ctx: ExperimentContext) -> FigureResult:
    """Run the automated §2.2 shipping/tax attribution."""
    result = FigureResult(
        figure_id="TAB-ATTR",
        title="Attribution: can shipping/tax explain the flagged gaps? (§2.2)",
        paper_claim=(
            "price gaps could not be attributed to currency, shipping, or "
            "taxation differences"
        ),
        columns=("domain", "displayed_ratio", "merchant_total_ratio", "verdict"),
    )
    probe = CheckoutProbe(ctx.world)

    # One flagged product per crawled retailer.
    sampled = {}
    for report in ctx.crawl_clean.kept.with_variation():
        sampled.setdefault(report.domain, report)
    verdicts = []
    for domain in sorted(sampled):
        verdict = probe.attribute(sampled[domain])
        if verdict is None:
            continue
        verdicts.append(verdict)
        result.add_row(
            domain, verdict.displayed_ratio, verdict.merchant_total_ratio,
            "logistics" if verdict.explained_by_logistics else "unexplained",
        )

    # Positive control: the shipping-bundling confound.
    anchor = derive_anchor_for_domain(ctx.world, CONFOUND_DOMAIN)
    product = ctx.world.retailer(CONFOUND_DOMAIN).catalog.products[0]
    confound_report = ctx.backend.check(CheckRequest(
        url=f"http://{CONFOUND_DOMAIN}{product.path}", anchor=anchor,
    ))
    confound = probe.attribute(confound_report)
    if confound is not None:
        result.add_row(
            CONFOUND_DOMAIN, confound.displayed_ratio,
            confound.merchant_total_ratio,
            "logistics" if confound.explained_by_logistics else "unexplained",
        )

    result.check(
        "every crawled retailer's gap survives net of shipping/tax",
        bool(verdicts) and all(v.unexplained for v in verdicts),
    )
    result.check(
        "attribution probed most crawled retailers",
        len(verdicts) >= 0.8 * len(sampled),
    )
    result.check(
        "the bundled-shipping confound is correctly cleared (zavvi)",
        confound is not None
        and confound.displayed_ratio > confound.guard
        and confound.explained_by_logistics,
    )
    result.notes.append(
        f"{len(verdicts)} retailers probed; merchant total = item + shipping "
        f"(tax is destination-government revenue either way)"
    )
    return result
