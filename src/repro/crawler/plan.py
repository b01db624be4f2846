"""Crawl planning: which retailers, which products, which anchor.

The paper's selection process: retailers "where $heriff revealed price
differences" (crowd evidence), plus carry-overs already flagged in the
authors' earlier HotNets study (chainreactioncycles, homedepot, rightstart
appear in the crawled figures without appearing in the crowd figures).

Product discovery is honest crawling: the shop's index page is fetched and
product links harvested, then up to ``products_per_retailer`` are sampled.
The price anchor per retailer models the one-time manual step the authors
performed -- an operator opens one product page, visually finds the price,
and the extension machinery derives the anchor used for every subsequent
automated extraction on that retailer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.ratios import domain_variation_counts
from repro.core.backend import SheriffBackend
from repro.core.highlight import PriceAnchor, derive_anchor
from repro.crowd.dataset import CrowdDataset
from repro.ecommerce.templates import selector_on_day
from repro.ecommerce.world import World
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import Selector
from repro.net.clock import SECONDS_PER_DAY
from repro.net.http import HttpResponse
from repro.net.transport import TransportError
from repro.net.urls import URL, urljoin
from repro.util import stable_rng

__all__ = ["CrawlTarget", "CrawlPlan", "build_plan", "PlanError"]


class PlanError(RuntimeError):
    """Raised when a crawl target cannot be prepared."""


@dataclass(frozen=True)
class CrawlTarget:
    """One retailer in the crawl: its products and its price anchor."""

    domain: str
    product_urls: tuple[str, ...]
    anchor: PriceAnchor

    def __post_init__(self) -> None:
        if not self.product_urls:
            raise ValueError(f"no products for {self.domain}")


@dataclass
class CrawlPlan:
    """The full crawl schedule."""

    targets: list[CrawlTarget] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def domains(self) -> list[str]:
        return [target.domain for target in self.targets]

    @property
    def total_product_urls(self) -> int:
        return sum(len(target.product_urls) for target in self.targets)


def select_domains_from_crowd(
    crowd: CrowdDataset,
    *,
    min_flagged: int = 2,
    max_retailers: int = 21,
    carry_overs: Sequence[str] = (),
) -> list[str]:
    """Rank crowd-flagged domains and append prior-work carry-overs.

    Carry-overs are guaranteed a slot (the authors crawled them regardless
    of crowd evidence); the crowd ranking fills the remaining budget.
    """
    counts = domain_variation_counts(crowd.reports())
    ranked = [domain for domain, count in counts.most_common() if count >= min_flagged]
    missing = [domain for domain in carry_overs if domain not in ranked]
    budget = max(0, max_retailers - len(missing))
    return (ranked[:budget] + missing)[:max_retailers]


def build_plan(
    world: World,
    *,
    domains: Optional[Sequence[str]] = None,
    crowd: Optional[CrowdDataset] = None,
    products_per_retailer: int = 100,
    min_flagged: int = 2,
    max_retailers: int = 21,
    seed: int = 2013,
) -> CrawlPlan:
    """Prepare crawl targets.

    ``domains`` pins the target list explicitly (the experiments pass the
    paper's 21); otherwise it is derived from ``crowd`` via
    :func:`select_domains_from_crowd`.  One of the two must be given.
    """
    if domains is None:
        if crowd is None:
            raise PlanError("need either explicit domains or a crowd dataset")
        flagged = domain_variation_counts(crowd.reports())
        domains = select_domains_from_crowd(
            crowd,
            min_flagged=min_flagged,
            max_retailers=max_retailers,
            carry_overs=[d for d in world.crawled_domains if d not in flagged],
        )
    if products_per_retailer <= 0:
        raise PlanError("products_per_retailer must be positive")

    rng = stable_rng(seed, "crawl-plan")
    targets: list[CrawlTarget] = []
    for domain in domains:
        if domain not in world.retailers:
            raise PlanError(f"unknown domain {domain!r}")
        product_urls = _discover_products(world, domain, products_per_retailer, rng)
        anchor = None
        failures: list[str] = []
        # The operator needs *one* loadable product page to highlight;
        # a shop whose first product happens to 404 (out of stock) just
        # costs them another click.
        for url in product_urls:
            try:
                anchor = _derive_retailer_anchor(world, domain, url)
                break
            except PlanError as exc:
                failures.append(str(exc))
        if anchor is None:
            shown = "; ".join(failures[:3])
            if len(failures) > 3:
                shown += f" (+{len(failures) - 3} more)"
            raise PlanError(
                f"no product page on {domain} yielded an anchor: {shown}"
            )
        targets.append(
            CrawlTarget(domain=domain, product_urls=tuple(product_urls), anchor=anchor)
        )
    return CrawlPlan(targets=targets)


def _operator_fetch(world: World, url: str, *, what: str) -> HttpResponse:
    """One plan-time page load, reloading on transient network failures.

    Plan preparation is the operator's manual work; like the backend's
    fan-out, the operator retries a bounded number of times before
    declaring the retailer unreachable.
    """
    reference = world.vantage_points[0]
    try:
        return reference.fetch_with_retries(world.network, url)
    except TransportError as exc:
        raise PlanError(f"{what} fetch failed for {url}: {exc}") from exc


def _discover_products(
    world: World, domain: str, limit: int, rng
) -> list[str]:
    """Harvest product links from the shop's index page."""
    response = _operator_fetch(world, f"http://{domain}/", what="index")
    if not response.ok:
        raise PlanError(f"index fetch failed for {domain}: {response.status}")
    document = parse_html(response.body)
    links = Selector.parse("ul.catalog-list a").select(document)
    hrefs = [link.get("href") for link in links if link.get("href")]
    if not hrefs:
        raise PlanError(f"no product links found on {domain}")
    base = URL.parse(f"http://{domain}/")
    urls = [str(urljoin(base, href)) for href in hrefs]
    if len(urls) > limit:
        urls = rng.sample(urls, limit)
    return sorted(urls)


def _derive_retailer_anchor(world: World, domain: str, product_url: str) -> PriceAnchor:
    """The manual highlight, per retailer (re-done per day when churning).

    The template's ``price_selector`` stands in for the operator's eyes.
    Day-aware templates (the scenario layer's churning template swaps
    families between days) expose ``selector_for_day``; the operator
    reads the page actually rendered *today*, so the anchor matches the
    day's structure.
    """
    day_index = int(world.clock.now // SECONDS_PER_DAY)
    response = _operator_fetch(world, product_url, what="anchor page")
    if not response.ok:
        raise PlanError(f"anchor page fetch failed for {domain}")
    document = parse_html(response.body)
    selector = selector_on_day(world.retailer(domain).template, day_index)
    element = Selector.parse(selector).select_one(document)
    if element is None:
        raise PlanError(f"operator could not locate the price on {domain}")
    return derive_anchor(document, element)
