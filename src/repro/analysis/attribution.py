"""Attribution: can shipping or tax explain an observed price gap?

The paper performed this check manually (§2.2): "For factors like taxation,
shipping costs, and custom duties, we manually checked to ensure these
reasons cannot explain the price differences."  This module automates it.

For a flagged check, the probe visits the retailer's checkout page from the
cheapest and the dearest vantage points and itemizes both quotes.  The
verdict compares the *merchant totals* (item + shipping -- tax is owed to
the destination government either way, and duties settle post-sale):

* if the displayed gap survives in the merchant totals, logistics cannot
  explain it -- the paper's conclusion for every retailer it examined;
* if the merchant totals are (guard-)equal while the displayed prices
  differ, the shop is merely bundling shipping into some destinations'
  displayed prices -- variation, but not discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.reports import PriceCheckReport
from repro.ecommerce.localization import locale_for_country, parse_price
from repro.ecommerce.world import World
from repro.fx.convert import Converter
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import Selector
from repro.net.clock import SECONDS_PER_DAY
from repro.net.urls import URL

__all__ = ["CheckoutProbe", "QuoteInUSD", "AttributionVerdict"]

_LINE_SELECTOR = Selector.parse("table.checkout-summary tr.quote-line")


@dataclass(frozen=True)
class QuoteInUSD:
    """A checkout quote, normalized to USD at the day's mid rate."""

    vantage: str
    item: float
    shipping: float
    tax: float

    @property
    def merchant_total(self) -> float:
        """What the retailer actually collects: item + shipping."""
        return self.item + self.shipping

    @property
    def total(self) -> float:
        return self.item + self.shipping + self.tax


@dataclass(frozen=True)
class AttributionVerdict:
    """The outcome of attributing one flagged check."""

    url: str
    domain: str
    displayed_ratio: float
    merchant_total_ratio: float
    cheap_quote: QuoteInUSD
    dear_quote: QuoteInUSD
    guard: float

    @property
    def explained_by_logistics(self) -> bool:
        """True when shipping bundling accounts for the displayed gap."""
        return (
            self.displayed_ratio > self.guard
            and self.merchant_total_ratio <= self.guard
        )

    @property
    def unexplained(self) -> bool:
        """True when the gap persists net of shipping -- the paper's
        "could not attribute ... to currency, shipping, or taxation"."""
        return self.merchant_total_ratio > self.guard


class CheckoutProbe:
    """Fetches and parses checkout quotes through the vantage fleet."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._converter = Converter(world.rates)
        self._vantage_by_name = {v.name: v for v in world.vantage_points}

    # ------------------------------------------------------------------
    def quote(self, vantage_name: str, domain: str, sku: str) -> Optional[QuoteInUSD]:
        """One vantage point's checkout quote for ``sku``, in USD."""
        vantage = self._vantage_by_name.get(vantage_name)
        if vantage is None:
            raise KeyError(f"unknown vantage point {vantage_name!r}")
        response = vantage.fetch(
            self.world.network, f"http://{domain}/checkout/{sku}"
        )
        if not response.ok:
            return None
        document = parse_html(response.body)
        locale = locale_for_country(vantage.location.country_code)
        lines: dict[str, float] = {}
        currency: Optional[str] = None
        for row in _LINE_SELECTOR.select(document):
            name = row.get("data-line")
            value_cell = next(
                (c for c in row.child_elements() if c.has_class("line-value")),
                None,
            )
            if not name or value_cell is None:
                continue
            parsed = parse_price(value_cell.text(strip=True), locale_hint=locale)
            lines[name] = parsed.amount
            currency = currency or parsed.currency
        if not {"item", "shipping", "tax"} <= set(lines):
            return None
        code = currency or locale.currency.code
        day = int(self.world.clock.now // SECONDS_PER_DAY)

        def usd(amount: float) -> float:
            return self._converter.to_usd(amount, code, day)

        return QuoteInUSD(
            vantage=vantage_name,
            item=usd(lines["item"]),
            shipping=usd(lines["shipping"]),
            tax=usd(lines["tax"]),
        )

    # ------------------------------------------------------------------
    def attribute(self, report: PriceCheckReport) -> Optional[AttributionVerdict]:
        """Attribute one flagged report; ``None`` when probing fails."""
        ratio = report.ratio
        if ratio is None:
            return None
        valid = report.valid_observations()
        cheapest = min(valid, key=lambda obs: obs.usd or 0.0)
        dearest = max(valid, key=lambda obs: obs.usd or 0.0)
        sku = _sku_from_url(self.world, report.domain, report.url)
        if sku is None:
            return None
        cheap_quote = self.quote(cheapest.vantage, report.domain, sku)
        dear_quote = self.quote(dearest.vantage, report.domain, sku)
        if cheap_quote is None or dear_quote is None:
            return None
        merchant_ratio = (
            dear_quote.merchant_total / cheap_quote.merchant_total
            if cheap_quote.merchant_total > 0
            else 1.0
        )
        return AttributionVerdict(
            url=report.url,
            domain=report.domain,
            displayed_ratio=ratio,
            merchant_total_ratio=merchant_ratio,
            cheap_quote=cheap_quote,
            dear_quote=dear_quote,
            guard=report.guard_threshold,
        )


def _sku_from_url(world: World, domain: str, url: str) -> Optional[str]:
    retailer = world.retailers.get(domain)
    if retailer is None:
        return None
    path = URL.parse(url).path
    product = retailer.catalog.by_path(path)
    return product.sku if product else None
