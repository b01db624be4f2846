"""Checkout quotes and attribution analysis tests."""

from __future__ import annotations

import pytest

from repro.analysis.attribution import CheckoutProbe
from repro.analysis.personal import derive_anchor_for_domain
from repro.core.backend import CheckRequest
from repro.ecommerce.checkout import (
    CheckoutQuote,
    ShippingPolicy,
    VAT_RATES,
    vat_rate,
)
from repro.ecommerce.localization import parse_price
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import select, select_one


class TestShippingPolicy:
    def test_domestic_vs_international(self):
        policy = ShippingPolicy(domestic=4.0, international=15.0)
        assert policy.cost("US", "US", 20.0) == 4.0
        assert policy.cost("FI", "US", 20.0) == 15.0

    def test_free_threshold(self):
        policy = ShippingPolicy(domestic=4.0, international=15.0, free_threshold=50.0)
        assert policy.cost("FI", "US", 60.0) == 0.0
        assert policy.cost("FI", "US", 49.0) == 15.0

    def test_bundled_display_zero(self):
        policy = ShippingPolicy(
            domestic=8.0, international=8.0, bundled_display=frozenset({"FI"})
        )
        assert policy.cost("FI", "GB", 10.0) == 0.0
        assert policy.cost("GB", "GB", 10.0) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShippingPolicy(domestic=-1.0)
        with pytest.raises(ValueError):
            ShippingPolicy(free_threshold=-5.0)


class TestVat:
    def test_eu_shop_charges_destination_rate(self):
        assert vat_rate("IT", "FI") == VAT_RATES["FI"]
        assert vat_rate("IT", "DE") == VAT_RATES["DE"]

    def test_eu_shop_exports_tax_free(self):
        assert vat_rate("IT", "US") == 0.0
        assert vat_rate("IT", "BR") == 0.0

    def test_non_eu_shop_charges_nothing(self):
        assert vat_rate("US", "FI") == 0.0
        assert vat_rate("US", "US") == 0.0

    def test_quote_total(self):
        quote = CheckoutQuote(item=10.0, shipping=2.0, tax=1.5, currency="USD")
        assert quote.total == 13.5
        with pytest.raises(ValueError):
            CheckoutQuote(item=-1.0, shipping=0, tax=0, currency="USD")


class TestCheckoutPage:
    def test_quote_page_structure(self, tiny_world):
        domain = "www.digitalrev.com"
        product = tiny_world.retailer(domain).catalog.products[0]
        vantage = tiny_world.vantage_points[0]  # Belgium
        response = vantage.fetch(
            tiny_world.network, f"http://{domain}/checkout/{product.sku}"
        )
        assert response.ok
        doc = parse_html(response.body)
        rows = select(doc, "table.checkout-summary tr.quote-line")
        assert [r.get("data-line") for r in rows] == [
            "item", "shipping", "tax", "total",
        ]

    def test_total_is_sum_of_lines(self, tiny_world):
        domain = "www.guess.eu"
        product = tiny_world.retailer(domain).catalog.products[0]
        vantage = next(v for v in tiny_world.vantage_points
                       if v.name == "Finland - Tampere")
        response = vantage.fetch(
            tiny_world.network, f"http://{domain}/checkout/{product.sku}"
        )
        doc = parse_html(response.body)
        values = {}
        for row in select(doc, "tr.quote-line"):
            cell = next(c for c in row.child_elements() if c.has_class("line-value"))
            values[row.get("data-line")] = parse_price(cell.text(strip=True)).amount
        assert values["total"] == pytest.approx(
            values["item"] + values["shipping"] + values["tax"], abs=0.03
        )
        # EU shop shipping to Finland: VAT charged at the Finnish rate.
        assert values["tax"] == pytest.approx(values["item"] * VAT_RATES["FI"], rel=0.02)

    def test_us_destination_no_tax(self, tiny_world):
        domain = "www.guess.eu"
        product = tiny_world.retailer(domain).catalog.products[0]
        vantage = next(v for v in tiny_world.vantage_points
                       if v.name == "USA - Boston")
        response = vantage.fetch(
            tiny_world.network, f"http://{domain}/checkout/{product.sku}"
        )
        doc = parse_html(response.body)
        tax_row = next(r for r in select(doc, "tr.quote-line")
                       if r.get("data-line") == "tax")
        cell = next(c for c in tax_row.child_elements() if c.has_class("line-value"))
        assert parse_price(cell.text(strip=True)).amount == 0.0

    def test_unknown_sku_404(self, tiny_world):
        vantage = tiny_world.vantage_points[0]
        response = vantage.fetch(
            tiny_world.network, "http://www.guess.eu/checkout/NOPE"
        )
        assert not response.ok


class TestAttribution:
    def _flagged_report(self, world, backend, domain):
        anchor = derive_anchor_for_domain(world, domain)
        product = world.retailer(domain).catalog.products[0]
        return backend.check(CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor,
        ))

    def test_discriminator_unexplained(self, tiny_world, tiny_backend):
        report = self._flagged_report(tiny_world, tiny_backend, "www.digitalrev.com")
        verdict = CheckoutProbe(tiny_world).attribute(report)
        assert verdict is not None
        assert verdict.unexplained
        assert not verdict.explained_by_logistics

    def test_bundling_confound_explained(self, tiny_world, tiny_backend):
        report = self._flagged_report(tiny_world, tiny_backend, "www.zavvi.com")
        assert report.has_variation  # the crowd would flag it...
        verdict = CheckoutProbe(tiny_world).attribute(report)
        assert verdict is not None
        assert verdict.explained_by_logistics  # ...and the probe clears it
        assert verdict.merchant_total_ratio == pytest.approx(1.0, abs=0.01)

    def test_quote_in_usd(self, tiny_world):
        probe = CheckoutProbe(tiny_world)
        product = tiny_world.retailer("www.digitalrev.com").catalog.products[0]
        quote = probe.quote("Finland - Tampere", "www.digitalrev.com", product.sku)
        assert quote is not None
        assert quote.item > 0
        assert quote.merchant_total == pytest.approx(quote.item + quote.shipping)

    def test_unknown_vantage_rejected(self, tiny_world):
        probe = CheckoutProbe(tiny_world)
        with pytest.raises(KeyError):
            probe.quote("Atlantis", "www.digitalrev.com", "X")

    def test_unknown_sku_yields_none(self, tiny_world):
        probe = CheckoutProbe(tiny_world)
        assert probe.quote("USA - Boston", "www.digitalrev.com", "NOPE") is None

    def test_free_shipping_retailer(self, tiny_world):
        """bookdepository ships free worldwide: merchant ratio == displayed."""
        probe = CheckoutProbe(tiny_world)
        product = tiny_world.retailer("www.bookdepository.co.uk").catalog.products[0]
        quote = probe.quote(
            "Brazil - Sao Paulo", "www.bookdepository.co.uk", product.sku
        )
        assert quote is not None
        assert quote.shipping == 0.0
