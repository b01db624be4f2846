"""Template rendering and retailer server tests."""

from __future__ import annotations

import pytest

from repro.ecommerce.catalog import generate_catalog
from repro.ecommerce.localization import LOCALES, parse_price
from repro.ecommerce.pricing import GeoMultiplicative, UniformPricing
from repro.ecommerce.retailer import Retailer, RetailerServer
from repro.ecommerce.templates import (
    TEMPLATE_FAMILIES,
    ProductView,
    render_index_page,
    template_for,
)
from repro.ecommerce.thirdparty import TRACKER_CENSUS, trackers_for_retailer
from repro.fx.rates import RateService
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import Selector, select, select_one
from repro.htmlmodel.serialize import to_html
from repro.net.geoip import IPAddressPlan
from repro.net.http import Headers, HttpRequest, HttpStatus
from repro.net.urls import URL


def make_view(template_seed: int = 0, **overrides) -> ProductView:
    catalog = generate_catalog("shop.example", "clothing", 6, seed=1)
    product = catalog.products[0]
    recommended = [(p, f"${p.base_price_usd:.2f}") for p in catalog.products[1:5]]
    defaults = dict(
        retailer_name="Test Shop",
        domain="shop.example",
        product=product,
        price_text="$19.99",
        lang="en-US",
        currency_code="USD",
        recommended=recommended,
        trackers=TRACKER_CENSUS[:2],
        structural_seed=template_seed,
    )
    defaults.update(overrides)
    return ProductView(**defaults)


class TestTemplates:
    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_price_selector_finds_the_price(self, template):
        doc = template.render(make_view())
        element = select_one(doc, template.price_selector)
        assert element is not None
        assert element.text(strip=True) == "$19.99"

    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_price_selector_unique(self, template):
        doc = template.render(make_view())
        assert len(select(doc, template.price_selector)) == 1

    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_decoy_prices_present(self, template):
        """Every template buries the real price among recommendations."""
        doc = template.render(make_view())
        text = doc.text()
        assert text.count("$") >= 5  # product price + 4 decoys

    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_tracker_scripts_embedded(self, template):
        doc = template.render(make_view())
        scripts = [e.get("src") for e in doc.iter_elements() if e.tag == "script"]
        assert any("google-analytics" in (s or "") for s in scripts)

    def test_structural_seed_changes_banners(self):
        template = TEMPLATE_FAMILIES[0]
        sizes = set()
        for seed in range(12):
            doc = template.render(make_view(template_seed=seed))
            banners = select(doc, "div.promo-banner")
            sizes.add(len(banners))
        assert len(sizes) > 1  # structure actually shifts between renders

    def test_login_state_rendered(self):
        template = TEMPLATE_FAMILIES[0]
        doc = template.render(make_view(logged_in_user="alice"))
        assert "alice" in doc.text()
        anon = template.render(make_view())
        assert "Sign in" in anon.text()

    def test_template_assignment_deterministic(self):
        assert template_for("www.amazon.com").name == template_for("www.amazon.com").name
        names = {template_for(f"shop{i}.example").name for i in range(40)}
        assert len(names) == len(TEMPLATE_FAMILIES)

    def test_index_page_lists_products(self):
        catalog = generate_catalog("shop.example", "books", 7, seed=1)
        doc = render_index_page(
            "Test", "shop.example", catalog.products, locale=LOCALES["US"]
        )
        links = select(doc, "ul.catalog-list a")
        assert len(links) == 7
        assert all(link.get("href", "").startswith("/") for link in links)


@pytest.fixture()
def server() -> RetailerServer:
    plan = IPAddressPlan()
    catalog = generate_catalog("shop.example", "clothing", 8, seed=3)
    retailer = Retailer(
        domain="shop.example",
        name="Test Shop",
        category="clothing",
        catalog=catalog,
        policy=GeoMultiplicative(table={"FI": 1.25, "US": 1.0}, default=1.1),
        template=TEMPLATE_FAMILIES[0],
        trackers=trackers_for_retailer("shop.example"),
        supports_login=True,
    )
    return RetailerServer(
        retailer, geoip=plan.database(), rates=RateService(), seed=1
    )


def request_from(server, path: str, country: str = "US", *, cookies: str = "",
                 timestamp: float = 0.0) -> HttpRequest:
    plan = IPAddressPlan()
    headers = Headers()
    if cookies:
        headers.set("Cookie", cookies)
    return HttpRequest(
        method="GET",
        url=URL.parse(f"http://shop.example{path}"),
        headers=headers,
        client_ip=plan.allocate(country),
        timestamp=timestamp,
    )


class TestRetailerServer:
    def test_product_page_ok(self, server):
        item = server.retailer.catalog.products[0]
        response = server.handle(request_from(server, item.path))
        assert response.status == HttpStatus.OK
        assert item.name in response.body

    def test_unknown_path_404(self, server):
        response = server.handle(request_from(server, "/nope"))
        assert response.status == HttpStatus.NOT_FOUND

    def test_us_client_sees_usd(self, server):
        item = server.retailer.catalog.products[0]
        response = server.handle(request_from(server, item.path, "US"))
        doc = parse_html(response.body)
        price = select_one(doc, "#product-price").text()
        assert parse_price(price).currency == "USD"

    def test_fi_client_sees_eur_and_premium(self, server):
        item = server.retailer.catalog.products[0]
        us = server.handle(request_from(server, item.path, "US"))
        fi = server.handle(request_from(server, item.path, "FI"))
        us_price = parse_price(select_one(parse_html(us.body), "#product-price").text())
        fi_price = parse_price(select_one(parse_html(fi.body), "#product-price").text())
        assert us_price.currency == "USD"
        assert fi_price.currency == "EUR"
        rate = RateService().rate("EUR", 0).mid
        assert fi_price.amount * rate == pytest.approx(us_price.amount * 1.25, rel=0.01)

    def test_session_cookie_set_once(self, server):
        item = server.retailer.catalog.products[0]
        first = server.handle(request_from(server, item.path))
        assert any(c.name == "session" for c in first.set_cookies)
        again = server.handle(
            request_from(server, item.path, cookies="session=s123")
        )
        assert not any(c.name == "session" for c in again.set_cookies)

    def test_index_lists_catalog(self, server):
        response = server.handle(request_from(server, "/"))
        doc = parse_html(response.body)
        links = select(doc, "ul.catalog-list a")
        assert len(links) == len(server.retailer.catalog)

    def test_login_flow(self, server):
        response = server.handle(request_from(server, "/login?user=alice"))
        assert response.status.is_redirect
        assert any(
            c.name == "auth" and c.value == "alice" for c in response.set_cookies
        )

    def test_login_form_without_user(self, server):
        response = server.handle(request_from(server, "/login"))
        assert response.ok
        assert "form" in response.body

    def test_login_rejected_when_unsupported(self):
        plan = IPAddressPlan()
        retailer = Retailer(
            domain="s.x", name="S", category="books",
            catalog=generate_catalog("s.x", "books", 2, seed=1),
            policy=UniformPricing(), template=TEMPLATE_FAMILIES[1],
        )
        server = RetailerServer(retailer, geoip=plan.database(), rates=RateService())
        response = server.handle(request_from(server, "/login?user=x"))
        assert response.status == HttpStatus.NOT_FOUND

    def test_non_localizing_retailer_always_home_currency(self):
        plan = IPAddressPlan()
        retailer = Retailer(
            domain="us-only.example", name="US Only", category="books",
            catalog=generate_catalog("us-only.example", "books", 2, seed=1),
            policy=UniformPricing(), template=TEMPLATE_FAMILIES[0],
            localizes_currency=False, home_country="US",
        )
        server = RetailerServer(retailer, geoip=plan.database(), rates=RateService())
        item = retailer.catalog.products[0]
        headers = Headers()
        request = HttpRequest(
            method="GET", url=URL.parse(f"http://us-only.example{item.path}"),
            headers=headers, client_ip=plan.allocate("FI"),
        )
        response = server.handle(request)
        price = select_one(parse_html(response.body), "#product-price").text()
        assert parse_price(price).currency == "USD"

    def test_unknown_client_ip_defaults_home(self, server):
        item = server.retailer.catalog.products[0]
        request = HttpRequest(
            method="GET", url=URL.parse(f"http://shop.example{item.path}"),
            headers=Headers(), client_ip="1.2.3.4",
        )
        response = server.handle(request)
        assert response.ok

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            Retailer(
                domain="bad/domain", name="X", category="books",
                catalog=generate_catalog("x", "books", 1, seed=1),
                policy=UniformPricing(), template=TEMPLATE_FAMILIES[0],
            )
