"""Parse-once fan-out: caches, batching, and dedupe behave transparently.

The perf layer must be invisible to results: cached parses yield the same
trees, the structured fast path extracts exactly what a string re-parse
would, batched checks report byte-identically to sequential ones, and the
deduped archive still returns every page's full HTML.
"""

from __future__ import annotations

import pytest

from repro.core.backend import CheckRequest, SheriffBackend
from repro.core.extraction import extract_price, extract_price_from_document
from repro.core.store import PageStore
from repro.ecommerce.localization import locale_for_country
from repro.ecommerce.templates import TEMPLATE_FAMILIES, ProductView
from repro.ecommerce.world import WorldConfig, build_world
from repro.htmlmodel.dom import Document, Element, Text
from repro.htmlmodel.parser import (
    parse_cache_stats,
    parse_html,
    parse_html_cached,
    reset_parse_cache,
)
from repro.htmlmodel.serialize import to_html
from repro.net.geoip import GeoLocation
from repro.net.transport import Network
from repro.net.useragent import profile_for
from repro.net.vantage import VantagePoint


def anchor_for(world, domain: str):
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def product_url(world, domain: str, index: int = 0) -> str:
    product = world.retailer(domain).catalog.products[index]
    return f"http://{domain}{product.path}"


def trees_equal(a, b) -> bool:
    """Structural equality: tags, attrs, and text runs, in order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Text):
        return a.data == b.data
    if isinstance(a, Element) and (a.tag != b.tag or a.attrs != b.attrs):
        return False
    if len(a.children) != len(b.children):
        return False
    return all(trees_equal(x, y) for x, y in zip(a.children, b.children))


# ----------------------------------------------------------------------
# parse_html_cached
# ----------------------------------------------------------------------
class TestParseCache:
    def _family_pages(self, tiny_world) -> list[str]:
        """One serialized product page per template family."""
        product = tiny_world.retailer("www.digitalrev.com").catalog.products[0]
        locale = locale_for_country("US")
        pages = []
        for template in TEMPLATE_FAMILIES:
            view = ProductView(
                retailer_name="Shop",
                domain="shop.example",
                product=product,
                price_text=locale.format_price(129.99),
                lang=locale.code,
                currency_code=locale.currency.code,
                structural_seed=7,
            )
            pages.append(to_html(template.render(view)))
        return pages

    def test_cached_and_uncached_trees_identical_per_family(self, tiny_world):
        reset_parse_cache()
        pages = self._family_pages(tiny_world)
        assert len(pages) == 4  # the paper-world's four template families
        for html in pages:
            fresh = parse_html(html)
            cached = parse_html_cached(html)
            assert trees_equal(fresh, cached)
            assert to_html(fresh) == to_html(cached)

    def test_hit_returns_shared_document_and_counts(self):
        reset_parse_cache()
        html = "<html><body><p id='x'>hello</p></body></html>"
        first = parse_html_cached(html)
        second = parse_html_cached(html)
        assert first is second  # shared, read-only tree
        # A distinct-but-equal string object also hits (content-keyed).
        third = parse_html_cached(html[:10] + html[10:])
        assert third is first
        stats = parse_cache_stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_reset_clears_entries_and_counters(self):
        parse_html_cached("<p>x</p>")
        reset_parse_cache()
        stats = parse_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "hit_rate": 0.0, "entries": 0}


# ----------------------------------------------------------------------
# Structured fast path vs. string re-parse
# ----------------------------------------------------------------------
class TestStructuredFastPath:
    def test_responses_carry_documents(self, tiny_world):
        domain = "www.digitalrev.com"
        vantage = tiny_world.vantage_points[0]
        response = vantage.fetch(tiny_world.network, product_url(tiny_world, domain))
        assert isinstance(response.document, Document)
        # The attached tree serializes to exactly the wire body.
        assert to_html(response.document) == response.body

    def test_extraction_identical_to_string_reparse(self, tiny_world):
        """Acceptance: amounts, currencies, and methods are bit-identical
        between the structured fast path and the string re-parse path."""
        domains = tiny_world.crawled_domains[:6]
        for domain in domains:
            anchor = anchor_for(tiny_world, domain)
            for vantage in tiny_world.vantage_points[:4]:
                response = vantage.fetch(
                    tiny_world.network, product_url(tiny_world, domain)
                )
                locale = locale_for_country(vantage.location.country_code)
                fast = extract_price_from_document(
                    response.document, anchor, locale_hint=locale
                )
                slow = extract_price(
                    response.body, anchor, locale_hint=locale, cache=False
                )
                assert fast == slow


# ----------------------------------------------------------------------
# check_batch
# ----------------------------------------------------------------------
def _fresh_setup():
    world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    domain = "www.digitalrev.com"
    anchor = anchor_for(world, domain)
    requests = [
        CheckRequest(url=product_url(world, domain, i), anchor=anchor)
        for i in range(3)
    ]
    return world, backend, requests


class TestCheckBatch:
    def test_batch_reports_identical_to_sequential(self):
        """The batch path amortizes work without changing a single byte of
        the reports: two identical worlds, one checked sequentially, one
        batched, must agree on every field of every observation."""
        _, backend_a, requests_a = _fresh_setup()
        _, backend_b, requests_b = _fresh_setup()

        sequential = [backend_a.check(request) for request in requests_a]
        batched = backend_b.check_batch(requests_b)
        assert sequential == batched

    def test_batch_pacing_matches_manual_advance(self):
        world_a, backend_a, requests_a = _fresh_setup()
        world_b, backend_b, requests_b = _fresh_setup()

        sequential = []
        for request in requests_a:
            sequential.append(backend_a.check(request))
            world_a.clock.advance(2.0)
        batched = backend_b.check_batch(requests_b, pacing_seconds=2.0)
        assert sequential == batched
        assert world_a.clock.now == world_b.clock.now

    def test_batch_rejects_negative_pacing(self):
        _, backend, requests = _fresh_setup()
        with pytest.raises(ValueError):
            backend.check_batch(requests, pacing_seconds=-1.0)

    def test_empty_batch(self):
        _, backend, _ = _fresh_setup()
        assert backend.check_batch([]) == []


# ----------------------------------------------------------------------
# PageStore dedupe
# ----------------------------------------------------------------------
class TestStoreDedup:
    def _archive(self, store: PageStore, html: str, n: int, domain="shop.x"):
        for i in range(n):
            store.archive(
                check_id=f"c{i}", url="http://shop.x/p", domain=domain,
                vantage=f"v{i}", timestamp=float(i), html=html,
            )

    def test_duplicate_bodies_stored_once(self):
        store = PageStore(html_per_domain=100)
        self._archive(store, "<html>same</html>", 10)
        self._archive(store, "<html>other</html>", 5)
        assert store.retained_html_count() == 15
        stats = store.dedup_stats()
        assert stats["store_unique_bodies"] == 2
        assert stats["store_dedup_hits"] == 13

    def test_every_page_remains_retrievable(self):
        store = PageStore(html_per_domain=100)
        bodies = [f"<html><body>page {i % 3}</body></html>" for i in range(12)]
        for i, html in enumerate(bodies):
            store.archive(
                check_id=f"c{i}", url=f"http://shop.x/{i}", domain="shop.x",
                vantage="v", timestamp=float(i), html=html,
            )
        for page, html in zip(store, bodies):
            assert page.html == html  # full text, byte for byte
        # All equal bodies share one interned object.
        retained = [page.html for page in store]
        assert len({id(h) for h in retained}) == 3

    def test_cap_still_applies(self):
        store = PageStore(html_per_domain=2)
        self._archive(store, "<p>a</p>", 4)
        assert store.retained_html_count() == len(store) == 2
        # Only kept bodies are interned; the dropped two count nothing.
        assert store.dedup_stats() == {
            "store_unique_bodies": 1, "store_dedup_hits": 1,
        }


# ----------------------------------------------------------------------
# Retry reporting
# ----------------------------------------------------------------------
class TestRetryReporting:
    def test_failure_error_includes_attempts_and_first_cause(self, tiny_world):
        network = Network()  # no servers registered: every fetch NXDOMAINs
        vantage = VantagePoint(
            name="Test - Nowhere",
            location=GeoLocation("US", "United States", "Nowhere"),
            ip="198.51.100.1",
            profile=profile_for("firefox", "linux"),
        )
        backend = SheriffBackend(network, [vantage], tiny_world.rates)
        report = backend.check(
            CheckRequest(
                url="http://unregistered.example/p",
                anchor=anchor_for(tiny_world, "www.digitalrev.com"),
            )
        )
        (observation,) = report.observations
        assert not observation.ok
        assert "NXDOMAIN" in observation.error
        assert "(after 3 attempts)" in observation.error  # MAX_RETRIES + 1


# ----------------------------------------------------------------------
# Backend cache stats surface
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_stats_exposed_for_reports(self):
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        domain = "www.digitalrev.com"
        backend.check(
            CheckRequest(
                url=product_url(world, domain), anchor=anchor_for(world, domain)
            )
        )
        stats = backend.cache_stats()
        for key in (
            "parse_cache_hits",
            "parse_cache_misses",
            "guard_cache_entries",
            "store_unique_bodies",
            "store_dedup_hits",
        ):
            assert key in stats
        assert stats["guard_cache_entries"] >= 1
