"""Backend fan-out, page store, and extension flow tests."""

from __future__ import annotations

import pytest

from repro.core.backend import CheckRequest, SheriffBackend
from repro.core.burstcache import BurstCache
from repro.core.extension import SheriffExtension, UserClient
from repro.core.highlight import PriceAnchor
from repro.core.store import PageStore
from repro.ecommerce.world import WorldConfig, build_world
from repro.htmlmodel.selectors import Selector
from repro.net.geoip import GeoLocation
from repro.net.urls import URLError
from repro.net.useragent import profile_for


def anchor_for(world, domain: str) -> PriceAnchor:
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def product_url(world, domain: str, index: int = 0) -> str:
    product = world.retailer(domain).catalog.products[index]
    return f"http://{domain}{product.path}"


class TestCheck:
    def test_fourteen_observations(self, tiny_world, tiny_backend):
        domain = "www.digitalrev.com"
        report = tiny_backend.check(
            CheckRequest(
                url=product_url(tiny_world, domain),
                anchor=anchor_for(tiny_world, domain),
            )
        )
        assert len(report.observations) == 14
        assert all(obs.ok for obs in report.observations)
        assert report.domain == domain

    def test_variation_detected_for_geo_priced_shop(self, tiny_world, tiny_backend):
        domain = "www.digitalrev.com"
        report = tiny_backend.check(
            CheckRequest(
                url=product_url(tiny_world, domain, 1),
                anchor=anchor_for(tiny_world, domain),
            )
        )
        assert report.ratio == pytest.approx(1.28, rel=0.01)
        assert report.has_variation
        assert report.guard_threshold > 1.0

    def test_uniform_shop_survives_guard(self, tiny_world, tiny_backend):
        """A long-tail shop localizes currency but prices uniformly: the
        conversion wobble must stay inside the guard."""
        domain = tiny_world.long_tail[0]
        report = tiny_backend.check(
            CheckRequest(
                url=product_url(tiny_world, domain),
                anchor=anchor_for(tiny_world, domain),
            )
        )
        assert report.ratio is not None
        assert not report.has_variation

    def test_synchronized_burst(self, tiny_world, tiny_backend):
        """All 14 fetches land within a tight virtual-time window."""
        domain = "www.digitalrev.com"
        start = tiny_world.clock.now
        tiny_backend.check(
            CheckRequest(
                url=product_url(tiny_world, domain),
                anchor=anchor_for(tiny_world, domain),
            )
        )
        assert tiny_world.clock.now - start < 30.0

    def test_check_ids_unique(self, tiny_world, tiny_backend):
        domain = "www.digitalrev.com"
        request = CheckRequest(
            url=product_url(tiny_world, domain),
            anchor=anchor_for(tiny_world, domain),
        )
        ids = {tiny_backend.check(request).check_id for _ in range(3)}
        assert len(ids) == 3

    def test_invalid_url_rejected_at_request(self):
        with pytest.raises(URLError):
            CheckRequest(url="not a url", anchor=PriceAnchor(None, "/", ""))

    def test_unreachable_host_yields_failed_observations(self, tiny_world):
        backend = SheriffBackend(
            tiny_world.network, tiny_world.vantage_points[:3], tiny_world.rates
        )
        report = backend.check(
            CheckRequest(
                url="http://unregistered.example/p/1",
                anchor=PriceAnchor(None, "/0", ""),
            )
        )
        assert all(not obs.ok for obs in report.observations)
        assert report.ratio is None
        assert not report.has_variation

    def test_404_yields_failed_observation(self, tiny_world, tiny_backend):
        report = tiny_backend.check(
            CheckRequest(
                url="http://www.digitalrev.com/missing",
                anchor=PriceAnchor(None, "/0", ""),
            )
        )
        assert all("http 404" in obs.error for obs in report.observations)

    def test_needs_vantage_points(self, tiny_world):
        with pytest.raises(ValueError):
            SheriffBackend(tiny_world.network, [], tiny_world.rates)

    def test_loss_tolerated_with_retries(self):
        world = build_world(
            WorldConfig(catalog_scale=0.15, long_tail_domains=0, loss_rate=0.15)
        )
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        domain = "www.digitalrev.com"
        report = backend.check(
            CheckRequest(
                url=product_url(world, domain),
                anchor=anchor_for(world, domain),
            )
        )
        # With 15% loss and 2 retries nearly every point succeeds.
        assert len(report.valid_observations()) >= 10


class TestPageStore:
    def test_archiving_happens(self, tiny_world):
        store = PageStore(html_per_domain=5)
        backend = SheriffBackend(
            tiny_world.network, tiny_world.vantage_points, tiny_world.rates,
            store=store,
        )
        domain = "www.digitalrev.com"
        backend.check(
            CheckRequest(
                url=product_url(tiny_world, domain),
                anchor=anchor_for(tiny_world, domain),
            )
        )
        # 14 fetches; only the first 5 leave a page behind.
        assert len(store) == 5
        assert store.retained_html_count() == 5
        pages = store.pages_for_domain(domain)
        assert len(pages) == 5
        assert all(page.html for page in pages)

    def test_archived_bodies_re_extract(self, tiny_world):
        """Archived HTML is the page that was measured: re-extracting
        each stored body from its string gives the text the check
        reported for that vantage, for live fetches and memo replays."""
        from repro.core.extraction import extract_price

        store = PageStore(html_per_domain=28)
        backend = SheriffBackend(
            tiny_world.network, tiny_world.vantage_points, tiny_world.rates,
            store=store, burst_cache=BurstCache(),
        )
        domain = "www.digitalrev.com"
        anchor = anchor_for(tiny_world, domain)
        request = CheckRequest(url=product_url(tiny_world, domain),
                               anchor=anchor)
        reports = [backend.check(request) for _ in range(2)]
        assert backend.cache_stats()["burst_hits"] == 1
        observed = {
            (report.check_id, obs.vantage): obs.raw_text
            for report in reports for obs in report.observations
        }
        pages = store.pages_for_domain(domain)
        assert len(pages) == 28
        for page in pages:
            extracted = extract_price(page.html, anchor)
            assert extracted.ok, (page.vantage, extracted.error)
            assert extracted.raw_text == observed[page.check_id, page.vantage]

    def test_fetch_past_cap_leaves_no_page_but_moves_chain(self):
        store = PageStore(html_per_domain=1)
        chains = [store.archive_chain]
        for i in range(4):
            assert store.archive(
                check_id=f"c{i}", url="http://d/x", domain="d",
                vantage="v", timestamp=0.0, html="<html></html>",
            ) is None
            chains.append(store.archive_chain)
        # The first body is the kept one; the other three fetches left
        # no page, yet each moved the chain.
        assert [p.check_id for p in store] == ["c0"]
        assert len(store) == store.retained_html_count() == 1
        assert len(set(chains)) == 5

    def test_domains_listing(self):
        store = PageStore()
        store.archive(check_id="c", url="u", domain="b.x", vantage="v",
                      timestamp=0, html="<p></p>")
        store.archive(check_id="c", url="u", domain="a.x", vantage="v",
                      timestamp=0, html="<p></p>")
        assert store.domains() == ["a.x", "b.x"]
        # A domain none of whose pages was kept is not listed.
        none_kept = PageStore(html_per_domain=0)
        none_kept.archive(check_id="c", url="u", domain="a.x", vantage="v",
                          timestamp=0, html="<p></p>")
        assert none_kept.domains() == []
        assert len(none_kept) == 0

    def test_identity_is_at_least_as_strict_as_the_fetch_list(self):
        """Two stores fed the same fetches except for a body past the
        cap: the old identity (every fetch's metadata plus the kept
        bodies) called them equal; chain plus kept pages does not."""
        import json

        from repro.scenarios.harness import _store_blob

        def feed(second_body):
            fetches = [
                dict(check_id="c1", url="http://d/x", domain="d",
                     vantage="v1", timestamp=1.0, html="<p>1</p>"),
                dict(check_id="c1", url="http://d/x", domain="d",
                     vantage="v2", timestamp=2.0, html=second_body),
            ]
            store = PageStore(html_per_domain=1)
            for fetch in fetches:
                store.archive(**fetch)
            # What the store kept a record of before dropped fetches left
            # none: each fetch's fields, with its body only if kept.
            fetch_list = json.dumps([
                [f["check_id"], f["url"], f["domain"], f["vantage"],
                 f["timestamp"], f["html"] if i < 1 else None]
                for i, f in enumerate(fetches)
            ])
            return fetch_list, _store_blob(store)

        old_a, new_a = feed("<p>2</p>")
        old_b, new_b = feed("<p>2, tampered</p>")
        assert old_a == old_b
        assert new_a != new_b

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            PageStore(html_per_domain=-1)


class TestExtensionFlow:
    def _user(self, world, country="DE", city="Berlin") -> UserClient:
        from repro.net.geoip import COUNTRY_NAMES

        return UserClient(
            name="tester",
            location=GeoLocation(country, COUNTRY_NAMES[country], city),
            ip=world.plan.allocate(country, city),
            profile=profile_for("firefox", "linux"),
        )

    def test_full_user_flow(self, tiny_world, tiny_backend):
        extension = SheriffExtension(tiny_backend, tiny_world.network)
        user = self._user(tiny_world)
        domain = "www.digitalrev.com"
        retailer = tiny_world.retailer(domain)
        selector = Selector.parse(retailer.template.price_selector)
        outcome = extension.check_product(
            user, product_url(tiny_world, domain), selector.select_one
        )
        assert outcome.ok
        assert outcome.user_currency == "EUR"  # German user sees euros
        assert outcome.report.has_variation

    def test_user_cannot_find_price(self, tiny_world, tiny_backend):
        extension = SheriffExtension(tiny_backend, tiny_world.network)
        user = self._user(tiny_world)
        outcome = extension.check_product(
            user, product_url(tiny_world, "www.digitalrev.com"), lambda doc: None
        )
        assert not outcome.ok
        assert "locate" in outcome.failure

    def test_unreachable_page(self, tiny_world, tiny_backend):
        extension = SheriffExtension(tiny_backend, tiny_world.network)
        user = self._user(tiny_world)
        outcome = extension.check_product(
            user, "http://www.digitalrev.com/nope", lambda doc: None
        )
        assert not outcome.ok
        assert "http 404" in outcome.failure
