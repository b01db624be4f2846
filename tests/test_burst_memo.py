"""Burst memoization: byte-identity, state detection, replay, validation.

The memo contract (``docs/PERFORMANCE.md``): with the burst memo on, every
crawl/campaign/report byte -- including archive timestamps and page bodies
-- is identical to the memo-off run; retailers whose responses read state
the signature cannot capture are detected and served live; sampled
cross-validation re-runs hits and fails loudly on divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.core.backend import CheckRequest, SheriffBackend
from repro.core.burstcache import BurstCache, BurstCacheDivergence, BurstEntry
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce.catalog import generate_catalog
from repro.ecommerce.pricing import (
    CAPTURABLE_SIGNALS,
    PricingContext,
    SignalProbe,
    signals_read,
)
from repro.ecommerce.retailer import Retailer, RetailerServer
from repro.ecommerce.templates import template_for
from repro.ecommerce.world import WorldConfig, build_world
from repro.exec import ExecConfig
from repro.io import report_to_dict


def _world(**kwargs):
    config = dict(catalog_scale=0.15, long_tail_domains=0)
    config.update(kwargs)
    return build_world(WorldConfig(**config))


def _anchor(world, domain):
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def _reports_blob(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], sort_keys=True)


def _store_blob(store) -> str:
    return json.dumps(
        [[p.check_id, p.url, p.domain, p.vantage, p.timestamp, p.html]
         for p in store],
        sort_keys=True,
    )


def _register_retailer(world, domain: str, policy) -> RetailerServer:
    """Wire a custom retailer into an existing world (inline backend only)."""
    catalog = generate_catalog(domain, "books", 6, seed=7)
    retailer = Retailer(
        domain=domain,
        name="Custom",
        category="books",
        catalog=catalog,
        policy=policy,
        template=template_for(domain, seed=7),
    )
    server = RetailerServer(
        retailer, geoip=world.geoip, rates=world.rates, seed=world.config.seed
    )
    world.retailers[domain] = retailer
    world.servers[domain] = server
    world.network.register(domain, server)
    return server


# Custom policies for the detection tests (module level: reprs stay stable).
@dataclass(frozen=True)
class NoncePeeking:
    """Undeclared policy that secretly reads per-request state."""

    def price(self, product, ctx) -> float:
        return product.base_price_usd * (1.0 + (ctx.nonce % 7) * 0.01)


@dataclass(frozen=True)
class UndeclaredGeo:
    """Undeclared but signature-pure: reads only the requester country."""

    def price(self, product, ctx) -> float:
        return product.base_price_usd * (1.2 if ctx.country_code == "FI" else 1.0)


@dataclass(frozen=True)
class LyingPolicy:
    """Declares no signals but actually reads the city."""

    def signals(self) -> frozenset[str]:
        return frozenset()

    def price(self, product, ctx) -> float:
        return product.base_price_usd * (1.1 if ctx.city == "London" else 1.0)


# ----------------------------------------------------------------------
# Signal declarations and the probe
# ----------------------------------------------------------------------
class TestSignals:
    def test_every_builtin_policy_declares(self):
        from repro.ecommerce.world import NAMED_RETAILER_SPECS

        for spec in NAMED_RETAILER_SPECS:
            assert signals_read(spec.policy_factory(1)) is not None, spec.domain

    def test_declarations_match_reality_for_named_retailers(self):
        """The probe confirms each policy reads within its declaration."""
        from repro.ecommerce.world import NAMED_RETAILER_SPECS

        ctx = PricingContext(
            country_code="FI", city="Tampere", day_index=12, seconds=5.0,
            identity="anon:s1", logged_in=False, referer=None,
            browser="probe", nonce=99,
        )
        for spec in NAMED_RETAILER_SPECS:
            policy = spec.policy_factory(1)
            declared = signals_read(policy)
            catalog = generate_catalog(spec.domain, spec.category, 10, seed=3)
            reads: set[str] = set()
            for product in catalog.products:
                policy.price(product, SignalProbe(ctx, reads))
            assert reads <= declared, (spec.domain, reads - declared)

    def test_probe_is_read_only(self):
        ctx = PricingContext(country_code="US")
        probe = SignalProbe(ctx, set())
        with pytest.raises(AttributeError):
            probe.country_code = "DE"

    def test_unknown_signal_declaration_rejected(self):
        @dataclass(frozen=True)
        class Bad:
            def signals(self):
                return frozenset({"not_a_field"})

            def price(self, product, ctx):
                return product.base_price_usd

        with pytest.raises(ValueError, match="unknown signals"):
            signals_read(Bad())

    def test_capturable_signals_are_context_fields(self):
        from repro.ecommerce.pricing import PRICING_SIGNALS

        assert CAPTURABLE_SIGNALS <= PRICING_SIGNALS


# ----------------------------------------------------------------------
# Byte identity: memo on vs off
# ----------------------------------------------------------------------
class TestByteIdentity:
    def _crawl_blobs(self, memo: bool, *, loss_rate: float = 0.0):
        world = _world(loss_rate=loss_rate)
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates, burst_memo=memo
        )
        plan = build_plan(
            world, domains=world.crawled_domains[:5], products_per_retailer=3
        )
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=2))
        return (
            _reports_blob(dataset.reports),
            _store_blob(backend.store),
            backend.cache_stats(),
        )

    def test_crawl_bytes_identical(self):
        on_reports, on_store, _ = self._crawl_blobs(True)
        off_reports, off_store, _ = self._crawl_blobs(False)
        assert on_reports == off_reports
        assert on_store == off_store

    def test_crawl_bytes_identical_under_loss(self):
        on_reports, on_store, _ = self._crawl_blobs(True, loss_rate=0.25)
        off_reports, off_store, _ = self._crawl_blobs(False, loss_rate=0.25)
        assert on_reports == off_reports
        assert on_store == off_store

    def test_repeated_checks_hit_and_stay_identical(self):
        """The heavy-traffic shape: same product, same day, many checks."""

        def run(memo: bool):
            world = _world()
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates,
                burst_memo=memo,
            )
            domain = "www.digitalrev.com"
            anchor = _anchor(world, domain)
            product = world.retailer(domain).catalog.products[0]
            request = CheckRequest(
                url=f"http://{domain}{product.path}", anchor=anchor
            )
            reports = [backend.check(request) for _ in range(6)]
            return (
                _reports_blob(reports),
                _store_blob(backend.store),
                backend.cache_stats(),
            )

        on_reports, on_store, on_stats = run(True)
        off_reports, off_store, off_stats = run(False)
        assert on_reports == off_reports
        assert on_store == off_store
        assert on_stats["burst_hits"] == 5
        assert on_stats["burst_misses"] == 1
        assert off_stats["burst_hits"] == 0

    def _campaign_blob(self, memo: bool, exec_config=None) -> str:
        world = build_world(
            WorldConfig(catalog_scale=0.15, long_tail_domains=10)
        )
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates, burst_memo=memo
        )
        dataset = run_campaign(
            world,
            backend,
            CampaignConfig(n_checks=40, population_size=20, seed=11),
            exec_config=exec_config,
        )
        rows = []
        for record in dataset:
            rows.append({
                "user": record.user_id,
                "day": record.day_index,
                "domain": record.domain,
                "url": record.url,
                "failure": record.outcome.failure,
                "user_amount": record.outcome.user_amount,
                "report": report_to_dict(record.report) if record.report else None,
            })
        return json.dumps(rows, sort_keys=True)

    def test_campaign_bytes_identical(self):
        assert self._campaign_blob(True) == self._campaign_blob(False)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_campaign_bytes_identical_under_process_executor(self, workers):
        baseline = self._campaign_blob(False)
        sharded = self._campaign_blob(
            True, exec_config=ExecConfig(workers=workers, mode="process")
        )
        assert sharded == baseline

    @pytest.mark.parametrize("workers", [2, 4])
    def test_crawl_bytes_identical_under_local_executor(self, workers):
        def run(memo, exec_config):
            world = _world()
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates,
                burst_memo=memo,
            )
            plan = build_plan(
                world, domains=world.crawled_domains[:5],
                products_per_retailer=3,
            )
            dataset = run_crawl(
                world, backend, plan, CrawlConfig(days=2),
                exec_config=exec_config,
            )
            return _reports_blob(dataset.reports), _store_blob(backend.store)

        baseline = run(False, None)
        sharded = run(True, ExecConfig(workers=workers, mode="local"))
        assert sharded == baseline


# ----------------------------------------------------------------------
# State-dependence detection
# ----------------------------------------------------------------------
class TestStateDetection:
    def _check_repeatedly(self, world, backend, domain, n=4):
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor
        )
        return [backend.check(request) for _ in range(n)]

    def test_declared_stateful_retailer_serves_live(self):
        """ABTestNoise (hotels.com) declares the nonce: zero memo traffic."""
        world = _world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        self._check_repeatedly(world, backend, "www.hotels.com")
        stats = backend.cache_stats()
        assert stats["burst_hits"] == 0
        assert stats["burst_misses"] == 0
        assert stats["burst_bypass_live_only"] == 4
        assert backend.burst_cache.live_only_domains() == {
            "www.hotels.com": "state-dependent responses"
        }

    def test_login_retailer_serves_live(self):
        """amazon supports login: the server keys pages on the auth cookie."""
        world = _world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        self._check_repeatedly(world, backend, "www.amazon.com")
        stats = backend.cache_stats()
        assert stats["burst_hits"] == 0
        assert stats["burst_bypass_live_only"] == 4

    def test_undeclared_stateful_retailer_detected_not_assumed(self):
        """An undeclared nonce-reading policy: the probe catches the read
        on the first live burst, the retailer demotes, nothing is ever
        cached, and the output still matches a memo-off run."""

        def run(memo: bool):
            world = _world()
            _register_retailer(world, "www.sneaky.example", NoncePeeking())
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates,
                burst_memo=memo,
            )
            reports = self._check_repeatedly(
                world, backend, "www.sneaky.example"
            )
            return _reports_blob(reports), backend.cache_stats()

        on_reports, on_stats = run(True)
        off_reports, _ = run(False)
        assert on_reports == off_reports
        assert on_stats["burst_hits"] == 0
        assert on_stats["burst_stores"] == 0
        assert on_stats["burst_demotions"] == 1
        assert on_stats["burst_bypass_live_only"] == 3  # after the demotion

    def test_undeclared_pure_retailer_memoizes(self):
        def run(memo: bool):
            world = _world()
            _register_retailer(world, "www.plain.example", UndeclaredGeo())
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates,
                burst_memo=memo,
            )
            reports = self._check_repeatedly(
                world, backend, "www.plain.example"
            )
            return _reports_blob(reports), backend.cache_stats()

        on_reports, on_stats = run(True)
        off_reports, _ = run(False)
        assert on_reports == off_reports
        assert on_stats["burst_hits"] == 3
        assert on_stats["burst_misses"] == 1
        assert on_stats["burst_demotions"] == 0

    def test_understating_declaration_demotes(self):
        """A policy lying about its reads is caught before anything is
        cached -- the miss that would store the entry records the
        undeclared city read and demotes the retailer instead."""
        world = _world()
        server = _register_retailer(world, "www.liar.example", LyingPolicy())
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        self._check_repeatedly(world, backend, "www.liar.example")
        stats = backend.cache_stats()
        assert stats["burst_hits"] == 0
        assert stats["burst_stores"] == 0
        assert stats["burst_demotions"] == 1
        assert "city" in backend.burst_cache.live_only_domains()[
            "www.liar.example"
        ]
        assert server.signature_profile() is not None  # declaration looked pure

    def test_non_product_urls_bypass(self):
        world = _world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        domain = "www.digitalrev.com"
        anchor = _anchor(world, domain)
        request = CheckRequest(url=f"http://{domain}/", anchor=anchor)
        backend.check(request)
        backend.check(request)
        stats = backend.cache_stats()
        assert stats["burst_bypass_non_product"] == 2
        assert stats["burst_hits"] == 0


# ----------------------------------------------------------------------
# Campaign-scale plumbing
# ----------------------------------------------------------------------
class TestCampaignScalePlumbing:
    def test_worker_payload_carries_memo_knobs(self):
        """ProcessExecutor workers mirror the coordinator's full memo
        configuration -- cross-validation must not silently vanish when a
        campaign shards across processes."""
        from repro.exec.process import _WORKER_WORLDS, _run_shard

        world = _world()
        spec = world.spec()
        payload = {
            "spec": spec,
            "tasks": [],
            "domains": [],
            "session": {},
            "memo_demotions": {},
            "memo_entries": [],
            "burst_memo": {
                "enabled": True,
                "validate_fraction": 0.25,
                "max_entries_per_domain": 77,
            },
        }
        try:
            _run_shard(payload)
            _, worker_backend = _WORKER_WORLDS[spec]
            cache = worker_backend.burst_cache
            assert cache.enabled is True
            assert cache.validate_fraction == 0.25
            assert cache.max_entries_per_domain == 77
        finally:
            _WORKER_WORLDS.pop(spec, None)

    def test_page_store_keeps_every_fetch_and_first_bodies(self):
        """Every fetch keeps its metadata; only the first
        ``html_per_domain`` fetches of a domain keep their body."""
        from repro.core.store import PageStore

        store = PageStore(html_per_domain=2)
        for i in range(6):
            store.archive(
                check_id=f"c{i}", url="http://shop.example/x",
                domain="shop.example", vantage="v", timestamp=float(i),
                html="<html>same</html>",
            )
        assert len(store) == 6
        assert [p.check_id for p in store if p.retained] == ["c0", "c1"]


# ----------------------------------------------------------------------
# Cross-validation
# ----------------------------------------------------------------------
class TestCrossValidation:
    def _backend(self, world, fraction):
        return SheriffBackend(
            world.network, world.vantage_points, world.rates,
            burst_cache=BurstCache(validate_fraction=fraction),
        )

    def test_validated_hits_agree_with_live(self):
        world = _world()
        backend = self._backend(world, 1.0)
        domain = "www.digitalrev.com"
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor
        )
        for _ in range(5):
            backend.check(request)
        stats = backend.cache_stats()
        assert stats["burst_hits"] == 4
        assert stats["burst_validations"] == 4

    def test_divergence_fails_loudly(self):
        world = _world()
        backend = self._backend(world, 1.0)
        domain = "www.digitalrev.com"
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor
        )
        backend.check(request)
        # Corrupt the stored entry: validation must notice the tampering.
        cache = backend.burst_cache
        state = cache._domains[domain]
        (key, entry), = state.entries.items()
        state.entries[key] = BurstEntry(
            observations=entry.observations,
            htmls=("<html>tampered</html>",) * len(entry.htmls),
            currencies=entry.currencies,
        )
        with pytest.raises(BurstCacheDivergence, match="page bodies differ"):
            backend.check(request)


# ----------------------------------------------------------------------
# Timeline replay
# ----------------------------------------------------------------------
class TestTimelineReplay:
    def test_replay_matches_live_archive_timestamps(self):
        """The predicted delivery timeline is exactly what the live burst
        stamps into the archive -- the property every hit relies on."""
        from repro.core.burstcache import predict_fanout
        from repro.net.urls import URL

        world = _world(loss_rate=0.2)
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates,
            burst_memo=False,
        )
        domain = "www.digitalrev.com"
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        url = f"http://{domain}{product.path}"
        start_ts = world.clock.now
        timeline = predict_fanout(
            world.network, world.vantage_points, URL.parse(url),
            start_ts, backend.MAX_RETRIES,
        )
        report = backend.check(CheckRequest(url=url, anchor=anchor))
        pages = [p for p in backend.store if p.check_id == report.check_id]
        if timeline is None:
            # Some vantage stayed unreachable: the live burst must agree.
            assert any(not obs.ok and obs.error.startswith("network")
                       for obs in report.observations)
        else:
            delivered = [p.timestamp for p in pages]
            predicted = [archive_ts for _, archive_ts in timeline]
            assert delivered == predicted

    def test_lossless_replay_is_exact(self):
        from repro.core.burstcache import predict_fanout
        from repro.net.urls import URL

        world = _world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates,
            burst_memo=False,
        )
        domain = "www.mauijim.com"
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        url = f"http://{domain}{product.path}"
        start_ts = world.clock.now
        timeline = predict_fanout(
            world.network, world.vantage_points, URL.parse(url),
            start_ts, backend.MAX_RETRIES,
        )
        report = backend.check(CheckRequest(url=url, anchor=anchor))
        pages = [p for p in backend.store if p.check_id == report.check_id]
        assert timeline is not None
        assert [p.timestamp for p in pages] == [a for _, a in timeline]


# ----------------------------------------------------------------------
# TemporalDrift x BurstCache across day boundaries
# ----------------------------------------------------------------------
class TestDriftAcrossDayBoundaries:
    """A drift retailer must never serve a stale memoized price for a
    new check day: the burst key carries the check day, drift declares
    ``day_index``, and the memo reprices at every boundary."""

    AMPLITUDE = 0.2

    def _drift_world(self):
        from repro.ecommerce.pricing import TemporalDrift, UniformPricing

        world = _world()
        domain = "www.driftbooks.test"
        _register_retailer(
            world, domain,
            TemporalDrift(UniformPricing(), amplitude=self.AMPLITUDE, seed=5),
        )
        return world, domain

    def _run_sequence(self, burst_memo: bool):
        """Two same-day checks, then two more the next day."""
        from repro.net.clock import SECONDS_PER_DAY

        world, domain = self._drift_world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates,
            burst_memo=burst_memo,
        )
        anchor = _anchor(world, domain)
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor
        )
        reports = []
        for day in (40, 41):
            world.clock.advance_to(day * SECONDS_PER_DAY + 3600.0)
            reports.append(backend.check(request))
            world.clock.advance(120.0)
            reports.append(backend.check(request))
        return backend, reports

    def test_memoized_day_boundary_reprices_exactly_like_live(self):
        memo_backend, memo_reports = self._run_sequence(burst_memo=True)
        live_backend, live_reports = self._run_sequence(burst_memo=False)
        assert _reports_blob(memo_reports) == _reports_blob(live_reports)
        assert len(memo_backend.store) > 0
        assert _store_blob(memo_backend.store) == _store_blob(live_backend.store)
        stats = memo_backend.burst_cache.stats()
        # Within each day the second check hits; the new day must miss.
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["stores"] == 2

    def test_drift_actually_moved_the_price_between_days(self):
        """Guard the guard: if drift ever stopped repricing across this
        boundary, the memo test above would pass vacuously."""
        _, reports = self._run_sequence(burst_memo=True)
        day_one = [obs.usd for obs in reports[0].valid_observations()]
        day_two = [obs.usd for obs in reports[2].valid_observations()]
        assert day_one and day_two
        assert day_one != day_two

    def test_memo_hit_timestamps_replay_per_day(self):
        """Archive timestamps on the hit day come from that day's
        delivery draws, not the stored day's."""
        backend, reports = self._run_sequence(burst_memo=True)
        by_check = {}
        for page in backend.store:
            by_check.setdefault(page.check_id, []).append(page.timestamp)
        first_day_hit = by_check[reports[1].check_id]
        second_day_hit = by_check[reports[3].check_id]
        assert len(first_day_hit) == len(second_day_hit) == 14
        assert all(
            b > a + 86000 for a, b in zip(first_day_hit, second_day_hit)
        )
