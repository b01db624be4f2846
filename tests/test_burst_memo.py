"""Burst memoization: byte-identity, state detection, replay, validation.

The memo contract (``docs/PERFORMANCE.md``): with the burst memo on, every
crawl/campaign/report byte -- including archive timestamps and page bodies
-- is identical to the memo-off run; retailers whose responses read state
the signature cannot capture are detected and served live; sampled
cross-validation re-runs hits and fails loudly on divergence.

The same signature contract lets a signature-pure server keep each
view's priced slot values with the page's shape (the pricing memo,
:class:`TestPricingMemo`): every page it serves equals the page a fresh
world serves for the same request, and a policy caught reading past its
declaration is never kept.

A backend memoizes only when it is handed a :class:`BurstCache` (the
serving backend is); every test here that asserts memo behaviour builds
its backend that way.  The process executor and checkpointed runs refuse
such a backend.
"""

from __future__ import annotations

import json
from collections import Counter
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
    UniformPricing,
    signals_read,
)
from repro.ecommerce import retailer as retailer_module
from repro.ecommerce.retailer import RenderMemo, Retailer, RetailerServer
from repro.ecommerce.templates import template_for
from repro.ecommerce.world import WorldConfig, build_world
from repro.exec import ExecConfig
from repro.io import report_to_dict
from repro.net.clock import SECONDS_PER_DAY
from repro.scenarios.behaviors import CurrencySwitchServer
from repro.scenarios.harness import _store_blob


def _world(**kwargs):
    config = dict(catalog_scale=0.15, long_tail_domains=0)
    config.update(kwargs)
    return build_world(WorldConfig(**config))


def _anchor(world, domain):
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def _reports_blob(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], sort_keys=True)


def _backend(world, memo: bool, store=None) -> SheriffBackend:
    """A backend over ``world``, holding a fresh burst memo when ``memo``."""
    return SheriffBackend(
        world.network, world.vantage_points, world.rates,
        store=store, burst_cache=BurstCache() if memo else None,
    )


def _register_retailer(
    world, domain: str, policy, *, localizes_currency: bool = True,
    server_class=RetailerServer, **server_options,
) -> RetailerServer:
    """Wire a custom retailer into an existing world (inline backend only)."""
    catalog = generate_catalog(domain, "books", 6, seed=7)
    retailer = Retailer(
        domain=domain,
        name="Custom",
        category="books",
        catalog=catalog,
        policy=policy,
        template=template_for(domain, seed=7),
        localizes_currency=localizes_currency,
    )
    server = server_class(
        retailer, geoip=world.geoip, rates=world.rates, seed=world.config.seed,
        **server_options,
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
class PeeksAtOneProduct:
    """Undeclared policy that reads per-request state for one product only."""

    sku: str

    def price(self, product, ctx) -> float:
        if product.sku == self.sku:
            return product.base_price_usd * (1.0 + (ctx.nonce % 7) * 0.01)
        return product.base_price_usd


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
        backend = _backend(world, memo)
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
            backend = _backend(world, memo)
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
        assert "burst_hits" not in off_stats  # no memo, no memo counters

    def _campaign_blob(self, memo: bool, exec_config=None) -> str:
        world = build_world(
            WorldConfig(catalog_scale=0.15, long_tail_domains=10)
        )
        backend = _backend(world, memo)
        executor = exec_config.create(world) if exec_config else None
        try:
            dataset = run_campaign(
                world,
                backend,
                CampaignConfig(n_checks=40, population_size=20, seed=11),
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.close()
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
        """Inline with the memo (as the serving backend runs checks)
        against memo-free runs inline (1) and across worker processes
        (2, 4; the process executor refuses a memo)."""
        baseline = self._campaign_blob(True)
        sharded = self._campaign_blob(
            False, exec_config=ExecConfig(workers=workers)
        )
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
        backend = _backend(world, True)
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
        backend = _backend(world, True)
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
            backend = _backend(world, memo)
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
            backend = _backend(world, memo)
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
        backend = _backend(world, True)
        self._check_repeatedly(world, backend, "www.liar.example")
        stats = backend.cache_stats()
        assert stats["burst_hits"] == 0
        assert stats["burst_stores"] == 0
        assert stats["burst_demotions"] == 1
        assert "city" in backend.burst_cache.live_only_domains()[
            "www.liar.example"
        ]
        assert server.signature_profile() is not None  # declaration looked pure

    def test_demotion_drops_stored_entries(self):
        """A probe that catches the policy on one product demotes the whole
        retailer: its stored entries go, later checks run live and store
        nothing."""
        from repro.net.urls import URL

        domain = "www.halfsneaky.example"
        # Every product page prices 4 of the 5 other products as decoys;
        # the sneaky product is the one the clean page leaves out.  The
        # picks depend only on (seed, domain, sku): read them off a world
        # whose policy is pure.
        probe_world = _world()
        probe = _register_retailer(probe_world, domain, UndeclaredGeo())
        products = probe.retailer.catalog.products
        clean = products[0]
        probe_world.vantage_points[0].fetch(
            probe_world.network, URL.parse(f"http://{domain}{clean.path}")
        )
        decoys = {pick.sku for pick in probe._reco_picks[clean.sku]}
        (sneaky,) = [p for p in products[1:] if p.sku not in decoys]

        world = _world()
        _register_retailer(world, domain, PeeksAtOneProduct(sneaky.sku))
        backend = _backend(world, True)
        cache = backend.burst_cache
        anchor = _anchor(world, domain)
        clean_check, sneaky_check = (
            CheckRequest(url=f"http://{domain}{product.path}", anchor=anchor)
            for product in (clean, sneaky)
        )
        backend.check(clean_check)
        assert cache.stats()["entries"] == 1
        backend.check(sneaky_check)
        assert cache.stats()["entries"] == 0
        assert "nonce" in cache.live_only_domains()[domain]
        backend.check(clean_check)
        stats = cache.stats()
        assert stats["stores"] == 1
        assert stats["entries"] == 0
        assert stats["demotions"] == 1
        assert stats["bypass_live_only"] == 1

    def test_non_product_urls_bypass(self):
        world = _world()
        backend = _backend(world, True)
        domain = "www.digitalrev.com"
        anchor = _anchor(world, domain)
        request = CheckRequest(url=f"http://{domain}/", anchor=anchor)
        backend.check(request)
        backend.check(request)
        stats = backend.cache_stats()
        assert stats["burst_bypass_non_product"] == 2
        assert stats["burst_hits"] == 0


# ----------------------------------------------------------------------
# The pricing memo: a pure server prices each view once per signature
# ----------------------------------------------------------------------
def _family(policy) -> str:
    """A policy's family: its class, with its inner and routed policies."""
    name = type(policy).__name__
    inner = getattr(policy, "inner", None)
    if inner is not None:
        return f"{name}({_family(inner)})"
    routes = getattr(policy, "routes", None)
    if routes is not None:
        members = sorted({_family(p) for p in (*routes.values(), policy.default)})
        return f"{name}({','.join(members)})"
    return name


def _record_pages(server) -> list:
    """Record every request ``server`` answers: (request, count, body)."""
    pages = []
    handle = server.handle

    def recording(request):
        count = server.request_count
        response = handle(request)
        pages.append((request, count, response.body))
        return response

    server.handle = recording
    return pages


def _assert_fresh_world_serves_each_page(pages, server) -> None:
    """Each recorded page equals what ``server``, a fresh world's, serves
    for the same request from an empty render memo at the same count."""
    assert pages
    for request, count, body in pages:
        server.render_memo = RenderMemo()
        server.request_count = count
        assert server.handle(request).body == body, str(request.url)


def _kept_views(memo: RenderMemo) -> int:
    return sum(len(memo.get(key).views) for key in memo)


class TestPricingMemo:
    """Memo-free batch fan-outs: only the pricing memo is at work."""

    @staticmethod
    def _fan_out(world, domain, products=(0,), **batch):
        anchor = _anchor(world, domain)
        catalog = world.retailer(domain).catalog
        requests = [
            CheckRequest(url=f"http://{domain}{catalog.products[i].path}",
                         anchor=anchor)
            for i in products
        ]
        return _backend(world, False).check_batch(requests, **batch)

    def test_lying_policy_is_never_kept(self):
        """LyingPolicy declares no signal but reads the city: London's
        price stays London's, though every vantage shares one display
        locale and so one key; no view is ever kept."""
        domain = "www.liar.example"
        world, fresh = _world(), _world()
        server = _register_retailer(world, domain, LyingPolicy(),
                                    localizes_currency=False)
        replay = _register_retailer(fresh, domain, LyingPolicy(),
                                    localizes_currency=False)
        pages = _record_pages(server)
        reports = self._fan_out(world, domain, products=(0, 1, 0))
        for report in reports:
            london = [obs.amount for obs in report.observations
                      if obs.city == "London"]
            others = {obs.amount for obs in report.observations
                      if obs.city != "London"}
            assert len(london) == 1 and len(others) == 1
            assert london[0] == pytest.approx(1.1 * others.pop(), rel=0.01)
        assert _kept_views(server.render_memo) == 0
        _assert_fresh_world_serves_each_page(pages, replay)

    def test_every_policy_family_serves_what_a_fresh_world_serves(
            self, monkeypatch):
        world = _world(long_tail_domains=25)
        fresh = _world(long_tail_domains=25)
        chosen: dict = {}
        for domain, server in world.servers.items():
            family = (_family(server.retailer.policy),
                      server.retailer.localizes_currency)
            chosen.setdefault(family, domain)
        assert len(chosen) >= 10
        priced, rendered = Counter(), Counter()
        recommended = RetailerServer._recommended
        render_shape = retailer_module.render_shape

        def counted_pricing(server, product, ctx, locale):
            priced[server.retailer.domain] += 1
            return recommended(server, product, ctx, locale)

        def counted_render(template, view):
            rendered[view.domain] += 1
            return render_shape(template, view)

        monkeypatch.setattr(RetailerServer, "_recommended", counted_pricing)
        monkeypatch.setattr(retailer_module, "render_shape", counted_render)
        pages = {}
        for domain in chosen.values():
            pages[domain] = _record_pages(world.servers[domain])
            self._fan_out(world, domain, products=(0, 1, 0, 1))
        for domain, served in pages.items():
            server = world.servers[domain]
            stats = server.render_cache_stats()
            # Shape hits and misses count product pages as they did.
            assert stats["render_hits"] + stats["render_misses"] == len(served)
            assert stats["render_misses"] == rendered[domain]
            if server.signature_profile() is None:
                assert priced[domain] == len(served), domain
            else:
                assert priced[domain] < len(served) / 2, domain
        assert _kept_views(world.render_memo) > 0
        for domain, served in pages.items():
            _assert_fresh_world_serves_each_page(served, fresh.servers[domain])

    def test_currency_switch_on_both_sides_of_its_day(self):
        """CurrencySwitchServer swaps its retailer per request: the key
        covers the display locale in force on each side of the switch."""
        domain = "www.switch.example"
        world, fresh = _world(), _world()
        today = int(world.clock.now // SECONDS_PER_DAY)
        options = dict(server_class=CurrencySwitchServer,
                       switch_day=today + 1)
        server = _register_retailer(world, domain, UniformPricing(), **options)
        replay = _register_retailer(fresh, domain, UniformPricing(), **options)
        pages = _record_pages(server)
        start = world.clock.now
        before, after = self._fan_out(
            world, domain, products=(0, 0),
            start_times=[start, start + SECONDS_PER_DAY])
        assert {obs.currency for obs in before.observations} == {"USD"}
        assert len({obs.currency for obs in after.observations}) > 2
        assert _kept_views(server.render_memo) > 0
        _assert_fresh_world_serves_each_page(pages, replay)


# ----------------------------------------------------------------------
# Where the memo lives: the serving backend only
# ----------------------------------------------------------------------
class TestCampaignScalePlumbing:
    def test_batch_backends_hold_no_memo(self):
        """``repro report``, figures and the CLI build their backend
        through the experiment context: it runs every check live."""
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext("tiny")
        assert ctx.backend.burst_cache is None
        assert not any(
            key.startswith("burst_") for key in ctx.backend.cache_stats()
        )

    def test_process_executor_refuses_a_memo(self):
        """Memo state never crosses the process boundary: a backend that
        holds a memo is refused before any dispatch, and the executor's
        close-on-error leaves no worker running."""
        from repro.exec import ExecError, ProcessExecutor

        world = _world()
        backend = _backend(world, True)
        domain = "www.digitalrev.com"
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(
            url=f"http://{domain}{product.path}", anchor=_anchor(world, domain)
        )
        executor = ProcessExecutor(world, 2)
        try:
            with pytest.raises(ExecError, match="burst memo"):
                backend.check_batch([request], executor=executor)
            assert executor.boundary_stats()["ship_bytes"] == 0
            for handle in executor._handles:  # noqa: SLF001
                handle.proc.join(timeout=10)
                assert not handle.proc.is_alive()
        finally:
            executor.close()
        assert len(backend.store) == 0

    @pytest.mark.parametrize("kind", ["campaign", "crawl"])
    def test_checkpointed_runs_refuse_a_memo(self, kind, tmp_path):
        """A checkpoint records no memo state, so a checkpointed run
        refuses a memo before it writes anything: no checkpoint is left
        behind, and a memo-free retry on the same directory runs."""
        from repro.exec import ExecError

        def run(memo: bool):
            world = _world()
            backend = _backend(world, memo)
            if kind == "campaign":
                run_campaign(
                    world, backend,
                    CampaignConfig(n_checks=20, population_size=10, seed=11),
                    checkpoint_dir=ckpt,
                )
            else:
                plan = build_plan(
                    world, domains=world.crawled_domains[:2],
                    products_per_retailer=2,
                )
                run_crawl(
                    world, backend, plan, CrawlConfig(days=2),
                    checkpoint_dir=ckpt,
                )
            return backend

        ckpt = tmp_path / "ckpt"
        with pytest.raises(ExecError, match="burst memo"):
            run(True)
        assert not ckpt.exists()
        backend = run(False)
        assert len(backend.store) > 0
        assert list(ckpt.glob("seg-*"))


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
        entries = backend.burst_cache._entries[domain]
        (key, entry), = entries.items()
        entries[key] = BurstEntry(
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
        backend = _backend(world, False)
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
        backend = _backend(world, False)
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

    def _run_sequence(self, burst_memo: bool, store=None):
        """Two same-day checks, then two more the next day."""
        from repro.net.clock import SECONDS_PER_DAY

        world, domain = self._drift_world()
        backend = _backend(world, burst_memo, store)
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
        # The day-41 store dropped the day-40 entry: the memo lives one
        # check day.
        assert stats["entries"] == 1

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
        from repro.core.store import PageStore

        # All 56 fetches of the one domain are kept, not just the first 30.
        backend, reports = self._run_sequence(
            burst_memo=True, store=PageStore(html_per_domain=10**6)
        )
        by_check = {}
        for page in backend.store:
            by_check.setdefault(page.check_id, []).append(page.timestamp)
        first_day_hit = by_check[reports[1].check_id]
        second_day_hit = by_check[reports[3].check_id]
        assert len(first_day_hit) == len(second_day_hit) == 14
        assert all(
            b > a + 86000 for a, b in zip(first_day_hit, second_day_hit)
        )


# ----------------------------------------------------------------------
# Residency and concurrent reads
# ----------------------------------------------------------------------
class TestDayScope:
    def test_multi_day_crawl_holds_only_the_last_days_entries(self):
        world = _world()
        backend = _backend(world, True)
        plan = build_plan(
            world, domains=world.crawled_domains[:5], products_per_retailer=3
        )
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=3))
        cache = backend.burst_cache
        held_days = {
            key[1] for entries in cache._entries.values() for key in entries
        }
        last_day = dataset.reports[-1].day_index
        assert last_day > dataset.reports[0].day_index
        assert held_days == {last_day}
        assert 0 < cache.stats()["entries"] < cache.stats()["stores"]

    def test_stats_poll_while_domains_are_added(self):
        """Serve reads ``stats()`` from request threads while a check
        (or a job's campaign) adds domains on another thread."""
        import sys
        import threading

        backend = _backend(_world(), True)
        cache = backend.burst_cache
        for i in range(2000):
            cache._domain_state(backend, f"warm{i}.example")
        errors: list[BaseException] = []
        done = threading.Event()

        def poll():
            while not done.is_set():
                try:
                    cache.stats()
                except RuntimeError as exc:
                    errors.append(exc)
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        poller = threading.Thread(target=poll)
        try:
            poller.start()
            for i in range(20000):
                cache._domain_state(backend, f"new{i}.example")
        finally:
            done.set()
            poller.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not poller.is_alive()
        assert not errors, errors[0]
        assert cache.stats()["domains"] == 22000
