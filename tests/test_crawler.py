"""Crawl planning and execution tests."""

from __future__ import annotations

import pytest

from repro.analysis.ratios import domain_variation_counts
from repro.core.backend import SheriffBackend
from repro.crawler.crawl import CrawlConfig, run_crawl
from repro.crawler.plan import CrawlPlan, PlanError, build_plan, select_domains_from_crowd
from repro.crawler.records import CrawlDataset
from repro.crowd.campaign import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def small_setup():
    world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=5))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    return world, backend


class TestPlan:
    def test_plan_covers_requested_domains(self, small_setup):
        world, _ = small_setup
        plan = build_plan(world, domains=world.crawled_domains[:5],
                          products_per_retailer=6)
        assert plan.domains == world.crawled_domains[:5]
        assert all(len(t.product_urls) == 6 for t in plan.targets)
        assert plan.total_product_urls == 30

    def test_product_urls_resolve(self, small_setup):
        world, _ = small_setup
        plan = build_plan(world, domains=["www.digitalrev.com"],
                          products_per_retailer=5)
        target = plan.targets[0]
        vantage = world.vantage_points[0]
        for url in target.product_urls:
            response = vantage.fetch(world.network, url)
            assert response.ok

    def test_anchor_works_for_each_target(self, small_setup):
        from repro.core.extraction import extract_price

        world, _ = small_setup
        plan = build_plan(world, domains=world.crawled_domains[:4],
                          products_per_retailer=3)
        vantage = world.vantage_points[2]
        for target in plan.targets:
            response = vantage.fetch(world.network, target.product_urls[0])
            extracted = extract_price(response.body, target.anchor)
            assert extracted.ok, (target.domain, extracted.error)

    def test_unknown_domain_rejected(self, small_setup):
        world, _ = small_setup
        with pytest.raises(PlanError):
            build_plan(world, domains=["nope.example"], products_per_retailer=3)

    def test_needs_domains_or_crowd(self, small_setup):
        world, _ = small_setup
        with pytest.raises(PlanError):
            build_plan(world)

    def test_products_cap_respected(self, small_setup):
        world, _ = small_setup
        domain = "www.digitalrev.com"
        catalog_size = len(world.retailer(domain).catalog)
        plan = build_plan(world, domains=[domain], products_per_retailer=10_000)
        # Index listing is capped, so we get min(listing, catalog).
        assert len(plan.targets[0].product_urls) <= max(250, catalog_size)

    def test_invalid_product_count(self, small_setup):
        world, _ = small_setup
        with pytest.raises(PlanError):
            build_plan(world, domains=["www.amazon.com"], products_per_retailer=0)

    def test_selection_from_crowd(self, small_setup):
        world, backend = small_setup
        crowd = run_campaign(
            world, backend, CampaignConfig(n_checks=80, population_size=40, seed=3)
        )
        selected = select_domains_from_crowd(
            crowd, min_flagged=1, max_retailers=21,
            carry_overs=["www.homedepot.com"],
        )
        assert selected
        assert len(selected) <= 21
        assert "www.homedepot.com" in selected
        # Ordered by flagged count descending (head = biggest discriminators).
        counts = domain_variation_counts(crowd.reports())
        head = selected[:3]
        assert all(counts.get(d, 0) >= 1 or d == "www.homedepot.com" for d in head)


class TestCrawl:
    def test_daily_structure(self, small_setup):
        world, backend = small_setup
        plan = build_plan(world, domains=world.crawled_domains[:3],
                          products_per_retailer=4)
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=2, start_day=200))
        assert len(dataset) == 2 * 3 * 4
        assert dataset.day_indices == [200, 201]
        assert set(dataset.domains) == set(world.crawled_domains[:3])

    def test_extracted_price_accounting(self, small_setup):
        world, backend = small_setup
        plan = build_plan(world, domains=["www.digitalrev.com"],
                          products_per_retailer=3)
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=1, start_day=210))
        assert dataset.n_extracted_prices == 3 * 14

    def test_by_product_groups_days(self, small_setup):
        world, backend = small_setup
        plan = build_plan(world, domains=["www.guess.eu"], products_per_retailer=2)
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=3, start_day=220))
        table = dataset.table
        by_product = table.rows_by_url()
        assert len(by_product) == 2
        for rows in by_product.values():
            assert sorted(table.day_index[i] for i in rows) == [220, 221, 222]

    def test_summary(self, small_setup):
        world, backend = small_setup
        plan = build_plan(world, domains=["www.guess.eu"], products_per_retailer=2)
        dataset = run_crawl(world, backend, plan, CrawlConfig(days=1, start_day=230))
        summary = dataset.summary()
        assert summary["retailers"] == 1
        assert summary["reports"] == 2
        assert summary["products"] == 2

    def test_empty_plan_rejected(self, small_setup):
        world, backend = small_setup
        with pytest.raises(ValueError):
            run_crawl(world, backend, CrawlPlan(targets=[]), CrawlConfig(days=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrawlConfig(days=0)
        with pytest.raises(ValueError):
            CrawlConfig(start_day=-1)
        with pytest.raises(ValueError):
            CrawlConfig(pacing_seconds=-0.1)
