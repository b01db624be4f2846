"""Whole-system integration tests: the paper's pipeline, front to back.

These are the "does the story hold together" tests: crowd discovery feeds
crawl planning, the crawl feeds the analyses, and the headline conclusions
drop out -- on a freshly built world, not the shared fixtures.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    clean_reports,
    domain_ratio_stats,
    domain_variation_counts,
    finland_profile,
    location_ratio_stats,
    variation_extent,
)
from repro.analysis.cleaning import split_by_user_agreement
from repro.core.backend import SheriffBackend
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crawler.plan import select_domains_from_crowd
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, build_world


@pytest.fixture(scope="module")
def pipeline():
    """One full crowd -> plan -> crawl -> clean pipeline."""
    world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=30))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    crowd = run_campaign(
        world, backend, CampaignConfig(n_checks=200, population_size=80, seed=5)
    )
    domains = select_domains_from_crowd(
        crowd,
        min_flagged=1,
        max_retailers=21,
        carry_overs=[d for d in world.crawled_domains],
    )
    plan = build_plan(world, domains=domains, products_per_retailer=8, seed=5)
    crawl = run_crawl(world, backend, plan, CrawlConfig(days=2))
    clean = clean_reports(crawl.reports, world.rates)
    return world, backend, crowd, plan, crawl, clean


class TestDiscoveryFeedsCrawl:
    def test_crowd_discovers_real_discriminators(self, pipeline):
        world, _, crowd, plan, _, _ = pipeline
        flagged = set(domain_variation_counts(crowd.reports()))
        # No honest long-tail shop is ever selected for the crawl.
        assert not (set(plan.domains) & set(world.long_tail))
        # The crawl contains crowd-discovered shops.
        assert flagged & set(plan.domains)

    def test_crawl_has_21_targets(self, pipeline):
        _, _, _, plan, _, _ = pipeline
        assert len(plan) == 21


class TestConclusionsHold:
    def test_variation_shops_have_full_extent(self, pipeline):
        world, _, _, _, _, clean = pipeline
        extent = variation_extent(clean.kept)
        assert extent.get("www.digitalrev.com", 0) >= 0.9
        assert extent.get("www.misssixty.com", 0) >= 0.9

    def test_magnitudes_in_paper_band(self, pipeline):
        _, _, _, _, _, clean = pipeline
        stats = domain_ratio_stats(clean.kept, only_variation=True)
        medians = [s.median for s in stats.values()]
        assert medians
        in_band = [m for m in medians if 1.05 <= m <= 1.8]
        assert len(in_band) >= 0.8 * len(medians)

    def test_finland_dearest(self, pipeline):
        _, _, _, _, _, clean = pipeline
        stats = location_ratio_stats(clean.kept)
        fi = stats["Finland - Tampere"]
        assert fi.median >= max(
            s.median for name, s in stats.items() if name != "Finland - Tampere"
        )

    def test_finland_exceptions(self, pipeline):
        _, _, _, _, _, clean = pipeline
        varied = [r for r in clean.kept if r.has_variation]
        profile = finland_profile(varied)
        cheap = {d for d, s in profile.items() if s.median <= 1.02}
        assert cheap <= {"www.mauijim.com", "www.tuscanyleather.it"}

    def test_crowd_agreement_mostly_clean(self, pipeline):
        world, _, crowd, _, _, _ = pipeline
        agreeing, disagreeing = split_by_user_agreement(crowd.records, world.rates)
        # Only referral-discounted checks may disagree (p_referred=5%).
        assert len(disagreeing) <= 0.15 * len(crowd.records)


class TestDeterminism:
    def test_same_seed_same_crowd_outcome(self):
        def run_once():
            world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=5))
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates
            )
            crowd = run_campaign(
                world, backend,
                CampaignConfig(n_checks=40, population_size=25, seed=11),
            )
            return sorted(domain_variation_counts(crowd.reports()).items())

        assert run_once() == run_once()

    def test_different_seed_different_outcome(self):
        def run_once(seed):
            world = build_world(
                WorldConfig(seed=seed, catalog_scale=0.15, long_tail_domains=5)
            )
            backend = SheriffBackend(
                world.network, world.vantage_points, world.rates
            )
            crowd = run_campaign(
                world, backend,
                CampaignConfig(n_checks=40, population_size=25, seed=seed),
            )
            return sorted((r.domain, r.day_index) for r in crowd.records)

        assert run_once(1) != run_once(2)
