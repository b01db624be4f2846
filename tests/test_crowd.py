"""Crowd population and campaign tests."""

from __future__ import annotations

import pytest

from repro.analysis.ratios import domain_ratios, domain_variation_counts
from repro.core.backend import SheriffBackend
from repro.crowd.campaign import CampaignConfig, run_campaign
from repro.crowd.dataset import CrowdDataset
from repro.crowd.population import COUNTRY_SHARES, build_population
from repro.ecommerce.world import WorldConfig, build_world
from repro.net.geoip import IPAddressPlan


class TestPopulation:
    def test_size_and_determinism(self):
        plan = IPAddressPlan()
        users = build_population(plan, size=100, seed=1)
        assert len(users) == 100
        again = build_population(IPAddressPlan(), size=100, seed=1)
        assert [u.user_id for u in users] == [u.user_id for u in again]
        assert [u.country_code for u in users] == [u.country_code for u in again]

    def test_country_spread(self):
        plan = IPAddressPlan()
        users = build_population(plan, size=340, seed=2)
        countries = {u.country_code for u in users}
        assert len(countries) >= 14  # most of the 18 show up at this size
        valid = {code for code, _ in COUNTRY_SHARES}
        assert countries <= valid

    def test_interests_valid(self):
        plan = IPAddressPlan()
        for user in build_population(plan, size=50, seed=3):
            assert 2 <= len(user.interests) <= 3
            assert user.activity > 0

    def test_unique_ips(self):
        plan = IPAddressPlan()
        users = build_population(plan, size=120, seed=4)
        assert len({u.client.ip for u in users}) == 120

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_population(IPAddressPlan(), size=0)


@pytest.fixture(scope="module")
def campaign_result():
    world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=15))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    config = CampaignConfig(n_checks=120, population_size=60, seed=7)
    dataset = run_campaign(world, backend, config)
    return world, backend, dataset


class TestCampaign:
    def test_check_count(self, campaign_result):
        _, _, dataset = campaign_result
        assert dataset.n_requests == 120

    def test_summary_statistics(self, campaign_result):
        _, _, dataset = campaign_result
        summary = dataset.summary()
        assert summary["requests"] == 120
        assert 0 < summary["users"] <= 60
        assert summary["countries"] >= 5
        assert summary["domains"] >= 10

    def test_most_checks_succeed(self, campaign_result):
        _, _, dataset = campaign_result
        ok = [record for record in dataset if record.ok]
        assert len(ok) >= 0.95 * len(dataset)

    def test_timestamps_monotonic(self, campaign_result):
        _, _, dataset = campaign_result
        days = [record.day_index for record in dataset]
        assert days == sorted(days)
        assert days[0] >= 0
        assert days[-1] <= 150

    def test_variation_counts_only_flag_discriminators(self, campaign_result):
        world, _, dataset = campaign_result
        counts = domain_variation_counts(dataset.reports())
        assert counts  # something was flagged
        for domain in counts:
            assert domain not in world.long_tail

    def test_discovery_finds_big_discriminators(self, campaign_result):
        """The crowd's whole point: heavily-checked variation retailers
        surface at the head of the flagged list."""
        _, _, dataset = campaign_result
        counts = domain_variation_counts(dataset.reports())
        top = [domain for domain, _ in counts.most_common(6)]
        assert "www.amazon.com" in top

    def test_user_prices_recorded(self, campaign_result):
        _, _, dataset = campaign_result
        with_price = [
            record for record in dataset
            if record.ok and record.outcome.user_amount is not None
        ]
        assert len(with_price) >= 0.9 * dataset.n_requests

    def test_domain_ratios_structure(self, campaign_result):
        _, _, dataset = campaign_result
        ratios = domain_ratios(dataset.reports(), only_variation=True)
        for domain, values in ratios.items():
            assert all(v >= 1.0 for v in values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(n_checks=0)
        with pytest.raises(ValueError):
            CampaignConfig(start_day=10, end_day=10)
        with pytest.raises(ValueError):
            CampaignConfig(p_wrong_highlight=1.5)

    def test_campaign_deterministic(self):
        def run_once():
            world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=5))
            backend = SheriffBackend(world.network, world.vantage_points, world.rates)
            dataset = run_campaign(
                world, backend, CampaignConfig(n_checks=25, population_size=20, seed=9)
            )
            return [(r.user_id, r.domain, r.day_index) for r in dataset]

        assert run_once() == run_once()
