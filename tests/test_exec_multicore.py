"""Multicore execution: pool persistence, memo telemetry, cheap boundary.

These tests pin three properties of
:class:`~repro.exec.process.ProcessExecutor` beyond byte identity (which
``test_exec_sharding.py`` owns):

* **Pool persistence** -- each dedicated worker regrows its world from
  the spec exactly once, no matter how many day batches it serves;
* **Fleet-wide memo counters** -- workers drain their burst cache's
  demotions and counter deltas back to the coordinator, whose
  ``cache_stats()`` counters then equal the sequential run's; memo
  entries stay in the worker that stored them;
* **Delta boundary** -- a batch that changes nothing (all memo hits)
  ships almost nothing: session state and page bodies cross the
  boundary only when they changed, and the coordinator's map of
  shipped page bodies holds one day.
"""

from __future__ import annotations

import pytest

from repro.core.backend import CheckRequest, SheriffBackend
from repro.crowd import CampaignConfig, run_campaign
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.ecommerce.world import WorldConfig, build_world
from repro.exec import ProcessExecutor


def _world(**overrides):
    config = dict(catalog_scale=0.15, long_tail_domains=0)
    config.update(overrides)
    return build_world(WorldConfig(**config))


def _backend(world, **kwargs):
    return SheriffBackend(
        world.network, world.vantage_points, world.rates, **kwargs
    )


def _product_requests(world, domains):
    """One check request per domain, for its first product."""
    from repro.analysis.personal import derive_anchor_for_domain

    requests = []
    for domain in domains:
        anchor = derive_anchor_for_domain(world, domain)
        product = world.retailer(domain).catalog.products[0]
        requests.append(CheckRequest(
            url=f"http://{domain}{product.path}", anchor=anchor
        ))
    return requests


def _campaign_stats(world, backend, exec_config=None):
    run_campaign(
        world, backend,
        CampaignConfig(n_checks=60, population_size=20, seed=11),
        exec_config=exec_config,
    )
    return backend.cache_stats()


class TestPoolPersistence:
    def test_worker_regrows_world_exactly_once_across_days(self):
        """A dedicated worker's world is built once per process, not per
        day batch -- the ~80ms/day respawn tax the old pool paid."""
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:4], products_per_retailer=3
        )
        with ProcessExecutor(world, 2) as executor:
            run_crawl(
                world, backend, plan, CrawlConfig(days=3), executor=executor
            )
            builds = executor.worker_worlds_built()
        assert len(builds) == 2
        # Every worker that served at least one batch built exactly once.
        assert all(count == 1 for count in builds if count), builds
        assert any(builds), "no worker reported a world build"


def _memo_counters(stats):
    """The ``burst_*`` keys except the ``entries`` gauge, which counts
    only the entries held by the cache it is read from."""
    return {
        k: v for k, v in stats.items()
        if k.startswith("burst_") and k != "burst_entries"
    }


class TestSharedMemo:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_coordinator_stats_cover_the_fleet(self, workers):
        """The worker-blind telemetry fix: under process mode the
        coordinator's burst counters equal the sequential run's, because
        every worker's counter deltas are absorbed at fold time.  (Hit
        absorption specifically is pinned by the delta-boundary test,
        where repeat batches guarantee hits.)  No entry crosses the
        boundary, so the coordinator holds none."""
        from repro.exec import ExecConfig

        solo = _campaign_stats(_world(), _backend(_world()))
        fleet = _campaign_stats(
            _world(), _backend(_world()),
            exec_config=ExecConfig(workers=workers, mode="process"),
        )
        assert solo["burst_misses"] > 0  # the campaign exercised the memo
        assert _memo_counters(fleet) == _memo_counters(solo)
        assert solo["burst_entries"] > 0
        assert fleet["burst_entries"] == 0

    def test_demotion_priority_over_entries(self):
        """A folded demotion drops the domain's stored entries, blocks
        new stores, and is not counted as a discovery."""
        from repro.core.burstcache import BurstCache

        world = _world()
        backend = _backend(world)
        cache: BurstCache = backend.burst_cache
        domain = "www.digitalrev.com"
        (request,) = _product_requests(world, [domain])
        backend.check(request)
        assert cache.stats()["entries"] == 1
        cache.fold_demotion(domain, "another worker caught the policy")
        assert cache.stats()["entries"] == 0
        assert domain in cache.demoted_domains()
        # Checks after the demotion run live and store nothing.
        backend.check(request)
        stats = cache.stats()
        assert stats["stores"] == 1
        assert stats["entries"] == 0
        assert stats["bypass_live_only"] == 1
        # Propagated demotions are not new discoveries.
        assert stats["demotions"] == 0


class TestDeltaBoundary:
    def test_unchanged_state_ships_almost_nothing(self):
        """Batch 2 of identical same-day checks is all memo hits: no new
        session state or page bodies cross the boundary."""
        world = _world()
        backend = _backend(world)
        domains = [
            d for d in world.crawled_domains
            if world.servers[d].signature_profile() is not None
        ][:3]
        requests = _product_requests(world, domains)
        start_times = [float(i) for i in range(len(requests))]
        with ProcessExecutor(world, 2) as executor:
            backend.check_batch(
                requests, start_times=start_times, executor=executor
            )
            first = executor.boundary_stats()
            backend.check_batch(
                requests, start_times=start_times, executor=executor
            )
            second = executor.boundary_stats()
        ship2 = second["ship_bytes"] - first["ship_bytes"]
        recv2 = second["recv_bytes"] - first["recv_bytes"]
        assert second["batches"] == 2
        # Outbound: only the tasks themselves remain -- no spec, no
        # session blobs travel again.
        assert 0 < ship2 < 0.9 * first["ship_bytes"], (
            f"second batch shipped {ship2} of {first['ship_bytes']}"
        )
        # Inbound: page bodies shipped last batch, so hits come back as
        # hash references only.
        assert 0 < recv2 < 0.25 * first["recv_bytes"], (
            f"second batch received {recv2} of {first['recv_bytes']}"
        )
        # ... and it was served from the memo of the worker that stored
        # the entries.
        assert backend.cache_stats()["burst_hits"] >= len(requests)

    def test_page_map_holds_one_day(self):
        """The coordinator's shipped-body map is scoped to one day: after
        a multi-day crawl it holds only bodies the last day archived."""
        from repro.core.store import PageStore

        world = _world()
        backend = _backend(world, store=PageStore(html_per_domain=10**6))
        plan = build_plan(
            world, domains=world.crawled_domains[:3], products_per_retailer=2
        )
        with ProcessExecutor(world, 2) as executor:
            dataset = run_crawl(
                world, backend, plan, CrawlConfig(days=3), executor=executor
            )
            held = set(executor._pages.values())
        last_day = dataset.reports[-1].day_index
        last_ids = {
            r.check_id for r in dataset.reports if r.day_index == last_day
        }
        last_bodies = {p.html for p in backend.store if p.check_id in last_ids}
        assert held
        assert held <= last_bodies

    def test_boundary_stats_accounting(self):
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:3], products_per_retailer=2
        )
        with ProcessExecutor(world, 2) as executor:
            run_crawl(
                world, backend, plan, CrawlConfig(days=2), executor=executor
            )
            stats = executor.boundary_stats()
        assert stats["batches"] == 2
        assert stats["payload_ms"] > 0
        assert stats["fold_ms"] > 0
        assert stats["ship_bytes"] > 0
        assert stats["recv_bytes"] > 0
