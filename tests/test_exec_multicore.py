"""Multicore execution: one pool per unit of work, pool persistence and
a cheap boundary.

These tests pin three properties of
:class:`~repro.exec.process.ProcessExecutor` beyond byte identity (which
``test_exec_sharding.py`` owns):

* **One pool per unit of work** -- a CLI command, a scenario cell: the
  caller that starts it builds one pool, whose workers serve the
  campaign and the crawl alike;
* **Pool persistence** -- each dedicated worker regrows its world from
  the spec exactly once, no matter how many day batches it serves;
* **Delta boundary** -- a batch that repeats the last one's checks ships
  almost nothing: session state and page bodies cross the boundary only
  when they changed, and the coordinator's map of shipped page bodies
  holds one day.

Workers run without a burst memo (the executor refuses a backend that
holds one; ``tests/test_burst_memo.py`` pins the refusal).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.backend import CheckRequest, SheriffBackend
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


class TestOnePoolPerUnitOfWork:
    @pytest.fixture()
    def built(self, monkeypatch) -> dict:
        """Counts of pools built and worker processes spawned."""
        counts = {"pools": 0, "workers": 0}
        init = ProcessExecutor.__init__
        spawn = ProcessExecutor._spawn_worker

        def counting_init(self, *args, **kwargs):
            counts["pools"] += 1
            init(self, *args, **kwargs)

        def counting_spawn(self, index):
            counts["workers"] += 1
            return spawn(self, index)

        monkeypatch.setattr(ProcessExecutor, "__init__", counting_init)
        monkeypatch.setattr(ProcessExecutor, "_spawn_worker", counting_spawn)
        return counts

    @pytest.mark.parametrize("command", ["crawl", "report"])
    def test_cli_command_runs_campaign_and_crawl_on_one_pool(
        self, command, built, capsys
    ):
        from repro import cli

        cli.main([command, "--scale", "tiny", "--workers", "2"])
        assert "crawl" in capsys.readouterr().out
        assert built == {"pools": 1, "workers": 2}
        assert multiprocessing.active_children() == []

    def test_scenario_cell_builds_one_pool(self, built):
        from repro.scenarios.harness import GridCell, run_cell

        result = run_cell("page-noise", GridCell(workers=2, burst_memo=False))
        assert built == {"pools": 1, "workers": 2}
        assert result.fleet_health["restarts"] == 0
        assert multiprocessing.active_children() == []


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


class TestDeltaBoundary:
    def test_unchanged_state_ships_almost_nothing(self):
        """Batch 2 repeats batch 1's same-day checks: no spec or session
        blob is shipped again, and its pages come back as references to
        the bodies batch 1 shipped."""
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
        # Inbound: page bodies shipped last batch, so repeats come back as
        # hash references only.
        assert 0 < recv2 < 0.25 * first["recv_bytes"], (
            f"second batch received {recv2} of {first['recv_bytes']}"
        )

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
