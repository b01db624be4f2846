"""Sharded execution: partition stability and byte-identical merges.

The executor contract (``docs/ARCHITECTURE.md``): a crawl or campaign
executed across N worker shards serializes to exactly the bytes of the
sequential run, for any N, in-process or across processes.  These tests
assert the contract end to end -- dataset serialization compared as
strings -- plus the pieces it rests on: retailer-owned, order-preserving
cost-aware partitions, and store-state equivalence.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import CheckRequest, ScheduledCheck, SheriffBackend

# The byte-identity suites below re-run whole crawls/campaigns per
# worker count: full tier only (docs/TESTING.md).  The planner /
# ExecConfig unit tests stay in the fast tier.
slow = pytest.mark.slow
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, WorldSpec, build_world
from repro.exec import (
    CostAwarePlanner,
    ExecConfig,
    ExecError,
    LocalExecutor,
    ProcessExecutor,
)
from repro.exec.plan import LIVE_CHECK_COST, MEMO_HIT_COST
from repro.io import report_to_dict


def _tiny_world():
    return build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))


def _anchor(world, domain):
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def _crawl_blob(exec_config, *, loss_rate=0.0, memo=True) -> tuple[str, tuple]:
    """Serialize a small same-seed crawl plus a store signature."""
    world = build_world(
        WorldConfig(catalog_scale=0.15, long_tail_domains=0, loss_rate=loss_rate)
    )
    backend = SheriffBackend(
        world.network, world.vantage_points, world.rates, burst_memo=memo
    )
    plan = build_plan(
        world, domains=world.crawled_domains[:5], products_per_retailer=4
    )
    dataset = run_crawl(
        world, backend, plan, CrawlConfig(days=2), exec_config=exec_config
    )
    blob = json.dumps(
        [report_to_dict(r) for r in dataset.reports], sort_keys=True
    )
    store = backend.store
    signature = (
        len(store),
        store.retained_html_count(),
        store.unique_html_count(),
        [(p.check_id, p.vantage, p.timestamp, p.html) for p in store],
    )
    return blob, signature


def _campaign_blob(exec_config) -> str:
    world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=10))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
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


# ----------------------------------------------------------------------
# CostAwarePlanner
# ----------------------------------------------------------------------
class TestCostAwarePlanner:
    def _scheduled(self, world, domains, repeats=1):
        anchor = _anchor(world, "www.digitalrev.com")
        scheduled = []
        index = 0
        for _ in range(repeats):
            for domain in domains:
                product = world.retailer(domain).catalog.products[0]
                scheduled.append(ScheduledCheck(
                    index=index,
                    check_id=f"chk{index:07d}",
                    start_ts=float(index),
                    request=CheckRequest(
                        url=f"http://{domain}{product.path}", anchor=anchor
                    ),
                ))
                index += 1
        return scheduled

    def test_partition_covers_all_and_preserves_order(self):
        world = _tiny_world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        scheduled = self._scheduled(world, world.crawled_domains[:6], repeats=3)
        shards = CostAwarePlanner(4).partition_batch(backend, scheduled)
        assert len(shards) == 4
        flat = [sched.index for shard in shards for sched in shard]
        assert sorted(flat) == list(range(len(scheduled)))
        for shard in shards:  # submission order survives inside a shard
            assert [s.index for s in shard] == sorted(s.index for s in shard)
        # Every domain's checks live on exactly one shard.
        owners: dict[str, set] = {}
        for i, shard in enumerate(shards):
            for sched in shard:
                owners.setdefault(sched.request.url.split("/")[2], set()).add(i)
        assert all(len(shards_of) == 1 for shards_of in owners.values())

    def test_memo_repeats_priced_as_hits(self):
        """Repeats of one (url, day) burst on a memoizable retailer cost
        MEMO_HIT_COST; a live-only retailer (login support) pays full
        price every time."""
        world = _tiny_world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        memoizable, live_only = "www.digitalrev.com", "www.amazon.com"
        assert world.servers[memoizable].signature_profile() is not None
        assert world.servers[live_only].signature_profile() is None
        scheduled = self._scheduled(world, [memoizable, live_only], repeats=3)
        costs = CostAwarePlanner(2).predicted_costs(backend, scheduled)
        assert costs[memoizable] == LIVE_CHECK_COST + 2 * MEMO_HIT_COST
        assert costs[live_only] == 3 * LIVE_CHECK_COST

    def test_memo_disabled_prices_everything_live(self):
        world = _tiny_world()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates, burst_memo=False
        )
        scheduled = self._scheduled(world, ["www.digitalrev.com"], repeats=3)
        costs = CostAwarePlanner(2).predicted_costs(backend, scheduled)
        assert costs["www.digitalrev.com"] == 3 * LIVE_CHECK_COST

    def test_assign_equalizes_loads_deterministically(self):
        planner = CostAwarePlanner(2)
        costs = {"a.example": 40.0, "b.example": 20.0, "c.example": 20.0}
        assignment = planner.assign(costs)
        # LPT: the big retailer gets its own shard, the two small ones
        # share the other.
        assert assignment["b.example"] == assignment["c.example"]
        assert assignment["a.example"] != assignment["b.example"]
        # Deterministic under dict-order permutations.
        permuted = planner.assign({
            "c.example": 20.0, "a.example": 40.0, "b.example": 20.0
        })
        assert permuted == assignment

    def test_cost_ties_break_by_domain_name(self):
        assignment = CostAwarePlanner(2).assign(
            {"b.example": 10.0, "a.example": 10.0}
        )
        # Equal costs: 'a' is considered first and lands on shard 0.
        assert assignment["a.example"] == 0
        assert assignment["b.example"] == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            CostAwarePlanner(0)


# ----------------------------------------------------------------------
# ExecConfig
# ----------------------------------------------------------------------
class TestExecConfig:
    def test_defaults_are_sequential(self):
        config = ExecConfig()
        assert config.workers == 1 and config.mode == "local"
        assert config.create(_tiny_world()) is None

    def test_local_workers_create_local_executor(self):
        executor = ExecConfig(workers=3).create(_tiny_world())
        assert isinstance(executor, LocalExecutor)
        assert executor.plan.workers == 3

    def test_process_mode_creates_process_executor(self):
        executor = ExecConfig(workers=2, mode="process").create(_tiny_world())
        try:
            assert isinstance(executor, ProcessExecutor)
        finally:
            executor.close()

    def test_validation(self):
        # No automatic choice: the caller names a worker count >= 1 and
        # one of the two modes.
        for bad in ({"workers": -1}, {"workers": 0}, {"mode": "threads"},
                    {"mode": "auto"}):
            with pytest.raises(ValueError):
                ExecConfig(**bad)


# ----------------------------------------------------------------------
# Byte identity: crawl
# ----------------------------------------------------------------------
@slow
class TestCrawlByteIdentity:
    def test_local_workers_1_2_4_identical(self):
        """The acceptance criterion: same-seed crawls at workers 1/2/4
        serialize to identical bytes (and identical archived stores)."""
        base_blob, base_store = _crawl_blob(None)
        for workers in (1, 2, 4):
            blob, store = _crawl_blob(ExecConfig(workers=workers))
            assert blob == base_blob, f"workers={workers} diverged"
            assert store == base_store, f"workers={workers} store diverged"

    def test_process_workers_identical(self):
        base_blob, base_store = _crawl_blob(None)
        blob, store = _crawl_blob(ExecConfig(workers=2, mode="process"))
        assert blob == base_blob
        assert store == base_store

    def test_identity_survives_packet_loss(self):
        """Loss draws are per-request, so retries/failures land on the
        same fetches in every execution mode."""
        base_blob, _ = _crawl_blob(None, loss_rate=0.10)
        blob, _ = _crawl_blob(ExecConfig(workers=3), loss_rate=0.10)
        assert blob == base_blob

    def test_planner_memo_executor_grid_identical(self):
        """The executor acceptance grid: executor x workers x memo, every
        sharded cell partitioned by the cost planner, all serialize to the
        sequential baseline's bytes."""
        base_blob, base_store = _crawl_blob(None)
        for mode in ("local", "process"):
            for workers in (1, 2, 4):
                for memo in (True, False):
                    config = ExecConfig(workers=workers, mode=mode)
                    blob, store = _crawl_blob(config, memo=memo)
                    label = f"{mode}x{workers}/memo={memo}"
                    assert blob == base_blob, f"{label} diverged"
                    assert store == base_store, f"{label} store diverged"


# ----------------------------------------------------------------------
# Byte identity: campaign
# ----------------------------------------------------------------------
@slow
class TestCampaignByteIdentity:
    def test_local_workers_identical(self):
        base = _campaign_blob(None)
        for workers in (2, 4):
            assert _campaign_blob(ExecConfig(workers=workers)) == base

    def test_process_workers_identical(self):
        base = _campaign_blob(None)
        assert _campaign_blob(ExecConfig(workers=2, mode="process")) == base


# ----------------------------------------------------------------------
# Executor seams
# ----------------------------------------------------------------------
@slow
class TestExecutorSeams:
    def test_caller_owned_executor_reused_across_days(self):
        base_blob, _ = _crawl_blob(None)
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        plan = build_plan(
            world, domains=world.crawled_domains[:5], products_per_retailer=4
        )
        executor = LocalExecutor(2)
        dataset = run_crawl(
            world, backend, plan, CrawlConfig(days=2), executor=executor
        )
        blob = json.dumps(
            [report_to_dict(r) for r in dataset.reports], sort_keys=True
        )
        assert blob == base_blob

    def test_exec_config_and_executor_are_exclusive(self):
        world = _tiny_world()
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        plan = build_plan(
            world, domains=world.crawled_domains[:1], products_per_retailer=2
        )
        with pytest.raises(ValueError):
            run_crawl(
                world, backend, plan, CrawlConfig(days=1),
                exec_config=ExecConfig(workers=2),
                executor=LocalExecutor(2),
            )

    def test_start_times_must_match_requests(self):
        world = _tiny_world()
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        anchor = _anchor(world, "www.digitalrev.com")
        product = world.retailer("www.digitalrev.com").catalog.products[0]
        request = CheckRequest(
            url=f"http://www.digitalrev.com{product.path}", anchor=anchor
        )
        with pytest.raises(ValueError):
            backend.check_batch([request, request], start_times=[1.0])

    def test_process_executor_rejects_foreign_fleet(self):
        world = _tiny_world()
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        anchor = _anchor(world, "www.digitalrev.com")
        product = world.retailer("www.digitalrev.com").catalog.products[0]
        request = CheckRequest(
            url=f"http://www.digitalrev.com{product.path}", anchor=anchor
        )
        with ProcessExecutor(world, 2) as executor:
            with pytest.raises(ExecError):
                backend.check_batch(
                    [request],
                    vantage_points=world.vantage_points[:3],
                    executor=executor,
                )

    def test_world_spec_round_trip(self):
        world = _tiny_world()
        spec = world.spec()
        assert spec == WorldSpec(config=world.config)
        rebuilt = spec.build()
        assert rebuilt.crawled_domains == world.crawled_domains
        assert [vp.name for vp in rebuilt.vantage_points] == [
            vp.name for vp in world.vantage_points
        ]
