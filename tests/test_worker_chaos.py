"""Worker chaos: the supervisor heals the fleet; bytes never change.

Every test injects faults through the :func:`repro.exec.process.
install_fault_hook` seam (usually via :class:`tests.crashkit.FaultPlan`)
and asserts the one property the supervision layer exists for: **output
under any fault schedule is byte-identical to the fault-free run**,
because a dead worker's partial batch dies unfolded and the re-run
starts from the coordinator's pre-batch state.

Tiers:

* fast (``make chaos``, push CI): one mid-batch SIGKILL on a workers=4
  campaign, quarantine of a poison shard, hang detection, the exception
  relay edge cases, and the startup/dispatch leak checks;
* slow (PR CI, under ``make coverage``): the fault-point x victim
  grid, seeded random chaos schedules, and the
  checkpoint-composition test (coordinator SIGKILL at the
  ``worker-respawn`` barrier, then resume).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
from pathlib import Path

import pytest

from repro.core.backend import SheriffBackend
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, build_world
from repro.exec import ExecConfig, ExecError, ProcessExecutor
from repro.exec.process import FAULT_POINTS, install_fault_hook
from repro.io import report_to_dict
from tests.crashkit import FaultPlan, run_to_completion, run_until_killed

KILL_FAULTS = ("before-batch", "mid-batch", "after-batch")


@pytest.fixture(autouse=True)
def _clean_fault_hook():
    """No test leaks its fault hook forward."""
    yield
    install_fault_hook(None)


def _world(**overrides):
    config = dict(catalog_scale=0.15, long_tail_domains=0)
    config.update(overrides)
    return build_world(WorldConfig(**config))


def _backend(world, **kwargs):
    return SheriffBackend(
        world.network, world.vantage_points, world.rates, **kwargs
    )


def _campaign_blob(dataset) -> str:
    rows = [
        (r.user_id, r.user_country, r.day_index, r.domain, r.url,
         r.outcome.failure, r.outcome.user_amount, r.outcome.user_currency,
         report_to_dict(r.report) if r.report else None)
        for r in dataset
    ]
    return json.dumps(rows, sort_keys=True)


def _crawl_blob(dataset) -> str:
    return json.dumps(
        [report_to_dict(r) for r in dataset.reports], sort_keys=True
    )


def _run_campaign(faults=None, *, workers=4):
    """One campaign under a fault plan, on the pool ``ExecConfig(workers)``
    builds and so the default restart budget of 3; returns (bytes, the
    pool's supervision counters)."""
    world = _world()
    backend = _backend(world)
    previous = FaultPlan(faults or []).install()
    assert previous is None, "a fault hook leaked in from another test"
    executor = ExecConfig(workers=workers).create(world)
    try:
        dataset = run_campaign(
            world, backend,
            CampaignConfig(n_checks=60, population_size=30, seed=11,
                           start_day=0, end_day=4),
            executor=executor,
        )
    finally:
        executor.close()
        install_fault_hook(None)
    return _campaign_blob(dataset), executor.supervision_stats()


def _run_crawl(faults=None, *, days=3, workers=2, executor_kwargs=None):
    """One multi-day crawl under a fault plan with a hand-built executor.

    A crawl batches per day, so ``(worker, batch)`` faults land on real
    later batches -- the path campaigns only exercise when checkpointed.
    Returns (bytes, supervision stats).
    """
    world = _world()
    backend = _backend(world)
    plan = build_plan(
        world, domains=world.crawled_domains[:6], products_per_retailer=2
    )
    previous = FaultPlan(faults or []).install()
    assert previous is None, "a fault hook leaked in from another test"
    try:
        with ProcessExecutor(
            world, workers, restart_backoff_s=0.0,
            **(executor_kwargs or {}),
        ) as executor:
            dataset = run_crawl(
                world, backend, plan, CrawlConfig(days=days),
                executor=executor,
            )
            stats = executor.supervision_stats()
    finally:
        install_fault_hook(None)
    return _crawl_blob(dataset), stats


# ----------------------------------------------------------------------
# Fast tier: the push-gate smoke (`make chaos`)
# ----------------------------------------------------------------------
class TestWorkerKillSmoke:
    def test_mid_batch_sigkill_recovers_byte_identical(self):
        """SIGKILL one of four workers mid-day: the supervisor respawns
        it, re-ships full state, re-runs the shard -- and the dataset
        bytes cannot tell."""
        reference, _ = _run_campaign()
        chaotic, health = _run_campaign(
            [(1, 0, "mid-batch")]
        )
        assert chaotic == reference
        assert health["restarts"] == 1
        assert health["quarantined_shards"] == 0

    def test_death_between_batches_recovers(self):
        """A worker that dies between day batches is noticed at the next
        dispatch (broken pipe), not just mid-collect."""
        reference, _ = _run_crawl(days=2)
        # after-batch: the worker dies after replying for batch 0, so
        # batch 1's dispatch hits the dead pipe.
        chaotic, stats = _run_crawl([(0, 0, "after-batch")], days=2)
        assert chaotic == reference
        assert stats["restarts"] == 1

    def test_recovery_telemetry_accumulates(self):
        _, health = _run_campaign([(0, 0, "before-batch")])
        assert health["restarts"] == 1
        assert health["recovery_ms"] > 0


class TestQuarantine:
    def test_poison_shard_completes_inline_with_logged_warning(self, caplog):
        """A shard that keeps killing its workers exhausts the restart
        budget, gets quarantined with a structured warning, and its
        checks run inline on the coordinator -- the run completes and
        the bytes still match fault-free."""
        reference, _ = _run_campaign()
        # The plan re-kills each replacement at the re-dispatch, too:
        # the default budget of 3 respawns, and the fourth failure
        # quarantines the shard.
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            chaotic, health = _run_campaign([(0, 0, "before-batch")] * 4)
        assert chaotic == reference
        assert health["restarts"] == 3
        assert health["quarantined_shards"] == 1
        assert health["inline_checks"] > 0
        assert any(
            "quarantining shard 0" in record.getMessage()
            for record in caplog.records
        )

    def test_zero_budget_quarantines_on_first_failure(self, caplog):
        """A budget other than the default comes from an executor the
        caller builds itself and hands to ``run_crawl``."""
        reference, _ = _run_crawl(days=2)
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            chaotic, stats = _run_crawl(
                [(1, 0, "mid-batch")], days=2,
                executor_kwargs=dict(max_restarts=0),
            )
        assert chaotic == reference
        assert stats["restarts"] == 0
        assert stats["quarantined_shards"] == 1
        quarantines = [
            record.getMessage() for record in caplog.records
            if record.getMessage().startswith("quarantining shard")
        ]
        assert len(quarantines) == 1
        assert quarantines[0].startswith("quarantining shard 1 ")


class TestHangDetection:
    def test_hung_worker_is_killed_at_deadline_and_rerun(self):
        """A worker that stops replying is SIGKILLed once its size-scaled
        deadline expires; the re-run is byte-identical."""
        reference, _ = _run_crawl(days=2)
        chaotic, stats = _run_crawl(
            [(1, 0, "hang")], days=2,
            executor_kwargs=dict(min_deadline_s=2.0, deadline_per_check_s=0.0),
        )
        assert chaotic == reference
        assert stats["hang_kills"] == 1
        assert stats["restarts"] == 1

    def test_deadline_scales_with_predicted_shard_cost(self, monkeypatch):
        """The hang deadline grows by one second per check in the shard,
        the cost the planner packs shards by."""
        from repro.analysis.personal import derive_anchor_for_domain
        from repro.core.backend import CheckRequest, ScheduledCheck
        from repro.exec.plan import CostAwarePlanner

        world = _world()
        domain = "www.digitalrev.com"
        anchor = derive_anchor_for_domain(world, domain)
        product = world.retailer(domain).catalog.products[0]
        shard = [
            ScheduledCheck(
                index=i, check_id=f"chk{i:07d}", start_ts=float(i),
                request=CheckRequest(
                    url=f"http://{domain}{product.path}", anchor=anchor
                ),
            )
            for i in range(3)
        ]
        assert CostAwarePlanner(2).predicted_costs(shard) == {domain: 3}
        deadlines = []
        await_reply = ProcessExecutor._await_reply

        def spy(self, handle, shard_index, dispatched_at, deadline_s):
            deadlines.append(deadline_s)
            return await_reply(self, handle, shard_index, dispatched_at,
                               deadline_s)

        monkeypatch.setattr(ProcessExecutor, "_await_reply", spy)
        with ProcessExecutor(world, 1, min_deadline_s=7.0) as executor:
            reports = executor.run(_backend(world), shard, world.vantage_points)
        assert len(reports) == 3
        assert deadlines == [7.0 + 1.0 * len(shard)]


class TestExceptionRelay:
    """Satellite: worker exceptions -- picklable or not -- surface loudly."""

    def test_picklable_worker_exception_reraises_and_never_respawns(self):
        """A deterministic exception is not a worker failure: relay it,
        do not burn the restart budget re-running a check that will
        deterministically raise again."""
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:4],
            products_per_retailer=2,
        )
        FaultPlan([(0, 0, "raise")]).install()
        executor = ProcessExecutor(world, 2)
        try:
            with pytest.raises(RuntimeError, match="injected worker fault"):
                run_crawl(world, backend, plan, CrawlConfig(days=1),
                          executor=executor)
            assert executor.supervision_stats()["restarts"] == 0
        finally:
            executor.close()

    def test_unpicklable_worker_exception_surfaces_traceback_text(self):
        """An exception the relay cannot pickle falls back to a
        RuntimeError carrying the stringified traceback -- the cause is
        never masked and the coordinator never hangs."""
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:4],
            products_per_retailer=2,
        )
        FaultPlan([(1, 0, "raise-unpicklable")]).install()
        executor = ProcessExecutor(world, 2)
        try:
            with pytest.raises(RuntimeError) as excinfo:
                run_crawl(world, backend, plan, CrawlConfig(days=1),
                          executor=executor)
            text = str(excinfo.value)
            assert "_UnpicklableFault" in text
            assert "injected worker fault: raise-unpicklable" in text
            assert "Traceback" in text
            assert executor.supervision_stats()["restarts"] == 0
        finally:
            executor.close()


class TestStartupAndDispatchCleanup:
    """Satellite: no leaked processes or pipes on any failure path."""

    def test_spawn_failure_closes_pipes_and_joins_started_workers(
        self, monkeypatch
    ):
        world = _world()
        spawned = []
        real = ProcessExecutor._spawn_worker

        def flaky(self, index):
            if index == 2:
                raise RuntimeError("spawn blew up")
            handle = real(self, index)
            spawned.append(handle)
            return handle

        monkeypatch.setattr(ProcessExecutor, "_spawn_worker", flaky)
        with pytest.raises(RuntimeError, match="spawn blew up"):
            ProcessExecutor(world, 4)
        assert len(spawned) == 2, "workers 0 and 1 started before the failure"
        for handle in spawned:
            handle.proc.join(timeout=10)
            assert not handle.proc.is_alive()
            assert handle.conn.closed

    def test_fatal_run_error_closes_the_executor(self):
        """An error the supervisor cannot absorb (a relayed worker
        exception) must not strand live workers behind the raise."""
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:4],
            products_per_retailer=2,
        )
        FaultPlan([(0, 0, "raise")]).install()
        executor = ProcessExecutor(world, 2)
        with pytest.raises(RuntimeError):
            run_crawl(world, backend, plan, CrawlConfig(days=1),
                      executor=executor)
        for handle in executor._handles:  # noqa: SLF001
            handle.proc.join(timeout=10)
            assert not handle.proc.is_alive()
            assert handle.conn.closed
        executor.close()  # idempotent

    def test_closed_executor_refuses_work(self):
        """A caller-owned pool outlives the runs it serves, so a run can
        reach one its owner already closed: it is refused before any
        dispatch, and no worker is started behind the refusal."""
        world = _world()
        backend = _backend(world)
        plan = build_plan(
            world, domains=world.crawled_domains[:4],
            products_per_retailer=2,
        )
        executor = ProcessExecutor(world, 2)
        executor.close()
        with pytest.raises(ExecError, match="closed"):
            run_crawl(world, backend, plan, CrawlConfig(days=1),
                      executor=executor)
        assert multiprocessing.active_children() == []
        assert executor.supervision_stats()["restarts"] == 0
        assert len(backend.store) == 0


class TestFaultPlan:
    def test_seeded_schedules_are_deterministic(self):
        a = FaultPlan.seeded(7, workers=4, batches=5, n_faults=6)
        b = FaultPlan.seeded(7, workers=4, batches=5, n_faults=6)
        assert a.specs() == b.specs()
        assert FaultPlan.seeded(
            8, workers=4, batches=5, n_faults=6
        ).specs() != a.specs()
        for fault in a.specs():
            assert 0 <= fault["worker"] < 4
            assert 0 <= fault["batch"] < 5
            assert fault["point"] in FAULT_POINTS

    def test_each_fault_fires_once_and_duplicates_stack(self):
        plan = FaultPlan([(0, 1, "mid-batch"), (0, 1, "before-batch")])
        assert plan(0, 0) is None
        assert plan(0, 1) == "mid-batch"
        assert plan(0, 1) == "before-batch"
        assert plan(0, 1) is None


# ----------------------------------------------------------------------
# Slow tier: the full chaos grids
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestChaosGrid:
    """Any single worker, any fault point."""

    def test_any_single_worker_kill_is_byte_identical(self):
        reference, _ = _run_campaign()
        for victim in range(4):
            point = KILL_FAULTS[victim % len(KILL_FAULTS)]
            chaotic, health = _run_campaign([(victim, 0, point)])
            context = f"victim={victim} point={point}"
            assert chaotic == reference, f"{context}: bytes differ"
            assert health["restarts"] == 1, context

    def test_multi_day_multi_fault_crawl_is_byte_identical(self):
        reference, _ = _run_crawl(days=3, workers=3)
        faults = [
            (0, 0, "mid-batch"), (2, 1, "before-batch"),
            (1, 2, "after-batch"), (0, 2, "mid-batch"),
        ]
        chaotic, stats = _run_crawl(faults, days=3, workers=3)
        assert chaotic == reference
        assert stats["restarts"] == len(faults)


@pytest.mark.slow
class TestSeededChaos:
    def test_random_fault_schedules_are_byte_identical(self):
        """Deterministic chaos: seeded random kill schedules (including
        hangs, under a short deadline) never change the bytes."""
        reference, _ = _run_crawl(days=3, workers=3)
        for seed in (1, 2, 3):
            plan = FaultPlan.seeded(
                seed, workers=3, batches=3, n_faults=4,
                points=KILL_FAULTS + ("hang",),
            )
            faults = [
                (f["worker"], f["batch"], f["point"]) for f in plan.specs()
            ]
            chaotic, stats = _run_crawl(
                faults, days=3, workers=3,
                executor_kwargs=dict(
                    min_deadline_s=3.0, deadline_per_check_s=0.2
                ),
            )
            assert chaotic == reference, f"seed {seed}: bytes differ"
            assert stats["restarts"] >= 1, f"seed {seed}: no fault fired?"


@pytest.mark.slow
class TestCheckpointComposition:
    """Worker death composes with coordinator kill/resume."""

    WORLD = {"catalog_scale": 0.15, "long_tail_domains": 8}
    CAMPAIGN = {
        "n_checks": 240, "population_size": 30, "seed": 7,
        "start_day": 0, "end_day": 6,
    }

    def _spec(self, tmp_path: Path, tag: str, **overrides) -> dict:
        spec = {
            "kind": "campaign",
            "world": self.WORLD,
            "campaign": self.CAMPAIGN,
            "checkpoint_dir": str(tmp_path / tag / "ckpt"),
            "out": str(tmp_path / tag / "out.jsonl"),
            "result": str(tmp_path / tag / "result.json"),
        }
        spec.update(overrides)
        return spec

    def test_worker_faults_alone_stay_byte_identical_checkpointed(
        self, tmp_path
    ):
        """A checkpointed campaign is day-batched, so (worker, batch)
        faults land on real later days; the driver-side fault plan must
        not disturb the committed bytes."""
        reference = run_to_completion(self._spec(tmp_path, "ref"))
        faulted = run_to_completion(self._spec(
            tmp_path, "faulted",
            workers=2,
            worker_faults=FaultPlan(
                [(0, 1, "mid-batch"), (1, 3, "before-batch")]
            ).specs(),
        ))
        assert faulted["out_sha256"] == reference["out_sha256"]
        assert faulted["archive_chain"] == reference["archive_chain"]

    def test_coordinator_sigkill_during_respawn_resumes_byte_identical(
        self, tmp_path
    ):
        """SIGKILL the coordinator at the worker-respawn barrier -- the
        narrowest recovery window: a worker is dead, its replacement not
        yet spawned, the day uncommitted.  The resume (fault-free, under
        a different worker count) must reproduce the reference bytes."""
        reference = run_to_completion(self._spec(tmp_path, "ref"))
        run_until_killed(self._spec(
            tmp_path, "kill",
            workers=2,
            worker_faults=FaultPlan([(1, 2, "mid-batch")]).specs(),
            kill={"point": "worker-respawn", "count": 1},
        ))
        resumed = run_to_completion(self._spec(
            tmp_path, "kill",
            workers=4, resume=True,
        ))
        assert resumed["out_sha256"] == reference["out_sha256"]
        assert resumed["archive_chain"] == reference["archive_chain"]
        assert resumed["rows"] == reference["rows"]
