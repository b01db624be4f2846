"""SIGKILL crash matrix: kill a checkpointed run, resume, compare bytes.

Every test here goes through ``tests/crashkit.py``: the run executes in a
subprocess that self-SIGKILLs at the Nth firing of a named checkpoint
barrier, then a second subprocess resumes from whatever the kill left on
disk.  Byte identity is asserted on the saved columnar dataset *and* the
archive hash chain (chain equality == the page-archive stream matched).

Tiers:

* the smoke test (fast tier, runs on every push) is one cell and one
  kill point;
* the grids (slow tier) sweep executor x kill point, resuming under a
  *different* cell than the one that died -- the checkpoint fingerprint
  deliberately excludes the executor, and bytes must not care (a
  checkpointed run holds no burst memo: it refuses one);
* the large-campaign test (slow tier) checkpoints a
  ``CRASHKIT_CHECKS``-check campaign (default 20000; set the env var to
  100000+ for the full acceptance run -- same code path, just longer),
  kills at a day boundary and mid-flush, and bounds the resumed run's
  peak RSS against the uninterrupted run's: folding committed segments
  one at a time must not cost more than (spine + one day-segment).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from tests.crashkit import (
    KILL_POINTS,
    run_to_completion,
    run_until_killed,
)

WORLD = {"catalog_scale": 0.15, "long_tail_domains": 8}
CAMPAIGN = {
    "n_checks": 60, "population_size": 30, "seed": 7,
    "start_day": 0, "end_day": 6,
}
GRID_CAMPAIGN = dict(CAMPAIGN, n_checks=240)
CRAWL = {"days": 3, "start_day": 3}

#: executor cells; resumes rotate through this list so every killed
#: cell is resumed by a *different* one.
CELLS = (
    {"workers": 1},
    {"workers": 2},
)


def _spec(tmp_path: Path, tag: str, **overrides) -> dict:
    spec = {
        "kind": "campaign",
        "world": WORLD,
        "campaign": CAMPAIGN,
        "checkpoint_dir": str(tmp_path / tag / "ckpt"),
        "out": str(tmp_path / tag / "out.jsonl"),
        "result": str(tmp_path / tag / "result.json"),
    }
    spec.update(overrides)
    return spec


def _identical(reference: dict, resumed: dict, context: str) -> None:
    assert resumed["out_sha256"] == reference["out_sha256"], (
        f"{context}: resumed dataset bytes differ"
    )
    assert resumed["archive_chain"] == reference["archive_chain"], (
        f"{context}: archive hash chain diverged"
    )
    assert resumed["rows"] == reference["rows"]


class TestKillResumeSmoke:
    """One cell, one kill point -- the fast-tier push gate."""

    def test_sigkill_mid_manifest_write_resumes_byte_identical(
        self, tmp_path: Path
    ):
        reference = run_to_completion(_spec(tmp_path, "ref"))
        kill = _spec(
            tmp_path, "kill",
            kill={"point": "manifest-mid-write", "count": 2},
        )
        run_until_killed(kill)
        resumed = run_to_completion(
            _spec(tmp_path, "kill", resume=True)
        )
        _identical(reference, resumed, "manifest-mid-write smoke")


@pytest.mark.slow
class TestCampaignKillResumeGrid:
    """Executor x kill point, with cross-cell resume."""

    def test_every_cell_and_kill_point_resumes_byte_identical(
        self, tmp_path: Path
    ):
        reference = run_to_completion(
            _spec(tmp_path, "ref", campaign=GRID_CAMPAIGN)
        )
        case = 0
        for i, cell in enumerate(CELLS):
            for point in KILL_POINTS:
                tag = f"g{case}"
                resume_cell = CELLS[(i + 1) % len(CELLS)]
                run_until_killed(_spec(
                    tmp_path, tag, campaign=GRID_CAMPAIGN, **cell,
                    kill={"point": point, "count": 3},
                ))
                resumed = run_to_completion(_spec(
                    tmp_path, tag, campaign=GRID_CAMPAIGN, **resume_cell,
                    resume=True,
                ))
                _identical(
                    reference, resumed,
                    f"kill {point} under {cell}, resume under {resume_cell}",
                )
                case += 1


@pytest.mark.slow
class TestMultiWorkerKillInterplay:
    """PR-8 interplay: kill a multi-worker checkpointed day mid-flight,
    resume under a *different* worker count.

    Dedicated worker processes and the delta boundary must leave
    nothing on disk that a differently-sharded resume could read
    differently -- worker-held state (session blobs, shipped-page
    hashes) dies with the kill, and the resume regrows all of it from
    the committed prefix.
    """

    def test_cross_width_resume_byte_identical(self, tmp_path: Path):
        reference = run_to_completion(
            _spec(tmp_path, "ref", campaign=GRID_CAMPAIGN)
        )

        # Kill mid-day at width 2; resume at width 4.
        run_until_killed(_spec(
            tmp_path, "wide", campaign=GRID_CAMPAIGN,
            workers=2,
            kill={"point": "mid-day", "count": 4},
        ))
        resumed = run_to_completion(_spec(
            tmp_path, "wide", campaign=GRID_CAMPAIGN,
            workers=4, resume=True,
        ))
        _identical(
            reference, resumed, "kill workers=2, resume workers=4"
        )

        # Kill mid-flush at width 4; resume inline (no workers at all).
        run_until_killed(_spec(
            tmp_path, "inline", campaign=GRID_CAMPAIGN,
            workers=4,
            kill={"point": "segment-flush", "count": 3},
        ))
        resumed = run_to_completion(_spec(
            tmp_path, "inline", campaign=GRID_CAMPAIGN, resume=True,
        ))
        _identical(reference, resumed, "kill workers=4, resume inline")


@pytest.mark.slow
class TestCrawlKillResumeGrid:
    def test_killed_crawls_resume_byte_identical(self, tmp_path: Path):
        def spec(tag: str, **overrides) -> dict:
            return _spec(
                tmp_path, tag, kind="crawl", crawl=CRAWL,
                plan={"n_domains": 3, "products_per_retailer": 3},
                **overrides,
            )

        reference = run_to_completion(spec("ref"))
        for case, (cell, point) in enumerate(
            (cell, point)
            for cell in CELLS
            for point in KILL_POINTS
        ):
            tag = f"c{case}"
            run_until_killed(
                spec(tag, **cell, kill={"point": point, "count": 2})
            )
            resumed = run_to_completion(spec(tag, resume=True))
            _identical(
                reference, resumed, f"crawl kill {point} under {cell}"
            )


@pytest.mark.slow
class TestLargeCampaignResume:
    """Day-boundary and mid-flush kills at scale, with an RSS bound.

    ``CRASHKIT_CHECKS`` scales the campaign (default 20000 keeps the
    slow tier tractable; the acceptance configuration is 100000+ --
    identical code path, more days of the same segments).
    """

    N_CHECKS = int(os.environ.get("CRASHKIT_CHECKS", "20000"))

    def test_large_campaign_kill_resume_and_rss_bound(self, tmp_path: Path):
        campaign = {
            "n_checks": self.N_CHECKS, "population_size": 20, "seed": 11,
            "start_day": 0, "end_day": 7,
        }
        world = {"catalog_scale": 0.2, "long_tail_domains": 0}

        def spec(tag: str, **overrides) -> dict:
            return _spec(
                tmp_path, tag, world=world, campaign=campaign, **overrides
            )

        reference = run_to_completion(spec("ref"), timeout=3600)

        # Kill 1: a seeded day boundary (the manifest line of day 2).
        run_until_killed(
            spec("day", kill={"point": "manifest-mid-write", "count": 2})
        )
        resumed_day = run_to_completion(
            spec("day", resume=True, workers=2),
            timeout=3600,
        )
        _identical(reference, resumed_day, "day-boundary kill")

        # Kill 2: mid-flush, while a segment file is being made durable.
        run_until_killed(
            spec("flush", kill={"point": "segment-flush", "count": 3},
                 workers=2)
        )
        resumed_flush = run_to_completion(
            spec("flush", resume=True), timeout=3600
        )
        _identical(reference, resumed_flush, "mid-flush kill")

        # The resumed runs folded committed day-segments one at a time;
        # their peak RSS must stay in the same envelope as the
        # uninterrupted run (spine + one segment), not a multiple of it.
        bound = reference["peak_rss_mb"] * 1.35
        for name, result in (
            ("day-boundary", resumed_day), ("mid-flush", resumed_flush)
        ):
            assert result["peak_rss_mb"] <= bound, (
                f"{name} resume peak RSS {result['peak_rss_mb']}MB exceeds "
                f"{bound:.0f}MB (full run: {reference['peak_rss_mb']}MB) -- "
                f"resume is no longer one-segment bounded"
            )
