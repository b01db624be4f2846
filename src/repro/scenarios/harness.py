"""The differential invariant harness: one scenario, every execution cell.

For a given scenario this module runs the full pipeline -- crowd
campaign, (re-anchoring) crawl, cleaning, detection -- under every cell
of the **execution grid** and checks the load-bearing invariants in one
place.  The grid's memo cells run inline, as the serving backend does;
its executor cells run memo-free, as every batch run does (the process
executor refuses a memo).

* **Byte identity.**  Every cell's crawl dataset, campaign dataset, and
  page store serialize to exactly the baseline's bytes -- the inline
  memo cell, inline and 2-worker process cells without a memo, and a
  fully audited memo cell.
* **Memo soundness.**  Retailers whose behaviour a fan-out signature
  cannot capture are demoted to the live path (the scenario says which
  ones); a fully cross-validated cell (every memo hit re-run live)
  raises :class:`~repro.core.burstcache.BurstCacheDivergence` on any
  byte difference.
* **Cleaning conduct.**  Scenarios that plant corrupted pages declare
  the drop reasons cleaning must trigger; the harness checks they fired.
* **Detection quality.**  Precision must be 1.0 and recall >= 0.9
  against the scenario's ground truth, and every true positive's
  measured magnitude must reach the truth's promised bound.

``python -m repro.scenarios.harness [--scenario NAME] [--grid]`` runs it
from the command line; ``tests/test_scenario_matrix.py`` runs the same
code as the regression suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.cleaning import clean_reports
from repro.analysis.detection import DetectionScore, score_detection
from repro.core.backend import SheriffBackend, SupportsRun
from repro.core.burstcache import BurstCache
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crawler.records import CrawlDataset
from repro.crowd import CampaignConfig, run_campaign
from repro.exec import QUIET_FLEET, ExecConfig
from repro.io import report_to_dict
from repro.net.clock import SECONDS_PER_DAY
from repro.scenarios.engine import Scenario, get_scenario, scenario_names
from repro.scenarios import definitions as _definitions  # noqa: F401  (registers)

__all__ = [
    "GridCell",
    "CellResult",
    "DEFAULT_GRID",
    "run_cell",
    "run_matrix",
    "run_scenario_crawl",
    "check_invariants",
    "main",
]


@dataclass(frozen=True)
class GridCell:
    """One point of the execution grid.

    ``workers`` is the cell's :class:`~repro.exec.ExecConfig` setting: 1
    runs inline, more run that many worker processes in one pool the
    cell owns.  ``burst_memo`` hands
    the cell's backend a :class:`~repro.core.burstcache.BurstCache`;
    only inline cells may, since the process executor refuses a memo.
    """

    workers: int = 1
    burst_memo: bool = True
    #: Fraction of memo hits re-run live for cross-validation (only
    #: meaningful with the memo on; 1.0 = audit every hit).
    validate_fraction: float = 0.0

    @property
    def label(self) -> str:
        memo = "memo" if self.burst_memo else "live"
        if self.validate_fraction:
            memo += f"+audit{self.validate_fraction:g}"
        where = "inline" if self.workers == 1 else f"processx{self.workers}"
        return f"{where}/{memo}"


#: The acceptance grid: the inline memo cell (the baseline), the inline
#: and 2-worker process cells without a memo, and an inline memo cell
#: cross-validating every hit.
DEFAULT_GRID: tuple[GridCell, ...] = (
    GridCell(),
    GridCell(burst_memo=False),
    GridCell(workers=2, burst_memo=False),
    GridCell(validate_fraction=1.0),
)


@dataclass
class CellResult:
    """Everything one grid cell produced, serialized for comparison."""

    scenario: str
    cell: GridCell
    crawl_blob: str
    store_blob: str
    campaign_blob: str
    score: DetectionScore
    drop_counts: dict[str, int]
    #: The memo's counters and live-only verdicts (empty in a memo-free
    #: cell).
    memo_stats: dict[str, int]
    live_only: dict[str, str]
    n_reports: int
    #: The cell's pool's supervision counters
    #: (:meth:`~repro.exec.ProcessExecutor.supervision_stats`; an inline
    #: cell reports :data:`~repro.exec.QUIET_FLEET`).
    fleet_health: dict
    #: The crawled dataset itself (only with ``run_cell(keep_dataset=
    #: True)`` -- the CLI saves it; grid runs drop it to stay lean).
    crawl_dataset: Optional[CrawlDataset] = None

    def digest(self) -> str:
        """One hash over every byte-identity-relevant artifact."""
        h = hashlib.sha256()
        for blob in (self.crawl_blob, self.store_blob, self.campaign_blob):
            h.update(blob.encode("utf-8"))
            h.update(b"\x1f")
        return h.hexdigest()


def _blob(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], sort_keys=True)


def _store_blob(store) -> str:
    """A page archive's identity: its hash chain, which folds every
    fetch in order (fields and body), plus the pages it kept."""
    return json.dumps(
        [store.archive_chain,
         [[p.check_id, p.url, p.domain, p.vantage, p.timestamp, p.html]
          for p in store]],
        sort_keys=True,
    )


def _campaign_blob(dataset) -> str:
    rows = []
    for record in dataset:
        rows.append({
            "user": record.user_id,
            "country": record.user_country,
            "day": record.day_index,
            "domain": record.domain,
            "url": record.url,
            "failure": record.outcome.failure,
            "user_amount": record.outcome.user_amount,
            "user_currency": record.outcome.user_currency,
            "report": report_to_dict(record.report) if record.report else None,
        })
    return json.dumps(rows, sort_keys=True)


def run_scenario_crawl(
    world,
    backend: SheriffBackend,
    scenario: Scenario,
    *,
    executor: Optional[SupportsRun] = None,
    seed: int = 2013,
) -> CrawlDataset:
    """The scenario-aware crawl: plan (and maybe re-anchor) per day.

    For ``reanchor_daily`` scenarios the operator's one-time manual step
    becomes a daily one: the plan -- product discovery *and* anchor
    derivation -- is rebuilt at the start of each crawl day, after the
    clock reaches it, so anchors always match the day's template.  Other
    scenarios build the plan once, exactly like
    :func:`~repro.crawler.run_crawl` alone would.  Every day's crawl runs
    on ``executor``, a caller-owned pool (``None`` runs inline).
    """
    dataset = CrawlDataset()
    plan = None
    for offset in range(scenario.crawl_days):
        day_start = (scenario.crawl_start_day + offset) * SECONDS_PER_DAY
        if day_start > world.clock.now:
            world.clock.advance_to(day_start)
        if plan is None or scenario.reanchor_daily:
            plan = build_plan(
                world,
                domains=list(scenario.crawl_domains),
                products_per_retailer=scenario.products_per_retailer,
                seed=seed,
            )
        day = run_crawl(
            world, backend, plan,
            CrawlConfig(
                days=1,
                start_day=scenario.crawl_start_day + offset,
                pacing_seconds=scenario.pacing_seconds,
            ),
            executor=executor,
        )
        for report in day.reports:
            dataset.add(report)
    return dataset


def run_cell(
    scenario: Scenario | str,
    cell: GridCell = GridCell(),
    *,
    seed: int = 2013,
    keep_dataset: bool = False,
) -> CellResult:
    """Run one grid cell: campaign + crawl + analysis on a fresh world.

    The cell owns one pool (``cell.workers`` > 1) across its campaign
    and crawl, and closes it before returning its counters.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    world = scenario.build_world(seed)
    cache = (
        BurstCache(validate_fraction=cell.validate_fraction)
        if cell.burst_memo
        else None
    )
    backend = SheriffBackend(
        world.network, world.vantage_points, world.rates, burst_cache=cache
    )
    executor = ExecConfig(workers=cell.workers).create(world)
    try:
        campaign = run_campaign(
            world, backend,
            CampaignConfig(
                n_checks=scenario.campaign_checks,
                population_size=scenario.campaign_population,
                start_day=0,
                end_day=scenario.campaign_end_day,
                seed=seed,
            ),
            executor=executor,
        )
        crawl = run_scenario_crawl(
            world, backend, scenario, executor=executor, seed=seed
        )
        health = (executor.supervision_stats() if executor is not None
                  else dict(QUIET_FLEET))
    finally:
        if executor is not None:
            executor.close()
    clean = clean_reports(crawl.reports, world.rates, require_repeatable=True)
    score = score_detection(
        crawl.reports, world.rates, scenario.truth,
        min_extent=scenario.min_extent, clean=clean,
    )
    return CellResult(
        scenario=scenario.name,
        cell=cell,
        crawl_blob=_blob(crawl.reports),
        store_blob=_store_blob(backend.store),
        campaign_blob=_campaign_blob(campaign),
        score=score,
        drop_counts=dict(clean.dropped),
        memo_stats=cache.stats() if cache is not None else {},
        live_only=cache.live_only_domains() if cache is not None else {},
        n_reports=len(crawl),
        fleet_health=health,
        crawl_dataset=crawl if keep_dataset else None,
    )


def run_matrix(
    scenario: Scenario | str,
    grid: Sequence[GridCell] = DEFAULT_GRID,
    *,
    seed: int = 2013,
) -> list[CellResult]:
    """Run every grid cell for one scenario (baseline cell first)."""
    return [run_cell(scenario, cell, seed=seed) for cell in grid]


def check_invariants(
    scenario: Scenario | str, results: Sequence[CellResult]
) -> list[str]:
    """Every violated invariant across ``results``, as human-readable lines.

    Empty list = the scenario holds.  The same checks back the test
    suite (which asserts emptiness) and the CLI harness (which prints).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    problems: list[str] = []
    if not results:
        return ["no cells ran"]
    baseline = results[0]

    # Byte identity across the whole grid.
    for result in results[1:]:
        for name in ("crawl_blob", "store_blob", "campaign_blob"):
            if getattr(result, name) != getattr(baseline, name):
                problems.append(
                    f"{result.cell.label}: {name.removesuffix('_blob')} bytes "
                    f"diverged from {baseline.cell.label}"
                )

    # Memo soundness, both directions: exactly the declared domains are
    # demoted to the live path (an unexpected demotion means a
    # supposedly memoizable behaviour regressed, turning the memo-on vs
    # memo-off comparison vacuous), and the memo actually served hits
    # whenever the scenario has memoizable retailers.
    memoizable = set(scenario.crawl_domains) - set(scenario.live_only_domains)
    for result in results:
        if not result.cell.burst_memo:
            continue
        observed = set(result.live_only)
        for domain in sorted(set(scenario.live_only_domains) - observed):
            problems.append(
                f"{result.cell.label}: {domain} should be live-only "
                f"but the memo considered it cacheable"
            )
        for domain in sorted(observed - set(scenario.live_only_domains)):
            problems.append(
                f"{result.cell.label}: {domain} unexpectedly demoted to "
                f"live-only ({result.live_only[domain]})"
            )
        if memoizable and result.memo_stats.get("hits", 0) <= 0:
            problems.append(
                f"{result.cell.label}: the memo never served a hit even "
                f"though {sorted(memoizable)} are memoizable"
            )

    # Cleaning conduct: declared drop reasons must have fired.
    for reason in scenario.expected_drop_reasons:
        if baseline.drop_counts.get(reason, 0) <= 0:
            problems.append(
                f"cleaning never dropped a report for {reason!r} "
                f"(got {baseline.drop_counts})"
            )

    # Detection quality against ground truth.
    score = baseline.score
    if score.precision < 1.0:
        problems.append(
            f"precision {score.precision:.2f} < 1.0 "
            f"(false positives: {score.false_positives})"
        )
    if score.recall < 0.9:
        problems.append(
            f"recall {score.recall:.2f} < 0.9 "
            f"(missed: {score.false_negatives})"
        )
    for domain, (measured, bound) in score.magnitude_violations().items():
        problems.append(
            f"{domain}: measured magnitude x{measured:.3f} below the "
            f"ground-truth bound x{bound:.3f}"
        )
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point: run scenarios and report invariants."""
    parser = argparse.ArgumentParser(
        prog="repro.scenarios.harness",
        description="Adversarial scenario matrix: invariants + detection quality",
    )
    parser.add_argument(
        "--scenario", action="append", choices=scenario_names(),
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--grid", action="store_true",
        help="run the full execution grid per scenario "
             "(default: the inline memo cell only)",
    )
    parser.add_argument("--seed", type=int, default=2013)
    args = parser.parse_args(argv)

    names = args.scenario or scenario_names()
    grid = DEFAULT_GRID if args.grid else (GridCell(),)
    failures = 0
    for name in names:
        scenario = get_scenario(name)
        results = run_matrix(scenario, grid, seed=args.seed)
        problems = check_invariants(scenario, results)
        cells = ", ".join(r.cell.label for r in results)
        print(f"=== {name} [{cells}] ===")
        for line in results[0].score.summary_lines():
            print(f"  {line}")
        stats = results[0].memo_stats
        print(
            f"  memo: {stats['hits']} hits / {stats['misses']} misses / "
            f"{stats['domains_live_only']} live-only domains; "
            f"{results[0].n_reports} crawl reports"
        )
        if problems:
            failures += 1
            for line in problems:
                print(f"  INVARIANT VIOLATED: {line}")
        else:
            print("  all invariants hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
