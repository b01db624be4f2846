"""Command-line interface.

Subcommands mirror the paper's workflow:

* ``campaign`` -- run the crowdsourced beta campaign, optionally saving the
  dataset as JSON-lines,
* ``crawl``    -- run the systematic crawl of the 21 retailers, optionally
  saving the dataset,
* ``analyze``  -- re-analyze a saved crawl dataset (figures 3/4/7/9 style
  summaries) without re-measuring,
* ``check``    -- one ad-hoc $heriff check against a simulated shop,
* ``report``   -- run every figure experiment and print the
  paper-vs-measured report (same output as
  ``python -m repro.experiments.runner``),
* ``serve``    -- run the long-lived $heriff HTTP service (on-demand
  checks, campaign jobs, progress/results/health endpoints; see
  ``repro.serve``).

Examples::

    python -m repro.cli campaign --scale quick --out crowd.jsonl
    python -m repro.cli crawl --scale tiny --out crawl.jsonl
    python -m repro.cli crawl --scale quick --workers 4 --exec-mode process
    python -m repro.cli analyze crawl.jsonl
    python -m repro.cli check www.digitalrev.com --product 2
    python -m repro.cli report --scale quick
    python -m repro.cli serve --port 8350 --data-dir sheriff-data
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro import io as dataset_io
from repro.analysis import (
    clean_reports,
    domain_ratio_stats,
    domain_variation_counts,
    finland_profile,
    location_ratio_stats,
    variation_extent,
)
from repro.checkpoint import CheckpointError
from repro.exec import ExecConfig, reset_fleet_health
from repro.experiments.context import SCALES, ExperimentContext
from repro.fx.rates import RateService

__all__ = ["CliError", "main", "build_parser"]


class CliError(Exception):
    """A user-facing CLI failure: one line on stderr, exit code 2.

    Raised by subcommands for bad invocations and unreadable inputs;
    :func:`main` catches it, so callers (and tests) always see a clean
    one-line message and an ``int`` return instead of a traceback.
    """

    def __init__(self, message: str, *, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crowd-assisted search for price discrimination (CoNEXT'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=sorted(SCALES), default="tiny",
                       help="workload scale (default: tiny)")
        p.add_argument("--seed", type=int, default=2013)

    def add_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="shard fan-out batches across N >= 1 workers "
                            "(output is byte-identical at any N; "
                            "default 1)")
        p.add_argument("--exec-mode", choices=("local", "process"),
                       default="local",
                       help="how shards execute: in this process or in "
                            "dedicated worker processes (default: local)")
        p.add_argument("--max-worker-restarts", type=int, default=3,
                       metavar="N",
                       help="under --exec-mode process: how many times a "
                            "shard's dead or hung worker is respawned "
                            "before the shard is quarantined to inline "
                            "execution (bytes are identical either way; "
                            "default 3)")

    def add_checkpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint-dir", metavar="DIR",
                       help="spill each completed day to DIR so a killed "
                            "run can resume (see --resume)")
        p.add_argument("--resume", action="store_true",
                       help="continue a run checkpointed in "
                            "--checkpoint-dir, skipping committed days")

    p_campaign = sub.add_parser("campaign", help="run the crowd campaign")
    add_scale(p_campaign)
    add_exec(p_campaign)
    add_checkpoint(p_campaign)
    p_campaign.add_argument("--out", help="write the dataset to this JSONL file")

    p_crawl = sub.add_parser("crawl", help="run the systematic crawl")
    add_scale(p_crawl)
    add_exec(p_crawl)
    add_checkpoint(p_crawl)
    p_crawl.add_argument("--out", help="write the dataset to this JSONL file")
    p_crawl.add_argument(
        "--scenario", metavar="NAME",
        help="crawl an adversarial scenario world instead of the paper "
             "world, and score detection against its ground truth "
             "(names: python -m repro.scenarios --help)",
    )

    p_analyze = sub.add_parser(
        "analyze", help="analyze a saved dataset (crawl or crowd, auto-detected)"
    )
    p_analyze.add_argument("dataset",
                           help="JSONL file from 'crawl --out' or 'campaign --out'")
    p_analyze.add_argument("--seed", type=int, default=2013,
                           help="seed of the run that produced the dataset "
                                "(needed to reconstruct FX rates)")

    p_check = sub.add_parser("check", help="one ad-hoc $heriff price check")
    add_scale(p_check)
    p_check.add_argument("domain", help="simulated shop domain, e.g. www.digitalrev.com")
    p_check.add_argument("--product", type=int, default=0,
                         help="catalog index of the product to check")

    p_report = sub.add_parser("report", help="run all figure experiments")
    add_scale(p_report)
    add_exec(p_report)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived $heriff HTTP service"
    )
    add_scale(p_serve)
    add_exec(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8350,
                         help="TCP port to listen on; 0 picks a free "
                              "port and prints it (default: 8350)")
    p_serve.add_argument("--data-dir", metavar="DIR",
                         help="persist campaign jobs (spec, checkpoint, "
                              "results) under DIR so a restarted service "
                              "resumes them; default: a fresh temporary "
                              "directory (jobs die with the process)")
    return parser


def _exec_config(args: argparse.Namespace) -> Optional[ExecConfig]:
    """The ExecConfig the flags describe (None = sequential baseline)."""
    try:
        config = ExecConfig(
            workers=getattr(args, "workers", 1),
            mode=getattr(args, "exec_mode", "local"),
            max_worker_restarts=getattr(args, "max_worker_restarts", 3),
        )
    except ValueError as exc:
        raise CliError(f"bad executor flags: {exc}")
    if config.workers == 1 and config.mode == "local":
        return None
    return config


def _print_fleet_health() -> None:
    """One exec-summary line when supervision had to step in.

    ``run_campaign``/``run_crawl`` close their executors internally, so
    the numbers come from the process-wide accumulator every closing
    :class:`~repro.exec.process.ProcessExecutor` folds into (zeroed at
    command start).  Quiet runs print nothing.
    """
    from repro.exec.process import fleet_health

    health = fleet_health()
    if not (health["restarts"] or health["quarantined_shards"]):
        return
    print(
        f"  exec: {health['restarts']} worker restart(s) "
        f"({health['hang_kills']} hang kill(s)), "
        f"{health['quarantined_shards']} quarantined shard(s) / "
        f"{health['inline_checks']} check(s) inline, "
        f"{health['recovery_ms']:.0f} ms in recovery"
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _checkpoint_args(args: argparse.Namespace) -> dict:
    """The checkpoint kwargs the flags describe (validated)."""
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    resume = getattr(args, "resume", False)
    if resume and checkpoint_dir is None:
        raise CliError("--resume requires --checkpoint-dir")
    return {"checkpoint_dir": checkpoint_dir, "resume": resume}


def _build_dataset(args: argparse.Namespace, dataset: str):
    """The context's ``dataset`` ("crowd" or "crawl") built as the flags
    ask; checkpoint misuse becomes one error line naming ``--resume``."""
    ctx = ExperimentContext(args.scale, seed=args.seed,
                            exec_config=_exec_config(args),
                            **_checkpoint_args(args))
    try:
        return getattr(ctx, dataset)
    except CheckpointError as exc:
        if not args.resume:  # the one refusal a fresh checkpoint run meets
            raise CliError(
                f"--checkpoint-dir {args.checkpoint_dir} already holds a "
                f"checkpoint; pass --resume to continue it, or choose a "
                f"fresh directory"
            )
        raise CliError(
            f"cannot --resume the checkpoint in {args.checkpoint_dir} "
            f"(resume with the --scale and --seed it was started with): "
            f"{exc}"
        )


def _cmd_campaign(args: argparse.Namespace) -> int:
    reset_fleet_health()
    dataset = _build_dataset(args, "crowd")
    summary = dataset.summary()
    print(
        f"campaign complete: {summary['requests']} checks / "
        f"{summary['users']} users / {summary['countries']} countries / "
        f"{summary['domains']} domains"
    )
    _print_fleet_health()
    flagged = domain_variation_counts(dataset.reports())
    for domain, count in flagged.most_common(10):
        print(f"  flagged {domain:40s} {count}")
    if args.out:
        records = dataset_io.save_crowd_dataset(dataset, args.out, seed=args.seed)
        print(f"wrote {records} records to {args.out}")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    if args.scenario:
        if getattr(args, "checkpoint_dir", None):
            raise CliError(
                "--checkpoint-dir does not apply to scenario crawls"
            )
        return _cmd_crawl_scenario(args)
    reset_fleet_health()
    dataset = _build_dataset(args, "crawl")
    print(f"crawl complete: {dataset.summary()}")
    _print_fleet_health()
    if args.out:
        reports = dataset_io.save_crawl_dataset(dataset, args.out, seed=args.seed)
        print(f"wrote {reports} reports to {args.out}")
    return 0


def _cmd_crawl_scenario(args: argparse.Namespace) -> int:
    """Campaign + crawl one adversarial scenario world, score detection."""
    from repro.scenarios import get_scenario
    from repro.scenarios.harness import GridCell, check_invariants, run_cell

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.scale != "tiny":
        print(
            f"note: --scale {args.scale} is ignored with --scenario "
            "(scenario worlds carry their own fixed size)",
            file=sys.stderr,
        )
    reset_fleet_health()
    _exec_config(args)  # validate the executor flags like every command
    cell = GridCell(mode=args.exec_mode, workers=args.workers)
    result = run_cell(scenario, cell, seed=args.seed, keep_dataset=True)
    print(
        f"scenario {scenario.name} [{cell.label}]: "
        f"{result.n_reports} crawl reports over "
        f"{len(scenario.crawl_domains)} domains"
    )
    for line in result.score.summary_lines():
        print(f"  {line}")
    # Fleet-wide memo telemetry: under --exec-mode process the workers
    # drain their cache counters back through the shard results and the
    # coordinator absorbs them, so these numbers cover every worker.
    stats = result.memo_stats
    print(
        f"  memo: {stats['hits']} hits / {stats['misses']} misses; "
        f"live-only: {sorted(result.live_only) or 'none'}"
    )
    _print_fleet_health()
    problems = check_invariants(scenario, [result])
    for line in problems:
        print(f"  INVARIANT VIOLATED: {line}")
    if args.out:
        assert result.crawl_dataset is not None
        reports = dataset_io.save_crawl_dataset(
            result.crawl_dataset, args.out, seed=args.seed
        )
        print(f"wrote {reports} reports to {args.out}")
    return 1 if problems else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Both dataset kinds come out of this CLI's own --out; sniff the
    # header instead of making the user remember which file was which.
    try:
        kind, dataset = dataset_io.load_dataset(args.dataset)
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        raise CliError(f"cannot read dataset {args.dataset!r}: {reason}")
    except dataset_io.DatasetFormatError as exc:
        raise CliError(f"not a repro dataset {args.dataset!r}: {exc}")
    except UnicodeDecodeError:
        raise CliError(f"not a repro dataset {args.dataset!r}: binary junk")
    # Loading checks the file's shape, not its values: a currency the FX
    # model does not know or a negative day only fails once analyzed.
    try:
        if kind == "crowd":
            return _analyze_crowd(dataset, seed=args.seed)
        return _analyze_crawl(dataset, seed=args.seed)
    except ValueError as exc:
        raise CliError(f"cannot analyze dataset {args.dataset!r}: {exc}")


def _analyze_crowd(dataset, *, seed: int) -> int:
    rates = RateService(seed=seed)
    summary = dataset.summary()
    clean = clean_reports(dataset.reports(), rates)
    print(
        f"loaded crowd dataset: {summary['requests']} checks / "
        f"{summary['users']} users / {summary['countries']} countries / "
        f"{summary['domains']} domains; guard x{clean.guard:.4f}"
    )
    print("\nchecks with variation per domain (Fig. 1):")
    flagged = domain_variation_counts(dataset.reports())
    for domain, count in flagged.most_common(15):
        print(f"  {domain:38s} {count}")
    print("\nmagnitude (Fig. 2, median max/min ratio of flagged checks):")
    stats = domain_ratio_stats(clean.kept, only_variation=True)
    for domain in sorted(stats, key=lambda d: stats[d].median):
        print(f"  {domain:38s} x{stats[domain].median:.3f}")
    return 0


def _analyze_crawl(dataset, *, seed: int) -> int:
    rates = RateService(seed=seed)
    clean = clean_reports(dataset.reports, rates)
    print(
        f"loaded {len(dataset)} reports ({dataset.n_extracted_prices:,} prices); "
        f"guard x{clean.guard:.4f}; kept {clean.n_kept}"
    )
    print("\nextent of variation (Fig. 3):")
    extent = variation_extent(clean.kept)
    for domain in sorted(extent, key=extent.get, reverse=True):
        print(f"  {domain:38s} {extent[domain]:.0%}")
    print("\nmagnitude (Fig. 4, median max/min ratio of flagged checks):")
    stats = domain_ratio_stats(clean.kept, only_variation=True)
    for domain in sorted(stats, key=lambda d: stats[d].median):
        print(f"  {domain:38s} x{stats[domain].median:.3f}")
    print("\nper-location premium (Fig. 7, box plots of ratio-to-cheapest):")
    from repro.textplot import boxplot_rows

    locations = location_ratio_stats(clean.kept)
    print(boxplot_rows(locations, width=44))
    print("\nFinland profile (Fig. 9):")
    varied = clean.kept.with_variation()
    for domain, s in sorted(finland_profile(varied).items(),
                            key=lambda kv: kv[1].median):
        print(f"  {domain:38s} x{s.median:.3f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest

    ctx = ExperimentContext(args.scale, seed=args.seed)
    world = ctx.world
    if args.domain not in world.retailers:
        print(f"unknown domain {args.domain!r}; try one of:", file=sys.stderr)
        for domain in world.crawled_domains:
            print(f"  {domain}", file=sys.stderr)
        return 2
    catalog = world.retailer(args.domain).catalog
    if not 0 <= args.product < len(catalog):
        print(f"product index out of range (0..{len(catalog) - 1})", file=sys.stderr)
        return 2
    product = catalog.products[args.product]
    anchor = derive_anchor_for_domain(world, args.domain)
    report = ctx.backend.check(CheckRequest(
        url=f"http://{args.domain}{product.path}", anchor=anchor,
    ))
    print(report.summary_line())
    for obs in report.observations:
        if obs.ok:
            print(f"  {obs.vantage:24s} {obs.raw_text:>16s} -> ${obs.usd:9.2f}")
        else:
            print(f"  {obs.vantage:24s} FAILED ({obs.error})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    reset_fleet_health()
    ctx = ExperimentContext(args.scale, seed=args.seed,
                            exec_config=_exec_config(args))
    results = runner.run_all(ctx)
    print(runner.render_report(results, scale=args.scale))
    _print_fleet_health()
    return 0 if all(r.all_checks_pass for r in results) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve

    return serve(
        host=args.host, port=args.port, scale=args.scale, seed=args.seed,
        data_dir=args.data_dir, exec_config=_exec_config(args),
    )


_COMMANDS = {
    "campaign": _cmd_campaign,
    "crawl": _cmd_crawl,
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
