"""Standalone pipeline-benchmark entry point.

Runs the measurement-spine benches without pytest and writes
``BENCH_pipeline.json`` next to this file: mean ms per synchronized check,
crawl and campaign throughput, and the hit rates of the caches introduced
by the parse-once fan-out.  Future PRs diff this file for a regression
trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--rounds N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def _time_rounds(fn, rounds: int) -> list[float]:
    """Wall-clock each call of ``fn``, in milliseconds."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def _summary(samples: list[float]) -> dict[str, float]:
    return {
        "mean_ms": round(statistics.fmean(samples), 4),
        "min_ms": round(min(samples), 4),
        "max_ms": round(max(samples), 4),
        "rounds": len(samples),
    }


def _reset_parse_cache() -> None:
    """Benches that report parse-cache stats must not inherit another
    bench's process-global counters (stats would then depend on which
    benches ran earlier, breaking BENCH_pipeline.json diffs)."""
    from repro.htmlmodel.parser import reset_parse_cache

    reset_parse_cache()


def bench_sheriff_check(rounds: int) -> dict[str, object]:
    """One synchronized 14-vantage-point price check, end to end.

    Two numbers: the *live* fan-out (burst memo off -- the historical
    trajectory metric, comparable to the seed baseline) and the same
    check served as a burst-memo hit.
    """
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest, SheriffBackend
    from repro.ecommerce.world import WorldConfig, build_world

    _reset_parse_cache()
    world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
    backend = SheriffBackend(
        world.network, world.vantage_points, world.rates, burst_memo=False
    )
    domain = "www.digitalrev.com"
    anchor = derive_anchor_for_domain(world, domain)
    product = world.retailer(domain).catalog.products[0]
    request = CheckRequest(url=f"http://{domain}{product.path}", anchor=anchor)

    for _ in range(5):  # warm caches the way a long-lived backend would
        backend.check(request)
    samples = _time_rounds(lambda: backend.check(request), rounds)
    result = _summary(samples)
    result["cache_stats"] = backend.cache_stats()
    server = world.network.resolve(domain)
    result["render_cache"] = server.render_cache_stats()

    backend.burst_cache.enabled = True
    backend.check(request)  # the storing miss
    memo_samples = _time_rounds(lambda: backend.check(request), rounds)
    result["memo_hit"] = _summary(memo_samples)
    result["memo_hit"]["speedup_vs_live"] = round(
        statistics.fmean(samples) / statistics.fmean(memo_samples), 2
    )
    return result


def bench_store_replay(rounds: int) -> dict[str, object]:
    """Re-extract prices from archived page *strings* (the parse-cache
    path: no attached document, only serialized bodies)."""
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest, SheriffBackend
    from repro.core.extraction import extract_price
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.htmlmodel.parser import parse_cache_stats, reset_parse_cache

    _reset_parse_cache()
    world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    domain = "www.digitalrev.com"
    anchor = derive_anchor_for_domain(world, domain)
    product = world.retailer(domain).catalog.products[0]
    backend.check(CheckRequest(url=f"http://{domain}{product.path}",
                               anchor=anchor))
    bodies = [page.html for page in backend.store if page.retained]
    assert bodies

    reset_parse_cache()

    def replay_once():
        for html in bodies:
            extracted = extract_price(html, anchor)
            assert extracted.ok

    samples = _time_rounds(replay_once, rounds)
    result = _summary(samples)
    result["pages_per_round"] = len(bodies)
    result["parse_cache"] = parse_cache_stats()
    return result


def bench_crawl_day(rounds: int) -> dict[str, object]:
    """A one-day crawl slice: 3 retailers x 5 products x 14 points."""
    from repro.core.backend import SheriffBackend
    from repro.crawler import CrawlConfig, build_plan, run_crawl
    from repro.ecommerce.world import WorldConfig, build_world

    _reset_parse_cache()
    world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    plan = build_plan(world, domains=world.crawled_domains[:3],
                      products_per_retailer=5)
    day = iter(range(300, 10_000))
    checks_per_day = 3 * 5

    datasets = []

    def crawl_once():
        datasets.append(run_crawl(
            world, backend, plan, CrawlConfig(days=1, start_day=next(day))
        ))

    samples = _time_rounds(crawl_once, rounds)
    assert all(d.n_extracted_prices == checks_per_day * 14 for d in datasets)
    result = _summary(samples)
    result["checks_per_day"] = checks_per_day
    result["checks_per_second"] = round(
        checks_per_day / (statistics.fmean(samples) / 1000.0), 2
    )
    result["cache_stats"] = backend.cache_stats()
    return result


def bench_crawl_day_scaling(rounds: int) -> dict[str, object]:
    """One crawl day (6 retailers x 6 products x 14 points) per executor.

    Each configuration keeps its executor (and, for process mode, its
    worker pool with per-process rebuilt worlds) warm across rounds, the
    way a multi-day crawl would.  Every configuration's reports are
    asserted byte-identical to the sequential baseline -- the scaling
    curve never trades correctness.
    """
    import json
    import os

    from repro.core.backend import SheriffBackend
    from repro.crawler import CrawlConfig, build_plan, run_crawl
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.exec import ExecConfig
    from repro.io import report_to_dict

    configs = (
        ("workers1_sequential", ExecConfig(workers=1, mode="local")),
        ("workers2_local", ExecConfig(workers=2, mode="local")),
        ("workers2_process", ExecConfig(workers=2, mode="process")),
        ("workers4_process", ExecConfig(workers=4, mode="process")),
    )
    checks_per_day = 6 * 6
    results: dict[str, object] = {"cpu_count": os.cpu_count()}
    blobs: dict[str, str] = {}
    for label, exec_config in configs:
        world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        plan = build_plan(world, domains=world.crawled_domains[:6],
                          products_per_retailer=6)
        executor = exec_config.create(world)
        day = iter(range(300, 10_000))
        datasets = []

        def crawl_once():
            datasets.append(run_crawl(
                world, backend, plan,
                CrawlConfig(days=1, start_day=next(day)),
                executor=executor,
            ))

        try:
            crawl_once()  # warm executor pool / caches, untimed
            samples = _time_rounds(crawl_once, rounds)
        finally:
            if executor is not None:
                executor.close()
        if any(d.n_extracted_prices != checks_per_day * 14 for d in datasets):
            raise RuntimeError(f"{label}: crawl lost extractions")
        blobs[label] = json.dumps(
            [report_to_dict(r) for d in datasets for r in d.reports],
            sort_keys=True,
        )
        entry = _summary(samples)
        entry["checks_per_second"] = round(
            checks_per_day / (statistics.fmean(samples) / 1000.0), 2
        )
        results[label] = entry
    baseline = blobs["workers1_sequential"]
    identical = all(blob == baseline for blob in blobs.values())
    if not identical:
        raise RuntimeError("sharded crawl diverged from sequential bytes")
    results["checks_per_day"] = checks_per_day
    results["byte_identical_across_configs"] = identical
    return results


def bench_multicore_scaling(
    rounds: int, *, fast: bool = False
) -> dict[str, object]:
    """The multicore scaling curve: workers x mode x memo, one crawl day.

    A mixed fleet (4 signature-pure retailers + 2 live-only ones, 6
    products each) crawled for one day per round under every cell of
    workers {1,2,4,8} x {local,process} x memo {on,off}.  Per cell:
    checks/s, fleet-wide burst-memo misses (the coordinator's counters
    absorb every worker's), and -- for process cells -- the per-day
    boundary overhead in ms from ``ProcessExecutor.boundary_stats()``
    ((payload_ms + fold_ms) / batches).  ``workers1_process`` isolates
    the pure boundary tax: same work as sequential plus one boundary.

    Every cell's reports are asserted byte-identical to the sequential
    memo-on baseline -- across worker counts, executors, *and* memo
    settings.  ``fast=True`` runs a 3-cell reduced grid for CI.
    """
    import json
    import os

    from repro.core.backend import SheriffBackend
    from repro.crawler import CrawlConfig, build_plan, run_crawl
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.exec import ExecConfig
    from repro.io import report_to_dict

    world_config = WorldConfig(catalog_scale=0.2, long_tail_domains=0)
    probe = build_world(world_config)
    pure = [d for d in probe.crawled_domains
            if probe.servers[d].signature_profile() is not None]
    live = [d for d in probe.crawled_domains
            if probe.servers[d].signature_profile() is None]
    domains = sorted(pure[:4] + live[:2])
    products_per_retailer = 6
    checks_per_day = len(domains) * products_per_retailer

    if fast:
        cells = (
            (1, "local", True),
            (1, "process", True),
            (2, "process", True),
        )
    else:
        cells = tuple(
            (workers, mode, memo)
            for memo in (True, False)
            for mode in ("local", "process")
            for workers in (1, 2, 4, 8)
        )

    results: dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "checks_per_day": checks_per_day,
        "mixed_fleet": {"pure": len(domains) - len(live[:2]),
                        "live_only": len(live[:2])},
    }
    blobs: dict[str, str] = {}
    for workers, mode, memo in cells:
        label = f"workers{workers}_{mode}" + ("" if memo else "_nomemo")
        world = build_world(world_config)
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates, burst_memo=memo
        )
        plan = build_plan(world, domains=domains,
                          products_per_retailer=products_per_retailer)
        executor = ExecConfig(workers=workers, mode=mode).create(world)
        day = iter(range(300, 10_000))
        datasets = []

        def crawl_once():
            datasets.append(run_crawl(
                world, backend, plan,
                CrawlConfig(days=1, start_day=next(day)),
                executor=executor,
            ))

        try:
            crawl_once()  # warm executor pool / worker worlds, untimed
            samples = _time_rounds(crawl_once, rounds)
            entry = _summary(samples)
            if executor is not None and hasattr(executor, "boundary_stats"):
                stats = executor.boundary_stats()
                entry["boundary_overhead_ms_per_day"] = round(
                    (stats["payload_ms"] + stats["fold_ms"])
                    / stats["batches"], 3
                )
                entry["boundary_ship_bytes_per_day"] = (
                    stats["ship_bytes"] // stats["batches"]
                )
                entry["boundary_recv_bytes_per_day"] = (
                    stats["recv_bytes"] // stats["batches"]
                )
        finally:
            if executor is not None:
                executor.close()
        if any(d.n_extracted_prices != checks_per_day * 14 for d in datasets):
            raise RuntimeError(f"{label}: crawl lost extractions")
        blobs[label] = json.dumps(
            [report_to_dict(r) for d in datasets for r in d.reports],
            sort_keys=True,
        )
        entry["checks_per_second"] = round(
            checks_per_day / (statistics.fmean(samples) / 1000.0), 2
        )
        entry["fleet_burst_misses"] = backend.cache_stats()["burst_misses"]
        entry["fleet_burst_hits"] = backend.cache_stats()["burst_hits"]
        results[label] = entry

    baseline = blobs["workers1_local"]
    if any(blob != baseline for blob in blobs.values()):
        diverged = [k for k, blob in blobs.items() if blob != baseline]
        raise RuntimeError(f"cells diverged from sequential bytes: {diverged}")
    results["byte_identical_across_cells"] = True
    if not fast:
        seq = results["workers1_local"]["checks_per_second"]
        results["process_speedup_at_4_workers"] = round(
            results["workers4_process"]["checks_per_second"] / seq, 2
        )
    return results


def bench_crowd_checks(rounds: int) -> dict[str, object]:
    """25 crowd-triggered checks through the extension + backend."""
    from repro.core.backend import SheriffBackend
    from repro.crowd import CampaignConfig, run_campaign
    from repro.ecommerce.world import WorldConfig, build_world

    n_checks = 25

    def run_once():
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=10))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        dataset = run_campaign(
            world, backend,
            CampaignConfig(n_checks=n_checks, population_size=20, seed=11),
        )
        assert dataset.n_requests == n_checks

    samples = _time_rounds(run_once, rounds)
    result = _summary(samples)
    result["checks_per_run"] = n_checks
    result["checks_per_second"] = round(
        n_checks / (statistics.fmean(samples) / 1000.0), 2
    )
    return result


def _synthetic_reports(n_reports: int, *, n_vantages: int = 5):
    """``n_reports`` deterministic product-day reports for the analysis
    bench: 20 domains x 50 products x rolling 7-day window, a sprinkle of
    failed observations, and domain/vantage-dependent price spreads so
    every aggregation has real work to do."""
    from repro.core.reports import PriceCheckReport, VantageObservation

    n_domains, products_per_domain = 20, 50
    currencies = ("USD", "EUR", "GBP", "BRL")
    vantage_names = [
        (f"Country{v:02d} - City{v:02d}", f"C{v:02d}", f"City{v:02d}")
        for v in range(n_vantages)
    ]
    reports = []
    for i in range(n_reports):
        d = i % n_domains
        domain = f"www.shop{d:03d}.example"
        product = (i // n_domains) % products_per_domain
        day = 155 + (i % 7)
        base = 10.0 + ((i * 37) % 1000) / 7.0
        observations = []
        for v, (name, country, city) in enumerate(vantage_names):
            if (i + v) % 29 == 0:  # occasional fan-out failure
                observations.append(VantageObservation(
                    vantage=name, country_code=country, city=city,
                    ok=False, error="timeout",
                ))
                continue
            usd = base * (1.0 + 0.002 * v + (0.25 if (d + v) % 5 == 0 else 0.0))
            observations.append(VantageObservation(
                vantage=name, country_code=country, city=city, ok=True,
                raw_text=f"{usd:.2f}", amount=round(usd, 2),
                currency=currencies[(d + v) % len(currencies)], usd=usd,
                method="selector",
            ))
        reports.append(PriceCheckReport(
            check_id=f"chk{i:07d}",
            url=f"http://{domain}/p/{product:04d}",
            domain=domain,
            day_index=day,
            timestamp=day * 86400.0 + float(i),
            observations=observations,
            guard_threshold=1.08,
            origin="crawler",
        ))
    return reports


def bench_analysis_aggregation(
    rounds: int, *, n_reports: int = 100_000
) -> dict[str, object]:
    """The figure-feeding aggregations over 100K synthetic reports: the
    one-off cost of appending them to a :class:`ReportTable`, then the
    columnar kernels over a slice of it."""
    from repro.analysis.extent import variation_extent
    from repro.analysis.locations import location_ratio_stats
    from repro.analysis.longitudinal import daily_extent, product_persistence
    from repro.analysis.products import ratio_vs_min_price
    from repro.analysis.ratios import domain_ratio_stats
    from repro.store import ReportTable, TableSlice

    reports = _synthetic_reports(n_reports)

    build_start = time.perf_counter()
    table = ReportTable()
    table.extend(reports)
    build_ms = (time.perf_counter() - build_start) * 1000.0
    sliced = TableSlice(table)

    def aggregate():
        return (
            variation_extent(sliced),
            domain_ratio_stats(sliced, only_variation=True),
            location_ratio_stats(sliced),
            daily_extent(sliced),
            product_persistence(sliced),
            ratio_vs_min_price(sliced),
        )

    return {
        "reports": n_reports,
        "observations": table.n_observations,
        "aggregations": 6,
        "table_build_ms": round(build_ms, 4),
        "kernels": _summary(_time_rounds(aggregate, rounds)),
    }


def _campaign_scaling_worker(
    memo: bool, n_checks: int, days: int, pure_only: bool, queue
) -> None:
    """One campaign run in a fresh process (clean peak-RSS accounting).

    Simulates heavy crowd traffic through the backend: ``n_checks``
    popularity-weighted product checks spread over a ``days``-day window,
    submitted as one scheduled batch per day and streamed through the
    ``sink=`` seam -- no report list exists at any point.  Sends back
    throughput, the process's peak RSS, and a streamed digest of every
    16th report (plus full-run counters) for cross-mode byte comparison.
    """
    import hashlib
    import resource

    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest, SheriffBackend
    from repro.core.store import PageStore
    from repro.ecommerce.world import NAMED_RETAILER_SPECS, WorldConfig, build_world
    from repro.io import report_to_dict
    from repro.net.clock import SECONDS_PER_DAY
    from repro.util import stable_rng

    world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
    backend = SheriffBackend(
        world.network, world.vantage_points, world.rates,
        burst_memo=memo,
        store=PageStore(metadata_cap=4096),  # rolling archive window
    )
    weights_by_domain = {
        spec.domain: spec.crowd_weight for spec in NAMED_RETAILER_SPECS
    }
    domains = []
    for domain in world.crawled_domains:
        server = world.servers[domain]
        if pure_only and server.signature_profile() is None:
            continue
        domains.append(domain)
    anchors = {d: derive_anchor_for_domain(world, d) for d in domains}
    products = [
        (domain, product.path)
        for domain in domains
        for product in world.retailer(domain).catalog.products
    ]
    product_weights = [weights_by_domain[domain] for domain, _ in products]

    rng = stable_rng(2013, "campaign-scaling", n_checks, pure_only)
    start_day = 200
    per_day = [n_checks // days + (1 if d < n_checks % days else 0)
               for d in range(days)]

    digest = hashlib.sha256()
    seen = 0
    valid_total = 0

    def sink(report) -> None:
        nonlocal seen, valid_total
        valid_total += len(report.valid_observations())
        if seen % 16 == 0:
            digest.update(
                json.dumps(report_to_dict(report), sort_keys=True).encode()
            )
        seen += 1

    start = time.perf_counter()
    for day_offset, day_checks in enumerate(per_day):
        day_start = (start_day + day_offset) * SECONDS_PER_DAY
        if day_start > world.clock.now:
            world.clock.advance_to(day_start)
        picks = rng.choices(products, weights=product_weights, k=day_checks)
        times = sorted(
            day_start + rng.uniform(0, SECONDS_PER_DAY) for _ in picks
        )
        requests = [
            CheckRequest(url=f"http://{domain}{path}", anchor=anchors[domain])
            for domain, path in picks
        ]
        backend.check_batch(requests, start_times=times, sink=sink)
    elapsed = time.perf_counter() - start

    stats = backend.cache_stats()
    queue.put({
        "checks": seen,
        "elapsed_s": round(elapsed, 3),
        "checks_per_second": round(seen / elapsed, 2),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "digest": digest.hexdigest(),
        "valid_observations": valid_total,
        "burst_hits": stats["burst_hits"],
        "burst_misses": stats["burst_misses"],
        "burst_bypass_live_only": stats["burst_bypass_live_only"],
    })


def _campaign_scaling_run(
    memo: bool, n_checks: int, days: int, pure_only: bool
) -> dict[str, object]:
    """Run one campaign config in a spawned subprocess and collect results.

    Spawn (not fork) so each config's peak RSS is its own, not inherited
    from the coordinator's high-water mark.
    """
    import multiprocessing

    import queue as queue_module

    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(
        target=_campaign_scaling_worker,
        args=(memo, n_checks, days, pure_only, queue),
    )
    proc.start()
    # Join first: a worker that dies (exception, OOM kill) before putting
    # its result must surface as an error, not an indefinite queue.get()
    # hang.  The result dict is tiny, so the put cannot block the child.
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"campaign worker exited with {proc.exitcode}")
    try:
        return queue.get(timeout=30)
    except queue_module.Empty:
        raise RuntimeError(
            "campaign worker exited cleanly without reporting a result"
        ) from None


def bench_campaign_scaling(
    rounds: int, *, n_checks: int = 100_000, days: int = 7
) -> dict[str, object]:
    """Heavy-traffic campaign throughput: burst memo on vs off.

    The headline pair runs ``n_checks`` over the signature-pure crawled
    retailers (the workload the memo accelerates; stateful retailers
    bypass it by design and are measured in the ``mixed`` pair at a
    reduced scale).  A further memo-on run at 2x the checks demonstrates
    that peak memory stays flat as the campaign grows -- reports stream
    through the sink, nothing accumulates per check.  Digests assert the
    memo-on and memo-off outputs are byte-identical.  ``rounds`` is
    ignored: every config is a single subprocess-isolated run.
    """
    del rounds  # single-shot by design; see docstring
    off = _campaign_scaling_run(False, n_checks, days, True)
    on = _campaign_scaling_run(True, n_checks, days, True)
    if off["digest"] != on["digest"] or off["valid_observations"] != on["valid_observations"]:
        raise RuntimeError("memo-on campaign diverged from memo-off bytes")
    on_2x = _campaign_scaling_run(True, 2 * n_checks, days, True)
    mixed_n = max(n_checks // 5, 1000)
    mixed_off = _campaign_scaling_run(False, mixed_n, days, False)
    mixed_on = _campaign_scaling_run(True, mixed_n, days, False)
    if mixed_off["digest"] != mixed_on["digest"]:
        raise RuntimeError("memo-on mixed campaign diverged from memo-off bytes")
    return {
        "n_checks": n_checks,
        "days": days,
        "memo_off": off,
        "memo_on": on,
        "memo_on_2x": on_2x,
        "speedup": round(
            on["checks_per_second"] / off["checks_per_second"], 2
        ),
        "byte_identical": True,
        "rss_growth_2x_checks": round(
            on_2x["peak_rss_mb"] / on["peak_rss_mb"], 2
        ),
        # All 21 crawled retailers, popularity-weighted: amazon (login) and
        # hotels.com (A/B nonce) alone carry ~60% of this traffic and stay
        # on the live path by design -- the honest blended number.
        "mixed_fleet": {
            "n_checks": mixed_n,
            "memo_off": mixed_off,
            "memo_on": mixed_on,
            "speedup": round(
                mixed_on["checks_per_second"] / mixed_off["checks_per_second"],
                2,
            ),
            "byte_identical": True,
        },
    }


def _campaign_resume_worker(
    n_checks: int, days: int, checkpoint_dir, resume: bool, kill, out_path,
    queue,
) -> None:
    """One (optionally checkpointed, optionally self-SIGKILLed) campaign.

    Unlike ``_campaign_scaling_worker`` this drives the *real*
    :func:`repro.crowd.run_campaign` -- prepare phase, checkpoint
    commits and all -- because resume cost is exactly what the scaling
    worker's stripped-down loop cannot measure.
    """
    import hashlib
    import os
    import resource
    import signal

    from repro.core.backend import SheriffBackend
    from repro.crowd.campaign import CampaignConfig, run_campaign
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.io import save_crowd_dataset

    if kill is not None:
        from repro.checkpoint import install_barrier_hook

        point, count = kill
        fired = [0]

        def hook(name: str) -> None:
            if name == point:
                fired[0] += 1
                if fired[0] == count:
                    os.kill(os.getpid(), signal.SIGKILL)

        install_barrier_hook(hook)

    world = build_world(WorldConfig(catalog_scale=0.2, long_tail_domains=0))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    config = CampaignConfig(
        n_checks=n_checks, population_size=20, seed=11,
        start_day=0, end_day=days,
    )
    start = time.perf_counter()
    dataset = run_campaign(
        world, backend, config, checkpoint_dir=checkpoint_dir, resume=resume
    )
    elapsed = time.perf_counter() - start
    digest = None
    if out_path is not None:
        save_crowd_dataset(dataset, out_path)
        digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
    queue.put({
        "checks": len(dataset),
        "elapsed_s": round(elapsed, 3),
        "checks_per_second": round(len(dataset) / elapsed, 2),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "digest": digest,
    })


def _campaign_resume_run(
    n_checks: int, days: int, checkpoint_dir, *,
    resume: bool = False, kill=None, out_path=None,
) -> dict[str, object]:
    """Spawn one resume-bench worker; returns its result (or, for a
    killed worker, the parent-measured elapsed time until the SIGKILL)."""
    import multiprocessing
    import signal

    import queue as queue_module

    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(
        target=_campaign_resume_worker,
        args=(n_checks, days, checkpoint_dir, resume, kill, out_path, queue),
    )
    start = time.perf_counter()
    proc.start()
    proc.join()
    elapsed = time.perf_counter() - start
    if kill is not None:
        if proc.exitcode != -signal.SIGKILL:
            raise RuntimeError(
                f"kill-carrying worker exited {proc.exitcode}, not SIGKILL"
            )
        return {"elapsed_s": round(elapsed, 3)}
    if proc.exitcode != 0:
        raise RuntimeError(f"resume worker exited with {proc.exitcode}")
    try:
        return queue.get(timeout=30)
    except queue_module.Empty:
        raise RuntimeError(
            "resume worker exited cleanly without reporting a result"
        ) from None


def bench_campaign_resume(
    rounds: int, *, n_checks: int = 200_000, days: int = 7
) -> dict[str, object]:
    """Kill-safe campaigns at scale: checkpoint overhead + resume cost.

    Four subprocess-isolated runs of the real ``run_campaign``:

    * a *plain* and a *checkpointed* run at ``n_checks // 10`` measure
      the steady-state checkpointing tax (fsync'd day-segments);
    * a checkpointed *reference* at full ``n_checks``;
    * the same run SIGKILLed mid-manifest-append at the day-``days//2``
      boundary, then *resumed* to completion in a fresh process.

    Headline numbers: resume elapsed + peak RSS vs the uninterrupted
    run's (the resumed process replays committed day-segments from disk
    one at a time -- its RSS must stay in the full run's envelope, not
    grow with the committed prefix), and byte identity of the outputs.
    ``rounds`` is ignored: every config is a single subprocess run.
    """
    import tempfile

    del rounds  # single-shot by design; see docstring
    with tempfile.TemporaryDirectory(prefix="bench_resume_") as tmp:
        tmp_path = Path(tmp)
        tax_checks = max(n_checks // 10, 2000)
        plain = _campaign_resume_run(tax_checks, days, None)
        taxed = _campaign_resume_run(
            tax_checks, days, str(tmp_path / "tax")
        )

        reference = _campaign_resume_run(
            n_checks, days, str(tmp_path / "ref"),
            out_path=str(tmp_path / "ref.jsonl"),
        )
        kill_count = days // 2 + 1  # dies appending the day-days//2 line
        killed = _campaign_resume_run(
            n_checks, days, str(tmp_path / "run"),
            kill=("manifest-mid-write", kill_count),
        )
        resumed = _campaign_resume_run(
            n_checks, days, str(tmp_path / "run"), resume=True,
            out_path=str(tmp_path / "resumed.jsonl"),
        )
        if resumed["digest"] != reference["digest"]:
            raise RuntimeError("resumed campaign diverged from reference bytes")
        return {
            "n_checks": n_checks,
            "days": days,
            "checkpoint_tax": {
                "n_checks": tax_checks,
                "plain_elapsed_s": plain["elapsed_s"],
                "checkpointed_elapsed_s": taxed["elapsed_s"],
                "overhead_pct": round(
                    100.0 * (taxed["elapsed_s"] / plain["elapsed_s"] - 1.0), 1
                ),
            },
            "reference": reference,
            "killed_at": f"manifest-mid-write#{kill_count}",
            "killed_elapsed_s": killed["elapsed_s"],
            "resumed": resumed,
            "byte_identical": True,
            "resume_total_vs_uninterrupted": round(
                (killed["elapsed_s"] + resumed["elapsed_s"])
                / reference["elapsed_s"],
                2,
            ),
            "rss_resumed_vs_full": round(
                resumed["peak_rss_mb"] / reference["peak_rss_mb"], 2
            ),
        }


def bench_worker_failure(rounds: int) -> dict[str, object]:
    """Supervision bench: recovery latency and no-fault overhead.

    Three stacks crawl the same day sequence over the multicore bench's
    mixed fleet: a sequential reference, a supervised 4-worker process
    executor with no faults (the supervision layer's steady-state cost
    -- compare ``no_fault`` against ``multicore_scaling``'s
    ``workers4_process``), and the same executor with one worker
    SIGKILLed mid-day every round (victim rotating through the fleet).
    Per round the chaos run must produce the reference bytes; headline
    numbers are the mean recovery latency (retire + respawn + full
    re-ship + re-run, from ``supervision_stats``) and the wall-clock
    cost of eating one kill per day.
    """
    import json

    from repro.core.backend import SheriffBackend
    from repro.crawler import CrawlConfig, build_plan, run_crawl
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.exec.process import ProcessExecutor, install_fault_hook
    from repro.io import report_to_dict

    world_config = WorldConfig(catalog_scale=0.2, long_tail_domains=0)
    probe = build_world(world_config)
    pure = [d for d in probe.crawled_domains
            if probe.servers[d].signature_profile() is not None]
    live = [d for d in probe.crawled_domains
            if probe.servers[d].signature_profile() is None]
    domains = sorted(pure[:4] + live[:2])
    products_per_retailer = 4
    workers = 4

    def stack():
        world = build_world(world_config)
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        plan = build_plan(world, domains=domains,
                          products_per_retailer=products_per_retailer)
        return world, backend, plan

    def blob(dataset) -> str:
        return json.dumps(
            [report_to_dict(r) for r in dataset.reports], sort_keys=True
        )

    ref = stack()
    plain = stack()
    chaos = stack()
    plain_exec = ProcessExecutor(plain[0], workers)
    chaos_exec = ProcessExecutor(chaos[0], workers, restart_backoff_s=0.0)

    # One-shot fault: SIGKILL the pending victim mid-batch, once.
    pending: list[int] = []

    def hook(worker: int, batch: int):
        if pending and pending[0] == worker:
            pending.pop()
            return "mid-batch"
        return None

    def crawl(s, day, executor=None):
        world, backend, plan = s
        return run_crawl(world, backend, plan,
                         CrawlConfig(days=1, start_day=day),
                         executor=executor)

    day = iter(range(300, 10_000))
    plain_ms: list[float] = []
    chaos_ms: list[float] = []
    recovery_ms: list[float] = []
    previous = install_fault_hook(hook)
    assert previous is None, "a fault hook was already installed"
    try:
        warm = next(day)  # warm worker pools / worlds, untimed
        reference = blob(crawl(ref, warm))
        if (blob(crawl(plain, warm, plain_exec)) != reference
                or blob(crawl(chaos, warm, chaos_exec)) != reference):
            raise RuntimeError("warm-up day diverged from sequential bytes")
        for round_index in range(rounds):
            d = next(day)
            reference = blob(crawl(ref, d))

            start = time.perf_counter()
            no_fault = blob(crawl(plain, d, plain_exec))
            plain_ms.append((time.perf_counter() - start) * 1000.0)
            if no_fault != reference:
                raise RuntimeError("no-fault run diverged from reference")

            pending.append(round_index % workers)
            before = chaos_exec.supervision_stats()
            start = time.perf_counter()
            faulted = blob(crawl(chaos, d, chaos_exec))
            chaos_ms.append((time.perf_counter() - start) * 1000.0)
            after = chaos_exec.supervision_stats()
            if faulted != reference:
                raise RuntimeError(
                    f"worker kill changed bytes at day {d}"
                )
            if after["restarts"] != before["restarts"] + 1:
                raise RuntimeError("injected kill did not trigger a restart")
            recovery_ms.append(after["recovery_ms"] - before["recovery_ms"])
    finally:
        install_fault_hook(None)
        plain_exec.close()
        chaos_exec.close()

    checks_per_day = len(domains) * products_per_retailer
    return {
        "checks_per_day": checks_per_day,
        "workers": workers,
        "kills_per_day": 1,
        "no_fault": _summary(plain_ms),
        "with_worker_kill": _summary(chaos_ms),
        "recovery_latency_ms": _summary(recovery_ms),
        "kill_overhead_ms": round(
            statistics.fmean(chaos_ms) - statistics.fmean(plain_ms), 3
        ),
        "byte_identical_under_faults": True,
    }


def bench_serving_latency(
    rounds: int, *, n_requests: int = 2000
) -> dict[str, object]:
    """Traffic replay against the live HTTP service: p50/p99 + checks/s.

    Boots the real stack (``repro.serve`` on an ephemeral local port),
    submits one background campaign job as the write load, then drives
    ``rounds`` mixed read/write streams over a keep-alive connection:
    ~80% ``POST /checks`` (popularity-weighted domain/product picks from
    the serving world, zipf-ish head), ~10% ``GET /jobs/<id>`` progress
    polls, ~10% ``GET /healthz``.  Check latency is measured per request
    (the serving cache warms as the stream runs, exactly like
    production); sustained checks/s is checks over the whole mixed
    stream's wall clock, job traffic included.
    """
    import http.client
    import random
    import tempfile
    import threading

    from repro.serve import ServeConfig, build_app

    service, server = build_app(ServeConfig(
        port=0, scale="tiny",
        data_dir=tempfile.mkdtemp(prefix="bench-serve-"),
    ))
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)

    def request(method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload)
        start = time.perf_counter()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert resp.status in (200, 202), (resp.status, data[:200])
        return elapsed_ms, json.loads(data)

    try:
        world = service.world
        domains = list(world.crawled_domains)
        weights = [1.0 / (rank + 1) for rank in range(len(domains))]
        catalog_sizes = {
            domain: len(world.retailer(domain).catalog) for domain in domains
        }
        _, job = request("POST", "/campaigns", {
            "scale": "tiny", "n_checks": 60, "end_day": 20,
        })
        job_path = f"/jobs/{job['id']}"
        rng = random.Random(2013)
        check_ms: list[float] = []
        reads = {"job_status": 0, "healthz": 0}
        wall_s = 0.0
        for _ in range(rounds):
            stream_start = time.perf_counter()
            for _ in range(n_requests):
                roll = rng.random()
                if roll < 0.8:
                    domain = rng.choices(domains, weights)[0]
                    product = rng.randrange(min(4, catalog_sizes[domain]))
                    elapsed_ms, _body = request(
                        "POST", "/checks",
                        {"domain": domain, "product": product},
                    )
                    check_ms.append(elapsed_ms)
                elif roll < 0.9:
                    request("GET", job_path)
                    reads["job_status"] += 1
                else:
                    request("GET", "/healthz")
                    reads["healthz"] += 1
            wall_s += time.perf_counter() - stream_start
        _, health = request("GET", "/healthz")
        _, job_state = request("GET", job_path)
    finally:
        conn.close()
        server.shutdown()
        server_thread.join(timeout=10)
        server.server_close()

    quantiles = statistics.quantiles(check_ms, n=100)
    return {
        "requests": rounds * n_requests,
        "checks": len(check_ms),
        "mean_ms": round(statistics.fmean(check_ms), 4),
        "p50_ms": round(statistics.median(check_ms), 4),
        "p99_ms": round(quantiles[98], 4),
        "max_ms": round(max(check_ms), 4),
        "checks_per_s": round(len(check_ms) / wall_s, 1),
        "mixed_reads": reads,
        "serving_cache_hit_rate": health["serving_cache"]["hit_rate"],
        "background_job": {
            "status": job_state["status"],
            "checks_done": job_state["checks"]["done"],
        },
    }


#: name -> (runner, which rounds argument it takes).
BENCHES: dict[str, tuple] = {
    "sheriff_check": (bench_sheriff_check, "rounds"),
    "store_replay": (bench_store_replay, "rounds"),
    "crawl_day": (bench_crawl_day, "heavy"),
    "crawl_day_scaling": (bench_crawl_day_scaling, "heavy"),
    "multicore_scaling": (bench_multicore_scaling, "heavy"),
    "crowd_checks": (bench_crowd_checks, "heavy"),
    "analysis_aggregation": (bench_analysis_aggregation, "heavy"),
    "campaign_scaling": (bench_campaign_scaling, "heavy"),
    "campaign_resume": (bench_campaign_resume, "heavy"),
    "worker_failure": (bench_worker_failure, "heavy"),
    "serving_latency": (bench_serving_latency, "heavy"),
}


def _bench_kwargs(name: str, args) -> dict:
    """Per-bench keyword overrides sourced from the command line."""
    if name == "campaign_scaling":
        return {"n_checks": args.campaign_checks}
    if name == "campaign_resume":
        return {"n_checks": args.resume_checks}
    if name == "multicore_scaling":
        return {"fast": args.multicore_fast}
    if name == "serving_latency":
        return {"n_requests": args.serve_requests}
    return {}


def _profile_bench(name: str, args) -> int:
    """Run one bench under cProfile and print the top-20 cumulative rows.

    Future perf PRs should start here: the hot functions are measured,
    not guessed.  The profiled run's results are discarded (profiling
    skews timings), so the output file is left untouched.
    """
    import cProfile
    import pstats

    from repro.htmlmodel.parser import reset_parse_cache

    reset_parse_cache()
    fn, kind = BENCHES[name]
    rounds = args.rounds if kind == "rounds" else args.heavy_rounds
    profiler = cProfile.Profile()
    profiler.enable()
    fn(rounds, **_bench_kwargs(name, args))
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative")
    print(f"\n== top 20 cumulative functions: {name} ==")
    stats.print_stats(20)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=50,
                        help="rounds for the per-check bench (default 50)")
    parser.add_argument("--heavy-rounds", type=int, default=3,
                        help="rounds for crawl/campaign benches (default 3)")
    parser.add_argument("--only", action="append", choices=sorted(BENCHES),
                        help="run only this bench (repeatable); existing "
                             "entries in the output file are preserved")
    parser.add_argument("--profile", choices=sorted(BENCHES), metavar="BENCH",
                        help="run BENCH once under cProfile, print the "
                             "top-20 cumulative functions, and exit "
                             "without touching the output file")
    parser.add_argument("--campaign-checks", type=int, default=100_000,
                        help="headline check count for campaign_scaling "
                             "(default 100000)")
    parser.add_argument("--resume-checks", type=int, default=200_000,
                        help="headline check count for campaign_resume "
                             "(default 200000)")
    parser.add_argument("--serve-requests", type=int, default=2000,
                        help="mixed requests per stream round for "
                             "serving_latency (default 2000)")
    parser.add_argument("--multicore-fast", action="store_true",
                        help="reduced 3-cell grid for multicore_scaling "
                             "(the CI configuration)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).with_name("BENCH_pipeline.json"))
    args = parser.parse_args(argv)

    if args.profile:
        return _profile_bench(args.profile, args)

    from repro.htmlmodel.parser import reset_parse_cache

    reset_parse_cache()
    report: dict[str, object] = {}
    if args.only and args.out.exists():
        report = json.loads(args.out.read_text())
    report.update({
        "benchmark": "pipeline",
        "python": sys.version.split()[0],
        # Measured on the pre-optimization seed tree (same box, same
        # workloads) -- the "before" of the parse-once fan-out PR.
        "seed_baseline": {
            "sheriff_check_mean_ms": 15.08,
            "crawl_day_mean_ms": 312.0,
            "crowd_checks_mean_ms": 486.3,
        },
    })
    selected = args.only or sorted(BENCHES)
    for name in selected:
        fn, kind = BENCHES[name]
        rounds = args.rounds if kind == "rounds" else args.heavy_rounds
        report[name] = fn(rounds, **_bench_kwargs(name, args))
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
