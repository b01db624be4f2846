"""Systematic crawl of the paper's 21 retailers (paper §4).

Runs a reduced-scale version of the crawled dataset (products x days x 14
vantage points), then prints condensed versions of Figs. 3, 4, 5, 7 and 9:
extent and magnitude per retailer, ratio vs product price, per-location
premia, and the Finland profile.

Run:  python examples/systematic_crawl.py [workers] [local|process]

The optional arguments shard each crawl day across workers (the sharded
execution engine, ``repro.exec``); the printed figures are identical at
any worker count because the dataset is byte-identical.
"""

from __future__ import annotations

import sys

from repro.analysis import (
    clean_reports,
    domain_ratio_stats,
    finland_profile,
    location_ratio_stats,
    ratio_vs_min_price,
    variation_extent,
)
from repro.core import SheriffBackend
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.ecommerce import WorldConfig, build_world
from repro.exec import ExecConfig


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    mode = sys.argv[2] if len(sys.argv) > 2 else "local"
    exec_config = ExecConfig(workers=workers, mode=mode) if workers > 1 else None

    world = build_world(WorldConfig(catalog_scale=0.3, long_tail_domains=0))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    plan = build_plan(world, domains=world.crawled_domains, products_per_retailer=15)
    sharding = f" ({workers} {mode} shards)" if exec_config else ""
    print(
        f"crawling {len(plan)} retailers x {plan.total_product_urls // len(plan)} "
        f"products x 3 days x 14 vantage points{sharding} ..."
    )
    crawl = run_crawl(world, backend, plan, CrawlConfig(days=3),
                      exec_config=exec_config)
    print(f"-> {crawl.n_extracted_prices:,} extracted prices\n")

    clean = clean_reports(crawl.reports, world.rates)
    print(f"currency guard: x{clean.guard:.4f} "
          f"(kept {clean.n_kept}, dropped {clean.n_dropped})\n")

    print("Fig. 3 -- extent of variation per retailer:")
    extent = variation_extent(clean.kept)
    for domain in sorted(extent, key=extent.get, reverse=True):
        bar = "#" * int(extent[domain] * 30)
        print(f"  {domain:35s} {bar:30s} {extent[domain]:.0%}")

    print("\nFig. 4 -- magnitude per retailer (median max/min ratio):")
    stats = domain_ratio_stats(clean.kept, only_variation=True)
    for domain in sorted(stats, key=lambda d: stats[d].median):
        s = stats[domain]
        print(f"  {domain:35s} median=x{s.median:.3f} max=x{s.maximum:.3f}")

    print("\nFig. 5 -- maximal ratio vs minimal product price:")
    points = ratio_vs_min_price(clean.kept)
    for label, low, high in (("<$50", 0, 50), ("$50-500", 50, 500),
                             ("$500-2000", 500, 2000), (">$2000", 2000, 1e9)):
        band = [p.max_ratio for p in points if low <= p.min_price_usd < high]
        if band:
            print(f"  {label:10s} n={len(band):4d} max ratio=x{max(band):.2f}")

    print("\nFig. 7 -- price premium per location (median ratio to cheapest):")
    locations = location_ratio_stats(clean.kept)
    for vantage in sorted(locations, key=lambda v: locations[v].median):
        s = locations[vantage]
        print(f"  {vantage:22s} median=x{s.median:.3f} q75=x{s.q75:.3f}")

    print("\nFig. 9 -- Finland vs cheapest location, per retailer:")
    varied = clean.kept.with_variation()
    for domain, s in sorted(finland_profile(varied).items(), key=lambda kv: kv[1].median):
        marker = "  <- Finland cheapest" if s.median <= 1.02 else ""
        print(f"  {domain:35s} median=x{s.median:.3f}{marker}")


if __name__ == "__main__":
    main()
