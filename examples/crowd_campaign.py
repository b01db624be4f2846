"""Crowdsourced discovery: a scaled-down beta campaign (paper §3).

Simulates beta users browsing ~170 shops over the Jan-May 2013 window and
clicking the $heriff check button, then prints the Fig. 1 / Fig. 2 views:
which domains the crowd flags, and the size of their price variations.

Run:  python examples/crowd_campaign.py
"""

from __future__ import annotations

from repro.analysis import (
    clean_reports,
    domain_ratio_stats,
    domain_variation_counts,
)
from repro.core import SheriffBackend
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce import WorldConfig, build_world


def main() -> None:
    world = build_world(WorldConfig(catalog_scale=0.3, long_tail_domains=140))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    config = CampaignConfig(n_checks=300, population_size=150)
    print(
        f"running campaign: {config.n_checks} checks, "
        f"{config.population_size} users, {len(world.retailers)} shops ..."
    )
    dataset = run_campaign(world, backend, config)

    summary = dataset.summary()
    print(
        f"\ncollected {summary['requests']} requests from "
        f"{summary['users']} users in {summary['countries']} countries "
        f"across {summary['domains']} domains"
    )

    print("\nFig. 1 -- domains with the most requests showing differences:")
    counts = domain_variation_counts(dataset.reports())
    for domain, count in counts.most_common(15):
        print(f"  {domain:35s} {'#' * count} ({count})")

    flagged_honest = [d for d in counts if d in world.long_tail]
    print(f"\nuniform-priced long-tail shops falsely flagged: {len(flagged_honest)}")

    print("\nFig. 2 -- magnitude of the flagged variations (max/min ratio):")
    clean = clean_reports(dataset.reports(), world.rates)
    stats = domain_ratio_stats(clean.kept, only_variation=True)
    print(f"  (currency guard: x{clean.guard:.4f})")
    for domain in sorted(stats, key=lambda d: -stats[d].n)[:15]:
        s = stats[domain]
        print(
            f"  {domain:35s} n={s.n:3d} median=x{s.median:.3f} "
            f"IQR=[x{s.q25:.3f}, x{s.q75:.3f}] max=x{s.maximum:.3f}"
        )


if __name__ == "__main__":
    main()
