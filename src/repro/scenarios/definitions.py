"""The built-in scenario matrix: seven adversarial retailer worlds.

Each scenario pairs the adversarial behaviour under test with two
controls -- a plain geo discriminator the pipeline *must* keep finding
(recall) and an honest shop it *must* keep clearing (precision) -- and
records the ground truth the harness scores against.  Worlds are tiny on
purpose: a handful of retailers with small catalogs, no long tail, built
in milliseconds, so the full scenario × execution grid stays
affordable.

Domains use the reserved ``.test`` TLD: these shops exist to attack the
methodology, not to model the paper's real-world roster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.detection import DomainTruth
from repro.ecommerce.pricing import PricingPolicy, UniformPricing
from repro.ecommerce.templates import ClassicTemplate
from repro.ecommerce.world import geo_table, mult_policy
from repro.scenarios.behaviors import (
    ChurningTemplate,
    CloakingServer,
    CurrencySwitchServer,
    FlashSale,
    PageCorruptionServer,
    SessionStickyPricing,
    StockoutServer,
)
from repro.scenarios.engine import Scenario, register_scenario, scenario_retailer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ecommerce.world import World

__all__ = ["DEFAULT_SCENARIOS"]


def _geo_policy(seed: int) -> PricingPolicy:
    """The standard planted discriminator: a ~1.35x US->FI geo spread."""
    return mult_policy(
        geo_table(us=1.0, br=1.05, uk=1.12, eu=1.2, fi=1.35), seed=seed
    )


#: Conservative lower bound on the fan-out-visible ratio of
#: :func:`_geo_policy` (true spread 1.35; FX rounding eats a little).
_GEO_MIN_RATIO = 1.2


def _honest(domain: str) -> DomainTruth:
    return DomainTruth(domain=domain, discriminates=False, kind="none")


def _geo_truth(domain: str, kind: str = "geo") -> DomainTruth:
    return DomainTruth(
        domain=domain, discriminates=True, min_ratio=_GEO_MIN_RATIO, kind=kind
    )


# ----------------------------------------------------------------------
# flash-sale: temporal repricing must not read as discrimination
# ----------------------------------------------------------------------
def _mutate_flash_sale(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.blitzmart.test",
        FlashSale(UniformPricing(), factor=0.6, period_days=2, seed=seed),
        seed=seed,
    )
    scenario_retailer(
        world, "www.surgeprice.test",
        FlashSale(UniformPricing(), factor=1.45, period_days=2, seed=seed + 1),
        seed=seed,
    )
    scenario_retailer(
        world, "www.steadygeo.test", _geo_policy(seed), seed=seed,
    )
    scenario_retailer(
        world, "www.salegeo.test",
        FlashSale(_geo_policy(seed), factor=0.7, period_days=2, seed=seed + 2),
        seed=seed,
    )


register_scenario(Scenario(
    name="flash-sale",
    description=(
        "Flash sales and demand spikes reprice whole catalogs between "
        "days (up to 1.45x); synchronized fan-outs must stay blind to "
        "them while still catching geo spreads -- including one running "
        "*through* a sale."
    ),
    mutate=_mutate_flash_sale,
    truth=(
        _honest("www.blitzmart.test"),
        _honest("www.surgeprice.test"),
        _geo_truth("www.steadygeo.test"),
        _geo_truth("www.salegeo.test", kind="geo+flash"),
    ),
    crawl_domains=(
        "www.blitzmart.test", "www.surgeprice.test",
        "www.steadygeo.test", "www.salegeo.test",
    ),
))


# ----------------------------------------------------------------------
# template-churn: anchors must survive page redesigns
# ----------------------------------------------------------------------
def _mutate_template_churn(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.churnshop.test", _geo_policy(seed), seed=seed,
        template=ChurningTemplate(period_days=1, seed=seed),
    )
    scenario_retailer(
        world, "www.churnhonest.test", UniformPricing(), seed=seed,
        template=ChurningTemplate(period_days=1, seed=seed + 1),
    )
    scenario_retailer(
        world, "www.stablehonest.test", UniformPricing(), seed=seed,
    )


register_scenario(Scenario(
    name="template-churn",
    description=(
        "Retailers swap template families between days, moving the "
        "price anchor; the operator re-derives anchors daily "
        "(reanchor_daily) and detection must survive the churn."
    ),
    mutate=_mutate_template_churn,
    truth=(
        _geo_truth("www.churnshop.test", kind="geo+churn"),
        _honest("www.churnhonest.test"),
        _honest("www.stablehonest.test"),
    ),
    crawl_domains=(
        "www.churnshop.test", "www.churnhonest.test", "www.stablehonest.test",
    ),
    reanchor_daily=True,
))


# ----------------------------------------------------------------------
# stockout-404: intermittent availability must only cost coverage
# ----------------------------------------------------------------------
def _mutate_stockout(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.flickerstock.test", _geo_policy(seed), seed=seed,
        server_factory=StockoutServer, stockout_rate=0.35,
    )
    scenario_retailer(
        world, "www.fickleshelf.test", UniformPricing(), seed=seed,
        server_factory=StockoutServer, stockout_rate=0.35,
    )
    scenario_retailer(
        world, "www.steadyshelf.test", UniformPricing(), seed=seed,
    )


register_scenario(Scenario(
    name="stockout-404",
    description=(
        "A third of (product, day) pairs 404 out of stock; failed "
        "observations must degrade coverage, never verdicts."
    ),
    mutate=_mutate_stockout,
    truth=(
        _geo_truth("www.flickerstock.test", kind="geo+stockout"),
        _honest("www.fickleshelf.test"),
        _honest("www.steadyshelf.test"),
    ),
    crawl_domains=(
        "www.flickerstock.test", "www.fickleshelf.test",
        "www.steadyshelf.test",
    ),
    products_per_retailer=4,
))


# ----------------------------------------------------------------------
# cloaking: bot defenses feed heavy crawlers a sanitized catalog
# ----------------------------------------------------------------------
def _mutate_cloaking(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.cloakedgeo.test", _geo_policy(seed), seed=seed,
        server_factory=CloakingServer, daily_request_budget=60,
    )
    scenario_retailer(
        world, "www.openhonest.test", UniformPricing(), seed=seed,
    )


register_scenario(Scenario(
    name="cloaking",
    description=(
        "Origins exceeding a per-IP daily request budget get a "
        "uniform-priced cloak page; the politely paced crawl stays "
        "under budget and keeps seeing the real prices, and the memo "
        "treats the stateful server as live-only."
    ),
    mutate=_mutate_cloaking,
    truth=(
        _geo_truth("www.cloakedgeo.test", kind="geo+cloak"),
        _honest("www.openhonest.test"),
    ),
    crawl_domains=("www.cloakedgeo.test", "www.openhonest.test"),
    live_only_domains=frozenset({"www.cloakedgeo.test"}),
))


# ----------------------------------------------------------------------
# session-sticky: personalization the fan-out *should* report
# ----------------------------------------------------------------------
def _mutate_session_sticky(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.stickysession.test",
        SessionStickyPricing(UniformPricing(), amplitude=0.15, seed=seed),
        seed=seed,
    )
    scenario_retailer(
        world, "www.freshsession.test", UniformPricing(), seed=seed,
    )


register_scenario(Scenario(
    name="session-sticky",
    description=(
        "Prices stick to sessions (Fig. 10-style personalization): the "
        "fleet's distinct sessions observe real, repeatable variation, "
        "and the identity-reading policy keeps its retailer off the "
        "burst memo."
    ),
    mutate=_mutate_session_sticky,
    truth=(
        DomainTruth(
            domain="www.stickysession.test", discriminates=True,
            min_ratio=1.05, kind="session",
        ),
        _honest("www.freshsession.test"),
    ),
    crawl_domains=("www.stickysession.test", "www.freshsession.test"),
    live_only_domains=frozenset({"www.stickysession.test"}),
))


# ----------------------------------------------------------------------
# currency-redenomination: display currency flips mid-campaign
# ----------------------------------------------------------------------
def _mutate_redenomination(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.redenom.test", UniformPricing(), seed=seed,
        home_country="IT",
        server_factory=CurrencySwitchServer, switch_day=156,
    )
    scenario_retailer(
        world, "www.eurogeo.test", _geo_policy(seed), seed=seed,
        home_country="IT",
    )


register_scenario(Scenario(
    name="currency-redenomination",
    description=(
        "A euro shop stops quoting everyone in EUR and geo-localizes "
        "display currencies mid-crawl: displayed numbers jump by full "
        "FX factors while USD pricing never moves; extraction, "
        "conversion, and the currency guard must absorb the jump."
    ),
    mutate=_mutate_redenomination,
    truth=(
        _honest("www.redenom.test"),
        _geo_truth("www.eurogeo.test"),
    ),
    crawl_domains=("www.redenom.test", "www.eurogeo.test"),
))


# ----------------------------------------------------------------------
# page-noise: corrupted pages must die in cleaning, not in verdicts
# ----------------------------------------------------------------------
def _mutate_page_noise(world: "World", seed: int) -> None:
    scenario_retailer(
        world, "www.noisypages.test", UniformPricing(), seed=seed,
        template=ClassicTemplate(),
        server_factory=PageCorruptionServer, corruption_rate=0.4,
    )
    scenario_retailer(
        world, "www.noisygeo.test", _geo_policy(seed), seed=seed,
        template=ClassicTemplate(),
        server_factory=PageCorruptionServer, corruption_rate=0.4,
    )
    scenario_retailer(
        world, "www.cleanpages.test", UniformPricing(), seed=seed,
    )


register_scenario(Scenario(
    name="page-noise",
    description=(
        "40% of (product, day) pairs serve corrupted pages -- absurd "
        "$0.00 prices or unparseable garbage, both under a valid price "
        "anchor; the cleaning guards (non-positive price, "
        "too-few-observations) must eat every one of them."
    ),
    mutate=_mutate_page_noise,
    truth=(
        _honest("www.noisypages.test"),
        _geo_truth("www.noisygeo.test", kind="geo+noise"),
        _honest("www.cleanpages.test"),
    ),
    crawl_domains=(
        "www.noisypages.test", "www.noisygeo.test", "www.cleanpages.test",
    ),
    products_per_retailer=4,
    expected_drop_reasons=("non-positive-price", "too-few-observations"),
))


#: The scenarios shipped with the repo, in the order they tell the story.
DEFAULT_SCENARIOS: tuple[str, ...] = (
    "flash-sale",
    "template-churn",
    "stockout-404",
    "cloaking",
    "session-sticky",
    "currency-redenomination",
    "page-noise",
)
