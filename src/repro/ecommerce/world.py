"""World builder: the simulated 2013 e-commerce web.

One :class:`World` contains everything an experiment needs: virtual clock,
network, geo-IP plan/database, FX rates, the 14 standard vantage points,
persona training sites, and the retailer population:

* the **30 named retailers** appearing in the paper's figures, each with a
  pricing policy calibrated so the *shape* of every figure reproduces
  (see the per-retailer table in DESIGN.md / this module's specs), and
* a **long tail** of honest uniform-priced shops so the crowdsourced
  dataset spans ~600 domains of which only a few dozen show variation --
  the discovery problem crowdsourcing is meant to solve.

Calibration sources, per retailer:

* membership in the crawled set and extent of variation -- Fig. 3,
* magnitude (max/min ratio) -- Figs. 2 and 4,
* multiplicative vs additive structure -- Fig. 6,
* per-location ordering (US/BR cheap, Finland dear; exceptions
  mauijim/tuscanyleather) -- Figs. 7 and 9,
* per-US-city structure for homedepot, per-country for amazon/killah --
  Fig. 8,
* identity-keyed Kindle ebooks on amazon -- Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.ecommerce.catalog import Catalog, generate_catalog
from repro.ecommerce.checkout import ShippingPolicy
from repro.ecommerce.personas import AFFLUENT, BUDGET, PersonaTrainingSite
from repro.ecommerce.pricing import (
    ABTestNoise,
    CategoryDispatch,
    CityMultiplicative,
    GeoAdditive,
    GeoMultiplicative,
    DampedGeoMultiplicative,
    GeoMultiplyAdd,
    IdentityKeyed,
    PricingPolicy,
    ReferrerDiscount,
    TemporalDrift,
    UniformPricing,
)
from repro.ecommerce.retailer import RenderMemo, Retailer, RetailerServer
from repro.ecommerce.templates import template_for
from repro.ecommerce.thirdparty import trackers_for_retailer
from repro.fx.rates import RateService
from repro.net.clock import VirtualClock
from repro.net.geoip import COUNTRY_SEED, GeoIPDatabase, IPAddressPlan
from repro.net.transport import Network
from repro.net.vantage import VantagePoint, standard_vantage_points
from repro.util import stable_rng

__all__ = [
    "World",
    "WorldConfig",
    "WorldSpec",
    "RetailerSpec",
    "build_world",
    "NAMED_RETAILER_SPECS",
]


# ----------------------------------------------------------------------
# Geo multiplier table helpers
# ----------------------------------------------------------------------
_EURO_COUNTRIES = ("ES", "DE", "BE", "IT", "FR", "NL", "PT", "GR", "IE")


def geo_table(
    *, us: float = 1.0, br: float = 1.0, uk: float = 1.0, eu: float = 1.0,
    fi: Optional[float] = None, default: Optional[float] = None,
) -> dict[str, float]:
    """Build a country->multiplier table from regional shorthand.

    ``fi`` defaults to the euro level; ``default`` (unlisted countries)
    defaults to the euro level as well and is applied by the policy's
    ``default`` field, so it is returned under the pseudo-key ``"*"``.
    """
    table: dict[str, float] = {"US": us, "BR": br, "GB": uk}
    for code in _EURO_COUNTRIES:
        table[code] = eu
    table["FI"] = eu if fi is None else fi
    table["*"] = eu if default is None else default
    return table


def _split_default(table: Mapping[str, float]) -> tuple[dict[str, float], float]:
    clean = {k: v for k, v in table.items() if k != "*"}
    return clean, table.get("*", 1.0)


def mult_policy(
    table: Mapping[str, float],
    *,
    coverage: float = 1.0,
    seed: int = 0,
    damped: bool = False,
    knee: float = 1200.0,
    ceiling: float = 3000.0,
    floor_fraction: float = 0.5,
) -> PricingPolicy:
    """A (possibly damped) multiplicative geo policy from a shorthand table."""
    clean, default = _split_default(table)
    if damped:
        return DampedGeoMultiplicative(
            table=clean, default=default, knee=knee, ceiling=ceiling,
            floor_fraction=floor_fraction, coverage=coverage, seed=seed,
        )
    return GeoMultiplicative(table=clean, default=default, coverage=coverage, seed=seed)


# ----------------------------------------------------------------------
# Retailer specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetailerSpec:
    """Declarative description of one named retailer.

    ``crowd_weight`` controls how often crowd users check this shop
    (drives Fig. 1 ordering); ``crawled`` marks membership in the paper's
    21-retailer systematic crawl; ``policy_factory`` receives the world
    seed and returns the pricing policy.
    """

    domain: str
    name: str
    category: str
    policy_factory: Callable[[int], PricingPolicy]
    crowd_weight: float = 1.0
    crawled: bool = False
    catalog_size: int = 120
    path_style: str = "product"
    localizes_currency: bool = True
    home_country: str = "US"
    supports_login: bool = False
    extra_catalog: Optional[tuple[str, int, str]] = None  # (category, size, sku_prefix)
    #: None -> a deterministic default shipping table; set explicitly for
    #: retailers whose logistics matter to the experiments (free-shipping
    #: bookdepository, bundled-display zavvi, ...).
    shipping: Optional[ShippingPolicy] = None


def _amazon_policy(seed: int) -> PricingPolicy:
    """Flat across US cities; country-level spread up to Fig. 8(b)'s ~2.0
    on covered products; identity-keyed Kindle ebooks (Fig. 10)."""
    countries = mult_policy(
        geo_table(us=1.0, br=1.04, uk=1.15, eu=1.25, fi=1.35),
        coverage=0.55, seed=seed, damped=True, knee=900, ceiling=2500,
        floor_fraction=0.45,
    )
    kindle = IdentityKeyed(multipliers=(0.85, 0.95, 1.0, 1.1), seed=seed)
    return CategoryDispatch(routes={"ebooks": kindle}, default=countries)


def _homedepot_policy(seed: int) -> PricingPolicy:
    """Per-US-city tiers incl. a 'mixed' city (Fig. 8(a))."""
    return CityMultiplicative(
        table={
            "Albany": 1.02, "Boston": 1.02, "Los Angeles": 1.03,
            "Chicago": 1.00, "Lincoln": 1.04, "New York": 1.12,
        },
        default=1.02,
        noisy_cities=frozenset({"Lincoln"}),
        noise_amplitude=0.05,
        coverage=0.45,
        seed=seed,
    )


def _energie_policy(seed: int) -> PricingPolicy:
    """Fig. 6(b): multiplicative for Europe, additive for the USA."""
    return GeoMultiplyAdd(
        mult_table={**_z(geo_table(eu=1.0, fi=1.15, uk=1.08, br=1.06)), "US": 1.0},
        add_table={"US": 4.5},
        mult_default=1.0,
        add_default=0.0,
        coverage=1.0,
        seed=seed,
    )


def _z(table: Mapping[str, float]) -> dict[str, float]:
    return {k: v for k, v in table.items() if k != "*"}


def _hotels_policy(seed: int) -> PricingPolicy:
    inner = mult_policy(
        geo_table(us=1.0, br=1.03, uk=1.1, eu=1.13, fi=1.24),
        coverage=0.75, seed=seed,
    )
    return ABTestNoise(
        TemporalDrift(inner, amplitude=0.08, seed=seed),
        amplitude=0.05, fraction=0.12, seed=seed,
    )


def _rightstart_policy(seed: int) -> PricingPolicy:
    """Additive surcharges: up to x3 on the cheapest items (Fig. 5)."""
    return GeoAdditive(
        table={"US": 0.0, "GB": 8.0, "FI": 18.0,
               **{c: 12.0 for c in _EURO_COUNTRIES}, "BR": 14.0},
        default=12.0, coverage=0.15, seed=seed,
        per_product_scale=(0.3, 1.6),
    )


def _scitec_policy(seed: int) -> PricingPolicy:
    return GeoAdditive(
        table={"US": 0.8, "GB": 0.6, "FI": 2.5,
               **{c: 0.0 for c in _EURO_COUNTRIES}, "BR": 2.0},
        default=0.0, coverage=0.85, seed=seed,
    )


#: The named retailers of the paper's figures.  crowd_weight is scaled so
#: Fig. 1's descending counts reproduce; medians in comments refer to the
#: Fig. 4 magnitude calibration.
NAMED_RETAILER_SPECS: tuple[RetailerSpec, ...] = (
    RetailerSpec(
        "www.amazon.com", "Amazon", "department", _amazon_policy,
        crowd_weight=52.0, crawled=True, catalog_size=150,
        supports_login=True, extra_catalog=("ebooks", 44, "KND"),
        shipping=ShippingPolicy(domestic=4.0, international=16.0,
                                free_threshold=35.0),
    ),
    RetailerSpec(
        "www.hotels.com", "Hotels.com", "hotels", _hotels_policy,
        crowd_weight=38.0, crawled=True, catalog_size=130,
    ),
    RetailerSpec(
        "store.steampowered.com", "Steam Store", "games",
        lambda seed: mult_policy(
            geo_table(us=1.0, br=0.72, uk=1.16, eu=1.25, fi=1.25), seed=seed),
        crowd_weight=30.0, path_style="item-query",
    ),
    RetailerSpec(
        "www.misssixty.com", "Miss Sixty", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, us=1.02, uk=1.03, br=1.02, fi=1.18), seed=seed),
        crowd_weight=24.0, crawled=True, catalog_size=60, home_country="IT",
    ),
    RetailerSpec(
        "www.energie.it", "Energie", "clothing", _energie_policy,
        crowd_weight=21.0, crawled=True, catalog_size=60, home_country="IT", path_style="p-html",
    ),
    RetailerSpec(
        "www.sears.com", "Sears", "department",
        lambda seed: mult_policy(
            geo_table(us=1.0, eu=1.12, uk=1.08, fi=1.18, br=1.04),
            coverage=0.8, seed=seed),
        crowd_weight=18.0,
    ),
    RetailerSpec(
        "eu.abercrombie.com", "Abercrombie EU", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.04, us=1.1, fi=1.14, br=1.06), seed=seed),
        crowd_weight=16.0, home_country="DE",
    ),
    RetailerSpec(
        "www.tuscanyleather.it", "Tuscany Leather", "leather-goods",
        # Finland is (exceptionally) the cheap location here -- Fig. 9.
        lambda seed: mult_policy(
            geo_table(fi=1.0, eu=1.12, uk=1.2, us=1.3, br=1.45),
            seed=seed, damped=True, knee=1400, ceiling=3000, floor_fraction=0.5),
        crowd_weight=14.0, crawled=True, catalog_size=50, home_country="IT", path_style="deep",
    ),
    RetailerSpec(
        "www.guess.eu", "Guess EU", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.03, us=1.02, fi=1.2, br=1.02), seed=seed),
        crowd_weight=13.0, crawled=True, catalog_size=60, home_country="NL",
    ),
    RetailerSpec(
        "www.overstock.com", "Overstock", "department",
        lambda seed: mult_policy(
            geo_table(us=1.0, eu=1.12, uk=1.08, fi=1.18, br=1.04),
            coverage=0.7, seed=seed),
        crowd_weight=12.0,
    ),
    RetailerSpec(
        "www.booking.com", "Booking.com", "travel",
        lambda seed: TemporalDrift(
            mult_policy(geo_table(us=1.0, eu=1.1, uk=1.08, fi=1.18, br=1.02),
                        coverage=0.7, seed=seed),
            amplitude=0.1, seed=seed),
        crowd_weight=11.0,
    ),
    RetailerSpec(
        "www.net-a-porter.com", "Net-a-Porter", "luxury-fashion",
        lambda seed: mult_policy(
            geo_table(uk=1.0, eu=1.06, us=1.04, fi=1.1, br=1.03),
            seed=seed, damped=True, knee=1500, ceiling=4000, floor_fraction=0.6),
        crowd_weight=10.0, crawled=True, catalog_size=70, home_country="GB",
    ),
    RetailerSpec(
        "www.autotrader.com", "AutoTrader", "automobiles",
        lambda seed: mult_policy(
            geo_table(us=1.0, eu=1.25, uk=1.2, fi=1.3, br=1.04),
            coverage=0.35, seed=seed, damped=True, knee=2500, ceiling=7000,
            floor_fraction=0.45),
        crowd_weight=9.0, crawled=True, catalog_size=130,
    ),
    RetailerSpec(
        "shop.replay.it", "Replay", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, us=1.1, uk=1.06, fi=1.15, br=1.08), seed=seed),
        crowd_weight=8.0, home_country="IT",
    ),
    RetailerSpec(
        "www.mauijim.com", "Maui Jim", "sunglasses",
        # The other Finland-cheap exception of Fig. 9.
        lambda seed: mult_policy(
            geo_table(fi=1.0, eu=1.12, uk=1.16, us=1.28, br=1.15), seed=seed),
        crowd_weight=7.5, crawled=True, catalog_size=60,
    ),
    RetailerSpec(
        "store.refrigiwear.it", "RefrigiWear Store", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.05, us=1.04, fi=1.42, br=1.03), seed=seed),
        crowd_weight=7.0, crawled=True, catalog_size=50, home_country="IT", path_style="p-html",
    ),
    RetailerSpec(
        "store.murphynye.com", "Murphy & Nye", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.02, us=1.02, fi=1.13, br=1.02),
            coverage=0.97, seed=seed),
        crowd_weight=6.0, crawled=True, catalog_size=50, home_country="IT",
    ),
    RetailerSpec(
        "www.elnaturalista.com", "El Naturalista", "shoes",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.02, us=1.01, fi=1.09, br=1.01),
            coverage=0.95, seed=seed),
        crowd_weight=5.5, crawled=True, catalog_size=60, home_country="ES",
    ),
    RetailerSpec(
        "www.jeansshop.com", "Jeans Shop", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, us=1.1, uk=1.06, fi=1.14, br=1.06), seed=seed),
        crowd_weight=5.0, home_country="IT",
    ),
    RetailerSpec(
        "www.kobobooks.com", "Kobo Books", "ebooks",
        lambda seed: mult_policy(
            geo_table(us=1.0, eu=1.13, uk=1.08, fi=1.16, br=1.05),
            coverage=0.65, seed=seed),
        crowd_weight=4.5, crawled=True, catalog_size=130,
    ),
    RetailerSpec(
        "www.luisaviaroma.com", "LuisaViaRoma", "luxury-fashion",
        # The widest spread of Fig. 4 (whiskers to ~2.0), damped so the
        # multi-$K gowns stay under x1.5 (Fig. 5).
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.25, us=1.4, fi=1.75, br=1.05),
            coverage=0.9, seed=seed, damped=True, knee=1200, ceiling=3500,
            floor_fraction=0.25),
        crowd_weight=4.0, crawled=True, catalog_size=70, home_country="IT",
    ),
    RetailerSpec(
        "store.killah.com", "Killah Store", "clothing",
        lambda seed: mult_policy(
            geo_table(eu=1.0, uk=1.04, us=1.03, fi=1.38, br=1.02), seed=seed),
        crowd_weight=3.5, crawled=True, catalog_size=50, home_country="IT",
    ),
    RetailerSpec(
        "www.digitalrev.com", "DigitalRev", "photography",
        # Fig. 6(a): purely multiplicative, undamped -- parallel lines from
        # $5 lens caps to $5K bodies.
        lambda seed: mult_policy(
            geo_table(us=1.0, br=1.05, uk=1.12, eu=1.2, fi=1.28), seed=seed),
        crowd_weight=3.0, crawled=True, catalog_size=130,
    ),
    RetailerSpec(
        "www.scitec-nutrition.es", "Scitec Nutrition", "sports-nutrition",
        _scitec_policy,
        crowd_weight=2.8, crawled=True, catalog_size=80, home_country="ES",
    ),
    RetailerSpec(
        "www.staples.com", "Staples", "office",
        # The HotNets'12 finding carried over: visitors arriving from a
        # price aggregator get a discount (invisible to the fan-out).
        lambda seed: ReferrerDiscount(
            mult_policy(geo_table(us=1.0, eu=1.1, uk=1.06, fi=1.12, br=1.03),
                        coverage=0.6, seed=seed),
            referer_substring="pricegrabber", discount=0.08),
        crowd_weight=2.6,
    ),
    RetailerSpec(
        "www.zavvi.com", "Zavvi", "department",
        # The attribution confound (§2.2): non-UK *displayed* prices bundle
        # the £-flat shipping fee; checkout totals are equal everywhere.
        # The crowd flags zavvi, the attribution analysis clears it.
        lambda seed: GeoAdditive(
            table={"GB": 0.0}, default=8.0, coverage=1.0, seed=seed),
        crowd_weight=2.4, home_country="GB",
        shipping=ShippingPolicy(
            domestic=8.0, international=8.0,
            bundled_display=frozenset(
                code for code, _, _ in COUNTRY_SEED if code != "GB"
            ),
        ),
    ),
    RetailerSpec(
        "www.bookdepository.co.uk", "Book Depository", "books",
        lambda seed: mult_policy(
            geo_table(uk=1.0, us=1.04, eu=1.1, fi=1.12, br=1.03), seed=seed),
        crowd_weight=2.2, crawled=True, catalog_size=130, home_country="GB",
        shipping=ShippingPolicy(domestic=0.0, international=0.0),
    ),
    # Crawl-only retailers (flagged by earlier studies, not by this crowd).
    RetailerSpec(
        "www.chainreactioncycles.com", "Chain Reaction Cycles", "cycling",
        lambda seed: mult_policy(
            geo_table(uk=1.0, eu=1.05, us=1.02, fi=1.06, br=1.02),
            coverage=0.92, seed=seed, damped=True, knee=1500, ceiling=4000,
            floor_fraction=0.6),
        crowd_weight=0.6, crawled=True, catalog_size=130, home_country="GB",
    ),
    RetailerSpec(
        "www.homedepot.com", "Home Depot", "home-improvement",
        _homedepot_policy,
        crowd_weight=0.6, crawled=True, catalog_size=130, localizes_currency=False,
    ),
    RetailerSpec(
        "www.rightstart.com", "Right Start", "baby", _rightstart_policy,
        crowd_weight=0.5, crawled=True, catalog_size=130,
    ),
)


# ----------------------------------------------------------------------
# World assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorldConfig:
    """Knobs for world construction.

    ``catalog_scale`` shrinks every catalog proportionally -- tests build
    small worlds fast; the paper-scale run uses 1.0.  ``long_tail_domains``
    is sized so named + long tail ≈ 600 domains, the §3.2 count.

    ``scenario`` names a registered world mutation from
    :mod:`repro.scenarios`: after the base world is assembled,
    ``build_world`` applies the scenario's mutator (extra retailers,
    adversarial pricing/server behaviours, crowd weights).  Because the
    name travels inside the config -- and therefore inside
    :class:`WorldSpec` -- a worker process regrowing the world from its
    spec reproduces the mutated world bit-for-bit.
    ``include_named_retailers`` lets a scenario start from an empty
    retailer roster instead of the paper's 30 named shops.
    """

    seed: int = 2013
    catalog_scale: float = 1.0
    long_tail_domains: int = 570
    loss_rate: float = 0.0
    include_long_tail: bool = True
    include_named_retailers: bool = True
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.catalog_scale <= 1.0:
            raise ValueError("catalog_scale must be in (0, 1]")
        if self.long_tail_domains < 0:
            raise ValueError("long_tail_domains must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")


@dataclass(frozen=True)
class WorldSpec:
    """A picklable seed from which an equivalent :class:`World` regrows.

    Everything in a world is a deterministic function of its
    :class:`WorldConfig`, so shipping the config (a few primitives) to a
    worker process and calling :meth:`build` there reconstructs servers,
    catalogs, FX rates, geo-IP plan, and the vantage fleet bit-for-bit --
    no pickling of live DOM trees, server objects, or networks.  Mutable
    *session* state (cookie jars, server request counters) is not part of
    the spec; executors transfer it separately per shard.
    """

    config: WorldConfig

    def build(self) -> "World":
        """Reconstruct the world this spec describes."""
        return build_world(self.config)


@dataclass
class World:
    """A fully wired simulation instance."""

    config: WorldConfig
    clock: VirtualClock
    network: Network
    plan: IPAddressPlan
    geoip: GeoIPDatabase
    rates: RateService
    vantage_points: list[VantagePoint]
    retailers: dict[str, Retailer]
    servers: dict[str, RetailerServer]
    crawled_domains: list[str]
    long_tail: list[str] = field(default_factory=list)
    #: Crowd-check weights for retailers outside the named-spec table --
    #: scenario mutators fill this so campaigns exercise their shops.
    extra_crowd_weights: dict[str, float] = field(default_factory=dict)
    #: The one product-render memo every registered server shares.
    render_memo: RenderMemo = field(default_factory=RenderMemo)

    @property
    def all_shop_domains(self) -> list[str]:
        return list(self.retailers)

    def spec(self) -> WorldSpec:
        """The picklable seed that regrows an equivalent world."""
        return WorldSpec(config=self.config)

    def retailer(self, domain: str) -> Retailer:
        """The retailer registered at ``domain`` (KeyError if absent)."""
        return self.retailers[domain]

    def crowd_weights(self) -> dict[str, float]:
        """Domain -> relative probability of a crowd user checking it."""
        weights = {
            spec.domain: spec.crowd_weight for spec in NAMED_RETAILER_SPECS
            if spec.domain in self.retailers
        }
        for domain in self.long_tail:
            weights[domain] = 0.6
        weights.update(self.extra_crowd_weights)
        return weights

    def register_retailer(
        self, retailer: Retailer, *, server: Optional[RetailerServer] = None
    ) -> RetailerServer:
        """Wire a retailer (and optionally a custom server) into the world.

        The scenario layer's entry point: the server defaults to a plain
        :class:`RetailerServer` built against this world's geo-IP database
        and FX rates; adversarial scenarios pass subclasses (cloaking,
        stockouts, page corruption).  Either way the server renders
        through the world's :attr:`render_memo`.  Re-registering a domain
        replaces it.
        """
        if server is None:
            server = RetailerServer(
                retailer, geoip=self.geoip, rates=self.rates,
                seed=self.config.seed,
            )
        server.render_memo = self.render_memo
        self.retailers[retailer.domain] = retailer
        self.servers[retailer.domain] = server
        self.network.register(retailer.domain, server)
        return server


_LONG_TAIL_WORDS_A = (
    "north", "blue", "swift", "cedar", "bright", "iron", "green", "silver",
    "amber", "urban", "prime", "royal", "vivid", "metro", "alpine", "coral",
    "lunar", "rapid", "solid", "zen",
)
_LONG_TAIL_WORDS_B = (
    "market", "goods", "outlet", "boutique", "traders", "supply", "bazaar",
    "store", "emporium", "depot", "shop", "corner", "warehouse", "mart",
)
_LONG_TAIL_TLDS = (".com", ".com", ".com", ".co.uk", ".de", ".es", ".it", ".fr", ".net")
_LONG_TAIL_CATEGORIES = (
    "books", "clothing", "shoes", "electronics", "office", "department",
    "games", "baby", "general",
)


def _default_shipping(domain: str, seed: int) -> ShippingPolicy:
    """A plausible per-retailer shipping table, deterministic in the seed."""
    rng = stable_rng(seed, domain, "shipping")
    return ShippingPolicy(
        domestic=round(rng.uniform(3.0, 7.0), 2),
        international=round(rng.uniform(10.0, 24.0), 2),
        free_threshold=(
            round(rng.uniform(40.0, 120.0), 2) if rng.random() < 0.3 else None
        ),
    )


def _long_tail_domains(count: int, seed: int) -> list[str]:
    rng = stable_rng(seed, "long-tail-domains")
    names: list[str] = []
    seen = set()
    counter = 0
    while len(names) < count:
        a = rng.choice(_LONG_TAIL_WORDS_A)
        b = rng.choice(_LONG_TAIL_WORDS_B)
        tld = rng.choice(_LONG_TAIL_TLDS)
        counter += 1
        domain = f"www.{a}{b}{counter}{tld}"
        if domain in seen:
            continue
        seen.add(domain)
        names.append(domain)
    return names


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Assemble the simulated web described in the module docstring."""
    config = config or WorldConfig()
    seed = config.seed
    clock = VirtualClock()
    network = Network(clock, seed=seed, loss_rate=config.loss_rate)
    plan = IPAddressPlan()
    geoip = plan.database()
    rates = RateService(seed=seed)
    world = World(
        config=config,
        clock=clock,
        network=network,
        plan=plan,
        geoip=geoip,
        rates=rates,
        vantage_points=standard_vantage_points(plan),
        retailers={},
        servers={},
        crawled_domains=[],
    )

    named_specs = NAMED_RETAILER_SPECS if config.include_named_retailers else ()
    for spec in named_specs:
        size = max(8, int(round(spec.catalog_size * config.catalog_scale)))
        catalog = generate_catalog(
            spec.domain, spec.category, size, seed=seed, path_style=spec.path_style
        )
        if spec.extra_catalog is not None:
            extra_category, extra_size, prefix = spec.extra_catalog
            extra_size = max(6, int(round(extra_size * config.catalog_scale)))
            generate_catalog(
                spec.domain, extra_category, extra_size, seed=seed,
                path_style=spec.path_style, sku_prefix=prefix, into=catalog,
            )
        retailer = Retailer(
            domain=spec.domain,
            name=spec.name,
            category=spec.category,
            catalog=catalog,
            policy=spec.policy_factory(seed),
            template=template_for(spec.domain, seed=seed),
            trackers=trackers_for_retailer(spec.domain, seed=seed),
            localizes_currency=spec.localizes_currency,
            home_country=spec.home_country,
            supports_login=spec.supports_login,
            shipping=spec.shipping or _default_shipping(spec.domain, seed),
        )
        world.register_retailer(retailer)
        if spec.crawled:
            world.crawled_domains.append(spec.domain)

    if config.include_long_tail:
        rng = stable_rng(seed, "long-tail-config")
        for domain in _long_tail_domains(config.long_tail_domains, seed):
            category = rng.choice(_LONG_TAIL_CATEGORIES)
            catalog = generate_catalog(
                domain, category, rng.randint(6, 14), seed=seed
            )
            retailer = Retailer(
                domain=domain,
                name=domain.split(".")[1].title(),
                category=category,
                catalog=catalog,
                policy=UniformPricing(),
                template=template_for(domain, seed=seed),
                trackers=trackers_for_retailer(domain, seed=seed),
                localizes_currency=rng.random() < 0.6,
                home_country=rng.choice(("US", "GB", "DE", "ES", "IT", "FR")),
            )
            world.register_retailer(retailer)
            world.long_tail.append(domain)

    for persona in (AFFLUENT, BUDGET):
        for domain in persona.training_sites:
            network.register(
                domain, PersonaTrainingSite(domain, persona.interest_tag)
            )

    if config.scenario is not None:
        # Late import: the scenario registry depends on the ecommerce
        # layer, not the other way round.  Applying the mutation *inside*
        # build_world is what makes scenario worlds regrowable from a
        # WorldSpec in executor worker processes.
        from repro.scenarios import apply_scenario

        apply_scenario(config.scenario, world)
    return world
