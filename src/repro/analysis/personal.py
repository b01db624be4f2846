"""Personal-information experiments (§4.4, Fig. 10).

Two controlled studies, both holding location and time fixed:

* :func:`persona_experiment` -- train an affluent and a budget persona,
  check identical products with both, diff the prices.  The paper reports
  **no** differences; the simulated retailers likewise ignore persona
  cookies, and this experiment demonstrates that null result through the
  full HTTP/cookie path.

* :func:`login_experiment` -- Fig. 10: Kindle ebook prices for three
  logged-in accounts and the logged-out state.  Prices differ per product
  and per identity with no consistent logged-in premium.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.extension import UserClient
from repro.core.extraction import extract_price
from repro.core.highlight import PriceAnchor, derive_anchor
from repro.ecommerce.localization import locale_for_country
from repro.ecommerce.personas import AFFLUENT, BUDGET, Persona, login, train_persona
from repro.ecommerce.templates import selector_on_day
from repro.ecommerce.world import World
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import Selector
from repro.net.clock import SECONDS_PER_DAY
from repro.net.geoip import GeoLocation
from repro.net.transport import TransportError
from repro.net.useragent import profile_for
from repro.util import stable_rng

__all__ = [
    "PersonaComparison",
    "persona_experiment",
    "LoginStudy",
    "login_experiment",
    "derive_anchor_for_domain",
]


def derive_anchor_for_domain(world: World, domain: str) -> PriceAnchor:
    """The operator's one-time manual highlight for ``domain``.

    The operator reloads on transient network failures (same bounded
    persistence the backend's fan-out applies).  The anchor is derived on
    the page's rendered tree when the response carries one, and on a parse
    of the body otherwise; the fetch itself always happens, because its
    cookie and request-count side effects are part of every run's output.
    """
    vantage = world.vantage_points[0]
    retailer = world.retailer(domain)
    product = retailer.catalog.products[0]
    try:
        response = vantage.fetch_with_retries(
            world.network, f"http://{domain}{product.path}"
        )
    except TransportError as exc:
        raise RuntimeError(
            f"cannot fetch anchor page for {domain}: {exc}"
        ) from exc
    if not response.ok:
        raise RuntimeError(f"cannot fetch anchor page for {domain}")
    document = response.document
    if document is None:
        document = parse_html(response.body)
    selector = selector_on_day(
        retailer.template, int(world.clock.now // SECONDS_PER_DAY)
    )
    element = Selector.parse(selector).select_one(document)
    if element is None:
        raise RuntimeError(f"cannot locate price on {domain}")
    return derive_anchor(document, element)


def _fixed_location_client(world: World, name: str) -> UserClient:
    """A fresh client pinned to the paper's measurement location (Spain)."""
    return UserClient(
        name=name,
        location=GeoLocation("ES", "Spain", "Barcelona"),
        ip=world.plan.allocate("ES", "Barcelona"),
        profile=profile_for("firefox", "linux"),
    )


def _price_seen_by(
    world: World,
    client: UserClient,
    url: str,
    anchor: PriceAnchor,
    *,
    rounds: int = 1,
) -> Optional[float]:
    """The local-currency price ``client`` sees at ``url`` right now.

    With ``rounds`` > 1 the fetch is repeated and the *minimum* returned --
    the paper's defense against per-request A/B-test noise ("we repeated
    the same set of measurements multiple times").  The minimum is the
    right estimator because A/B treatments only inflate prices, so the
    smallest repeated observation is the underlying base price.
    """
    locale = locale_for_country(client.location.country_code)
    seen: list[float] = []
    for _ in range(rounds):
        response = client.fetch(world.network, url)
        if not response.ok:
            continue
        extracted = extract_price(response.body, anchor, locale_hint=locale)
        if extracted.ok and extracted.amount is not None:
            seen.append(extracted.amount)
    if not seen:
        return None
    return min(seen)


# ----------------------------------------------------------------------
# Persona study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PersonaComparison:
    """One product's price under both personas."""

    url: str
    domain: str
    affluent_price: Optional[float]
    budget_price: Optional[float]

    @property
    def differs(self) -> bool:
        if self.affluent_price is None or self.budget_price is None:
            return False
        return abs(self.affluent_price - self.budget_price) > 1e-9


def persona_experiment(
    world: World,
    *,
    domains: Optional[Sequence[str]] = None,
    products_per_domain: int = 5,
    personas: tuple[Persona, Persona] = (AFFLUENT, BUDGET),
    seed: int = 2013,
) -> list[PersonaComparison]:
    """Same location, same time, different browsing history: diff prices."""
    domains = list(domains) if domains is not None else list(world.crawled_domains)
    rng = stable_rng(seed, "persona-experiment")

    first, second = personas
    client_a = _fixed_location_client(world, f"persona-{first.name}")
    client_b = _fixed_location_client(world, f"persona-{second.name}")
    train_persona(client_a, first, world.network)
    train_persona(client_b, second, world.network)

    comparisons: list[PersonaComparison] = []
    for domain in domains:
        retailer = world.retailer(domain)
        anchor = derive_anchor_for_domain(world, domain)
        products = retailer.catalog.sample(products_per_domain, rng=rng)
        for product in products:
            url = f"http://{domain}{product.path}"
            price_a = _price_seen_by(world, client_a, url, anchor, rounds=5)
            price_b = _price_seen_by(world, client_b, url, anchor, rounds=5)
            comparisons.append(
                PersonaComparison(
                    url=url,
                    domain=domain,
                    affluent_price=price_a,
                    budget_price=price_b,
                )
            )
    return comparisons


# ----------------------------------------------------------------------
# Login study (Fig. 10)
# ----------------------------------------------------------------------
@dataclass
class LoginStudy:
    """Fig. 10's data: per-product prices per identity."""

    domain: str
    product_urls: list[str] = field(default_factory=list)
    #: identity label ("W/o login", "User A", ...) -> per-product prices.
    series: dict[str, list[Optional[float]]] = field(default_factory=dict)

    def products_with_identity_differences(self) -> int:
        """How many products priced differently for at least one identity."""
        count = 0
        for index in range(len(self.product_urls)):
            prices = {
                round(values[index], 2)
                for values in self.series.values()
                if values[index] is not None
            }
            if len(prices) > 1:
                count += 1
        return count

    def mean_price(self, identity: str) -> float:
        """The average price one identity saw across the product set."""
        values = [v for v in self.series[identity] if v is not None]
        if not values:
            raise ValueError(f"no prices for {identity}")
        return sum(values) / len(values)


def login_experiment(
    world: World,
    *,
    domain: str = "www.amazon.com",
    category: str = "ebooks",
    users: Sequence[str] = ("User A", "User B", "User C"),
    n_products: int = 40,
    seed: int = 2013,
) -> LoginStudy:
    """Fig. 10: price the same ebooks logged out and as each user.

    All measurements run from the same (fixed) location, back-to-back in
    virtual time, mirroring "our measurements are conducted at the same
    time and from the same location".
    """
    retailer = world.retailer(domain)
    if not retailer.supports_login:
        raise ValueError(f"{domain} does not support login")
    ebooks = [p for p in retailer.catalog if p.category == category]
    if not ebooks:
        raise ValueError(f"{domain} sells no {category!r}")
    rng = stable_rng(seed, "login-experiment")
    if len(ebooks) > n_products:
        ebooks = rng.sample(ebooks, n_products)

    anchor = derive_anchor_for_domain(world, domain)
    study = LoginStudy(domain=domain)
    study.product_urls = [f"http://{domain}{p.path}" for p in ebooks]

    identities: list[tuple[str, Optional[str]]] = [("W/o login", None)]
    identities += [(label, label.replace(" ", "").lower()) for label in users]

    for label, account in identities:
        client = _fixed_location_client(world, f"login-study-{label}")
        if account is not None:
            login(client, world.network, domain, account)
        prices: list[Optional[float]] = []
        for url in study.product_urls:
            prices.append(_price_seen_by(world, client, url, anchor))
        study.series[label] = prices
    return study
