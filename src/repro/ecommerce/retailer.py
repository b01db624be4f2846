"""Retailer web servers.

A :class:`Retailer` is configuration (domain, catalog, pricing policy,
template, localization behaviour); a :class:`RetailerServer` wraps it into
a :class:`repro.net.transport.Server` that renders product pages per
request.  The request path a server implements:

1. geo-locate the client IP against the shared geo-IP database (the exact
   mechanism the paper credits for localized prices),
2. choose display locale/currency: geo-localizing retailers use the
   visitor's country; others always use their home locale,
3. build a :class:`~repro.ecommerce.pricing.PricingContext` from the
   request (country, city, day, login cookie, session cookie, nonce),
4. ask the pricing policy for the USD price, convert to the display
   currency at the day's mid market rate, round like a shop does,
5. render the retailer's template -- with localized decoy prices on the
   recommended products -- and serialize to HTML.

Routes: ``/`` (catalog index), product paths, ``/login`` (toy login that
sets an auth cookie), anything else 404.

Product renders go through a :class:`RenderMemo`.  A world owns one and
every server it registers shares it, so the memory the memo holds is
bounded per world, not per retailer.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.ecommerce.catalog import Catalog, Product
from repro.ecommerce.checkout import ShippingPolicy, vat_rate
from repro.ecommerce.localization import Locale, locale_for_country
from repro.ecommerce.pricing import (
    CAPTURABLE_SIGNALS,
    PricingContext,
    PricingPolicy,
    SignalProbe,
    signals_read,
)
from repro.ecommerce.templates import (
    PageTemplate,
    ProductView,
    render_checkout_page,
    render_index_page,
)
from repro.ecommerce.thirdparty import ThirdParty
from repro.fx.rates import RateService
from repro.htmlmodel.dom import Document
from repro.htmlmodel.serialize import to_html
from repro.net.clock import SECONDS_PER_DAY
from repro.net.geoip import GeoIPDatabase, GeoLocation
from repro.net.http import HttpRequest, HttpResponse, HttpStatus, SetCookie
from repro.util import stable_hash, stable_rng

__all__ = [
    "Retailer",
    "RetailerServer",
    "RenderMemo",
    "PricingSignature",
    "SignalProfile",
]

_INDEX_LISTING_CAP = 250


@dataclass(frozen=True)
class Retailer:
    """Static configuration of one shop."""

    domain: str
    name: str
    category: str
    catalog: Catalog
    policy: PricingPolicy
    template: PageTemplate
    trackers: tuple[ThirdParty, ...] = ()
    #: Geo-localize display currency?  (Most of the paper's retailers do;
    #: a few always price in their home currency.)
    localizes_currency: bool = True
    #: Locale used when not geo-localizing (and for unknown client IPs).
    home_country: str = "US"
    #: Supports login accounts (the amazon.com Kindle experiment).
    supports_login: bool = False
    #: Shipping table quoted at checkout (displayed prices exclude it,
    #: per the paper's §2.2 observation).
    shipping: ShippingPolicy = field(default_factory=ShippingPolicy)

    def __post_init__(self) -> None:
        if not self.domain or "/" in self.domain:
            raise ValueError(f"bad domain {self.domain!r}")


@dataclass(frozen=True)
class SignalProfile:
    """How a server's responses may be keyed for the burst memo.

    ``signals`` is the projection set a request signature captures;
    ``declared`` is True when it came from the policy's own ``signals()``
    declaration (verified at store time against ``signals`` itself) and
    False when the policy is undeclared and the memo records reads against
    the full :data:`~repro.ecommerce.pricing.CAPTURABLE_SIGNALS` ceiling.
    """

    signals: frozenset[str]
    declared: bool

    @property
    def verify_signals(self) -> frozenset[str]:
        """The set recorded reads must stay inside for an entry to cache.

        ``day_index`` is always allowed: the signature keys on the
        server-side request day unconditionally (structural seed and FX
        display rates read it even when the policy does not).
        """
        if not self.declared:
            return CAPTURABLE_SIGNALS
        return self.signals | {"day_index"}


@dataclass(frozen=True)
class PricingSignature:
    """The captured pricing/render inputs of one fan-out request.

    Composed by :meth:`RetailerServer.pricing_signature`: ``day_index`` is
    the server-side request day (structural seed, FX display rates, and
    drift all key on it), ``values`` the (signal, value) pairs of the
    profile's projection set.  Two requests with equal signatures -- same
    URL, same day, same captured signals -- receive byte-identical
    product pages from a signature-pure retailer.
    """

    day_index: int
    values: tuple[tuple[str, Union[str, int]], ...]


#: A rendered product page: the tree and its serialized HTML.
_Page = tuple[Document, str]


class RenderMemo:
    """Rendered product pages, shared by every server of one world.

    Templates are pure functions of the view, so two requests that price
    identically get byte-identical pages and only the first pays the
    render.  Keys start with a token unique to the rendering server,
    followed by every view field that varies between its requests, so a
    re-registered domain can never be served the replaced server's pages.
    Cached trees and strings are shared and read-only for every consumer.

    The memo is scoped to one day.  Every key embeds its day (through
    the structural seed), so a page of another day is never served
    again.  Storing a page for a new day drops the old day's LRU pages
    and ghost keys, which would otherwise fill the LRU with pages no key
    can reach.  The old day's FIFO pages leave as new pages push them
    out, one per store (their keys pass through the ghost list until the
    next day): emptying the FIFO as well made the paper campaign run 17
    full garbage collections instead of 4, because CPython's
    young-generation count stops at zero, so trees freed in bulk do not
    offset the allocations that refill the FIFO.

    Within the day, replacement is 2Q (Johnson & Shasha, VLDB 1994):

    * a new key enters a FIFO of :attr:`FIFO_ENTRIES` pages, which absorbs
      one fan-out's correlated references (at most 15 distinct views per
      click: 14 vantages plus the user) without promoting them;
    * a key leaving that FIFO is remembered, without its page, in a ghost
      FIFO of :attr:`GHOST_KEYS` keys;
    * a miss on a remembered key enters an LRU of :attr:`LRU_ENTRIES`
      pages -- the pages that really recur across bursts of the day.

    At most ``FIFO_ENTRIES + LRU_ENTRIES`` pages are held at once.
    """

    FIFO_ENTRIES = 32
    GHOST_KEYS = 1024
    LRU_ENTRIES = 512

    def __init__(self) -> None:
        self._day: Optional[int] = None
        self._fifo: dict[tuple, _Page] = {}
        self._ghosts: dict[tuple, None] = {}
        self._lru: "OrderedDict[tuple, _Page]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._fifo) + len(self._lru)

    def __iter__(self) -> Iterator[tuple]:
        """The keys of every page held, FIFO first."""
        yield from self._fifo
        yield from self._lru

    def get(self, key: tuple) -> Optional[_Page]:
        """The page stored under ``key``, or ``None`` on a miss."""
        page = self._lru.get(key)
        if page is not None:
            self._lru.move_to_end(key)
            return page
        return self._fifo.get(key)

    def put(self, key: tuple, page: _Page, day: int) -> None:
        """Store the page just rendered for a missed ``key`` on ``day``."""
        if day != self._day:
            self._day = day
            self._ghosts.clear()
            self._lru.clear()
        if key in self._ghosts:
            del self._ghosts[key]
            lru = self._lru
            lru[key] = page
            if len(lru) > self.LRU_ENTRIES:
                lru.popitem(last=False)
            return
        fifo = self._fifo
        fifo[key] = page
        if len(fifo) > self.FIFO_ENTRIES:
            oldest = next(iter(fifo))
            del fifo[oldest]
            ghosts = self._ghosts
            ghosts[oldest] = None
            if len(ghosts) > self.GHOST_KEYS:
                del ghosts[next(iter(ghosts))]


#: Sentinel distinguishing "not computed yet" from "not memoizable".
_UNRESOLVED = object()


class RetailerServer:
    """HTTP-facing wrapper that prices and renders per request."""

    def __init__(
        self,
        retailer: Retailer,
        *,
        geoip: GeoIPDatabase,
        rates: RateService,
        seed: int = 0,
    ) -> None:
        self.retailer = retailer
        self._geoip = geoip
        self._rates = rates
        self._seed = seed
        self._request_count = 0
        #: sku -> decoy picks; the pick RNG is keyed only by (seed, domain,
        #: sku), so the selection is request-independent and cacheable.
        self._reco_picks: dict[str, list[Product]] = {}
        #: Where product renders are memoized.  A server starts with a
        #: private memo; :meth:`World.register_retailer
        #: <repro.ecommerce.world.World.register_retailer>` points it at
        #: the world's shared one.
        self.render_memo = RenderMemo()
        # This server's identity in render-memo keys: unique to the server,
        # and not the server itself, so the shared memo holds no reference
        # back to its servers and a dropped world is freed by reference
        # counting.
        self._memo_token = object()
        self._render_hits = 0
        self._render_misses = 0
        # Burst-memo support: lazily resolved signature profile and, while
        # a live fan-out is being recorded, the set collecting which
        # pricing signals the policy actually read.
        self._signature_profile: object = _UNRESOLVED
        self._signal_reads: Optional[set[str]] = None

    def render_cache_stats(self) -> dict[str, int]:
        """This server's render-memo counters (for performance reports).

        Hits and misses count this server's product renders; entries are
        the pages of this server the (shared) memo holds right now.
        """
        return {
            "render_hits": self._render_hits,
            "render_misses": self._render_misses,
            "render_entries": sum(
                1 for key in self.render_memo if key[0] is self._memo_token
            ),
        }

    # ------------------------------------------------------------------
    # Burst-memo support (the signature contract, docs/PERFORMANCE.md)
    # ------------------------------------------------------------------
    def signature_profile(self) -> Optional[SignalProfile]:
        """How this server's product pages may be memo-keyed, or ``None``.

        ``None`` means the responses read state a burst signature cannot
        capture, so every check against this retailer must run the live
        fan-out:

        * the policy declares a non-capturable signal (identity, nonce,
          referer, sub-day seconds, login state), or
        * the retailer supports login -- the *server itself* keys the
          rendered page on the auth cookie, independent of the policy.

        An undeclared policy gets the benefit of the doubt: the profile
        projects the full capturable set and the memo verifies recorded
        reads before caching anything (detected, not assumed).
        """
        cached = self._signature_profile
        if cached is _UNRESOLVED:
            if self.retailer.supports_login:
                resolved: Optional[SignalProfile] = None
            else:
                declared = signals_read(self.retailer.policy)
                if declared is None:
                    resolved = SignalProfile(
                        signals=CAPTURABLE_SIGNALS, declared=False
                    )
                elif declared <= CAPTURABLE_SIGNALS:
                    resolved = SignalProfile(signals=declared, declared=True)
                else:
                    resolved = None
            self._signature_profile = resolved
            return resolved
        return cached  # type: ignore[return-value]

    def pricing_signature(
        self, *, client_ip: str, user_agent: str, day_index: int
    ) -> Optional[PricingSignature]:
        """Compose the request signature a fan-out from ``client_ip`` gets.

        Pure function of (client IP, browser, virtual day) and this
        server's immutable configuration -- no session state, no counters
        -- which is exactly what makes it a sound memo key component.
        Returns ``None`` for servers without a signature profile.
        """
        profile = self.signature_profile()
        if profile is None:
            return None
        location = self._lookup_location(client_ip)
        values: list[tuple[str, Union[str, int]]] = []
        for name in sorted(profile.signals):
            if name == "country_code":
                values.append((name, location.country_code))
            elif name == "city":
                values.append((name, location.city))
            elif name == "day_index":
                values.append((name, day_index))
            elif name == "browser":
                values.append((name, user_agent))
        return PricingSignature(day_index=day_index, values=tuple(values))

    @contextmanager
    def record_signal_reads(self) -> Iterator[set[str]]:
        """Record which pricing signals requests read while active.

        The live fan-out path wraps its burst in this context; every
        ``policy.price`` call then goes through a
        :class:`~repro.ecommerce.pricing.SignalProbe` and the yielded set
        accumulates the fields actually read -- the evidence the burst
        memo checks a declaration against before caching.
        """
        previous = self._signal_reads
        reads: set[str] = set()
        self._signal_reads = reads
        try:
            yield reads
        finally:
            self._signal_reads = previous

    def _pricing_view(self, ctx: PricingContext) -> PricingContext:
        """The context handed to the policy (probed while recording)."""
        reads = self._signal_reads
        if reads is None:
            return ctx
        if ctx.logged_in:
            # The page itself (greeting banner) keys on the login cookie,
            # not just the policy -- surface it as an identity read.
            reads.add("identity")
            reads.add("logged_in")
        return SignalProbe(ctx, reads)  # type: ignore[return-value]

    @property
    def request_count(self) -> int:
        """Requests served so far.

        Part of the pricing nonce, so it is *session state*: a shard
        worker must start from the coordinator's count (and hand its final
        count back) for per-request A/B draws to reproduce bit-for-bit.
        """
        return self._request_count

    @request_count.setter
    def request_count(self, value: int) -> None:
        if value < 0:
            raise ValueError("request_count cannot be negative")
        self._request_count = value

    # ------------------------------------------------------------------
    # Session-state SPI (the shard/merge seam, repro.exec)
    # ------------------------------------------------------------------
    def session_state(self) -> dict:
        """This server's picklable per-shard session state.

        Everything mutable that a request *response* may depend on must be
        representable here: a shard worker restores the coordinator's
        state before its batch and hands its own back afterwards, so the
        pair of calls must round-trip every byte-relevant counter.  The
        base server's only such state is the request counter (part of the
        pricing nonce); stateful subclasses -- the scenario layer's
        cloaking server tracks per-IP request rates -- extend the dict.
        """
        return {"request_count": self._request_count}

    def restore_session_state(self, state: dict) -> None:
        """Install session state captured by :meth:`session_state`."""
        self.request_count = state["request_count"]

    # ------------------------------------------------------------------
    def handle(self, request: HttpRequest) -> HttpResponse:
        """Route one request."""
        self._request_count += 1
        path = request.url.path
        if path == "/":
            return self._index(request)
        if path == "/login":
            return self._login(request)
        if path.startswith("/checkout/"):
            return self._checkout(request, path.removeprefix("/checkout/"))
        product = self.retailer.catalog.by_path(path)
        if product is not None:
            return self._product_page(request, product)
        return HttpResponse.not_found(f"no such page on {self.retailer.domain}")

    # ------------------------------------------------------------------
    # Localization plumbing
    # ------------------------------------------------------------------
    def _client_location(self, request: HttpRequest) -> GeoLocation:
        return self._lookup_location(request.client_ip)

    def _lookup_location(self, client_ip: str) -> GeoLocation:
        location = self._geoip.lookup(client_ip)
        if location is None:
            return GeoLocation(
                self.retailer.home_country, self.retailer.home_country, ""
            )
        return location

    def _display_locale(self, location: GeoLocation) -> Locale:
        if self.retailer.localizes_currency:
            return locale_for_country(location.country_code)
        return locale_for_country(self.retailer.home_country)

    def _display_amount(self, usd: float, locale: Locale, day_index: int) -> float:
        """Convert a USD price into the display currency at the day's mid."""
        code = locale.currency.code
        if code == "USD":
            return round(usd, 2)
        rate = self._rates.rate(code, day_index)
        local = usd / rate.mid
        decimals = 0 if code == "JPY" else 2
        return round(local, decimals)

    # ------------------------------------------------------------------
    # Pages
    # ------------------------------------------------------------------
    def _pricing_context(
        self, request: HttpRequest, location: GeoLocation
    ) -> PricingContext:
        cookies = request.cookies
        user = cookies.get("auth") if self.retailer.supports_login else None
        session = cookies.get("session")
        identity = user if user else (f"anon:{session}" if session else None)
        return PricingContext(
            country_code=location.country_code,
            city=location.city,
            day_index=int(request.timestamp // SECONDS_PER_DAY),
            seconds=request.timestamp,
            identity=identity,
            logged_in=user is not None,
            referer=request.referer,
            browser=request.user_agent,
            nonce=stable_hash(
                self._seed, self.retailer.domain, request.client_ip,
                request.timestamp, self._request_count,
            ),
        )

    def _product_page(self, request: HttpRequest, product: Product) -> HttpResponse:
        location = self._client_location(request)
        locale = self._display_locale(location)
        ctx = self._pricing_context(request, location)
        pricing_ctx = self._pricing_view(ctx)

        usd = self.retailer.policy.price(product, pricing_ctx)
        amount = self._display_amount(usd, locale, ctx.day_index)
        decimals = 0 if locale.currency.code == "JPY" else 2
        price_text = locale.format_price(amount, decimals=decimals)

        recommended = self._recommended(product, pricing_ctx, locale)
        structural_seed = stable_hash(
            self._seed, self.retailer.domain, product.sku, ctx.day_index
        )
        logged_in_user = ctx.identity if ctx.logged_in else None

        # The render (and its serialization) is memoized on this server
        # plus every view field that varies between its requests.
        # Promo-free retailers serve byte-identical pages to a whole
        # fan-out burst; only the first request pays the render.
        cache_key = (
            self._memo_token,
            product.sku,
            price_text,
            tuple((pick.sku, text) for pick, text in recommended),
            locale,
            structural_seed,
            logged_in_user,
        )
        memo = self.render_memo
        cached = memo.get(cache_key)
        if cached is not None:
            self._render_hits += 1
            tree, html = cached
        else:
            self._render_misses += 1
            view = ProductView(
                retailer_name=self.retailer.name,
                domain=self.retailer.domain,
                product=product,
                price_text=price_text,
                locale=locale,
                recommended=recommended,
                trackers=self.retailer.trackers,
                structural_seed=structural_seed,
                logged_in_user=logged_in_user,
                day_index=ctx.day_index,
            )
            # Render once; serialize for the wire (the archive stays
            # byte-faithful) and keep the tree so in-process consumers can
            # skip re-parsing (the structured-fetch channel).
            tree = self.retailer.template.render(view)
            html = to_html(tree)
            memo.put(cache_key, (tree, html), ctx.day_index)
        response = HttpResponse.html(html, document=tree)
        if "session" not in request.cookies:
            session_id = f"s{stable_hash(self._seed, request.client_ip, request.timestamp) % 10**12}"
            response.headers.add(
                "Set-Cookie", SetCookie("session", session_id).to_header()
            )
        return response

    def _recommended(
        self, product: Product, ctx: PricingContext, locale: Locale
    ) -> list[tuple[Product, str]]:
        """4 decoy products with localized prices (extraction chaff)."""
        catalog = self.retailer.catalog
        if len(catalog) <= 1:
            return []
        picks = self._reco_picks.get(product.sku)
        if picks is None:
            rng = stable_rng(self._seed, self.retailer.domain, product.sku, "reco")
            pool = [p for p in catalog if p.sku != product.sku]
            picks = pool if len(pool) <= 4 else rng.sample(pool, 4)
            self._reco_picks[product.sku] = picks
        out = []
        decimals = 0 if locale.currency.code == "JPY" else 2
        for pick in picks:
            usd = self.retailer.policy.price(pick, ctx)
            amount = self._display_amount(usd, locale, ctx.day_index)
            out.append((pick, locale.format_price(amount, decimals=decimals)))
        return out

    def _index(self, request: HttpRequest) -> HttpResponse:
        location = self._client_location(request)
        locale = self._display_locale(location)
        products = self.retailer.catalog.products[:_INDEX_LISTING_CAP]
        tree = render_index_page(
            self.retailer.name, self.retailer.domain, products, locale=locale
        )
        return HttpResponse.html(to_html(tree), document=tree)

    def _checkout(self, request: HttpRequest, sku: str) -> HttpResponse:
        """The itemized quote: displayed price + shipping + VAT."""
        product = self.retailer.catalog.by_sku(sku)
        if product is None:
            return HttpResponse.not_found(f"unknown item {sku!r}")
        location = self._client_location(request)
        locale = self._display_locale(location)
        ctx = self._pricing_context(request, location)

        item_usd = self.retailer.policy.price(product, self._pricing_view(ctx))
        shipping_usd = self.retailer.shipping.cost(
            location.country_code, self.retailer.home_country, item_usd
        )
        tax_usd = item_usd * vat_rate(
            self.retailer.home_country, location.country_code
        )

        decimals = 0 if locale.currency.code == "JPY" else 2
        day = ctx.day_index

        def render_amount(usd: float) -> str:
            return locale.format_price(
                self._display_amount(usd, locale, day), decimals=decimals
            )

        tree = render_checkout_page(
            self.retailer.name,
            product,
            item_text=render_amount(item_usd),
            shipping_text=render_amount(shipping_usd),
            tax_text=render_amount(tax_usd),
            total_text=render_amount(item_usd + shipping_usd + tax_usd),
            locale=locale,
        )
        return HttpResponse.html(to_html(tree), document=tree)

    def _login(self, request: HttpRequest) -> HttpResponse:
        """Toy login: ``GET /login?user=alice`` sets the auth cookie."""
        if not self.retailer.supports_login:
            return HttpResponse.not_found("this shop has no accounts")
        user = request.url.query_param("user")
        if not user:
            return HttpResponse.html(
                "<html><body><form action='/login'>"
                "<input name='user'><input type='submit'></form></body></html>"
            )
        response = HttpResponse.redirect("/")
        response.headers.add("Set-Cookie", SetCookie("auth", user).to_header())
        return response
