"""The $heriff browser extension, simulated.

§3.1 steps (i)-(ii): the extension runs inside the *user's* browser.  The
user highlights a price; the extension derives an anchor for the
highlighted node and submits (URI, anchor) to the backend with one click.

In the simulation the user's visual search is a callable
``find_price(document) -> Element`` -- the crowd simulation passes the
retailer template's ground-truth price location (a human reading the page),
and robustness tests pass deliberately wrong or fuzzy finders.

:class:`UserClient` is the user's own browser context: their location, IP,
browser profile and cookie jar -- precisely the things the paper says the
system *cannot* control for on the originating side (§3.1, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.backend import CheckRequest, SheriffBackend
from repro.core.extraction import extract_price_from_document
from repro.core.highlight import AnchorError, PriceAnchor, derive_anchor
from repro.core.reports import PriceCheckReport
from repro.ecommerce.localization import locale_for_country
from repro.htmlmodel.dom import Document, Element
from repro.htmlmodel.parser import parse_html_cached
from repro.net.transport import Network, TransportError
from repro.net.vantage import VantagePoint

__all__ = ["SheriffExtension", "UserClient", "CheckOutcome", "PreparedCheck"]


class UserClient(VantagePoint):
    """A crowd user's browser: same mechanics as a vantage point.

    The distinction is semantic -- vantage points are the controlled
    measurement fleet, user clients are whoever installed the extension.
    """


@dataclass
class CheckOutcome:
    """What one extension-triggered check produced.

    ``user_amount``/``user_currency`` is what the *user themselves* saw --
    the crowdsourced dataset keeps it alongside the fleet's observations.
    ``report`` is ``None`` when the flow failed before reaching the
    backend (page unreachable, nothing highlightable).
    """

    url: str
    user: str
    report: Optional[PriceCheckReport] = None
    user_amount: Optional[float] = None
    user_currency: Optional[str] = None
    failure: str = ""

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass
class PreparedCheck:
    """The client-side half of a check, ready for backend submission.

    ``outcome`` already carries what the user saw (or why the flow
    failed); ``request`` is the submission for the backend fan-out, or
    ``None`` when the flow failed before reaching it; ``start_ts`` is the
    virtual instant of the click, which the fan-out must run at.  The
    crowd campaign collects prepared checks and submits them as one
    scheduled batch (shardable across workers); ``outcome.report`` is
    filled in when the matching report comes back.
    """

    outcome: CheckOutcome
    request: Optional[CheckRequest] = None
    start_ts: float = 0.0


class SheriffExtension:
    """Client-side orchestration: fetch, highlight, anchor, submit."""

    def __init__(self, backend: SheriffBackend, network: Network) -> None:
        self.backend = backend
        self.network = network

    def prepare_check(
        self,
        client: UserClient | VantagePoint,
        url: str,
        find_price: Callable[[Document], Optional[Element]],
        *,
        origin: Optional[str] = None,
        referer: Optional[str] = None,
    ) -> PreparedCheck:
        """Run the client-side §3.1 flow: fetch, highlight, derive anchor.

        Everything that happens in the *user's* browser happens here --
        page load (which advances the world clock), visual price search,
        anchor derivation, and recording what the user themselves saw.
        The backend fan-out is *not* run; the returned
        :class:`PreparedCheck` carries the request (if the flow got that
        far) and the click instant for a later scheduled submission.
        Never raises for per-check failures, because a crowd campaign must
        keep going when one check goes wrong.
        """
        who = origin or client.name
        outcome = CheckOutcome(url=url, user=who)
        prepared = PreparedCheck(outcome=outcome)
        try:
            response = client.fetch(self.network, url, referer=referer)
        except TransportError as exc:
            outcome.failure = f"user fetch failed: {exc}"
            return prepared
        if not response.ok:
            outcome.failure = f"user fetch failed: http {int(response.status)}"
            return prepared

        # The structured-fetch channel carries the server's rendered tree;
        # string-only responses go through the shared parse cache.  Both
        # are read-only here (highlighting and anchor derivation only read).
        document = response.document
        if document is None:
            document = parse_html_cached(response.body)
        element = find_price(document)
        if element is None:
            outcome.failure = "user could not locate a price on the page"
            return prepared
        try:
            anchor = derive_anchor(document, element)
        except AnchorError as exc:
            outcome.failure = f"anchor derivation failed: {exc}"
            return prepared

        # Record what the user themselves saw, in their own locale.
        locale = locale_for_country(client.location.country_code)
        own = extract_price_from_document(document, anchor, locale_hint=locale)
        if own.ok:
            outcome.user_amount = own.amount
            outcome.user_currency = own.currency or locale.currency.code

        prepared.request = CheckRequest(url=url, anchor=anchor, origin=who)
        prepared.start_ts = self.network.clock.now
        return prepared

    def check_product(
        self,
        client: UserClient | VantagePoint,
        url: str,
        find_price: Callable[[Document], Optional[Element]],
        *,
        origin: Optional[str] = None,
        referer: Optional[str] = None,
    ) -> CheckOutcome:
        """Run the full §3.1 user flow for one product page.

        ``find_price`` stands in for the user's eyes.  The document it
        receives may be a *shared* tree (the process-wide parse cache) or
        a page filled from a shape whose anchor resolutions every fill
        reuses, so it must only read -- never detach, re-parent, or edit
        nodes; mutations would poison every later check that parses the
        identical page or fills the same shape.  ``referer`` is how
        the *user* arrived at the page; the backend fan-out deliberately
        does not reproduce it (it only receives the bare URI) -- which is
        one of the things the system "cannot control for" per §3.1.
        Never raises for per-check failures, because a crowd campaign must
        keep going when one check goes wrong.

        Equivalent to :meth:`prepare_check` plus an immediate scheduled
        submission of the prepared request.
        """
        prepared = self.prepare_check(
            client, url, find_price, origin=origin, referer=referer
        )
        if prepared.request is not None:
            prepared.outcome.report = self.backend.check_batch(
                [prepared.request], start_times=[prepared.start_ts]
            )[0]
        return prepared.outcome
