"""Measurement vantage points.

A :class:`VantagePoint` is a complete simulated client: a geo-located IP
address, a browser profile, and a cookie jar.  The standard fleet built by
:func:`standard_vantage_points` matches the 14 locations of the paper's
Fig. 7:

    Belgium - Liege, Brazil - Sao Paulo, Finland - Tampere,
    Germany - Berlin, Spain (Linux,FF), Spain (Mac,Safari),
    Spain (Win,Chrome), UK - London, USA - Boston, USA - Chicago,
    USA - Lincoln, USA - Los Angeles, USA - New York, USA - Albany.

The three Spain points share a city (Barcelona) and differ only in browser
configuration, mirroring the paper's controlled browser experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.cookiejar import CookieJar
from repro.net.geoip import GeoLocation, IPAddressPlan
from repro.net.http import Headers, HttpRequest, HttpResponse
from repro.net.transport import Network, TransportError
from repro.net.urls import URL
from repro.net.useragent import BrowserProfile, profile_for

__all__ = ["VantagePoint", "standard_vantage_points", "VANTAGE_SPECS"]


@dataclass
class VantagePoint:
    """A measurement client at a fixed location with a fixed browser."""

    name: str
    location: GeoLocation
    ip: str
    profile: BrowserProfile
    jar: CookieJar = field(default_factory=CookieJar)

    def build_request(
        self,
        url: URL | str,
        *,
        referer: Optional[str] = None,
        now: float = 0.0,
    ) -> HttpRequest:
        """An HTTP GET for ``url`` carrying this point's identity."""
        if isinstance(url, str):
            url = URL.parse(url)  # memoized; bursts re-fetch the same URI
        # Fresh header map: plain adds (no duplicates to replace yet).
        headers = Headers()
        headers.add("Host", url.host)
        headers.add("User-Agent", self.profile.user_agent)
        headers.add("Accept", "text/html,application/xhtml+xml")
        headers.add("Accept-Language", self.profile.accept_language)
        cookie = self.jar.header_for(url, now=now)
        if cookie:
            headers.add("Cookie", cookie)
        if referer:
            headers.add("Referer", referer)
        return HttpRequest(
            method="GET",
            url=url,
            headers=headers,
            client_ip=self.ip,
            timestamp=now,
        )

    def fetch(
        self,
        network: Network,
        url: URL | str,
        *,
        referer: Optional[str] = None,
    ) -> HttpResponse:
        """Fetch ``url`` through ``network``, updating the cookie jar."""
        request = self.build_request(url, referer=referer, now=network.clock.now)
        response = network.fetch(request)
        target = response.url or (URL.parse(url) if isinstance(url, str) else url)
        self.jar.update_from_response(target, response, now=network.clock.now)
        return response

    def fetch_with_retries(
        self,
        network: Network,
        url: URL | str,
        *,
        referer: Optional[str] = None,
        attempts: int = 3,
    ) -> HttpResponse:
        """Fetch with bounded persistence against transient failures.

        The one retry policy shared by every "operator reloads the page"
        flow (crawl-plan preparation, anchor derivation); re-raises the
        last :class:`TransportError` when every attempt is lost.  Each
        attempt sends at a later virtual instant (a timeout burns time),
        so its loss/latency draws are fresh.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        failure: Optional[TransportError] = None
        for _ in range(attempts):
            try:
                return self.fetch(network, url, referer=referer)
            except TransportError as exc:
                failure = exc
        assert failure is not None
        raise failure

    def __str__(self) -> str:
        return self.name


#: (name, country_code, city, browser, os) for the 14 standard points.
VANTAGE_SPECS: tuple[tuple[str, str, str, str, str], ...] = (
    ("Belgium - Liege", "BE", "Liege", "firefox", "linux"),
    ("Brazil - Sao Paulo", "BR", "Sao Paulo", "firefox", "linux"),
    ("Finland - Tampere", "FI", "Tampere", "firefox", "linux"),
    ("Germany - Berlin", "DE", "Berlin", "firefox", "linux"),
    ("Spain (Linux,FF)", "ES", "Barcelona", "firefox", "linux"),
    ("Spain (Mac,Safari)", "ES", "Barcelona", "safari", "macos"),
    ("Spain (Win,Chrome)", "ES", "Barcelona", "chrome", "windows"),
    ("UK - London", "GB", "London", "firefox", "linux"),
    ("USA - Boston", "US", "Boston", "firefox", "linux"),
    ("USA - Chicago", "US", "Chicago", "firefox", "linux"),
    ("USA - Lincoln", "US", "Lincoln", "firefox", "linux"),
    ("USA - Los Angeles", "US", "Los Angeles", "firefox", "linux"),
    ("USA - New York", "US", "New York", "firefox", "linux"),
    ("USA - Albany", "US", "Albany", "firefox", "linux"),
)


def standard_vantage_points(plan: IPAddressPlan) -> list[VantagePoint]:
    """Build the paper's 14-point measurement fleet against ``plan``."""
    points = []
    for name, code, city, browser, os_name in VANTAGE_SPECS:
        location = GeoLocation(code, _country_name(code), city)
        points.append(
            VantagePoint(
                name=name,
                location=location,
                ip=plan.allocate(code, city),
                profile=profile_for(browser, os_name),
            )
        )
    return points


def _country_name(code: str) -> str:
    from repro.net.geoip import COUNTRY_NAMES

    return COUNTRY_NAMES[code]
