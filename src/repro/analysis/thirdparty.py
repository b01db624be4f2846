"""Third-party presence census over archived pages (§4.4).

"We investigate the frequency of third parties that are present on the
retailers we study."  The census scans the page archive -- the actual HTML
$heriff stored -- for third-party script and widget references, so the
percentages are a measurement of the simulated web rather than a read-out
of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.store import PageStore
from repro.ecommerce.thirdparty import TRACKER_CENSUS
from repro.htmlmodel.parser import parse_html
from repro.net.urls import URL, URLError

__all__ = ["TrackerPresence", "tracker_presence", "trackers_on_page"]


def trackers_on_page(html: str) -> set[str]:
    """Third-party domains referenced by scripts/widgets on one page."""
    document = parse_html(html)
    found: set[str] = set()
    for element in document.iter_elements():
        candidate: Optional[str] = None
        if element.tag == "script":
            candidate = element.get("src")
        elif element.tag in ("div", "iframe") and "widget" in element.classes:
            candidate = element.get("data-src") or element.get("src")
        if not candidate:
            continue
        host = _host_of(candidate)
        if host:
            found.add(host)
    return found


def _host_of(reference: str) -> Optional[str]:
    if reference.startswith(("http://", "https://")):
        try:
            return URL.parse(reference).host
        except URLError:
            return None
    # Bare hosts (widget data-src attributes).
    if "/" not in reference and "." in reference:
        return reference.lower()
    return None


@dataclass(frozen=True)
class TrackerPresence:
    """The census result."""

    n_domains: int
    #: tracker display name -> fraction of surveyed domains embedding it.
    presence: dict[str, float]
    #: surveyed retailer domain -> tracker display names found there.
    per_domain: dict[str, tuple[str, ...]]

    def fraction(self, tracker_name: str) -> float:
        """Measured presence of one tracker (0.0 when never seen)."""
        return self.presence.get(tracker_name, 0.0)


def tracker_presence(
    store: PageStore, *, domains: Optional[Sequence[str]] = None
) -> TrackerPresence:
    """Scan one archived page per retailer domain and census trackers."""
    surveyed = list(domains) if domains is not None else store.domains()
    tracker_hosts = {t.domain: t.name for t in TRACKER_CENSUS}
    per_domain: dict[str, tuple[str, ...]] = {}
    counts: dict[str, int] = {t.name: 0 for t in TRACKER_CENSUS}

    scanned = 0
    for domain in surveyed:
        pages = store.pages_for_domain(domain)
        if not pages:
            continue
        scanned += 1
        hosts = trackers_on_page(pages[0].html)
        names = tuple(
            sorted({tracker_hosts[h] for h in hosts if h in tracker_hosts})
        )
        per_domain[domain] = names
        for name in names:
            counts[name] += 1

    presence = {
        name: (count / scanned if scanned else 0.0)
        for name, count in counts.items()
    }
    return TrackerPresence(
        n_domains=scanned, presence=presence, per_domain=per_domain
    )
