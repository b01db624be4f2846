"""The page archive: "(vi) We store the pages for analysis in a database."

The archive is two things.  A keyed blake2b *hash chain* folds every
fetch -- its identifying fields and full HTML, in archive order -- so
two stores that saw the same fetch stream end with the same chain.
The *kept pages* are the first ``html_per_domain`` fetches of each
domain, bodies included: the third-party census (§4.4) reads one page
per retailer, while a paper-scale crawl would otherwise hold ~200K pages
in memory.  A fetch past its domain's cap moves the chain and leaves
nothing else behind, so the store holds at most ``html_per_domain``
pages per domain however long a run lasts.

Kept bodies are deduplicated by content: a promo-free retailer renders
byte-identical pages to every vantage point of a burst, so the store
interns equal strings and all duplicate pages share one object;
``page.html`` is always the full text of what was fetched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

__all__ = ["ArchivedPage", "PageStore"]

#: Initial value of the archive hash chain (no pages archived yet).
_CHAIN_SEED = b"\x00" * 16


@dataclass(frozen=True)
class ArchivedPage:
    """One archived fetch whose body the store kept."""

    check_id: str
    url: str
    domain: str
    vantage: str
    timestamp: float
    html: str


class PageStore:
    """In-memory page database: the archive chain plus capped kept pages."""

    def __init__(self, *, html_per_domain: int = 30) -> None:
        if html_per_domain < 0:
            raise ValueError("html_per_domain must be >= 0")
        self.html_per_domain = html_per_domain
        # Kept pages by domain, each list in archive order.
        self._pages: dict[str, list[ArchivedPage]] = {}
        # Content interning pool: maps an HTML string to its first-seen
        # instance, so equal bodies are stored once (str is immutable).
        self._interned: dict[str, str] = {}
        self._dedup_hits = 0
        self._archive_chain = _CHAIN_SEED

    # ------------------------------------------------------------------
    def archive(
        self,
        *,
        check_id: str,
        url: str,
        domain: str,
        vantage: str,
        timestamp: float,
        html: str,
    ) -> None:
        """Fold one fetch into the chain; keep it if under the domain cap.

        A kept body is interned: when an identical body was kept before,
        the new page references the existing string instead of holding a
        redundant copy (most bodies are byte-identical across vantage
        points).
        """
        digest = hashlib.blake2b(
            "\x1f".join(
                (check_id, url, domain, vantage, repr(timestamp), html)
            ).encode("utf-8"),
            digest_size=16,
            key=self._archive_chain,
        )
        self._archive_chain = digest.digest()
        if len(self._pages.get(domain, ())) >= self.html_per_domain:
            return
        interned = self._interned.get(html)
        if interned is not None:
            self._dedup_hits += 1
            html = interned
        else:
            self._interned[html] = html
        self._pages.setdefault(domain, []).append(ArchivedPage(
            check_id=check_id,
            url=url,
            domain=domain,
            vantage=vantage,
            timestamp=timestamp,
            html=html,
        ))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(pages) for pages in self._pages.values())

    def __iter__(self) -> Iterator[ArchivedPage]:
        """Kept pages, domain by domain (first archived first), each
        domain's in archive order."""
        for pages in self._pages.values():
            yield from pages

    def pages_for_domain(self, domain: str) -> list[ArchivedPage]:
        """The kept pages of one domain, in archive order."""
        return list(self._pages.get(domain, ()))

    def domains(self) -> list[str]:
        """Every domain with at least one kept page, sorted."""
        return sorted(self._pages)

    def retained_html_count(self) -> int:
        """How many pages the store keeps (``len(self)``)."""
        return len(self)

    def dedup_stats(self) -> dict[str, int]:
        """Archive dedup counters (for performance reports)."""
        return {
            "store_unique_bodies": len(self._interned),
            "store_dedup_hits": self._dedup_hits,
        }

    # ------------------------------------------------------------------
    @property
    def archive_chain(self) -> str:
        """Hex digest of the rolling hash chain over every archived fetch.

        Each :meth:`archive` call folds the page's identifying fields and
        full HTML into a keyed blake2b chain.  Two stores that processed
        the same archive *stream* -- whatever their HTML retention caps --
        end with equal chains, which is what checkpoint resume asserts
        instead of comparing archived pages byte by byte.
        """
        return self._archive_chain.hex()

    def restore_archive_chain(self, chain: str) -> None:
        """Reset the chain cursor to a previously captured value.

        Used on checkpoint resume: the store starts empty (it refills as
        the resumed run archives pages) but the chain continues from
        where the interrupted run committed, so the final chain matches
        an uninterrupted run's.
        """
        raw = bytes.fromhex(chain)
        if len(raw) != len(_CHAIN_SEED):
            raise ValueError(f"archive chain must be {len(_CHAIN_SEED)} bytes")
        self._archive_chain = raw
