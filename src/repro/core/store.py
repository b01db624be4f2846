"""The page archive: "(vi) We store the pages for analysis in a database."

The store keeps *metadata* for every archived fetch but caps the number of
full HTML bodies retained per domain: the third-party census (§4.4) needs a
handful of pages per retailer, while a paper-scale crawl would otherwise
hold ~200K pages of HTML in memory.  The cap is a store policy, not a
caller concern.

Retained bodies are deduplicated by content: a promo-free retailer renders
byte-identical pages to every vantage point of a burst, so the store
interns equal strings and all duplicate archives share one object.  The
:class:`ArchivedPage` API is unchanged -- ``page.html`` is always the full
text of what was fetched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["ArchivedPage", "PageStore"]

#: Initial value of the archive hash chain (no pages archived yet).
_CHAIN_SEED = b"\x00" * 16


@dataclass(frozen=True)
class ArchivedPage:
    """One archived fetch."""

    check_id: str
    url: str
    domain: str
    vantage: str
    timestamp: float
    html: Optional[str]  # None when only metadata was retained

    @property
    def retained(self) -> bool:
        return self.html is not None


class PageStore:
    """In-memory page database with per-domain HTML retention caps."""

    def __init__(self, *, html_per_domain: int = 30) -> None:
        if html_per_domain < 0:
            raise ValueError("html_per_domain must be >= 0")
        self.html_per_domain = html_per_domain
        self._pages: list[ArchivedPage] = []
        self._html_counts: dict[str, int] = {}
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
    ) -> ArchivedPage:
        """Store one fetched page, retaining HTML if under the domain cap.

        Retained HTML is interned: when an identical body was archived
        before, the new page references the existing string instead of
        holding a redundant copy (paper-scale crawls archive ~200K pages,
        most of them byte-identical across vantage points).
        """
        digest = hashlib.blake2b(
            "\x1f".join(
                (check_id, url, domain, vantage, repr(timestamp), html)
            ).encode("utf-8"),
            digest_size=16,
            key=self._archive_chain,
        )
        self._archive_chain = digest.digest()
        count = self._html_counts.get(domain, 0)
        keep = count < self.html_per_domain
        if keep:
            interned = self._interned.get(html)
            if interned is not None:
                self._dedup_hits += 1
                html = interned
            else:
                self._interned[html] = html
        page = ArchivedPage(
            check_id=check_id,
            url=url,
            domain=domain,
            vantage=vantage,
            timestamp=timestamp,
            html=html if keep else None,
        )
        if keep:
            self._html_counts[domain] = count + 1
        self._pages.append(page)
        return page

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[ArchivedPage]:
        return iter(self._pages)

    def pages_for_domain(
        self, domain: str, *, with_html_only: bool = False
    ) -> list[ArchivedPage]:
        """All archived pages of one domain (optionally HTML-bearing only)."""
        return [
            page
            for page in self._pages
            if page.domain == domain and (page.retained or not with_html_only)
        ]

    def domains(self) -> list[str]:
        """Every domain with at least one archived page, sorted."""
        return sorted({page.domain for page in self._pages})

    def retained_html_count(self) -> int:
        """How many archived pages still carry their full HTML."""
        return sum(1 for page in self._pages if page.retained)

    def unique_html_count(self) -> int:
        """How many *distinct* HTML bodies the retained pages share."""
        return len(self._interned)

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

    def clear(self) -> None:
        """Drop every archived page and reset the retention counters."""
        self._pages.clear()
        self._html_counts.clear()
        self._interned.clear()
        self._dedup_hits = 0
        self._archive_chain = _CHAIN_SEED
