"""Selector-guided price extraction from fetched pages.

Step (iv) of §3.1: "given the user has highlighted the price on the page,
we use that information to extract the price from the downloaded page at
different locations."

The downloaded copy is *not* the page the user saw: the amount differs, the
currency usually differs, number formatting differs, and the structure may
have shifted.  Extraction therefore:

1. resolves the anchor -- selector first, structural node path second;
2. parses the node's text with the locale-aware number parser
   (:func:`repro.ecommerce.localization.parse_price`);
3. reports *how* it succeeded (``method``) so analysis can quantify anchor
   robustness (one of the DESIGN.md ablations).

A page filled from a :class:`~repro.htmlmodel.shape.PageShape` shares its
tags, element positions and attributes with every other fill of the shape,
except the shape's slot attributes, and selectors never read text.  So an
anchor is resolved once per shape, by the rule above, on a tree the first
page builds; the resolution keeps the node's text as the shape's pieces
(:meth:`~repro.htmlmodel.shape.PageShape.text_pieces`), and every page
reads its text from them and its slot values, with no tree built.  An
anchor whose selector reads a slot attribute is resolved on every page.

Failures return an :class:`ExtractedPrice` with ``ok=False`` and a reason
rather than raising: a fan-out must tolerate one bad vantage page.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.core.highlight import PriceAnchor
from repro.ecommerce.localization import (
    Locale,
    ParsedPrice,
    PriceFormatError,
    parse_price,
)
from repro.htmlmodel.dom import Document, Element, NodePath
from repro.htmlmodel.parser import parse_html, parse_html_cached
from repro.htmlmodel.selectors import Selector, SelectorError, compiled_selector

__all__ = ["ExtractedPrice", "extract_price", "extract_price_from_document"]


def _anchor_selector(anchor: PriceAnchor) -> Optional[Selector]:
    """The anchor's compiled selector; ``None`` when it has none or it
    does not parse (the anchor then falls back to its structural path)."""
    if not anchor.selector:
        return None
    try:
        return compiled_selector(anchor.selector)
    except SelectorError:
        return None


@lru_cache(maxsize=2048)
def _parsed_path_steps(text: str) -> Optional[tuple[int, ...]]:
    """Parse a ``/0/1/3`` structural path once per distinct string."""
    try:
        return NodePath.parse(text).steps
    except ValueError:
        return None


@lru_cache(maxsize=4096)
def _parsed_price(text: str, locale_hint: Optional[Locale]) -> ParsedPrice:
    """:func:`parse_price`, which is pure, once per (text, locale hint).

    A burst's pages repeat a handful of price texts, and parsing one scans
    the text for every currency code.
    """
    return parse_price(text, locale_hint=locale_hint)


#: Anchors one page shape resolves before its resolutions start over: a
#: shape lives for a day, and a client may aim any number of anchors at it.
_SHAPE_ANCHORS = 64

#: A shape resolution meaning "resolve on every page": the anchor's
#: selector reads an attribute that differs between the shape's fills.
_PER_PAGE = object()


@dataclass(frozen=True)
class ExtractedPrice:
    """The outcome of one extraction attempt."""

    ok: bool
    amount: Optional[float] = None
    currency: Optional[str] = None  # ISO code, None when symbol-less
    raw_text: str = ""
    method: str = ""  # "selector" | "node-path" | ""
    error: str = ""

    @classmethod
    def failure(cls, error: str) -> "ExtractedPrice":
        return cls(ok=False, error=error)


def extract_price(
    html: str,
    anchor: PriceAnchor,
    *,
    locale_hint: Optional[Locale] = None,
    cache: bool = True,
) -> ExtractedPrice:
    """Extract the anchored price from an HTML string.

    With ``cache`` (the default) the parse goes through the shared
    content-hash LRU (:func:`repro.htmlmodel.parser.parse_html_cached`):
    extraction never mutates the tree, so identical page strings -- store
    replays, promo-free renders, repeated crowd uploads -- parse once.
    """
    try:
        document = parse_html_cached(html) if cache else parse_html(html)
    except Exception as exc:  # parser recovers from almost anything
        return ExtractedPrice.failure(f"unparseable page: {exc}")
    return extract_price_from_document(document, anchor, locale_hint=locale_hint)


def extract_price_from_document(
    document: Document,
    anchor: PriceAnchor,
    *,
    locale_hint: Optional[Locale] = None,
) -> ExtractedPrice:
    """Extract from an already-parsed document (crawler fast path).

    On a filled page whose shape has resolved ``anchor``, the anchored
    text is read without building the page's tree.
    """
    text, method = _anchored_text(document, anchor)
    if text is None:
        return ExtractedPrice.failure("anchor matched nothing")
    if not text:
        return ExtractedPrice.failure(f"anchored node is empty (via {method})")
    try:
        parsed = _parsed_price(text, locale_hint)
    except PriceFormatError as exc:
        return ExtractedPrice.failure(f"unparseable price text {text!r}: {exc}")
    return ExtractedPrice(
        ok=True,
        amount=parsed.amount,
        currency=parsed.currency,
        raw_text=text,
        method=method,
    )


def _anchored_text(
    document: Document, anchor: PriceAnchor
) -> tuple[Optional[str], str]:
    """The anchored element's stripped text (``None`` when nothing matched)
    and how the element was found, resolved once per page shape."""
    shape = document.shape
    if shape is None:
        return _walked_text(document, anchor)
    resolutions = shape.resolutions[__name__]
    key = (anchor.selector, anchor.node_path)
    resolved = resolutions.get(key)
    if resolved is None:
        selector = _anchor_selector(anchor)
        if selector is not None and (
            selector.attribute_names() & shape.slot_attributes
        ):
            resolved = _PER_PAGE
        else:
            element, method = _walk(document, anchor)
            pieces = (
                shape.text_pieces(element.node_path())
                if element is not None else None
            )
            resolved = (method, pieces)
        if len(resolutions) >= _SHAPE_ANCHORS:
            resolutions.clear()
        resolutions[key] = resolved
    if resolved is _PER_PAGE:
        return _walked_text(document, anchor)
    method, pieces = resolved
    if pieces is None:
        return None, method
    return document.join(pieces).strip(), method


def _walked_text(
    document: Document, anchor: PriceAnchor
) -> tuple[Optional[str], str]:
    element, method = _walk(document, anchor)
    return (None if element is None else element.text(strip=True)), method


def _walk(
    document: Document, anchor: PriceAnchor
) -> tuple[Optional[Element], str]:
    """Selector first, structural path as fallback."""
    if anchor.selector:
        selector = _anchor_selector(anchor)
        matches = selector.select(document) if selector is not None else []
        if len(matches) == 1:
            return matches[0], "selector"
        if len(matches) > 1:
            # Ambiguity on a foreign render: prefer the match whose position
            # is closest to the recorded structural path.
            target = _path_steps(anchor)
            if target is not None:
                best = min(
                    matches,
                    key=lambda el: _path_distance(el.node_path().steps, target),
                )
                return best, "selector"
            return matches[0], "selector"
    target = _path_steps(anchor)
    if target is not None:
        element = document.find_by_path(NodePath(target))
        if element is not None:
            return element, "node-path"
    return None, ""


def _path_steps(anchor: PriceAnchor) -> Optional[tuple[int, ...]]:
    return _parsed_path_steps(anchor.node_path)


def _path_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """A cheap tree-edit proxy: prefix mismatch position + length gap."""
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return (len(a) - common) + (len(b) - common)
