"""Deriving a robust price anchor from a highlighted DOM node.

This is the heart of the crowdsourcing trick.  §2.2 explains why naive
price extraction cannot scale: every retailer has its own template and a
page is full of decoy prices.  $heriff sidesteps template reverse-
engineering by letting the *user's eyes* find the price once; the extension
then has to describe that node well enough to find it again in copies of
the page fetched from other vantage points -- where the price *text* will
differ (other currency, other amount) and the structure may have shifted
(different promo banners, reshuffled recommendations).

:func:`derive_anchor` builds a :class:`PriceAnchor` with two redundant
locators:

* ``selector`` -- the shortest id/class/tag chain that uniquely matches the
  node in its own document (ids strongly preferred, ``:nth-of-type`` as a
  last resort per hop),
* ``node_path`` -- the raw structural path, as a fallback when the selector
  grammar cannot express a unique address.

Extraction (:mod:`repro.core.extraction`) tries the selector first, then
the path.

Selector derivation reads only tags, ids, classes and element positions,
which every page filled from one :class:`~repro.htmlmodel.shape.PageShape`
shares unless the shape has a slot in an ``id`` or ``class``.  So on a
filled page whose shape has no such slot, the selector for a node path is
derived once per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.htmlmodel.dom import Document, Element, NodePath
from repro.htmlmodel.selectors import Selector

__all__ = ["PriceAnchor", "derive_anchor", "AnchorError"]

#: Class names too generic to disambiguate anything on their own; they are
#: still used in combination with parent steps.
_MAX_CHAIN_DEPTH = 5

#: The attributes selector derivation reads.
_DERIVATION_READS = frozenset({"id", "class"})


class AnchorError(ValueError):
    """Raised when no anchor can be derived for a node."""


@dataclass(frozen=True)
class PriceAnchor:
    """A transferable description of where the price lives in a page."""

    selector: Optional[str]
    node_path: str
    sample_text: str

    def __str__(self) -> str:
        return self.selector or self.node_path


def derive_anchor(document: Document, element: Element) -> PriceAnchor:
    """Build a :class:`PriceAnchor` for ``element`` inside ``document``.

    The element must belong to the document; its text content at highlight
    time is retained as ``sample_text`` (useful for diagnostics and for
    sanity checks during extraction).
    """
    if element.root is not document:
        raise AnchorError("element does not belong to the given document")
    path = element.node_path()
    shape = document.shape
    if shape is None or shape.slot_attributes & _DERIVATION_READS:
        selector = _derive_unique_selector(document, element)
    else:
        # Keyed by the NodePath itself, apart from extraction's tuple keys.
        derived = shape.resolutions
        if path in derived:
            selector = derived[path]
        else:
            selector = derived[path] = _derive_unique_selector(document, element)
    return PriceAnchor(
        selector=selector,
        node_path=str(path),
        sample_text=element.text(strip=True),
    )


# ----------------------------------------------------------------------
# Selector derivation
# ----------------------------------------------------------------------
def _derive_unique_selector(document: Document, element: Element) -> Optional[str]:
    """The shortest compound chain uniquely matching ``element``."""
    # An id is king: unique by construction in sane pages, verified anyway.
    if element.id:
        candidate = f"#{element.id}"
        if _is_unique(document, candidate, element):
            return candidate

    # Build per-level descriptors from the element upwards.
    chain: list[str] = []
    node: Optional[Element] = element
    depth = 0
    while isinstance(node, Element) and depth < _MAX_CHAIN_DEPTH:
        descriptor = _describe(node)
        chain.insert(0, descriptor)
        candidate = " > ".join(chain)
        if _is_unique(document, candidate, element):
            return candidate
        # If this ancestor has an id, anchor on it and stop climbing.
        if node.id:
            chain[0] = f"#{node.id}"
            candidate = " > ".join(chain)
            if _is_unique(document, candidate, element):
                return candidate
        parent = node.parent
        node = parent if isinstance(parent, Element) else None
        depth += 1

    # Last resort: disambiguate the leaf with :nth-of-type.
    leaf_nth = _describe(element, with_nth=True)
    if len(chain) >= 1:
        chain[-1] = leaf_nth
        candidate = " > ".join(chain)
        if _is_unique(document, candidate, element):
            return candidate
    if _is_unique(document, leaf_nth, element):
        return leaf_nth
    return None


def _describe(element: Element, *, with_nth: bool = False) -> str:
    parts = [element.tag]
    for cls in element.classes:
        parts.append(f".{cls}")
    descriptor = "".join(parts)
    if with_nth:
        descriptor += f":nth-of-type({_nth_of_type(element)})"
    return descriptor


def _nth_of_type(element: Element) -> int:
    parent = element.parent
    if parent is None or not hasattr(parent, "child_elements"):
        return 1
    same = [e for e in parent.child_elements() if e.tag == element.tag]
    return same.index(element) + 1


def _is_unique(document: Document, selector_text: str, element: Element) -> bool:
    try:
        selector = Selector.parse(selector_text)
    except Exception:
        return False
    matches = selector.select(document)
    return len(matches) == 1 and matches[0] is element
