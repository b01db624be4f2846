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
derived once per shape.  :func:`anchor_for_selector` -- the highlight of a
stand-in for human eyes, who find the price by a selector -- goes one step
further: when that selector reads no slot attribute either, the matched
node, its anchor's selector and its text (as the shape's pieces) are all
resolved once per shape, and a later fill of the shape builds no tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.htmlmodel.dom import Document, Element
from repro.htmlmodel.selectors import SelectorError, compiled_selector

__all__ = ["PriceAnchor", "derive_anchor", "anchor_for_selector", "AnchorError"]

#: Class names too generic to disambiguate anything on their own; they are
#: still used in combination with parent steps.
_MAX_CHAIN_DEPTH = 5

#: The attributes selector derivation reads.
_DERIVATION_READS = frozenset({"id", "class"})

#: Facts (derived selectors, highlights) one page shape keeps before they
#: start over: a shape lives for a day, and a client may highlight any
#: number of nodes on it.
_SHAPE_FACTS = 64

#: A shape resolution meaning "the selector matches nothing".
_NO_MATCH = object()


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
        # Keyed by the NodePath itself, apart from the highlights' text keys.
        derived = shape.resolutions[__name__]
        if path in derived:
            selector = derived[path]
        else:
            selector = _derive_unique_selector(document, element)
            _keep(derived, path, selector)
    return PriceAnchor(
        selector=selector,
        node_path=str(path),
        sample_text=element.text(strip=True),
    )


def anchor_for_selector(document: Document, selector: str) -> Optional[PriceAnchor]:
    """The anchor of the first element ``selector`` matches, or ``None``.

    Equal to ``derive_anchor(document, first match)``.  On a filled page
    whose shape has no slot in an ``id`` or ``class`` and whose
    ``selector`` reads no slot attribute, the match is the same node on
    every fill, so it is resolved once per shape: the first fill walks
    its tree, and every later one reads the anchor's selector and node
    path from the shape and its sample text from the shape's text pieces
    and the fill's values, building no tree.  An unparseable ``selector``
    raises :class:`~repro.htmlmodel.selectors.SelectorError`.
    """
    compiled = compiled_selector(selector)
    shape = document.shape
    if shape is None or shape.slot_attributes & (
        _DERIVATION_READS | compiled.attribute_names()
    ):
        element = compiled.select_one(document)
        return None if element is None else derive_anchor(document, element)
    highlights = shape.resolutions[__name__]
    resolved = highlights.get(selector)
    if resolved is None:
        element = compiled.select_one(document)
        if element is None:
            _keep(highlights, selector, _NO_MATCH)
            return None
        anchor = derive_anchor(document, element)
        _keep(highlights, selector, (
            anchor.selector,
            anchor.node_path,
            shape.text_pieces(element.node_path()),
        ))
        return anchor
    if resolved is _NO_MATCH:
        return None
    derived, node_path, pieces = resolved
    return PriceAnchor(
        selector=derived,
        node_path=node_path,
        sample_text=document.join(pieces).strip(),
    )


def _keep(facts: dict, key, value) -> None:
    """Keep one per-shape fact, starting over once :data:`_SHAPE_FACTS`
    are kept."""
    if len(facts) >= _SHAPE_FACTS:
        facts.clear()
    facts[key] = value


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
        selector = compiled_selector(selector_text)
    except SelectorError:
        return False
    matches = selector.select(document)
    return len(matches) == 1 and matches[0] is element
