"""Declarative DOM construction helpers for page templates.

Retailer templates build pages as trees rather than string concatenation so
that structure (and therefore selector behaviour) is explicit:

>>> from repro.htmlmodel.build import E, T
>>> page = E("div", {"class": "price-box"},
...          E("span", {"class": "amount"}, T("$19.99")))
>>> page.text()
'$19.99'
"""

from __future__ import annotations

import weakref
from typing import Optional, Union

from repro.htmlmodel.dom import Document, Element, Node, Text

__all__ = ["E", "T", "document"]

Child = Union[Node, str]


def T(data: str) -> Text:
    """Create a text node."""
    return Text(str(data))


def E(tag: str, attrs: Optional[dict[str, str]] = None, *children: Child) -> Element:
    """Create an element with ``attrs`` and append ``children``.

    String children are wrapped into text nodes for convenience.  Children
    point back at the element weakly (see :mod:`repro.htmlmodel.dom`).
    """
    element = Element(tag, attrs)
    if not children:  # a leaf needs no weak reference to itself
        return element
    attach = element.children.append
    parent_ref = weakref.ref(element)
    for child in children:
        if isinstance(child, str):
            child = Text(child)
        elif not isinstance(child, Node):
            raise TypeError(f"cannot append {type(child).__name__} to <{tag}>")
        elif child._parent is not None:
            old = child._parent()
            if old is not None:
                old.remove(child)
        child._parent = parent_ref
        attach(child)
    return element


def document(*children: Child) -> Document:
    """Create a document with top-level ``children``."""
    doc = Document()
    for child in children:
        if isinstance(child, str):
            doc.append(Text(child))
        else:
            doc.append(child)
    return doc
