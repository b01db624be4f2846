"""Page shapes: a page rendered once, filled per request.

The copies of one product page that a synchronized burst fetches differ
only in a few per-request strings: the locale tag, the currency code and
the displayed prices.  A :class:`PageShape` is one render of the page with
a *slot marker* (:func:`slot_marker`) in place of each such string.  It is
serialized once, by :func:`~repro.htmlmodel.serialize.to_html`, and kept
as the text fragments between the slots plus a flat plan of its tree.
:meth:`PageShape.fill` then answers a request from the slot values alone:

* the HTML is the fragments joined around the values -- the bytes
  ``to_html`` gives for a render with those values.  Values are escaped
  with :func:`~repro.htmlmodel.serialize.escape_text` or
  :func:`~repro.htmlmodel.serialize.escape_attr`, exactly as ``to_html``
  escapes them; inside ``script``/``style`` they go in raw; an attribute
  whose whole value is an empty slot serializes as `` name``;
* the document is a :class:`FilledDocument`: a real
  :class:`~repro.htmlmodel.dom.Document` whose
  :attr:`~repro.htmlmodel.dom.Document.shape` is the shape and whose tree
  is built from the plan on its first structural read (the first access
  to ``children``), equal to the render in tags, attributes, texts and
  element paths.  A page nobody walks never builds one.

The text of an element, as :meth:`~repro.htmlmodel.dom.Element.text`
reads it, is the same pieces on every fill with only the slot values
differing, so :meth:`PageShape.text_pieces` finds it once per shape and
:meth:`FilledDocument.join` reads it on any fill without a tree.

A marker may land only in character data or in an attribute value;
anywhere else (a tag or attribute name) building the shape raises
:class:`ValueError`, because no fill could reproduce such a render.
"""

from __future__ import annotations

import re
import weakref
from collections import defaultdict
from typing import Optional, Sequence, Union

from repro.htmlmodel.dom import Document, Element, Node, NodePath, Text
from repro.htmlmodel.parser import RAW_TEXT_ELEMENTS
from repro.htmlmodel.serialize import escape_attr, escape_text, to_html

__all__ = ["FilledDocument", "PageShape", "slot_marker"]

# Private-use code points: no escape function rewrites them, and no text
# the program renders contains them.
_OPEN, _CLOSE = "\ue000", "\ue001"
_MARKER_RE = re.compile(f"{_OPEN}(\\d+){_CLOSE}")

#: A string with slots in it: literal text and slot indices, in order.
_Pieces = tuple[Union[str, int], ...]

# What a slot of the serialized page is: character data, raw text
# (script/style content), or a whole attribute.
_TEXT, _RAW, _ATTR = 0, 1, 2


def slot_marker(index: int) -> str:
    """The marker a shape render carries in place of slot ``index``."""
    if index < 0:
        raise ValueError("slot index must be >= 0")
    return f"{_OPEN}{index}{_CLOSE}"


def _pieces(data: str) -> Optional[_Pieces]:
    """``data`` split around its slot markers, or ``None`` if it has none."""
    if _OPEN not in data:
        return None
    split = _MARKER_RE.split(data)
    if len(split) == 1:
        return None
    return tuple(
        int(part) if i % 2 else part
        for i, part in enumerate(split)
        if i % 2 or part
    )


def _slots_of(pieces: _Pieces) -> list[int]:
    return [piece for piece in pieces if piece.__class__ is int]


def _join(pieces: _Pieces, values: Sequence[str]) -> str:
    return "".join(
        [piece if piece.__class__ is str else values[piece]  # type: ignore[index]
         for piece in pieces]
    )


def _check_name(name: str, what: str) -> None:
    if _OPEN in name or _CLOSE in name:
        raise ValueError(f"a slot marker landed in {what} {name!r}")


def _plan(document: Document) -> tuple[list[tuple], list[tuple]]:
    """The build plan of ``document``'s tree and the slots of its HTML.

    The plan lists every node in document order.  An element's entry is
    ``(parent position, tag, attrs, slotted attrs, has children)``; a
    text node's is ``(parent position, None, data or its pieces, is
    slotted, False)``.  Positions number the document 0 and the plan's
    elements from 1, in order.  The slots are ``(kind, slot index)`` for
    character data and ``(_ATTR, (name, pieces))`` for an attribute, in
    the order ``to_html`` writes them.
    """
    plan: list[tuple] = []
    fills: list[tuple] = []
    elements = 0

    def visit(node: Union[Document, Element], position: int, raw: bool) -> None:
        nonlocal elements
        for child in node.children:
            if isinstance(child, Element):
                _check_name(child.tag, "tag")
                slotted = []
                for name, value in child.attrs.items():
                    _check_name(name, "attribute name")
                    pieces = _pieces(value)
                    if pieces is not None:
                        slotted.append((name, pieces))
                        fills.append((_ATTR, (name, pieces)))
                plan.append((position, child.tag, dict(child.attrs) or None,
                             tuple(slotted), bool(child.children)))
                elements += 1
                visit(child, elements, child.tag in RAW_TEXT_ELEMENTS)
            elif isinstance(child, Text):
                pieces = _pieces(child.data)
                if pieces is None:
                    plan.append((position, None, child.data, False, False))
                    continue
                plan.append((position, None, pieces, True, False))
                kind = _RAW if raw else _TEXT
                fills.extend((kind, index) for index in _slots_of(pieces))
            else:
                raise TypeError(f"cannot shape {type(child).__name__}")

    visit(document, 0, False)
    return plan, fills


class PageShape:
    """One page's structure, serialized once, filled per request.

    Build it from a render whose per-request strings are the markers
    ``slot_marker(0)`` .. ``slot_marker(slots - 1)``; :meth:`fill` takes
    one value per slot, in that order.  Equal values get one shared body
    string: a shape keeps the bodies of its last :attr:`BODIES` distinct
    fills, so the copies of a page that a burst archives and memoizes are
    one object, while a retailer whose prices change on every request
    (per-request nonce pricing) cannot grow it.  It keeps at most as many
    of its filler's :attr:`views` (:meth:`keep_view`).  Filled documents
    are never kept: each, and the tree it may build, lives as long as its
    holder.
    """

    #: Distinct filled bodies a shape keeps: one fan-out's distinct views
    #: (14 vantages plus the user) fit.
    BODIES = 16

    __slots__ = (
        "slots", "slot_attributes", "resolutions", "views",
        "_plan", "_fills", "_fragments", "_bodies", "__weakref__",
    )

    def __init__(self, document: Document, slots: int) -> None:
        if slots < 0:
            raise ValueError("slots must be >= 0")
        self.slots = slots
        #: Per-shape memos of structural facts derived from a filled page,
        #: one dict per deriving module, keyed by the module's name
        #: (extraction keeps its anchor resolutions in one, anchor
        #: derivation its selectors and highlights in another), so each
        #: module bounds its own and cannot evict another's.  A fact may
        #: read only what every fill shares: tags, element positions and
        #: the attributes outside :attr:`slot_attributes`.
        self.resolutions: defaultdict[str, dict] = defaultdict(dict)
        #: The slot values of the views the shape's filler keeps with it,
        #: by the filler's own view key (:meth:`keep_view`).
        self.views: dict = {}
        self._bodies: dict[tuple[str, ...], str] = {}
        plan, fills = _plan(document)
        self._plan = tuple(plan)
        self._fills = tuple(fills)
        #: Names of the attributes whose value carries a slot: the only
        #: attributes that can differ between two fills.
        self.slot_attributes = frozenset(
            data[0] for kind, data in fills if kind == _ATTR
        )
        markers = [
            index
            for kind, data in fills
            for index in (_slots_of(data[1]) if kind == _ATTR else [data])
        ]
        if any(index >= slots for index in markers):
            raise ValueError(f"slot marker beyond the shape's {slots} slots")
        self._fragments = self._split(to_html(document), markers)

    def _split(self, html: str, markers: list[int]) -> tuple[str, ...]:
        """Cut the serialized shape into the fragments around its fills."""
        split = _MARKER_RE.split(html)
        literals = split[0::2]
        if [int(index) for index in split[1::2]] != markers:
            raise ValueError("a slot marker landed outside text and "
                             "attribute values")
        fragments = [literals[0]]
        cursor = 1
        for kind, data in self._fills:
            if kind != _ATTR:
                fragments.append(literals[cursor])
                cursor += 1
                continue
            # A fill rewrites the whole attribute: cut its opening from
            # the fragment before it, and its literals and closing quote
            # from the text after its last marker.
            name, pieces = data
            opening = ' {}="{}'.format(
                name, escape_attr(pieces[0]) if pieces[0].__class__ is str else "")
            closing = '{}"'.format(
                escape_attr(pieces[-1]) if pieces[-1].__class__ is str else "")
            cursor += len(_slots_of(pieces))
            before, after = fragments[-1], literals[cursor - 1]
            if not (before.endswith(opening) and after.startswith(closing)):
                raise ValueError(f"cannot find attribute {name!r} in the page")
            fragments[-1] = before[:-len(opening)]
            fragments.append(after[len(closing):])
        return tuple(fragments)

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------
    def fill(self, values: tuple[str, ...]) -> tuple[FilledDocument, str]:
        """The document and the HTML of the page with ``values`` in its slots.

        The document builds its tree on its first structural read.
        """
        if len(values) != self.slots:
            raise ValueError(
                f"shape has {self.slots} slots, got {len(values)} values"
            )
        bodies = self._bodies
        body = bodies.get(values)
        if body is None:
            body = bodies[values] = self._serialize(values)
            if len(bodies) > self.BODIES:
                del bodies[next(iter(bodies))]
        return FilledDocument(self, values), body

    def keep_view(self, key, view) -> None:
        """Keep ``view`` in :attr:`views` under ``key``.

        A shape keeps its last :attr:`BODIES` views, as it keeps its
        bodies, so what a filler keeps here is bounded by the shapes its
        memo holds.
        """
        views = self.views
        views[key] = view
        if len(views) > self.BODIES:
            del views[next(iter(views))]

    def _serialize(self, values: tuple[str, ...]) -> str:
        fragments = self._fragments
        parts = [fragments[0]]
        append = parts.append
        for index, (kind, data) in enumerate(self._fills, 1):
            if kind == _TEXT:
                append(escape_text(values[data]))
            elif kind == _RAW:
                append(values[data])
            else:
                name, pieces = data
                value = _join(pieces, values)
                append(f' {name}="{escape_attr(value)}"' if value else f" {name}")
            append(fragments[index])
        return "".join(parts)

    def _build(self, document: FilledDocument) -> None:
        """Build ``document``'s tree from the plan, its values in the slots."""
        values = document.values
        document.children = []
        parents: list[Union[Document, Element]] = [document]
        refs: list[Optional[weakref.ref]] = [weakref.ref(document)]
        for parent, tag, payload, slotted, has_children in self._plan:
            node: Node
            if tag is None:
                node = Text(_join(payload, values) if slotted else payload)
            else:
                node = Element(tag, payload)
                if slotted:
                    attrs = node.attrs
                    for name, pieces in slotted:
                        attrs[name] = _join(pieces, values)
                parents.append(node)
                refs.append(weakref.ref(node) if has_children else None)
            node._parent = refs[parent]
            parents[parent].children.append(node)

    # ------------------------------------------------------------------
    # Reading without a tree
    # ------------------------------------------------------------------
    def text_pieces(self, path: NodePath) -> Optional[_Pieces]:
        """The text of the element at ``path``, as pieces, or ``None``.

        ``None`` when no element is at ``path`` (where
        :meth:`~repro.htmlmodel.dom.Document.find_by_path` finds none).
        Otherwise :meth:`FilledDocument.join` of the pieces equals
        ``find_by_path(path).text()`` on any fill's tree: the character
        data of every descendant text node in document order, with the
        contents of descendant ``script`` and ``style`` elements skipped.
        """
        plan = self._plan
        # The element children of each position, and each element's
        # index in the plan.
        children: list[list[int]] = [[]]
        entry = [-1]
        for index, (parent, tag, _, _, _) in enumerate(plan):
            if tag is not None:
                children[parent].append(len(children))
                children.append([])
                entry.append(index)
        position = 0
        for step in path.steps:
            if step >= len(children[position]):
                return None
            position = children[position][step]
        if position == 0:
            return None
        # Text counts when its parent is the element or a counted
        # descendant; a script or style descendant is not counted.
        counted = {position}
        element = position
        pieces: list[Union[str, int]] = []
        for parent, tag, payload, slotted, _ in plan[entry[position] + 1:]:
            if tag is None:
                if parent in counted:
                    pieces.extend(payload if slotted else (payload,))
                continue
            element += 1
            if parent in counted and tag not in ("script", "style"):
                counted.add(element)
        return tuple(pieces)


class FilledDocument(Document):
    """A page filled from a :class:`PageShape`; its tree is built on demand.

    :attr:`values` are the slot values of the fill.  The tree is built
    from the shape's plan on the first access to ``children``, which every
    walk, find, text read and ``repr`` makes, and is then an ordinary
    tree.  Until then the page costs its values: a reader that needs only
    an element's text calls :meth:`join` with the element's
    :meth:`PageShape.text_pieces`.
    """

    __slots__ = ("values",)

    def __init__(self, shape: PageShape, values: tuple[str, ...]) -> None:
        # ``children`` stays unset until :meth:`__getattr__` builds it.
        self._parent = None
        self.shape = shape
        self.values = values

    def __getattr__(self, name: str):
        if name != "children":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self.shape._build(self)
        return self.children

    def join(self, pieces: _Pieces) -> str:
        """``pieces`` with this fill's values in their slots."""
        return _join(pieces, self.values)
