"""DOM node classes and tree operations for the HTML substrate.

The tree is a conventional parent/children structure with three node kinds:

* :class:`Document` -- the root; holds top-level nodes,
* :class:`Element` -- a tag with attributes and children,
* :class:`Text` -- a run of character data.

Elements expose the small set of accessors the rest of the system needs:
attribute lookup, class handling, text extraction, iteration in document
order, and :class:`NodePath` -- the structural address ("the 3rd child of the
2nd child of body") that the $heriff extension records when a user highlights
a price and that must survive re-parsing the page fetched from a different
vantage point.

Trees hold no reference cycles: a parent holds its children strongly, but a
child's :attr:`Node.parent` is a weak reference.  A page is therefore freed
by reference counting the moment its last holder drops it, instead of
waiting for the cyclic garbage collector.  The contract that follows: **a
node does not keep its ancestors alive.**  Code that walks up the tree
(:meth:`Node.ancestors`, :meth:`Element.node_path`, selector combinators,
anchor derivation) must hold the :class:`Document` (or the subtree's root)
while it does; once the root is gone, ``parent`` reads ``None``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

__all__ = ["Node", "Text", "Element", "Document", "NodePath"]


class Node:
    """Base class for all DOM nodes."""

    __slots__ = ("_parent", "__weakref__")

    def __init__(self) -> None:
        self._parent: Optional[weakref.ref] = None

    @property
    def parent(self) -> Optional["Element | Document"]:
        """The node this one is a child of, or ``None``.

        Held weakly (see the module docstring): it reads ``None`` once
        every strong holder of the parent has dropped it.
        """
        ref = self._parent
        return None if ref is None else ref()

    @parent.setter
    def parent(self, node: Optional["Element | Document"]) -> None:
        self._parent = None if node is None else weakref.ref(node)

    # ------------------------------------------------------------------
    # Tree navigation helpers shared by all node kinds.
    # ------------------------------------------------------------------
    @property
    def index_in_parent(self) -> int:
        """Position of this node among its parent's children.

        Raises :class:`ValueError` for a detached node.
        """
        parent = self.parent
        if parent is None:
            raise ValueError("node has no parent")
        for i, child in enumerate(parent.children):
            if child is self:
                return i
        raise ValueError("node not found among parent's children")

    def ancestors(self) -> Iterator["Element | Document"]:
        """Yield parents from the immediate parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def root(self) -> "Node":
        """The topmost node of the tree containing this node."""
        node: Node = self
        parent = node.parent
        while parent is not None:
            node, parent = parent, parent.parent
        return node


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self._parent = None  # inline Node.__init__ (hot allocation path)
        self.data = data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class _ParentNode(Node):
    """Shared child-management behaviour of Element and Document."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        self._parent = None  # inline Node.__init__ (hot allocation path)
        self.children: list[Node] = []

    def append(self, node: Node) -> Node:
        """Attach ``node`` as the last child and return it."""
        self._adopt(node)
        self.children.append(node)
        return node

    def insert(self, index: int, node: Node) -> Node:
        """Attach ``node`` at ``index`` and return it."""
        self._adopt(node)
        self.children.insert(index, node)
        return node

    def _adopt(self, node: Node) -> None:
        """Detach ``node`` from any live parent and point it at this one."""
        if node._parent is not None:
            old = node._parent()
            if old is not None:
                old.remove(node)
        node._parent = weakref.ref(self)

    def remove(self, node: Node) -> None:
        """Detach a direct child."""
        self.children.remove(node)
        node._parent = None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter(self) -> Iterator[Node]:
        """Yield this node and every descendant in document order."""
        yield self
        for child in self.children:
            if isinstance(child, _ParentNode):
                yield from child.iter()
            else:
                yield child

    def iter_elements(self) -> Iterator["Element"]:
        """Yield descendant elements (and self if an element) in order."""
        # Iterative preorder walk: this runs once per selector application
        # per fetched page, so it avoids the nested-generator overhead of
        # delegating to :meth:`iter`.
        stack: list[Element] = (
            [self]  # type: ignore[list-item]
            if isinstance(self, Element)
            else [c for c in reversed(self.children) if isinstance(c, Element)]
        )
        pop = stack.pop
        while stack:
            element = pop()
            yield element
            children = element.children
            if children:
                stack.extend(
                    [c for c in reversed(children) if isinstance(c, Element)]
                )

    def child_elements(self) -> list["Element"]:
        """Direct children that are elements."""
        return [c for c in self.children if isinstance(c, Element)]

    # ------------------------------------------------------------------
    # Text extraction
    # ------------------------------------------------------------------
    def text(self, *, separator: str = "", strip: bool = False) -> str:
        """Concatenated character data of all descendant text nodes.

        ``separator`` is inserted between adjacent text runs; ``strip``
        strips the final result.  Script and style contents are skipped --
        a price highlighted by a user is never inside them, and including
        tracker snippets would poison extraction heuristics.
        """
        parts: list[str] = []
        self._collect_text(parts)
        out = separator.join(parts)
        return out.strip() if strip else out

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.data)
            elif isinstance(child, Element):
                if child.tag in ("script", "style"):
                    continue
                child._collect_text(parts)


class Element(_ParentNode):
    """An HTML element: tag name, attributes, children."""

    __slots__ = ("tag", "attrs")

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None) -> None:
        # Inline the base initializers: elements are allocated by the
        # thousand per rendered page, and the super() chain dominates.
        self._parent = None
        self.children = []
        self.tag = tag.lower()
        self.attrs: dict[str, str] = dict(attrs) if attrs else {}

    # ------------------------------------------------------------------
    # Attribute conveniences
    # ------------------------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The attribute's value, or ``default`` when absent."""
        return self.attrs.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.attrs

    @property
    def id(self) -> Optional[str]:
        return self.attrs.get("id")

    @property
    def classes(self) -> tuple[str, ...]:
        """The element's class list, split on whitespace."""
        return tuple(self.attrs.get("class", "").split())

    def has_class(self, name: str) -> bool:
        """True if ``name`` appears in the element's class list."""
        return name in self.classes

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        cls = "." + ".".join(self.classes) if self.classes else ""
        return f"<{self.tag}{ident}{cls} children={len(self.children)}>"

    # ------------------------------------------------------------------
    # Structural addressing
    # ------------------------------------------------------------------
    def node_path(self) -> "NodePath":
        """The structural path from the document root to this element.

        Each step is the index of the element among its parent's *element*
        children.  This is what the extension records for a highlighted
        price node; it is meaningful across re-renders of the same template.
        """
        steps: list[int] = []
        node: Element = self
        parent = node.parent
        while isinstance(parent, (Element, Document)):
            steps.append(parent.child_elements().index(node))
            if isinstance(parent, Document):
                break
            node, parent = parent, parent.parent
        steps.reverse()
        return NodePath(tuple(steps))


class Document(_ParentNode):
    """Root of a parsed HTML document.

    ``shape`` is the :class:`~repro.htmlmodel.shape.PageShape` a filled
    page was built from, and ``None`` for every other document (parsed,
    or built node by node).  Every page filled from one shape has the
    same tags, element positions and attributes, except the attributes
    the shape lists in ``slot_attributes``, so a structural fact found on
    one of them holds on all of them.
    """

    __slots__ = ("shape",)

    def __init__(self) -> None:
        self._parent = None  # inline Node.__init__ (hot allocation path)
        self.children = []
        self.shape = None

    def __repr__(self) -> str:
        return f"Document(children={len(self.children)})"

    def find_by_path(self, path: "NodePath") -> Optional[Element]:
        """Resolve a :class:`NodePath` back to an element, or ``None``."""
        node: _ParentNode = self
        for step in path.steps:
            elements = node.child_elements()
            if step >= len(elements):
                return None
            node = elements[step]
        return node if isinstance(node, Element) else None


@dataclass(frozen=True)
class NodePath:
    """A structural address: element-child indices from the root down.

    Node paths are the *least* robust anchor $heriff can use (any structural
    change up-tree invalidates them) but the only one that always exists;
    the selector derivation in :mod:`repro.core.highlight` prefers ids and
    stable class chains and falls back to paths.
    """

    steps: tuple[int, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return "/" + "/".join(str(s) for s in self.steps)

    @classmethod
    def parse(cls, text: str) -> "NodePath":
        """Parse the ``/0/1/3`` textual form produced by :meth:`__str__`."""
        text = text.strip()
        if not text.startswith("/"):
            raise ValueError(f"invalid node path: {text!r}")
        body = text[1:]
        if not body:
            return cls(())
        try:
            steps = tuple(int(part) for part in body.split("/"))
        except ValueError as exc:
            raise ValueError(f"invalid node path: {text!r}") from exc
        if any(step < 0 for step in steps):
            raise ValueError(f"negative step in node path: {text!r}")
        return cls(steps)

    def parent(self) -> "NodePath":
        """The path one level up (the root path's parent is itself)."""
        if not self.steps:
            return self
        return NodePath(self.steps[:-1])

    def child(self, index: int) -> "NodePath":
        """The path one level down at element-child ``index``."""
        if index < 0:
            raise ValueError("child index must be >= 0")
        return NodePath(self.steps + (index,))

    @property
    def depth(self) -> int:
        return len(self.steps)
