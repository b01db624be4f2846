"""CSS-subset selector engine.

Implements the selector grammar $heriff needs for robust price anchors:

* type selectors (``span``), universal (``*``),
* ``#id``, ``.class`` (stackable: ``span.price.current``),
* attribute tests ``[name]``, ``[name=value]``, ``[name^=v]``, ``[name$=v]``,
  ``[name*=v]``, ``[name~=v]``,
* ``:nth-of-type(n)``, ``:first-of-type``, ``:last-of-type``,
  ``:nth-child(n)`` and ``:first-child`` (structural disambiguation),
* descendant (whitespace), child (``>``), adjacent sibling (``+``) and
  general sibling (``~``) combinators,
* comma-separated selector groups.

Matching is right-to-left per compound, as in real engines, but implemented
as a straightforward tree walk -- our pages are a few thousand nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from repro.htmlmodel.dom import Document, Element

__all__ = [
    "Selector",
    "SelectorError",
    "compiled_selector",
    "select",
    "select_one",
    "matches",
]


class SelectorError(ValueError):
    """Raised for selector strings the grammar does not accept."""


# ----------------------------------------------------------------------
# Parsed representation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _AttrTest:
    name: str
    op: str  # '', '=', '^=', '$=', '*=', '~='
    value: str = ""

    def match(self, element: Element) -> bool:
        actual = element.get(self.name)
        if actual is None:
            return False
        if self.op == "":
            return True
        if self.op == "=":
            return actual == self.value
        if self.op == "^=":
            return bool(self.value) and actual.startswith(self.value)
        if self.op == "$=":
            return bool(self.value) and actual.endswith(self.value)
        if self.op == "*=":
            return bool(self.value) and self.value in actual
        if self.op == "~=":
            return self.value in actual.split()
        raise SelectorError(f"unknown attribute operator {self.op!r}")


@dataclass(frozen=True)
class _Compound:
    """One compound selector: tag + ids + classes + attrs + pseudo."""

    tag: Optional[str] = None
    ids: tuple[str, ...] = ()
    classes: tuple[str, ...] = ()
    attrs: tuple[_AttrTest, ...] = ()
    nth_of_type: Optional[int] = None  # 1-based
    nth_child: Optional[int] = None  # 1-based, among all element children
    last_of_type: bool = False

    def match(self, element: Element) -> bool:
        # Hot path: this runs for every element of every fetched page, so
        # the common tests use plain loops over (usually empty) tuples
        # rather than generator expressions.
        tag = self.tag
        if tag is not None and tag != "*" and element.tag != tag:
            return False
        if self.ids:
            element_id = element.attrs.get("id")
            for wanted in self.ids:
                if element_id != wanted:
                    return False
        if self.classes:
            classes = element.attrs.get("class", "").split()
            for wanted in self.classes:
                if wanted not in classes:
                    return False
        for test in self.attrs:
            if not test.match(element):
                return False
        if self.nth_of_type is not None and not self._match_nth(element):
            return False
        if self.nth_child is not None and not self._match_nth_child(element):
            return False
        if self.last_of_type and not self._match_last(element):
            return False
        return True

    @staticmethod
    def _siblings_of_type(element: Element) -> list[Element]:
        parent = element.parent
        if parent is None or not hasattr(parent, "child_elements"):
            return [element]
        return [e for e in parent.child_elements() if e.tag == element.tag]

    def _match_nth(self, element: Element) -> bool:
        same_type = self._siblings_of_type(element)
        try:
            return same_type.index(element) + 1 == self.nth_of_type
        except ValueError:  # pragma: no cover - element must be a child
            return False

    def _match_nth_child(self, element: Element) -> bool:
        parent = element.parent
        if parent is None or not hasattr(parent, "child_elements"):
            return self.nth_child == 1
        children = parent.child_elements()
        try:
            return children.index(element) + 1 == self.nth_child
        except ValueError:  # pragma: no cover
            return False

    def _match_last(self, element: Element) -> bool:
        same_type = self._siblings_of_type(element)
        return bool(same_type) and same_type[-1] is element


@dataclass(frozen=True)
class _Step:
    combinator: str  # ' ' (descendant), '>' (child), '+' (adjacent), '~' (sibling)
    compound: _Compound


@dataclass(frozen=True)
class Selector:
    """A parsed selector group, usable for matching and querying.

    Instances are immutable and hashable; :meth:`parse` caches nothing by
    itself -- callers that match one selector text against many documents
    go through :func:`compiled_selector`, which parses each text once.
    """

    groups: tuple[tuple[_Step, ...], ...]
    source: str = ""

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Selector":
        if not isinstance(text, str) or not text.strip():
            raise SelectorError("empty selector")
        groups = tuple(
            _parse_complex(part.strip())
            for part in text.split(",")
            if part.strip()
        )
        if not groups:
            raise SelectorError(f"no selectors in {text!r}")
        return cls(groups=groups, source=text.strip())

    # ------------------------------------------------------------------
    def matches(self, element: Element) -> bool:
        """True if ``element`` matches any group of this selector."""
        # Plain loop (not any()+genexpr): this runs once per element per
        # selector application, the hottest spot of the extraction path.
        for group in self.groups:
            if self._match_from(group, len(group) - 1, element):
                return True
        return False

    def _match_from(self, group: Sequence[_Step], idx: int, element: Element) -> bool:
        step = group[idx]
        if not step.compound.match(element):
            return False
        if idx == 0:
            return True
        prev_idx = idx - 1
        combinator = step.combinator
        if combinator == ">":
            parent = element.parent
            if isinstance(parent, Element):
                return self._match_from(group, prev_idx, parent)
            return False
        if combinator == "+":
            sibling = _previous_element_sibling(element)
            if sibling is not None:
                return self._match_from(group, prev_idx, sibling)
            return False
        if combinator == "~":
            sibling = _previous_element_sibling(element)
            while sibling is not None:
                if self._match_from(group, prev_idx, sibling):
                    return True
                sibling = _previous_element_sibling(sibling)
            return False
        # descendant
        for ancestor in element.ancestors():
            if isinstance(ancestor, Element) and self._match_from(group, prev_idx, ancestor):
                return True
        return False

    def attribute_names(self) -> frozenset[str]:
        """The attributes this selector reads (``id`` and ``class`` included).

        Matching reads nothing else of an element but its tag and its
        position among its siblings -- never its text.
        """
        names: set[str] = set()
        for group in self.groups:
            for step in group:
                compound = step.compound
                if compound.ids:
                    names.add("id")
                if compound.classes:
                    names.add("class")
                names.update(test.name for test in compound.attrs)
        return frozenset(names)

    # ------------------------------------------------------------------
    def select(self, root: Union[Document, Element]) -> list[Element]:
        """All elements under ``root`` (excluding root) matching, in order."""
        matches = self.matches
        return [
            element
            for element in root.iter_elements()
            if element is not root and matches(element)
        ]

    def select_one(self, root: Union[Document, Element]) -> Optional[Element]:
        """First matching element in document order, or ``None``."""
        for element in root.iter_elements():
            if element is root:
                continue
            if self.matches(element):
                return element
        return None

    def __str__(self) -> str:
        return self.source


def _previous_element_sibling(element: Element) -> Optional[Element]:
    parent = element.parent
    if parent is None:
        return None
    previous: Optional[Element] = None
    for child in parent.children:
        if child is element:
            return previous
        if isinstance(child, Element):
            previous = child
    return None


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
_IDENT = r"[a-zA-Z_][\w-]*"
_TOKEN_RE = re.compile(
    rf"""
      (?P<combinator>\s*[>+~]\s*|\s+)
    | (?P<tag>\*|{_IDENT})
    | \#(?P<id>{_IDENT})
    | \.(?P<class>{_IDENT})
    | \[(?P<attr>[^\]]+)\]
    | :(?P<pseudo>[a-zA-Z-]+)(?:\((?P<arg>[^)]*)\))?
    """,
    re.VERBOSE,
)
_ATTR_BODY_RE = re.compile(
    rf"""^\s*(?P<name>{_IDENT})\s*
         (?:(?P<op>[~^$*]?=)\s*
            (?:"(?P<dq>[^"]*)"|'(?P<sq>[^']*)'|(?P<bare>[^\s\]]+))\s*)?$""",
    re.VERBOSE,
)


def _parse_complex(text: str) -> tuple[_Step, ...]:
    steps: list[_Step] = []
    pending_combinator = " "
    tag: Optional[str] = None
    ids: list[str] = []
    classes: list[str] = []
    attrs: list[_AttrTest] = []
    nth: Optional[int] = None
    nth_child: Optional[int] = None
    last_of_type = False
    have_compound = False

    def flush() -> None:
        nonlocal tag, ids, classes, attrs, nth, nth_child, last_of_type, \
            have_compound, pending_combinator
        if not have_compound:
            raise SelectorError(f"dangling combinator in {text!r}")
        steps.append(
            _Step(
                combinator=pending_combinator,
                compound=_Compound(
                    tag=tag,
                    ids=tuple(ids),
                    classes=tuple(classes),
                    attrs=tuple(attrs),
                    nth_of_type=nth,
                    nth_child=nth_child,
                    last_of_type=last_of_type,
                ),
            )
        )
        tag, ids, classes, attrs, nth = None, [], [], [], None
        nth_child, last_of_type = None, False
        have_compound = False

    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise SelectorError(f"cannot parse selector at {text[pos:]!r}")
        pos = match.end()
        if match.group("combinator") is not None:
            if pos >= len(text):
                raise SelectorError(f"trailing combinator in {text!r}")
            combinator = match.group("combinator").strip() or " "
            flush()
            pending_combinator = combinator
            continue
        if match.group("tag") is not None:
            if have_compound and tag is not None:
                raise SelectorError(f"two type selectors in one compound: {text!r}")
            tag = match.group("tag").lower()
        elif match.group("id") is not None:
            ids.append(match.group("id"))
        elif match.group("class") is not None:
            classes.append(match.group("class"))
        elif match.group("attr") is not None:
            attrs.append(_parse_attr(match.group("attr")))
        elif match.group("pseudo") is not None:
            kind, value = _parse_pseudo(
                match.group("pseudo"), match.group("arg"), text
            )
            if kind == "nth-of-type":
                nth = value
            elif kind == "nth-child":
                nth_child = value
            else:  # last-of-type
                last_of_type = True
        have_compound = True
    flush()
    if steps and steps[0].combinator != " ":
        raise SelectorError(f"selector starts with combinator: {text!r}")
    return tuple(steps)


def _parse_attr(body: str) -> _AttrTest:
    match = _ATTR_BODY_RE.match(body)
    if match is None:
        raise SelectorError(f"bad attribute selector [{body}]")
    op = match.group("op") or ""
    value = ""
    if op:
        for key in ("dq", "sq", "bare"):
            if match.group(key) is not None:
                value = match.group(key)
                break
    return _AttrTest(name=match.group("name").lower(), op=op, value=value)


def _parse_pseudo(
    name: str, arg: Optional[str], source: str
) -> tuple[str, int]:
    name = name.lower()
    if name == "first-of-type":
        return "nth-of-type", 1
    if name == "last-of-type":
        return "last-of-type", 0
    if name == "first-child":
        return "nth-child", 1
    if name in ("nth-of-type", "nth-child"):
        if arg is None:
            raise SelectorError(f":{name} needs an argument in {source!r}")
        try:
            n = int(arg.strip())
        except ValueError as exc:
            raise SelectorError(f"bad :{name}({arg}) in {source!r}") from exc
        if n < 1:
            raise SelectorError(f":{name} must be >= 1 in {source!r}")
        return name, n
    raise SelectorError(f"unsupported pseudo-class :{name}")


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
@lru_cache(maxsize=2048)
def compiled_selector(text: str) -> Selector:
    """:meth:`Selector.parse`, once per distinct selector text.

    The program applies a handful of selector texts (templates' price
    selectors, anchors, the decoy and catalog lists) to page after page;
    a parsed :class:`Selector` is immutable, so every caller shares it.
    An unparseable text raises :class:`SelectorError` on every call.
    """
    return Selector.parse(text)


def select(root: Union[Document, Element], selector: Union[str, Selector]) -> list[Element]:
    """All elements matching ``selector`` under ``root``."""
    if isinstance(selector, str):
        selector = compiled_selector(selector)
    return selector.select(root)


def select_one(
    root: Union[Document, Element], selector: Union[str, Selector]
) -> Optional[Element]:
    """First element matching ``selector`` under ``root``, or ``None``."""
    if isinstance(selector, str):
        selector = compiled_selector(selector)
    return selector.select_one(root)


def matches(element: Element, selector: Union[str, Selector]) -> bool:
    """True if ``element`` matches ``selector``."""
    if isinstance(selector, str):
        selector = compiled_selector(selector)
    return selector.matches(element)
