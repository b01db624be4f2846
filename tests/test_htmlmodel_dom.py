"""Unit tests for the DOM node classes and tree operations."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.ecommerce.catalog import generate_catalog
from repro.ecommerce.localization import LOCALES
from repro.ecommerce.templates import TEMPLATE_FAMILIES, ProductView
from repro.htmlmodel.build import E, T, document
from repro.htmlmodel.dom import Document, Element, NodePath, Text
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.serialize import to_html


def make_tree() -> Document:
    return document(
        E("html", None,
          E("body", None,
            E("div", {"id": "a", "class": "box main"},
              E("p", None, T("hello "), E("b", None, "world")),
              E("p", {"class": "second"}, "again")),
            E("div", {"id": "b"}, "tail")))
    )


class TestTreeStructure:
    def test_children_have_parent(self):
        doc = make_tree()
        html = doc.children[0]
        assert html.parent is doc
        body = html.children[0]
        assert body.parent is html

    def test_append_reparents(self):
        a = E("div")
        b = E("div")
        child = E("span")
        a.append(child)
        b.append(child)
        assert child.parent is b
        assert child not in a.children

    def test_insert_at_index(self):
        parent = E("ul", None, E("li", None, "one"), E("li", None, "three"))
        middle = E("li", None, "two")
        parent.insert(1, middle)
        texts = [c.text() for c in parent.child_elements()]
        assert texts == ["one", "two", "three"]

    def test_remove_detaches(self):
        parent = E("div", None, E("span"))
        child = parent.children[0]
        parent.remove(child)
        assert child.parent is None
        assert not parent.children

    def test_remove_missing_raises(self):
        with pytest.raises(ValueError):
            E("div").remove(E("span"))

    def test_index_in_parent(self):
        parent = E("div", None, E("a"), E("b"), E("c"))
        assert parent.children[2].index_in_parent == 2

    def test_index_in_parent_detached_raises(self):
        with pytest.raises(ValueError):
            E("div").index_in_parent

    def test_ancestors_order(self):
        doc = make_tree()
        bold = next(e for e in doc.iter_elements() if e.tag == "b")
        tags = [getattr(a, "tag", "document") for a in bold.ancestors()]
        assert tags == ["p", "div", "body", "html", "document"]

    def test_root(self):
        doc = make_tree()
        bold = next(e for e in doc.iter_elements() if e.tag == "b")
        assert bold.root is doc


class TestIteration:
    def test_iter_document_order(self):
        doc = make_tree()
        tags = [e.tag for e in doc.iter_elements()]
        assert tags == ["html", "body", "div", "p", "b", "p", "div"]

    def test_child_elements_skips_text(self):
        parent = E("div", None, "text", E("span"), "more", E("em"))
        assert [e.tag for e in parent.child_elements()] == ["span", "em"]


class TestText:
    def test_text_concatenation(self):
        doc = make_tree()
        div = next(e for e in doc.iter_elements() if e.id == "a")
        assert div.text() == "hello worldagain"

    def test_text_separator_and_strip(self):
        doc = make_tree()
        div = next(e for e in doc.iter_elements() if e.id == "a")
        assert div.text(separator=" ", strip=True) == "hello  world again"

    def test_text_skips_script_and_style(self):
        tree = E("div", None,
                 E("script", None, "var x = 1;"),
                 E("style", None, ".a{}"),
                 E("span", None, "visible"))
        assert tree.text() == "visible"


class TestAttributes:
    def test_get_and_contains(self):
        el = E("div", {"id": "x", "data-v": "7"})
        assert el.get("data-v") == "7"
        assert el.get("missing") is None
        assert el.get("missing", "d") == "d"
        assert "id" in el
        assert "nope" not in el

    def test_classes(self):
        el = E("div", {"class": "a  b\tc"})
        assert el.classes == ("a", "b", "c")
        assert el.has_class("b")
        assert not el.has_class("z")

    def test_no_class_attribute(self):
        assert E("div").classes == ()


class TestNodePath:
    def test_roundtrip_through_document(self):
        doc = make_tree()
        for element in doc.iter_elements():
            path = element.node_path()
            assert doc.find_by_path(path) is element

    def test_str_parse_roundtrip(self):
        path = NodePath((0, 2, 1))
        assert NodePath.parse(str(path)) == path

    def test_parse_root(self):
        assert NodePath.parse("/") == NodePath(())

    @pytest.mark.parametrize("bad", ["", "0/1", "/a/b", "/-1", "/1.5"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            NodePath.parse(bad)

    def test_parent_and_child(self):
        path = NodePath((1, 2))
        assert path.parent() == NodePath((1,))
        assert path.child(0) == NodePath((1, 2, 0))
        assert NodePath(()).parent() == NodePath(())

    def test_child_rejects_negative(self):
        with pytest.raises(ValueError):
            NodePath(()).child(-1)

    def test_find_by_path_out_of_range(self):
        doc = make_tree()
        assert doc.find_by_path(NodePath((0, 0, 99))) is None

    def test_depth(self):
        assert NodePath((0, 1, 2)).depth == 3


class TestBuildHelpers:
    def test_string_children_become_text(self):
        el = E("p", None, "one", T("two"))
        assert isinstance(el.children[0], Text)
        assert el.text() == "onetwo"

    def test_bad_child_type_raises(self):
        with pytest.raises(TypeError):
            E("p", None, 42)  # type: ignore[arg-type]

    def test_repr_smoke(self):
        assert "div" in repr(E("div", {"id": "x", "class": "a"}))
        assert "Text" in repr(T("y" * 50))
        assert "Document" in repr(document())


class TestAcyclicTrees:
    """Parents are weak references: trees are freed by reference counting."""

    @staticmethod
    def _view() -> ProductView:
        catalog = generate_catalog("shop.example", "clothing", 6, seed=1)
        return ProductView(
            retailer_name="Test Shop",
            domain="shop.example",
            product=catalog.products[0],
            price_text="$19.99",
            locale=LOCALES["US"],
            recommended=[(p, "$5.00") for p in catalog.products[1:5]],
        )

    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_dropped_pages_need_no_cycle_collection(self, template):
        view = self._view()
        gc.collect()
        gc.disable()
        try:
            page = template.render(view)
            parsed = parse_html(to_html(page))
            refs = [weakref.ref(page), weakref.ref(parsed)]
            del page, parsed
            assert [ref() for ref in refs] == [None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_node_does_not_keep_ancestors_alive(self):
        doc = make_tree()
        bold = next(e for e in doc.iter_elements() if e.tag == "b")
        paragraph = bold.parent
        assert paragraph is not None and paragraph.tag == "p"
        del doc, paragraph
        assert bold.parent is None
        assert list(bold.ancestors()) == []
        assert bold.root is bold

    def test_reparenting_after_old_parent_died(self):
        child = E("span")
        E("div", None, child)  # the parent is dropped at once
        assert child.parent is None
        new_parent = E("p", None, child)
        assert child.parent is new_parent
        other = E("em")
        other.append(child)
        assert child.parent is other
        assert child not in new_parent.children
