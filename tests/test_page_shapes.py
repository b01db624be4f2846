"""Page shapes: each product-page shape rendered once, filled per request.

Pins what the shape path (:mod:`repro.htmlmodel.shape`,
:func:`repro.ecommerce.templates.render_shape`, the retailer's render
memo and :mod:`repro.core.extraction`) promises:

* **fill equals render** -- a filled page's HTML equals ``to_html`` of a
  plain render of the same view byte for byte, and its tree equals that
  render in tags, attributes, texts and element paths: every template
  family and the churning template on days 0-3, every locale, logged in
  and out, 0-4 decoys, and slot values that need escaping or are empty;
* **resolution equals the walk** -- extraction on a filled page returns
  the same :class:`ExtractedPrice` as on a parse of the page's body,
  while resolving a shape-safe anchor once per shape, and anchor
  derivation returns the same :class:`PriceAnchor`, deriving each node's
  selector once per shape;
* **shape-resolved anchors** -- :func:`anchor_for_selector` on a filled
  page equals ``derive_anchor`` on a parse of its body, on the first
  fill and on later ones, which build no tree: every template family,
  the churning template on days 0-3, logged in and out; a shape with a
  slot in ``id``/``class`` or a selector reading a slot attribute walks
  every page; a selector matching nothing raises where it did; and
  extraction's and anchor derivation's per-shape facts cannot evict
  each other's;
* **lazy trees** -- a filled page builds its tree only when something
  walks it: an element's text read from the shape's plan equals its text
  on the built tree for every element path, a campaign builds one tree
  per prepared click (the user's page), a backend check on a shape whose
  anchor is resolved builds none, and the served check stream walks each
  anchor page's shape once, not once per check;
* **bounds** -- a shape keeps at most ``PageShape.BODIES`` bodies, also
  for a retailer whose prices change with every request, and a filled
  document, built or not, is freed once its response is dropped.
"""

from __future__ import annotations

import gc
import importlib.util
import weakref
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import personal
from repro.analysis.personal import derive_anchor_for_domain
from repro.core import extraction, highlight
from repro.core.backend import CheckRequest, SheriffBackend
from repro.core.extension import SheriffExtension
from repro.core.extraction import extract_price_from_document
from repro.core.highlight import PriceAnchor, anchor_for_selector, derive_anchor
from repro.crawler import plan as crawl_plan
from repro.crowd.campaign import CampaignConfig, run_campaign
from repro.ecommerce.catalog import generate_catalog
from repro.ecommerce.localization import LOCALES
from repro.ecommerce.pricing import PricingContext
from repro.ecommerce.retailer import Retailer, RetailerServer
from repro.ecommerce.templates import (
    TEMPLATE_FAMILIES,
    ProductView,
    render_shape,
    selector_on_day,
    slot_values,
)
from repro.ecommerce.thirdparty import TRACKER_CENSUS
from repro.ecommerce.world import WorldConfig, build_world
from repro.fx.rates import RateService
from repro.htmlmodel.build import E, document
from repro.htmlmodel.dom import Document, Element, NodePath, Text
from repro.htmlmodel.parser import parse_html
from repro.htmlmodel.selectors import SelectorError, select_one
from repro.htmlmodel.serialize import to_html
from repro.htmlmodel.shape import PageShape, slot_marker
from repro.net.geoip import IPAddressPlan
from repro.net.http import Headers, HttpRequest
from repro.net.urls import URL
from repro.scenarios import ChurningTemplate

_CATALOG = generate_catalog("shop.example", "clothing", 6, seed=1)

#: (id, template, day): every family, and the churning template on the
#: four days that rotate it through every family.
_TEMPLATES = [(t.name, t, 0) for t in TEMPLATE_FAMILIES] + [
    (f"churning-day{day}", ChurningTemplate(seed=5), day) for day in range(4)
]

#: Slot values that need escaping in text and attributes, or are empty.
_HOSTILE = (
    ('x"&<y>', "", '<b>&"1,00</b>', ("", "&amp;", '"q"', "<>")),
    ("", "&", "", ("a&b", "", "<", ">")),
)


def _values(locale, decoys: int) -> tuple[str, str, str, tuple[str, ...]]:
    return (
        locale.code,
        locale.currency.code,
        locale.format_price(1234.5),
        tuple(locale.format_price(10.0 + i) for i in range(decoys)),
    )


def _cases(decoys: int):
    """Every locale's strings, then the hostile ones, for ``decoys`` decoys."""
    for locale in LOCALES.values():
        yield _values(locale, decoys)
    for lang, currency, price, texts in _HOSTILE:
        yield lang, currency, price, texts[:decoys]


def _view(day: int, decoys: int, user, lang, currency, price, texts) -> ProductView:
    return ProductView(
        retailer_name="Test & Shop",
        domain="shop.example",
        product=_CATALOG.products[0],
        price_text=price,
        lang=lang,
        currency_code=currency,
        recommended=tuple(zip(_CATALOG.products[1:1 + decoys], texts)),
        trackers=TRACKER_CENSUS[:3],
        structural_seed=11 + day,
        logged_in_user=user,
        day_index=day,
    )


def assert_same_tree(filled, rendered) -> None:
    """Equal tags, attributes (in order), texts and element paths.

    The roots are both documents: a filled page's is a
    :class:`FilledDocument`, the subclass that builds its tree on demand.
    """
    ours, theirs = list(filled.iter()), list(rendered.iter())
    assert len(ours) == len(theirs)
    assert isinstance(ours[0], Document) and isinstance(theirs[0], Document)
    for mine, other in zip(ours[1:], theirs[1:]):
        assert type(mine) is type(other)
        if isinstance(mine, Element):
            assert mine.tag == other.tag
            assert list(mine.attrs.items()) == list(other.attrs.items())
            assert mine.node_path() == other.node_path()
        elif isinstance(mine, Text):
            assert mine.data == other.data


# ----------------------------------------------------------------------
# Fill equals render
# ----------------------------------------------------------------------
class TestFillEqualsRender:
    @pytest.mark.parametrize("template,day", [(t, d) for _, t, d in _TEMPLATES],
                             ids=[name for name, _, _ in _TEMPLATES])
    def test_every_locale_login_and_decoy_count(self, template, day):
        for user in (None, "alice"):
            for decoys in range(5):
                first = next(_cases(decoys))
                shape = render_shape(template, _view(day, decoys, user, *first))
                for lang, currency, price, texts in _cases(decoys):
                    view = _view(day, decoys, user, lang, currency, price, texts)
                    rendered = template.render(view)
                    filled, body = shape.fill(
                        slot_values(lang, currency, price, texts))
                    assert body == to_html(rendered), (lang, price, texts)
                    assert_same_tree(filled, rendered)
                    assert filled.shape is shape

    def test_equal_values_share_one_body(self):
        template = TEMPLATE_FAMILIES[0]
        values = _values(LOCALES["DE"], 4)
        shape = render_shape(template, _view(0, 4, None, *values))
        first_tree, first = shape.fill(slot_values(*values))
        again_tree, again = shape.fill(slot_values(*values))
        assert again is first
        assert again_tree is not first_tree


class TestShapeSlots:
    @staticmethod
    def _page(a: str, b: str, c: str, d: str):
        return document(E(
            "html", {"lang": a},
            E("head", None, E("script", None, f"var p = '{b}';"),
              E("style", None, c)),
            E("body", {"class": "x"},
              E("p", {"title": d, "data-x": f"n {b} m"}, f"<{a}> & {d}"),
              E("input", {"value": c}))))

    def test_text_attribute_and_raw_slots_match_serialize(self):
        shape = PageShape(self._page(*(slot_marker(i) for i in range(4))), 4)
        for values in (("en", "</script>", "a{}", 'q"&'),
                       ("", "", "", ""), ('"', "<&>", " ", "é")):
            rendered = self._page(*values)
            filled, body = shape.fill(values)
            assert body == to_html(rendered)
            assert_same_tree(filled, rendered)

    def test_empty_whole_attribute_serializes_bare(self):
        shape = PageShape(self._page(*(slot_marker(i) for i in range(4))), 4)
        _, body = shape.fill(("", "b", "", ""))
        assert body.startswith("<html lang>")
        assert "<p title data-x=" in body and "<input value>" in body
        assert shape.slot_attributes == {"lang", "title", "data-x", "value"}

    def test_marker_outside_text_and_attribute_values_raises(self):
        with pytest.raises(ValueError, match="tag"):
            PageShape(document(E("div", None, Element(f"x{slot_marker(0)}"))), 1)
        with pytest.raises(ValueError, match="attribute name"):
            PageShape(document(E("div", {slot_marker(0): "v"})), 1)
        with pytest.raises(ValueError, match="beyond"):
            PageShape(document(E("p", None, slot_marker(2))), 2)

    def test_fill_needs_one_value_per_slot(self):
        shape = PageShape(document(E("p", None, slot_marker(0))), 1)
        with pytest.raises(ValueError, match="1 slots"):
            shape.fill(("a", "b"))


# ----------------------------------------------------------------------
# Resolution equals the walk
# ----------------------------------------------------------------------
def _fills(template, decoys: int = 4):
    """One shape and its fill for every locale: (shape, [(doc, body)])."""
    shape = render_shape(
        template, _view(0, decoys, None, *_values(LOCALES["US"], decoys)))
    pages = [shape.fill(slot_values(*_values(locale, decoys)))
             for locale in LOCALES.values()]
    return shape, pages


def _assert_same_as_parsed(pages, anchor) -> list:
    results = []
    for page, body in pages:
        ours = extract_price_from_document(page, anchor)
        assert ours == extract_price_from_document(parse_html(body), anchor)
        results.append(ours)
    return results


@pytest.fixture()
def walks(monkeypatch):
    """Count full resolutions (selector walk, then node-path fallback) of
    anchors on filled pages."""
    calls = []
    walk = extraction._walk

    def counted(document, anchor):
        if document.shape is not None:
            calls.append(anchor)
        return walk(document, anchor)

    monkeypatch.setattr(extraction, "_walk", counted)
    return calls


class TestResolutionEqualsWalk:
    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_derived_anchor_resolves_once_per_shape(self, template, walks):
        shape, pages = _fills(template)
        first = pages[0][0]
        anchor = derive_anchor(first, select_one(first, template.price_selector))
        results = _assert_same_as_parsed(pages, anchor)
        assert all(r.ok for r in results)
        assert len(walks) == 1

    def test_ambiguous_class_selector_breaks_ties_by_path(self, walks):
        classic = TEMPLATE_FAMILIES[0]
        shape, pages = _fills(classic)
        price = select_one(pages[0][0], classic.price_selector)
        anchor = PriceAnchor(selector="span.price",
                             node_path=str(price.node_path()), sample_text="")
        results = _assert_same_as_parsed(pages, anchor)
        assert {r.method for r in results} == {"selector"}
        assert results[0].raw_text == LOCALES["US"].format_price(1234.5)
        assert len(walks) == 1

    def test_selector_matching_nothing_falls_back_to_path(self, walks):
        grid = TEMPLATE_FAMILIES[1]
        shape, pages = _fills(grid)
        price = select_one(pages[0][0], grid.price_selector)
        anchor = PriceAnchor(selector="#no-such-price",
                             node_path=str(price.node_path()), sample_text="")
        results = _assert_same_as_parsed(pages, anchor)
        assert {r.method for r in results} == {"node-path"}
        assert len(walks) == 1

    def test_selector_reading_a_slot_attribute_walks_every_page(self, walks):
        classic = TEMPLATE_FAMILIES[0]
        shape, pages = _fills(classic)
        assert "lang" in shape.slot_attributes
        price = select_one(pages[0][0], classic.price_selector)
        anchor = PriceAnchor(selector='html[lang="en-US"] #product-price',
                             node_path=str(price.node_path()), sample_text="")
        results = _assert_same_as_parsed(pages, anchor)
        # Only the en-US pages match the selector; the rest fall back to
        # the path -- one shape, two outcomes.
        assert {r.method for r in results} == {"selector", "node-path"}
        assert len(walks) == len(pages)


class TestDerivationEqualsWalk:
    @pytest.mark.parametrize("template", TEMPLATE_FAMILIES, ids=lambda t: t.name)
    def test_anchor_derived_once_per_shape(self, template, monkeypatch):
        from repro.core import highlight

        calls = []
        derive = highlight._derive_unique_selector

        def counted(document, element):
            calls.append(element)
            return derive(document, element)

        monkeypatch.setattr(highlight, "_derive_unique_selector", counted)
        shape, pages = _fills(template)
        for page, body in pages:
            parsed = parse_html(body)
            for selector in (template.price_selector, "span, td, p"):
                ours = derive_anchor(page, select_one(page, selector))
                theirs = derive_anchor(parsed, select_one(parsed, selector))
                assert ours == theirs
        # Two highlighted nodes: each derived once on the shape, and once
        # on every parsed page.
        assert len(calls) == 2 + 2 * len(pages)


@pytest.fixture()
def builds(monkeypatch):
    """Count the trees filled pages build, one entry per build."""
    calls = []
    build = PageShape._build

    def counted(shape, *args):
        calls.append(shape)
        return build(shape, *args)

    monkeypatch.setattr(PageShape, "_build", counted)
    return calls


# ----------------------------------------------------------------------
# Shape-resolved anchors
# ----------------------------------------------------------------------
def _anchor_pages(template, day: int, user):
    """A 4-decoy shape of ``template`` on ``day`` for ``user`` and its fill
    for every locale and hostile case: (shape, [(doc, body)])."""
    shape = render_shape(template, _view(day, 4, user, *next(_cases(4))))
    return shape, [shape.fill(slot_values(*case)) for case in _cases(4)]


def _walked_anchor(body: str, selector: str):
    """The anchor of ``selector``'s first match on a parse of ``body``."""
    parsed = parse_html(body)
    element = select_one(parsed, selector)
    return None if element is None else derive_anchor(parsed, element)


class TestShapeResolvedAnchor:
    @pytest.mark.parametrize("user", [None, "alice"],
                             ids=["logged-out", "logged-in"])
    @pytest.mark.parametrize("template,day", [(t, d) for _, t, d in _TEMPLATES],
                             ids=[name for name, _, _ in _TEMPLATES])
    def test_equals_derivation_on_a_built_tree(self, template, day, user,
                                               builds):
        price = selector_on_day(template, day)
        for selector in (price, "span, td, p"):
            builds.clear()
            shape, pages = _anchor_pages(template, day, user)
            for page, body in pages:
                ours = anchor_for_selector(page, selector)
                assert ours is not None
                assert ours == _walked_anchor(body, selector)
            # The first fill walks its tree; the later fills build none.
            assert builds == [shape]

    def test_slot_in_id_or_class_walks_every_page(self, builds):
        def page(kind: str, price: str):
            return document(E("html", None, E("body", None, E(
                "div", {"class": f"box {kind}"},
                E("span", {"id": "price"}, price)))))

        shape = PageShape(page(slot_marker(0), slot_marker(1)), 2)
        assert "class" in shape.slot_attributes
        values = [("sale", "1,00"), ("plain", "2,00"), ("sale", "3,00")]
        for kind, price in values:
            filled, body = shape.fill((kind, price))
            for selector in ("#price", "div.sale span"):
                ours = anchor_for_selector(filled, selector)
                assert ours == _walked_anchor(body, selector)
        assert len(builds) == len(values)

    def test_selector_reading_a_slot_attribute_walks_every_page(self, builds):
        classic = TEMPLATE_FAMILIES[0]
        shape, pages = _anchor_pages(classic, 0, None)
        assert "lang" in shape.slot_attributes
        selector = 'html[lang="en-US"] #product-price'
        found = [anchor_for_selector(page, selector) for page, _ in pages]
        assert found == [_walked_anchor(body, selector) for _, body in pages]
        # Only the en-US pages match: one shape, two outcomes.
        assert None in found and any(found)
        assert len(builds) == len(pages)

    def test_selector_matching_nothing_raises_as_before(self, builds,
                                                        monkeypatch):
        shape, pages = _anchor_pages(TEMPLATE_FAMILIES[1], 0, None)
        assert [anchor_for_selector(page, "#no-such-price")
                for page, _ in pages] == [None] * len(pages)
        assert builds == [shape]
        with pytest.raises(SelectorError):
            anchor_for_selector(pages[0][0], "div[")

        world = build_world(WorldConfig(catalog_scale=0.15,
                                        long_tail_domains=0))
        domain = "www.digitalrev.com"
        product = world.retailer(domain).catalog.products[0]
        monkeypatch.setattr(personal, "selector_on_day",
                            lambda template, day: "#no-such-price")
        monkeypatch.setattr(crawl_plan, "selector_on_day",
                            lambda template, day: "#no-such-price")
        # The first call walks the page, the second reads the shape.
        for _ in range(2):
            with pytest.raises(RuntimeError, match="cannot locate price"):
                derive_anchor_for_domain(world, domain)
            with pytest.raises(crawl_plan.PlanError,
                               match="could not locate the price"):
                crawl_plan._derive_retailer_anchor(
                    world, domain, f"http://{domain}{product.path}")
        monkeypatch.setattr(personal, "selector_on_day",
                            lambda template, day: "div[")
        with pytest.raises(SelectorError):
            derive_anchor_for_domain(world, domain)

    def test_extraction_and_anchor_facts_cannot_evict_each_other(
            self, builds):
        classic = TEMPLATE_FAMILIES[0]
        selector = classic.price_selector
        shape, pages = _anchor_pages(classic, 0, None)
        first = pages[0][0]
        anchor = anchor_for_selector(first, selector)
        assert extract_price_from_document(first, anchor).ok
        # Far more extraction anchors than extraction keeps per shape ...
        for index in range(3 * extraction._SHAPE_ANCHORS):
            extract_price_from_document(first, PriceAnchor(
                selector=None, node_path=f"/0/1/{index}", sample_text=""))
        builds.clear()
        page, body = pages[1]
        assert anchor_for_selector(page, selector) == _walked_anchor(
            body, selector)
        assert builds == []  # ... leave the highlight resolved,
        # and far more highlights than a shape keeps ...
        assert extract_price_from_document(first, anchor).ok
        for index in range(3 * highlight._SHAPE_FACTS):
            assert anchor_for_selector(first, f"#no-such-{index}") is None
        builds.clear()
        assert extract_price_from_document(pages[2][0], anchor) == (
            extract_price_from_document(parse_html(pages[2][1]), anchor))
        assert builds == []  # ... leave extraction's resolution.


# ----------------------------------------------------------------------
# Lazy trees
# ----------------------------------------------------------------------


class TestLazyTrees:
    @pytest.mark.parametrize("template,day", [(t, d) for _, t, d in _TEMPLATES],
                             ids=[name for name, _, _ in _TEMPLATES])
    def test_plan_text_equals_tree_text(self, template, day, builds):
        walked = 0
        for user in (None, "alice"):
            for decoys in range(5):
                first = next(_cases(decoys))
                shape = render_shape(template, _view(day, decoys, user, *first))
                pieces: dict = {}
                for case in _cases(decoys):
                    values = slot_values(*case)
                    tree, _ = shape.fill(values)
                    page, _ = shape.fill(values)
                    walked += 1
                    for element in tree.iter_elements():
                        path = element.node_path()
                        if path not in pieces:
                            pieces[path] = shape.text_pieces(path)
                        text = page.join(pieces[path])
                        assert text == element.text(), (path, case)
                        assert text.strip() == (
                            tree.find_by_path(path).text(strip=True))
                for path in (NodePath(()), NodePath((5,)),
                             max(pieces, key=lambda p: p.depth).child(0)):
                    assert tree.find_by_path(path) is None
                    assert shape.text_pieces(path) is None
        # Reading text from the plan built none of the read pages' trees.
        assert len(builds) == walked

    def test_plan_text_skips_script_and_style(self, builds):
        page = TestShapeSlots._page
        shape = PageShape(page(*(slot_marker(i) for i in range(4))), 4)
        for values in (("en", "</script>", "a{}", 'q"&'),
                       ("", "", "", ""), ('"', "<&>", " ", "é")):
            filled, _ = shape.fill(values)
            for element in page(*values).iter_elements():
                pieces = shape.text_pieces(element.node_path())
                assert filled.join(pieces) == element.text()
        assert builds == []

    def test_extraction_reads_stripped_text_without_scripts(self, builds):
        def page(price: str):
            return document(E("html", None, E("body", None, E(
                "div", {"id": "price"}, "\n  ", E("script", None, "var p = 9;"),
                E("b", None, price), E("style", None, "b {}"), " EUR \n"))))

        shape = PageShape(page(slot_marker(0)), 1)
        anchor = PriceAnchor(selector="#price", node_path="/0/0/0",
                             sample_text="")
        for price in ("12,50", "7,00", "1.234,00"):
            filled, body = shape.fill((price,))
            ours = extract_price_from_document(filled, anchor)
            assert ours == extract_price_from_document(parse_html(body), anchor)
            assert ours.raw_text == f"{price} EUR"
        assert len(builds) == 1

    def test_built_tree_equals_render(self, builds):
        template = TEMPLATE_FAMILIES[0]
        values = _values(LOCALES["JP"], 4)
        view = _view(0, 4, "alice", *values)
        page, _ = render_shape(template, view).fill(slot_values(*values))
        assert builds == []
        assert_same_tree(page, template.render(view))
        assert builds == [page.shape]

    def test_campaign_builds_one_tree_per_prepared_click(
            self, builds, monkeypatch):
        counts = {"prepared": 0, "fills": 0}
        prepare, fill = SheriffExtension.prepare_check, PageShape.fill

        def counted_prepare(extension, *args, **kwargs):
            counts["prepared"] += 1
            return prepare(extension, *args, **kwargs)

        def counted_fill(shape, values):
            counts["fills"] += 1
            return fill(shape, values)

        monkeypatch.setattr(SheriffExtension, "prepare_check", counted_prepare)
        monkeypatch.setattr(PageShape, "fill", counted_fill)
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=10))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        dataset = run_campaign(
            world, backend,
            CampaignConfig(n_checks=40, population_size=20, seed=11))
        assert counts["prepared"] == 40
        assert sum(record.report is not None for record in dataset) > 30
        assert counts["fills"] > 10 * counts["prepared"]
        # The user's page is walked (highlight, anchor derivation); every
        # vantage page is read from its shape's plan.
        assert len(builds) == counts["prepared"]

    def test_check_on_a_resolved_shape_builds_no_tree(self, builds):
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
        backend = SheriffBackend(world.network, world.vantage_points,
                                 world.rates)
        domain = "www.digitalrev.com"
        product = world.retailer(domain).catalog.products[0]
        request = CheckRequest(url=f"http://{domain}{product.path}",
                               anchor=derive_anchor_for_domain(world, domain))
        builds.clear()
        backend.check(request)
        assert len(builds) == 1  # the shape's first resolution walks a tree
        builds.clear()
        report = backend.check(request)
        assert len(report.observations) == 14
        assert all(obs.ok for obs in report.observations)
        assert builds == []

    def test_served_stream_walks_each_anchor_shape_once(
            self, builds, monkeypatch, tmp_path):
        """The benchmark's seed-1 stream of served checks, in process: the
        anchor step builds one tree per anchor page shape, not one per
        check (2,250 of the stream's builds when every check walked)."""
        from repro.serve.service import SheriffService

        inputs_path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", inputs_path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        stream = inputs.serve_stream(1, 2250)

        anchor_shapes, anchor_builds = [], []
        resolve = personal.anchor_for_selector

        def traced(document, selector):
            before = len(builds)
            anchor = resolve(document, selector)
            anchor_shapes.append(document.shape)
            anchor_builds.extend(builds[before:])
            return anchor

        monkeypatch.setattr(personal, "anchor_for_selector", traced)
        service = SheriffService(scale="tiny", data_dir=tmp_path)
        for body in stream:
            service.check(body)

        # Shapes stay referenced by the lists, so their ids are unique.
        shapes = {id(shape): shape for shape in anchor_shapes}
        assert len(anchor_shapes) == len(stream)
        assert sorted(map(id, anchor_builds)) == sorted(shapes)
        # A day-scoped memo renders an anchor page at most twice: once
        # into its FIFO, and once more if it ages out before promotion.
        domains = {body["domain"] for body in stream}
        assert len(domains) <= len(shapes) <= 2 * len(domains)
        # Every other build is some shape's first extraction resolution.
        renders = sum(server.render_cache_stats()["render_misses"]
                      for server in service.world.servers.values())
        assert len(builds) - len(anchor_builds) <= renders
        assert len(builds) < 200


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _NoncePricing:
    """A price that changes with every request (the per-request nonce)."""

    def signals(self):
        return frozenset({"nonce"})

    def price(self, product, ctx: PricingContext) -> float:
        return product.base_price_usd * (1.0 + (ctx.nonce % 100_000) / 1e6)


def _server(policy) -> tuple[RetailerServer, IPAddressPlan]:
    plan = IPAddressPlan()
    retailer = Retailer(
        domain="shop.example", name="Test Shop", category="clothing",
        catalog=_CATALOG, policy=policy, template=TEMPLATE_FAMILIES[2],
    )
    return RetailerServer(retailer, geoip=plan.database(),
                          rates=RateService(), seed=1), plan


def _get(server, plan, product, *, timestamp: float = 0.0):
    return server.handle(HttpRequest(
        method="GET", url=URL.parse(f"http://shop.example{product.path}"),
        headers=Headers(), client_ip=plan.allocate("DE"), timestamp=timestamp,
    ))


class TestBounds:
    def test_nonce_priced_retailer_stays_within_body_bound(self):
        server, plan = _server(_NoncePricing())
        product = _CATALOG.products[0]
        bodies = {_get(server, plan, product, timestamp=float(i)).body
                  for i in range(1000)}
        assert len(bodies) > 10 * PageShape.BODIES  # the bound was pushed
        (shape,) = (server.render_memo.get(key) for key in server.render_memo)
        assert len(shape._bodies) <= PageShape.BODIES
        stats = server.render_cache_stats()
        assert (stats["render_hits"], stats["render_misses"]) == (999, 1)

    def test_filled_document_freed_with_its_response(self):
        """An unbuilt document, and a built one with every node of its
        tree, are freed by reference counting alone."""
        server, plan = _server(_NoncePricing())
        for built in (False, True):
            response = _get(server, plan, _CATALOG.products[1])
            assert response.document.shape is not None
            refs = [weakref.ref(response.document)]
            if built:
                refs = [weakref.ref(node) for node in response.document.iter()]
                assert len(refs) > 50
            gc.collect()
            gc.disable()
            try:
                del response
                assert [ref for ref in refs if ref() is not None] == []
            finally:
                gc.enable()
