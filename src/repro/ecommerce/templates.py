"""Per-retailer HTML page templates.

The paper's challenge §2.2(i): "Different retailers have different web
templates ... a simple search for dollar or euro sign would fail since
typically product pages include additional recommended or advertised
products along with their prices."

So templates here are adversarial on purpose:

* four structurally different families (id-anchored, class-anchored,
  table-based, boutique) -- a selector that works on one fails on others;
* every page carries 4+ *decoy prices* (recommended products, sometimes
  using the same class as the real price), so naive regex extraction is
  wrong more often than right;
* promo banners whose count varies between renders, shifting structural
  node paths while leaving semantic anchors intact.

Templates build :mod:`repro.htmlmodel` DOM trees.  The retailer server
renders each page *shape* once (:func:`render_shape`: the render with slot
markers in place of the view's per-request strings) and fills it per
request (:func:`slot_values`), which yields the bytes and tree a plain
render of the request's view would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

from repro.ecommerce.catalog import Product
from repro.ecommerce.localization import Locale
from repro.ecommerce.thirdparty import ThirdParty
from repro.htmlmodel.build import E, T, document
from repro.htmlmodel.dom import Document, Element
from repro.htmlmodel.shape import PageShape, slot_marker
from repro.util import stable_hash, stable_rng

__all__ = [
    "ProductView",
    "PageTemplate",
    "ClassicTemplate",
    "GridTemplate",
    "TableTemplate",
    "BoutiqueTemplate",
    "TEMPLATE_FAMILIES",
    "template_for",
    "selector_on_day",
    "render_shape",
    "slot_values",
    "render_index_page",
]


@dataclass(frozen=True)
class ProductView:
    """Everything a template needs to render one product page.

    The *per-request strings* are ``lang`` (the display locale's tag, e.g.
    ``en-US``), ``currency_code`` (its ISO code), ``price_text`` and the
    text of each ``recommended`` decoy: the only fields that differ
    between the requests of one page shape (:func:`render_shape`).

    ``day_index`` is the server-side request day.  Static template
    families ignore it (their structure only varies through
    ``structural_seed``, which already folds the day in); day-aware
    templates -- the scenario layer's churning template that swaps
    families between days -- dispatch on it.
    """

    retailer_name: str
    domain: str
    product: Product
    price_text: str
    lang: str
    currency_code: str
    recommended: Sequence[tuple[Product, str]] = ()
    trackers: Sequence[ThirdParty] = ()
    structural_seed: int = 0
    logged_in_user: Optional[str] = None
    day_index: int = 0


class PageTemplate(Protocol):
    """A renderer from :class:`ProductView` to a DOM document.

    The contract page shapes rest on: a template places each per-request
    string of the view (``lang``, ``currency_code``, ``price_text``, the
    decoy texts) verbatim, as the whole or a part of a text or an
    attribute value, and never branches on one.  Every other field may
    shape the page freely.
    """

    name: str
    #: The selector that *would* robustly locate the price on this
    #: template.  Never consumed by $heriff (which derives selectors from
    #: the highlighted node); used by tests as ground truth.
    price_selector: str

    def render(self, view: ProductView) -> Document:  # pragma: no cover
        """Render one product page for ``view``."""
        ...


# ----------------------------------------------------------------------
# Shared chrome
# ----------------------------------------------------------------------
_NAV_SECTIONS = ("New In", "Bestsellers", "Sale", "Gift Cards", "Stores", "Help")


def _head(view: ProductView) -> Element:
    head = E("head", None,
             E("meta", {"charset": "utf-8"}),
             E("title", None, f"{view.product.name} | {view.retailer_name}"))
    for tracker in view.trackers:
        head.append(E("script", {"src": tracker.script_url(), "async": ""}))
    return head


def _nav(view: ProductView) -> Element:
    nav = E("nav", {"class": "site-nav"})
    ul = E("ul", {"class": "nav-list"})
    for section in _NAV_SECTIONS:
        slug = section.lower().replace(" ", "-")
        ul.append(E("li", {"class": "nav-item"},
                    E("a", {"href": f"/c/{slug}"}, section)))
    nav.append(ul)
    return nav


def _header(view: ProductView) -> Element:
    header = E("header", {"class": "site-header"},
               E("a", {"href": "/", "class": "logo"}, view.retailer_name))
    if view.logged_in_user:
        header.append(E("span", {"class": "account"},
                        f"Hello, {view.logged_in_user}"))
    else:
        header.append(E("a", {"href": "/login", "class": "account"}, "Sign in"))
    header.append(_nav(view))
    return header


def _breadcrumbs(view: ProductView) -> Element:
    return E("div", {"class": "breadcrumbs"},
             E("a", {"href": "/"}, "Home"), T(" / "),
             E("a", {"href": f"/c/{view.product.category}"},
               view.product.category.replace("-", " ").title()),
             T(" / "),
             E("span", {"class": "crumb-current"}, view.product.name))


def _promo_banners(view: ProductView) -> list[Element]:
    """0-3 promo banners; the count varies with the structural seed.

    This is the structural-instability noise: node paths recorded on one
    render shift on another, while id/class anchors survive.
    """
    rng = stable_rng(view.structural_seed, view.domain, "banners")
    count = rng.randint(0, 3)
    banners = []
    slogans = ("Free returns within 30 days", "Sign up for 10% off",
               "New season arrivals", "Members save more")
    for index in range(count):
        banners.append(E("div", {"class": "promo-banner"},
                         slogans[(index + rng.randint(0, 3)) % len(slogans)]))
    return banners


def _recommendations(view: ProductView, *, price_class: str) -> Element:
    """The decoy block: sibling products with visible prices."""
    section = E("section", {"class": "recommendations"},
                E("h3", None, "Customers also viewed"))
    grid = E("div", {"class": "reco-grid"})
    for product, price_text in view.recommended:
        grid.append(
            E("div", {"class": "reco-card"},
              E("a", {"href": product.path, "class": "reco-link"}, product.name),
              E("span", {"class": price_class}, price_text))
        )
    section.append(grid)
    return section


def _footer(view: ProductView) -> Element:
    footer = E("footer", {"class": "site-footer"},
               E("p", None, f"© 2013 {view.retailer_name}. All prices as displayed."))
    for tracker in view.trackers:
        if tracker.kind == "social":
            footer.append(E("div", {"class": f"widget widget-{tracker.name.lower()}",
                                    "data-src": tracker.domain}))
    return footer


def _page(view: ProductView, *body_children: Element) -> Document:
    body = E("body", {"class": "product-page"})
    body.append(_header(view))
    for banner in _promo_banners(view):
        body.append(banner)
    for child in body_children:
        body.append(child)
    body.append(_footer(view))
    return document(E("html", {"lang": view.lang}, _head(view), body))


# ----------------------------------------------------------------------
# Template families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClassicTemplate:
    """Id-anchored mainstream template.

    The real price carries ``id="product-price"`` -- but the decoy prices
    share its ``price`` class, so class-only extraction grabs the wrong
    node ~4 times out of 5.
    """

    name: str = "classic"
    price_selector: str = "#product-price"

    def render(self, view: ProductView) -> Document:
        """Render one product page for ``view``."""
        product = view.product
        main = E("div", {"id": "product", "class": "product-detail"},
                 _breadcrumbs(view),
                 E("h1", {"class": "product-title"}, product.name),
                 E("div", {"class": "sku-line"}, f"Item {product.sku}"),
                 E("div", {"class": "price-box"},
                   E("span", {"class": "price-label"}, "Price:"),
                   E("span", {"id": "product-price", "class": "price"},
                     view.price_text)),
                 E("button", {"class": "add-to-cart"}, "Add to cart"),
                 E("div", {"class": "product-description"},
                   f"The {product.name} is part of our "
                   f"{product.category.replace('-', ' ')} range."))
        return _page(view, main, _recommendations(view, price_class="price"))


@dataclass(frozen=True)
class GridTemplate:
    """Class-anchored template with no ids anywhere."""

    name: str = "grid"
    price_selector: str = "div.product-main div.price-box span.value"

    def render(self, view: ProductView) -> Document:
        """Render one product page for ``view``."""
        product = view.product
        main = E("div", {"class": "product-main"},
                 _breadcrumbs(view),
                 E("div", {"class": "gallery"},
                   E("img", {"src": f"/img/{product.sku}.jpg",
                             "alt": product.name})),
                 E("div", {"class": "info-column"},
                   E("h2", {"class": "title"}, product.name),
                   E("div", {"class": "price-box"},
                     E("span", {"class": "currency-note"},
                       view.currency_code),
                     E("span", {"class": "value"}, view.price_text)),
                   E("span", {"class": "availability in-stock"}, "In stock"),
                   E("button", {"class": "buy"}, "Buy now")))
        return _page(view, main, _recommendations(view, price_class="reco-price"))


@dataclass(frozen=True)
class TableTemplate:
    """Old-school table layout (several of the paper's niche .it shops)."""

    name: str = "table"
    price_selector: str = "table.product-table td.prc"

    def render(self, view: ProductView) -> Document:
        """Render one product page for ``view``."""
        product = view.product
        table = E("table", {"class": "product-table"},
                  E("tr", None,
                    E("td", {"class": "lbl"}, "Article"),
                    E("td", {"class": "val"}, product.name)),
                  E("tr", None,
                    E("td", {"class": "lbl"}, "Code"),
                    E("td", {"class": "val"}, product.sku)),
                  E("tr", None,
                    E("td", {"class": "lbl"}, "Price"),
                    E("td", {"class": "prc"}, view.price_text)),
                  E("tr", None,
                    E("td", {"class": "lbl"}, "Shipping"),
                    E("td", {"class": "val"}, "calculated at checkout")))
        main = E("div", {"class": "content"},
                 _breadcrumbs(view),
                 E("h1", None, product.name),
                 table,
                 E("form", {"action": "/cart", "method": "post"},
                   E("input", {"type": "submit", "value": "Order"})))
        return _page(view, main, _recommendations(view, price_class="prc"))


@dataclass(frozen=True)
class BoutiqueTemplate:
    """Minimalist boutique template; price in a bare paragraph."""

    name: str = "boutique"
    price_selector: str = "article.product p.item-price"

    def render(self, view: ProductView) -> Document:
        """Render one product page for ``view``."""
        product = view.product
        article = E("article", {"class": "product"},
                    E("h1", {"class": "item-name"}, product.name),
                    E("p", {"class": "item-ref"}, f"Ref. {product.sku}"),
                    E("p", {"class": "item-price"}, view.price_text),
                    E("p", {"class": "item-note"},
                      "Taxes included where applicable. Shipping not included."),
                    E("a", {"href": "/cart", "class": "order-link"}, "Order"))
        return _page(view, _breadcrumbs(view), article,
                     _recommendations(view, price_class="item-price"))


TEMPLATE_FAMILIES: tuple[PageTemplate, ...] = (
    ClassicTemplate(),
    GridTemplate(),
    TableTemplate(),
    BoutiqueTemplate(),
)


def template_for(domain: str, *, seed: int = 0) -> PageTemplate:
    """Deterministically assign a template family to a retailer domain."""
    index = stable_hash(seed, domain, "template") % len(TEMPLATE_FAMILIES)
    return TEMPLATE_FAMILIES[index]


def selector_on_day(template: PageTemplate, day_index: int) -> str:
    """The ground-truth price selector ``template`` serves on a day.

    Static families answer their ``price_selector``; day-aware templates
    (the scenario layer's churning template swaps families between days)
    expose ``selector_for_day`` and are dispatched through it.  Every
    stand-in for human eyes -- the crawl operator's anchor step, a crowd
    user's highlight -- goes through this one helper so it cannot pin a
    churning retailer to its day-0 structure.
    """
    chooser = getattr(template, "selector_for_day", None)
    if chooser is not None:
        return chooser(day_index)
    return template.price_selector


def render_shape(template: PageTemplate, view: ProductView) -> PageShape:
    """The page shape of ``view``: ``template``'s render of it with a slot
    marker in place of each per-request string.

    Every view that differs from ``view`` only in its per-request strings
    has this shape; :meth:`PageShape.fill` with its :func:`slot_values`
    gives the bytes and tree of its render.
    """
    decoys = len(view.recommended)
    marked = replace(
        view,
        lang=slot_marker(0),
        currency_code=slot_marker(1),
        price_text=slot_marker(2),
        recommended=tuple(
            (product, slot_marker(3 + index))
            for index, (product, _) in enumerate(view.recommended)
        ),
    )
    return PageShape(template.render(marked), slots=3 + decoys)


def slot_values(
    lang: str,
    currency_code: str,
    price_text: str,
    decoy_texts: Sequence[str],
) -> tuple[str, ...]:
    """A view's per-request strings in the slot order of :func:`render_shape`."""
    return (lang, currency_code, price_text, *decoy_texts)


# ----------------------------------------------------------------------
# Checkout page (§2.2: shipping/tax revealed only at checkout)
# ----------------------------------------------------------------------
def render_checkout_page(
    retailer_name: str,
    product: Product,
    *,
    item_text: str,
    shipping_text: str,
    tax_text: str,
    total_text: str,
    locale: Locale,
) -> Document:
    """The itemized checkout quote the attribution analysis scrapes.

    The line classes (``td.line-label`` / ``td.line-value`` with a
    ``data-line`` tag) are stable across retailers -- checkout flows are
    far less template-diverse than product pages, which is also true of
    the real web the paper measured.
    """

    def line(name: str, label: str, value: str) -> Element:
        return E("tr", {"class": "quote-line", "data-line": name},
                 E("td", {"class": "line-label"}, label),
                 E("td", {"class": "line-value"}, value))

    table = E("table", {"class": "checkout-summary"},
              line("item", "Item", item_text),
              line("shipping", "Shipping", shipping_text),
              line("tax", "Tax / VAT", tax_text),
              line("total", "Order total", total_text))
    body = E("body", {"class": "checkout-page"},
             E("h1", None, f"{retailer_name} — checkout"),
             E("p", {"class": "checkout-item"}, product.name),
             table,
             E("p", {"class": "checkout-note"},
               "Duties, if any, are settled with your customs authority."))
    head = E("head", None,
             E("meta", {"charset": "utf-8"}),
             E("title", None, f"Checkout | {retailer_name}"))
    return document(E("html", {"lang": locale.code}, head, body))


# ----------------------------------------------------------------------
# Index page (crawler discovery)
# ----------------------------------------------------------------------
def render_index_page(
    retailer_name: str,
    domain: str,
    products: Sequence[Product],
    *,
    locale: Locale,
) -> Document:
    """The site's catalog listing: product links without prices.

    The crawler uses this page to discover product URLs, the way the
    authors seeded their crawl from site maps and category listings.
    """
    listing = E("ul", {"class": "catalog-list"})
    for product in products:
        listing.append(E("li", {"class": "catalog-item"},
                         E("a", {"href": product.path}, product.name)))
    body = E("body", {"class": "index-page"},
             E("header", {"class": "site-header"},
               E("a", {"href": "/", "class": "logo"}, retailer_name)),
             E("h1", None, f"{retailer_name} catalog"),
             listing,
             E("footer", {"class": "site-footer"}, f"© 2013 {retailer_name}"))
    head = E("head", None,
             E("meta", {"charset": "utf-8"}),
             E("title", None, f"{retailer_name} — catalog"))
    return document(E("html", {"lang": locale.code}, head, body))
