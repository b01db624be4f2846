"""RetailerServer cache machinery: the world render memo, counters, setters.

The render memo is the layer *below* the burst memo: it dedupes identical
renders.  One 2Q :class:`RenderMemo` serves every server of a world.  These
tests pin its bound (retained trees never exceed FIFO + LRU capacity, however
many servers render), its promotion rule, its day scope (a new day drops
the old one's LRU pages and ghost keys, its FIFO pages age out), its
transparency (bodies are
byte-identical after eviction), its server-identity keying, that a dropped
world is freed without the cycle collector, and the session-state accessor
guards the executors rely on.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.ecommerce.retailer import RenderMemo
from repro.ecommerce.world import WorldConfig, build_world

_MAX_RESIDENT = RenderMemo.FIFO_ENTRIES + RenderMemo.LRU_ENTRIES


def _server_and_world():
    world = build_world(WorldConfig(catalog_scale=1.0, long_tail_domains=0))
    return world, world.servers["www.digitalrev.com"]


def _product_request(world, domain, product, *, vantage=0, timestamp=0.0):
    point = world.vantage_points[vantage]
    return point.build_request(
        f"http://{domain}{product.path}", now=timestamp
    )


def _render(world, server, product, **kwargs):
    request = _product_request(world, server.retailer.domain, product, **kwargs)
    response = server.handle(request)
    assert response.ok
    return response


def _counters(server):
    stats = server.render_cache_stats()
    return stats["render_hits"], stats["render_misses"]


class TestWorldRenderMemo:
    def test_retained_trees_bounded_across_servers(self):
        """Two passes over every product page of a world: the second pass
        promotes remembered keys until the LRU overflows, yet the memo
        never holds more than FIFO + LRU trees, shared by all servers."""
        world = build_world(
            WorldConfig(catalog_scale=0.2, long_tail_domains=20)
        )
        memo = world.render_memo
        pages = [
            (server, product)
            for server in world.servers.values()
            for product in server.retailer.catalog.products
        ]
        assert RenderMemo.LRU_ENTRIES < len(pages) < RenderMemo.GHOST_KEYS
        peak = 0
        for _ in range(2):
            for server, product in pages:
                _render(world, server, product)
                peak = max(peak, len(memo))
        assert all(s.render_memo is memo for s in world.servers.values())
        assert peak == len(memo) == _MAX_RESIDENT
        assert sum(
            s.render_cache_stats()["render_entries"]
            for s in world.servers.values()
        ) == len(memo)

    def test_stats_consistent_under_eviction(self):
        """hits + misses == product-page renders, even after eviction;
        re-rendering pages still in the FIFO hits."""
        world, server = _server_and_world()
        products = server.retailer.catalog.products
        renders = 0
        for day in range(4):
            for product in products:
                _render(world, server, product, timestamp=day * 86400.0)
                renders += 1
        # The last FIFO_ENTRIES pages of day 3 are still resident.
        recent = products[-RenderMemo.FIFO_ENTRIES:]
        hits_before, _ = _counters(server)
        for product in recent:
            _render(world, server, product, timestamp=3 * 86400.0)
            renders += 1
        hits, misses = _counters(server)
        assert hits + misses == renders
        assert hits - hits_before == len(recent)
        assert server.render_cache_stats()["render_entries"] <= _MAX_RESIDENT

    def test_key_leaving_fifo_is_promoted_and_hits_on_third_request(self):
        world, server = _server_and_world()
        products = server.retailer.catalog.products
        target, others = products[0], products[1:RenderMemo.FIFO_ENTRIES + 1]
        _render(world, server, target)
        for product in others:  # push the target out into the ghost list
            _render(world, server, product)
        assert _counters(server) == (0, RenderMemo.FIFO_ENTRIES + 1)
        _render(world, server, target)  # ghost hit: re-rendered, promoted
        assert _counters(server) == (0, RenderMemo.FIFO_ENTRIES + 2)
        for product in products[RenderMemo.FIFO_ENTRIES + 1:]:
            _render(world, server, product)  # flush the FIFO again
        hits, misses = _counters(server)
        _render(world, server, target)
        assert _counters(server) == (hits + 1, misses)

    def test_new_day_drops_past_day_pages_and_ghosts(self):
        """Storing a day d+1 page drops every day-d LRU page and ghost
        key; day-d FIFO pages leave as day d+1 pages push them out, and
        2Q promotion works on the new day exactly as on the old one."""
        world, server = _server_and_world()
        memo = world.render_memo
        products = server.retailer.catalog.products
        target, others = products[0], products[1:RenderMemo.FIFO_ENTRIES + 5]

        def promote(day: int) -> int:
            """Push the target (and a few more keys) out to the ghosts,
            promote the target, and return how many hits its next request
            scores (1 = served from the LRU)."""
            timestamp = day * 86400.0
            _render(world, server, target, timestamp=timestamp)
            for product in others:
                _render(world, server, product, timestamp=timestamp)
            _render(world, server, target, timestamp=timestamp)
            hits, _ = _counters(server)
            _render(world, server, target, timestamp=timestamp)
            return _counters(server)[0] - hits

        assert promote(0) == 1
        fifo_zero = list(memo._fifo)
        day_zero = set(memo) | set(memo._ghosts)
        assert len(day_zero) > len(fifo_zero) and memo._lru
        _render(world, server, products[-1], timestamp=86400.0)
        # The LRU and the ghosts are gone; the new page pushed the oldest
        # day-0 FIFO page out, which leaves its key as the only ghost.
        assert not memo._lru
        assert list(memo._ghosts) == fifo_zero[:1]
        assert list(memo._fifo)[:-1] == fifo_zero[1:]
        assert promote(1) == 1
        assert not set(memo) & day_zero
    def test_body_identical_after_eviction(self):
        """An evicted-and-rerendered page is byte-identical to its first
        render (the memo is transparent)."""
        world, server = _server_and_world()
        products = server.retailer.catalog.products
        first = _render(world, server, products[0])
        for day in range(1, 3):
            for product in products:
                _render(world, server, product, timestamp=day * 86400.0)
        again = _render(world, server, products[0])
        assert again.document is not first.document  # really re-rendered
        assert again.body == first.body

    def test_reregistered_domain_never_gets_replaced_servers_page(self):
        """A replacement server whose view fields all match the old one's
        (same catalog, prices, seed) still renders its own page."""
        world, server = _server_and_world()
        product = server.retailer.catalog.products[0]
        old_body = _render(world, server, product).body
        renamed = replace(server.retailer, name="Renamed Lens Outlet")
        replacement = world.register_retailer(renamed)
        assert replacement is not server
        assert replacement.render_memo is world.render_memo
        body = _render(world, replacement, product).body
        assert "Renamed Lens Outlet" in body
        assert body != old_body
        assert _counters(replacement) == (0, 1)

    def test_dropped_world_freed_by_reference_counting(self):
        """Neither the memo nor its trees form cycles: a world that has
        rendered pages is freed the moment it is dropped."""
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
        server = world.servers["www.digitalrev.com"]
        for product in server.retailer.catalog.products:
            _render(world, server, product)
        refs = [weakref.ref(world), weakref.ref(world.render_memo)]
        del server
        gc.collect()
        gc.disable()
        try:
            del world
            assert [ref() for ref in refs] == [None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_scenario_servers_share_the_world_memo(self):
        from repro.scenarios import get_scenario

        world = get_scenario("cloaking").build_world()
        assert world.servers
        for server in world.servers.values():
            assert server.render_memo is world.render_memo


class TestRequestCountAccessor:
    def test_setter_rejects_negative(self):
        _, server = _server_and_world()
        with pytest.raises(ValueError, match="cannot be negative"):
            server.request_count = -1

    def test_setter_roundtrip(self):
        world, server = _server_and_world()
        server.request_count = 41
        assert server.request_count == 41
        product = server.retailer.catalog.products[0]
        server.handle(_product_request(world, server.retailer.domain, product))
        assert server.request_count == 42
