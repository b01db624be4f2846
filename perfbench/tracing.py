"""Spans and probes the benchmark installs inside the program's process.

The program has no spans of its own, so the benchmark records them from
its own files: every public call named in :data:`SPANS` is replaced, in
every namespace its callers look it up in, by a wrapper that records a
span.  Several of those functions are imported by name into their
callers (``to_html`` in ``repro.ecommerce.retailer``,
``extract_price_from_document`` in ``repro.core.backend`` and
``repro.core.extension``, ``parse_html`` in ``repro.analysis.personal``,
``capture_run_state`` in ``repro.crowd.campaign`` ...), so a module-level
function is swapped in every loaded ``repro`` module that holds it.  A
wrapper that never fires shows up as lost ``trace.coverage``, not as a
silent gap.

Untraced runs install only :class:`Probe`: one thread-CPU-time timer
around ``SheriffBackend.run_scheduled_check`` (the per-check time of the
campaign and job workloads) and weak registries of worlds and backends,
read once at the end for the traffic properties.

Spans are kept in memory as ``[id, name, start, end, parent, request]``
rows and written out when the run ends.  ``request`` is the id of the
outermost span on the thread, so the spans of one served check, one
crowd click or one fan-out share it.  A call nested inside a span of
the same name (``parse_html_cached`` calling ``parse_html``) is folded
into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import weakref

#: span -> the public calls it times ("module:attribute path").
SPANS: dict[str, tuple[str, ...]] = {
    "crowd.prepare": ("repro.core.extension:SheriffExtension.prepare_check",),
    "core.fanout": ("repro.core.backend:SheriffBackend.run_scheduled_check",),
    "core.memo.plan": ("repro.core.burstcache:BurstCache.plan",),
    "core.memo.store": ("repro.core.burstcache:BurstCache.after_live",),
    "net.fetch": ("repro.net.vantage:VantagePoint.fetch",),
    "ecommerce.render": ("repro.ecommerce.retailer:RetailerServer.handle",),
    "htmlmodel.serialize": ("repro.htmlmodel.serialize:to_html",),
    "htmlmodel.parse": (
        "repro.htmlmodel.parser:parse_html",
        "repro.htmlmodel.parser:parse_html_cached",
    ),
    "core.extract": (
        "repro.core.extraction:extract_price_from_document",
        "repro.core.extraction:extract_price",
    ),
    "core.archive": ("repro.core.store:PageStore.archive",),
    "serve.check": ("repro.serve.service:SheriffService.check",),
    "serve.anchor": ("repro.analysis.personal:derive_anchor_for_domain",),
    "serve.job_status": ("repro.serve.service:SheriffService.job_status",),
    "checkpoint.capture": ("repro.checkpoint.state:capture_run_state",),
    "checkpoint.commit": ("repro.checkpoint.runner:RunCheckpoint.commit_segment",),
    "store.append": ("repro.store.table:ReportTable.append",),
    "store.materialize": ("repro.store.table:ReportTable.report",),
    "io.load": ("repro.io:load_dataset",),
    "io.save": ("repro.io:save_crowd_dataset",),
    "analysis.clean": ("repro.analysis.cleaning:clean_reports",),
    "analysis.kernels": (
        "repro.analysis.extent:variation_extent",
        "repro.analysis.ratios:domain_ratio_stats",
        "repro.analysis.locations:location_ratio_stats",
        "repro.analysis.locations:finland_profile",
    ),
}

#: Counters and shares reported beside the spans (all from the traced run).
EXTRAS: dict[str, str] = {
    "core.memo.hit_share": "ratio",
    "core.memo.live_only_share": "ratio",
    "net.fetch.errors": "count",
    "ecommerce.render.memo_hit_share": "ratio",
    "core.extract.failed": "count",
    "core.archive.pages_resident": "count",
    "core.archive.bodies_retained": "count",
    "serve.http_ms": "ms",
    "checkpoint.segments": "count",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_ms"] = "ms"
    units.update(EXTRAS)
    return units


def _resolve(target: str):
    """``"mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _swap(target: str, make_wrapper) -> None:
    """Replace ``target`` everywhere callers can look it up."""
    owner, attr = _resolve(target)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, attr, None) is original
        ):
            setattr(module, attr, wrapper)


class Probe:
    """What every run installs: check timer, registries, end-of-run totals.

    Worlds and backends are read when ``run_campaign`` returns, when the
    service closes and when :meth:`totals` is called, whichever comes
    first for each object.
    """

    def __init__(self, *, time_checks: bool) -> None:
        self.time_checks = time_checks
        #: CPU time of each fan-out on its own thread: garbage collection
        #: counts, time the box or another thread held the CPU does not.
        self.check_ms: list[float] = []
        #: The ``check_id`` of each timed fan-out (its call position when
        #: the schedule entry has none), so runs can be matched check by check.
        self.check_ids: list = []
        self.fanouts = 0
        # Not yet folded; weak, so the benchmark never extends a lifetime.
        self.worlds: list[weakref.ref] = []
        self.backends: list[weakref.ref] = []
        self._totals: dict[str, float] = {}

    def install(self) -> None:
        from repro.core.backend import SheriffBackend
        from repro.ecommerce.world import World

        self._register(World, self.worlds)
        self._register(SheriffBackend, self.backends)
        probe = self

        def timed(original):
            @functools.wraps(original)
            def run_scheduled_check(*args, **kwargs):
                probe.fanouts += 1
                if not probe.time_checks:
                    return original(*args, **kwargs)
                sched = args[1] if len(args) > 1 else kwargs.get("sched")
                probe.check_ids.append(
                    getattr(sched, "check_id", len(probe.check_ids)))
                start = time.thread_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    probe.check_ms.append((time.thread_time() - start) * 1e3)
            return run_scheduled_check

        def snapshot_at_end(original):
            @functools.wraps(original)
            def run_campaign(world, backend, *args, **kwargs):
                dataset = original(world, backend, *args, **kwargs)
                probe.fold(world, backend)
                return dataset
            return run_campaign

        def snapshot_at_close(original):
            @functools.wraps(original)
            def close(*args, **kwargs):
                probe.fold_live()
                return original(*args, **kwargs)
            return close

        _swap("repro.core.backend:SheriffBackend.run_scheduled_check", timed)
        _swap("repro.crowd.campaign:run_campaign", snapshot_at_end)
        _swap("repro.serve.service:SheriffService.close", snapshot_at_close)

    @staticmethod
    def _register(cls, registry) -> None:
        original = cls.__init__

        @functools.wraps(original)
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            registry.append(weakref.ref(self))

        cls.__init__ = __init__

    def fold(self, world=None, backend=None) -> None:
        """Add one world's and one backend's end-of-run counters, once.

        Every stats call is looked up with ``getattr``: a program that has
        dropped one of these APIs loses that traffic property, not the run.
        """
        totals = self._totals
        if _take(self.worlds, world):
            for server in getattr(world, "servers", {}).values():
                render = _stats(server, "render_cache_stats")
                _add(totals, "render_hits", render.get("render_hits", 0))
                _add(totals, "render_misses", render.get("render_misses", 0))
        if _take(self.backends, backend):
            memo = _stats(getattr(backend, "burst_cache", None), "stats")
            _add(totals, "memo_hits", memo.get("hits", 0))
            _add(totals, "memo_live_only", memo.get("bypass_live_only", 0))
            store = getattr(backend, "store", None)
            if store is not None:
                _add(totals, "pages_resident", len(store))
                retained = getattr(store, "retained_html_count", None)
                if retained is not None:
                    _add(totals, "bodies_retained", retained())

    def fold_live(self) -> None:
        """Fold every registered world and backend still alive."""
        for ref in list(self.worlds):
            self.fold(world=ref())
        for ref in list(self.backends):
            self.fold(backend=ref())

    def totals(self) -> dict[str, float]:
        """Counters of every campaign that ended, service that closed, and
        world or backend still alive."""
        self.fold_live()
        totals = dict(self._totals)
        totals["fanouts"] = self.fanouts
        return totals


def _add(totals: dict, key: str, value) -> None:
    totals[key] = totals.get(key, 0) + value


def _take(registry: list, obj) -> bool:
    """Remove ``obj`` from a weak registry; False if it was not there."""
    for i, ref in enumerate(registry):
        if obj is not None and ref() is obj:
            del registry[i]
            return True
    return False


def _stats(obj, method: str) -> dict:
    call = getattr(obj, method, None)
    return call() if call is not None else {}


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = {
            "net.fetch.errors": 0,
            "core.extract.failed": 0,
            "io.bytes_read": 0,
            "io.bytes_written": 0,
        }
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        for name, targets in SPANS.items():
            for target in targets:
                _swap(target, functools.partial(self._wrap, name))

    def _wrap(self, name: str, original):
        recorder = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            if stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [next(recorder._ids), name, time.perf_counter(), 0.0,
                    parent[0] if parent else 0, 0]
            span[5] = parent[5] if parent else span[0]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception:
                if name == "net.fetch":
                    recorder.counters["net.fetch.errors"] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if observe is not None:
                observe(recorder.counters, args, kwargs, result)
            return result

        return spanned

    def write(self, path: str) -> None:
        """Write spans as JSON lines: [id, name, start, end, parent, request]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def _extract_observed(counters, args, kwargs, result) -> None:
    if not getattr(result, "ok", False) or getattr(result, "amount", None) is None:
        counters["core.extract.failed"] += 1


def _load_observed(counters, args, kwargs, result) -> None:
    counters["io.bytes_read"] += os.path.getsize(args[0])


def _save_observed(counters, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["io.bytes_written"] += os.path.getsize(path)


_OBSERVERS = {
    "core.extract": _extract_observed,
    "io.load": _load_observed,
    "io.save": _save_observed,
}


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans: list[list]) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_ms`` for every span in SPANS.

    Self time is a span's duration minus the durations of its direct
    children; spans that never fired report zero.
    """
    child_s: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_ms"] = 0.0
    for span_id, name, start, end, _, _ in spans:
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_ms"] += (end - start - child_s.get(span_id, 0.0)) * 1e3
    return metrics


def coverage(spans: list[list], window: tuple[float, float]) -> float:
    """Share of ``window`` covered by outermost spans (any thread)."""
    lo, hi = window
    intervals = sorted(
        (max(start, lo), min(end, hi))
        for _, _, start, end, parent, _ in spans
        if not parent and end > lo and start < hi
    )
    covered, reach = 0.0, lo
    for start, end in intervals:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered / (hi - lo) if hi > lo else 0.0


def span_seconds(spans: list[list], name: str) -> float:
    """Total wall time of every span called ``name``."""
    return sum(end - start for _, span_name, start, end, _, _ in spans
               if span_name == name)
