"""The $heriff backend: synchronized fan-out, extraction, archiving.

§3.1 steps (iii)-(vi): when a check arrives, the exact URI is requested
from the 14 vantage points "around the world" in a tight, synchronized
burst (reducing the chance that observed variation is temporal spread --
§2.2), each downloaded page is archived, the price is extracted at the
anchored location, parsed with the vantage point's locale as a hint,
converted to USD at the day's mid market rate, and the per-location prices
are returned to the user as a :class:`~repro.core.reports.PriceCheckReport`.

Transient network failures are retried a bounded number of times; a vantage
point that stays unreachable yields a failed observation rather than
aborting the check.

Performance notes (the parse-once fan-out): simulated retailers attach
their page's document to the response (the *structured-fetch channel*,
``HttpResponse.document``), so :meth:`SheriffBackend._observe` extracts
straight from it and never re-parses the serialized body it just
archived; on a page filled from a shape whose anchor is resolved, it
reads the price text from the shape's plan and builds no tree.
String-only pages (crowd uploads, store replays) fall back to a
content-hash-keyed parse cache.  :meth:`SheriffBackend.check_batch` is the
primitive -- :meth:`SheriffBackend.check` is a batch of one -- and
amortizes URL parsing and the FX ``max_gap_ratio`` guard across a day's
burst of checks.

Scheduled execution (the shard/merge seam): a batch is first resolved into
:class:`ScheduledCheck` entries -- (index, check id, start time, request)
-- and each entry is executed by :meth:`SheriffBackend.run_scheduled_check`
on its *own* burst clock forked at the scheduled start time.  The world
clock never moves during a fan-out (the synchronized burst is instantaneous
from the campaign/crawl timeline's perspective), so a check's bytes depend
only on its schedule entry and the per-retailer state it touches, never on
what other checks ran before it.  That property lets an executor from
:mod:`repro.exec` partition a batch across workers by retailer and merge
the reports back in plan order, byte-identical to the sequential loop.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from repro.core.burstcache import BurstCache, BurstPlan
from repro.core.extraction import extract_price, extract_price_from_document
from repro.core.highlight import PriceAnchor
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.core.store import PageStore
from repro.ecommerce.localization import locale_for_country
from repro.fx.convert import Converter, max_gap_ratio
from repro.fx.rates import RateService
from repro.htmlmodel.parser import parse_cache_stats
from repro.net.clock import SECONDS_PER_DAY, VirtualClock
from repro.net.transport import Network, TransportError
from repro.net.urls import URL
from repro.net.vantage import VantagePoint

__all__ = ["CheckRequest", "ScheduledCheck", "SheriffBackend"]

_USD_ONLY = frozenset({"USD"})

#: Signature of an archive sink: receives exactly the keyword arguments of
#: :meth:`repro.core.store.PageStore.archive`, once per fetched page.
#: Executors substitute a buffering sink so every fetch can be replayed
#: into the real store in plan order regardless of which worker fetched
#: the page: the store's chain folds each one and its domain cap picks
#: the same pages to keep.
ArchiveSink = Callable[..., object]


@dataclass(frozen=True)
class CheckRequest:
    """What the extension sends to the backend."""

    url: str
    anchor: PriceAnchor
    origin: str = "anonymous"

    def __post_init__(self) -> None:
        URL.parse(self.url)  # validate eagerly; fail at submission time


@dataclass(frozen=True)
class ScheduledCheck:
    """One resolved entry of a batch: what to check, as whom, and when.

    ``index`` is the request's position in the submitted batch (the merge
    key); ``check_id`` is pre-assigned so workers need no shared counter;
    ``start_ts`` is the virtual instant the synchronized burst begins.
    The tuple is picklable -- process executors ship it to workers.
    """

    index: int
    check_id: str
    start_ts: float
    request: CheckRequest


class SupportsRun(Protocol):
    """What :meth:`SheriffBackend.check_batch` needs from an executor.

    Implementations live in :mod:`repro.exec`; ``run`` must return one
    report per schedule entry, in ``scheduled`` (= submission) order, and
    leave ``backend.store`` exactly as the inline loop would.
    """

    def run(
        self,
        backend: "SheriffBackend",
        scheduled: Sequence[ScheduledCheck],
        fleet: Sequence[VantagePoint],
        sink: Optional[Callable[[PriceCheckReport], None]] = None,
    ) -> list[PriceCheckReport]:  # pragma: no cover - protocol
        """Execute every entry and return reports in submission order.

        With a ``sink``, deliver each report to it in submission order
        instead of accumulating a list (and return an empty list).
        """
        ...


class SheriffBackend:
    """Fan-out coordinator over a fixed vantage-point fleet."""

    MAX_RETRIES = 2

    def __init__(
        self,
        network: Network,
        vantage_points: Sequence[VantagePoint],
        rates: RateService,
        *,
        store: Optional[PageStore] = None,
        burst_cache: Optional[BurstCache] = None,
    ) -> None:
        if not vantage_points:
            raise ValueError("backend needs at least one vantage point")
        self.network = network
        self.vantage_points = list(vantage_points)
        self.rates = rates
        self.converter = Converter(rates)
        self.store = store if store is not None else PageStore()
        self._next_check_number = 1
        # The guard depends only on (currencies seen, day); a day's burst of
        # checks over the same retailers recomputes it constantly otherwise.
        self._guard_cache: dict[tuple[int, frozenset[str]], float] = {}
        # Burst memo (repro.core.burstcache): whole-fan-out memoization for
        # signature-pure retailers, only where a caller hands one in (the
        # serving backend); None runs every check live.
        self.burst_cache = burst_cache
        self._structured_fetch_hits = 0

    # ------------------------------------------------------------------
    @property
    def next_check_number(self) -> int:
        """The number the next scheduled check's id will carry.

        Checkpoint resume restores this cursor so a resumed run assigns
        the same ``chk%07d`` ids an uninterrupted run would have.
        """
        return self._next_check_number

    @next_check_number.setter
    def next_check_number(self, value: int) -> None:
        if value < 1:
            raise ValueError("next_check_number must be >= 1")
        self._next_check_number = int(value)

    # ------------------------------------------------------------------
    def check(
        self,
        request: CheckRequest,
        *,
        vantage_points: Optional[Sequence[VantagePoint]] = None,
    ) -> PriceCheckReport:
        """Run one synchronized price check and return the report."""
        return self.check_batch([request], vantage_points=vantage_points)[0]

    def check_batch(
        self,
        requests: Sequence[CheckRequest],
        *,
        vantage_points: Optional[Sequence[VantagePoint]] = None,
        pacing_seconds: float = 0.0,
        start_times: Optional[Sequence[float]] = None,
        executor: Optional["SupportsRun"] = None,
        sink: Optional[Callable[[PriceCheckReport], None]] = None,
    ) -> list[PriceCheckReport]:
        """Run a burst of checks, amortizing per-day work across them.

        Checks are scheduled in order -- check *i* starts at
        ``now + i * pacing_seconds`` (crawler politeness), or at
        ``start_times[i]`` when an explicit schedule is given (the crowd
        campaign passes each click's own timestamp).  Each check's fan-out
        runs on a burst clock forked at its start time, so reports are
        byte-identical to a sequential loop no matter how the schedule is
        executed.  With the default pacing schedule the world clock ends at
        ``now + len(requests) * pacing_seconds``; an explicit schedule
        leaves the world clock to the caller.

        ``executor`` (see :mod:`repro.exec`) partitions the schedule across
        workers by retailer and merges reports back in plan order; ``None``
        runs the schedule inline.  Amortized across the batch either way:
        URL parsing (memoized), day-index math, and the FX
        ``max_gap_ratio`` guard (cached per currency-set and day).

        ``sink`` streams each report out in schedule order instead of
        accumulating a list (the crawl appends rows straight into the
        columnar dataset spine this way); the return value is then an
        empty list.
        """
        if pacing_seconds < 0:
            raise ValueError("pacing_seconds must be >= 0")
        requests = list(requests)  # the schedule build iterates twice
        fleet = list(vantage_points) if vantage_points else self.vantage_points
        clock = self.network.clock
        advance_after: Optional[float] = None
        if start_times is not None:
            if pacing_seconds:
                raise ValueError(
                    "pacing_seconds and start_times conflict: an explicit "
                    "schedule already fixes every check's start"
                )
            if len(start_times) != len(requests):
                raise ValueError("start_times must match requests 1:1")
            times = [float(ts) for ts in start_times]
        else:
            # Accumulate instead of multiplying: bit-identical to a loop
            # that advances the clock by pacing_seconds after each check.
            times = []
            tick = clock.now
            for _ in requests:
                times.append(tick)
                tick += pacing_seconds
            if pacing_seconds and requests:
                advance_after = tick
        scheduled = []
        for i, request in enumerate(requests):
            scheduled.append(
                ScheduledCheck(
                    index=i,
                    check_id=f"chk{self._next_check_number:07d}",
                    start_ts=times[i],
                    request=request,
                )
            )
            self._next_check_number += 1
        if executor is None:
            reports = []
            for sched in scheduled:
                report = self.run_scheduled_check(sched, fleet, self.store.archive)
                if sink is not None:
                    sink(report)
                else:
                    reports.append(report)
        else:
            reports = executor.run(self, scheduled, fleet, sink)
        if advance_after is not None:
            clock.advance_to(advance_after)
        return reports

    def run_scheduled_check(
        self,
        sched: ScheduledCheck,
        fleet: Sequence[VantagePoint],
        archive: ArchiveSink,
    ) -> PriceCheckReport:
        """Execute one schedule entry: the executor SPI.

        The fan-out runs on a private burst clock forked at
        ``sched.start_ts``; the world clock is untouched.  Every fetched
        page goes through ``archive`` (same keywords as
        :meth:`~repro.core.store.PageStore.archive`) so executors can
        buffer the fetches and replay them into the real store in plan
        order.  Given identical per-retailer state (vantage cookies for
        the URL's domain, the retailer server's request counter), the
        returned report is byte-identical wherever and whenever the entry
        runs -- the invariant every executor relies on.
        """
        url = URL.parse(sched.request.url)
        day_index = int(sched.start_ts // SECONDS_PER_DAY)
        cache = self.burst_cache
        plan: Optional[BurstPlan] = None
        if cache is not None:
            plan = cache.plan(self, sched, url, fleet)
            if plan is not None and plan.entry is not None and not plan.validate:
                return self._cached_burst_report(
                    sched, url, day_index, fleet, plan, archive
                )
        # Live fan-out.  A memo-candidate burst additionally records the
        # pricing signals the policy actually reads and captures what was
        # archived, so the cache can verify and store the outcome.
        live_archive = archive
        captured: list[dict] = []
        if plan is not None:

            def live_archive(**kwargs):
                captured.append(kwargs)
                return archive(**kwargs)

        recording = (
            plan.server.record_signal_reads()
            if plan is not None
            else nullcontext(set())
        )
        world_clock = self.network.clock
        self.network.clock = VirtualClock(sched.start_ts)
        try:
            with recording as reads:
                observations: list[VantageObservation] = []
                currencies_seen: set[str] = set()
                for vantage in fleet:
                    observations.append(
                        self._observe(vantage, url, sched.request.anchor,
                                      sched.check_id, day_index,
                                      currencies_seen, live_archive)
                    )
        finally:
            self.network.clock = world_clock
        guard = self._guard_threshold(currencies_seen, day_index)
        report = PriceCheckReport(
            check_id=sched.check_id,
            url=str(url),
            domain=url.host,
            day_index=day_index,
            timestamp=sched.start_ts,
            observations=observations,
            guard_threshold=guard,
            origin=sched.request.origin,
        )
        if plan is not None:
            cache.after_live(plan, fleet, report, captured, reads)
        return report

    def _cached_burst_report(
        self,
        sched: ScheduledCheck,
        url: URL,
        day_index: int,
        fleet: Sequence[VantagePoint],
        plan: BurstPlan,
        archive: ArchiveSink,
    ) -> PriceCheckReport:
        """Serve a memo hit: replayed archives + shared observations.

        Byte-identical to the live fan-out by construction: the archive
        timestamps come from the replayed delivery timeline, the page
        bodies and observations from an entry proven to be a pure
        function of the cache key.  No request is built and no server or
        session state is touched.
        """
        entry = plan.entry
        assert entry is not None
        url_text = str(url)
        for vantage, (_, archive_ts), html in zip(
            fleet, plan.timeline, entry.htmls
        ):
            archive(
                check_id=sched.check_id,
                url=url_text,
                domain=url.host,
                vantage=vantage.name,
                timestamp=archive_ts,
                html=html,
            )
        guard = self._guard_threshold(set(entry.currencies), day_index)
        return PriceCheckReport(
            check_id=sched.check_id,
            url=url_text,
            domain=url.host,
            day_index=day_index,
            timestamp=sched.start_ts,
            observations=list(entry.observations),
            guard_threshold=guard,
            origin=sched.request.origin,
        )

    def _guard_threshold(self, currencies: set[str], day_index: int) -> float:
        """Cached ``max_gap_ratio`` -- rates are immutable for a given day."""
        key = (day_index, frozenset(currencies) if currencies else _USD_ONLY)
        guard = self._guard_cache.get(key)
        if guard is None:
            guard = max_gap_ratio(self.rates, key[1], [day_index])
            self._guard_cache[key] = guard
        return guard

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss statistics of the caches behind the fan-out hot path.

        The ``parse_cache_*`` counters are *process-global* (the parse
        cache is shared by every backend in the process) and count
        **string pages only** -- crowd uploads and store replays that
        arrive without an attached DOM.  Simulated retailers deliver
        their rendered tree over the structured-fetch channel, which
        bypasses the parser entirely; ``structured_fetch_hits`` counts
        those, so a 0.0 parse-cache hit rate next to a large
        ``structured_fetch_hits`` means the parser had nothing to do, not
        that a cache failed.  The guard, store, and ``burst_*`` counters
        are this instance's own; a backend without a burst memo has no
        ``burst_*`` keys.
        """
        stats = {f"parse_cache_{k}": v for k, v in parse_cache_stats().items()}
        stats["structured_fetch_hits"] = self._structured_fetch_hits
        stats["guard_cache_entries"] = len(self._guard_cache)
        stats.update(self.store.dedup_stats())
        if self.burst_cache is not None:
            stats.update(
                {f"burst_{k}": v for k, v in self.burst_cache.stats().items()}
            )
        return stats

    # ------------------------------------------------------------------
    def _observe(
        self,
        vantage: VantagePoint,
        url: URL,
        anchor: PriceAnchor,
        check_id: str,
        day_index: int,
        currencies_seen: set[str],
        archive: ArchiveSink,
    ) -> VantageObservation:
        response = None
        errors: list[str] = []
        attempts = 0
        for _ in range(self.MAX_RETRIES + 1):
            attempts += 1
            try:
                response = vantage.fetch(self.network, url)
                break
            except TransportError as exc:
                message = str(exc)
                # Keep the first distinct cause; a retry that fails the
                # same way adds nothing to the diagnosis.
                if message not in errors:
                    errors.append(message)
        location = vantage.location
        if response is None:
            cause = errors[0] if errors else "unknown transport failure"
            return VantageObservation(
                vantage=vantage.name,
                country_code=location.country_code,
                city=location.city,
                ok=False,
                error=f"network: {cause} (after {attempts} attempts)",
            )
        if not response.ok:
            return VantageObservation(
                vantage=vantage.name,
                country_code=location.country_code,
                city=location.city,
                ok=False,
                error=f"http {int(response.status)}",
            )

        archive(
            check_id=check_id,
            url=str(url),
            domain=url.host,
            vantage=vantage.name,
            timestamp=self.network.clock.now,
            html=response.body,
        )

        locale = locale_for_country(location.country_code)
        if response.document is not None:
            # Structured-fetch fast path: the retailer attached this
            # page's document; the serialized body was archived above, but
            # there is nothing to learn from re-parsing it.
            self._structured_fetch_hits += 1
            extracted = extract_price_from_document(
                response.document, anchor, locale_hint=locale
            )
        else:
            extracted = extract_price(response.body, anchor, locale_hint=locale)
        if not extracted.ok or extracted.amount is None:
            return VantageObservation(
                vantage=vantage.name,
                country_code=location.country_code,
                city=location.city,
                ok=False,
                error=extracted.error or "extraction failed",
            )
        # A symbol-less price string falls back to the locale the retailer
        # would have displayed for this vantage point.
        currency = extracted.currency or locale.currency.code
        currencies_seen.add(currency)
        usd = self.converter.to_usd(extracted.amount, currency, day_index)
        return VantageObservation(
            vantage=vantage.name,
            country_code=location.country_code,
            city=location.city,
            ok=True,
            raw_text=extracted.raw_text,
            amount=extracted.amount,
            currency=currency,
            usd=usd,
            method=extracted.method,
        )
