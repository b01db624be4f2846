"""Burst memoization: an equivalence-keyed cache for whole fan-outs.

A crowd serving heavy traffic asks the backend for the *same* products
over and over: thousands of users click the same popular product on the
same day, and every click pays a full synchronized 14-vantage fan-out --
render, serialize, archive, extract, convert, times fourteen.  Most of
those bursts are equivalent.  For a retailer whose pricing policy reads
only *capturable* signals (vantage country/city, request day, browser --
:data:`~repro.ecommerce.pricing.CAPTURABLE_SIGNALS`), the response bytes
every vantage point receives are a pure function of a small
:class:`~repro.ecommerce.retailer.PricingSignature`; so is everything the
backend derives from them.  :class:`BurstCache` therefore memoizes the
entire burst outcome -- the :class:`~repro.core.reports.VantageObservation`
vector plus the archived page bodies -- keyed by

``(url, check day, origin class, anchor locators, per-vantage signature
vector)``

and replays cache hits without touching a single server.

Only a backend handed a :class:`BurstCache` memoizes, and only one
production caller hands it one: ``repro serve``'s on-demand check
backend, whose clients ask about the same hot products again and again.
Campaigns, crawls, reports and served jobs check each ``(url, day)``
about once, so they run without a memo -- and the process executor and
checkpointed runs refuse a backend that holds one, so memo state never
has to cross a process boundary or survive a kill.

Soundness is layered, never assumed:

* **Declaration.**  Each pricing policy declares the signals it reads
  (:meth:`~repro.ecommerce.pricing.PricingPolicy` ``signals()``); a
  retailer whose declaration names a non-capturable signal (identity,
  nonce, referer, ...) -- or that supports login, because the server
  itself keys pages on the auth cookie -- is *live-only*: every check
  runs the real fan-out and the cache never stores a byte.
* **Detection.**  Every store-candidate burst runs live with a
  :class:`~repro.ecommerce.pricing.SignalProbe` recording what the policy
  *actually* read.  Reads escaping the declared set (or, for undeclared
  policies, the capturable ceiling) demote the retailer to live-only on
  the spot and drop its entries -- a wrong declaration can mislabel a
  retailer but never corrupt an entry, because nothing is cached from the
  burst that exposed it.
* **Timeline replay.**  Latency/loss draws are a pure function of
  (seed, url, client IP, send instant) -- the PR-2 determinism contract
  -- so the cache re-derives each hit's exact delivery timeline with
  :meth:`~repro.net.transport.Network.delivery_draws` and stamps archives
  with the same timestamps the live fan-out would have produced.  An
  entry is only stored when the prediction matched the live burst
  byte-for-byte (which also rejects redirects, lost vantages, and HTTP
  errors); a hit whose replay shows an unreachable vantage falls back to
  the live path.
* **Cross-validation.**  ``validate_fraction`` re-runs that fraction of
  hits through the live fan-out anyway and raises
  :class:`BurstCacheDivergence` on any byte difference -- the sampled
  self-audit for long campaigns.

The memo lives one check day.  Keys embed the day the check starts, so
no later day can read an entry again; the first check planned on a new
day drops the old day's entries and per-vantage signature elements.
Residency is therefore bounded by one day's distinct bursts, however
long the run.

What a hit deliberately does not do: no requests are built, no cookie
jars are read or written, no server counters advance.  That is safe
precisely because the retailer was proven signature-pure -- none of that
state can influence its responses -- but process-wide telemetry
(``Network.request_count``) and per-server request counters will sit
below their live-path values when the memo is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.ecommerce.retailer import RetailerServer
from repro.net.clock import SECONDS_PER_DAY
from repro.net.transport import Network
from repro.util import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import ScheduledCheck, SheriffBackend
    from repro.core.reports import PriceCheckReport, VantageObservation
    from repro.net.urls import URL
    from repro.net.vantage import VantagePoint

__all__ = [
    "BurstCache",
    "BurstCacheDivergence",
    "BurstEntry",
    "BurstPlan",
    "predict_fanout",
]


class BurstCacheDivergence(RuntimeError):
    """A cross-validated memo hit disagreed with the live fan-out.

    This is a loud failure by design: a divergence means an entry was
    served (or would have been) whose bytes the live path no longer
    reproduces -- a broken signal declaration the probe did not catch, or
    mutable state leaking into a supposedly pure response.
    """


def predict_fanout(
    network: Network,
    fleet: Sequence["VantagePoint"],
    url: "URL",
    start_ts: float,
    max_retries: int,
) -> Optional[tuple[tuple[float, float], ...]]:
    """The exact delivery timeline of a clean burst, without any fetches.

    Mirrors the live path arithmetic operation for operation: the burst
    clock forks at ``start_ts``; for each vantage in fleet order the three
    request-keyed draws decide loss and the two hop latencies, a lost
    attempt burns the timeout and retries at the later instant, and a
    delivered request yields ``(request_ts, archive_ts)`` -- the instant
    the server sees the request (its day indexes the pricing context) and
    the instant the response lands back (the archive timestamp).

    Returns ``None`` when any vantage point stays unreachable through all
    retries: such a burst is not clean, and callers must use the live
    fan-out (which will produce the matching failed observation).
    """
    now = float(start_ts)
    timeline: list[tuple[float, float]] = []
    for vantage in fleet:
        delivered: Optional[tuple[float, float]] = None
        for _ in range(max_retries + 1):
            loss, lat_out, lat_back = network.delivery_draws(
                url, vantage.ip, now
            )
            if network.loss_rate and loss < network.loss_rate:
                now += network.latency.timeout
                continue
            now += network.latency.from_unit(lat_out)
            request_ts = now
            now += network.latency.from_unit(lat_back)
            delivered = (request_ts, now)
            break
        if delivered is None:
            return None
        timeline.append(delivered)
    return tuple(timeline)


@dataclass(frozen=True)
class BurstEntry:
    """One memoized burst outcome: observations, page bodies, currencies.

    Everything per-check (check id, report timestamp, archive timestamps)
    is re-derived at hit time; everything stored here is a pure function
    of the cache key.
    """

    observations: tuple["VantageObservation", ...]
    htmls: tuple[str, ...]
    currencies: frozenset[str]


@dataclass
class BurstPlan:
    """The memo layer's per-check decision, handed to the backend.

    ``entry`` is the cache hit (``None`` -> run live and try to store);
    ``validate`` marks a hit sampled for live cross-validation -- the
    backend then runs the real fan-out and hands the outcome back to
    :meth:`BurstCache.after_live` for comparison.
    """

    domain: str
    server: RetailerServer
    key: tuple
    timeline: tuple[tuple[float, float], ...]
    verify_signals: frozenset[str]
    entry: Optional[BurstEntry] = None
    validate: bool = False


@dataclass
class _DomainState:
    """Per-retailer memo classification: the server and its verify set."""

    server: Optional[RetailerServer]
    verify_signals: frozenset[str] = frozenset()
    live_reason: str = ""

    @property
    def live_only(self) -> bool:
        return self.server is None


class BurstCache:
    """Per-retailer memo of whole fan-out bursts (see module docstring).

    One instance belongs to one :class:`~repro.core.backend.SheriffBackend`
    that is handed it; a backend built without one runs every check live.
    ``validate_fraction`` samples that fraction of hits for a live
    re-run.
    """

    def __init__(self, *, validate_fraction: float = 0.0) -> None:
        if not 0.0 <= validate_fraction <= 1.0:
            raise ValueError("validate_fraction must be in [0, 1]")
        self.validate_fraction = validate_fraction
        self._domains: dict[str, _DomainState] = {}
        #: The check day the two dicts below belong to.
        self._day: Optional[int] = None
        #: domain -> memo key -> entry, for the current check day.
        self._entries: dict[str, dict[tuple, BurstEntry]] = {}
        #: domain -> (vantage name, ip, server day) -> composed signature
        #: key element.  A vantage's signature is a pure function of (ip,
        #: browser, day), so a day's worth of bursts shares 14 cached
        #: tuples instead of paying geo lookups and tuple assembly per
        #: check.
        self._signatures: dict[str, dict[tuple, tuple]] = {}
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._store_skips = 0
        self._validations = 0
        self._demotions = 0
        self._bypass_live_only = 0
        self._bypass_unreachable = 0
        self._bypass_non_product = 0

    # ------------------------------------------------------------------
    # The per-check decision
    # ------------------------------------------------------------------
    def plan(
        self,
        backend: "SheriffBackend",
        sched: "ScheduledCheck",
        url: "URL",
        fleet: Sequence["VantagePoint"],
    ) -> Optional[BurstPlan]:
        """Decide how ``sched`` may use the memo (``None`` -> plain live).

        ``None`` is the zero-overhead answer for live-only retailers
        (stateful pricing, login support, non-retailer servers) and for
        bursts the memo cannot represent (non-product URLs, vantages lost
        through all retries).

        The first check of a new day drops the old day's entries and
        signature elements: keys embed the check day, so no later check
        could read them.
        """
        check_day = int(sched.start_ts // SECONDS_PER_DAY)
        if check_day != self._day:
            self._day = check_day
            self._entries.clear()
            self._signatures.clear()
        state = self._domain_state(backend, url.host)
        if state.live_only:
            self._bypass_live_only += 1
            return None
        server = state.server
        assert server is not None
        # Only product pages are signature-pure by construction; checkout
        # quotes read shipping/VAT country outside the probed policy and
        # index/login pages have their own shapes.
        if server.retailer.catalog.by_path(url.path) is None:
            self._bypass_non_product += 1
            return None
        timeline = predict_fanout(
            backend.network, fleet, url, sched.start_ts, backend.MAX_RETRIES
        )
        if timeline is None:
            self._bypass_unreachable += 1
            return None
        signatures = []
        signature_cache = self._signatures.setdefault(url.host, {})
        for vantage, (request_ts, _) in zip(fleet, timeline):
            day = int(request_ts // SECONDS_PER_DAY)
            cache_key = (vantage.name, vantage.ip, day)
            element = signature_cache.get(cache_key)
            if element is None:
                element = (
                    vantage.name,
                    vantage.ip,
                    server.pricing_signature(
                        client_ip=vantage.ip,
                        user_agent=vantage.profile.user_agent,
                        day_index=day,
                    ),
                )
                signature_cache[cache_key] = element
            signatures.append(element)
        anchor = sched.request.anchor
        key = (
            str(url),
            check_day,
            "crawler" if sched.request.origin == "crawler" else "user",
            anchor.selector,
            anchor.node_path,
            tuple(signatures),
        )
        entry = self._entries.get(url.host, {}).get(key)
        plan = BurstPlan(
            domain=url.host,
            server=server,
            key=key,
            timeline=timeline,
            verify_signals=state.verify_signals,
            entry=entry,
        )
        if entry is None:
            self._misses += 1
        else:
            self._hits += 1
            if self.validate_fraction > 0.0:
                draw = stable_hash(0, sched.check_id, "burst-validate") / 2**64
                plan.validate = draw < self.validate_fraction
        return plan

    def _domain_state(
        self, backend: "SheriffBackend", domain: str
    ) -> _DomainState:
        state = self._domains.get(domain)
        if state is not None:
            return state
        server: Optional[RetailerServer]
        reason = ""
        try:
            resolved = backend.network.resolve(domain)
        except Exception:
            resolved, reason = None, "unresolvable domain"
        if resolved is not None and not isinstance(resolved, RetailerServer):
            resolved, reason = None, "not a retailer server"
        server = resolved
        verify_signals: frozenset[str] = frozenset()
        if server is not None:
            profile = server.signature_profile()
            if profile is None:
                server, reason = None, "state-dependent responses"
            else:
                verify_signals = profile.verify_signals
        state = _DomainState(
            server=server,
            verify_signals=verify_signals,
            live_reason=reason,
        )
        self._domains[domain] = state
        return state

    # ------------------------------------------------------------------
    # After a live (miss or validation) burst
    # ------------------------------------------------------------------
    def after_live(
        self,
        plan: BurstPlan,
        fleet: Sequence["VantagePoint"],
        report: "PriceCheckReport",
        captured: list[dict],
        reads: set[str],
    ) -> None:
        """Fold a live burst's evidence back into the cache.

        For a validation run, compare the live outcome against the served
        entry and raise :class:`BurstCacheDivergence` on any difference.
        For a miss, verify the recorded signal reads and the predicted
        timeline against reality, then store the entry -- or demote the
        retailer if the policy read past its declaration.
        """
        if plan.entry is not None:
            self._validations += 1
            self._compare(plan, fleet, report, captured)
            return
        state = self._domains[plan.domain]
        if state.live_only:
            return
        escaped = reads - plan.verify_signals
        if escaped:
            self._demote(
                plan.domain,
                f"policy read undeclared signals {sorted(escaped)}",
            )
            return
        if not self._burst_is_clean(plan, fleet, captured):
            self._store_skips += 1
            return
        entry = BurstEntry(
            observations=tuple(report.observations),
            htmls=tuple(kwargs["html"] for kwargs in captured),
            currencies=frozenset(
                obs.currency
                for obs in report.observations
                if obs.ok and obs.currency is not None
            ),
        )
        self._entries.setdefault(plan.domain, {})[plan.key] = entry
        self._stores += 1

    def _burst_is_clean(
        self,
        plan: BurstPlan,
        fleet: Sequence["VantagePoint"],
        captured: list[dict],
    ) -> bool:
        """Did the live burst match the predicted timeline exactly?

        One archive per vantage, in fleet order, each stamped with the
        predicted archive instant.  Anything else -- an HTTP error (no
        archive), a redirect (extra hops shift the clock), a float that
        somehow disagrees -- rejects the burst from the cache.
        """
        if len(captured) != len(fleet):
            return False
        for vantage, (_, archive_ts), kwargs in zip(
            fleet, plan.timeline, captured
        ):
            if kwargs["vantage"] != vantage.name:
                return False
            if kwargs["timestamp"] != archive_ts:
                return False
        return True

    def _compare(
        self,
        plan: BurstPlan,
        fleet: Sequence["VantagePoint"],
        report: "PriceCheckReport",
        captured: list[dict],
    ) -> None:
        entry = plan.entry
        assert entry is not None
        problems: list[str] = []
        if tuple(report.observations) != entry.observations:
            problems.append("observation vectors differ")
        live_htmls = tuple(kwargs["html"] for kwargs in captured)
        if live_htmls != entry.htmls:
            problems.append("archived page bodies differ")
        if not self._burst_is_clean(plan, fleet, captured):
            problems.append("delivery timeline diverged from prediction")
        if problems:
            raise BurstCacheDivergence(
                f"memo entry for {plan.domain} diverged from the live "
                f"fan-out ({'; '.join(problems)}); key={plan.key!r}"
            )

    def _demote(self, domain: str, reason: str) -> None:
        state = self._domains[domain]
        state.server = None
        state.live_reason = reason
        self._entries.pop(domain, None)
        self._demotions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_only_domains(self) -> dict[str, str]:
        """domain -> why its checks run the live fan-out."""
        return {
            domain: state.live_reason
            for domain, state in sorted(self._domains.items())
            if state.live_only
        }

    def stats(self) -> dict[str, int]:
        """Counters for performance reports (all integers).

        Safe to call from another thread while checks run: each table is
        read once, by one C-level copy, so a domain added meanwhile cannot
        break the iteration.
        """
        states = list(self._domains.values())
        return {
            "hits": self._hits,
            "misses": self._misses,
            "stores": self._stores,
            "store_skips": self._store_skips,
            "validations": self._validations,
            "demotions": self._demotions,
            "bypass_live_only": self._bypass_live_only,
            "bypass_unreachable": self._bypass_unreachable,
            "bypass_non_product": self._bypass_non_product,
            "entries": sum(map(len, list(self._entries.values()))),
            "domains": len(states),
            "domains_live_only": sum(
                1 for state in states if state.live_only
            ),
        }
