"""The beta-test campaign: simulated crowd usage of $heriff.

Reproduces the data-generating process behind §3.2's dataset: over the
Jan-May 2013 window, users open product pages on shops they care about,
highlight the price, and click the $heriff button.  Domain choice blends

* global popularity (big brands get checked most -- Fig. 1's head),
* the user's category interests (a cyclist checks bike shops), and
* the long tail of small shops (most of the ~600 domains, almost all of
  which turn out to price uniformly -- the discovery problem).

Imperfect users are part of the model: with a small probability the
highlight lands on a *recommended-product* price instead of the product
price (the kind of crowd noise §3.2 says had to be cleaned before
analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.checkpoint import (
    MID_DAY,
    RunCheckpoint,
    barrier,
    capture_run_state,
    run_fingerprint,
)
from repro.core.backend import SheriffBackend
from repro.core.extension import PreparedCheck, SheriffExtension
from repro.crowd.dataset import CheckRecord, CrowdDataset
from repro.crowd.population import CrowdUser, build_population
from repro.ecommerce.templates import selector_on_day
from repro.ecommerce.world import World
from repro.htmlmodel.dom import Document, Element
from repro.htmlmodel.selectors import SelectorError, compiled_selector
from repro.net.clock import SECONDS_PER_DAY
from repro.util import stable_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import SupportsRun

__all__ = ["CampaignConfig", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of the beta campaign (defaults = the paper's numbers)."""

    n_checks: int = 1500
    population_size: int = 340
    start_day: int = 0  # 2013-01-01
    end_day: int = 150  # ~end of May
    seed: int = 2013
    #: Probability a user highlights a decoy price instead of the product
    #: price (crowd noise).
    p_wrong_highlight: float = 0.03
    #: Probability the user arrived via a price aggregator (their Referer
    #: header may earn them a personal discount the fan-out cannot see).
    p_referred: float = 0.05
    #: Weight multiplier for domains matching a user's interests.
    interest_boost: float = 3.0
    aggregator_referer: str = "http://www.pricegrabber.com/search"

    def __post_init__(self) -> None:
        if self.n_checks <= 0:
            raise ValueError("n_checks must be positive")
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if self.start_day < 0:
            raise ValueError("start_day must be >= 0")
        if self.end_day <= self.start_day:
            raise ValueError("campaign window must be non-empty")
        if not 0.0 <= self.p_wrong_highlight <= 1.0:
            raise ValueError("p_wrong_highlight must be a probability")
        if not 0.0 <= self.p_referred <= 1.0:
            raise ValueError("p_referred must be a probability")


def run_campaign(
    world: World,
    backend: SheriffBackend,
    config: Optional[CampaignConfig] = None,
    *,
    executor: Optional["SupportsRun"] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> CrowdDataset:
    """Run the campaign and return the crowdsourced dataset.

    The world's virtual clock is advanced through the campaign window, so
    checks carry realistic timestamps (and FX rates move under them).

    The click stream is segmented by day, and each day runs in two
    steps.  First every click of the day is replayed chronologically in
    this process: the user's own page load (which drives the world
    clock), the highlight, the anchor derivation -- all the state the
    next click may depend on.  Then the day's prepared requests are
    submitted as one explicitly-scheduled batch
    (:meth:`~repro.core.backend.SheriffBackend.check_batch` with
    ``start_times``): every fan-out runs at its own click instant on a
    forked burst clock, so the reports are byte-identical whether the
    batch executes inline (``executor=None``) or sharded across a
    caller-owned :class:`~repro.exec.ProcessExecutor`, which the caller
    closes (the campaign never does).

    ``checkpoint_dir`` makes the run kill-safe: every completed day is
    also durably committed (dataset shard + run state) before the next
    starts -- see :mod:`repro.checkpoint`.  ``resume=True`` against a
    *freshly built* world restores the last committed state and
    continues.  The schedule is the same with or without a checkpoint,
    so plain, checkpointed, resumed and served runs of one world and
    config return byte-identical datasets, at any worker count.  The
    backend needs no burst memo (a campaign rarely repeats a
    ``(url, day)``); the process executor and a checkpointed campaign
    refuse a backend that holds one.
    """
    config = config or CampaignConfig()
    rng = stable_rng(config.seed, "campaign")
    extension = SheriffExtension(backend, world.network)
    users = build_population(
        world.plan, size=config.population_size, seed=config.seed
    )

    base_weights = world.crowd_weights()
    domains = sorted(base_weights)
    categories = {
        domain: world.retailer(domain).category for domain in domains
    }

    # Pre-compute per-user cumulative domain weights lazily (340 users x
    # 600 domains is fine, but most users never check; build on demand).
    per_user_weights: dict[str, list[float]] = {}

    def weights_for(user: CrowdUser) -> list[float]:
        cached = per_user_weights.get(user.user_id)
        if cached is not None:
            return cached
        weights = [
            base_weights[domain]
            * (config.interest_boost if categories[domain] in user.interests else 1.0)
            for domain in domains
        ]
        per_user_weights[user.user_id] = weights
        return weights

    user_weights = [user.activity for user in users]
    window_seconds = (config.end_day - config.start_day) * SECONDS_PER_DAY
    offsets = sorted(rng.uniform(0, window_seconds) for _ in range(config.n_checks))

    def prepare_clicks(
        day_offsets: list[float],
    ) -> list[tuple[CrowdUser, str, int, str, PreparedCheck]]:
        # The client side of every click, in chronological order -- the
        # user's own page load (which drives the world clock), the
        # highlight, the anchor derivation.
        clicks: list[tuple[CrowdUser, str, int, str, PreparedCheck]] = []
        for offset in day_offsets:
            timestamp = config.start_day * SECONDS_PER_DAY + offset
            if timestamp > world.clock.now:
                world.clock.advance_to(timestamp)
            user = rng.choices(users, weights=user_weights, k=1)[0]
            domain = rng.choices(domains, weights=weights_for(user), k=1)[0]
            retailer = world.retailer(domain)
            product = rng.choice(retailer.catalog.products)
            url = f"http://{domain}{product.path}"
            # The user's eyes track the page actually served today
            # (churning templates), exactly like the crawl operator's
            # anchor step.
            finder = _make_finder(
                selector_on_day(
                    retailer.template, int(timestamp // SECONDS_PER_DAY)
                ),
                wrong=rng.random() < config.p_wrong_highlight,
            )
            referer = (
                config.aggregator_referer
                if rng.random() < config.p_referred
                else None
            )
            prepared = extension.prepare_check(
                user.client, url, finder, origin=user.user_id, referer=referer
            )
            clicks.append(
                (user, domain, int(timestamp // SECONDS_PER_DAY), url, prepared)
            )
        return clicks

    def submit_clicks(clicks: list, dataset: CrowdDataset, executor) -> None:
        # One scheduled batch of every click that reached the backend,
        # fanned out at each click's own instant (and optionally sharded
        # across workers -- bytes are identical either way).  Reports
        # stream straight into the dataset's columnar spine: the sink
        # attaches each report to its click and flushes every click whose
        # fate is settled into the table, releasing the click (and with
        # it the report dataclass -- the table does not retain it)
        # immediately.  No intermediate report list exists at any scale.
        ready = [click[4] for click in clicks if click[4].request is not None]
        cursor = 0  # next click to flush into the dataset
        filled = 0  # ready checks whose report has streamed in

        def flush_settled() -> None:
            nonlocal cursor
            while cursor < len(clicks):
                user, domain, day_index, url, prepared = clicks[cursor]
                if prepared.request is not None and prepared.outcome.report is None:
                    break  # its report has not streamed in yet
                dataset.add(
                    CheckRecord(
                        user_id=user.user_id,
                        user_country=user.country_code,
                        day_index=day_index,
                        domain=domain,
                        url=url,
                        outcome=prepared.outcome,
                    )
                )
                clicks[cursor] = None  # type: ignore[call-overload]
                cursor += 1

        def sink(report) -> None:
            nonlocal filled
            prepared = ready[filled]
            ready[filled] = None  # type: ignore[call-overload]
            filled += 1
            prepared.outcome.report = report
            barrier(MID_DAY)
            flush_settled()

        backend.check_batch(
            [prepared.request for prepared in ready],
            start_times=[prepared.start_ts for prepared in ready],
            executor=executor,
            sink=sink,
        )
        flush_settled()  # trailing clicks that never reached the backend

    days: list[tuple[int, list[float]]] = []
    for offset in offsets:
        day = int((config.start_day * SECONDS_PER_DAY + offset) // SECONDS_PER_DAY)
        if days and days[-1][0] == day:
            days[-1][1].append(offset)
        else:
            days.append((day, [offset]))

    dataset = CrowdDataset()
    user_clients = {user.user_id: user.client for user in users}
    checkpoint = None
    done = 0
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint.open(
            checkpoint_dir,
            kind="campaign",
            fingerprint=run_fingerprint("campaign", world.config, config),
            backend=backend,
            resume=resume,
        )
        done = checkpoint.resume_into(
            dataset, world, backend, days=[day for day, _ in days],
            rng=rng, user_clients=user_clients,
        )
    for day, day_offsets in days[done:]:
        staging = CrowdDataset()
        submit_clicks(prepare_clicks(day_offsets), staging, executor)
        if checkpoint is not None:
            checkpoint.commit_segment(
                day=day,
                dataset=staging,
                state=capture_run_state(
                    world, backend,
                    committed_servers=checkpoint.committed_servers,
                    rng=rng, user_clients=user_clients,
                ),
            )
        dataset.append_segment(staging)
    return dataset


def _make_finder(price_selector: str, *, wrong: bool):
    """The user's eyes: locate the price (or, rarely, a decoy) on a page."""

    def find(document: Document) -> Optional[Element]:
        if wrong:
            decoys = _decoy_candidates(document)
            if decoys:
                return decoys[0]
        try:
            return compiled_selector(price_selector).select_one(document)
        except SelectorError:
            return None

    return find


def _decoy_candidates(document: Document) -> list[Element]:
    """Price-looking nodes inside the recommendations block."""
    try:
        cards = compiled_selector("section.recommendations span").select(document)
    except SelectorError:
        return []
    return [card for card in cards if any(ch.isdigit() for ch in card.text())]
