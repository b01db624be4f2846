"""Noise removal, per §2.2 and §3.2.

The key defense is the paper's conservative currency guard: a variation
only counts when it *strictly exceeds* the largest ratio that currency
translation alone could produce, computed over the **whole dataset's**
extreme exchange rates (not just the check's day -- a product seen on
Monday and re-seen on Friday spans both days' rates).

:func:`clean_reports` recomputes each report's guard against the dataset-
wide extremes, drops degenerate reports, and optionally enforces
*repeatability*: a (product, pair-of-locations) relationship must point the
same way on a majority of days, which suppresses A/B-test flukes (§2.2's
"we repeated the same set of measurements multiple times").

Cleaning runs as column passes over a :class:`~repro.store.TableSlice`
(a plain report list is first appended to a fresh table).  The guard is
written through :meth:`~repro.store.ReportTable.set_guard`, so the
column and any materialized rows agree, and ``CleanResult.kept`` is a
slice of the same table for the figure kernels downstream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.reports import PriceCheckReport
from repro.fx.convert import Converter, max_gap_ratio
from repro.fx.rates import RateService
from repro.store import TableSlice, as_table_slice

__all__ = [
    "CleanResult",
    "clean_reports",
    "dataset_guard",
    "repeatable_products",
    "split_by_user_agreement",
]


def dataset_guard(
    rates: RateService, reports: Sequence[PriceCheckReport], *, margin: float = 0.0
) -> float:
    """The dataset-wide currency-translation guard threshold."""
    sliced = as_table_slice(reports)
    if not len(sliced):
        raise ValueError("no reports")
    table = sliced.table
    days: set[int] = set()
    currency_ids: set[int] = set()
    for i in sliced.rows:
        days.add(table.day_index[i])
        for j in table.valid_obs_indices(i):
            cid = table.o_currency_id[j]
            if cid >= 0:
                currency_ids.add(cid)
    currency_value = table.currencies.value
    currencies = {code for code in map(currency_value, currency_ids) if code}
    return max_gap_ratio(rates, currencies or {"USD"}, days, margin=margin)


@dataclass
class CleanResult:
    """Cleaning outcome: surviving reports plus an accounting of drops.

    ``kept`` is a lazy :class:`~repro.store.TableSlice` over the cleaned
    table: it iterates as ``PriceCheckReport`` objects and feeds the
    figure kernels without materializing any.
    """

    kept: TableSlice
    dropped: Counter = field(default_factory=Counter)
    guard: float = 1.0

    @property
    def n_kept(self) -> int:
        return len(self.kept)

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())


def clean_reports(
    reports: Sequence[PriceCheckReport],
    rates: RateService,
    *,
    min_points: int = 2,
    guard_margin: float = 0.0,
    require_repeatable: bool = False,
) -> CleanResult:
    """Apply the paper's cleaning rules.

    Every surviving report has its ``guard_threshold`` replaced by the
    dataset-wide guard, so downstream ``has_variation`` answers are
    consistent across the dataset.  ``require_repeatable`` additionally
    restricts *variation* verdicts to products whose variation recurs
    across measurement rounds (no-ops on single-day datasets).
    """
    sliced = as_table_slice(reports)
    table = sliced.table
    result = CleanResult(kept=TableSlice(table, []))
    if not len(sliced):
        return result
    result.guard = dataset_guard(rates, sliced, margin=guard_margin)
    # Validity first, repeatability second: a measurement round that
    # fails the data-quality filters (too few observations, corrupted
    # non-positive prices) is not evidence about whether a product's
    # variation recurs -- an adversary serving garbage on alternate days
    # must not be able to veto the clean days' verdict.
    guarded_rows: list[int] = []
    o_amount = table.o_amount
    for i in sliced.rows:
        if table.n_valid[i] < min_points:
            result.dropped["too-few-observations"] += 1
            continue
        if any(
            o_amount[j] is not None and o_amount[j] <= 0
            for j in table.valid_obs_indices(i)
        ):
            result.dropped["non-positive-price"] += 1
            continue
        guarded_rows.append(i)
    repeatable_ids: Optional[set[int]] = None
    if require_repeatable:
        repeatable_ids = _repeatable_url_ids(
            TableSlice(table, guarded_rows), guard=result.guard
        )
    kept_rows: list[int] = []
    for i in guarded_rows:
        if repeatable_ids is not None:
            ratio = table.ratio[i]
            if (
                ratio is not None
                and ratio > result.guard
                and table.url_id[i] not in repeatable_ids
            ):
                result.dropped["not-repeatable"] += 1
                continue
        kept_rows.append(i)
    table.set_guard(result.guard, guarded_rows)
    result.kept = TableSlice(table, kept_rows)
    return result


def split_by_user_agreement(
    records,  # Sequence[repro.crowd.dataset.CheckRecord]
    rates: RateService,
    *,
    tolerance: float = 0.03,
):
    """Split crowd records into (agreeing, disagreeing) with the fleet.

    A crowd user's own observed price should match *some* vantage point's
    (typically the one sharing their country) once converted to USD.  When
    it matches none, the user saw something the fan-out cannot reproduce:
    a session-specific variant, or a Referer-earned discount -- §3.2's
    "product customization not encoded on the URI" class of noise.  Such
    records are excluded from price-variation statistics (while remaining
    interesting evidence of *personalized* pricing).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    converter = Converter(rates)
    agreeing = []
    disagreeing = []
    for record in records:
        report = record.report
        outcome = record.outcome
        if report is None or outcome.user_amount is None:
            agreeing.append(record)  # nothing to disagree with
            continue
        currency = outcome.user_currency or "USD"
        user_usd = converter.to_usd(outcome.user_amount, currency, record.day_index)
        fleet = [obs.usd for obs in report.valid_observations() if obs.usd]
        if not fleet:
            agreeing.append(record)
            continue
        closest = min(abs(value - user_usd) / user_usd for value in fleet)
        if closest <= tolerance:
            agreeing.append(record)
        else:
            disagreeing.append(record)
    return agreeing, disagreeing


def repeatable_products(
    reports: Sequence[PriceCheckReport], *, guard: float, min_fraction: float = 0.5
) -> set[str]:
    """Product URLs whose variation recurs across measurement rounds.

    A product measured on ``k`` distinct occasions counts as repeatable
    when more than ``min_fraction`` of those occasions show guarded
    variation.  Products measured once pass trivially (no repetition
    available to demand).
    """
    sliced = as_table_slice(reports)
    url_value = sliced.table.urls.value
    return {
        url_value(uid)
        for uid in _repeatable_url_ids(
            sliced, guard=guard, min_fraction=min_fraction
        )
    }


def _repeatable_url_ids(
    sliced: TableSlice, *, guard: float, min_fraction: float = 0.5
) -> set[int]:
    table = sliced.table
    rounds: dict[int, list[bool]] = {}
    for i in sliced.rows:
        if table.n_valid[i] < 2:
            continue
        ratio = table.ratio[i]
        rounds.setdefault(table.url_id[i], []).append(
            ratio is not None and ratio > guard
        )
    return {
        uid for uid, outcomes in rounds.items()
        if len(outcomes) == 1 or sum(outcomes) / len(outcomes) > min_fraction
    }
