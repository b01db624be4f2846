"""The crowdsourced dataset and its summary statistics.

The dataset hands Figs. 1-2 their input -- :meth:`CrowdDataset.reports`,
a slice of the completed checks for the :mod:`repro.analysis` kernels --
and computes the §3.2 headline numbers (requests, users, countries,
domains).

The dataset is a thin view over the shared spine: fleet reports live in
a :class:`~repro.store.ReportTable` (one row per completed check), while
the record-level facts -- who asked, from where, what they themselves
saw -- are parallel columns alongside it.  :class:`CheckRecord` objects
materialize lazily and are cached.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from repro.core.extension import CheckOutcome
from repro.core.reports import PriceCheckReport
from repro.store import ReportTable, StringPool, TableSlice
from repro.store.table import NO_CURRENCY, _check_ids

__all__ = ["CheckRecord", "CrowdDataset"]


@dataclass(frozen=True)
class CheckRecord:
    """One crowd-triggered check: who asked, what came back."""

    user_id: str
    user_country: str
    day_index: int
    domain: str
    url: str
    outcome: CheckOutcome

    @property
    def report(self) -> Optional[PriceCheckReport]:
        return self.outcome.report

    @property
    def ok(self) -> bool:
        return self.outcome.ok


class _RecordsView(Sequence):
    """Lazy ``Sequence[CheckRecord]`` over the dataset's columns."""

    __slots__ = ("_dataset",)

    def __init__(self, dataset: "CrowdDataset") -> None:
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset)

    def __getitem__(self, index: Union[int, slice]):
        n = len(self._dataset)
        if isinstance(index, slice):
            return [self._dataset.record(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("record index out of range")
        return self._dataset.record(index)

    def __iter__(self) -> Iterator[CheckRecord]:
        for i in range(len(self._dataset)):
            yield self._dataset.record(i)


class CrowdDataset:
    """The full beta-phase collection (a view over the columnar spine)."""

    def __init__(self, records: Optional[list[CheckRecord]] = None) -> None:
        self._table = ReportTable()
        # Record-level pools (domains/urls/currencies reuse the table's).
        self._users = StringPool()
        self._user_countries = StringPool()
        self._failures = StringPool()
        # Record-level columns.
        self._r_user_id: list[int] = []
        self._r_country_id: list[int] = []
        self._r_day: list[int] = []
        self._r_domain_id: list[int] = []
        self._r_url_id: list[int] = []
        # Outcome columns (the extension's view of the same click).
        self._o_url_id: list[int] = []
        self._o_user_id: list[int] = []
        self._o_amount: list[Optional[float]] = []
        self._o_currency_id: list[int] = []
        self._o_failure_id: list[int] = []
        #: Row in the report table, or -1 when the flow never reached the
        #: backend (page unreachable, nothing highlightable).
        self._report_row: list[int] = []
        # Weak, like ReportTable's row cache: identity-stable while
        # referenced, collectable after a full list-style pass.
        self._record_cache: "weakref.WeakValueDictionary[int, CheckRecord]" = (
            weakref.WeakValueDictionary()
        )
        if records:
            for record in records:
                self.add(record)

    # ------------------------------------------------------------------
    @property
    def table(self) -> ReportTable:
        """The columnar spine holding the completed checks' reports."""
        return self._table

    @property
    def records(self) -> _RecordsView:
        """All crowd check records, as a lazy list-compatible view."""
        return _RecordsView(self)

    def add(self, record: CheckRecord) -> None:
        """Append one crowd check record."""
        outcome = record.outcome
        self._append_record(
            record.user_id, record.user_country, record.day_index,
            record.domain, record.url, outcome.url, outcome.user,
            outcome.user_amount, outcome.user_currency, outcome.failure,
        )
        self._report_row.append(
            -1 if outcome.report is None else self._table.append(outcome.report)
        )

    def add_row(
        self,
        user_id: str,
        user_country: str,
        day_index: int,
        domain: str,
        url: str,
        outcome_url: str,
        outcome_user: str,
        user_amount: Optional[float],
        user_currency: Optional[str],
        failure: str,
        report: Optional[tuple],
    ) -> None:
        """Append one crowd check record given as primitives.

        The arguments follow :class:`CheckRecord` and its
        :class:`CheckOutcome`; ``report`` is the completed check's report
        as :meth:`ReportTable.append_row` arguments, or ``None`` when the
        flow never reached the backend.  :meth:`add` and the rows-layout
        loader of :mod:`repro.io` write the same columns in the same
        order, so both give the same pools and bytes.
        """
        self._append_record(
            user_id, user_country, day_index, domain, url, outcome_url,
            outcome_user, user_amount, user_currency, failure,
        )
        self._report_row.append(
            -1 if report is None else self._table.append_row(*report)
        )

    def _append_record(
        self, user_id, user_country, day_index, domain, url, outcome_url,
        outcome_user, user_amount, user_currency, failure,
    ) -> None:
        # The record's strings are interned before its report's, so the
        # shared url/domain/currency pools keep one order.
        table = self._table
        self._r_user_id.append(self._users.intern(user_id))
        self._r_country_id.append(self._user_countries.intern(user_country))
        self._r_day.append(day_index)
        self._r_domain_id.append(table.domains.intern(domain))
        self._r_url_id.append(table.urls.intern(url))
        self._o_url_id.append(table.urls.intern(outcome_url))
        self._o_user_id.append(self._users.intern(outcome_user))
        self._o_amount.append(user_amount)
        self._o_currency_id.append(
            NO_CURRENCY if user_currency is None
            else table.currencies.intern(user_currency)
        )
        self._o_failure_id.append(self._failures.intern(failure))

    def append_segment(self, other: "CrowdDataset") -> None:
        """Fold another dataset's rows onto this one, column by column.

        The checkpoint-resume merge path: report columns go through
        :meth:`ReportTable.append_segment` (which returns the pool-id
        remaps), record-level pools are re-interned into this dataset's
        own pools, and the record columns are extended with translated
        ids.  Byte-identical to re-adding every record (test-asserted),
        without materializing a single :class:`CheckRecord`.
        """
        base = len(self._table)
        maps = self._table.append_segment(other._table)
        user_map = [self._users.intern(v) for v in other._users.values]
        country_map = [
            self._user_countries.intern(v)
            for v in other._user_countries.values
        ]
        failure_map = [
            self._failures.intern(v) for v in other._failures.values
        ]
        self._r_user_id.extend(user_map[v] for v in other._r_user_id)
        self._r_country_id.extend(
            country_map[v] for v in other._r_country_id
        )
        self._r_day.extend(other._r_day)
        self._r_domain_id.extend(
            maps["domains"][v] for v in other._r_domain_id
        )
        self._r_url_id.extend(maps["urls"][v] for v in other._r_url_id)
        self._o_url_id.extend(maps["urls"][v] for v in other._o_url_id)
        self._o_user_id.extend(user_map[v] for v in other._o_user_id)
        self._o_amount.extend(other._o_amount)
        self._o_currency_id.extend(
            NO_CURRENCY if v == NO_CURRENCY else maps["currencies"][v]
            for v in other._o_currency_id
        )
        self._o_failure_id.extend(
            failure_map[v] for v in other._o_failure_id
        )
        self._report_row.extend(
            -1 if row < 0 else base + row for row in other._report_row
        )

    def record(self, i: int) -> CheckRecord:
        """Record ``i`` as a :class:`CheckRecord` (lazily built, cached
        weakly -- same object while any reference to it is alive)."""
        if not 0 <= i < len(self):
            raise IndexError(f"record index {i} out of range")
        cached = self._record_cache.get(i)
        if cached is None:
            table = self._table
            row = self._report_row[i]
            currency_id = self._o_currency_id[i]
            outcome = CheckOutcome(
                url=table.urls.value(self._o_url_id[i]),
                user=self._users.value(self._o_user_id[i]),
                report=table.report(row) if row >= 0 else None,
                user_amount=self._o_amount[i],
                user_currency=(
                    None if currency_id == NO_CURRENCY
                    else table.currencies.value(currency_id)
                ),
                failure=self._failures.value(self._o_failure_id[i]),
            )
            cached = CheckRecord(
                user_id=self._users.value(self._r_user_id[i]),
                user_country=self._user_countries.value(self._r_country_id[i]),
                day_index=self._r_day[i],
                domain=table.domains.value(self._r_domain_id[i]),
                url=table.urls.value(self._r_url_id[i]),
                outcome=outcome,
            )
            self._record_cache[i] = cached
        return cached

    def __len__(self) -> int:
        return len(self._r_user_id)

    def __iter__(self) -> Iterator[CheckRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # §3.2 headline numbers
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self)

    @property
    def n_users(self) -> int:
        return len(set(self._r_user_id))

    @property
    def n_countries(self) -> int:
        return len(set(self._r_country_id))

    @property
    def n_domains(self) -> int:
        return len(set(self._r_domain_id))

    def summary(self) -> dict[str, int]:
        """The §3.2 headline numbers of this dataset."""
        return {
            "requests": self.n_requests,
            "users": self.n_users,
            "countries": self.n_countries,
            "domains": self.n_domains,
        }

    # ------------------------------------------------------------------
    # Figure input
    # ------------------------------------------------------------------
    def reports(self) -> TableSlice:
        """All successfully completed check reports (lazy view)."""
        return TableSlice(
            self._table, [row for row in self._report_row if row >= 0]
        )

    # ------------------------------------------------------------------
    # Columnar (de)serialization -- the io layer's compact layout
    # ------------------------------------------------------------------
    def record_columns(self) -> dict:
        """The record-level columns as JSON-ready dicts.

        Domain/url/currency ids reference the report table's pools (the
        io layer serializes those with :meth:`ReportTable.to_columns`);
        the record-only pools ride along under ``"pools"``.
        """
        return {
            "pools": {
                "users": self._users.values,
                "user_countries": self._user_countries.values,
                "failures": self._failures.values,
            },
            "user": self._r_user_id,
            "country": self._r_country_id,
            "day": self._r_day,
            "domain": self._r_domain_id,
            "url": self._r_url_id,
            "outcome_url": self._o_url_id,
            "outcome_user": self._o_user_id,
            "user_amount": self._o_amount,
            "user_currency": self._o_currency_id,
            "failure": self._o_failure_id,
            "report_row": self._report_row,
        }

    @classmethod
    def from_columns(
        cls, table: ReportTable, pools: dict, records: dict
    ) -> "CrowdDataset":
        """Rebuild a dataset from a table plus :meth:`record_columns` data."""
        dataset = cls()
        dataset._table = table
        try:
            dataset._users = StringPool(pools["users"])
            dataset._user_countries = StringPool(pools["user_countries"])
            dataset._failures = StringPool(pools["failures"])
            dataset._r_user_id = [int(v) for v in records["user"]]
            n = len(dataset._r_user_id)
            dataset._r_country_id = [int(v) for v in records["country"]]
            dataset._r_day = [int(v) for v in records["day"]]
            dataset._r_domain_id = [int(v) for v in records["domain"]]
            dataset._r_url_id = [int(v) for v in records["url"]]
            dataset._o_url_id = [int(v) for v in records["outcome_url"]]
            dataset._o_user_id = [int(v) for v in records["outcome_user"]]
            dataset._o_amount = [
                None if v is None else float(v) for v in records["user_amount"]
            ]
            dataset._o_currency_id = [int(v) for v in records["user_currency"]]
            dataset._o_failure_id = [int(v) for v in records["failure"]]
            dataset._report_row = [int(v) for v in records["report_row"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad crowd record columns: {exc}") from exc
        cols = (
            dataset._r_country_id, dataset._r_day, dataset._r_domain_id,
            dataset._r_url_id, dataset._o_url_id, dataset._o_user_id,
            dataset._o_amount, dataset._o_currency_id,
            dataset._o_failure_id, dataset._report_row,
        )
        if any(len(col) != n for col in cols):
            raise ValueError("crowd record columns have mismatched lengths")
        if any(
            row < -1 or row >= len(table) for row in dataset._report_row
        ):
            raise ValueError("report_row references outside the report table")
        _check_ids("user", dataset._r_user_id, dataset._users)
        _check_ids("outcome user", dataset._o_user_id, dataset._users)
        _check_ids("country", dataset._r_country_id, dataset._user_countries)
        _check_ids("failure", dataset._o_failure_id, dataset._failures)
        _check_ids("domain", dataset._r_domain_id, table.domains)
        _check_ids("url", dataset._r_url_id, table.urls)
        _check_ids("outcome url", dataset._o_url_id, table.urls)
        _check_ids(
            "user currency", dataset._o_currency_id, table.currencies,
            sentinel=NO_CURRENCY,
        )
        return dataset

    def __repr__(self) -> str:
        return f"CrowdDataset({len(self)} records)"
