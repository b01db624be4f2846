"""The columnar report store: one dataset spine from merge to figures.

A :class:`ReportTable` holds every :class:`~repro.core.reports.PriceCheckReport`
of a dataset as parallel arrays of primitives instead of a list of
dataclasses:

* **string pools** -- domains, URLs, vantage names, currencies, and the
  other repeated strings are interned once into a :class:`StringPool`;
  the columns store small integer ids,
* **prefix-indexed observations** -- all reports' observations live in
  one flat set of columns; ``obs_start[i] .. obs_start[i+1]`` is report
  *i*'s slice,
* **precomputed per-report statistics** -- ``n_valid``, ``min_usd``,
  ``max_usd`` and ``ratio`` are computed exactly once at append time (the
  dataclass recomputes them on every property access), which is what the
  single-pass analysis kernels aggregate over.

Reports are *materialized lazily*: :meth:`ReportTable.report` builds the
dataclass for one row on demand and caches it, so iterating a dataset
still hands out ordinary :class:`PriceCheckReport` objects.  Repeated
access returns the same object, and the one analysis write --
:func:`repro.analysis.cleaning.clean_reports` setting the guard through
:meth:`ReportTable.set_guard` -- updates the column and any rows already
handed out.

Derived indexes (:meth:`rows_by_domain`, :meth:`rows_by_url`,
:meth:`day_values`) are cached against a version counter that every
append bumps, so a growing table never serves a stale index.

:class:`TableSlice` is an ordered, lazily-materializing view of a row
subset.  It behaves as a ``Sequence[PriceCheckReport]`` while carrying
``(table, rows)``, which is all the analysis kernels read;
:func:`as_table_slice` turns any other report sequence into one.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Sequence, Union

from repro.core.reports import PriceCheckReport, VantageObservation

__all__ = ["StringPool", "ReportTable", "TableSlice", "as_table_slice"]


class StringPool:
    """Interned strings: value -> small stable id, id -> value."""

    __slots__ = ("_values", "_ids")

    def __init__(self, values: Optional[Sequence[str]] = None) -> None:
        self._values: list[str] = []
        self._ids: dict[str, int] = {}
        if values:
            for value in values:
                self.intern(value)

    def intern(self, value: str) -> int:
        """The id of ``value``, interning it on first sight."""
        found = self._ids.get(value)
        if found is None:
            found = len(self._values)
            self._ids[value] = found
            self._values.append(value)
        return found

    def id_of(self, value: str) -> Optional[int]:
        """The id of ``value`` if already interned, else ``None``."""
        return self._ids.get(value)

    def value(self, i: int) -> str:
        """The string behind id ``i``."""
        return self._values[i]

    @property
    def values(self) -> list[str]:
        """All interned strings, in id order (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"StringPool({len(self._values)} strings)"


#: Sentinel id for "no currency" in the observation currency column.
NO_CURRENCY = -1


def _check_ids(
    name: str, column: Sequence[int], pool: StringPool,
    *, sentinel: Optional[int] = None,
) -> None:
    """Validate that every id in ``column`` resolves inside ``pool``
    (``sentinel``, if given, is additionally allowed)."""
    if not column:
        return
    lo, hi = min(column), max(column)
    floor = sentinel if sentinel is not None else 0
    if lo < floor or hi >= len(pool):
        raise ValueError(
            f"{name} id column references outside its string pool "
            f"(ids span [{lo}, {hi}], pool has {len(pool)} entries)"
        )


class ReportTable:
    """Columnar storage for check reports (see module docstring)."""

    def __init__(self) -> None:
        # String pools ---------------------------------------------------
        self.domains = StringPool()
        self.urls = StringPool()
        self.vantages = StringPool()
        self.countries = StringPool()
        self.cities = StringPool()
        self.currencies = StringPool()
        self.methods = StringPool()
        self.errors = StringPool()
        self.origins = StringPool()
        self.raw_texts = StringPool()
        # Report-level columns -------------------------------------------
        self.check_id: list[str] = []
        self.url_id: list[int] = []
        self.domain_id: list[int] = []
        self.day_index: list[int] = []
        self.timestamp: list[float] = []
        self.guard: list[float] = []
        self.origin_id: list[int] = []
        #: Prefix index into the observation columns; length ``n + 1``.
        self.obs_start: list[int] = [0]
        # Derived report-level columns (guard-independent, append-time) --
        self.n_valid: list[int] = []
        self.min_usd: list[Optional[float]] = []
        self.max_usd: list[Optional[float]] = []
        self.ratio: list[Optional[float]] = []
        # Observation-level columns --------------------------------------
        self.o_vantage_id: list[int] = []
        self.o_country_id: list[int] = []
        self.o_city_id: list[int] = []
        self.o_ok: list[bool] = []
        self.o_raw_id: list[int] = []
        self.o_amount: list[Optional[float]] = []
        self.o_currency_id: list[int] = []
        self.o_usd: list[Optional[float]] = []
        self.o_method_id: list[int] = []
        self.o_error_id: list[int] = []
        # Caches ---------------------------------------------------------
        # Weak: a full list-style pass over a big table must not pin every
        # dataclass forever next to the columns; rows stay cached (and
        # identity-stable, and set_guard-synced) while someone holds them.
        self._rows: "weakref.WeakValueDictionary[int, PriceCheckReport]" = (
            weakref.WeakValueDictionary()
        )
        self._version = 0
        self._index_cache: dict[str, tuple[int, object]] = {}

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def append(self, report: PriceCheckReport) -> int:
        """Append one report's columns; returns its row index.

        The dataclass itself is *not* retained -- rows materialize lazily
        through :meth:`report` -- so the shard merge can stream reports
        straight into the table without keeping an intermediate list.
        """
        i = len(self.check_id)
        self.check_id.append(report.check_id)
        self.url_id.append(self.urls.intern(report.url))
        self.domain_id.append(self.domains.intern(report.domain))
        self.day_index.append(report.day_index)
        self.timestamp.append(report.timestamp)
        self.guard.append(report.guard_threshold)
        self.origin_id.append(self.origins.intern(report.origin))

        n_valid = 0
        lo: Optional[float] = None
        hi: Optional[float] = None
        for obs in report.observations:
            self.o_vantage_id.append(self.vantages.intern(obs.vantage))
            self.o_country_id.append(self.countries.intern(obs.country_code))
            self.o_city_id.append(self.cities.intern(obs.city))
            self.o_ok.append(obs.ok)
            self.o_raw_id.append(self.raw_texts.intern(obs.raw_text))
            self.o_amount.append(obs.amount)
            self.o_currency_id.append(
                NO_CURRENCY if obs.currency is None
                else self.currencies.intern(obs.currency)
            )
            usd = obs.usd
            self.o_usd.append(usd)
            self.o_method_id.append(self.methods.intern(obs.method))
            self.o_error_id.append(self.errors.intern(obs.error))
            if obs.ok and usd is not None:
                n_valid += 1
                if lo is None or usd < lo:
                    lo = usd
                if hi is None or usd > hi:
                    hi = usd
        self.obs_start.append(len(self.o_ok))
        self.n_valid.append(n_valid)
        self.min_usd.append(lo)
        self.max_usd.append(hi)
        self.ratio.append(
            hi / lo if n_valid >= 2 and lo is not None and lo > 0 else None  # type: ignore[operator]
        )
        self._version += 1
        return i

    def extend(self, reports) -> None:
        """Append many reports (any iterable)."""
        for report in reports:
            self.append(report)

    def append_segment(self, other: "ReportTable") -> dict[str, list[int]]:
        """Fold another table's rows onto this one, column by column.

        This is the checkpoint-resume fast path: a loaded day-segment is
        merged by remapping its pool ids into this table's pools and
        extending the columns directly -- no :class:`PriceCheckReport` is
        materialized, so peak memory stays at (spine + one segment).  The
        result is byte-identical to appending ``other``'s reports one by
        one (test-asserted).

        Returns the id remap per pool (``other`` id -> ``self`` id) so
        wrapping datasets (:class:`~repro.crowd.dataset.CrowdDataset`)
        can translate their own columns with the same maps.
        """
        maps = {
            name: [pool.intern(v) for v in getattr(other, attr).values]
            for name, attr, pool in (
                ("domains", "domains", self.domains),
                ("urls", "urls", self.urls),
                ("vantages", "vantages", self.vantages),
                ("countries", "countries", self.countries),
                ("cities", "cities", self.cities),
                ("currencies", "currencies", self.currencies),
                ("methods", "methods", self.methods),
                ("errors", "errors", self.errors),
                ("origins", "origins", self.origins),
                ("raw", "raw_texts", self.raw_texts),
            )
        }
        self.check_id.extend(other.check_id)
        self.url_id.extend(maps["urls"][v] for v in other.url_id)
        self.domain_id.extend(maps["domains"][v] for v in other.domain_id)
        self.day_index.extend(other.day_index)
        self.timestamp.extend(other.timestamp)
        self.guard.extend(other.guard)
        self.origin_id.extend(maps["origins"][v] for v in other.origin_id)
        base = self.obs_start[-1]
        self.obs_start.extend(base + v for v in other.obs_start[1:])
        self.n_valid.extend(other.n_valid)
        self.min_usd.extend(other.min_usd)
        self.max_usd.extend(other.max_usd)
        self.ratio.extend(other.ratio)
        self.o_vantage_id.extend(
            maps["vantages"][v] for v in other.o_vantage_id
        )
        self.o_country_id.extend(
            maps["countries"][v] for v in other.o_country_id
        )
        self.o_city_id.extend(maps["cities"][v] for v in other.o_city_id)
        self.o_ok.extend(other.o_ok)
        self.o_raw_id.extend(maps["raw"][v] for v in other.o_raw_id)
        self.o_amount.extend(other.o_amount)
        self.o_currency_id.extend(
            NO_CURRENCY if v == NO_CURRENCY else maps["currencies"][v]
            for v in other.o_currency_id
        )
        self.o_usd.extend(other.o_usd)
        self.o_method_id.extend(maps["methods"][v] for v in other.o_method_id)
        self.o_error_id.extend(maps["errors"][v] for v in other.o_error_id)
        self._version += len(other)
        return maps

    def __len__(self) -> int:
        return len(self.check_id)

    @property
    def n_observations(self) -> int:
        """Total observation rows across all reports."""
        return len(self.o_ok)

    @property
    def version(self) -> int:
        """Bumped on every append; derived indexes key off it."""
        return self._version

    # ------------------------------------------------------------------
    # Row materialization
    # ------------------------------------------------------------------
    def report(self, i: int) -> PriceCheckReport:
        """Row ``i`` as a :class:`PriceCheckReport`.

        Materialized lazily and cached weakly: repeated access returns
        the same object while any reference to it is alive (so in-place
        guard writes via :meth:`set_guard` stay visible), without the
        cache pinning a full dataset of dataclasses next to the columns.
        """
        if not 0 <= i < len(self):
            raise IndexError(f"report row {i} out of range")
        cached = self._rows.get(i)
        if cached is None:
            cached = self._build_report(i)
            self._rows[i] = cached
        return cached

    def _build_report(self, i: int) -> PriceCheckReport:
        start, stop = self.obs_start[i], self.obs_start[i + 1]
        observations = [
            VantageObservation(
                vantage=self.vantages.value(self.o_vantage_id[j]),
                country_code=self.countries.value(self.o_country_id[j]),
                city=self.cities.value(self.o_city_id[j]),
                ok=self.o_ok[j],
                raw_text=self.raw_texts.value(self.o_raw_id[j]),
                amount=self.o_amount[j],
                currency=(
                    None if self.o_currency_id[j] == NO_CURRENCY
                    else self.currencies.value(self.o_currency_id[j])
                ),
                usd=self.o_usd[j],
                method=self.methods.value(self.o_method_id[j]),
                error=self.errors.value(self.o_error_id[j]),
            )
            for j in range(start, stop)
        ]
        return PriceCheckReport(
            check_id=self.check_id[i],
            url=self.urls.value(self.url_id[i]),
            domain=self.domains.value(self.domain_id[i]),
            day_index=self.day_index[i],
            timestamp=self.timestamp[i],
            observations=observations,
            guard_threshold=self.guard[i],
            origin=self.origins.value(self.origin_id[i]),
        )

    # ------------------------------------------------------------------
    # Mutation (the one analysis-sanctioned write: the cleaning guard)
    # ------------------------------------------------------------------
    def set_guard(self, value: float, rows: Optional[Sequence[int]] = None) -> None:
        """Set ``guard_threshold`` for ``rows`` (default: all).

        Updates the column *and* any already-materialized row objects, so
        the columnar kernels and dataclass consumers can never disagree
        about the guard.
        """
        indices = range(len(self)) if rows is None else rows
        guard = self.guard
        cached = self._rows
        for i in indices:
            guard[i] = value
            row = cached.get(i)
            if row is not None:
                row.guard_threshold = value

    # ------------------------------------------------------------------
    # Per-row helpers shared by the analysis kernels
    # ------------------------------------------------------------------
    def row_has_variation(self, i: int) -> bool:
        """``ratio > guard`` for row ``i`` (the paper's detection rule)."""
        ratio = self.ratio[i]
        return ratio is not None and ratio > self.guard[i]

    def ratios_by_vantage(self, i: int) -> list[tuple[int, float]]:
        """(vantage_id, price/min) pairs for row ``i``.

        Mirrors :meth:`PriceCheckReport.ratios_by_vantage` exactly: empty
        when the row's minimum is missing or non-positive; one entry per
        distinct vantage in first-occurrence order, last value winning.
        """
        lo = self.min_usd[i]
        if lo is None or lo <= 0:
            return []
        out: dict[int, float] = {}
        for j in range(self.obs_start[i], self.obs_start[i + 1]):
            if self.o_ok[j] and self.o_usd[j] is not None:
                out[self.o_vantage_id[j]] = (self.o_usd[j] or 0.0) / lo
        return list(out.items())

    def valid_obs_indices(self, i: int) -> Iterator[int]:
        """Observation rows of report ``i`` with a usable USD price."""
        for j in range(self.obs_start[i], self.obs_start[i + 1]):
            if self.o_ok[j] and self.o_usd[j] is not None:
                yield j

    # ------------------------------------------------------------------
    # Cached derived indexes (invalidated by the version counter)
    # ------------------------------------------------------------------
    def _cached(self, key: str, build):
        entry = self._index_cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]
        data = build()
        self._index_cache[key] = (self._version, data)
        return data

    def rows_by_domain(self) -> dict[int, list[int]]:
        """domain_id -> row indices, keys in first-occurrence order."""

        def build() -> dict[int, list[int]]:
            out: dict[int, list[int]] = {}
            for i, did in enumerate(self.domain_id):
                out.setdefault(did, []).append(i)
            return out

        return self._cached("rows_by_domain", build)

    def rows_by_url(self) -> dict[int, list[int]]:
        """url_id -> row indices, keys in first-occurrence order."""

        def build() -> dict[int, list[int]]:
            out: dict[int, list[int]] = {}
            for i, uid in enumerate(self.url_id):
                out.setdefault(uid, []).append(i)
            return out

        return self._cached("rows_by_url", build)

    def day_values(self) -> list[int]:
        """Sorted distinct ``day_index`` values."""
        return self._cached("day_values", lambda: sorted(set(self.day_index)))

    # ------------------------------------------------------------------
    # Columnar (de)serialization -- the io layer's compact layout
    # ------------------------------------------------------------------
    def to_columns(self) -> tuple[dict, dict, dict]:
        """(pools, report columns, observation columns) as JSON-ready dicts."""
        pools = {
            "domains": self.domains.values,
            "urls": self.urls.values,
            "vantages": self.vantages.values,
            "countries": self.countries.values,
            "cities": self.cities.values,
            "currencies": self.currencies.values,
            "methods": self.methods.values,
            "errors": self.errors.values,
            "origins": self.origins.values,
            "raw": self.raw_texts.values,
        }
        reports = {
            "check_id": self.check_id,
            "url": self.url_id,
            "domain": self.domain_id,
            "day": self.day_index,
            "ts": self.timestamp,
            "guard": self.guard,
            "origin": self.origin_id,
            "obs_start": self.obs_start,
        }
        observations = {
            "vantage": self.o_vantage_id,
            "country": self.o_country_id,
            "city": self.o_city_id,
            "ok": [1 if ok else 0 for ok in self.o_ok],
            "raw": self.o_raw_id,
            "amount": self.o_amount,
            "currency": self.o_currency_id,
            "usd": self.o_usd,
            "method": self.o_method_id,
            "error": self.o_error_id,
        }
        return pools, reports, observations

    @classmethod
    def from_columns(
        cls, pools: dict, reports: dict, observations: dict
    ) -> "ReportTable":
        """Rebuild a table from :meth:`to_columns` output.

        Validates column shapes, restores the pools verbatim (ids in the
        column arrays reference pool positions), and recomputes the
        derived per-report statistics in one pass -- no dataclass
        round-trip.
        """
        table = cls()
        try:
            table.domains = StringPool(pools["domains"])
            table.urls = StringPool(pools["urls"])
            table.vantages = StringPool(pools["vantages"])
            table.countries = StringPool(pools["countries"])
            table.cities = StringPool(pools["cities"])
            table.currencies = StringPool(pools["currencies"])
            table.methods = StringPool(pools["methods"])
            table.errors = StringPool(pools["errors"])
            table.origins = StringPool(pools["origins"])
            table.raw_texts = StringPool(pools["raw"])

            table.check_id = [str(c) for c in reports["check_id"]]
            n = len(table.check_id)
            table.url_id = [int(v) for v in reports["url"]]
            table.domain_id = [int(v) for v in reports["domain"]]
            table.day_index = [int(v) for v in reports["day"]]
            table.timestamp = [float(v) for v in reports["ts"]]
            table.guard = [float(v) for v in reports["guard"]]
            table.origin_id = [int(v) for v in reports["origin"]]
            table.obs_start = [int(v) for v in reports["obs_start"]]

            table.o_vantage_id = [int(v) for v in observations["vantage"]]
            m = len(table.o_vantage_id)
            table.o_country_id = [int(v) for v in observations["country"]]
            table.o_city_id = [int(v) for v in observations["city"]]
            table.o_ok = [bool(v) for v in observations["ok"]]
            table.o_raw_id = [int(v) for v in observations["raw"]]
            table.o_amount = [
                None if v is None else float(v) for v in observations["amount"]
            ]
            table.o_currency_id = [int(v) for v in observations["currency"]]
            table.o_usd = [
                None if v is None else float(v) for v in observations["usd"]
            ]
            table.o_method_id = [int(v) for v in observations["method"]]
            table.o_error_id = [int(v) for v in observations["error"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad columnar table data: {exc}") from exc

        report_cols = (
            table.url_id, table.domain_id, table.day_index, table.timestamp,
            table.guard, table.origin_id,
        )
        if any(len(col) != n for col in report_cols):
            raise ValueError("report columns have mismatched lengths")
        if len(table.obs_start) != n + 1 or (n == 0 and table.obs_start != [0]):
            raise ValueError("obs_start must have one entry per report plus one")
        obs_cols = (
            table.o_country_id, table.o_city_id, table.o_ok, table.o_raw_id,
            table.o_amount, table.o_currency_id, table.o_usd,
            table.o_method_id, table.o_error_id,
        )
        if any(len(col) != m for col in obs_cols):
            raise ValueError("observation columns have mismatched lengths")
        if table.obs_start[0] != 0 or table.obs_start[-1] != m:
            raise ValueError("obs_start does not cover the observation columns")
        if any(
            table.obs_start[i] > table.obs_start[i + 1] for i in range(n)
        ):
            raise ValueError("obs_start must be non-decreasing")
        # Every interned id must resolve inside its pool -- a corrupted
        # column must fail loudly here, not misattribute rows downstream
        # (negative ids would otherwise silently wrap via list indexing).
        _check_ids("url", table.url_id, table.urls)
        _check_ids("domain", table.domain_id, table.domains)
        _check_ids("origin", table.origin_id, table.origins)
        _check_ids("vantage", table.o_vantage_id, table.vantages)
        _check_ids("country", table.o_country_id, table.countries)
        _check_ids("city", table.o_city_id, table.cities)
        _check_ids("raw", table.o_raw_id, table.raw_texts)
        _check_ids("method", table.o_method_id, table.methods)
        _check_ids("error", table.o_error_id, table.errors)
        _check_ids(
            "currency", table.o_currency_id, table.currencies,
            sentinel=NO_CURRENCY,
        )

        # Recompute the derived statistics in one columnar pass.
        for i in range(n):
            n_valid = 0
            lo: Optional[float] = None
            hi: Optional[float] = None
            for j in range(table.obs_start[i], table.obs_start[i + 1]):
                usd = table.o_usd[j]
                if table.o_ok[j] and usd is not None:
                    n_valid += 1
                    if lo is None or usd < lo:
                        lo = usd
                    if hi is None or usd > hi:
                        hi = usd
            table.n_valid.append(n_valid)
            table.min_usd.append(lo)
            table.max_usd.append(hi)
            table.ratio.append(
                hi / lo if n_valid >= 2 and lo is not None and lo > 0 else None  # type: ignore[operator]
            )
        table._version = n
        return table

    def __repr__(self) -> str:
        return (
            f"ReportTable({len(self)} reports, {self.n_observations} "
            f"observations, {len(self.domains)} domains)"
        )


class TableSlice:
    """An ordered, lazily-materializing view of table rows.

    Quacks like a ``Sequence[PriceCheckReport]`` for callers that want
    dataclasses, while exposing ``(table, rows)`` for the columnar
    analysis kernels (see :func:`as_table_slice`).
    """

    __slots__ = ("table", "rows")

    def __init__(
        self, table: ReportTable, rows: Optional[Sequence[int]] = None
    ) -> None:
        self.table = table
        self.rows: Sequence[int] = range(len(table)) if rows is None else rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[PriceCheckReport, "TableSlice"]:
        if isinstance(index, slice):
            return TableSlice(self.table, self.rows[index])
        return self.table.report(self.rows[index])

    def __iter__(self) -> Iterator[PriceCheckReport]:
        report = self.table.report
        for i in self.rows:
            yield report(i)

    def with_variation(self) -> "TableSlice":
        """The rows whose variation beats their guard, in order."""
        has_variation = self.table.row_has_variation
        return TableSlice(self.table, [i for i in self.rows if has_variation(i)])

    def __repr__(self) -> str:
        return f"TableSlice({len(self)} of {len(self.table)} rows)"


def as_table_slice(reports) -> TableSlice:
    """``reports`` as a :class:`TableSlice`, the analysis kernels' input.

    A slice passes through and a bare table is viewed whole.  Any other
    report sequence is appended once to a fresh :class:`ReportTable`, so
    a guard write (cleaning) lands in that table, not in the caller's
    report objects.
    """
    if isinstance(reports, TableSlice):
        return reports
    if isinstance(reports, ReportTable):
        return TableSlice(reports)
    table = ReportTable()
    table.extend(reports)
    return TableSlice(table)
