"""The crawled dataset: reports from the systematic daily crawl.

This is a thin view over a :class:`~repro.store.ReportTable`:
:meth:`CrawlDataset.add` appends columns (no dataclass is retained),
``dataset.reports`` is a lazy :class:`~repro.store.TableSlice` for the
analysis kernels, and the summary accessors ride the table's cached,
version-invalidated indexes.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.reports import PriceCheckReport
from repro.store import ReportTable, TableSlice

__all__ = ["CrawlDataset"]


class CrawlDataset:
    """All product-day reports produced by :func:`repro.crawler.run_crawl`."""

    def __init__(
        self,
        reports: Optional[list[PriceCheckReport]] = None,
        *,
        table: Optional[ReportTable] = None,
    ) -> None:
        if reports and table is not None:
            raise ValueError("pass reports or table, not both")
        self._table = table if table is not None else ReportTable()
        if reports:
            self._table.extend(reports)

    @property
    def table(self) -> ReportTable:
        """The columnar spine backing this dataset."""
        return self._table

    @property
    def reports(self) -> TableSlice:
        """All reports, as a lazy list-compatible view."""
        return TableSlice(self._table)

    def add(self, report: PriceCheckReport) -> None:
        """Append one product-day report."""
        self._table.append(report)

    def append_segment(self, other: "CrawlDataset") -> None:
        """Fold another dataset's rows onto this spine (columnar merge).

        Delegates to :meth:`ReportTable.append_segment`; byte-identical
        to re-adding every report, without materializing any.
        """
        self._table.append_segment(other._table)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[PriceCheckReport]:
        return iter(self.reports)

    # ------------------------------------------------------------------
    @property
    def domains(self) -> list[str]:
        value = self._table.domains.value
        return sorted(value(did) for did in self._table.rows_by_domain())

    @property
    def day_indices(self) -> list[int]:
        return self._table.day_values()

    @property
    def n_extracted_prices(self) -> int:
        """Total successful price extractions -- the paper's '188K'."""
        return sum(self._table.n_valid)

    def summary(self) -> dict[str, int]:
        """Headline dataset statistics (the §3.2 crawl numbers)."""
        table = self._table
        return {
            "retailers": len(table.rows_by_domain()),
            "reports": len(table),
            "days": len(table.day_values()),
            "extracted_prices": self.n_extracted_prices,
            "products": len(table.rows_by_url()),
        }

    def __repr__(self) -> str:
        return f"CrawlDataset({len(self)} reports)"
