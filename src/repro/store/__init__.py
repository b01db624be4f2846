"""Columnar report store: the dataset spine.

* :mod:`repro.store.table` -- :class:`ReportTable` (parallel primitive
  columns + interned string pools + prefix-indexed observations),
  :class:`TableSlice` (lazy ``Sequence[PriceCheckReport]`` view), and
  :func:`as_table_slice` (any report sequence as a slice: the analysis
  kernels' one input shape).

Both measurement datasets (:class:`repro.crawler.records.CrawlDataset`
and :class:`repro.crowd.dataset.CrowdDataset`) are thin views over a
:class:`ReportTable`; the table is built once at merge time and queried
everywhere after -- see ``docs/ARCHITECTURE.md`` ("Dataset spine").
"""

from repro.store.table import ReportTable, StringPool, TableSlice, as_table_slice

__all__ = ["ReportTable", "StringPool", "TableSlice", "as_table_slice"]
