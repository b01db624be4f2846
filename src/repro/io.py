"""Dataset persistence: JSON-lines files of check reports.

The paper's backend "store[s] the pages for analysis in a database"; the
measurement datasets likewise need to outlive a process so the expensive
crawl can be analyzed repeatedly.  Every file starts with one header
line, ``{"format": "repro-reports", "version": 1, "kind":
"crawl"|"crowd", "layout": ..., ...metadata}``.

The saves write the **columnar** layout (``layout: "columnar"``), the
:class:`~repro.store.ReportTable`'s own shape: one line of string pools,
one line of report columns, one line of observation columns (crowd
files add a fourth line of record columns).  Loading rebuilds the table
directly, with no per-report dict round-trip.

The loaders also read the older **rows** layout (``layout: "rows"``, or
no ``layout`` at all): after the header, one serialized
:class:`PriceCheckReport` per line (crawl), or one crowd check record
wrapping a report.  Both layouts load to equal datasets (test-asserted).

Readers validate the header and fail loudly on version mismatch -- silent
misreads of measurement data are worse than crashes.
:func:`load_dataset` sniffs the header's ``kind`` so callers (the CLI's
``analyze``) need not know which of their own ``--out`` files they were
handed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.extension import CheckOutcome
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.crawler.records import CrawlDataset
from repro.crowd.dataset import CheckRecord, CrowdDataset
from repro.store import ReportTable
from repro.store.table import NO_CURRENCY

__all__ = [
    "DatasetFormatError",
    "save_crawl_dataset",
    "load_crawl_dataset",
    "save_crowd_dataset",
    "load_crowd_dataset",
    "dataset_kind",
    "load_dataset",
    "report_to_dict",
    "report_from_dict",
]

FORMAT_NAME = "repro-reports"
FORMAT_VERSION = 1
LAYOUT_COLUMNAR = "columnar"


class DatasetFormatError(ValueError):
    """Raised for files that are not valid dataset dumps."""


# ----------------------------------------------------------------------
# Report <-> dict
# ----------------------------------------------------------------------
def _observation_to_dict(obs: VantageObservation) -> dict:
    return {
        "vantage": obs.vantage,
        "country": obs.country_code,
        "city": obs.city,
        "ok": obs.ok,
        "raw": obs.raw_text,
        "amount": obs.amount,
        "currency": obs.currency,
        "usd": obs.usd,
        "method": obs.method,
        "error": obs.error,
    }


def _observation_from_dict(data: dict) -> VantageObservation:
    try:
        return VantageObservation(
            vantage=data["vantage"],
            country_code=data["country"],
            city=data.get("city", ""),
            ok=bool(data["ok"]),
            raw_text=data.get("raw", ""),
            amount=data.get("amount"),
            currency=data.get("currency"),
            usd=data.get("usd"),
            method=data.get("method", ""),
            error=data.get("error", ""),
        )
    except KeyError as exc:
        raise DatasetFormatError(f"observation missing field {exc}") from exc


def report_to_dict(report: PriceCheckReport) -> dict:
    """Serialize one report to a JSON-compatible dict."""
    return {
        "check_id": report.check_id,
        "url": report.url,
        "domain": report.domain,
        "day": report.day_index,
        "ts": report.timestamp,
        "guard": report.guard_threshold,
        "origin": report.origin,
        "observations": [
            _observation_to_dict(obs) for obs in report.observations
        ],
    }


def report_from_dict(data: dict) -> PriceCheckReport:
    """Deserialize one report; raises :class:`DatasetFormatError`."""
    try:
        return PriceCheckReport(
            check_id=data["check_id"],
            url=data["url"],
            domain=data["domain"],
            day_index=int(data["day"]),
            timestamp=float(data["ts"]),
            observations=[
                _observation_from_dict(obs) for obs in data["observations"]
            ],
            guard_threshold=float(data.get("guard", 1.0)),
            origin=data.get("origin", "crawler"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad report record: {exc}") from exc


# ----------------------------------------------------------------------
# File plumbing
# ----------------------------------------------------------------------
def _write_lines(path: Union[str, Path], header: dict, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _read_header(path: Path, first: str) -> dict:
    if not first.strip():
        raise DatasetFormatError(f"{path} is empty")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DatasetFormatError(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"{path}: unsupported version {header.get('version')!r}"
        )
    return header


def _read_lines(
    path: Union[str, Path], expected_kind: Optional[str]
) -> tuple[dict, list[dict]]:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = _read_header(path, fh.readline())
        if expected_kind is not None and header.get("kind") != expected_kind:
            raise DatasetFormatError(
                f"{path}: kind {header.get('kind')!r}, expected {expected_kind!r}"
            )
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{path}:{line_no}: {exc}") from exc
    return header, rows


def _check_declared_count(
    path: Union[str, Path], header: dict, key: str, actual: int
) -> None:
    """Fail loudly when a file holds fewer rows than its header declares.

    A crash mid-write can truncate a rows-layout file at a line boundary
    -- every surviving line is valid JSON, so only the header's declared
    count betrays the loss.  (A torn *last* line is caught earlier by the
    per-line JSON parse.)
    """
    declared = header.get(key)
    if isinstance(declared, int) and declared != actual:
        raise DatasetFormatError(
            f"{path}: header declares {declared} {key}, file holds {actual} "
            f"(truncated write?)"
        )


def dataset_kind(path: Union[str, Path]) -> str:
    """The ``kind`` declared in a dataset file's header (header-only read)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = _read_header(path, fh.readline())
    kind = header.get("kind")
    if kind not in ("crawl", "crowd"):
        raise DatasetFormatError(f"{path}: unknown dataset kind {kind!r}")
    return kind


def load_dataset(
    path: Union[str, Path]
) -> tuple[str, Union[CrawlDataset, CrowdDataset]]:
    """Load either dataset kind, sniffing the header: (kind, dataset)."""
    kind = dataset_kind(path)
    if kind == "crawl":
        return kind, load_crawl_dataset(path)
    return kind, load_crowd_dataset(path)


# ----------------------------------------------------------------------
# Columnar layout plumbing
# ----------------------------------------------------------------------
def _columnar_sections(
    path: Union[str, Path], rows: list[dict], names: tuple[str, ...]
) -> list[dict]:
    if len(rows) != len(names):
        raise DatasetFormatError(
            f"{path}: columnar layout expects {len(names)} column lines "
            f"({', '.join(names)}), found {len(rows)}"
        )
    sections = []
    for row, name in zip(rows, names):
        section = row.get(name) if isinstance(row, dict) else None
        if not isinstance(section, dict):
            raise DatasetFormatError(f"{path}: missing columnar section {name!r}")
        sections.append(section)
    return sections


def _table_from_sections(path: Union[str, Path], sections: list[dict]) -> ReportTable:
    try:
        return ReportTable.from_columns(*sections)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# Crawl dataset
# ----------------------------------------------------------------------
def save_crawl_dataset(
    dataset: CrawlDataset, path: Union[str, Path], *, seed: Optional[int] = None
) -> int:
    """Write a crawl dataset in the columnar layout; returns its report count."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "crawl",
        "layout": LAYOUT_COLUMNAR,
        "reports": len(dataset),
        "seed": seed,
    }
    pools, reports, observations = dataset.table.to_columns()
    _write_lines(
        path, header,
        ({"pools": pools}, {"reports": reports}, {"observations": observations}),
    )
    return len(dataset)


def load_crawl_dataset(path: Union[str, Path]) -> CrawlDataset:
    """Read a crawl dataset written by :func:`save_crawl_dataset`."""
    header, rows = _read_lines(path, "crawl")
    if header.get("layout") == LAYOUT_COLUMNAR:
        sections = _columnar_sections(
            path, rows, ("pools", "reports", "observations")
        )
        dataset = CrawlDataset(table=_table_from_sections(path, sections))
        _check_declared_count(path, header, "reports", len(dataset))
        return dataset
    dataset = CrawlDataset()
    for row in rows:
        dataset.add(report_from_dict(row))
    _check_declared_count(path, header, "reports", len(dataset))
    return dataset


# ----------------------------------------------------------------------
# Crowd dataset
# ----------------------------------------------------------------------
def save_crowd_dataset(
    dataset: CrowdDataset, path: Union[str, Path], *, seed: Optional[int] = None
) -> int:
    """Write a crowd dataset in the columnar layout; returns its record count."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "crowd",
        "layout": LAYOUT_COLUMNAR,
        "records": len(dataset),
        "seed": seed,
    }
    pools, reports, observations = dataset.table.to_columns()
    records = dataset.record_columns()
    pools = dict(pools, **records.pop("pools"))
    _write_lines(
        path, header,
        ({"pools": pools}, {"reports": reports},
         {"observations": observations}, {"records": records}),
    )
    return len(dataset)


def load_crowd_dataset(path: Union[str, Path]) -> CrowdDataset:
    """Read a crowd dataset written by :func:`save_crowd_dataset`."""
    header, rows = _read_lines(path, "crowd")
    if header.get("layout") == LAYOUT_COLUMNAR:
        sections = _columnar_sections(
            path, rows, ("pools", "reports", "observations", "records")
        )
        table = _table_from_sections(path, sections[:3])
        try:
            dataset = CrowdDataset.from_columns(table, sections[0], sections[3])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from exc
        _check_declared_count(path, header, "records", len(dataset))
        return dataset
    dataset = CrowdDataset()
    for row in rows:
        try:
            outcome = CheckOutcome(
                url=row["url"],
                user=row["user"],
                report=(
                    report_from_dict(row["report"]) if row.get("report") else None
                ),
                user_amount=row.get("user_amount"),
                user_currency=row.get("user_currency"),
                failure=row.get("failure", ""),
            )
            dataset.add(
                CheckRecord(
                    user_id=row["user"],
                    user_country=row["country"],
                    day_index=int(row["day"]),
                    domain=row["domain"],
                    url=row["url"],
                    outcome=outcome,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"bad crowd record: {exc}") from exc
    _check_declared_count(path, header, "records", len(dataset))
    return dataset
