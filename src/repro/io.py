"""Dataset persistence: JSON-lines files of check reports.

The paper's backend "store[s] the pages for analysis in a database"; the
measurement datasets likewise need to outlive a process so the expensive
crawl can be analyzed repeatedly.  Every file starts with one header
line, ``{"format": "repro-reports", "version": 1, "kind":
"crawl"|"crowd", "layout": ..., ...metadata}``.

The saves write the **columnar** layout (``layout: "columnar"``), the
:class:`~repro.store.ReportTable`'s own shape: one line of string pools,
one line of report columns, one line of observation columns (crowd
files add a fourth line of record columns).

The loaders also read the older **rows** layout (``layout: "rows"``, or
no ``layout`` at all): after the header, one serialized
:class:`PriceCheckReport` per line (crawl), or one crowd check record
wrapping a report.  Both layouts load to equal datasets, column for
column (test-asserted).

Loading rebuilds the table directly in both layouts.  A rows file is
read one line at a time, and each line's dict goes through one decoder
(:func:`report_from_dict`'s rules) straight into the columns through
:meth:`ReportTable.append_row` -- no report, observation or record
object is built, and no list of parsed lines is kept.  The first fault
in file order is the one reported.

Readers validate the header and fail loudly on version mismatch -- silent
misreads of measurement data are worse than crashes.
:func:`load_dataset` sniffs the header's ``kind`` so callers (the CLI's
``analyze``) need not know which of their own ``--out`` files they were
handed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.core.reports import PriceCheckReport, VantageObservation, require_usd
from repro.crawler.records import CrawlDataset
from repro.crowd.dataset import CrowdDataset
from repro.store import ReportTable

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


def _decode_observation(data: dict) -> tuple:
    """One observation dict as an :meth:`ReportTable.append_row`
    observation tuple, with the dataclass's defaults and USD rule."""
    try:
        values = (
            data["vantage"], data["country"], data.get("city", ""),
            bool(data["ok"]), data.get("raw", ""), data.get("amount"),
            data.get("currency"), data.get("usd"), data.get("method", ""),
            data.get("error", ""),
        )
    except KeyError as exc:
        raise DatasetFormatError(f"observation missing field {exc}") from exc
    require_usd(values[3], values[7])
    return values


def _decode_report(data: dict, sink: Callable):
    """Decode one report dict and hand its values to ``sink``.

    The one decoder of the rows layout: it applies the field rules,
    defaults and checks, then calls ``sink`` with
    :meth:`ReportTable.append_row`'s arguments -- the column writer
    itself, or a builder of the dataclasses (:func:`report_from_dict`).
    Any failure, the sink's included (a number, list or object where a
    pooled string belongs: the table's pools take strings only), raises
    :class:`DatasetFormatError`.
    """
    try:
        check_id = data["check_id"]
        if not isinstance(check_id, str):
            raise TypeError(
                f"check_id: expected a string, not "
                f"{type(check_id).__name__} {check_id!r}"
            )
        return sink(
            check_id, data["url"], data["domain"], int(data["day"]),
            float(data["ts"]),
            [_decode_observation(obs) for obs in data["observations"]],
            float(data.get("guard", 1.0)), data.get("origin", "crawler"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad report record: {exc}") from exc


def _build_report(
    check_id, url, domain, day_index, timestamp, observations,
    guard_threshold, origin,
) -> PriceCheckReport:
    return PriceCheckReport(
        check_id=check_id, url=url, domain=domain, day_index=day_index,
        timestamp=timestamp,
        observations=[VantageObservation(*obs) for obs in observations],
        guard_threshold=guard_threshold, origin=origin,
    )


def _row_args(*values) -> tuple:
    return values


def report_from_dict(data: dict) -> PriceCheckReport:
    """Deserialize one report; raises :class:`DatasetFormatError`."""
    return _decode_report(data, _build_report)


def _decode_crowd_record(data: dict, add_row: Callable) -> None:
    """Decode one rows-layout crowd record into ``add_row``
    (:meth:`CrowdDataset.add_row`); raises :class:`DatasetFormatError`."""
    try:
        url, user = data["url"], data["user"]
        report = data.get("report")
        report = _decode_report(report, _row_args) if report else None
        user_amount = data.get("user_amount")
        user_currency = data.get("user_currency")
        failure = data.get("failure", "")
        add_row(
            user, data["country"], int(data["day"]), data["domain"], url,
            url, user, user_amount, user_currency, failure, report,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad crowd record: {exc}") from exc


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


@contextmanager
def _open_dataset(path: Union[str, Path], expected_kind: str):
    """``(header, lines)`` of a dataset file of ``expected_kind``:
    ``lines`` parses the lines after the header one at a time."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = _read_header(path, fh.readline())
        if header.get("kind") != expected_kind:
            raise DatasetFormatError(
                f"{path}: kind {header.get('kind')!r}, expected {expected_kind!r}"
            )
        yield header, _parse_lines(path, fh)


def _parse_lines(path: Path, fh) -> Iterator:
    loads = json.loads
    for line_no, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        try:
            row = loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}:{line_no}: {exc}") from exc
        yield row


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
    path: Union[str, Path], rows: list, names: tuple[str, ...]
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
    """Read a crawl dataset: the columnar layout :func:`save_crawl_dataset`
    writes, or the rows layout."""
    with _open_dataset(path, "crawl") as (header, lines):
        if header.get("layout") == LAYOUT_COLUMNAR:
            sections = _columnar_sections(
                path, list(lines), ("pools", "reports", "observations")
            )
            dataset = CrawlDataset(table=_table_from_sections(path, sections))
        else:
            dataset = CrawlDataset()
            append_row = dataset.table.append_row
            for row in lines:
                _decode_report(row, append_row)
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
    """Read a crowd dataset: the columnar layout :func:`save_crowd_dataset`
    writes, or the rows layout."""
    with _open_dataset(path, "crowd") as (header, lines):
        if header.get("layout") == LAYOUT_COLUMNAR:
            sections = _columnar_sections(
                path, list(lines), ("pools", "reports", "observations", "records")
            )
            table = _table_from_sections(path, sections[:3])
            try:
                dataset = CrowdDataset.from_columns(table, sections[0], sections[3])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: {exc}") from exc
        else:
            dataset = CrowdDataset()
            for row in lines:
                _decode_crowd_record(row, dataset.add_row)
    _check_declared_count(path, header, "records", len(dataset))
    return dataset
