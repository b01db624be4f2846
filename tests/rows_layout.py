"""Write datasets in the rows layout, which the loaders still read.

``repro.io`` saves only the columnar layout, but older files (and the
analyze benchmark input) use the rows layout: a header line, then one
serialized report per line (crawl) or one crowd check record per line.
This writer produces those bytes so the rows reader's checks stay tested.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.crawler.records import CrawlDataset
from repro.crowd.dataset import CheckRecord, CrowdDataset
from repro.io import report_to_dict


def crowd_record_row(record: CheckRecord) -> dict:
    """One crowd record as the rows layout stores it."""
    return {
        "user": record.user_id,
        "country": record.user_country,
        "day": record.day_index,
        "domain": record.domain,
        "url": record.url,
        "user_amount": record.outcome.user_amount,
        "user_currency": record.outcome.user_currency,
        "failure": record.outcome.failure,
        "report": report_to_dict(record.report) if record.report else None,
    }


def write_rows_dataset(
    dataset: Union[CrawlDataset, CrowdDataset],
    path: Union[str, Path],
    *,
    seed: Optional[int] = None,
) -> None:
    """Write ``dataset`` to ``path`` in the rows layout."""
    if isinstance(dataset, CrawlDataset):
        kind, count_key = "crawl", "reports"
        rows = [report_to_dict(report) for report in dataset.reports]
    else:
        kind, count_key = "crowd", "records"
        rows = [crowd_record_row(record) for record in dataset.records]
    header = {
        "format": "repro-reports",
        "version": 1,
        "kind": kind,
        "layout": "rows",
        count_key: len(dataset),
        "seed": seed,
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        for line in (header, *rows):
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
