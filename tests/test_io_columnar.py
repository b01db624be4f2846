"""Columnar dataset files: round-trip equality with the rows layout the
loaders still read, the rows reader's decode into columns, and the CLI's
kind auto-detection."""

from __future__ import annotations

import copy
import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro import cli
from repro import io as dataset_io
from repro.analysis.ratios import domain_ratios, domain_variation_counts
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.crowd.dataset import CheckRecord
from repro.io import report_to_dict
from repro.store import ReportTable
from repro.store.table import NO_CURRENCY
from tests.rows_layout import write_rows_dataset

SAVE = {"crawl": dataset_io.save_crawl_dataset,
        "crowd": dataset_io.save_crowd_dataset}
LOAD = {"crawl": dataset_io.load_crawl_dataset,
        "crowd": dataset_io.load_crowd_dataset}


def crawl_record_dicts(dataset):
    return [report_to_dict(r) for r in dataset.reports]


def crowd_record_dicts(dataset):
    return [
        {
            "user": rec.user_id, "country": rec.user_country,
            "day": rec.day_index, "domain": rec.domain, "url": rec.url,
            "outcome_url": rec.outcome.url, "outcome_user": rec.outcome.user,
            "amount": rec.outcome.user_amount,
            "currency": rec.outcome.user_currency,
            "failure": rec.outcome.failure,
            "report": report_to_dict(rec.report) if rec.report else None,
        }
        for rec in dataset.records
    ]


class TestCrawlColumnar:
    def test_roundtrip_equals_row_layout(self, tiny_ctx, tmp_path: Path):
        dataset = tiny_ctx.crawl
        rows_path = tmp_path / "crawl_rows.jsonl"
        cols_path = tmp_path / "crawl_cols.jsonl"
        write_rows_dataset(dataset, rows_path, seed=2013)
        written = dataset_io.save_crawl_dataset(dataset, cols_path, seed=2013)
        assert written == len(dataset)  # reports, not file lines
        # pools + report columns + observation columns
        assert len(cols_path.read_text().splitlines()) == 1 + 3
        from_rows = dataset_io.load_crawl_dataset(rows_path)
        from_cols = dataset_io.load_crawl_dataset(cols_path)
        assert crawl_record_dicts(from_cols) == crawl_record_dicts(from_rows)
        assert from_cols.summary() == dataset.summary()

    def test_columnar_is_compact(self, tiny_ctx, tmp_path: Path):
        dataset = tiny_ctx.crawl
        rows_path = tmp_path / "rows.jsonl"
        cols_path = tmp_path / "cols.jsonl"
        write_rows_dataset(dataset, rows_path)
        dataset_io.save_crawl_dataset(dataset, cols_path)
        assert cols_path.stat().st_size < 0.5 * rows_path.stat().st_size

    def test_corrupt_columnar_sections(self, tiny_ctx, tmp_path: Path):
        path = tmp_path / "cols.jsonl"
        dataset_io.save_crawl_dataset(tiny_ctx.crawl, path)
        lines = path.read_text().splitlines()
        # Drop the observations line: wrong section count must fail loudly.
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)

    def test_legacy_header_without_layout_still_loads(
        self, tiny_ctx, tmp_path: Path
    ):
        """Rows files written before the header had a layout field stay
        readable."""
        import json

        path = tmp_path / "old.jsonl"
        write_rows_dataset(tiny_ctx.crawl, path)
        header, *rows = path.read_text().splitlines(True)
        legacy = {"format": "repro-reports", "version": 1, "kind": "crawl"}
        assert json.loads(header)["layout"] == "rows"
        path.write_text(json.dumps(legacy) + "\n" + "".join(rows))
        loaded = dataset_io.load_crawl_dataset(path)
        assert crawl_record_dicts(loaded) == crawl_record_dicts(tiny_ctx.crawl)


class TestCrowdColumnar:
    def test_roundtrip_equals_row_layout(self, tiny_ctx, tmp_path: Path):
        dataset = tiny_ctx.crowd
        rows_path = tmp_path / "crowd_rows.jsonl"
        cols_path = tmp_path / "crowd_cols.jsonl"
        write_rows_dataset(dataset, rows_path, seed=2013)
        written = dataset_io.save_crowd_dataset(dataset, cols_path, seed=2013)
        assert written == len(dataset)  # records, not file lines
        # pools + reports + observations + records
        assert len(cols_path.read_text().splitlines()) == 1 + 4
        from_rows = dataset_io.load_crowd_dataset(rows_path)
        from_cols = dataset_io.load_crowd_dataset(cols_path)
        assert crowd_record_dicts(from_cols) == crowd_record_dicts(from_rows)
        assert from_cols.summary() == dataset.summary()
        assert list(domain_variation_counts(from_cols.reports()).items()) == \
            list(domain_variation_counts(dataset.reports()).items())
        assert domain_ratios(from_cols.reports(), only_variation=True) == \
            domain_ratios(dataset.reports(), only_variation=True)


class TestKindDetection:
    def test_dataset_kind(self, tiny_ctx, tmp_path: Path):
        crawl_path = tmp_path / "a.jsonl"
        crowd_path = tmp_path / "b.jsonl"
        write_rows_dataset(tiny_ctx.crawl, crawl_path)
        dataset_io.save_crowd_dataset(tiny_ctx.crowd, crowd_path)
        assert dataset_io.dataset_kind(crawl_path) == "crawl"
        assert dataset_io.dataset_kind(crowd_path) == "crowd"

    def test_load_dataset_dispatches(self, tiny_ctx, tmp_path: Path):
        path = tmp_path / "crowd.jsonl"
        dataset_io.save_crowd_dataset(tiny_ctx.crowd, path)
        kind, loaded = dataset_io.load_dataset(path)
        assert kind == "crowd"
        assert loaded.summary() == tiny_ctx.crowd.summary()

    def test_unknown_kind_rejected(self, tmp_path: Path):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"format": "repro-reports", "version": 1, "kind": "odd"}\n')
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.dataset_kind(path)


class TestCliAutoDetect:
    def test_analyze_crowd_file(self, tmp_path: Path, capsys):
        out_file = tmp_path / "crowd.jsonl"
        code = cli.main(["campaign", "--scale", "tiny", "--out", str(out_file)])
        assert code == 0
        capsys.readouterr()
        code = cli.main(["analyze", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded crowd dataset" in out
        assert "checks with variation per domain" in out
        assert "magnitude" in out

    def test_analyze_crawl_file_output_unchanged(self, tmp_path: Path, capsys):
        out_file = tmp_path / "crawl.jsonl"
        code = cli.main(["crawl", "--scale", "tiny", "--out", str(out_file)])
        assert code == 0
        capsys.readouterr()
        code = cli.main(["analyze", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "extent of variation" in out
        assert "Finland profile" in out

    def test_analyze_prints_the_same_for_both_layouts(
        self, tiny_ctx, tmp_path: Path, capsys
    ):
        for kind, dataset, save in (
            ("crawl", tiny_ctx.crawl, dataset_io.save_crawl_dataset),
            ("crowd", tiny_ctx.crowd, dataset_io.save_crowd_dataset),
        ):
            rows_path = tmp_path / f"{kind}_rows.jsonl"
            cols_path = tmp_path / f"{kind}_cols.jsonl"
            write_rows_dataset(dataset, rows_path)
            save(dataset, cols_path)
            printed = []
            for path in (rows_path, cols_path):
                assert cli.main(["analyze", str(path)]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], kind
            assert printed[0].startswith("loaded")


class TestTornFiles:
    """Crash artifacts: loads must fail loudly, never misread.

    A process dying mid-write leaves either a torn final line (killed
    mid-line) or a file truncated at a line boundary (killed between
    lines).  The first breaks the per-line JSON parse; the second leaves
    every line valid, and only the header's declared count betrays it.
    """

    def test_torn_last_line_raises_crawl(self, tiny_ctx, tmp_path: Path):
        path = tmp_path / "torn.jsonl"
        for write in (write_rows_dataset, dataset_io.save_crawl_dataset):
            write(tiny_ctx.crawl, path)
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) // 2])
            with pytest.raises(dataset_io.DatasetFormatError):
                dataset_io.load_crawl_dataset(path)

    def test_torn_last_line_raises_crowd(self, tiny_ctx, tmp_path: Path):
        path = tmp_path / "torn.jsonl"
        for write in (write_rows_dataset, dataset_io.save_crowd_dataset):
            write(tiny_ctx.crowd, path)
            path.write_bytes(path.read_bytes()[:-40])
            with pytest.raises(dataset_io.DatasetFormatError):
                dataset_io.load_crowd_dataset(path)

    def test_line_boundary_truncation_raises_crawl_rows(
        self, tiny_ctx, tmp_path: Path
    ):
        path = tmp_path / "short.jsonl"
        write_rows_dataset(tiny_ctx.crawl, path)
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:-1]))  # every line still valid JSON
        with pytest.raises(dataset_io.DatasetFormatError, match="declares"):
            dataset_io.load_crawl_dataset(path)

    def test_line_boundary_truncation_raises_crowd_rows(
        self, tiny_ctx, tmp_path: Path
    ):
        path = tmp_path / "short.jsonl"
        write_rows_dataset(tiny_ctx.crowd, path)
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(dataset_io.DatasetFormatError, match="declares"):
            dataset_io.load_crowd_dataset(path)

    def test_kind_detection_does_not_misclassify_torn_files(
        self, tiny_ctx, tmp_path: Path
    ):
        """A torn tail must not flip a file's detected kind -- and a torn
        *header* must be an error, not a guess."""
        path = tmp_path / "torn.jsonl"
        dataset_io.save_crawl_dataset(tiny_ctx.crawl, path)
        path.write_bytes(path.read_bytes()[:-25])
        assert dataset_io.dataset_kind(path) == "crawl"

        header_torn = tmp_path / "torn_header.jsonl"
        full = path.read_bytes()
        header_torn.write_bytes(full[: full.index(b"\n") // 2])
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.dataset_kind(header_torn)


# ----------------------------------------------------------------------
# The rows reader: one decoder, straight into the columns
# ----------------------------------------------------------------------
def derived_columns(table: ReportTable) -> tuple:
    return table.n_valid, table.min_usd, table.max_usd, table.ratio


def write_lines(path: Path, lines: list) -> None:
    """``lines``' JSON values one per line; a string goes in verbatim."""
    path.write_text(
        "".join(
            (line if isinstance(line, str) else json.dumps(line)) + "\n"
            for line in lines
        ),
        encoding="utf-8",
    )


class TestRowsDecodeIntoColumns:
    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_rows_load_equals_columnar_load_column_for_column(
        self, kind, tiny_ctx, tmp_path: Path
    ):
        """Pool order, obs_start, the derived statistics and (crowd) the
        record columns all match, and a rows-loaded dataset saves to the
        bytes the original saves to."""
        dataset = getattr(tiny_ctx, kind)
        rows_path, cols_path = tmp_path / "rows.jsonl", tmp_path / "cols.jsonl"
        write_rows_dataset(dataset, rows_path, seed=2013)
        SAVE[kind](dataset, cols_path, seed=2013)
        from_rows, from_cols = LOAD[kind](rows_path), LOAD[kind](cols_path)
        assert from_rows.table.to_columns() == from_cols.table.to_columns()
        assert derived_columns(from_rows.table) == derived_columns(from_cols.table)
        if kind == "crowd":
            assert from_rows.record_columns() == from_cols.record_columns()
        resaved = tmp_path / "resaved.jsonl"
        SAVE[kind](from_rows, resaved, seed=2013)
        assert resaved.read_bytes() == cols_path.read_bytes()

    def test_edge_values_and_defaults(self, tmp_path: Path):
        """A hand-written legacy file (no ``layout``, blank lines) loads
        to the table the dataclass path builds from the same dicts."""
        rows = [
            {
                "check_id": "c1", "url": "http://e.example/p/1",
                "domain": "e.example", "day": 2, "ts": 172800.5,
                # No guard, no origin; the first observation has only the
                # required fields and an integer usd.
                "observations": [
                    {"vantage": "USA - Boston", "country": "US", "ok": True,
                     "usd": 12},
                    {"vantage": "Spain - Madrid", "country": "ES",
                     "city": "Madrid", "ok": True, "raw": "0,00 \u20ac",
                     "amount": 0.0, "currency": "EUR", "usd": 0.0,
                     "method": "selector", "error": ""},
                    {"vantage": "UK - London", "country": "GB",
                     "city": "London", "ok": False, "raw": "",
                     "amount": None, "currency": None, "usd": None,
                     "method": "", "error": "http 503"},
                ],
            },
            {
                "check_id": "c2", "url": "http://e.example/p/2",
                "domain": "e.example", "day": 3, "ts": 259200.0,
                "guard": 1.05, "origin": "alice",
                "observations": [
                    {"vantage": "USA - Boston", "country": "US", "ok": True,
                     "usd": 10},
                    {"vantage": "UK - London", "country": "GB", "ok": 1,
                     "usd": 12},
                ],
            },
        ]
        path = tmp_path / "edge.jsonl"
        header = {"format": "repro-reports", "version": 1, "kind": "crawl",
                  "reports": 2}
        write_lines(path, [header, "", rows[0], "   ", rows[1], ""])
        table = dataset_io.load_crawl_dataset(path).table

        expected = ReportTable()
        for row in rows:
            expected.append(dataset_io.report_from_dict(row))
        assert table.to_columns() == expected.to_columns()
        assert derived_columns(table) == derived_columns(expected)

        assert table.o_usd[:3] == [12, 0.0, None]
        assert type(table.o_usd[0]) is int
        assert table.o_ok == [True, True, False, True, True]
        # Missing optional fields take report_from_dict's defaults.
        assert table.cities.value(table.o_city_id[0]) == ""
        assert table.raw_texts.value(table.o_raw_id[0]) == ""
        assert table.methods.value(table.o_method_id[0]) == ""
        assert table.errors.value(table.o_error_id[0]) == ""
        assert table.o_amount[0] is None
        assert table.o_currency_id[0] == NO_CURRENCY
        assert table.guard == [1.0, 1.05]
        assert table.origins.values == ["crawler", "alice"]
        # The failed observation keeps its nulls.
        assert (table.o_amount[2], table.o_currency_id[2], table.o_usd[2]) == \
            (None, NO_CURRENCY, None)
        # usd 0.0 is a price: it counts, and a zero minimum gives no ratio.
        assert (table.n_valid[0], table.min_usd[0], table.ratio[0]) == (2, 0.0, None)
        assert table.ratio[1] == pytest.approx(1.2)
        assert table.obs_start == [0, 3, 5]


#: A valid rows-layout report, the base the malformed rows are made from.
GOOD_REPORT = {
    "check_id": "chk0000001", "url": "http://d.example/p/1",
    "domain": "d.example", "day": 3, "ts": 259320.5, "guard": 1.02,
    "origin": "crawler",
    "observations": [
        {"vantage": "USA - Boston", "country": "US", "city": "Boston",
         "ok": True, "raw": "$10.00", "amount": 10.0, "currency": "USD",
         "usd": 10.0, "method": "selector", "error": ""},
        {"vantage": "UK - London", "country": "GB", "city": "London",
         "ok": False, "raw": "", "amount": None, "currency": None,
         "usd": None, "method": "", "error": "http 404"},
    ],
}


def _without(key):
    def change(row):
        del row[key]
    return change


def _setting(key, value):
    def change(row):
        row[key] = value
    return change


def _observation(change_first):
    def change(row):
        change_first(row["observations"][0])
    return change


def _replacing_observation(value):
    def change(row):
        row["observations"][0] = value
    return change


#: The message for a number where a string belongs.  ``check_id`` is
#: checked by the decoder; a pooled field (every other string field)
#: when its pool first sees the value, which in a crowd file is the crowd
#: dataset's writer, so there the message names the crowd record only.
NOT_A_STRING = "expected a string, not int 5"

#: (case id, change to GOOD_REPORT or a whole replacement row, the
#: loaders' message for a crawl file holding that row[, the message for a
#: crowd file when it is not "bad crowd record: " + the crawl message]).
MALFORMED = [
    ("not-a-dict", [1, 2],
     "bad report record: list indices must be integers or slices, not str"),
    *[
        (f"no-{key}", _without(key), f"bad report record: '{key}'")
        for key in ("check_id", "url", "domain", "day", "ts", "observations")
    ],
    ("day-x", _setting("day", "x"),
     "bad report record: invalid literal for int() with base 10: 'x'"),
    ("observations-5", _setting("observations", 5),
     "bad report record: 'int' object is not iterable"),
    ("observation-string", _replacing_observation("USA - Boston"),
     "bad report record: string indices must be integers, not 'str'"),
    *[
        (f"observation-no-{key}", _observation(_without(key)),
         f"bad report record: observation missing field '{key}'")
        for key in ("vantage", "country", "ok")
    ],
    ("ok-usd-null", _observation(_setting("usd", None)),
     "bad report record: a successful observation needs a USD value"),
    ("ok-usd-negative", _observation(_setting("usd", -1)),
     "bad report record: a successful observation needs a USD value"),
    ("ok-usd-string", _observation(_setting("usd", "1")),
     "bad report record: '<' not supported between instances of 'str' "
     "and 'int'"),
    ("guard-x", _setting("guard", "x"),
     "bad report record: could not convert string to float: 'x'"),
    ("check_id-int", _setting("check_id", 7),
     "bad report record: check_id: expected a string, not int 7"),
    *[
        (f"{key}-int", _setting(key, 5), f"bad report record: {NOT_A_STRING}",
         f"bad crowd record: {NOT_A_STRING}")
        for key in ("url", "domain", "origin")
    ],
    *[
        (f"observation-{key}-int", _observation(_setting(key, 5)),
         f"bad report record: {NOT_A_STRING}",
         f"bad crowd record: {NOT_A_STRING}")
        for key in ("vantage", "country", "city", "raw", "currency",
                    "method", "error")
    ],
]


def _malformed(change) -> object:
    if not callable(change):
        return change
    row = copy.deepcopy(GOOD_REPORT)
    change(row)
    return row


def _crowd_record(report) -> dict:
    return {"user": "u0001", "country": "FI", "day": 3,
            "domain": "d.example", "url": "http://d.example/p/1",
            "user_amount": 9.7, "user_currency": "EUR", "failure": "",
            "report": report}


def _rows_file(path: Path, kind: str, reports: list, *, declared=None) -> None:
    count_key = "reports" if kind == "crawl" else "records"
    header = {"format": "repro-reports", "version": 1, "kind": kind,
              "layout": "rows",
              count_key: len(reports) if declared is None else declared}
    if kind == "crowd":
        reports = [_crowd_record(report) for report in reports]
    write_lines(path, [header, *reports])


class TestRowsErrorMessages:
    """Each single-fault rows file raises the message it always raised."""

    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    @pytest.mark.parametrize("change,message,crowd_message",
                             [(*case[1:], None)[:3] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_row(self, kind, change, message, crowd_message,
                           tmp_path: Path):
        path = tmp_path / "bad.jsonl"
        _rows_file(path, kind, [GOOD_REPORT, _malformed(change), GOOD_REPORT])
        with pytest.raises(dataset_io.DatasetFormatError) as raised:
            LOAD[kind](path)
        if kind == "crowd":
            message = crowd_message or f"bad crowd record: {message}"
        assert str(raised.value) == message

    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_torn_line(self, kind, tmp_path: Path):
        path = tmp_path / "torn.jsonl"
        _rows_file(path, kind, [GOOD_REPORT, GOOD_REPORT])
        lines = path.read_text(encoding="utf-8").splitlines(True)
        torn = lines[-1][: len(lines[-1]) // 2]
        path.write_text("".join(lines[:-1]) + torn, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(torn)
        with pytest.raises(dataset_io.DatasetFormatError) as raised:
            LOAD[kind](path)
        assert str(raised.value) == f"{path}:3: {parse.value}"

    @pytest.mark.parametrize("kind,count_key",
                             [("crawl", "reports"), ("crowd", "records")])
    def test_declared_count(self, kind, count_key, tmp_path: Path):
        path = tmp_path / "short.jsonl"
        _rows_file(path, kind, [GOOD_REPORT, GOOD_REPORT], declared=3)
        with pytest.raises(dataset_io.DatasetFormatError) as raised:
            LOAD[kind](str(path))
        assert str(raised.value) == (
            f"{path}: header declares 3 {count_key}, file holds 2 "
            f"(truncated write?)"
        )

    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_first_fault_in_file_order_is_reported(self, kind, tmp_path: Path):
        """Lines are read one at a time, so a bad row wins over a torn
        line after it."""
        path = tmp_path / "two-faults.jsonl"
        _rows_file(path, kind,
                   [_malformed(_without("check_id")), GOOD_REPORT, GOOD_REPORT])
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(dataset_io.DatasetFormatError,
                           match="bad report record: 'check_id'"):
            LOAD[kind](path)


class TestRowsLoadBuildsNoRowObjects:
    """The rows reader writes columns; it builds no dataclass per line and
    keeps no list of parsed lines."""

    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_no_report_observation_or_record_objects(
        self, kind, tiny_ctx, monkeypatch, tmp_path: Path
    ):
        dataset = getattr(tiny_ctx, kind)
        path = tmp_path / "rows.jsonl"
        write_rows_dataset(dataset, path)
        built = {}
        for cls in (PriceCheckReport, VantageObservation, CheckRecord):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                        **kwargs):
                built[_name] = built.get(_name, 0) + 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        loaded = LOAD[kind](path)
        assert len(loaded) == len(dataset)
        assert built == {}
        loaded.table.report(0)  # the counters do count
        assert built["PriceCheckReport"] == 1
        assert built["VantageObservation"] == loaded.table.obs_start[1]

    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_peak_memory_stays_near_the_loaded_dataset(
        self, kind, tiny_ctx, tmp_path: Path
    ):
        path = tmp_path / "rows.jsonl"
        write_rows_dataset(getattr(tiny_ctx, kind), path)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            loaded = LOAD[kind](path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == len(getattr(tiny_ctx, kind))
        ratio = (peak - base) / (retained - base)
        assert ratio <= 1.5, f"peak is {ratio:.2f}x the retained dataset"
