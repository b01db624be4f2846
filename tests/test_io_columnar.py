"""Columnar dataset files: round-trip equality with the rows layout the
loaders still read, and the CLI's kind auto-detection."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import cli
from repro import io as dataset_io
from repro.analysis.ratios import domain_ratios, domain_variation_counts
from repro.io import report_to_dict
from tests.rows_layout import write_rows_dataset


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
