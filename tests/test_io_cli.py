"""Dataset persistence round-trips and CLI tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro import io as dataset_io
from repro.analysis.ratios import domain_variation_counts
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.crawler.records import CrawlDataset
from tests.rows_layout import write_rows_dataset


def make_report(url: str = "http://d.example/p/1", *, day: int = 3) -> PriceCheckReport:
    return PriceCheckReport(
        check_id="chk0000001",
        url=url,
        domain="d.example",
        day_index=day,
        timestamp=day * 86400.0 + 120.5,
        observations=[
            VantageObservation(
                vantage="USA - Boston", country_code="US", city="Boston",
                ok=True, raw_text="$10.00", amount=10.0, currency="USD",
                usd=10.0, method="selector",
            ),
            VantageObservation(
                vantage="Finland - Tampere", country_code="FI", city="Tampere",
                ok=True, raw_text="9,70 €", amount=9.7, currency="EUR",
                usd=12.8, method="selector",
            ),
            VantageObservation(
                vantage="UK - London", country_code="GB", city="London",
                ok=False, error="http 404",
            ),
        ],
        guard_threshold=1.02,
        origin="crawler",
    )


class TestReportRoundtrip:
    def test_dict_roundtrip(self):
        report = make_report()
        data = dataset_io.report_to_dict(report)
        again = dataset_io.report_from_dict(data)
        assert again.check_id == report.check_id
        assert again.url == report.url
        assert again.day_index == report.day_index
        assert again.guard_threshold == report.guard_threshold
        assert len(again.observations) == 3
        assert again.ratio == pytest.approx(report.ratio)
        assert again.has_variation == report.has_variation

    def test_json_serializable(self):
        json.dumps(dataset_io.report_to_dict(make_report()))

    def test_bad_record_raises(self):
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.report_from_dict({"url": "x"})


class TestCrawlFile:
    def test_save_load_roundtrip(self, tmp_path: Path):
        dataset = CrawlDataset()
        for day in range(3):
            dataset.add(make_report(f"http://d.example/p/{day}", day=day))
        path = tmp_path / "crawl.jsonl"
        written = dataset_io.save_crawl_dataset(dataset, path, seed=7)
        assert written == 3
        loaded = dataset_io.load_crawl_dataset(path)
        assert len(loaded) == 3
        assert loaded.day_indices == [0, 1, 2]
        assert loaded.n_extracted_prices == dataset.n_extracted_prices

    def test_header_validated(self, tmp_path: Path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)

    def test_version_mismatch(self, tmp_path: Path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-reports", "version": 99, "kind": "crawl"}\n')
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)

    def test_kind_mismatch(self, tmp_path: Path):
        path = tmp_path / "crowd.jsonl"
        path.write_text('{"format": "repro-reports", "version": 1, "kind": "crowd"}\n')
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)

    def test_empty_file(self, tmp_path: Path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)

    def test_corrupt_line(self, tmp_path: Path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"format": "repro-reports", "version": 1, "kind": "crawl"}\n'
            "not json\n"
        )
        with pytest.raises(dataset_io.DatasetFormatError):
            dataset_io.load_crawl_dataset(path)


class TestCrowdFile:
    def test_save_load_roundtrip(self, tiny_ctx, tmp_path: Path):
        dataset = tiny_ctx.crowd
        path = tmp_path / "crowd.jsonl"
        written = dataset_io.save_crowd_dataset(dataset, path, seed=2013)
        assert written == len(dataset)
        loaded = dataset_io.load_crowd_dataset(path)
        assert loaded.summary() == dataset.summary()
        assert list(domain_variation_counts(loaded.reports()).items()) == \
            list(domain_variation_counts(dataset.reports()).items())


class TestCli:
    def test_parser_subcommands(self):
        parser = cli.build_parser()
        args = parser.parse_args(["campaign", "--scale", "tiny"])
        assert args.command == "campaign"
        args = parser.parse_args(["check", "www.amazon.com", "--product", "3"])
        assert args.domain == "www.amazon.com"
        assert args.product == 3

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_check_command(self, capsys):
        code = cli.main(["check", "www.digitalrev.com", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VARIATION" in out
        assert "Finland - Tampere" in out

    def test_check_unknown_domain(self, capsys):
        code = cli.main(["check", "www.nothere.example", "--scale", "tiny"])
        assert code == 2
        assert "unknown domain" in capsys.readouterr().err

    def test_check_bad_product_index(self, capsys):
        code = cli.main(
            ["check", "www.digitalrev.com", "--scale", "tiny", "--product", "99999"]
        )
        assert code == 2

    def test_crawl_then_analyze(self, tmp_path: Path, capsys):
        out_file = tmp_path / "crawl.jsonl"
        code = cli.main(["crawl", "--scale", "tiny", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        code = cli.main(["analyze", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "extent of variation" in out
        assert "Finland profile" in out


class TestCliErrorPaths:
    """Bad invocations exit 2 with one line on stderr -- no tracebacks."""

    def test_analyze_missing_file(self, capsys):
        code = cli.main(["analyze", "/missing/nowhere.jsonl"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read dataset" in err
        assert "Traceback" not in err

    def test_analyze_unreadable_directory(self, tmp_path: Path, capsys):
        code = cli.main(["analyze", str(tmp_path)])
        assert code == 2
        assert "cannot read dataset" in capsys.readouterr().err

    def test_analyze_garbage_text_file(self, tmp_path: Path, capsys):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("this is not a dataset\n", encoding="utf-8")
        code = cli.main(["analyze", str(junk)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not a repro dataset" in err

    def test_analyze_binary_garbage_file(self, tmp_path: Path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\xff\xfe\x80PK\x03\x04" * 16)
        code = cli.main(["analyze", str(junk)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not a repro dataset" in err

    def test_analyze_torn_header_file(self, tmp_path: Path, capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"format": "repro-repo', encoding="utf-8")
        code = cli.main(["analyze", str(torn)])
        assert code == 2
        assert "not a repro dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["unknown-currency", "negative-day"])
    def test_analyze_rejects_bad_values(self, bad, tmp_path: Path, capsys):
        """Well-formed files whose values the analysis cannot use: one
        error line and exit 2, from either layout."""
        report = make_report()
        if bad == "unknown-currency":
            fi = report.observations[1]
            report.observations[1] = VantageObservation(
                vantage=fi.vantage, country_code=fi.country_code,
                city=fi.city, ok=True, raw_text="9,70 XYZ", amount=9.7,
                currency="XYZ", usd=12.8, method="selector",
            )
        else:
            report.day_index = -5
        dataset = CrawlDataset([report])
        rows_path, cols_path = tmp_path / "rows.jsonl", tmp_path / "cols.jsonl"
        write_rows_dataset(dataset, rows_path)
        dataset_io.save_crawl_dataset(dataset, cols_path)
        for path in (rows_path, cols_path):
            code = cli.main(["analyze", str(path)])
            err = capsys.readouterr().err
            assert code == 2, path
            assert err.startswith("error: cannot analyze dataset")
            assert err.count("\n") == 1

    def test_resume_without_checkpoint_dir(self, capsys):
        for command in ("campaign", "crawl"):
            code = cli.main([command, "--scale", "tiny", "--resume"])
            err = capsys.readouterr().err
            assert code == 2, command
            assert "--resume requires --checkpoint-dir" in err

    @pytest.mark.parametrize("flags", [
        ["--workers", "-1"],
        ["--workers", "2", "--max-worker-restarts", "-2"],
        ["--workers", "0"],
    ])
    def test_bad_executor_flags(self, flags, capsys):
        code = cli.main(["campaign", "--scale", "tiny", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_exec_mode_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", "--scale", "tiny", "--exec-mode", "auto"])
        assert exc.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_checkpoint_misuse_names_resume(self, tmp_path: Path, capsys):
        base = ["campaign", "--scale", "tiny",
                "--checkpoint-dir", str(tmp_path / "ck")]
        assert cli.main(base) == 0
        capsys.readouterr()
        for again in (base, base + ["--resume", "--seed", "7"]):
            code = cli.main(again)
            err = capsys.readouterr().err
            assert code == 2, again
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--resume" in err
            assert "resume=True" not in err
