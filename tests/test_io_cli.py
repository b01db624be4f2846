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


    def test_scenario_crawl_under_process_executor(self, capsys):
        """A process cell runs without the burst memo (the executor
        refuses one): the scenario's invariants hold, and the memo line
        is left out."""
        code = cli.main([
            "crawl", "--scenario", "page-noise", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "[processx2/live]" in out
        assert "INVARIANT VIOLATED" not in out
        assert "memo:" not in out

    @pytest.mark.parametrize("faults", [[(0, 0, "mid-batch")], []],
                             ids=["killed-worker", "quiet"])
    def test_exec_summary_line(self, faults, capsys):
        """``--workers 2`` runs worker processes: a worker SIGKILLed
        mid-batch is respawned, the command still exits 0, and one exec
        line reports the restart; a run without faults prints none."""
        from repro.exec import install_fault_hook
        from tests.crashkit import FaultPlan

        FaultPlan(faults).install()
        try:
            code = cli.main(["crawl", "--scale", "tiny", "--workers", "2"])
        finally:
            install_fault_hook(None)
        out = capsys.readouterr().out
        assert code == 0, out
        exec_lines = [line for line in out.splitlines() if "exec:" in line]
        if faults:
            assert len(exec_lines) == 1, out
            assert "exec: 1 worker restart(s)" in exec_lines[0]
        else:
            assert exec_lines == []


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

    @pytest.mark.parametrize("level,field", [
        *[("report", field) for field in ("url", "domain", "origin")],
        *[("observation", field) for field in (
            "vantage", "country", "city", "raw", "currency", "method", "error",
        )],
    ])
    @pytest.mark.parametrize("value", [["x"], {}], ids=["list", "object"])
    def test_analyze_rejects_unhashable_pooled_field(
        self, level, field, value, tmp_path: Path, capsys
    ):
        """A JSON list or object where a pooled string belongs is a format
        error of the rows layout, not a crash."""
        row = dataset_io.report_to_dict(make_report())
        (row if level == "report" else row["observations"][0])[field] = value
        header = {"format": "repro-reports", "version": 1, "kind": "crawl",
                  "layout": "rows", "reports": 1}
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n",
                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: not a repro dataset")
        assert "bad report record: unhashable type" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("level,field", [
        *[("report", field) for field in ("check_id", "url", "domain",
                                          "origin")],
        *[("observation", field) for field in (
            "vantage", "country", "city", "raw", "currency", "method", "error",
        )],
    ])
    @pytest.mark.parametrize("kind", ["crawl", "crowd"])
    def test_analyze_rejects_a_number_in_a_string_field(
        self, kind, level, field, tmp_path: Path, capsys
    ):
        """A number where a string belongs fails the load, not the
        analysis: it never reaches the table, whose columnar save would
        turn it into a string, nor a figure's formatting."""
        row = dataset_io.report_to_dict(make_report())
        (row if level == "report" else row["observations"][0])[field] = 5
        header = {"format": "repro-reports", "version": 1, "kind": kind,
                  "layout": "rows", "reports": 1, "records": 1}
        if kind == "crowd":
            row = {"user": "u0001", "country": "FI", "day": 3,
                   "domain": "d.example", "url": make_report().url,
                   "user_amount": None, "user_currency": None,
                   "failure": "", "report": row}
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n",
                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: not a repro dataset {str(path)!r}: "
                              f"bad {'crowd' if kind == 'crowd' else 'report'}"
                              f" record: ")
        assert "expected a string, not int 5" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_analyze_rejects_unhashable_field_in_crowd_rows(
        self, tmp_path: Path, capsys
    ):
        report = dataset_io.report_to_dict(make_report())
        report["observations"][0]["vantage"] = ["x"]
        record = {"user": "u0001", "country": "FI", "day": 3,
                  "domain": "d.example", "url": report["url"],
                  "user_amount": None, "user_currency": None, "failure": "",
                  "report": report}
        header = {"format": "repro-reports", "version": 1, "kind": "crowd",
                  "layout": "rows", "records": 1}
        path = tmp_path / "crowd-rows.jsonl"
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        code = cli.main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad crowd record: unhashable type" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_resume_without_checkpoint_dir(self, capsys):
        for command in ("campaign", "crawl"):
            code = cli.main([command, "--scale", "tiny", "--resume"])
            err = capsys.readouterr().err
            assert code == 2, command
            assert "--resume requires --checkpoint-dir" in err

    @pytest.mark.parametrize("flags", [
        ["--workers", "-1"],
        ["--workers", "0", "--resume"],
        ["--workers", "0"],
    ])
    def test_bad_executor_flags(self, flags, capsys):
        code = cli.main(["campaign", "--scale", "tiny", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["campaign", "crawl", "report", "serve"])
    def test_default_executor_flags_run_sequentially(self, command, tiny_world):
        """The default flags describe the sequential baseline: a config
        whose ``create`` builds no executor."""
        args = cli.build_parser().parse_args([command])
        assert cli._exec_config(args).create(tiny_world) is None

    def test_workers_is_the_only_execution_flag(self, capsys):
        """``--workers N`` is the one execution setting: the fan-out
        commands accept exactly these flags, and any other is a usage
        error."""
        common = {"-h", "--help", "--scale", "--seed", "--workers"}
        checkpoint = {"--checkpoint-dir", "--resume"}
        expected = {
            "campaign": common | checkpoint | {"--out"},
            "crawl": common | checkpoint | {"--out", "--scenario"},
            "report": common,
            "serve": common | {"--host", "--port", "--data-dir"},
        }
        parser = cli.build_parser()
        subparsers = parser._subparsers._group_actions[0].choices  # noqa: SLF001
        for command, flags in expected.items():
            accepted = set(subparsers[command]._option_string_actions)  # noqa: SLF001
            assert accepted == flags, command
        with pytest.raises(SystemExit) as exc:
            cli.main(["campaign", "--scale", "tiny", "--mode", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
