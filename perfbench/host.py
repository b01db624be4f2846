"""The program's side of a benchmark run: one process per invocation.

``run.py`` starts this script instead of ``python -m repro.cli`` wherever
it needs numbers from inside the program's process.  It imports the
program's CLI, installs the benchmark's probe (and, for traced runs, the
spans of ``tracing.SPANS``), runs one entry point on its defaults and
writes a JSON report.  Times are ``time.perf_counter()`` readings, which
share one monotonic clock with the parent on Linux.

    host.py setup campaign|analyze SPAWNED OUT
    host.py campaign OUT SPANS|-
    host.py analyze DATASET OUT SPANS|-
    host.py serve OUT SPANS|- serve SERVE-ARGS...
    host.py reference DOMAIN PRODUCT OUT

``SPAWNED`` is the parent's clock just before it started this process;
``SPANS`` is where a traced run writes its spans (``-`` = untraced).
Reports carry ``start``/``end`` of the measured call on the same clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

#: The CLI's default seed: the world of ``repro serve``'s checks and of
#: the paper campaign (whose ``CampaignConfig`` default is the same).
WORLD_SEED = 2013


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _instrument(spans_path: str, *, time_checks: bool):
    """Install the probe, plus spans when ``spans_path`` is not ``-``.

    Untraced runs time every fan-out (the per-check time of ``campaign``
    and ``job``); traced runs do not report it.
    """
    import repro.cli  # noqa: F401 - loads the modules whose names are swapped
    import repro.crowd.campaign  # noqa: F401
    import repro.serve  # noqa: F401

    probe = tracing.Probe(time_checks=time_checks)
    probe.install()
    recorder = None
    if spans_path != "-":
        recorder = tracing.Recorder()
        recorder.install()
    return probe, recorder


def setup(kind: str, spawned: float, out: str) -> None:
    """Process start until the program is ready; nothing runs after."""
    import repro.cli  # noqa: F401

    if kind == "campaign":
        from repro.experiments.context import ExperimentContext

        ctx = ExperimentContext("paper", seed=WORLD_SEED)
        ctx.world, ctx.backend
    _write(out, {"setup_s": time.perf_counter() - spawned})


def campaign(out: str, spans_path: str) -> None:
    """``run_campaign`` on the paper world and ``CampaignConfig`` defaults."""
    probe, recorder = _instrument(spans_path, time_checks=spans_path == "-")
    from repro.crowd import CampaignConfig, run_campaign
    from repro.experiments.context import ExperimentContext
    from repro.io import save_crowd_dataset

    ctx = ExperimentContext("paper", seed=WORLD_SEED)
    world, backend = ctx.world, ctx.backend
    start = time.perf_counter()
    dataset = run_campaign(world, backend, CampaignConfig())
    end = time.perf_counter()
    rss = _peak_rss_mb()
    totals = probe.totals()
    counters = dict(recorder.counters) if recorder is not None else {}
    if recorder is not None:
        recorder.write(spans_path)
    # Write the dataset as `repro campaign --out` does; it is also the
    # digested output.
    dump = Path(out).with_suffix(".dataset.jsonl")
    save_start = time.perf_counter()
    save_crowd_dataset(dataset, dump, seed=WORLD_SEED)
    save_s = time.perf_counter() - save_start
    digest = hashlib.sha256(dump.read_bytes()).hexdigest()
    dump.unlink()
    _write(out, {
        "start": start, "end": end, "save_s": save_s,
        "clicks": len(dataset), "reports": len(dataset.reports()),
        "check_ms": probe.check_ms, "check_ids": probe.check_ids,
        "totals": totals, "counters": counters,
        "peak_rss_mb": rss, "digest": digest,
    })


def analyze(dataset: str, out: str, spans_path: str) -> None:
    """``repro analyze DATASET``, stdout captured and digested."""
    from repro import cli

    recorder = None
    if spans_path != "-":
        _, recorder = _instrument(spans_path, time_checks=False)
    start = time.perf_counter()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(["analyze", dataset])
    end = time.perf_counter()
    rss = _peak_rss_mb()
    if recorder is not None:
        recorder.write(spans_path)
    text = captured.getvalue()
    _write(out, {
        "start": start, "end": end, "exit_code": code, "peak_rss_mb": rss,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "first_line": text.splitlines()[0] if text else "",
        "counters": recorder.counters if recorder is not None else {},
    })


def serve(out: str, spans_path: str, args: list[str]) -> None:
    """``repro serve ...`` (``args``) until SIGTERM, then the run's counters."""
    probe, recorder = _instrument(spans_path, time_checks=spans_path == "-")
    from repro import cli

    code = cli.main(args)
    totals = probe.totals()
    if recorder is not None:
        recorder.write(spans_path)
    _write(out, {
        "exit_code": code, "check_ms": probe.check_ms,
        "check_ids": probe.check_ids, "totals": totals,
        "counters": recorder.counters if recorder is not None else {},
    })


def reference(domain: str, product: int, out: str) -> None:
    """The in-process batch path's answer to the serve stream's first check."""
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest
    from repro.experiments.context import ExperimentContext
    from repro.io import report_to_dict

    ctx = ExperimentContext("tiny", seed=WORLD_SEED)
    world = ctx.world
    path = world.retailer(domain).catalog.products[product].path
    report = ctx.backend.check(CheckRequest(
        url=f"http://{domain}{path}",
        anchor=derive_anchor_for_domain(world, domain),
    ))
    _write(out, {"body": json.dumps(report_to_dict(report), sort_keys=True)})


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], float(rest[1]), rest[2])
    elif mode == "campaign":
        campaign(rest[0], rest[1])
    elif mode == "analyze":
        analyze(rest[0], rest[1], rest[2])
    elif mode == "serve":
        serve(rest[0], rest[1], rest[2:])
    elif mode == "reference":
        reference(rest[0], int(rest[1]), rest[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
