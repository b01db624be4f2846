"""The repository benchmark: four workloads through the real entry points.

    python3 perfbench/run.py --workload campaign|job|serve|analyze \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every process of a run is pinned to one
CPU.  ``serve`` and ``analyze`` generate their inputs from ``--seed``
before anything is timed; ``campaign`` and ``job`` run the program's
paper defaults.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` (time-based ones in reference-box time, see boxspeed.py),
the per-layer metrics of a traced run with ``--trace 1``.  The lines
before it give the traffic properties, sample counts, the box's speed
and the end-to-end metrics as measured.  See README.md in this
directory for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

import boxspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: End-to-end metric -> (unit, power of the box's slowness it is scaled
#: by to read in reference-box time; see boxspeed.py).  Each workload
#: scales by the slowness sampled while the metric was measured.
END_TO_END = {
    "setup_s": ("s", -1),
    "checks_per_s": ("1/s", 1),
    "reports_per_s": ("1/s", 1),
    "check_p50_ms": ("ms", -1),
    "check_p99_ms": ("ms", -1),
    "peak_rss_mb": ("MB", 0),
}

#: Set-up is timed in this many fresh processes per run (median reported).
SETUP_SAMPLES = 3
#: ``campaign`` and ``job``, whose inputs are fixed, run this many times in
#: fresh processes, one after the other; a check's latency sample is its
#: fastest run (see README.md).
FIXED_INPUT_RUNS = 2
#: The job: the paper campaign shrunk to 1,000 clicks over 100 days, so a
#: day-segment still holds ~10 clicks as under the paper's defaults.
JOB_SPEC = {"scale": "paper", "n_checks": 1000, "end_day": 100}
#: Ledger key of the workloads whose input is the program's own defaults
#: (the paper world and crowd, seed 2013) rather than generated from --seed.
DEFAULTS = "paper-defaults"
#: How often the job's client asks ``GET /jobs/<id>``.
JOB_POLL_S = 0.1
#: Serve sends this many checks per second of --seconds.
SERVE_CHECKS_PER_S = 150
#: Analyze runs this many commands, each in a fresh process.
ANALYZE_COMMANDS = 2
#: No child may outlive this; a run must end within 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The program failed in a way that leaves no numbers to report."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


class Children:
    """Every process a run starts; all are stopped and reaped on exit."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def start(self, argv: list[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdout", subprocess.DEVNULL)
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), **kwargs)
        self.procs.append(proc)
        return proc

    def run(self, argv: list[str]) -> None:
        proc = self.start(argv)
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise BenchError(f"{argv[1:3]} exited {proc.returncode}")

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def close(self) -> None:
        for proc in self.procs:
            self.stop(proc)


def _host(*args) -> list[str]:
    return [sys.executable, str(BENCH / "host.py"), *map(str, args)]


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
class Service:
    """One ``repro serve`` process and a keep-alive client connection."""

    def __init__(self, children: Children, argv: list[str]) -> None:
        self.children = children
        self.spawned = time.perf_counter()
        self.proc = children.start(argv, stdout=subprocess.PIPE, text=True)
        line = ""
        if select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise BenchError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("listening on http://")[1].split()[0]
                        .rsplit(":", 1)[1])
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=CHILD_TIMEOUT_S)
        status, _ = self.request("GET", "/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        self.ready = time.perf_counter()

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def stop(self) -> float:
        """Stop the service; returns its peak RSS in MB."""
        self.conn.close()
        peak = _vm_hwm_mb(self.proc.pid)
        self.children.stop(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited {self.proc.returncode}")
        return peak


def _serve_args(data_dir: Path) -> list[str]:
    """``repro serve`` on its defaults, over an emptied ``data_dir``."""
    shutil.rmtree(data_dir, ignore_errors=True)
    return ["serve", "--scale", "tiny", "--port", "0", "--data-dir", str(data_dir)]


def _hosted_service(children: Children, name: str, traced: bool):
    """``repro serve`` inside host.py; returns (service, report, spans)."""
    report = WORK / f"{name}.host.json"
    spans = WORK / f"{name}.spans.jsonl" if traced else None
    argv = _host("serve", report, spans or "-",
                 *_serve_args(WORK / f"{name}-data"))
    return Service(children, argv), report, spans


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def setup_seconds(children: Children, speed: boxspeed.BoxSpeed,
                  kind: str) -> tuple[float, float]:
    """Median set-up time of fresh processes, and the box's slowness while
    they ran.  Every workload calls this after its own processes, which
    have warmed the bytecode and page caches."""
    began = time.perf_counter()
    samples = []
    for _ in range(SETUP_SAMPLES):
        if kind == "serve":
            service = Service(children, [sys.executable, "-m", "repro.cli",
                                         *_serve_args(WORK / "setup-data")])
            service.conn.close()
            children.stop(service.proc, signal.SIGKILL)
            sample = service.ready - service.spawned
        else:
            out = WORK / "setup.json"
            children.run(_host("setup", kind, time.perf_counter(), out))
            sample = _read(out)["setup_s"]
        samples.append(sample)
    return statistics.median(samples), speed.slowness(began, time.perf_counter())


def p50_p99(samples_ms: list[float]) -> tuple[float, float]:
    if len(samples_ms) < 2:
        raise BenchError("too few latency samples")
    return (statistics.median(samples_ms),
            statistics.quantiles(samples_ms, n=100)[98])


def fastest_per_check(runs: list[dict], slowness) -> list[float]:
    """Each check's fan-out time in its fastest run, matched by check id,
    every run's times divided by ``slowness(run)``.

    The checks are the same work in every run of a campaign, while the
    host's bursts of slowness land on different checks in each run.
    """
    fastest: dict = {}
    for run in runs:
        factor = slowness(run)
        for key, ms in zip(run["check_ids"], run["check_ms"]):
            ms /= factor
            fastest[key] = min(fastest.get(key, ms), ms)
    return list(fastest.values())


def fixed_input_metrics(runs: list[dict], setup: float, slowness) -> dict:
    """End-to-end metrics of repeated runs on fixed inputs, every run's
    times divided by ``slowness(run)``: rates and peak RSS are the median
    run's, check latencies come from :func:`fastest_per_check`."""
    p50, p99 = p50_p99(fastest_per_check(runs, slowness))
    return {
        "setup_s": setup,
        "checks_per_s": statistics.median(
            r["checks_per_s"] * slowness(r) for r in runs),
        "reports_per_s": statistics.median(
            r["reports_per_s"] * slowness(r) for r in runs),
        "check_p50_ms": p50,
        "check_p99_ms": p99,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def ledger_agrees(workload: str, inputs_key: str, digest: str) -> bool:
    """Does ``digest`` match every earlier run on these inputs in this tree?"""
    path = WORK / "ledger.json"
    ledger = _read(path) if path.exists() else {}
    key = f"{workload}/{inputs_key}"
    if key in ledger:
        return ledger[key] == digest
    ledger[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def layer_metrics(name: str, plain: dict, traced: dict, rate: str,
                  speed: boxspeed.BoxSpeed) -> tuple[dict, list]:
    """Per-layer metrics of a traced pass and its untraced twin.

    ``rate`` names the throughput both passes report; their ratio, each
    in reference-box time, is ``trace.overhead``.
    """

    def reference_rate(result: dict) -> float:
        return result[rate] * speed.slowness(result["start"], result["end"])

    spans = tracing.read_spans(str(WORK / f"{name}.spans.jsonl"))
    window = (traced["start"], traced["end"])
    counters = traced.get("counters", {})
    totals = traced.get("totals", {})
    metrics = tracing.aggregate(spans)
    fanouts = totals.get("fanouts", 0)
    render = totals.get("render_hits", 0) + totals.get("render_misses", 0)
    metrics.update({
        "core.memo.hit_share": totals.get("memo_hits", 0) / fanouts if fanouts else 0.0,
        "core.memo.live_only_share": (
            totals.get("memo_live_only", 0) / fanouts if fanouts else 0.0),
        "net.fetch.errors": counters.get("net.fetch.errors", 0),
        "ecommerce.render.memo_hit_share": (
            totals.get("render_hits", 0) / render if render else 0.0),
        "core.extract.failed": counters.get("core.extract.failed", 0),
        "core.archive.pages_resident": totals.get("pages_resident", 0),
        "core.archive.bodies_retained": totals.get("bodies_retained", 0),
        "serve.http_ms": 0.0,
        "checkpoint.segments": metrics["checkpoint.commit.calls"],
        "io.bytes_read": counters.get("io.bytes_read", 0),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "trace.coverage": tracing.coverage(spans, window),
        "trace.overhead": reference_rate(plain) / reference_rate(traced) - 1,
    })
    return metrics, spans


def scaled(raw: dict, slowness: float, setup_slowness: float) -> dict:
    """End-to-end metrics as measured -> in reference-box time."""
    return {
        name: value * (setup_slowness if name == "setup_s" else slowness)
        ** END_TO_END[name][1]
        for name, value in raw.items()
    }


def as_measured(raw: dict) -> str:
    return "as measured: " + ", ".join(
        f"{name} {raw[name]:.4f} {unit}" for name, (unit, _) in END_TO_END.items())


def traffic_line(totals: dict) -> str:
    fanouts = totals.get("fanouts", 0) or 1
    return (f"traffic: {totals.get('fanouts', 0)} checks, memo hit share "
            f"{totals.get('memo_hits', 0) / fanouts:.3f}, live-only share "
            f"{totals.get('memo_live_only', 0) / fanouts:.3f}, "
            f"{totals.get('pages_resident', 0)} archived pages resident")


# ----------------------------------------------------------------------
# Workloads.  Each returns (attempted, failed, metrics, info lines).
# ----------------------------------------------------------------------
def run_campaign(children: Children, speed: boxspeed.BoxSpeed, seed: int,
                seconds: int, trace: bool):
    """``run_campaign`` on the paper world and campaign defaults."""

    def once(traced: bool) -> dict:
        out = WORK / "campaign.host.json"
        spans = WORK / "campaign.spans.jsonl" if traced else "-"
        children.run(_host("campaign", out, spans))
        result = _read(out)
        result["ok"] = (result["clicks"] == 1500 and result["reports"] > 0
                        and ledger_agrees("campaign", DEFAULTS, result["digest"]))
        result["checks_per_s"] = result["clicks"] / (result["end"] - result["start"])
        result["reports_per_s"] = result["reports"] / (
            result["end"] - result["start"] + result["save_s"])
        return result

    plain = once(False)
    info = [traffic_line(plain["totals"]),
            f"campaign: {plain['clicks']} clicks, {plain['reports']} reports"]
    if trace:
        traced = once(True)
        metrics, _ = layer_metrics("campaign", plain, traced, "checks_per_s", speed)
        attempted = plain["clicks"]
        failed = 0 if plain["ok"] and traced["ok"] else attempted
        return attempted, failed, metrics, info
    runs = [plain] + [once(False) for _ in range(FIXED_INPUT_RUNS - 1)]
    attempted = sum(r["clicks"] for r in runs)
    failed = sum(r["clicks"] for r in runs if not r["ok"])
    setup, setup_slowness = setup_seconds(children, speed, "campaign")
    info.append(f"campaign: {len(runs)} runs, {len(plain['check_ms'])} check "
                "latency samples (each check's fastest run)")
    info.append(as_measured(fixed_input_metrics(runs, setup, lambda r: 1.0)))
    metrics = fixed_input_metrics(runs, setup / setup_slowness,
                                  lambda r: speed.slowness(r["start"], r["end"]))
    return attempted, failed, metrics, info


def run_job(children: Children, speed: boxspeed.BoxSpeed, seed: int,
           seconds: int, trace: bool):
    """A paper campaign submitted to ``repro serve`` as a job."""

    def once(traced: bool) -> dict:
        service, report, spans = _hosted_service(children, "job", traced)
        start = time.perf_counter()
        status, body = service.request("POST", "/campaigns", JOB_SPEC)
        if status != 202:
            raise BenchError(f"POST /campaigns answered {status}: {body[:200]!r}")
        job_path = f"/jobs/{json.loads(body)['id']}"
        polls = 0
        while True:
            status, body = service.request("GET", job_path)
            polls += 1
            state = json.loads(body)["status"] if status == 200 else "failed"
            if state in ("done", "failed"):
                break
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                raise BenchError(f"{job_path} still {state!r}")
            time.sleep(JOB_POLL_S)
        status, results = service.request("GET", job_path + "/results")
        end = time.perf_counter()
        peak = service.stop()
        result = _read(report)
        lines = results.split(b"\n")
        header = json.loads(lines[0]) if status == 200 else {}
        reports = (len(json.loads(lines[2])["reports"]["check_id"])
                   if status == 200 else 0)
        digest = hashlib.sha256(results).hexdigest()
        result.update(
            start=start, end=end, peak_rss_mb=peak, polls=polls,
            reports=reports, checks=header.get("records", 0),
            ok=(state == "done" and header.get("records") == JOB_SPEC["n_checks"]
                and reports > 0 and ledger_agrees("job", DEFAULTS, digest)),
            checks_per_s=JOB_SPEC["n_checks"] / (end - start),
            reports_per_s=reports / (end - start),
        )
        return result

    plain = once(False)
    info = [traffic_line(plain["totals"]),
            f"job: {plain['checks']} checks over {JOB_SPEC['end_day']} day-segments "
            f"({plain['checks'] / JOB_SPEC['end_day']:.1f} clicks per segment), "
            f"{plain['polls']} status polls"]
    if trace:
        traced = once(True)
        metrics, _ = layer_metrics("job", plain, traced, "checks_per_s", speed)
        attempted = JOB_SPEC["n_checks"]
        failed = 0 if plain["ok"] and traced["ok"] else attempted
        return attempted, failed, metrics, info
    runs = [plain] + [once(False) for _ in range(FIXED_INPUT_RUNS - 1)]
    attempted = JOB_SPEC["n_checks"] * len(runs)
    failed = sum(JOB_SPEC["n_checks"] for r in runs if not r["ok"])
    setup, setup_slowness = setup_seconds(children, speed, "serve")
    info.append(f"job: {len(runs)} runs, {len(plain['check_ms'])} check "
                "latency samples (each check's fastest run)")
    info.append(as_measured(fixed_input_metrics(runs, setup, lambda r: 1.0)))
    metrics = fixed_input_metrics(runs, setup / setup_slowness,
                                  lambda r: speed.slowness(r["start"], r["end"]))
    return attempted, failed, metrics, info


def run_serve(children: Children, speed: boxspeed.BoxSpeed, seed: int,
             seconds: int, trace: bool):
    """A closed-loop stream of ``POST /checks`` against ``repro serve``."""
    stream = inputs.serve_stream(seed, SERVE_CHECKS_PER_S * seconds)
    stream_path = WORK / "serve-stream.json"
    stream_path.write_text(json.dumps(stream), encoding="utf-8")

    def once(traced: bool) -> dict:
        service, report, spans = _hosted_service(children, "serve", traced)
        out = WORK / "serve.loadgen.json"
        proc = children.start([sys.executable, str(BENCH / "loadgen.py"),
                               str(service.port), str(stream_path), str(out)])
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise BenchError(f"load generator exited {proc.returncode}")
        peak = service.stop()
        result = _read(out)
        result.update(_read(report))
        ok_answers = result["statuses"].get("200", 0)
        result.update(
            peak_rss_mb=peak, answered=ok_answers,
            checks_per_s=ok_answers / (result["end"] - result["start"]),
            ok=ok_answers == len(stream)
            and ledger_agrees("serve", f"{seed}x{len(stream)}", result["digest"]),
        )
        return result

    plain = once(False)
    attempted = len(stream)
    first = stream[0]
    ref = WORK / "serve.reference.json"
    children.run(_host("reference", first["domain"], first["product"], ref))
    plain["ok"] = plain["ok"] and _read(ref)["body"] == plain["first_body"]
    info = [traffic_line(plain["totals"]),
            f"serve: {len(stream)} checks sent, {plain['answered']} answered 200, "
            f"{len(plain['latencies_ms'])} latency samples, closed loop, "
            "one keep-alive connection"]
    if trace:
        traced = once(True)
        metrics, spans = layer_metrics("serve", plain, traced, "checks_per_s", speed)
        metrics["serve.http_ms"] = (
            sum(traced["latencies_ms"])
            - tracing.span_seconds(spans, "serve.check") * 1e3
        ) / len(traced["latencies_ms"])
        failed = 0 if plain["ok"] and traced["ok"] else attempted
        return attempted, failed, metrics, info
    p50, p99 = p50_p99(plain["latencies_ms"])
    setup, setup_slowness = setup_seconds(children, speed, "serve")
    raw = {
        "setup_s": setup,
        "checks_per_s": plain["checks_per_s"],
        "reports_per_s": plain["checks_per_s"],
        "check_p50_ms": p50,
        "check_p99_ms": p99,
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    info.append(as_measured(raw))
    metrics = scaled(raw, speed.slowness(plain["start"], plain["end"]),
                     setup_slowness)
    return attempted, 0 if plain["ok"] else attempted, metrics, info


def run_analyze(children: Children, speed: boxspeed.BoxSpeed, seed: int,
               seconds: int, trace: bool):
    """``repro analyze`` on a seeded crawl file, one process per command."""
    dataset = WORK / "analyze-crawl.jsonl"
    shape = inputs.write_crawl_file(seed, str(dataset))
    info = [f"analyze input: {shape['reports']} reports, "
            f"{shape['observations']} observations "
            f"({shape['failed_observations']} failed), "
            f"{inputs.CRAWL_MULTIPLE}x the paper crawl"]

    def once(traced: bool) -> dict:
        out = WORK / "analyze.host.json"
        spans = WORK / "analyze.spans.jsonl" if traced else "-"
        children.run(_host("analyze", dataset, out, spans))
        result = _read(out)
        result["ok"] = (
            result["exit_code"] == 0
            and result["first_line"].startswith(f"loaded {shape['reports']} reports")
            and ledger_agrees("analyze", str(seed), result["digest"])
        )
        result["reports_per_s"] = shape["reports"] / (result["end"] - result["start"])
        return result

    if trace:
        plain, traced = once(False), once(True)
        metrics, _ = layer_metrics("analyze", plain, traced, "reports_per_s", speed)
        failed = 0 if plain["ok"] and traced["ok"] else 2 * shape["reports"]
        return 2 * shape["reports"], failed, metrics, info
    commands = [once(False) for _ in range(ANALYZE_COMMANDS)]
    attempted = shape["reports"] * len(commands)
    failed = sum(shape["reports"] for c in commands if not c["ok"])
    setup, setup_slowness = setup_seconds(children, speed, "analyze")
    info.append(f"analyze: {len(commands)} commands")

    def summary(walls: list[float]) -> dict:
        p50, p99 = p50_p99([wall * 1e3 for wall in walls])
        return {
            "setup_s": setup,
            "checks_per_s": attempted / sum(walls),
            "reports_per_s": attempted / sum(walls),
            "check_p50_ms": p50,
            "check_p99_ms": p99,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in commands),
        }

    # The box's speed moves between commands, so each command is judged
    # by the slowness sampled while it ran.
    info.append(as_measured(summary([c["end"] - c["start"] for c in commands])))
    metrics = summary([(c["end"] - c["start"]) / speed.slowness(c["start"], c["end"])
                       for c in commands])
    metrics["setup_s"] = setup / setup_slowness
    return attempted, failed, metrics, info


WORKLOADS = {
    "campaign": run_campaign,
    "job": run_job,
    "serve": run_serve,
    "analyze": run_analyze,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    speed = boxspeed.BoxSpeed()
    speed.start()
    children = Children()
    try:
        attempted, failed, metrics, info = WORKLOADS[args.workload](
            children, speed, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        speed.stop()
    for line in info:
        print(line)
    print(f"pinned to CPU {cpu}; box slowness {speed.slowness():.4f} over the "
          f"run ({len(speed.samples)} samples of {boxspeed.REFERENCE_S * 1e3:.3f} "
          "ms reference CPU work; 1.0 = reference box)")
    units = (tracing.per_layer_units() if args.trace
             else {name: unit for name, (unit, _) in END_TO_END.items()})
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
