"""Serving smoke: boot, scripted session, clean SIGTERM shutdown.

Spawns the real CLI (``python -m repro.cli serve --port 0``), reads the
bound port off its stdout, drives one of everything -- health probe,
on-demand check, campaign job submitted and polled to completion,
results download -- then SIGTERMs the process and demands exit code 0.
The on-demand check is posted twice: the first derives its anchor by
walking the anchor page, the second resolves it on the page's shape.
Both served bodies must equal the in-process batch path's two checks on
an identically built ``ExperimentContext("tiny")``, the anchor derived
before each check as the service does.

``--workers N`` (default 1) runs the session's job on a pool of N
worker processes.  With N > 1 the script first runs the same session
inline, then the pooled one, and demands the pooled job's
``fleet_health`` carry the five supervision keys with no restart and
its results equal the inline session's, byte for byte.
``make serve-smoke`` runs it at 1 and at 2 in the push tier of CI.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_LISTENING = re.compile(r"listening on http://[0-9.]+:(\d+)")
_FLEET_KEYS = {"restarts", "hang_kills", "quarantined_shards",
               "inline_checks", "recovery_ms"}
_CHECK = {"domain": "www.digitalrev.com", "product": 1}


def batch_checks(count: int) -> list[bytes]:
    """The first ``count`` checks of ``_CHECK`` on the batch path, as the
    service encodes them: a fresh tiny context, anchor before each."""
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from repro.analysis.personal import derive_anchor_for_domain
    from repro.core.backend import CheckRequest
    from repro.experiments.context import ExperimentContext
    from repro.serve.service import encode_report

    with ExperimentContext("tiny") as ctx:
        domain = _CHECK["domain"]
        product = ctx.world.retailer(domain).catalog.products[_CHECK["product"]]
        bodies = []
        for _ in range(count):
            anchor = derive_anchor_for_domain(ctx.world, domain)
            bodies.append(encode_report(ctx.backend.check(CheckRequest(
                url=f"http://{domain}{product.path}", anchor=anchor,
            ))))
        return bodies


def _await_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("service exited before listening")
        sys.stdout.write(line)
        match = _LISTENING.search(line)
        if match:
            return int(match.group(1))
    raise AssertionError("service never printed its port")


def session(workers: int) -> tuple[dict, bytes]:
    """One service session at ``--workers``; (final job status, results).

    The service's data dir is a temporary directory, removed afterwards.
    """
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as data_dir:
        return _session(workers, data_dir)


def _session(workers: int, data_dir: str) -> tuple[dict, bytes]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-dir", data_dir, "--workers", str(workers)],
        env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        base = f"http://127.0.0.1:{_await_port(proc)}"

        def get(path: str) -> dict:
            with urllib.request.urlopen(base + path, timeout=60) as resp:
                return json.loads(resp.read())

        def post_raw(path: str, payload: dict) -> bytes:
            req = urllib.request.Request(
                base + path, data=json.dumps(payload).encode("utf-8")
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.read()

        def post(path: str, payload: dict) -> dict:
            return json.loads(post_raw(path, payload))

        health = get("/healthz")
        assert health["status"] == "ok", health
        served = [post_raw("/checks", _CHECK) for _ in range(2)]
        assert json.loads(served[0])["check_id"] == "chk0000001", served[0]
        assert served == batch_checks(2), "served checks differ from batch"
        job = post("/campaigns", {"scale": "tiny", "n_checks": 30,
                                  "end_day": 10})
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            state = get(f"/jobs/{job['id']}")
            if state["status"] in ("done", "failed"):
                break
            time.sleep(0.2)
        assert state["status"] == "done", state
        with urllib.request.urlopen(
            f"{base}/jobs/{job['id']}/results", timeout=60
        ) as resp:
            results = resp.read()
        assert results.startswith(b'{"format":'), results[:40]
        print(f"session ok (--workers {workers}): 2 checks equal to the "
              f"batch path's + job {job['id']} "
              f"({state['checks']['done']} checks, "
              f"{len(results)} result bytes)")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    tail = proc.stdout.read()
    sys.stdout.write(tail)
    assert code == 0, f"service exited {code}, not 0"
    assert "sheriff service stopped" in tail, "shutdown message missing"
    print("clean shutdown: exit 0")
    return state, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, metavar="N")
    workers = parser.parse_args(argv).workers
    _, inline = session(1)
    if workers == 1:
        return 0
    state, results = session(workers)
    health = state["fleet_health"]
    assert set(health) == _FLEET_KEYS, health
    assert health["restarts"] == 0, health
    assert results == inline, "pooled job's results differ from inline"
    print(f"--workers {workers}: fleet_health {health}; "
          f"results equal the inline session's")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
