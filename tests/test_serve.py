"""Serving layer: route contract, byte identity, durable job resume.

Three tiers of proof:

* **route contract** -- every endpoint's status codes and JSON shapes,
  driven over a real socket (the handler is threaded; a unit test that
  skips HTTP would miss framing bugs like a wrong Content-Length);
* **byte identity** -- the first check served by a fresh service equals
  the batch path's first check on an identically-built context, byte
  for byte (the determinism contract extends through the wire format);
* **kill-safety** -- SIGKILLing the whole service mid-campaign-job and
  restarting over the same data dir resumes the job from its checkpoint
  and produces byte-identical final results (crashkit ``serve`` driver).
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from tests.crashkit import run_to_completion, run_until_killed
from repro.serve import JobSpec, ServeConfig, build_app


# ----------------------------------------------------------------------
# Harness: one live server per test module section
# ----------------------------------------------------------------------
class Client:
    """urllib wrapper that returns (status, body) instead of raising.

    urllib opens a new connection per request; tests of keep-alive
    framing take one ``connection()`` and send several requests on it.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.base = f"http://127.0.0.1:{port}"

    def connection(self) -> http.client.HTTPConnection:
        """One HTTP/1.1 connection that later requests reuse (keep-alive)."""
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get(self, path: str) -> tuple[int, bytes]:
        return self._run(urllib.request.Request(self.base + path))

    def post(self, path: str, payload) -> tuple[int, bytes]:
        data = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        return self._run(urllib.request.Request(self.base + path, data=data))

    def _run(self, request) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def wait_done(self, job_id: str, timeout: float = 120.0) -> dict:
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.get(f"/jobs/{job_id}")
            assert status == 200, body
            state = json.loads(body)
            if state["status"] in ("done", "failed"):
                return state
            time.sleep(0.05)
        raise AssertionError(f"{job_id} still running after {timeout}s")


def _assert_healthz(conn: http.client.HTTPConnection) -> None:
    """``GET /healthz`` on ``conn`` gets its own 200 JSON reply."""
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    body = resp.read()
    assert resp.status == 200, body[:200]
    assert json.loads(body)["status"] == "ok"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live service on an ephemeral port; yields (service, client)."""
    data_dir = tmp_path_factory.mktemp("serve-data")
    service, server = build_app(ServeConfig(port=0, data_dir=str(data_dir)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, Client(server.port)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()


# ----------------------------------------------------------------------
# Route contract
# ----------------------------------------------------------------------
class TestRouteContract:
    def test_healthz_shape(self, served):
        _, client = served
        status, body = client.get("/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["scale"] == "tiny"
        assert {"hits", "misses", "hit_rate"} <= set(health["serving_cache"])
        assert {"restarts", "quarantined_shards"} <= set(health["fleet_health"])
        assert health["jobs"]["total"] >= 0

    def test_check_round_trip(self, served):
        _, client = served
        status, body = client.post(
            "/checks", {"domain": "www.digitalrev.com", "product": 1}
        )
        assert status == 200
        report = json.loads(body)
        assert report["domain"] == "www.digitalrev.com"
        assert report["observations"]

    def test_check_unknown_domain_is_404(self, served):
        _, client = served
        status, body = client.post("/checks", {"domain": "nope.example"})
        assert status == 404
        assert "unknown domain" in json.loads(body)["error"]

    def test_check_bad_product_is_400(self, served):
        _, client = served
        status, body = client.post(
            "/checks", {"domain": "www.digitalrev.com", "product": 9999}
        )
        assert status == 400
        assert "out of range" in json.loads(body)["error"]

    def test_check_malformed_body_is_400(self, served):
        _, client = served
        status, _ = client.post("/checks", b"{not json")
        assert status == 400
        status, _ = client.post("/checks", {"product": 1})
        assert status == 400

        # A refused body is never left on a kept-alive connection: an
        # oversize one is not read, so the reply ends the connection.
        conn = client.connection()
        try:
            conn.putrequest("POST", "/checks")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(2 << 20))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "too large" in json.loads(resp.read())["error"]
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

        # A Content-Length that is not a number is the client's error.
        conn = client.connection()
        try:
            conn.putrequest("POST", "/checks")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
            assert resp.getheader("Connection") == "close"
            _assert_healthz(conn)
        finally:
            conn.close()

    def test_campaign_bad_spec_is_400(self, served):
        service, client = served
        before = sorted(p.name for p in service.registry.root.iterdir())
        for spec, message in (
            ({"scale": "galactic"}, "unknown scale"),
            ({"n_cheks": 10}, "unknown campaign spec field"),
            ({"n_checks": 0}, "n_checks"),
            ({"start_day": 5, "end_day": 5}, "window"),
            ({"start_day": -1}, "start_day"),
            ({"population_size": 0}, "population_size"),
        ):
            status, body = client.post("/campaigns", spec)
            assert status == 400, spec
            assert message in json.loads(body)["error"], spec
        # A refused spec persists nothing: no job directory appears.
        assert sorted(p.name for p in service.registry.root.iterdir()) == before

    def test_unknown_routes_are_404(self, served):
        _, client = served
        assert client.get("/jobs/job-999999")[0] == 404
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404

        # The unread body of a refused POST must not be parsed as the
        # next request on the same keep-alive connection.
        conn = client.connection()
        try:
            conn.request("POST", "/nope",
                         body=json.dumps({"domain": "www.digitalrev.com"}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 404
            assert "no such route" in json.loads(resp.read())["error"]
            _assert_healthz(conn)
        finally:
            conn.close()

    def test_results_before_done_is_409(self, served):
        # Service-level (deterministic): a registered-but-unlaunched job
        # can never race to "done" under the probe.
        service, _ = served
        from repro.serve import Conflict

        job = service.registry.create(JobSpec(scale="tiny", n_checks=5))
        with pytest.raises(Conflict):
            service.job_results_path(job.id)


# ----------------------------------------------------------------------
# Byte identity with the batch path
# ----------------------------------------------------------------------
class TestServedCheckByteIdentity:
    def test_first_served_check_equals_batch_first_check(self, tmp_path):
        # Fresh service: its first check is chk0000001 on a fresh tiny
        # world, exactly what the batch path produces on an
        # identically-built context.
        service, server = build_app(
            ServeConfig(port=0, data_dir=str(tmp_path / "data"))
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(server.port)
            status, served_bytes = client.post(
                "/checks", {"domain": "www.digitalrev.com", "product": 2}
            )
            assert status == 200
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()

        from repro.analysis.personal import derive_anchor_for_domain
        from repro.core.backend import CheckRequest
        from repro.experiments.context import ExperimentContext
        from repro.io import report_to_dict

        ctx = ExperimentContext("tiny", seed=2013)
        world = ctx.world
        anchor = derive_anchor_for_domain(world, "www.digitalrev.com")
        product = world.retailer("www.digitalrev.com").catalog.products[2]
        report = ctx.backend.check(CheckRequest(
            url=f"http://www.digitalrev.com{product.path}", anchor=anchor,
        ))
        batch_bytes = json.dumps(
            report_to_dict(report), sort_keys=True
        ).encode("utf-8")
        assert served_bytes == batch_bytes


# ----------------------------------------------------------------------
# Jobs: lifecycle, checkpointed results, restart visibility
# ----------------------------------------------------------------------
_JOB = {"scale": "tiny", "seed": 2013, "n_checks": 40, "end_day": 12}


class TestCampaignJobs:
    def test_job_runs_to_byte_identical_results(self, served, tmp_path):
        _, client = served
        status, body = client.post("/campaigns", _JOB)
        assert status == 202
        job_id = json.loads(body)["id"]
        state = client.wait_done(job_id)
        assert state["status"] == "done", state
        assert state["checks"] == {"done": 40, "total": 40}
        assert state["rows"] == _JOB["n_checks"]  # records, not file lines
        assert state["memo"]["hits"] + state["memo"]["misses"] > 0
        status, served_results = client.get(f"/jobs/{job_id}/results")
        assert status == 200

        # Reference: a plain run_campaign on the spec's world and
        # config -- jobs run the one campaign schedule, and their
        # checkpoint only adds durable per-day commits.
        from repro.core.backend import SheriffBackend
        from repro.crowd import run_campaign
        from repro.ecommerce.world import build_world
        from repro.io import save_crowd_dataset

        spec = JobSpec.from_dict(_JOB)
        world = build_world(spec.world_config())
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        dataset = run_campaign(world, backend, spec.campaign_config())
        reference = tmp_path / "reference.jsonl"
        save_crowd_dataset(dataset, reference, seed=spec.seed)
        assert served_results == reference.read_bytes()

    def test_restarted_service_sees_finished_job(self, served):
        service, client = served
        status, body = client.post("/campaigns", _JOB)
        assert status == 202
        job_id = json.loads(body)["id"]
        client.wait_done(job_id)

        # A second service over the same data dir (a "restart"): the
        # scan reloads the terminal job; results serve without a re-run.
        data_dir = service.registry.root.parent
        restarted, server = build_app(
            ServeConfig(port=0, data_dir=str(data_dir))
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            reclient = Client(server.port)
            status, body = reclient.get(f"/jobs/{job_id}")
            assert status == 200
            assert json.loads(body)["status"] == "done"
            assert reclient.get(f"/jobs/{job_id}/results")[0] == 200
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()


# ----------------------------------------------------------------------
# Kill the whole service mid-job; restart; demand byte identity
# ----------------------------------------------------------------------
def _serve_spec(tmp_path: Path, tag: str, **overrides) -> dict:
    spec = {
        "kind": "serve",
        "scale": "tiny",
        "seed": 2013,
        "job": {"scale": "tiny", "seed": 2013,
                "n_checks": 60, "end_day": 20},
        "data_dir": str(tmp_path / tag / "data"),
        "out": str(tmp_path / tag / "out.jsonl"),
        "result": str(tmp_path / tag / "result.json"),
    }
    spec.update(overrides)
    return spec


class TestServiceKillResume:
    def test_sigkill_mid_job_resumes_byte_identical(self, tmp_path: Path):
        reference = run_to_completion(_serve_spec(tmp_path, "ref"))
        killed = _serve_spec(
            tmp_path, "kill",
            kill={"point": "segment-committed", "count": 2},
        )
        run_until_killed(killed)
        # Restart over the same data dir: no job is submitted; the
        # service's startup scan resumes job-000001 from its checkpoint.
        resumed = run_to_completion(_serve_spec(tmp_path, "kill"))
        assert resumed["out_sha256"] == reference["out_sha256"], (
            "service restart changed the campaign's result bytes"
        )
        assert resumed["rows"] == reference["rows"]
        assert resumed["checks"] == {"done": 60, "total": 60}


# ----------------------------------------------------------------------
# Progress reads must never mutate the manifest the job thread owns
# ----------------------------------------------------------------------
class TestProgressReadIsReadOnly:
    """Regression: ``Job.checks_done`` once loaded the manifest with
    ``repair=True``, and repair truncates a torn tail *in place*.  A
    status poll landing mid-append would cut a committed line out of the
    file the writer still owns, leaving a seq gap that poisons every
    later load (progress stuck at 0) and any future resume."""

    def _job_with_manifest(self, tmp_path: Path, raw: bytes):
        from repro.serve.jobs import Job

        job = Job("job-000001", JobSpec(), tmp_path / "job-000001")
        job.checkpoint_dir.mkdir(parents=True)
        path = job.checkpoint_dir / "manifest.jsonl"
        path.write_bytes(raw)
        return job, path

    def test_torn_tail_is_ignored_not_truncated(self, tmp_path: Path):
        raw = (
            b'{"format": "repro-checkpoint", "version": 1}\n'
            b'{"seq": 0, "day": 1, "rows": 12}\n'
            b'{"seq": 1, "day": 2, "ro'  # append in flight: no newline
        )
        job, path = self._job_with_manifest(tmp_path, raw)
        assert job.checks_done() == 12
        assert path.read_bytes() == raw, (
            "a progress read modified the manifest"
        )

    def test_complete_manifest_sums_all_rows(self, tmp_path: Path):
        raw = (
            b'{"format": "repro-checkpoint", "version": 1}\n'
            b'{"seq": 0, "day": 1, "rows": 12}\n'
            b'{"seq": 1, "day": 2, "rows": 9}\n'
        )
        job, _ = self._job_with_manifest(tmp_path, raw)
        assert job.checks_done() == 21
