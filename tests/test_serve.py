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
import multiprocessing
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from tests.crashkit import run_to_completion, run_until_killed
from repro.serve import JobSpec, ServeConfig, build_app
from repro.serve.app import SheriffRequestHandler


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

    def test_serving_backend_holds_the_memo(self, served):
        """The on-demand check backend is the one place the burst memo
        lives: a repeated check of a hot product is a memo hit."""
        service, client = served
        assert service.backend.burst_cache is not None
        check = {"domain": "www.digitalrev.com", "product": 3}
        assert client.post("/checks", check)[0] == 200
        before = json.loads(client.get("/healthz")[1])["serving_cache"]
        assert client.post("/checks", check)[0] == 200
        after = json.loads(client.get("/healthz")[1])["serving_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

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

    def test_get_with_body_ends_the_connection(self, served):
        """No GET route reads a body: one sent anyway is left unread and
        the reply ends the connection, so it is never parsed as the next
        request, and the route still answers."""
        _, client = served
        conn = client.connection()
        try:
            conn.request("GET", "/nope",
                         body=json.dumps({"domain": "www.digitalrev.com"}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 404
            assert "no such route" in json.loads(resp.read())["error"]
            assert resp.getheader("Connection") == "close"
            _assert_healthz(conn)

            conn.request("GET", "/healthz", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
            assert resp.getheader("Connection") == "close"

            conn.putrequest("GET", "/healthz")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders(b"2\r\n{}\r\n0\r\n\r\n")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            assert resp.getheader("Connection") == "close"
            _assert_healthz(conn)
        finally:
            conn.close()

    def test_idle_connections_are_closed(self, served, monkeypatch):
        """A client that connects and sends nothing, or stops halfway
        through a request body, is disconnected after the handler's
        timeout without a reply, and its handler thread ends, while a
        keep-alive client that keeps talking stays served."""
        assert SheriffRequestHandler.timeout is not None
        monkeypatch.setattr(SheriffRequestHandler, "timeout", 0.5)
        _, client = served
        baseline = set(threading.enumerate())
        idle = [socket.create_connection(("127.0.0.1", client.port), timeout=10)
                for _ in range(6)]
        idle[-1].sendall(b"POST /checks HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 40\r\n\r\n{\"domain\":")
        try:
            conn = client.connection()
            try:
                for _ in range(4):
                    _assert_healthz(conn)
                    time.sleep(0.2)
            finally:
                conn.close()
            for sock in idle:
                assert sock.recv(1) == b""
        finally:
            for sock in idle:
                sock.close()
        deadline = time.monotonic() + 10
        while set(threading.enumerate()) - baseline:
            assert time.monotonic() < deadline, "handler threads still alive"
            time.sleep(0.02)

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

    def test_served_checks_equal_batch_checks(self, tmp_path):
        # Fresh service: its first two checks are chk0000001 and
        # chk0000002 on a fresh tiny world, exactly what the batch path
        # produces on an identically-built context.  The second check's
        # anchor is resolved on the anchor page's shape, with no walk.
        service, server = build_app(
            ServeConfig(port=0, data_dir=str(tmp_path / "data"))
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        served = []
        try:
            client = Client(server.port)
            for _ in range(2):
                status, served_bytes = client.post(
                    "/checks", {"domain": "www.digitalrev.com", "product": 2}
                )
                assert status == 200
                served.append(served_bytes)
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
        product = world.retailer("www.digitalrev.com").catalog.products[2]
        batch = []
        for _ in range(2):
            # Anchor before each check, as SheriffService.check does.
            anchor = derive_anchor_for_domain(world, "www.digitalrev.com")
            report = ctx.backend.check(CheckRequest(
                url=f"http://www.digitalrev.com{product.path}", anchor=anchor,
            ))
            batch.append(json.dumps(
                report_to_dict(report), sort_keys=True
            ).encode("utf-8"))
        assert served == batch
        assert served[0] != served[1]  # check ids and timestamps move on


# ----------------------------------------------------------------------
# Jobs: lifecycle, checkpointed results, restart visibility
# ----------------------------------------------------------------------
_JOB = {"scale": "tiny", "seed": 2013, "n_checks": 40, "end_day": 12}


class TestCampaignJobs:
    def test_job_runs_to_byte_identical_results(
        self, served, tmp_path, monkeypatch
    ):
        import weakref

        from repro.serve import service as service_module

        service, client = served
        # Weak references to the job's world and backend: a finished job
        # must not keep either alive.
        held = []
        memos = []
        backend_class = service_module.SheriffBackend

        def tracked(factory):
            def build(*args, **kwargs):
                obj = factory(*args, **kwargs)
                held.append(weakref.ref(obj))
                if factory is backend_class:
                    memos.append(obj.burst_cache)
                return obj
            return build

        monkeypatch.setattr(service_module, "build_world",
                            tracked(service_module.build_world))
        monkeypatch.setattr(service_module, "SheriffBackend",
                            tracked(service_module.SheriffBackend))
        status, body = client.post("/campaigns", _JOB)
        assert status == 202
        job_id = json.loads(body)["id"]
        state = client.wait_done(job_id)
        assert state["status"] == "done", state
        thread = service._threads[job_id]
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(held) == 2
        assert [ref() for ref in held] == [None, None]
        assert state["checks"] == {"done": 40, "total": 40}
        assert state["rows"] == _JOB["n_checks"]  # records, not file lines
        assert memos == [None]  # a job's backend holds no burst memo
        assert "memo" not in state
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

    def test_job_under_process_workers_matches_inline(
        self, served, tmp_path
    ):
        """``repro serve --workers 2``: the job thread forks its worker
        processes from the threaded server, returns the inline service's
        bytes, and leaves no child process behind."""
        import multiprocessing

        from repro.exec import ExecConfig

        _, inline_client = served
        status, body = inline_client.post("/campaigns", _JOB)
        assert status == 202
        job_id = json.loads(body)["id"]
        assert inline_client.wait_done(job_id)["status"] == "done"
        inline_results = inline_client.get(f"/jobs/{job_id}/results")[1]

        service, server = build_app(ServeConfig(
            port=0, data_dir=str(tmp_path / "data"),
            exec_config=ExecConfig(workers=2),
        ))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = Client(server.port)
            status, body = client.post("/campaigns", _JOB)
            assert status == 202
            job_id = json.loads(body)["id"]
            state = client.wait_done(job_id)
            assert state["status"] == "done", state
            assert state["fleet_health"]["restarts"] == 0
            status, results = client.get(f"/jobs/{job_id}/results")
            assert status == 200
            job_thread = service._threads[job_id]
            job_thread.join(timeout=60)
            assert not job_thread.is_alive()
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
        assert results == inline_results
        assert multiprocessing.active_children() == []

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
# Fleet health: each job reads its own pool
# ----------------------------------------------------------------------
class TestJobFleetHealth:
    """Under ``--workers 2`` each job opens its own pool; its status
    reads that pool's counters live, ``done.json`` keeps the final ones,
    and ``/healthz`` sums the jobs'.  One worker is SIGKILLed mid-batch
    in the first job's first batch, and that job is parked at its first
    day commit until the test has looked."""

    @pytest.fixture()
    def pooled(self, tmp_path):
        from repro.checkpoint import install_barrier_hook
        from repro.exec import ExecConfig, install_fault_hook
        from tests.crashkit import FaultPlan

        release = threading.Event()
        first = "sheriff-job-000001"

        def park_first_job(name: str) -> None:
            if (name == "segment-committed"
                    and threading.current_thread().name == first):
                release.wait(timeout=120)

        FaultPlan([(0, 0, "mid-batch")]).install()
        install_barrier_hook(park_first_job)
        service, server = build_app(ServeConfig(
            port=0, data_dir=str(tmp_path / "data"),
            exec_config=ExecConfig(workers=2),
        ))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield service, Client(server.port), release
        finally:
            release.set()
            for job_thread in list(service._threads.values()):
                job_thread.join(timeout=120)
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            install_barrier_hook(None)
            install_fault_hook(None)

    @staticmethod
    def _await_live_restart(client: Client, job_id: str) -> dict:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            state = json.loads(client.get(f"/jobs/{job_id}")[1])
            if state.get("fleet_health", {}).get("restarts"):
                return state
            assert state["status"] in ("pending", "running"), state
            time.sleep(0.05)
        raise AssertionError(f"{job_id} never reported a restart")

    def test_running_job_reports_a_restart_live(self, pooled, served):
        service, client, release = pooled
        job_id = json.loads(client.post("/campaigns", _JOB)[1])["id"]
        live = self._await_live_restart(client, job_id)
        assert live["status"] == "running"
        assert live["fleet_health"]["restarts"] == 1
        assert live["fleet_health"]["quarantined_shards"] == 0
        assert set(live["fleet_health"]) == {
            "restarts", "hang_kills", "quarantined_shards",
            "inline_checks", "recovery_ms",
        }
        release.set()
        done = client.wait_done(job_id)
        assert done["status"] == "done", done
        assert done["fleet_health"]["restarts"] == 1
        job_thread = service._threads[job_id]
        job_thread.join(timeout=60)
        assert not job_thread.is_alive()
        assert multiprocessing.active_children() == []

        # The bytes cannot tell: the inline service's run of the spec.
        _, inline_client = served
        inline_id = json.loads(inline_client.post("/campaigns", _JOB)[1])["id"]
        assert inline_client.wait_done(inline_id)["fleet_health"] == {
            "restarts": 0, "hang_kills": 0, "quarantined_shards": 0,
            "inline_checks": 0, "recovery_ms": 0.0,
        }
        assert (client.get(f"/jobs/{job_id}/results")[1]
                == inline_client.get(f"/jobs/{inline_id}/results")[1])

    def test_job_status_counts_only_its_own_pool(self, pooled):
        service, client, release = pooled
        first = json.loads(client.post("/campaigns", _JOB)[1])["id"]
        self._await_live_restart(client, first)
        # The kill is spent; a second job runs start to end on its own
        # pool while the first is parked holding its restart.
        second = json.loads(client.post("/campaigns", _JOB)[1])["id"]
        state = client.wait_done(second)
        assert state["status"] == "done", state
        assert state["fleet_health"]["restarts"] == 0
        parked = json.loads(client.get(f"/jobs/{first}")[1])
        assert parked["status"] == "running"
        assert parked["fleet_health"]["restarts"] == 1
        health = json.loads(client.get("/healthz")[1])["fleet_health"]
        assert health["restarts"] == 1
        release.set()
        assert client.wait_done(first)["fleet_health"]["restarts"] == 1
        assert json.loads(client.get(f"/jobs/{second}")[1])[
            "fleet_health"]["restarts"] == 0
        health = json.loads(client.get("/healthz")[1])["fleet_health"]
        assert health["restarts"] == 1
        assert (client.get(f"/jobs/{first}/results")[1]
                == client.get(f"/jobs/{second}/results")[1])

    def test_healthz_sums_the_jobs_pools(self, pooled, tmp_path):
        """The restart a job's pool counts lands both in that job's
        status and in the service-wide ``/healthz`` sum, live and after
        the job ends; a service restarted over the same data dir still
        counts it, from the reloaded ``done.json``."""
        _, client, release = pooled
        job_id = json.loads(client.post("/campaigns", _JOB)[1])["id"]
        self._await_live_restart(client, job_id)
        health = json.loads(client.get("/healthz")[1])["fleet_health"]
        assert health["restarts"] == 1
        release.set()
        done = client.wait_done(job_id)
        assert done["status"] == "done", done
        health = json.loads(client.get("/healthz")[1])["fleet_health"]
        assert health == done["fleet_health"]
        assert health["recovery_ms"] > 0

        _, server = build_app(
            ServeConfig(port=0, data_dir=str(tmp_path / "data"))
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            reloaded = json.loads(Client(server.port).get("/healthz")[1])
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
        assert reloaded["jobs"] == {"total": 1, "done": 1}
        assert reloaded["fleet_health"] == done["fleet_health"]


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


# ----------------------------------------------------------------------
# Durable job files and a bounded serving archive
# ----------------------------------------------------------------------
class TestDurableJobFiles:
    def test_job_files_reach_disk_before_their_rename(
        self, tmp_path, monkeypatch
    ):
        """job.json, results.jsonl and done.json are each fsynced as a
        tmp file, renamed, and the rename fsynced through the directory;
        results.jsonl is durable before done.json is written, so a power
        loss cannot leave ``done`` over a results file that is not on
        disk."""
        import os

        from repro.serve.service import SheriffService

        events: list[tuple] = []
        paths: dict[int, Path] = {}
        real_open, real_close = os.open, os.close
        real_fsync, real_replace = os.fsync, os.replace
        real_write_bytes = Path.write_bytes

        def spy_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            paths[fd] = Path(path)
            return fd

        def spy_close(fd):
            paths.pop(fd, None)
            real_close(fd)

        def spy_fsync(fd):
            events.append(("fsync", paths.get(fd)))
            real_fsync(fd)

        def spy_replace(src, dst, *args, **kwargs):
            events.append(("replace", Path(src), Path(dst)))
            real_replace(src, dst, *args, **kwargs)

        def spy_write_bytes(self, data):
            events.append(("write", self))
            return real_write_bytes(self, data)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "close", spy_close)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(Path, "write_bytes", spy_write_bytes)

        service = SheriffService(scale="tiny", data_dir=tmp_path / "data")
        status = service.submit_campaign(
            {"scale": "tiny", "n_checks": 5, "end_day": 2}
        )
        thread = service._threads[status["id"]]
        thread.join(timeout=120)
        assert not thread.is_alive()
        job = service.registry.get(status["id"])
        assert job.status == "done", job.error

        def durable(name: str) -> int:
            """Index of the directory fsync that makes ``name`` durable."""
            tmp = job.dir / f"{name}.tmp"
            renamed = events.index(("replace", tmp, job.dir / name))
            assert events.index(("fsync", tmp)) < renamed, name
            return events.index(("fsync", job.dir), renamed)

        for name in ("job.json", "results.jsonl", "done.json"):
            durable(name)
        assert durable("results.jsonl") < events.index(
            ("write", job.dir / "done.json.tmp")
        )


class TestServingArchiveBounded:
    def test_store_keeps_the_same_pages_as_checks_go_on(self, tmp_path):
        """A long-lived service's page archive stops growing once every
        retailer holds its cap of kept pages; later checks move only the
        archive chain."""
        from repro.serve.service import SheriffService

        service = SheriffService(scale="tiny", data_dir=tmp_path / "data")
        retailers = sorted(service.world.retailers)
        requests = [
            {"domain": domain, "product": product}
            for domain in retailers for product in range(4)
        ]
        reads = []
        for start in (0, 300):
            for k in range(start, start + 300):
                service.check(requests[k % len(requests)])
            store = service.backend.store
            reads.append((len(store), store.retained_html_count(),
                          store.archive_chain))
        (kept, retained, chain), (kept_later, retained_later, chain_later) = (
            reads
        )
        assert kept == kept_later
        assert kept <= store.html_per_domain * len(retailers)
        assert retained == kept and retained_later == kept_later
        assert chain != chain_later
