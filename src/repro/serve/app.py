"""HTTP adapter: thin routes over :class:`~repro.serve.service.SheriffService`.

Stdlib only -- :class:`~http.server.ThreadingHTTPServer` with one
handler thread per connection.  Routes do transport work (parse the
path, decode the body, map :class:`~repro.serve.service.ServiceError`
to a status code) and nothing else; every decision lives in the service
core so the routes stay testable by inspection.

Endpoints::

    POST /checks              one on-demand price check
    POST /campaigns           submit a campaign job (202 + job status)
    GET  /jobs/<id>           job progress / outcome
    GET  /jobs/<id>/results   columnar JSONL results of a finished job
    GET  /healthz             service + fleet health

``POST /checks`` responds with :func:`~repro.serve.service.encode_report`
bytes -- byte-identical to the batch path's canonical report JSON.
Everything else responds ``json.dumps(..., sort_keys=True)``.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.service import BadRequest, NotFound, ServiceError, SheriffService

__all__ = ["SheriffHTTPServer", "SheriffRequestHandler"]

logger = logging.getLogger("repro.serve")

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9-]+)(/results)?$")

#: Cap request bodies well above any legal spec; a client streaming
#: gigabytes at /checks should fail fast, not exhaust memory.
_MAX_BODY = 1 << 20


class SheriffHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the service it serves."""

    daemon_threads = True

    def __init__(self, address, service: SheriffService) -> None:
        super().__init__(address, SheriffRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]


class SheriffRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning server's :class:`SheriffService`."""

    server_version = "sheriff-repro/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive: one connection, many checks
    #: TCP_NODELAY.  A memo-hit check is sub-millisecond, and the reply
    #: goes out as two small writes (headers, body); under Nagle plus
    #: delayed ACK every keep-alive response stalls ~40 ms waiting for
    #: the client's ACK, swamping the serving latency it frames.
    disable_nagle_algorithm = True
    #: Seconds a socket read or write may wait before http.server ends the
    #: connection.  Without it a client that connects and sends nothing
    #: holds its handler thread for as long as it keeps the socket open.
    timeout = 30
    #: Whether this request's body is still unread on the socket.
    _body_pending = False

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> SheriffService:
        return self.server.service

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Route http.server's per-request lines to our logger at DEBUG."""
        logger.debug("%s %s", self.address_string(), format % args)

    def end_headers(self) -> None:
        """End the headers, ending the connection if a body is unread."""
        if self._body_pending:
            # The request body is still on the socket: read as the next
            # request line it would desync the connection, so end it.
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(status, blob)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> dict:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not header.isdecimal():
            raise BadRequest("Content-Length must be a non-negative integer")
        length = int(header)
        if length <= 0:
            raise BadRequest("request body required")
        if length > _MAX_BODY:
            raise BadRequest("request body too large")
        raw = self.rfile.read(length)
        self._body_pending = False
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """/healthz, /jobs/<id>, /jobs/<id>/results.

        No route reads a body; one sent anyway is left unread (whatever
        its size) and the reply ends the connection.
        """
        length = (self.headers.get("Content-Length") or "0").strip()
        self._body_pending = not (length.isdecimal() and int(length) == 0) or (
            "Transfer-Encoding" in self.headers
        )
        try:
            if self.path == "/healthz":
                self._send_json(200, self.service.healthz())
                return
            match = _JOB_PATH.match(self.path)
            if match and match.group(2):
                self._send_results(match.group(1))
                return
            if match:
                self._send_json(200, self.service.job_status(match.group(1)))
                return
            raise NotFound(f"no such route GET {self.path}")
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except TimeoutError:
            raise  # a stalled client: http.server ends the connection
        except Exception:  # noqa: BLE001 - connection isolation boundary
            logger.exception("GET %s failed", self.path)
            self._send_error_json(500, "internal error")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """/checks (200, report bytes) and /campaigns (202, job status)."""
        self._body_pending = True
        try:
            if self.path == "/checks":
                body = self.service.check(self._read_json())
                self._send_bytes(200, body)
                return
            if self.path == "/campaigns":
                status = self.service.submit_campaign(self._read_json())
                self._send_json(202, status)
                return
            raise NotFound(f"no such route POST {self.path}")
        except ServiceError as exc:
            self._send_error_json(exc.status, str(exc))
        except TimeoutError:
            raise  # a stalled client: http.server ends the connection
        except Exception:  # noqa: BLE001 - connection isolation boundary
            logger.exception("POST %s failed", self.path)
            self._send_error_json(500, "internal error")

    def _send_results(self, job_id: str) -> None:
        """Stream a finished job's columnar JSONL from disk."""
        path = self.service.job_results_path(job_id)
        size = path.stat().st_size
        with path.open("rb") as fh:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(size))
            self.end_headers()
            shutil.copyfileobj(fh, self.wfile)
