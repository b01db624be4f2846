"""Closed-loop load generator for the ``serve`` workload.

One single-threaded process, one keep-alive connection: each
``POST /checks`` is sent only after the previous answer has been read in
full, so the service never queues more than one request.  It runs in its
own process so it never shares the service's interpreter lock.

    python perfbench/loadgen.py PORT STREAM.json OUT.json

Writes per-check latencies (send until the full response is read), the
status counts, a sha256 over every response body in order, the first
body, and the stream's start and end on the shared monotonic clock.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import sys
import time


def main(port: int, stream_path: str, out_path: str) -> None:
    with open(stream_path, encoding="utf-8") as fh:
        bodies = [json.dumps(item).encode("utf-8") for item in json.load(fh)]
    headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    digest = hashlib.sha256()
    latencies_ms: list[float] = []
    statuses: dict[str, int] = {}
    first_body = None
    try:
        conn.connect()
        start = time.perf_counter()
        for body in bodies:
            sent = time.perf_counter()
            conn.request("POST", "/checks", body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            latencies_ms.append((time.perf_counter() - sent) * 1e3)
            statuses[str(response.status)] = statuses.get(str(response.status), 0) + 1
            digest.update(len(data).to_bytes(8, "big"))
            digest.update(data)
            if first_body is None:
                first_body = data.decode("utf-8")
        end = time.perf_counter()
    finally:
        conn.close()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "start": start, "end": end, "latencies_ms": latencies_ms,
            "statuses": statuses, "digest": digest.hexdigest(),
            "first_body": first_body,
        }, fh)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2], sys.argv[3])
