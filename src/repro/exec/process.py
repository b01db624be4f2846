"""Multi-process shard execution.

:class:`ProcessExecutor` fans a batch's shards out to **dedicated**
persistent worker processes -- worker *i* always executes shard *i*, over
a private pipe, for the executor's whole lifetime.  A worker never
receives live simulation objects -- no DOM trees, servers, or networks
cross the process boundary.  Instead it receives:

* the world's :class:`~repro.ecommerce.world.WorldSpec` (a few config
  primitives, shipped on the worker's first batch only) from which it
  regrows an equivalent world once per process and caches it,
* the shard's :class:`~repro.core.backend.ScheduledCheck` slice (URLs,
  anchors, pre-assigned check ids and start times), and
* **deltas** of everything stateful: per-domain session state (each
  vantage point's cookies for the domain plus the retailer server's
  :meth:`~repro.ecommerce.retailer.RetailerServer.session_state` dict)
  only for domains whose state changed since the worker last saw them.

Because every stochastic draw in the simulation is keyed by request
identity rather than arrival order (see ``docs/ARCHITECTURE.md``), the
rebuilt world plus the restored session state reproduce each check
bit-for-bit.  The worker sends back reports, archives in compact form
(page bodies travel once per worker and day, by content hash), and the
post-batch session-state *deltas*.  The coordinator folds the session
state into its own world and replays archives in plan order: the next
day's batch starts from exactly the history a sequential run would have
written.

Batch runs carry no burst memo (:mod:`repro.core.burstcache`), so no
memo state crosses the boundary: :meth:`ProcessExecutor.run` refuses a
backend that holds one.

Supervision
-----------

Worker death (pipe EOF / broken pipe / process exit) and hangs (a shard
blowing through a deadline scaled by its check count) are *recovered*,
not fatal: the coordinator discards the failed attempt wholesale,
respawns a replacement worker, and re-dispatches the same shard batch
to it.  A fresh worker starts with an empty ledger, so the ordinary
delta payload naturally degenerates to the **full** state ship -- spec
and every session blob for the shard's domains -- and nothing of the
dead worker's partial batch was folded.  Output stays byte-identical
to the fault-free run; the chaos harness (``tests/test_worker_chaos.py``)
proves it under arbitrary fault schedules.  Each shard carries a bounded
restart budget with exponential backoff; a shard that keeps killing its
workers is quarantined -- its checks run inline on the coordinator with
a structured warning on the ``repro.exec`` logger -- so a poison shard
degrades throughput, never the run.

All boundary pickles use the highest protocol;
:meth:`ProcessExecutor.boundary_stats` reports how much time and traffic
the boundary actually cost, and :meth:`ProcessExecutor.supervision_stats`
reports fleet health (restarts, hang kills, quarantined shards, inline
checks, recovery ms).  The executor's owner reads both; there is no
process-wide tally.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import signal
import sys
import time
import traceback
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.checkpoint.barriers import WORKER_RESPAWN, barrier
from repro.ecommerce.world import WorldSpec
from repro.exec.plan import CostAwarePlanner, ExecError
from repro.net.clock import SECONDS_PER_DAY
from repro.net.urls import URL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import ScheduledCheck, SheriffBackend
    from repro.core.reports import PriceCheckReport
    from repro.ecommerce.world import World
    from repro.net.vantage import VantagePoint

__all__ = [
    "FAULT_POINTS",
    "ProcessExecutor",
    "QUIET_FLEET",
    "install_fault_hook",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

logger = logging.getLogger("repro.exec")

#: Per-process memo of rebuilt worlds: spec -> (world, backend).  A
#: dedicated worker serves many shard batches over a crawl's lifetime;
#: the expensive regrow from the spec happens once per (process, spec).
_WORKER_WORLDS: dict[WorldSpec, tuple] = {}

#: Cumulative world builds in this process -- the coordinator surfaces it
#: per worker (:meth:`ProcessExecutor.worker_worlds_built`) so tests can
#: pin "regrown exactly once".
_WORLDS_BUILT = 0

#: Worker side of the archive dedup: content hashes already shipped to
#: the coordinator this day.  A page body crosses the boundary at most
#: once per worker and day; later archives reference it by hash.
_SHIPPED_HASHES: set[bytes] = set()

#: Worker side of the session-state dedup: domain -> last blob this
#: worker either received from the coordinator or reported back.  Only
#: domains whose post-batch blob differs are returned.
_SESSION_BLOBS: dict[str, bytes] = {}

#: The spec this dedicated worker serves.  A worker belongs to exactly
#: one executor (one world), so the coordinator ships the spec on the
#: first batch only and ``None`` thereafter.
_CURRENT_SPEC: Optional[WorldSpec] = None


def _worker_world(spec: WorldSpec):
    from repro.core.backend import SheriffBackend

    global _WORLDS_BUILT
    cached = _WORKER_WORLDS.get(spec)
    if cached is None:
        world = spec.build()
        backend = SheriffBackend(
            world.network, world.vantage_points, world.rates
        )
        cached = (world, backend)
        _WORKER_WORLDS[spec] = cached
        _WORLDS_BUILT += 1
    return cached


def _page_hash(html: str) -> bytes:
    return hashlib.blake2b(html.encode("utf-8"), digest_size=16).digest()


# ----------------------------------------------------------------------
# Fault injection: the chaos harness's seam into worker execution
# ----------------------------------------------------------------------
#: Fault points a hook may inject into a shard dispatch.  ``before-batch``,
#: ``mid-batch``, and ``after-batch`` SIGKILL the worker at that moment
#: of the batch; ``hang`` makes it sleep past any deadline; ``raise`` /
#: ``raise-unpicklable`` throw (the second with an exception that
#: refuses to pickle, exercising the relay fallback).
FAULT_POINTS = (
    "before-batch", "mid-batch", "after-batch",
    "hang", "raise", "raise-unpicklable",
)

_fault_hook: Optional[Callable[[int, int], Optional[str]]] = None


def install_fault_hook(
    hook: Optional[Callable[[int, int], Optional[str]]],
) -> Optional[Callable[[int, int], Optional[str]]]:
    """Install a worker-fault hook; returns the previous one.

    The hook is consulted by the coordinator at every shard dispatch
    (including re-dispatches after a recovery) with ``(worker_index,
    batch_index)`` and returns a :data:`FAULT_POINTS` name to inject
    into that dispatch, or ``None``.  Pass ``None`` to uninstall.  This
    mirrors :func:`repro.checkpoint.barriers.install_barrier_hook`: a
    production run pays one global read per dispatch.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


class _UnpicklableFault(RuntimeError):
    """Deliberately refuses to pickle (exercises the relay fallback)."""

    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _die() -> None:
    """SIGKILL this worker process -- no cleanup, exactly like a crash."""
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# Session state: the one definition of "state", as a per-domain blob
# ----------------------------------------------------------------------
def _domain_blob(fleet, servers, domain: str) -> bytes:
    """One domain's session state, canonically pickled.

    Blob equality is the boundary's change detector, so both sides must
    build it identically: the fleet's cookie snapshots for the domain in
    fleet order, then the owning server's
    :meth:`~repro.ecommerce.retailer.RetailerServer.session_state` dict
    (``None`` for non-retailer domains).  A stateful server subclass
    extends the SPI once and both sides of the boundary pick it up --
    anything stateful that bypasses the SPI silently diverges between
    worker and coordinator.
    """
    jars = [vantage.jar.snapshot(hosts={domain}) for vantage in fleet]
    server = servers.get(domain)
    state = server.session_state() if server is not None else None
    return pickle.dumps((jars, state), protocol=_PROTOCOL)


def _install_domain_blob(fleet, servers, domain: str, blob: bytes) -> None:
    """Install one domain's session state from its blob (either side)."""
    jars, state = pickle.loads(blob)
    for vantage, snapshot in zip(fleet, jars):
        vantage.jar.clear(domain)
        vantage.jar.restore(snapshot)
    if state is not None:
        server = servers.get(domain)
        if server is not None:
            server.restore_session_state(state)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_shard(payload: dict) -> dict:
    """Execute one shard batch in a worker process.

    Returns each report pickled on its own, with compact archives
    (``(vantage, timestamp, content hash)`` triples plus any page bodies
    not yet shipped), and the post-batch session-state deltas.
    """
    global _CURRENT_SPEC
    fault = payload.get("fault")
    if fault == "before-batch":
        _die()
    elif fault == "hang":
        while True:  # the coordinator's deadline kills us
            time.sleep(60)
    elif fault == "raise":
        raise RuntimeError("injected worker fault: raise")
    elif fault == "raise-unpicklable":
        raise _UnpicklableFault("injected worker fault: raise-unpicklable")
    spec: Optional[WorldSpec] = payload["spec"]
    if spec is None:
        spec = _CURRENT_SPEC
        if spec is None:  # pragma: no cover - coordinator bug
            raise RuntimeError("shard payload omitted the spec before "
                               "this worker ever received one")
    else:
        _CURRENT_SPEC = spec
    if payload["fresh_pages"]:
        _SHIPPED_HASHES.clear()
    tasks: list = payload["tasks"]
    domains: list[str] = payload["domains"]
    world, backend = _worker_world(spec)
    fleet = world.vantage_points

    # Install the session-state deltas; untouched domains already hold
    # exactly the state this worker left (or reported) last batch.
    for domain, blob in payload["session"].items():
        _install_domain_blob(fleet, world.servers, domain, blob)
        _SESSION_BLOBS[domain] = blob
    for domain in domains:
        if domain not in _SESSION_BLOBS:
            _SESSION_BLOBS[domain] = _domain_blob(
                fleet, world.servers, domain
            )

    kill_after = max(1, len(tasks) // 2) if fault == "mid-batch" else None
    results = []
    new_pages: dict[bytes, str] = {}
    for done, sched in enumerate(tasks, start=1):
        archives: list[tuple] = []

        def archive(*, check_id, url, domain, vantage, timestamp, html):
            digest = _page_hash(html)
            if digest not in _SHIPPED_HASHES:
                _SHIPPED_HASHES.add(digest)
                new_pages[digest] = html
            archives.append((vantage, timestamp, digest))

        report = backend.run_scheduled_check(sched, fleet, archive)
        results.append(
            (sched.index, pickle.dumps(report, _PROTOCOL), archives)
        )
        if kill_after is not None and done >= kill_after:
            _die()

    session_out: dict[str, bytes] = {}
    for domain in domains:
        blob = _domain_blob(fleet, world.servers, domain)
        if blob != _SESSION_BLOBS.get(domain):
            session_out[domain] = blob
            _SESSION_BLOBS[domain] = blob
    if fault == "after-batch":
        # Every task ran -- and none of it will ever reach the
        # coordinator.
        _die()
    return {
        "results": results,
        "pages": new_pages,
        "session": session_out,
        "worlds_built": _WORLDS_BUILT,
    }


def _reset_worker_state() -> None:
    """Start a worker process from a clean slate.

    Under the fork start method the child inherits this module's
    globals from the coordinator process -- including state left behind
    by any in-process `_run_shard` call (tests do this).  An inherited
    `_SHIPPED_HASHES` entry would make the worker skip shipping a page
    body the coordinator never received; an inherited world would carry
    foreign session state.  Everything per-process starts empty.
    """
    global _WORLDS_BUILT, _CURRENT_SPEC
    _WORKER_WORLDS.clear()
    _SHIPPED_HASHES.clear()
    _SESSION_BLOBS.clear()
    _WORLDS_BUILT = 0
    _CURRENT_SPEC = None


def _worker_main(conn) -> None:
    """Dedicated worker loop: receive a payload, run the shard, reply.

    Exceptions travel back pickled (falling back to a stringified
    traceback when the exception itself will not pickle) so the
    coordinator re-raises the real type.
    """
    _reset_worker_state()
    try:
        while True:
            try:
                blob = conn.recv_bytes()
            except EOFError:
                break
            payload = pickle.loads(blob)
            if payload is None:
                break
            try:
                result = _run_shard(payload)
            except BaseException as exc:  # noqa: BLE001 - relayed, not hidden
                try:
                    reply = pickle.dumps({"error": exc}, protocol=_PROTOCOL)
                except Exception:
                    reply = pickle.dumps(
                        {"error": RuntimeError(traceback.format_exc())},
                        protocol=_PROTOCOL,
                    )
                conn.send_bytes(reply)
                continue
            conn.send_bytes(pickle.dumps(result, protocol=_PROTOCOL))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def merge_in_plan_order(
    backend: "SheriffBackend",
    scheduled: Sequence["ScheduledCheck"],
    merged: dict[int, tuple[bytes, list[tuple]]],
    pages: dict[bytes, str],
    sink: Optional[Callable[["PriceCheckReport"], None]] = None,
) -> list["PriceCheckReport"]:
    """Reassemble per-shard results into submission order.

    ``merged`` maps schedule index to (pickled report, the check's
    fetches as ``(vantage, timestamp, body hash)`` triples); ``pages``
    maps each body hash to its body.  The fetches replay into
    ``backend.store`` in plan order, so the archive chain folds the same
    fetch stream, and the retention caps and content interning keep the
    same pages, as the inline loop, and no per-fetch record is built.
    Each report is unpickled only when its turn comes, so, as in the
    inline loop, one report object is alive at a time: a whole batch of
    them, freed around the values the dataset keeps, would fragment the
    heap.

    With a ``sink``, each report is handed over in plan order instead of
    being accumulated (the crawl streams reports straight into the
    columnar dataset spine this way) and the returned list is empty.
    """
    reports: list["PriceCheckReport"] = []
    for sched in scheduled:
        report_blob, archives = merged.pop(sched.index)
        url = URL.parse(sched.request.url)
        url_text = str(url)
        for vantage, timestamp, digest in archives:
            backend.store.archive(
                check_id=sched.check_id,
                url=url_text,
                domain=url.host,
                vantage=vantage,
                timestamp=timestamp,
                html=pages[digest],
            )
        report = pickle.loads(report_blob)
        if sink is not None:
            sink(report)
        else:
            reports.append(report)
    return reports


class _WorkerHandle:
    """The coordinator's ledger of exactly what one worker holds."""

    __slots__ = ("proc", "conn", "session", "worlds_built",
                 "spec_sent", "pages_epoch")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: whether the worker has received the world spec (first batch).
        self.spec_sent = False
        #: the coordinator's page epoch the worker's shipped hashes
        #: belong to (0: none yet).
        self.pages_epoch = 0
        #: domain -> session blob the worker currently holds.
        self.session: dict[str, bytes] = {}
        self.worlds_built = 0


class _WorkerFailure(Exception):
    """Internal: one worker failed (died or hung); the supervisor decides."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


#: :meth:`ProcessExecutor.supervision_stats` of a run no fault touched,
#: and so of an inline run, which has no pool to ask.
QUIET_FLEET = MappingProxyType({
    "restarts": 0,
    "hang_kills": 0,
    "quarantined_shards": 0,
    "inline_checks": 0,
    "recovery_ms": 0.0,
})


class ProcessExecutor:
    """Execute shards in parallel worker processes, merge deterministically.

    The executor holds one dedicated worker process per shard.  The
    caller that starts a unit of work -- a CLI command's
    :class:`~repro.experiments.context.ExperimentContext`, a scenario
    cell, a served job -- builds one (``ExecConfig.create`` does), hands
    it to every run of that unit (a campaign and then a crawl share its
    workers, their session ledgers and its page epoch), reads its
    counters, and closes it (:meth:`close`; it is also a context
    manager).  A closed executor refuses work.  Requires a world built by
    :func:`~repro.ecommerce.world.build_world` (workers regrow it from
    the spec) and the world's own vantage fleet.

    Supervision knobs (see the module docstring):

    * ``max_restarts`` -- respawns allowed per shard before quarantine
      (3 unless a caller builds the executor itself);
    * ``restart_backoff_s`` -- base of the exponential backoff slept
      before each respawn (``base * 2**(failures-1)``, capped at 2 s;
      0 disables -- tests do);
    * ``min_deadline_s`` / ``deadline_per_check_s`` -- a shard's hang
      deadline is ``min + per_check * len(shard)``, so larger shards get
      proportionally more wall clock.

    The backend must hold no burst memo (``backend.burst_cache is
    None``): :meth:`run` raises :class:`~repro.exec.plan.ExecError`
    otherwise, before any dispatch.
    """

    def __init__(
        self,
        world: "World",
        workers: int = 4,
        *,
        start_method: Optional[str] = None,
        max_restarts: int = 3,
        restart_backoff_s: float = 0.05,
        min_deadline_s: float = 300.0,
        deadline_per_check_s: float = 1.0,
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self._world = world
        self._spec = world.spec()
        self.plan = CostAwarePlanner(workers)
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        self.min_deadline_s = min_deadline_s
        self.deadline_per_check_s = deadline_per_check_s
        # fork is the fast path (no re-import) but is only safe where it
        # is the platform default; macOS deliberately switched to spawn
        # (fork-without-exec crashes), so prefer it only on Linux.
        method = start_method or (
            "fork" if sys.platform == "linux" else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)
        self._handles: list[_WorkerHandle] = []
        try:
            for i in range(self.plan.workers):
                self._handles.append(self._spawn_worker(i))
        except BaseException:
            # Spawning worker k failed: close the k pipes already open
            # and join the k processes already started, then re-raise --
            # a half-constructed executor must not leak its fleet.
            for handle in self._handles:
                self._retire(handle)
            raise
        self._closed = False
        # Coordinator side of the archive dedup: content hash -> body,
        # across every worker and every batch of one day.  A batch of a
        # new day starts a new epoch with an empty map, and each worker
        # forgets what it shipped before its first batch of the epoch,
        # so the map holds one day's bodies, however long the run.
        self._pages: dict[bytes, str] = {}
        self._pages_day: Optional[int] = None
        self._pages_epoch = 0
        self._batches = 0
        self._payload_ms = 0.0
        self._fold_ms = 0.0
        self._ship_bytes = 0
        self._recv_bytes = 0
        # Supervision state.
        self._failures: dict[int, int] = {}
        self._quarantined: set[int] = set()
        self._restarts = 0
        self._hang_kills = 0
        self._inline_checks = 0
        self._recovery_ms = 0.0

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> _WorkerHandle:
        """Start one dedicated worker; on failure leak neither pipe end."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            daemon=True,
            name=f"repro-exec-worker-{index}",
        )
        try:
            proc.start()
        except BaseException:
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        return _WorkerHandle(proc, parent_conn)

    @staticmethod
    def _retire(handle: _WorkerHandle) -> None:
        """Kill (if needed), reap, and disconnect one worker."""
        if handle.proc.is_alive():
            handle.proc.kill()
        if handle.proc.pid is not None:
            handle.proc.join(timeout=10)
        if not handle.conn.closed:
            handle.conn.close()

    # ------------------------------------------------------------------
    def run(
        self,
        backend: "SheriffBackend",
        scheduled: Sequence["ScheduledCheck"],
        fleet: Sequence["VantagePoint"],
        sink: Optional[Callable[["PriceCheckReport"], None]] = None,
    ) -> list["PriceCheckReport"]:
        """Dispatch shards to the workers and merge results in plan order.

        A closed executor refuses the batch with
        :class:`~repro.exec.plan.ExecError` before any dispatch.
        """
        if self._closed:
            raise ExecError(
                "ProcessExecutor is closed; its owner must build a new "
                "one to run more batches"
            )
        try:
            return self._run(backend, scheduled, fleet, sink)
        except BaseException:
            # Anything the supervisor could not absorb (a relayed worker
            # exception, a coordinator bug, Ctrl-C mid-dispatch) must
            # not leak live worker processes or open pipes.
            self.close()
            raise

    def _run(self, backend, scheduled, fleet, sink):
        if backend.burst_cache is not None:
            raise ExecError(
                "ProcessExecutor cannot carry a burst memo across the "
                "process boundary; build the backend without burst_cache"
            )
        expected = [vp.name for vp in self._world.vantage_points]
        if [vp.name for vp in fleet] != expected:
            raise ExecError(
                "ProcessExecutor can only fan out over the world's own "
                "vantage fleet (workers rebuild that fleet from the spec)"
            )
        if scheduled:
            day = int(scheduled[0].start_ts // SECONDS_PER_DAY)
            if day != self._pages_day:
                self._pages_day = day
                self._pages_epoch += 1
                self._pages.clear()
        shards = self.plan.partition_batch(scheduled)
        merged: dict[int, tuple["PriceCheckReport", list[dict]]] = {}
        t0 = time.perf_counter()
        pending: list[tuple[int, list, float, float]] = []
        for shard_index, shard in enumerate(shards):
            if not shard:
                continue
            if shard_index in self._quarantined:
                self._run_inline(backend, shard, fleet, merged)
                continue
            state = self._dispatch_supervised(
                backend, shard_index, shard, fleet, merged
            )
            if state is not None:
                pending.append((shard_index, shard) + state)
        self._payload_ms += (time.perf_counter() - t0) * 1000.0

        for shard_index, shard, dispatched_at, deadline_s in pending:
            self._collect_supervised(
                backend, shard_index, shard, fleet, merged,
                dispatched_at, deadline_s,
            )
        self._batches += 1
        return merge_in_plan_order(
            backend, scheduled, merged, self._pages, sink
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _build_payload(self, handle, shard_index, shard, fleet):
        """The shard's delta payload against this handle's ledger.

        A fresh (just-respawned) handle has an empty ledger, so the same
        delta logic degenerates to the full state ship recovery needs:
        spec and every session blob for the shard's domains.
        """
        domains = sorted(
            {URL.parse(sched.request.url).host for sched in shard}
        )
        session: dict[str, bytes] = {}
        for domain in domains:
            blob = _domain_blob(fleet, self._world.servers, domain)
            if handle.session.get(domain) != blob:
                session[domain] = blob
                handle.session[domain] = blob
        fresh_pages = handle.pages_epoch != self._pages_epoch
        handle.pages_epoch = self._pages_epoch
        fault = None
        if _fault_hook is not None:
            fault = _fault_hook(shard_index, self._batches)
        return {
            # The spec crosses the boundary once per worker.
            "spec": None if handle.spec_sent else self._spec,
            "tasks": shard,
            "domains": domains,
            "session": session,
            "fresh_pages": fresh_pages,
            "fault": fault,
        }

    def _dispatch(self, shard_index, shard, fleet):
        """Send one shard to its worker; returns (dispatched_at, deadline_s).

        Ledger updates made while building the payload are safe even if
        the send fails: recovery replaces the handle, and a fresh
        handle's empty ledger re-ships everything.
        """
        handle = self._handles[shard_index]
        payload = self._build_payload(handle, shard_index, shard, fleet)
        blob = pickle.dumps(payload, protocol=_PROTOCOL)
        self._ship_bytes += len(blob)
        try:
            handle.conn.send_bytes(blob)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise _WorkerFailure(
                "died at dispatch",
                f"exit code {handle.proc.exitcode} ({exc})",
            ) from None
        handle.spec_sent = True
        deadline_s = self.min_deadline_s + (
            self.deadline_per_check_s * len(shard)
        )
        return time.monotonic(), deadline_s

    def _dispatch_supervised(self, backend, shard_index, shard, fleet,
                             merged):
        """Dispatch with recovery; ``None`` means quarantined + ran inline."""
        while True:
            try:
                return self._dispatch(shard_index, shard, fleet)
            except _WorkerFailure as failure:
                if not self._recover(
                    backend, shard_index, shard, fleet, merged, failure
                ):
                    return None

    # ------------------------------------------------------------------
    # Collect
    # ------------------------------------------------------------------
    def _await_reply(self, handle, shard_index, dispatched_at,
                     deadline_s) -> bytes:
        remaining = (dispatched_at + deadline_s) - time.monotonic()
        try:
            # A single poll: returns early on data *or* pipe EOF.  At an
            # already-expired deadline this still polls once with zero
            # timeout, so a reply that landed just in time is folded
            # rather than discarded.
            if not handle.conn.poll(max(0.0, remaining)):
                raise _WorkerFailure(
                    "hung",
                    f"no reply from worker {shard_index} within its "
                    f"{deadline_s:.1f}s deadline",
                )
            return handle.conn.recv_bytes()
        except EOFError:
            raise _WorkerFailure(
                "died", f"exit code {handle.proc.exitcode}"
            ) from None
        except OSError as exc:
            raise _WorkerFailure("died", str(exc)) from None

    def _collect_supervised(self, backend, shard_index, shard, fleet,
                            merged, dispatched_at, deadline_s):
        state: Optional[tuple[float, float]] = (dispatched_at, deadline_s)
        while True:
            if state is None:
                state = self._dispatch_supervised(
                    backend, shard_index, shard, fleet, merged
                )
                if state is None:
                    return  # quarantined; ran inline
            handle = self._handles[shard_index]
            try:
                blob = self._await_reply(
                    handle, shard_index, state[0], state[1]
                )
            except _WorkerFailure as failure:
                if not self._recover(
                    backend, shard_index, shard, fleet, merged, failure
                ):
                    return
                state = None
                continue
            break
        self._fold(handle, fleet, merged, blob)

    def _fold(self, handle, fleet, merged, blob):
        """Fold one worker reply into coordinator state (exactly once)."""
        self._recv_bytes += len(blob)
        t1 = time.perf_counter()
        result = pickle.loads(blob)
        error = result.get("error")
        if error is not None:
            raise error
        self._pages.update(result["pages"])
        for index, report_blob, archives in result["results"]:
            merged[index] = (report_blob, archives)
        # Fold the shard's post-batch session state back in, so the
        # coordinator's world is as-if it had run the shard itself.
        for domain, state_blob in result["session"].items():
            _install_domain_blob(
                fleet, self._world.servers, domain, state_blob
            )
            handle.session[domain] = state_blob
        handle.worlds_built = result["worlds_built"]
        self._fold_ms += (time.perf_counter() - t1) * 1000.0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, backend, shard_index, shard, fleet, merged,
                 failure: _WorkerFailure) -> bool:
        """Handle one worker failure.

        Returns ``True`` after a successful respawn (the caller re-
        dispatches to the fresh worker) or ``False`` after a quarantine
        (the shard already ran inline; nothing left to do).  Nothing of
        the failed attempt was folded -- the dead worker's partial
        results and session state died with it -- so the re-run starts
        from exactly the coordinator's pre-batch state.
        """
        t0 = time.perf_counter()
        self._failures[shard_index] = self._failures.get(shard_index, 0) + 1
        count = self._failures[shard_index]
        if failure.kind == "hung":
            self._hang_kills += 1
        logger.warning(
            "worker %d %s (failure %d, budget %d): %s",
            shard_index, failure.kind, count, self.max_restarts,
            failure.detail,
        )
        self._retire(self._handles[shard_index])
        if count > self.max_restarts:
            self._quarantined.add(shard_index)
            logger.warning(
                "quarantining shard %d after %d worker failures; running "
                "its %d checks inline on the coordinator for the rest of "
                "this run", shard_index, count, len(shard),
            )
            self._run_inline(backend, shard, fleet, merged)
            self._recovery_ms += (time.perf_counter() - t0) * 1000.0
            return False
        if self.restart_backoff_s > 0:
            time.sleep(
                min(2.0, self.restart_backoff_s * (2 ** (count - 1)))
            )
        # The crash window the chaos harness aims a coordinator SIGKILL
        # at: the worker is gone, its replacement not yet up.
        barrier(WORKER_RESPAWN)
        self._handles[shard_index] = self._spawn_worker(shard_index)
        self._restarts += 1
        self._recovery_ms += (time.perf_counter() - t0) * 1000.0
        return True

    def _run_inline(self, backend, shard, fleet, merged) -> None:
        """Run a quarantined shard on the coordinator, buffering each
        check's archives for the plan-order merge as a worker would."""
        for sched in shard:
            archives: list[tuple] = []

            def archive(*, vantage, timestamp, html, **_):
                digest = _page_hash(html)
                self._pages.setdefault(digest, html)
                archives.append((vantage, timestamp, digest))

            report = backend.run_scheduled_check(sched, fleet, archive)
            merged[sched.index] = (pickle.dumps(report, _PROTOCOL), archives)
        self._inline_checks += len(shard)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def boundary_stats(self) -> dict[str, float]:
        """What the process boundary cost so far (coordinator side).

        ``payload_ms`` is time spent building + serializing + sending
        payloads; ``fold_ms`` is time spent deserializing and folding
        results (session state, archive reconstruction);
        ``ship_bytes``/``recv_bytes`` are the raw pickle traffic.
        Divide by ``batches`` for per-day overhead.
        """
        return {
            "batches": self._batches,
            "payload_ms": round(self._payload_ms, 3),
            "fold_ms": round(self._fold_ms, 3),
            "ship_bytes": self._ship_bytes,
            "recv_bytes": self._recv_bytes,
        }

    def supervision_stats(self) -> dict:
        """Fleet health so far, in the shape job status and ``done.json``
        carry as ``fleet_health`` (:data:`QUIET_FLEET` when quiet).

        ``restarts`` counts successful respawns (``hang_kills`` of them
        were deadline kills rather than spontaneous deaths),
        ``quarantined_shards`` counts shards past their restart budget
        (the ``repro.exec`` log names each), ``inline_checks`` counts
        checks the coordinator ran for them, and ``recovery_ms`` is wall
        clock spent inside recovery (retire + backoff + respawn + inline
        re-runs).  The counters are plain reads, so another thread may
        take them while a batch runs.
        """
        return {
            "restarts": self._restarts,
            "hang_kills": self._hang_kills,
            "quarantined_shards": len(self._quarantined),
            "inline_checks": self._inline_checks,
            "recovery_ms": round(self._recovery_ms, 3),
        }

    def worker_worlds_built(self) -> list[int]:
        """Per-worker cumulative world regrows (as of each last batch)."""
        return [handle.worlds_built for handle in self._handles]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the dedicated workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        sentinel = pickle.dumps(None, protocol=_PROTOCOL)
        for handle in self._handles:
            if handle.conn.closed:
                continue
            try:
                handle.conn.send_bytes(sentinel)
            except (BrokenPipeError, OSError):
                pass
        for handle in self._handles:
            if handle.proc.pid is not None:
                handle.proc.join(timeout=10)
            if handle.proc.is_alive():  # pragma: no cover - defensive
                handle.proc.terminate()
                handle.proc.join(timeout=10)
            if not handle.conn.closed:
                handle.conn.close()
        if self._restarts or self._hang_kills or self._quarantined:
            logger.warning(
                "worker fleet health: %d restart(s) (%d after hang "
                "kills), %d quarantined shard(s), %d check(s) run inline, "
                "%.0f ms in recovery",
                self._restarts, self._hang_kills, len(self._quarantined),
                self._inline_checks, self._recovery_ms,
            )

    def __enter__(self) -> "ProcessExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: release the workers."""
        self.close()

    def __repr__(self) -> str:
        return f"ProcessExecutor(workers={self.plan.workers})"
