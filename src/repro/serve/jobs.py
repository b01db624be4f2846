"""Campaign jobs: durable specs, sequential ids, restart-safe registry.

A job is one crowd campaign run on behalf of a service client.  Its
*spec* (scale + seed + optional campaign overrides) is everything needed
to re-run it deterministically, so the registry persists exactly that --
``<root>/<job-id>/job.json`` -- next to the job's checkpoint directory
and its final ``results.jsonl``.  A terminal marker (``done.json``)
records the outcome; a job directory *without* the marker is by
definition incomplete, and a restarted service resumes it from its
checkpoint (:class:`~repro.serve.service.SheriffService` does, via
``run_campaign(..., resume=True)``).

Job ids are sequential (``job-000001``): deterministic across restarts,
sortable, and guessable by the crash-injection harness without parsing
responses.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.checkpoint.manifest import Manifest, promote_tmp
from repro.crowd import CampaignConfig
from repro.ecommerce.world import WorldConfig
from repro.experiments.context import SCALES

__all__ = ["Job", "JobRegistry", "JobSpec"]

_ID = re.compile(r"^job-(\d{6})$")

#: Spec keys clients may override; everything else in CampaignConfig
#: (noise probabilities etc.) stays at the scale's defaults so a job is
#: fully described by a handful of integers.
_OVERRIDES = ("n_checks", "population_size", "start_day", "end_day")


@dataclass(frozen=True)
class JobSpec:
    """The deterministic description of one campaign job."""

    scale: str = "tiny"
    seed: int = 2013
    n_checks: Optional[int] = None
    population_size: Optional[int] = None
    start_day: Optional[int] = None
    end_day: Optional[int] = None

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Validate a client payload into a spec (``ValueError`` on junk).

        The campaign config the spec describes is built here too, so a
        spec that names an impossible campaign is refused before anything
        is persisted.
        """
        if not isinstance(payload, dict):
            raise ValueError("campaign spec must be a JSON object")
        allowed = {"scale", "seed", *_OVERRIDES}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(
                f"unknown campaign spec field(s) {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        scale = payload.get("scale", "tiny")
        if scale not in SCALES:
            raise ValueError(
                f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
            )
        values = {"scale": scale}
        for field in ("seed", *_OVERRIDES):
            if field in payload:
                value = payload[field]
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{field} must be an integer")
                values[field] = value
        spec = cls(**values)
        spec.campaign_config()
        return spec

    def to_dict(self) -> dict:
        """JSON form; omits unset overrides so job.json stays minimal."""
        data = {"scale": self.scale, "seed": self.seed}
        for field in _OVERRIDES:
            value = getattr(self, field)
            if value is not None:
                data[field] = value
        return data

    def world_config(self) -> WorldConfig:
        """The scale's world config at this spec's seed."""
        return SCALES[self.scale].world_config(self.seed)

    def campaign_config(self) -> CampaignConfig:
        """The scale's campaign defaults with this spec's overrides."""
        config = SCALES[self.scale].campaign_config(self.seed)
        overrides = {
            field: getattr(self, field)
            for field in _OVERRIDES
            if getattr(self, field) is not None
        }
        return dataclasses.replace(config, **overrides) if overrides else config


class Job:
    """One campaign job: durable paths plus in-process runtime state."""

    def __init__(self, job_id: str, spec: JobSpec, directory: Path) -> None:
        self.id = job_id
        self.spec = spec
        self.dir = directory
        #: pending -> running -> done | failed (terminal states persisted
        #: in done.json; anything else resumes on restart).
        self.status = "pending"
        self.error: Optional[str] = None
        #: The done.json payload once terminal (survives restarts).
        self.outcome: Optional[dict] = None

    # -- durable layout -------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.dir / "job.json"

    @property
    def checkpoint_dir(self) -> Path:
        return self.dir / "checkpoint"

    @property
    def results_path(self) -> Path:
        return self.dir / "results.jsonl"

    @property
    def done_path(self) -> Path:
        return self.dir / "done.json"

    # -- progress -------------------------------------------------------
    def checks_total(self) -> int:
        """How many checks the campaign will run in total."""
        return self.spec.campaign_config().n_checks

    def checks_done(self) -> int:
        """Durably committed checks: the sum of manifest segment rows.

        Day-granular by design -- progress only advances when a day's
        segment is fsynced, so the number never runs ahead of what a
        kill would preserve.  Re-read per request; the manifest is a few
        hundred bytes per committed day.

        Strictly read-only: request threads poll this while the job
        thread appends, so it must never use ``Manifest.load(repair=)``
        -- repair *truncates* a torn tail in place, and a poll landing
        mid-append would cut a committed line out of the file the
        writer owns.  It just sums the intact record lines and ignores
        an in-flight tail.
        """
        path = self.checkpoint_dir / Manifest.FILENAME
        try:
            raw = path.read_bytes()
        except OSError:
            return 0
        done = 0
        for line in raw.split(b"\n")[:-1]:  # fragment after last \n drops
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn mid-append; later lines can't be older
            rows = record.get("rows", 0) if isinstance(record, dict) else 0
            if isinstance(rows, int) and not isinstance(rows, bool):
                done += rows
        return done

    # -- persistence ----------------------------------------------------
    def persist_spec(self) -> None:
        """Durably write job.json (tmp, fsync, rename, fsync the dir)."""
        _write_atomic(self.spec_path, self.spec.to_dict())

    def persist_outcome(self, outcome: dict) -> None:
        """Durably write the done.json terminal marker, the same way."""
        self.outcome = outcome
        _write_atomic(self.done_path, outcome)

    def __repr__(self) -> str:
        return f"Job({self.id}, {self.status})"


def _write_atomic(path: Path, payload: dict) -> None:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    promote_tmp(tmp, path)


class JobRegistry:
    """Sequential-id job store rooted at one directory.

    Creation is lock-guarded (request handler threads race); reads are
    plain dict lookups.  :meth:`scan` rebuilds the in-memory table from
    disk at service startup -- terminal jobs reload their done.json,
    everything else comes back as ``pending`` for the service to resume.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}

    def create(self, spec: JobSpec) -> Job:
        """Allocate the next sequential id, persist the spec, register."""
        with self._lock:
            number = 1 + max(
                (int(match.group(1)) for match in
                 (_ID.match(name) for name in self._jobs)
                 if match),
                default=0,
            )
            job_id = f"job-{number:06d}"
            job = Job(job_id, spec, self.root / job_id)
            job.dir.mkdir(parents=True, exist_ok=True)
            job.persist_spec()
            self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or None."""
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, id-sorted (= submission order)."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def scan(self) -> list[Job]:
        """Load every job directory under the root; return the jobs."""
        with self._lock:
            for entry in sorted(self.root.iterdir()) if self.root.exists() else []:
                if not _ID.match(entry.name) or entry.name in self._jobs:
                    continue
                try:
                    payload = json.loads(
                        (entry / "job.json").read_text(encoding="utf-8")
                    )
                    spec = JobSpec.from_dict(payload)
                except (OSError, ValueError):
                    continue  # torn create; nothing committed, nothing lost
                job = Job(entry.name, spec, entry)
                if job.done_path.exists():
                    try:
                        job.outcome = json.loads(
                            job.done_path.read_text(encoding="utf-8")
                        )
                        job.status = job.outcome.get("status", "done")
                        job.error = job.outcome.get("error")
                    except (OSError, ValueError):
                        job.status = "pending"  # torn marker: re-resume
                self._jobs[entry.name] = job
        return self.jobs()
