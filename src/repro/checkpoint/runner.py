"""RunCheckpoint: day-segment spill, verify, and resume for one run.

One :class:`RunCheckpoint` owns one checkpoint directory::

    manifest.jsonl      the fsync'd commit log (header + one line/segment)
    seg-00000.jsonl     day-segment 0, columnar dataset layout (repro.io)
    state-00000.json    what segment 0 changed of the run state
    ...

Commit protocol, per completed day-segment (each step durable before the
next starts):

1. the segment's dataset is written to ``seg-K.jsonl.tmp``, fsync'd, and
   renamed into place;
2. what the segment changed of the run state
   (:mod:`repro.checkpoint.state`; the first state file is a full
   snapshot) is written the same way;
3. one manifest line recording both files' SHA-256 digests is appended
   and fsync'd -- the atomic commit point.

A kill before step 3 leaves orphan files the next resume overwrites; a
kill *during* step 3 leaves a torn manifest line the loader truncates;
after step 3 the segment is permanent.  Every committed state file is
kept: each holds only its own day's changes, so a day's commit costs
what the day changed, not what the run holds.

:meth:`RunCheckpoint.open` refuses a backend that holds a burst memo (no
memo state is checkpointed) before it touches the directory, and on a
resume verifies the manifest fingerprint against the new run's world and
config.  :meth:`RunCheckpoint.resume_into` then checks the committed
days against the run's day schedule, replays committed segments into
the live dataset one at a time through ``append_segment`` (peak memory:
spine + one segment), folds every committed state file in order
(:meth:`RunCheckpoint.load_state`) and hands the result to
:func:`repro.checkpoint.state.restore_run_state`.
Any missing or digest-mismatched file fails loudly with a named
:class:`~repro.checkpoint.manifest.CheckpointError` subclass.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.checkpoint.barriers import (
    SEGMENT_COMMITTED,
    SEGMENT_FLUSH,
    barrier,
)
from repro.checkpoint.manifest import (
    CheckpointError,
    CheckpointMismatchError,
    Manifest,
    SegmentDigestError,
    SegmentMissingError,
    atomic_write_bytes,
    file_sha256,
    promote_tmp,
)
from repro.checkpoint.state import (
    decode_state,
    encode_state,
    fold_run_state,
    restore_run_state,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import SheriffBackend
    from repro.crawler.records import CrawlDataset
    from repro.crowd.dataset import CrowdDataset
    from repro.ecommerce.world import World

__all__ = ["RunCheckpoint", "run_fingerprint"]

#: Run kinds a checkpoint directory can hold, and the repro.io dataset
#: kind each one's segments are saved as.
_KINDS = {"campaign": "crowd", "crawl": "crawl"}


def run_fingerprint(kind: str, world_config, run_config, **extra) -> dict:
    """The identity of a run: what must match for a resume to be valid.

    World and run configs are frozen dataclasses of primitives, so their
    ``asdict`` forms compare structurally.  Executor settings are
    deliberately *excluded* -- they are byte-neutral (the determinism
    contract), so a run may resume under a different worker count.
    """
    fingerprint = {
        "kind": kind,
        "world": dataclasses.asdict(world_config),
        "run": dataclasses.asdict(run_config),
    }
    fingerprint.update(extra)
    return fingerprint


class RunCheckpoint:
    """Checkpoint directory handle for one campaign or crawl run."""

    def __init__(self, directory: Path, manifest: Manifest) -> None:
        if manifest.kind not in _KINDS:
            raise CheckpointError(
                f"unknown checkpoint kind {manifest.kind!r} "
                f"(expected one of {sorted(_KINDS)})"
            )
        self.directory = directory
        self.manifest = manifest
        #: Each server's session state as of the last commit, the
        #: baseline :func:`~repro.checkpoint.state.capture_run_state`
        #: diffs against; ``None`` until a commit is made or folded.
        self.committed_servers: Optional[dict[str, dict]] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        kind: str,
        fingerprint: dict,
        backend: "SheriffBackend",
        resume: bool = False,
    ) -> "RunCheckpoint":
        """Open (resuming) or start (fresh) a checkpoint directory.

        ``resume=True`` with no manifest present starts fresh -- callers
        need not distinguish first runs from restarts.  ``resume=False``
        with a manifest present refuses loudly: overwriting a checkpoint
        silently would destroy exactly the data checkpointing protects.

        Checkpointed runs carry no burst memo: a ``backend`` that holds
        one raises :class:`~repro.exec.ExecError` before the directory
        is created or read, as :class:`~repro.exec.ProcessExecutor`
        does before any dispatch.
        """
        if kind not in _KINDS:
            raise CheckpointError(f"unknown checkpoint kind {kind!r}")
        if backend.burst_cache is not None:
            from repro.exec import ExecError

            raise ExecError(
                f"a checkpointed {kind} cannot carry a burst memo "
                f"across a kill; build the backend without burst_cache"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / Manifest.FILENAME
        if path.exists():
            if not resume:
                raise CheckpointError(
                    f"{directory} already holds a checkpoint; pass "
                    f"resume=True to continue it (or point at a fresh "
                    f"directory)"
                )
            manifest = Manifest.load(path, repair=True)
            manifest.check_run(kind=kind, fingerprint=fingerprint)
        else:
            manifest = Manifest.create(
                path, kind=kind, fingerprint=fingerprint
            )
        return cls(directory, manifest)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.manifest.kind

    @property
    def committed(self) -> list[dict]:
        """The committed segment records, in seq order."""
        return list(self.manifest.records)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def commit_segment(self, *, day: int, dataset, state: dict) -> dict:
        """Durably commit one completed day-segment (see module doc)."""
        from repro.io import save_crawl_dataset, save_crowd_dataset

        seq = len(self.manifest.records)
        seg_name = f"seg-{seq:05d}.jsonl"
        seg_path = self.directory / seg_name
        tmp = seg_path.with_name(seg_name + ".tmp")
        if self.kind == "campaign":
            save_crowd_dataset(dataset, tmp)
        else:
            save_crawl_dataset(dataset, tmp)
        barrier(SEGMENT_FLUSH)
        promote_tmp(tmp, seg_path)

        state_name = f"state-{seq:05d}.json"
        state_path = self.directory / state_name
        blob = json.dumps(
            encode_state(state), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        atomic_write_bytes(state_path, blob)

        record = {
            "seq": seq,
            "day": int(day),
            "file": seg_name,
            "sha256": file_sha256(seg_path),
            "rows": len(dataset),
            "state_file": state_name,
            "state_sha256": file_sha256(state_path),
        }
        self.manifest.append_segment(record)
        if self.committed_servers is None:
            self.committed_servers = {}
        self.committed_servers.update(state["servers"])
        barrier(SEGMENT_COMMITTED)
        return record

    # ------------------------------------------------------------------
    # Resume path
    # ------------------------------------------------------------------
    def _verified_path(self, filename: str, sha256: str) -> Path:
        path = self.directory / filename
        if not path.exists():
            raise SegmentMissingError(
                f"{path}: manifest-committed file is missing"
            )
        actual = file_sha256(path)
        if actual != sha256:
            raise SegmentDigestError(
                f"{path}: content digest {actual} != committed {sha256}"
            )
        return path

    def load_segment(
        self, record: dict
    ) -> "Union[CrawlDataset, CrowdDataset]":
        """Load one committed segment, verifying its digest first."""
        from repro.io import load_crawl_dataset, load_crowd_dataset

        path = self._verified_path(record["file"], record["sha256"])
        if self.kind == "campaign":
            return load_crowd_dataset(path)
        return load_crawl_dataset(path)

    def fold_into(self, dataset) -> int:
        """Replay every committed segment into ``dataset``, one at a time.

        Segments are loaded, folded through ``append_segment``, and
        released before the next loads -- peak memory stays at (spine +
        one segment) no matter how long the committed prefix is.
        Returns the number of segments folded.
        """
        for record in self.manifest.records:
            segment = self.load_segment(record)
            dataset.append_segment(segment)
        return len(self.manifest.records)

    def load_state(self) -> Optional[dict]:
        """The run state as of the last commit (``None`` before the first).

        Every committed state file is digest-verified and folded in commit
        order (:func:`~repro.checkpoint.state.fold_run_state`): the first
        is a full snapshot, each later one what its day changed.
        """
        state = None
        for record in self.manifest.records:
            path = self._verified_path(
                record["state_file"], record["state_sha256"]
            )
            later = decode_state(json.loads(path.read_bytes()))
            state = later if state is None else fold_run_state(state, later)
        return state

    def resume_into(
        self,
        dataset,
        world: "World",
        backend: "SheriffBackend",
        *,
        days: Sequence[int],
        **state_kwargs,
    ) -> int:
        """Pick a run up where its committed prefix ends.

        ``days`` is the run's whole day-segment schedule.  The committed
        segments must cover exactly its first days, in order; anything
        else is a checkpoint of a different run and raises
        :class:`CheckpointMismatchError`.  The prefix is folded into
        ``dataset`` (:meth:`fold_into`) and the folded state
        (:meth:`load_state`) restored into the freshly built ``world``
        and ``backend`` (``state_kwargs`` go to
        :func:`restore_run_state`).  Returns how many leading days are
        done.
        """
        committed = self.manifest.records
        if len(committed) > len(days):
            raise CheckpointMismatchError(
                f"checkpoint holds {len(committed)} segments, the "
                f"{self.kind} only has {len(days)} days"
            )
        for record, day in zip(committed, days):
            if record["day"] != day:
                raise CheckpointMismatchError(
                    f"checkpoint segment {record['seq']} covers day "
                    f"{record['day']}, the {self.kind} expects day {day}"
                )
        self.fold_into(dataset)
        state = self.load_state()
        if state is not None:
            restore_run_state(state, world, backend, **state_kwargs)
            self.committed_servers = state["servers"]
        return len(committed)
