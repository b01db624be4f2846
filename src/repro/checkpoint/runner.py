"""RunCheckpoint: day-segment spill, verify, and resume for one run.

One :class:`RunCheckpoint` owns one checkpoint directory::

    manifest.jsonl      the fsync'd commit log (header + one line/segment)
    seg-00000.jsonl     day-segment 0, columnar dataset layout (repro.io)
    state-00000.json    run state captured *after* segment 0
    ...

Commit protocol, per completed day-segment (each step durable before the
next starts):

1. the segment's dataset is written to ``seg-K.jsonl.tmp``, fsync'd, and
   renamed into place;
2. the post-segment run state (:mod:`repro.checkpoint.state`) is written
   the same way;
3. one manifest line recording both files' SHA-256 digests is appended
   and fsync'd -- the atomic commit point.

A kill before step 3 leaves orphan files the next resume overwrites; a
kill *during* step 3 leaves a torn manifest line the loader truncates;
after step 3 the segment is permanent.  Superseded state files (only the
latest is ever needed) are pruned after each commit.

Resume verifies the manifest fingerprint against the new run's world and
config (:meth:`RunCheckpoint.open`), then :meth:`RunCheckpoint.resume_into`
checks the committed days against the run's day schedule, replays
committed segments into the live dataset one at a time through
``append_segment`` (peak memory: spine + one segment), and hands the last
state snapshot to :func:`repro.checkpoint.state.restore_run_state`.
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
from repro.checkpoint.state import decode_state, encode_state, restore_run_state

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
    ``asdict`` forms compare structurally.  Executor and memo settings
    are deliberately *excluded* -- both are byte-neutral (the
    determinism contract), so a run may resume under a different worker
    count or memo toggle.
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

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        kind: str,
        fingerprint: dict,
        resume: bool = False,
    ) -> "RunCheckpoint":
        """Open (resuming) or start (fresh) a checkpoint directory.

        ``resume=True`` with no manifest present starts fresh -- callers
        need not distinguish first runs from restarts.  ``resume=False``
        with a manifest present refuses loudly: overwriting a checkpoint
        silently would destroy exactly the data checkpointing protects.
        """
        if kind not in _KINDS:
            raise CheckpointError(f"unknown checkpoint kind {kind!r}")
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
        barrier(SEGMENT_COMMITTED)
        self._prune_stale_state()
        return record

    def _prune_stale_state(self) -> None:
        """Drop state files superseded by a newer commit (only the last
        segment's snapshot is ever read again)."""
        for record in self.manifest.records[:-1]:
            stale = self.directory / record["state_file"]
            try:
                stale.unlink()
            except FileNotFoundError:
                pass

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

    def load_last_state(self) -> Optional[dict]:
        """The run state captured after the last committed segment."""
        if not self.manifest.records:
            return None
        record = self.manifest.records[-1]
        path = self._verified_path(
            record["state_file"], record["state_sha256"]
        )
        return decode_state(json.loads(path.read_text(encoding="utf-8")))

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
        ``dataset`` (:meth:`fold_into`) and the last snapshot restored
        into the freshly built ``world`` and ``backend``
        (``state_kwargs`` go to :func:`restore_run_state`).  Returns how
        many leading days are done.
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
        state = self.load_last_state()
        if state is not None:
            restore_run_state(state, world, backend, **state_kwargs)
        return len(committed)
