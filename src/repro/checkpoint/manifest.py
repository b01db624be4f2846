"""The checkpoint manifest: a fsync'd append-only commit log.

A checkpoint directory holds one ``manifest.jsonl`` whose first line is a
header (format, version, run kind, run fingerprint) and whose every
further line commits one day-segment: the segment file's name and SHA-256
digest, the row count, and the name and digest of the state file holding
what the segment changed of the run state.
A segment *exists* exactly when its manifest line is durable -- the
commit order (segment file, then state file, then manifest record, each
fsync'd) makes the manifest line the atomic commit point.

Crash recovery is asymmetric by design:

* a **torn tail** -- the last line has no newline or is not valid JSON --
  is the expected artifact of dying mid-append.  :meth:`Manifest.load`
  with ``repair=True`` truncates the file back to the last good line
  (fsync'd) and the run re-executes that segment deterministically;
* **anything else** -- invalid JSON mid-file, a record missing fields, a
  wrong type -- is corruption, not a crash, and raises
  :class:`ManifestError`.  Silently resuming a doctored checkpoint is the
  one failure mode this module must never have.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.checkpoint.barriers import (
    MANIFEST_MID_WRITE,
    SEGMENT_FLUSH,
    barrier,
)

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "Manifest",
    "ManifestError",
    "SegmentDigestError",
    "SegmentMissingError",
    "atomic_write_bytes",
    "file_sha256",
]

FORMAT_NAME = "repro-checkpoint"
#: Version 2: each state file holds only what its segment changed, so a
#: resume folds them all.  A version-1 directory kept only its newest
#: state file and cannot be read this way; it is refused.
FORMAT_VERSION = 2

#: Fields every committed segment record must carry, with their types.
_RECORD_FIELDS = {
    "seq": int,
    "day": int,
    "file": str,
    "sha256": str,
    "rows": int,
    "state_file": str,
    "state_sha256": str,
}


class CheckpointError(RuntimeError):
    """Base class for every checkpoint failure."""


class ManifestError(CheckpointError):
    """The manifest file is corrupt or structurally invalid."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different run configuration."""


class SegmentMissingError(CheckpointError):
    """A manifest-committed segment or state file is gone."""


class SegmentDigestError(CheckpointError):
    """A committed file's content does not match its recorded digest."""


# ----------------------------------------------------------------------
# Durable-write plumbing
# ----------------------------------------------------------------------
def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_file(path: Path) -> None:
    """fsync an already-written file by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` durably: tmp file, fsync, rename, fsync dir.

    A crash at any instant leaves either the old file (or nothing) or the
    complete new file -- never a torn one.  The ``segment-flush`` barrier
    fires between writing the tmp file and making it durable, which is
    exactly the window a mid-flush kill must land in.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(data)
        fh.flush()
        barrier(SEGMENT_FLUSH)
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def promote_tmp(tmp: Path, path: Path) -> None:
    """Durably promote an already-written tmp file to its final name."""
    fsync_file(tmp)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def file_sha256(path: Union[str, Path]) -> str:
    """Hex SHA-256 of a file's content."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _normalize(obj: dict) -> dict:
    """JSON round-trip so in-memory and loaded fingerprints compare equal
    (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(obj, sort_keys=True))


class Manifest:
    """The parsed commit log of one checkpoint directory."""

    FILENAME = "manifest.jsonl"

    def __init__(
        self, path: Path, header: dict, records: list[dict]
    ) -> None:
        self.path = path
        self.header = header
        self.records = records

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.header["kind"]

    @property
    def fingerprint(self) -> dict:
        return self.header["fingerprint"]

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: Path, *, kind: str, fingerprint: dict) -> "Manifest":
        """Start a fresh manifest holding only the header line."""
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "kind": kind,
            "fingerprint": _normalize(fingerprint),
        }
        line = json.dumps(header, separators=(",", ":"), sort_keys=True)
        atomic_write_bytes(path, (line + "\n").encode("utf-8"))
        return cls(path, header, [])

    @classmethod
    def load(cls, path: Path, *, repair: bool = False) -> "Manifest":
        """Parse a manifest, optionally repairing a torn tail.

        ``repair=True`` (the resume path) truncates a torn or
        JSON-invalid *last* line back to the preceding good line and
        fsyncs -- the lost segment record's files are simply rewritten
        when the run re-executes that segment.  ``repair=False`` raises
        :class:`ManifestError` on any damage.
        """
        try:
            raw = path.read_bytes()
        except FileNotFoundError as exc:
            raise ManifestError(f"{path}: no manifest") from exc
        if not raw:
            raise ManifestError(f"{path}: manifest is empty")

        lines = raw.split(b"\n")
        torn_tail = lines[-1] != b""  # no trailing newline -> torn append
        complete = lines[:-1]  # the fragment (or the final b"") drops off
        good_bytes = 0
        parsed: list[dict] = []
        bad_index: Optional[int] = None
        for i, line in enumerate(complete):
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not an object")
            except ValueError:
                bad_index = i
                break
            parsed.append(obj)
            good_bytes += len(line) + 1
        if bad_index is not None and bad_index != len(complete) - 1:
            raise ManifestError(
                f"{path}: line {bad_index + 1} is not valid JSON "
                f"(mid-file corruption)"
            )
        tail_damage = torn_tail or bad_index is not None
        if tail_damage and not repair:
            raise ManifestError(f"{path}: torn or invalid final line")

        if not parsed:
            raise ManifestError(f"{path}: no intact header line")
        header = parsed[0]
        if header.get("format") != FORMAT_NAME:
            raise ManifestError(f"{path}: not a {FORMAT_NAME} manifest")
        if header.get("version") != FORMAT_VERSION:
            raise ManifestError(
                f"{path}: unsupported version {header.get('version')!r}"
            )
        if not isinstance(header.get("kind"), str) or not isinstance(
            header.get("fingerprint"), dict
        ):
            raise ManifestError(f"{path}: header missing kind/fingerprint")

        records = []
        for n, record in enumerate(parsed[1:]):
            for name, typ in _RECORD_FIELDS.items():
                value = record.get(name)
                if not isinstance(value, typ) or (
                    typ is int and isinstance(value, bool)
                ):
                    raise ManifestError(
                        f"{path}: segment record {n} field {name!r} is "
                        f"{value!r}, expected {typ.__name__}"
                    )
            if record["seq"] != n:
                raise ManifestError(
                    f"{path}: segment record {n} carries seq "
                    f"{record['seq']} (must be contiguous from 0)"
                )
            records.append(record)

        if tail_damage:
            with path.open("r+b") as fh:
                fh.truncate(good_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, header, records)

    # ------------------------------------------------------------------
    def check_run(self, *, kind: str, fingerprint: dict) -> None:
        """Refuse to resume a checkpoint of a different run."""
        if self.kind != kind:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint kind {self.kind!r} != {kind!r}"
            )
        if self.fingerprint != _normalize(fingerprint):
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint fingerprint does not match this "
                f"run's world/config (checkpointed a different experiment?)"
            )

    def append_segment(self, record: dict) -> None:
        """Durably append one segment record -- the commit point.

        The line is written in two flushed halves with the
        ``manifest-mid-write`` barrier between them, so a kill at the
        barrier leaves a genuinely torn line on disk (the artifact the
        repair path and the crash tests exercise).
        """
        record = dict(record, seq=len(self.records))
        line = (
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        ).encode("utf-8")
        split = len(line) // 2
        with self.path.open("ab") as fh:
            fh.write(line[:split])
            fh.flush()
            os.fsync(fh.fileno())
            barrier(MANIFEST_MID_WRITE)
            fh.write(line[split:])
            fh.flush()
            os.fsync(fh.fileno())
        self.records.append(record)
