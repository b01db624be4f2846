"""Kill-safe runs: day-segment spill, fsync'd manifests, exact resume.

Campaigns and crawls passed a ``checkpoint_dir`` spill each completed
day-segment to disk (columnar JSONL, the :mod:`repro.io` layout) behind a
fsync'd manifest, with what the day changed of the run state;
``resume=True`` regrows the world from its
:class:`~repro.ecommerce.world.WorldSpec`, folds the committed state
files and restores every mutable cursor (:mod:`repro.checkpoint.state`),
skips committed segments, and continues to output byte-identical to an
uninterrupted run.  See
``docs/ARCHITECTURE.md`` (checkpoint/manifest contract) and
``docs/TESTING.md`` (the crash-injection harness that proves it).
"""

from repro.checkpoint.barriers import (
    BARRIER_NAMES,
    MANIFEST_MID_WRITE,
    MID_DAY,
    SEGMENT_COMMITTED,
    SEGMENT_FLUSH,
    WORKER_RESPAWN,
    barrier,
    install_barrier_hook,
)
from repro.checkpoint.manifest import (
    CheckpointError,
    CheckpointMismatchError,
    Manifest,
    ManifestError,
    SegmentDigestError,
    SegmentMissingError,
)
from repro.checkpoint.runner import RunCheckpoint, run_fingerprint
from repro.checkpoint.state import (
    capture_run_state,
    decode_state,
    encode_state,
    fold_run_state,
    restore_run_state,
)

__all__ = [
    "BARRIER_NAMES",
    "MANIFEST_MID_WRITE",
    "MID_DAY",
    "SEGMENT_COMMITTED",
    "SEGMENT_FLUSH",
    "WORKER_RESPAWN",
    "CheckpointError",
    "CheckpointMismatchError",
    "Manifest",
    "ManifestError",
    "RunCheckpoint",
    "SegmentDigestError",
    "SegmentMissingError",
    "barrier",
    "capture_run_state",
    "decode_state",
    "encode_state",
    "fold_run_state",
    "install_barrier_hook",
    "restore_run_state",
    "run_fingerprint",
]
