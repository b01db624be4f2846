"""Seeded property-style fuzzing of checkpoint-directory corruption.

Plain stdlib ``random`` with fixed seeds, mirroring
``tests/test_world_fuzz.py`` -- no new dependencies, fully reproducible.

The one property that matters: **a corrupted checkpoint never resumes
silently wrong**.  Whatever a fuzzer does to the directory -- truncate,
bit-flip, delete, doctor manifest fields -- resuming either

* raises a *named* :class:`~repro.checkpoint.CheckpointError` subclass
  (digest mismatch, missing file, manifest corruption, fingerprint
  mismatch), or
* completes with output byte-identical to the uninterrupted run (the
  corruption only destroyed work the run can redo deterministically --
  e.g. a torn manifest tail drops a committed segment, which re-runs).

An exception escaping that is *not* a CheckpointError, or a clean run
with different bytes, fails the property.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointError
from repro.core.backend import SheriffBackend
from repro.crowd.campaign import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, build_world
from repro.io import save_crowd_dataset

N_CORRUPTIONS = 24

WORLD_CONFIG = WorldConfig(catalog_scale=0.15, long_tail_domains=6)
CAMPAIGN_CONFIG = CampaignConfig(
    n_checks=40, population_size=20, seed=11, start_day=0, end_day=4
)


def fresh_pair():
    world = build_world(WORLD_CONFIG)
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    return world, backend


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> tuple[Path, bytes]:
    """A fully committed checkpoint directory + the run's output bytes."""
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    world, backend = fresh_pair()
    dataset = run_campaign(
        world, backend, CAMPAIGN_CONFIG, checkpoint_dir=root / "ckpt"
    )
    out = root / "reference.jsonl"
    save_crowd_dataset(dataset, out)
    return root / "ckpt", out.read_bytes()


def _flip_bit(path: Path, rng: random.Random) -> str:
    data = bytearray(path.read_bytes())
    if not data:
        return f"flip: {path.name} empty, skipped"
    i = rng.randrange(len(data))
    data[i] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    return f"flip byte {i} of {path.name}"


def _truncate(path: Path, rng: random.Random) -> str:
    data = path.read_bytes()
    keep = rng.randrange(len(data)) if data else 0
    path.write_bytes(data[:keep])
    return f"truncate {path.name} to {keep}B"


def _delete(path: Path, rng: random.Random) -> str:
    path.unlink()
    return f"delete {path.name}"


def _doctor_manifest(path: Path, rng: random.Random) -> str:
    """Rewrite one manifest line with a random structural mutation."""
    lines = path.read_text(encoding="utf-8").splitlines()
    i = rng.randrange(len(lines))
    obj = json.loads(lines[i])
    field = rng.choice(sorted(obj))
    action = rng.choice(("retype", "rewrite", "drop"))
    if action == "retype":
        obj[field] = [obj[field]]
    elif action == "rewrite":
        value = obj[field]
        if isinstance(value, int):
            obj[field] = value + rng.randrange(1, 1000)
        elif isinstance(value, str):
            obj[field] = "".join(
                rng.choice("0123456789abcdef") for _ in range(len(value) or 8)
            )
        else:
            obj[field] = {"doctored": True}
    else:
        del obj[field]
    lines[i] = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"manifest line {i}: {action} {field!r}"


def _corrupt(directory: Path, rng: random.Random) -> str:
    """One random corruption; returns a description for failure output."""
    files = sorted(p for p in directory.iterdir() if p.is_file())
    manifest = directory / "manifest.jsonl"
    roll = rng.random()
    if roll < 0.25:
        return _doctor_manifest(manifest, rng)
    target = rng.choice(files)
    op = rng.choice((_flip_bit, _truncate, _delete))
    return op(target, rng)


class TestCorruptCheckpointFuzz:
    def test_corrupted_checkpoints_never_resume_silently_wrong(
        self, reference, tmp_path: Path
    ):
        ckpt_dir, expected = reference
        rng = random.Random(0xC4A5)
        outcomes = {"error": 0, "redone": 0}
        for case in range(N_CORRUPTIONS):
            work = tmp_path / f"case{case}"
            shutil.copytree(ckpt_dir, work)
            what = _corrupt(work, rng)
            world, backend = fresh_pair()
            try:
                resumed = run_campaign(
                    world, backend, CAMPAIGN_CONFIG,
                    checkpoint_dir=work, resume=True,
                )
            except CheckpointError as exc:
                assert str(exc), f"{what}: empty error message"
                outcomes["error"] += 1
                continue
            out = work / "resumed.jsonl"
            save_crowd_dataset(resumed, out)
            assert out.read_bytes() == expected, (
                f"case {case} ({what}): resumed to DIFFERENT bytes -- "
                f"silent wrong resume"
            )
            outcomes["redone"] += 1
        # The fuzzer must actually exercise both fates.
        assert outcomes["error"] > 0
        assert outcomes["redone"] > 0

    def test_every_named_error_is_a_checkpoint_error(self):
        from repro import checkpoint

        for name in (
            "ManifestError", "CheckpointMismatchError",
            "SegmentMissingError", "SegmentDigestError",
        ):
            assert issubclass(getattr(checkpoint, name), CheckpointError)
