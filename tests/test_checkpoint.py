"""The checkpoint subsystem: manifest protocol, state round-trips, and
in-process interrupt/resume byte identity.

Process-level SIGKILL coverage lives in ``tests/test_crash_resume.py``
(via ``tests/crashkit.py``); this module exercises the same machinery
in-process, where every error path can be driven precisely.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import cli
from repro import io as dataset_io
from repro.checkpoint import (
    BARRIER_NAMES,
    SEGMENT_COMMITTED,
    CheckpointError,
    CheckpointMismatchError,
    Manifest,
    ManifestError,
    RunCheckpoint,
    SegmentDigestError,
    SegmentMissingError,
    barrier,
    capture_run_state,
    decode_state,
    encode_state,
    install_barrier_hook,
    restore_run_state,
    run_fingerprint,
)
from repro.checkpoint.manifest import atomic_write_bytes, file_sha256
from repro.core.backend import SheriffBackend
from repro.crawler.crawl import CrawlConfig, plan_digest, run_crawl
from repro.crawler.plan import build_plan
from repro.crowd.campaign import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, build_world

WORLD_CONFIG = WorldConfig(catalog_scale=0.15, long_tail_domains=8)
CAMPAIGN_CONFIG = CampaignConfig(
    n_checks=60, population_size=30, seed=7, start_day=0, end_day=6
)
CRAWL_CONFIG = CrawlConfig(days=3, start_day=3)


def fresh_pair():
    world = build_world(WORLD_CONFIG)
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    return world, backend


def tiny_plan(world):
    return build_plan(
        world, domains=world.crawled_domains[:3], products_per_retailer=3
    )


def crowd_bytes(dataset, path: Path) -> bytes:
    dataset_io.save_crowd_dataset(dataset, path)
    return path.read_bytes()


def crawl_bytes(dataset, path: Path) -> bytes:
    dataset_io.save_crawl_dataset(dataset, path)
    return path.read_bytes()


class InterruptRun(Exception):
    """Stands in for SIGKILL in in-process tests."""


def interrupt_after_segments(n: int):
    """A barrier hook raising after the nth committed segment."""
    seen = [0]

    def hook(name: str) -> None:
        if name == SEGMENT_COMMITTED:
            seen[0] += 1
            if seen[0] == n:
                raise InterruptRun()

    return hook


@pytest.fixture()
def clean_hook():
    yield
    install_barrier_hook(None)


# ----------------------------------------------------------------------
# Tagged JSON state encoding
# ----------------------------------------------------------------------
class TestStateEncoding:
    def test_round_trips_rng_state(self):
        rng = random.Random(99)
        rng.random()
        state = rng.getstate()
        assert decode_state(json.loads(json.dumps(encode_state(state)))) == state

    def test_round_trips_tuple_keyed_dicts(self):
        value = {("10.0.0.1", 3): 7, ("10.0.0.2", 4): 1}
        assert decode_state(json.loads(json.dumps(encode_state(value)))) == value

    def test_round_trips_fuzzed_nests(self):
        rng = random.Random(0x5EED)

        def grow(depth: int):
            if depth == 0:
                return rng.choice(
                    [None, True, False, rng.randrange(-9, 9),
                     rng.random(), "s", "__t__", "__m__"]
                )
            shape = rng.randrange(4)
            if shape == 0:
                return [grow(depth - 1) for _ in range(rng.randrange(3))]
            if shape == 1:
                return tuple(grow(depth - 1) for _ in range(rng.randrange(3)))
            if shape == 2:
                return {f"k{i}": grow(depth - 1) for i in range(rng.randrange(3))}
            return {
                (i, f"k{i}"): grow(depth - 1) for i in range(rng.randrange(3))
            }

        for _ in range(50):
            value = grow(4)
            again = decode_state(json.loads(json.dumps(encode_state(value))))
            assert again == value
            assert type(again) is type(value)

    def test_tag_colliding_string_keys_survive(self):
        value = {"__t__": [1, 2]}  # a real dict that *looks* like the tag
        assert decode_state(json.loads(json.dumps(encode_state(value)))) == value

    def test_unencodable_values_fail_loudly(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            encode_state({"bad": {1, 2}})


# ----------------------------------------------------------------------
# Manifest protocol
# ----------------------------------------------------------------------
class TestManifest:
    FP = {"kind": "campaign", "world": {"seed": 1}, "run": {"n": 2}}

    def make(self, tmp_path: Path) -> Manifest:
        return Manifest.create(
            tmp_path / "manifest.jsonl", kind="campaign", fingerprint=self.FP
        )

    def record(self, seq: int = 0, **overrides) -> dict:
        rec = {
            "seq": seq, "day": seq, "file": f"seg-{seq:05d}.jsonl",
            "sha256": "0" * 64, "rows": 5,
            "state_file": f"state-{seq:05d}.json", "state_sha256": "1" * 64,
        }
        rec.update(overrides)
        return rec

    def test_create_append_load_round_trip(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        manifest.append_segment(self.record(0))
        manifest.append_segment(self.record(1))
        loaded = Manifest.load(manifest.path)
        assert loaded.kind == "campaign"
        assert loaded.records == manifest.records
        loaded.check_run(kind="campaign", fingerprint=self.FP)

    def test_check_run_rejects_other_kind_and_fingerprint(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        with pytest.raises(CheckpointMismatchError):
            manifest.check_run(kind="crawl", fingerprint=self.FP)
        with pytest.raises(CheckpointMismatchError):
            manifest.check_run(
                kind="campaign", fingerprint={"kind": "campaign", "world": {}}
            )

    def test_torn_tail_without_newline_repairs(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        manifest.append_segment(self.record(0))
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw + b'{"seq":1,"day"')  # torn append
        with pytest.raises(ManifestError):
            Manifest.load(manifest.path)  # repair=False: loud
        repaired = Manifest.load(manifest.path, repair=True)
        assert [r["seq"] for r in repaired.records] == [0]
        assert manifest.path.read_bytes() == raw  # truncated back exactly

    def test_invalid_json_final_line_repairs(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        manifest.append_segment(self.record(0))
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw + b'{"seq":1,"day":!!\n')
        repaired = Manifest.load(manifest.path, repair=True)
        assert len(repaired.records) == 1
        assert manifest.path.read_bytes() == raw

    def test_mid_file_corruption_never_repairs(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        manifest.append_segment(self.record(0))
        manifest.append_segment(self.record(1))
        lines = manifest.path.read_bytes().splitlines(True)
        lines[1] = b"garbage\n"
        manifest.path.write_bytes(b"".join(lines))
        with pytest.raises(ManifestError, match="mid-file"):
            Manifest.load(manifest.path, repair=True)

    def test_missing_and_empty_manifests_are_errors(self, tmp_path: Path):
        with pytest.raises(ManifestError, match="no manifest"):
            Manifest.load(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(ManifestError, match="empty"):
            Manifest.load(empty)

    @pytest.mark.parametrize(
        "header",
        [
            {"format": "other", "version": 1, "kind": "campaign", "fingerprint": {}},
            {"format": "repro-checkpoint", "version": 99, "kind": "campaign",
             "fingerprint": {}},
            {"format": "repro-checkpoint", "version": 1, "fingerprint": {}},
            {"format": "repro-checkpoint", "version": 1, "kind": "campaign"},
        ],
    )
    def test_bad_headers_are_errors(self, tmp_path: Path, header: dict):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ManifestError):
            Manifest.load(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rows": "5"}, {"rows": True}, {"sha256": 7}, {"day": None},
            {"file": 3}, {"state_file": None}, {"state_sha256": 2},
        ],
    )
    def test_bad_record_fields_are_errors(self, tmp_path: Path, overrides):
        manifest = self.make(tmp_path)
        with manifest.path.open("a") as fh:
            fh.write(json.dumps(self.record(0, **overrides)) + "\n")
        with pytest.raises(ManifestError, match="field"):
            Manifest.load(manifest.path)

    def test_non_contiguous_seq_is_an_error(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        with manifest.path.open("a") as fh:
            fh.write(json.dumps(self.record(0)) + "\n")
            fh.write(json.dumps(self.record(5)) + "\n")
        with pytest.raises(ManifestError, match="contiguous"):
            Manifest.load(manifest.path)

    def test_non_object_final_line_repairs_like_torn(self, tmp_path: Path):
        manifest = self.make(tmp_path)
        good = manifest.path.read_bytes()
        manifest.path.write_bytes(good + b"[1,2,3]\n")
        with pytest.raises(ManifestError, match="torn or invalid"):
            Manifest.load(manifest.path)
        repaired = Manifest.load(manifest.path, repair=True)
        assert repaired.kind == manifest.kind
        assert manifest.path.read_bytes() == good

    def test_garbage_only_manifest_is_unrepairable(self, tmp_path: Path):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(b"not json at all")
        with pytest.raises(ManifestError, match="no intact header"):
            Manifest.load(path, repair=True)

    def test_atomic_write_and_digest_helpers(self, tmp_path: Path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"hello")
        atomic_write_bytes(path, b"world")  # overwrite is atomic too
        assert path.read_bytes() == b"world"
        assert not path.with_name("blob.bin.tmp").exists()
        assert file_sha256(path) == (
            "486ea46224d1bb4fb680f34f7c9ad96a8f24ec88be73ea8e5a6c65260e9cb8a7"
        )


# ----------------------------------------------------------------------
# Barriers
# ----------------------------------------------------------------------
class TestBarriers:
    def test_no_hook_is_a_no_op(self):
        for name in BARRIER_NAMES:
            barrier(name)

    def test_install_returns_previous_and_fires(self, clean_hook):
        fired = []
        assert install_barrier_hook(fired.append) is None
        barrier(SEGMENT_COMMITTED)
        previous = install_barrier_hook(None)
        assert previous is not None
        barrier(SEGMENT_COMMITTED)
        assert fired == [SEGMENT_COMMITTED]


# ----------------------------------------------------------------------
# RunCheckpoint
# ----------------------------------------------------------------------
class TestRunCheckpoint:
    def open_fresh(self, tmp_path: Path, **kwargs) -> RunCheckpoint:
        fp = run_fingerprint("campaign", WORLD_CONFIG, CAMPAIGN_CONFIG)
        return RunCheckpoint.open(
            tmp_path / "ckpt", kind="campaign", fingerprint=fp, **kwargs
        )

    def test_unknown_kind_rejected(self, tmp_path: Path):
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            RunCheckpoint.open(tmp_path / "c", kind="nope", fingerprint={})
        # Defense in depth: direct construction around ``open`` hits the
        # same wall (e.g. a hand-loaded manifest of a foreign kind).
        foreign = Manifest.create(
            tmp_path / "manifest.jsonl", kind="audit", fingerprint={}
        )
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            RunCheckpoint(tmp_path, foreign)

    def test_fresh_directory_without_resume_only_once(self, tmp_path: Path):
        checkpoint = self.open_fresh(tmp_path)
        assert checkpoint.committed == []
        assert checkpoint.load_last_state() is None
        with pytest.raises(CheckpointError, match="already holds"):
            self.open_fresh(tmp_path)

    def test_resume_with_no_manifest_starts_fresh(self, tmp_path: Path):
        checkpoint = self.open_fresh(tmp_path, resume=True)
        assert checkpoint.committed == []

    def test_resume_rejects_other_fingerprint(self, tmp_path: Path):
        self.open_fresh(tmp_path)
        other = run_fingerprint(
            "campaign", WORLD_CONFIG, CampaignConfig(n_checks=5)
        )
        with pytest.raises(CheckpointMismatchError):
            RunCheckpoint.open(
                tmp_path / "ckpt", kind="campaign", fingerprint=other,
                resume=True,
            )

    def test_commit_verify_fold_and_state_pruning(self, tmp_path: Path):
        world, backend = fresh_pair()
        full = run_campaign(world, backend, CAMPAIGN_CONFIG)
        checkpoint = self.open_fresh(tmp_path)
        # Commit the whole campaign as one segment, then a second one.
        state = capture_run_state(world, backend)
        record = checkpoint.commit_segment(day=0, dataset=full, state=state)
        assert record["seq"] == 0 and record["rows"] == len(full)
        checkpoint.commit_segment(day=1, dataset=full, state=state)
        assert [r["seq"] for r in checkpoint.committed] == [0, 1]
        # Only the newest state file survives a commit.
        assert not (tmp_path / "ckpt" / "state-00000.json").exists()
        assert (tmp_path / "ckpt" / "state-00001.json").exists()
        # Folding replays both committed segments, segment by segment.
        from repro.crowd.dataset import CrowdDataset

        merged = CrowdDataset()
        assert checkpoint.fold_into(merged) == 2
        assert len(merged) == 2 * len(full)
        assert checkpoint.load_last_state() is not None

    def test_missing_and_corrupt_segments_fail_loudly(self, tmp_path: Path):
        world, backend = fresh_pair()
        full = run_campaign(world, backend, CAMPAIGN_CONFIG)
        checkpoint = self.open_fresh(tmp_path)
        checkpoint.commit_segment(
            day=0, dataset=full, state=capture_run_state(world, backend)
        )
        record = checkpoint.committed[0]
        seg = tmp_path / "ckpt" / record["file"]
        original = seg.read_bytes()
        seg.write_bytes(original + b" ")
        with pytest.raises(SegmentDigestError):
            checkpoint.load_segment(record)
        seg.unlink()
        with pytest.raises(SegmentMissingError):
            checkpoint.load_segment(record)
        seg.write_bytes(original)
        assert len(checkpoint.load_segment(record)) == len(full)

    def test_fingerprint_ignores_executor_but_not_configs(self):
        base = run_fingerprint("campaign", WORLD_CONFIG, CAMPAIGN_CONFIG)
        again = run_fingerprint("campaign", WORLD_CONFIG, CAMPAIGN_CONFIG)
        assert base == again  # no executor/memo knob can enter
        other = run_fingerprint(
            "campaign", WORLD_CONFIG, CampaignConfig(n_checks=99)
        )
        assert base != other


# ----------------------------------------------------------------------
# Run-state capture / restore
# ----------------------------------------------------------------------
class TestRunState:
    def test_restore_rejects_unknown_names(self):
        world, backend = fresh_pair()
        run_campaign(world, backend, CAMPAIGN_CONFIG)
        state = capture_run_state(world, backend)

        bad = dict(state, vantage_jars={"nowhere": {}})
        fresh_world, fresh_backend = fresh_pair()
        with pytest.raises(CheckpointMismatchError, match="vantage"):
            restore_run_state(bad, fresh_world, fresh_backend)

        bad = dict(state, servers={"www.not-a-shop.example": {}})
        fresh_world, fresh_backend = fresh_pair()
        with pytest.raises(CheckpointMismatchError, match="server"):
            restore_run_state(bad, fresh_world, fresh_backend)

        bad = dict(state, user_jars={"ghost": {}})
        fresh_world, fresh_backend = fresh_pair()
        with pytest.raises(CheckpointMismatchError, match="user"):
            restore_run_state(
                bad, fresh_world, fresh_backend, user_clients={}
            )

    def test_backend_cursor_setters_validate(self):
        _, backend = fresh_pair()
        with pytest.raises(ValueError):
            backend.next_check_number = 0
        backend.next_check_number = 41
        assert backend.next_check_number == 41
        with pytest.raises(ValueError):
            backend.store.restore_archive_chain("zz")
        chain = backend.store.archive_chain
        backend.store.restore_archive_chain(chain)
        assert backend.store.archive_chain == chain


# ----------------------------------------------------------------------
# Interrupt + resume, in-process (SIGKILL variants: test_crash_resume)
# ----------------------------------------------------------------------
class TestCampaignResume:
    def reference_bytes(self, tmp_path: Path) -> bytes:
        world, backend = fresh_pair()
        full = run_campaign(
            world, backend, CAMPAIGN_CONFIG,
            checkpoint_dir=tmp_path / "ref",
        )
        return crowd_bytes(full, tmp_path / "ref.jsonl")

    def test_plain_campaign_matches_checkpointed(self, tmp_path: Path):
        """One schedule: a checkpoint only adds the durable per-day
        commit, so a plain run returns the checkpointed run's bytes."""
        world, backend = fresh_pair()
        plain = run_campaign(world, backend, CAMPAIGN_CONFIG)
        assert (
            crowd_bytes(plain, tmp_path / "plain.jsonl")
            == self.reference_bytes(tmp_path)
        )

    def test_interrupted_campaign_resumes_byte_identical(
        self, tmp_path: Path, clean_hook
    ):
        reference = self.reference_bytes(tmp_path)
        install_barrier_hook(interrupt_after_segments(2))
        world, backend = fresh_pair()
        with pytest.raises(InterruptRun):
            run_campaign(
                world, backend, CAMPAIGN_CONFIG,
                checkpoint_dir=tmp_path / "ckpt",
            )
        install_barrier_hook(None)
        world, backend = fresh_pair()
        resumed = run_campaign(
            world, backend, CAMPAIGN_CONFIG,
            checkpoint_dir=tmp_path / "ckpt", resume=True,
        )
        assert crowd_bytes(resumed, tmp_path / "resumed.jsonl") == reference

    def test_fully_committed_campaign_resumes_from_disk_alone(
        self, tmp_path: Path, clean_hook
    ):
        reference = self.reference_bytes(tmp_path)
        world, backend = fresh_pair()
        resumed = run_campaign(
            world, backend, CAMPAIGN_CONFIG,
            checkpoint_dir=tmp_path / "ref", resume=True,
        )
        assert crowd_bytes(resumed, tmp_path / "again.jsonl") == reference

    def test_resume_rejects_foreign_day_layout(self, tmp_path: Path):
        world, backend = fresh_pair()
        run_campaign(
            world, backend, CAMPAIGN_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        # Doctor a committed day so it cannot match the schedule.
        manifest_path = tmp_path / "c" / "manifest.jsonl"
        lines = manifest_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["day"] = 9999
        lines[1] = json.dumps(record, separators=(",", ":"), sort_keys=True)
        manifest_path.write_text("\n".join(lines) + "\n")
        world, backend = fresh_pair()
        with pytest.raises(CheckpointMismatchError, match="day"):
            run_campaign(
                world, backend, CAMPAIGN_CONFIG,
                checkpoint_dir=tmp_path / "c", resume=True,
            )


class TestCrawlResume:
    def test_checkpointed_crawl_matches_plain_and_resumes(
        self, tmp_path: Path, clean_hook
    ):
        world, backend = fresh_pair()
        plain = run_crawl(world, backend, tiny_plan(world), CRAWL_CONFIG)
        reference = crawl_bytes(plain, tmp_path / "plain.jsonl")

        world, backend = fresh_pair()
        checkpointed = run_crawl(
            world, backend, tiny_plan(world), CRAWL_CONFIG,
            checkpoint_dir=tmp_path / "full",
        )
        assert crawl_bytes(checkpointed, tmp_path / "full.jsonl") == reference

        install_barrier_hook(interrupt_after_segments(1))
        world, backend = fresh_pair()
        with pytest.raises(InterruptRun):
            run_crawl(
                world, backend, tiny_plan(world), CRAWL_CONFIG,
                checkpoint_dir=tmp_path / "ckpt",
            )
        install_barrier_hook(None)
        world, backend = fresh_pair()
        resumed = run_crawl(
            world, backend, tiny_plan(world), CRAWL_CONFIG,
            checkpoint_dir=tmp_path / "ckpt", resume=True,
        )
        assert crawl_bytes(resumed, tmp_path / "resumed.jsonl") == reference

    def test_crawl_fingerprint_binds_the_plan(self, tmp_path: Path):
        world, backend = fresh_pair()
        plan = tiny_plan(world)
        run_crawl(
            world, backend, plan, CRAWL_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        world, backend = fresh_pair()
        other_plan = build_plan(
            world, domains=world.crawled_domains[:2], products_per_retailer=3
        )
        assert plan_digest(other_plan) != plan_digest(plan)
        with pytest.raises(CheckpointMismatchError):
            run_crawl(
                world, backend, other_plan, CRAWL_CONFIG,
                checkpoint_dir=tmp_path / "c", resume=True,
            )

    def test_too_many_committed_days_rejected(self, tmp_path: Path):
        world, backend = fresh_pair()
        plan = tiny_plan(world)
        run_crawl(
            world, backend, plan, CRAWL_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        world, backend = fresh_pair()
        shorter = CrawlConfig(days=2, start_day=3)
        # Same plan, shorter window: checkpoint "belongs" to a longer run.
        with pytest.raises(CheckpointMismatchError):
            run_crawl(
                world, backend, tiny_plan(world), shorter,
                checkpoint_dir=tmp_path / "c", resume=True,
            )


# ----------------------------------------------------------------------
# CLI + context threading
# ----------------------------------------------------------------------
class TestCheckpointFlags:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert cli.main(["campaign", "--scale", "tiny", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_scenario_crawls_refuse_checkpointing(self, tmp_path: Path, capsys):
        assert cli.main([
            "crawl", "--scale", "tiny", "--scenario", "flash-sale",
            "--checkpoint-dir", str(tmp_path / "c"),
        ]) == 2
        assert "does not apply to scenario" in capsys.readouterr().err

    def test_campaign_checkpoint_and_resume_round_trip(
        self, tmp_path: Path, capsys
    ):
        base = ["campaign", "--scale", "tiny",
                "--checkpoint-dir", str(tmp_path / "ck")]
        assert cli.main(base + ["--out", str(tmp_path / "first.jsonl")]) == 0
        capsys.readouterr()
        assert (tmp_path / "ck" / "campaign" / "manifest.jsonl").exists()
        assert cli.main(
            base + ["--resume", "--out", str(tmp_path / "second.jsonl")]
        ) == 0
        capsys.readouterr()
        assert (
            (tmp_path / "first.jsonl").read_bytes()
            == (tmp_path / "second.jsonl").read_bytes()
        )
