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


def jar_hosts(jar) -> dict[str, list[dict]]:
    """A jar's cookies per host, each host's in the jar's order."""
    hosts: dict[str, list[dict]] = {}
    for cookie in jar.snapshot():
        hosts.setdefault(cookie["host"], []).append(cookie)
    return hosts


def world_state(world) -> tuple[dict, dict]:
    """Every vantage jar host by host, and every server's session state."""
    return (
        {vp.name: jar_hosts(vp.jar) for vp in world.vantage_points},
        {domain: s.session_state() for domain, s in world.servers.items()},
    )


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
            {"format": "repro-checkpoint", "version": 2, "fingerprint": {}},
            {"format": "repro-checkpoint", "version": 2, "kind": "campaign"},
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
            tmp_path / "ckpt", kind="campaign", fingerprint=fp,
            backend=fresh_pair()[1], **kwargs
        )

    def test_unknown_kind_rejected(self, tmp_path: Path):
        with pytest.raises(CheckpointError, match="unknown checkpoint kind"):
            RunCheckpoint.open(tmp_path / "c", kind="nope", fingerprint={},
                               backend=fresh_pair()[1])
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
        assert checkpoint.load_state() is None
        assert checkpoint.committed_servers is None
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
                backend=fresh_pair()[1], resume=True,
            )

    def test_commit_verify_fold_keeps_every_state_file(self, tmp_path: Path):
        world, backend = fresh_pair()
        full = run_campaign(world, backend, CAMPAIGN_CONFIG)
        checkpoint = self.open_fresh(tmp_path)
        # Commit the whole campaign as one segment, then a second one.
        first = capture_run_state(world, backend)
        record = checkpoint.commit_segment(day=0, dataset=full, state=first)
        assert record["seq"] == 0 and record["rows"] == len(full)
        assert checkpoint.committed_servers == first["servers"]
        # The first capture names every server and every jar's hosts; the
        # next names only what changed since: one new host.
        assert set(first["servers"]) == set(world.servers)
        jar = world.vantage_points[0].jar
        jar.put("www.new-host.example", "k", "v")
        second = capture_run_state(
            world, backend, committed_servers=checkpoint.committed_servers
        )
        assert second["servers"] == {}
        assert second["vantage_jars"] == {
            world.vantage_points[0].name: {
                "www.new-host.example": jar.snapshot({"www.new-host.example"}),
            },
        }
        checkpoint.commit_segment(day=1, dataset=full, state=second)
        assert [r["seq"] for r in checkpoint.committed] == [0, 1]
        # Every state file survives its successors' commits.
        assert (tmp_path / "ckpt" / "state-00000.json").exists()
        assert (tmp_path / "ckpt" / "state-00001.json").exists()
        # Folding replays both committed segments, segment by segment.
        from repro.crowd.dataset import CrowdDataset

        merged = CrowdDataset()
        assert checkpoint.fold_into(merged) == 2
        assert len(merged) == 2 * len(full)
        # The state files fold into the world's state as of the last
        # commit: restored into a fresh world, every jar matches host by
        # host and every server's session state.
        fresh_world, fresh_backend = fresh_pair()
        restore_run_state(checkpoint.load_state(), fresh_world, fresh_backend)
        assert world_state(fresh_world) == world_state(world)
        # The first state file is load-bearing now: damage fails loudly.
        state0 = tmp_path / "ckpt" / "state-00000.json"
        state0.write_bytes(state0.read_bytes() + b" ")
        with pytest.raises(SegmentDigestError):
            checkpoint.load_state()

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
        assert base == again  # no executor knob can enter
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
# State files hold what their day changed
# ----------------------------------------------------------------------
DELTA_CONFIG = CampaignConfig(
    n_checks=120, population_size=30, seed=7, start_day=0, end_day=12
)


def state_file(directory: Path, seq: int) -> dict:
    path = directory / f"state-{seq:05d}.json"
    return decode_state(json.loads(path.read_bytes()))


class TestStateDeltas:
    def test_state_files_name_only_what_their_day_changed(
        self, tmp_path: Path, clean_hook, monkeypatch
    ):
        """State file K names exactly the jar hosts and servers that
        changed on day K; the first names everything the world holds."""
        from repro.crowd import campaign as campaign_module

        users = []
        build_population = campaign_module.build_population

        def recording_population(*args, **kwargs):
            users.extend(build_population(*args, **kwargs))
            return users

        monkeypatch.setattr(
            campaign_module, "build_population", recording_population
        )
        world, backend = fresh_pair()
        commits = []  # per commit: (jars host by host, server states)

        def record_commit(name: str) -> None:
            if name != SEGMENT_COMMITTED:
                return
            jars = {
                ("vantage_jars", vp.name): jar_hosts(vp.jar)
                for vp in world.vantage_points
            }
            jars.update(
                (("user_jars", user.user_id), jar_hosts(user.client.jar))
                for user in users
            )
            servers = {d: s.session_state() for d, s in world.servers.items()}
            commits.append((jars, servers))

        install_barrier_hook(record_commit)
        run_campaign(
            world, backend, DELTA_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        assert len(commits) > 5
        before = ({}, {})
        for seq, (jars, servers) in enumerate(commits):
            named = state_file(tmp_path / "c", seq)
            for (kind, owner), hosts in jars.items():
                old = before[0].get((kind, owner), {})
                changed = {
                    host for host in set(hosts) | set(old)
                    if hosts.get(host, []) != old.get(host, [])
                }
                delta = named[kind].get(owner, {})
                assert set(delta) == changed, (seq, owner)
                for host, cookies in delta.items():
                    assert cookies == hosts.get(host, []), (seq, owner, host)
            assert named["servers"] == {
                domain: state for domain, state in servers.items()
                if before[1].get(domain) != state
            }, seq
            before = (jars, servers)

    def test_resumed_run_writes_the_uninterrupted_state_files(
        self, tmp_path: Path, clean_hook
    ):
        """After a resume every jar records changes from the restored
        state on, so the next state files name only their own day's
        changes: the same bytes an uninterrupted run writes."""
        world, backend = fresh_pair()
        run_campaign(
            world, backend, DELTA_CONFIG, checkpoint_dir=tmp_path / "ref"
        )
        install_barrier_hook(interrupt_after_segments(3))
        world, backend = fresh_pair()
        with pytest.raises(InterruptRun):
            run_campaign(
                world, backend, DELTA_CONFIG, checkpoint_dir=tmp_path / "cut"
            )
        install_barrier_hook(None)
        world, backend = fresh_pair()
        run_campaign(
            world, backend, DELTA_CONFIG,
            checkpoint_dir=tmp_path / "cut", resume=True,
        )
        reference = sorted((tmp_path / "ref").glob("state-*.json"))
        resumed = sorted((tmp_path / "cut").glob("state-*.json"))
        assert [p.name for p in resumed] == [p.name for p in reference]
        for ref, got in zip(reference, resumed):
            assert got.read_bytes() == ref.read_bytes(), got.name

    def test_state_file_size_does_not_grow_with_the_day(
        self, tmp_path: Path
    ):
        world, backend = fresh_pair()
        run_campaign(
            world, backend, DELTA_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        sizes = [
            path.stat().st_size
            for path in sorted((tmp_path / "c").glob("state-*.json"))
        ]
        assert len(sizes) > 8
        # A full snapshot grows with every host the jars have seen; a
        # day's changes do not.
        assert max(sizes[-4:]) <= max(sizes[1:5]), sizes

    @pytest.mark.parametrize("earlier", ["plain", "checkpointed"])
    def test_resume_into_fresh_world_after_an_earlier_run(
        self, tmp_path: Path, clean_hook, earlier: str
    ):
        """The first state file is a full snapshot of a world that ran
        before the checkpoint opened -- plainly, or under a checkpoint
        of its own that already took its jars' changes -- so a resume
        into a freshly built world continues where the uninterrupted
        run did.

        The later run is a crawl: a campaign's users take addresses from
        the world's IP plan, which no run state records, so a second
        campaign on one world draws other addresses than on a fresh one.
        """
        crawl_config = CrawlConfig(days=4, start_day=6)

        def campaign_then_crawl(tag: str, *, interrupt: bool):
            world, backend = fresh_pair()
            plan = tiny_plan(world)  # on a fresh world, as a resume builds it
            run_campaign(
                world, backend, CAMPAIGN_CONFIG,
                checkpoint_dir=(
                    tmp_path / f"{tag}-campaign"
                    if earlier == "checkpointed" else None
                ),
            )
            if interrupt:
                install_barrier_hook(interrupt_after_segments(2))
            crawl = run_crawl(
                world, backend, plan, crawl_config,
                checkpoint_dir=tmp_path / f"{tag}-crawl",
            )
            return world, crawl

        world, crawl = campaign_then_crawl("ref", interrupt=False)
        reference = crawl_bytes(crawl, tmp_path / "ref.jsonl")
        with pytest.raises(InterruptRun):
            campaign_then_crawl("cut", interrupt=True)
        install_barrier_hook(None)
        fresh_world, fresh_backend = fresh_pair()
        resumed = run_crawl(
            fresh_world, fresh_backend, tiny_plan(fresh_world), crawl_config,
            checkpoint_dir=tmp_path / "cut-crawl", resume=True,
        )
        assert crawl_bytes(resumed, tmp_path / "resumed.jsonl") == reference
        assert world_state(fresh_world) == world_state(world)

    def test_state_files_with_memo_verdicts_still_resume(
        self, tmp_path: Path, clean_hook
    ):
        """Earlier state files carried the burst memo's live-only
        verdicts (``burst_live_only``).  Checkpointed runs hold no memo
        now, so the key folds like any scalar and is ignored: such a
        checkpoint still resumes byte-identical."""
        world, backend = fresh_pair()
        full = run_campaign(world, backend, CAMPAIGN_CONFIG)
        reference = crowd_bytes(full, tmp_path / "ref.jsonl")
        install_barrier_hook(interrupt_after_segments(2))
        world, backend = fresh_pair()
        with pytest.raises(InterruptRun):
            run_campaign(
                world, backend, CAMPAIGN_CONFIG,
                checkpoint_dir=tmp_path / "ckpt",
            )
        install_barrier_hook(None)
        manifest = tmp_path / "ckpt" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            path = tmp_path / "ckpt" / record["state_file"]
            state = json.loads(path.read_bytes())
            state["burst_live_only"] = {
                "www.amazon.com": "state-dependent responses"
            }
            path.write_bytes(json.dumps(state, sort_keys=True).encode())
            record["state_sha256"] = file_sha256(path)
            lines[i] = json.dumps(record, separators=(",", ":"),
                                  sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        world, backend = fresh_pair()
        resumed = run_campaign(
            world, backend, CAMPAIGN_CONFIG,
            checkpoint_dir=tmp_path / "ckpt", resume=True,
        )
        assert crowd_bytes(resumed, tmp_path / "resumed.jsonl") == reference

    def test_version_1_checkpoint_is_refused(self, tmp_path: Path):
        """Version 1 kept only the newest state file, a full snapshot:
        folding its files would silently drop state, so it is refused."""
        world, backend = fresh_pair()
        run_campaign(
            world, backend, CAMPAIGN_CONFIG, checkpoint_dir=tmp_path / "c"
        )
        manifest = tmp_path / "c" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        header["version"] = 1
        lines[0] = json.dumps(header, separators=(",", ":"), sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        world, backend = fresh_pair()
        with pytest.raises(ManifestError, match="unsupported version 1"):
            run_campaign(
                world, backend, CAMPAIGN_CONFIG,
                checkpoint_dir=tmp_path / "c", resume=True,
            )


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
