"""Tests for the campaign server (``repro.serve``).

Covers the journal (CRC, torn tails, idempotent replay — the last
pinned with a Hypothesis property), the content store and warm-start
index, admission control and shedding, deadlines/timeouts, circuit
breakers, and the headline robustness claims: kill-and-restart resume
with energies matching an uninterrupted run, no duplicated work, and
graceful degradation on rank loss.
"""

import json
import os
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hpc.faults import FaultSpec
from repro.serve import (
    AdmissionController,
    CampaignServer,
    ContentStore,
    Journal,
    JournalCorruptionError,
    JournalRecord,
    JobSpec,
    JobState,
    ServerConfig,
    SpecError,
    TenantPolicy,
    load_state_view,
)
from repro.serve.server import _ServerState


# A state directory the server wrote while served VQE still ran the
# trotterized UCCSD circuit on the full register: an H2 job completed,
# then the server was killed with two seeded H4 campaigns 7
# evaluations into their optimizations (every evaluation checkpointed).
_INFLIGHT_STATE = os.path.join(os.path.dirname(__file__), "data", "inflight_vqe_state")
# the energies that server reached when it resumed the directory
_INFLIGHT_ENERGIES = {
    "j00001-25b1b29a": -1.1361894507163097,
    "j00002-5aefb236": -2.1802818054937814,
    "j00003-25c386f4": -2.1802818055570072,
    "j00004-14e1b8a4": -1.1205602924336862,
}


def _two_pass_line(rec):
    """The journal line as encoded body-then-line: the CRC of the
    canonical body, then the body re-encoded with it."""
    body = {"seq": rec.seq, "type": rec.type, "payload": rec.payload}
    body["crc"] = zlib.crc32(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _count_sha256(monkeypatch, spec_mod):
    """Route ``repro.serve.spec``'s SHA-256 through a counter; returns
    the list that grows by one per key computed."""
    import hashlib
    import types

    calls = []

    def sha256(data):
        calls.append(1)
        return hashlib.sha256(data)

    monkeypatch.setattr(spec_mod, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls


# -- specs --------------------------------------------------------------------


class TestJobSpec:
    def test_content_key_ignores_tenant_and_priority(self):
        a = JobSpec(tenant="alice", molecule="h2", priority=5)
        b = JobSpec(tenant="bob", molecule="h2", priority=0)
        assert a.content_key() == b.content_key()

    def test_content_key_distinguishes_physics(self):
        a = JobSpec(tenant="t", molecule="h2")
        b = JobSpec(tenant="t", molecule="h2", geometry=0.9)
        c = JobSpec(tenant="t", molecule="h4")
        assert len({a.content_key(), b.content_key(), c.content_key()}) == 3

    def test_family_key_ignores_geometry(self):
        a = JobSpec(tenant="t", molecule="h2", geometry=0.7)
        b = JobSpec(tenant="t", molecule="h2", geometry=1.1)
        assert a.family_key() == b.family_key()
        assert a.content_key() != b.content_key()

    def test_roundtrip(self):
        spec = JobSpec(tenant="t", kind="adapt", molecule="lih", deadline_s=10.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_bad_kind_and_tenant(self):
        with pytest.raises(SpecError):
            JobSpec(tenant="t", kind="qpe")
        with pytest.raises(SpecError):
            JobSpec(tenant="")

    @pytest.mark.parametrize(
        "geometry", [float("nan"), float("inf"), 0.0, -1.0], ids=repr
    )
    def test_rejects_non_finite_and_non_positive_geometry(self, geometry):
        with pytest.raises(SpecError, match="geometry") as err:
            JobSpec(tenant="t", geometry=geometry)
        assert repr(geometry) in str(err.value)
        payload = JobSpec(tenant="t").to_dict()
        payload["geometry"] = geometry
        # through JSON, as a spooled submission arrives (NaN/Infinity
        # are what json.dumps writes and json.loads reads back)
        with pytest.raises(SpecError, match="geometry"):
            JobSpec.from_dict(json.loads(json.dumps(payload)))

    def test_keys_are_computed_once_per_spec(self, monkeypatch):
        import repro.serve.spec as spec_mod

        calls = _count_sha256(monkeypatch, spec_mod)
        spec = JobSpec(tenant="t", molecule="h2", geometry=0.9, seed=3)
        keys = [(spec.content_key(), spec.family_key(), spec.physics_key()) for _ in range(5)]
        assert len(set(keys)) == 1 and len(set(keys[0])) == 3
        assert len(calls) == 3
        # the cache is not a field: equality, serialisation and copies ignore it
        fresh = JobSpec.from_dict(spec.to_dict())
        assert fresh == spec and "_content_key" not in spec.to_dict()
        assert fresh.content_key() == keys[0][0]

    def test_rejects_unknown_version_and_fields(self):
        payload = JobSpec(tenant="t").to_dict()
        payload["version"] = 99
        with pytest.raises(SpecError, match="version"):
            JobSpec.from_dict(payload)
        payload = JobSpec(tenant="t").to_dict()
        payload["frobnicate"] = 1
        with pytest.raises(SpecError, match="unknown field"):
            JobSpec.from_dict(payload)


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"))
        j.append("a", x=1)
        j.append("b", y=[1, 2])
        j.close()
        records = Journal(str(tmp_path / "j.jsonl")).replay()
        assert [(r.seq, r.type) for r in records] == [(1, "a"), (2, "b")]
        assert records[1].payload == {"y": [1, 2]}

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a")
        j.close()
        j2 = Journal(path)
        rec = j2.append("b")
        assert rec.seq == 2

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a", x=1)
        j.append("b", x=2)
        j.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "type": "c", "pa')  # crash mid-append
        records = Journal(path).replay()
        assert [r.type for r in records] == ["a", "b"]

    def test_append_after_torn_tail_repairs_file(self, tmp_path):
        """The next append truncates a torn tail instead of writing
        directly after the partial bytes — which would merge them into
        one unparseable line and make the *following* replay refuse the
        whole journal as mid-file corruption."""
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a", x=1)
        j.append("b", x=2)
        j.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "type": "c", "pa')  # crash mid-append
        j2 = Journal(path)
        j2.append("c", x=3)
        j2.close()
        records = Journal(path).replay()
        assert [(r.seq, r.type) for r in records] == [(1, "a"), (2, "b"), (3, "c")]

    def test_append_after_missing_final_newline(self, tmp_path):
        """An intact final record that lost its newline (crash between
        the line and the terminator) is completed, not merged with the
        next append."""
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a", x=1)
        j.close()
        with open(path, "rb+") as fh:
            data = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(data.rstrip(b"\n"))
        j2 = Journal(path)
        assert [r.type for r in j2.replay()] == ["a"]
        j2.append("b")
        j2.close()
        records = Journal(path).replay()
        assert [(r.seq, r.type) for r in records] == [(1, "a"), (2, "b")]

    def test_readonly_replay_never_mutates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a", x=1)
        j.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 2, "type": "b", "pa')
        size = os.path.getsize(path)
        Journal(path).replay()  # status-view style read
        assert os.path.getsize(path) == size

    def test_midfile_corruption_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        j.append("a", x=1)
        j.append("b", x=2)
        j.close()
        lines = open(path).read().splitlines()
        lines[0] = lines[0].replace('"x":1', '"x":9')  # flip a byte mid-file
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            Journal(path).replay()

    def test_crc_detects_tampering(self):
        rec = JournalRecord(seq=1, type="t", payload={"k": "v"})
        line = rec.to_line()
        assert JournalRecord.from_line(line).payload == {"k": "v"}
        bad = line.replace('"v"', '"w"')
        with pytest.raises(ValueError):
            JournalRecord.from_line(bad)
        obj = json.loads(line)
        assert obj["crc"] == zlib.crc32(
            json.dumps(
                {"seq": 1, "type": "t", "payload": {"k": "v"}},
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"k": "v"},
            {"job_id": "j1", "energy": -1.1361894507163097, "parameters": [0.1, -2e-17]},
            {"spec": JobSpec(tenant="t\u00e9", molecule="h4").to_dict(), "none": None},
            {"nested": {"b": [1, {"z": True, "a": False}], "a": 3}, "reason": 'say "x"\n'},
        ],
    )
    def test_line_equals_the_two_pass_encoding(self, payload):
        """One encoding per record writes the same bytes as encoding the
        body, then encoding it again with its CRC."""
        rec = JournalRecord(seq=12345, type="completed", payload=payload)
        assert rec.to_line() == _two_pass_line(rec)
        assert JournalRecord.from_line(rec.to_line()) == rec

    def test_journal_written_before_replays_line_for_line(self):
        path = os.path.join(_INFLIGHT_STATE, "journal.jsonl")
        with open(path) as fh:
            lines = fh.read().splitlines()
        records = Journal(path).replay()
        assert len(records) == len(lines) == 8
        assert [r.to_line() for r in records] == lines

    def test_flipped_payload_byte_is_refused(self):
        with open(os.path.join(_INFLIGHT_STATE, "journal.jsonl")) as fh:
            line = fh.readline().rstrip("\n")
        start = line.index('"payload":')
        for at in range(start, line.index('"seq":')):
            bad = line[:at] + chr(ord(line[at]) ^ 1) + line[at + 1 :]
            with pytest.raises(ValueError):
                JournalRecord.from_line(bad)

    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["admitted", "started", "retry", "completed"]),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=20,
        ),
        cut=st.integers(min_value=0, max_value=20),
    )
    def test_replay_idempotence(self, records, cut):
        """Folding any prefix of the journal twice yields exactly the
        same state as folding it once: replay cannot double-apply a
        transition, so a crash-loop of restarts never duplicates work.
        """
        recs = []
        for seq, (rtype, jnum) in enumerate(records, start=1):
            job_id = f"j{jnum}"
            if rtype == "admitted":
                payload = {
                    "job_id": job_id,
                    "spec": JobSpec(tenant=f"t{jnum}").to_dict(),
                    "submission_id": None,
                }
            else:
                payload = {"job_id": job_id, "attempt": 1, "energy": -1.0}
            recs.append(JournalRecord(seq=seq, type=rtype, payload=payload))
        prefix = recs[: min(cut, len(recs))]

        def snapshot(state):
            return (
                {jid: (j.state, j.attempts) for jid, j in state.jobs.items()},
                list(state.order),
                state.last_seq,
            )

        once = _ServerState()
        for r in prefix:
            once.apply(r)
        twice = _ServerState()
        for r in prefix:
            twice.apply(r)
        for r in prefix:  # replay the same prefix again
            twice.apply(r)
        assert snapshot(once) == snapshot(twice)
        # and continuing with the full journal still converges
        for r in recs:
            once.apply(r)
            twice.apply(r)
        assert snapshot(once) == snapshot(twice)


# -- content store ------------------------------------------------------------


class TestContentStore:
    def test_results_roundtrip_and_idempotence(self, tmp_path):
        store = ContentStore(str(tmp_path))
        assert store.get_result("k") is None
        store.put_result("k", {"energy": -1.5})
        store.put_result("k", {"energy": -1.5})  # replay-safe
        assert store.get_result("k") == {"energy": -1.5}
        assert store.num_results() == 1

    def test_torn_result_read_as_absent(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.put_result("k", {"energy": -1.0})
        path = os.path.join(str(tmp_path), "results.jsonl")
        os.truncate(path, os.path.getsize(path) - 6)  # torn write
        assert store.get_result("k") is None

    def test_reopened_store_sees_earlier_results_and_torn_files(self, tmp_path):
        first = ContentStore(str(tmp_path))
        first.put_result("whole", {"energy": -1.0})
        first.put_result("torn", {"energy": -2.0})
        first.close()
        path = os.path.join(str(tmp_path), "results.jsonl")
        os.truncate(path, os.path.getsize(path) - 6)  # killed mid-append
        reopened = ContentStore(str(tmp_path))
        assert reopened.get_result("whole") == {"energy": -1.0}
        assert reopened.get_result("torn") is None  # torn line: absent
        assert reopened.get_result("never-written") is None
        assert reopened.num_results() == 1  # a torn line holds no key
        reopened.put_result("torn", {"energy": -2.0})  # the job recomputed
        reopened.close()
        again = ContentStore(str(tmp_path))
        assert again.get_result("torn") == {"energy": -2.0}
        assert again.num_results() == 2
        again.close()

    def test_warm_index_is_written_through(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.add_warm_start("fam", 0.7, np.array([0.1]))
        store.add_warm_start("fam", 0.7, np.array([0.3]))  # last write wins
        store.add_warm_start("fam", 1.1, np.array([0.5]))
        with open(os.path.join(str(tmp_path), "warm", "fam.json")) as fh:
            on_disk = [json.loads(line) for line in fh]
        # append-only: one line per completion, in completion order
        assert on_disk == [
            {"geometry": 0.7, "parameters": [0.1]},
            {"geometry": 0.7, "parameters": [0.3]},
            {"geometry": 1.1, "parameters": [0.5]},
        ]
        # a second store on the directory answers from the file
        np.testing.assert_allclose(
            ContentStore(str(tmp_path)).warm_start("fam", 0.8, 1), [0.3]
        )

    def test_reopened_warm_family_is_last_write_wins_past_torn_tail(self, tmp_path):
        from repro.serve.store import read_warm_family

        store = ContentStore(str(tmp_path))
        store.add_warm_start("fam", 0.7, np.array([0.1, 0.2]))
        store.add_warm_start("fam", 1.5, np.array([0.8, 0.9]))
        store.add_warm_start("fam", 0.7, np.array([0.3, 0.4]))
        path = os.path.join(str(tmp_path), "warm", "fam.json")
        with open(path, "a") as fh:
            fh.write('{"geometry": 1.5, "parameters": [9.0, ')  # killed mid-append
        reopened = ContentStore(str(tmp_path))
        assert read_warm_family(path) == {1.5: [0.8, 0.9], 0.7: [0.3, 0.4]}
        np.testing.assert_allclose(reopened.warm_start("fam", 0.8, 2), [0.3, 0.4])
        np.testing.assert_allclose(reopened.warm_start("fam", 1.4, 2), [0.8, 0.9])
        # the next append starts on a line of its own, past the torn bytes
        reopened.add_warm_start("fam", 1.1, np.array([0.5, 0.6]))
        assert read_warm_family(path) == {
            1.5: [0.8, 0.9], 0.7: [0.3, 0.4], 1.1: [0.5, 0.6]
        }
        np.testing.assert_allclose(
            ContentStore(str(tmp_path)).warm_start("fam", None, 2), [0.5, 0.6]
        )

    def test_whole_file_warm_family_still_reads(self, tmp_path):
        """A family written as one JSON list folds like appended lines."""
        path = os.path.join(str(tmp_path), "warm", "fam.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            json.dump([{"geometry": 0.7, "parameters": [0.1]}], fh)
        store = ContentStore(str(tmp_path))
        store.add_warm_start("fam", 1.1, np.array([0.5]))
        np.testing.assert_allclose(store.warm_start("fam", 0.75, 1), [0.1])
        np.testing.assert_allclose(
            ContentStore(str(tmp_path)).warm_start("fam", 1.0, 1), [0.5]
        )

    def test_warm_start_picks_nearest_geometry(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.add_warm_start("fam", 0.7, np.array([0.1, 0.2]))
        store.add_warm_start("fam", 1.5, np.array([0.8, 0.9]))
        got = store.warm_start("fam", 0.8, 2)
        np.testing.assert_allclose(got, [0.1, 0.2])
        got = store.warm_start("fam", 1.4, 2)
        np.testing.assert_allclose(got, [0.8, 0.9])

    def test_warm_start_filters_length_mismatch(self, tmp_path):
        store = ContentStore(str(tmp_path))
        store.add_warm_start("fam", 0.7, np.array([0.1, 0.2]))
        assert store.warm_start("fam", 0.7, 3) is None


# -- admission ----------------------------------------------------------------


class TestAdmission:
    def test_tenant_and_global_bounds(self):
        ctl = AdmissionController(
            global_queue_limit=4,
            default_policy=TenantPolicy(max_queued=2),
        )
        assert ctl.decide("t", tenant_queued=0, total_queued=0).admitted
        d = ctl.decide("t", tenant_queued=2, total_queued=2)
        assert not d.admitted and "tenant" in d.reason
        d = ctl.decide("t", tenant_queued=0, total_queued=4)
        assert not d.admitted and "backpressure" in d.reason

    def test_draining_and_breaker_reject(self):
        ctl = AdmissionController()
        assert not ctl.decide("t", 0, 0, draining=True).admitted
        d = ctl.decide("t", 0, 0, breaker_open=True)
        assert not d.admitted and "breaker" in d.reason

    def test_shed_victims_lowest_priority_newest_first(self):
        class J:
            def __init__(self, name, priority, seq):
                self.name, self.priority, self.submitted_seq = name, priority, seq

        jobs = [J("hi", 2, 1), J("old-low", 0, 2), J("new-low", 0, 3), J("mid", 1, 4)]
        victims = AdmissionController.shed_victims(jobs, 2)
        assert [v.name for v in victims] == ["new-low", "old-low"]
        assert AdmissionController.shed_victims(jobs, 0) == []


# -- server: fast paths (no chemistry) ----------------------------------------


def _stub_execution(fail=None, result=None):
    """A stand-in ``_JobExecution`` class whose campaign's ``ask()``
    raises ``RuntimeError(fail)`` or gives no row, and whose result
    (when given) completes the job after the pump."""

    class Campaign:
        plan = observable = None

        def __init__(self):
            self.result = result

        def ask(self):
            if fail is not None:
                raise RuntimeError(fail)
            return None

        def close(self):
            pass

    class Stub:
        def __init__(self, *args, **kwargs):
            self.campaign = Campaign()

        def result(self):
            return self.campaign.result

    return Stub


def _server(tmp_path, name="srv", **cfg):
    cfg.setdefault("num_ranks", 2)
    return CampaignServer(str(tmp_path / name), ServerConfig(**cfg))


class TestServerAdmission:
    def test_rejection_is_terminal_and_journaled(self, tmp_path):
        srv = _server(
            tmp_path,
            default_tenant_policy=TenantPolicy(max_queued=1),
        )
        a = srv.submit(JobSpec(tenant="t", molecule="h2"))
        b = srv.submit(JobSpec(tenant="t", molecule="h4"))
        assert a.state == JobState.QUEUED
        assert b.state == JobState.REJECTED
        assert "backpressure" in b.detail
        # the rejection survives a restart
        srv.close()
        srv2 = CampaignServer(srv.state_dir, srv.config)
        assert srv2.jobs[b.job_id].state == JobState.REJECTED

    def test_draining_rejects_new_work(self, tmp_path):
        srv = _server(tmp_path)
        srv.drain()
        job = srv.submit(JobSpec(tenant="t"))
        assert job.state == JobState.REJECTED
        assert "draining" in job.detail

    def test_duplicate_submission_id_is_idempotent(self, tmp_path):
        srv = _server(tmp_path)
        a = srv.submit(JobSpec(tenant="t"), submission_id="s1")
        b = srv.submit(JobSpec(tenant="t"), submission_id="s1")
        assert a.job_id == b.job_id
        assert len(srv.jobs) == 1

    def test_inbox_spool_ingestion(self, tmp_path):
        srv = _server(tmp_path)
        spec = JobSpec(tenant="t", molecule="h2")
        path = os.path.join(srv.inbox_dir, "sub1.json")
        with open(path, "w") as fh:
            json.dump(spec.to_dict(), fh)
        assert srv._poll_inbox() == 1
        assert not os.path.exists(path)
        assert len(srv.jobs) == 1
        assert next(iter(srv.jobs.values())).submission_id == "sub1"

    def test_malformed_inbox_file_rejected_not_crash(self, tmp_path):
        srv = _server(tmp_path)
        with open(os.path.join(srv.inbox_dir, "bad.json"), "w") as fh:
            fh.write("{not json")
        srv._poll_inbox()
        (job,) = srv.jobs.values()
        assert job.state == JobState.REJECTED
        assert "malformed" in job.detail

    @pytest.mark.parametrize("geometry", [float("nan"), 0.0])
    def test_bad_geometry_in_inbox_never_reaches_chemistry(
        self, tmp_path, monkeypatch, geometry
    ):
        """A geometry that used to fail (or return NaN) inside the SCF,
        after admission, is now rejected where the spec is parsed: no
        execution failure, so the class breaker never hears of it."""
        srv = _server(tmp_path, breaker_failure_threshold=1)
        monkeypatch.setattr(
            srv.problems, "get", lambda spec: pytest.fail("chemistry stage reached")
        )
        payload = JobSpec(tenant="t", molecule="h2").to_dict()
        payload["geometry"] = geometry
        for k in range(3):
            with open(os.path.join(srv.inbox_dir, f"sub{k}.json"), "w") as fh:
                json.dump(payload, fh)
        for _ in range(3):
            srv.tick()
        assert [j.state for j in srv.jobs.values()] == [JobState.REJECTED] * 3
        assert all("geometry" in j.detail for j in srv.jobs.values())
        srv.close()
        rejected = [
            r for r in Journal(os.path.join(srv.state_dir, "journal.jsonl")).replay()
            if r.type == "rejected"
        ]
        assert len(rejected) == 3
        assert all(b.state == "closed" for b in srv.breakers.values())
        ok = CampaignServer(srv.state_dir, srv.config).submit(
            JobSpec(tenant="t", molecule="h2")
        )
        assert ok.state == JobState.QUEUED

    def test_job_counter_skips_malformed_rejections(self, tmp_path):
        """The recovered jNNNNN counter counts only counter-allocated
        ids, not synthetic 'bad-<id>' rejections."""
        srv = _server(tmp_path)
        srv.submit(JobSpec(tenant="t", molecule="h2"))
        with open(os.path.join(srv.inbox_dir, "bad.json"), "w") as fh:
            fh.write("{not json")
        srv._poll_inbox()
        srv.close()
        srv2 = CampaignServer(srv.state_dir, srv.config)
        job = srv2.submit(JobSpec(tenant="t", molecule="h4"))
        assert job.job_id.startswith("j00002-")


class TestServerDegradation:
    def test_rank_loss_requeues_and_sheds(self, tmp_path):
        srv = _server(
            tmp_path,
            num_ranks=2,
            global_queue_limit=4,
        )
        # fill the queue to the global bound with cheap specs
        for k in range(4):
            srv.submit(
                JobSpec(tenant=f"t{k}", molecule="h2", geometry=0.6 + 0.1 * k,
                        priority=k)
            )
        srv.inject_rank_loss(1)
        assert srv.alive_ranks == [0]
        srv._shed_overload()  # effective limit: 4 * 1/2 = 2
        by_state = {}
        for j in srv.jobs.values():
            by_state.setdefault(j.state, []).append(j)
        assert len(by_state[JobState.SHED]) == 2
        # lowest-priority jobs were the victims
        assert {j.spec.priority for j in by_state[JobState.SHED]} == {0, 1}
        assert srv.health()["status"] == "degraded"

    def test_all_ranks_lost_not_ready(self, tmp_path):
        srv = _server(tmp_path, num_ranks=2)
        srv.inject_rank_loss(0)
        srv.inject_rank_loss(1)
        health = srv.health()
        assert health["status"] == "unavailable"
        assert not health["ready"]

    def test_rank_loss_survives_restart(self, tmp_path):
        srv = _server(tmp_path)
        srv.inject_rank_loss(0)
        srv.close()
        srv2 = CampaignServer(srv.state_dir, srv.config)
        assert srv2.alive_ranks == [1]

    def test_dispatch_never_starts_on_rank_killed_mid_loop(
        self, tmp_path, monkeypatch
    ):
        """Placements are computed from the alive set at the top of the
        tick; if the fault injector kills a rank while we dispatch to a
        *different* one, jobs placed on the dead rank must be skipped,
        not started on a lost rank."""
        srv = _server(tmp_path, num_ranks=2)
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution())
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.submit(JobSpec(tenant="t", molecule="h4"))
        fired = {"done": False}

        def kill_other(rank):
            # batch fault kills the *other* rank during this dispatch
            if not fired["done"]:
                fired["done"] = True
                srv.inject_rank_loss(1 - rank)

        monkeypatch.setattr(srv, "_check_rank_faults", kill_other)
        srv._dispatch()
        running = [j for j in srv.jobs.values() if j.state == JobState.RUNNING]
        assert len(running) == 1
        assert all(j.rank in srv.alive_ranks for j in running)
        assert (
            len([j for j in srv.jobs.values() if j.state == JobState.QUEUED])
            == 1
        )

    def test_restart_twice_after_torn_tail(self, tmp_path):
        """One crash-with-torn-tail must not poison the journal: the
        first restart appends recovery records (after truncating the
        torn bytes), and the second restart replays cleanly instead of
        raising JournalCorruptionError on a merged line."""
        srv = _server(tmp_path)
        a = srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.close()
        path = os.path.join(srv.state_dir, "journal.jsonl")
        with open(path, "a") as fh:
            fh.write('{"seq": 7, "type": "started", "pa')  # crash mid-append
        srv2 = CampaignServer(srv.state_dir, srv.config)
        assert srv2.jobs[a.job_id].state == JobState.QUEUED
        srv2.close()
        srv3 = CampaignServer(srv.state_dir, srv.config)
        assert srv3.jobs[a.job_id].state == JobState.QUEUED


class TestServerRetryAndBreaker:
    def test_failing_job_retries_then_fails(self, tmp_path, monkeypatch):
        clock = {"t": 0.0}
        srv = _server(
            tmp_path,
            max_job_attempts=2,
            clock=lambda: clock["t"],
        )
        job = srv.submit(JobSpec(tenant="t", molecule="h2"))

        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution(fail="injected execution failure"))
        # also skip problem building (the stub never uses it)
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.QUEUED  # retry scheduled
        assert srv.jobs[job.job_id].attempts == 1
        clock["t"] += 10.0  # past the backoff delay
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.FAILED
        assert "injected execution failure" in srv.jobs[job.job_id].detail

    def test_breaker_opens_and_rejects_class(self, tmp_path, monkeypatch):
        clock = {"t": 0.0}
        srv = _server(
            tmp_path,
            max_job_attempts=1,  # every failure is terminal
            breaker_failure_threshold=2,
            breaker_cooldown_s=60.0,
            clock=lambda: clock["t"],
        )
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution(fail="boom"))
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        for _ in range(2):
            srv.submit(JobSpec(tenant="t", molecule="h2"))
            srv.tick()
            clock["t"] += 1.0
        assert srv.breakers["vqe:h2:sto-3g"].state == "open"
        # same class now rejected at admission; other classes admitted
        rej = srv.submit(JobSpec(tenant="t", molecule="h2"))
        assert rej.state == JobState.REJECTED
        assert "breaker" in rej.detail
        ok = srv.submit(JobSpec(tenant="t", molecule="h4"))
        assert ok.state == JobState.QUEUED
        # after the cooldown the breaker half-opens and admits a probe
        clock["t"] += 61.0
        probe = srv.submit(JobSpec(tenant="t", molecule="h2"))
        assert probe.state == JobState.QUEUED

    def test_is_open_is_read_only(self):
        from repro.utils.retry import CircuitBreaker

        br = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        br.record_failure(0.0)
        assert br.state == "open"
        assert br.is_open(5.0)
        assert not br.is_open(15.0)  # cooldown elapsed: would admit
        assert br.state == "open"  # but the read did not transition
        assert br.rejections == 0

    def test_submission_does_not_consume_half_open_probe(
        self, tmp_path, monkeypatch
    ):
        """Admission is not an execution: post-cooldown submissions are
        admitted without touching the breaker; only the dispatch-time
        allow() consumes the half-open probe, and the probe's outcome
        drives the state machine."""
        clock = {"t": 0.0}
        srv = _server(
            tmp_path,
            max_job_attempts=1,
            breaker_failure_threshold=1,
            breaker_cooldown_s=60.0,
            clock=lambda: clock["t"],
        )
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution(fail="boom"))
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.tick()
        br = srv.breakers["vqe:h2:sto-3g"]
        assert br.state == "open"
        clock["t"] = 61.0
        for _ in range(3):
            sub = srv.submit(JobSpec(tenant="t", molecule="h2"))
            assert sub.state == JobState.QUEUED
        assert br.state == "open"  # submissions left the breaker alone
        srv.tick()  # dispatch probes the class; the probe fails
        assert br.state == "open"
        assert br.trips == 2

    def test_retry_budget_denial_fails_fast(self, tmp_path, monkeypatch):
        clock = {"t": 0.0}
        srv = _server(
            tmp_path,
            max_job_attempts=5,
            retry_budget_capacity=1.0,
            retry_budget_refill_per_s=0.0,
            clock=lambda: clock["t"],
        )
        import repro.serve.server as server_mod

        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution(fail="boom"))
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        job = srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.tick()  # attempt 1 fails; one retry token spent
        assert srv.jobs[job.job_id].state == JobState.QUEUED
        clock["t"] += 10.0
        srv.tick()  # attempt 2 fails; budget empty -> terminal
        assert srv.jobs[job.job_id].state == JobState.FAILED


class TestServerDeadlines:
    def test_deadline_times_out_before_stepping(self, tmp_path):
        clock = {"t": 0.0}
        srv = _server(tmp_path, clock=lambda: clock["t"])
        job = srv.submit(JobSpec(tenant="t", molecule="h2", deadline_s=5.0))
        clock["t"] = 10.0  # the job waited past its deadline in queue
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.TIMED_OUT
        assert "deadline" in srv.jobs[job.job_id].detail

    def test_timeout_on_execution_budget(self, tmp_path, monkeypatch):
        srv = _server(tmp_path)
        job = srv.submit(JobSpec(tenant="t", molecule="h2", timeout_s=0.5))
        srv.jobs[job.job_id].exec_s = 1.0  # pretend we burned the budget
        import repro.serve.server as server_mod

        # never finishes
        monkeypatch.setattr(server_mod, "_JobExecution", _stub_execution())
        monkeypatch.setattr(srv.problems, "get", lambda spec: {})
        srv.tick()  # dispatch
        srv.tick()  # budget check fires before the next step
        assert srv.jobs[job.job_id].state == JobState.TIMED_OUT
        assert "budget" in srv.jobs[job.job_id].detail

    def test_restart_rebases_deadline_clock(self, tmp_path, monkeypatch):
        """admitted_at is meaningless across processes (monotonic
        clock, not journaled): recovery re-bases every non-terminal
        job's deadline window to recovery time instead of spuriously
        timing it out on the first tick."""
        clock = {"t": 5.0}
        srv = _server(tmp_path, clock=lambda: clock["t"])
        job = srv.submit(JobSpec(tenant="t", molecule="h2", deadline_s=60.0))
        srv.close()
        clock["t"] = 10_000.0  # a new process's arbitrary clock epoch
        srv2 = CampaignServer(srv.state_dir, srv.config)
        import repro.serve.server as server_mod

        monkeypatch.setattr(
            server_mod, "_JobExecution", _stub_execution(result={"energy": -1.0, "kind": "vqe"})
        )
        monkeypatch.setattr(srv2.problems, "get", lambda spec: {})
        srv2.tick()
        assert srv2.jobs[job.job_id].state == JobState.SUCCEEDED
        # deadlines still fire, measured from recovery
        late = srv2.submit(JobSpec(tenant="t", molecule="h4", deadline_s=5.0))
        clock["t"] = 10_010.0
        srv2.tick()
        assert srv2.jobs[late.job_id].state == JobState.TIMED_OUT


# -- server: real physics (small problems only) -------------------------------


class TestServerEndToEnd:
    def test_concurrent_campaigns_kill_restart_resume(self, tmp_path):
        """The headline robustness claim: kill the server mid-flight
        with several campaigns in progress, restart it, and every job
        reaches the same energy as an uninterrupted run — completed
        jobs are not re-run, in-flight jobs resume from checkpoints."""
        specs = [
            JobSpec(tenant="alice", kind="adapt", molecule="h2", max_iterations=3),
            JobSpec(tenant="bob", kind="vqe", molecule="h2", geometry=0.9),
            JobSpec(tenant="carol", kind="adapt", molecule="h4", max_iterations=2),
        ]
        cfg = ServerConfig(num_ranks=2)

        # uninterrupted control run
        control = CampaignServer(str(tmp_path / "control"), cfg)
        for s in specs:
            control.submit(s)
        control.run(stop_when_idle=True, max_ticks=60)
        control_energies = {
            j.spec.content_key(): j.energy for j in control.jobs.values()
        }
        assert all(j.state == JobState.SUCCEEDED for j in control.jobs.values())

        # interrupted run: a couple of ticks, then a hard kill
        srv = CampaignServer(str(tmp_path / "srv"), cfg)
        for s in specs:
            srv.submit(s)
        srv.tick()
        srv.tick()
        completed_before_kill = {
            j.job_id for j in srv.jobs.values() if j.state == JobState.SUCCEEDED
        }
        srv.close()  # kill -9: executions and caches are gone

        srv2 = CampaignServer(str(tmp_path / "srv"), cfg)
        # whatever was running is queued again; completed stayed terminal
        for job_id in completed_before_kill:
            assert srv2.jobs[job_id].state == JobState.SUCCEEDED
        srv2.run(stop_when_idle=True, max_ticks=60)
        assert all(j.state == JobState.SUCCEEDED for j in srv2.jobs.values())
        for j in srv2.jobs.values():
            assert j.energy == pytest.approx(
                control_energies[j.spec.content_key()], abs=1e-8
            )
        # no duplicated work: each completed job completed exactly once
        completions = {}
        for rec in Journal(os.path.join(srv2.state_dir, "journal.jsonl")).replay():
            if rec.type == "completed":
                jid = rec.payload["job_id"]
                completions[jid] = completions.get(jid, 0) + 1
        assert all(n == 1 for n in completions.values())
        # jobs finished before the kill were never started again after it
        recs = Journal(os.path.join(srv2.state_dir, "journal.jsonl")).replay()
        recovered_at = max(
            (r.seq for r in recs if r.type == "recovered"), default=0
        )
        for r in recs:
            if r.type == "started" and r.seq > recovered_at:
                assert r.payload["job_id"] not in completed_before_kill

    def test_dedup_across_tenants(self, tmp_path):
        srv = _server(tmp_path)
        a = srv.submit(JobSpec(tenant="alice", molecule="h2"))
        b = srv.submit(JobSpec(tenant="bob", molecule="h2"))
        srv.run(stop_when_idle=True, max_ticks=30)
        ja, jb = srv.jobs[a.job_id], srv.jobs[b.job_id]
        assert ja.state == jb.state == JobState.SUCCEEDED
        assert ja.energy == pytest.approx(jb.energy, abs=1e-12)
        # exactly one of the two actually computed
        assert ja.dedup_hit != jb.dedup_hit
        assert srv.store.num_results() == 1

    def test_warm_start_within_family(self, tmp_path):
        srv = _server(tmp_path, num_ranks=1)
        srv.submit(JobSpec(tenant="t", molecule="h2", geometry=0.74))
        srv.run(stop_when_idle=True, max_ticks=30)
        second = srv.submit(JobSpec(tenant="t", molecule="h2", geometry=0.8))
        srv.run(stop_when_idle=True, max_ticks=30)
        job = srv.jobs[second.job_id]
        assert job.state == JobState.SUCCEEDED
        assert job.warm_started

    def test_rank_loss_mid_service_all_jobs_finish(self, tmp_path):
        cfg = ServerConfig(
            num_ranks=2,
            fault_specs=[
                FaultSpec(kind="rank_crash", rank=1, probability=1.0, scope="batch")
            ],
        )
        srv = CampaignServer(str(tmp_path / "srv"), cfg)
        for k in range(3):
            srv.submit(JobSpec(tenant=f"t{k}", molecule="h2", geometry=0.7 + 0.1 * k))
        srv.run(stop_when_idle=True, max_ticks=60)
        assert srv.state.lost_ranks == {1}
        assert all(
            j.state == JobState.SUCCEEDED for j in srv.jobs.values()
        ), {j.job_id: j.state for j in srv.jobs.values()}

    def test_drain_finishes_in_flight_rejects_new(self, tmp_path):
        srv = _server(tmp_path)
        first = srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.tick()  # dispatch it
        srv.drain()
        late = srv.submit(JobSpec(tenant="t", molecule="h4"))
        assert late.state == JobState.REJECTED
        srv.run(max_ticks=30)
        assert srv.jobs[first.job_id].state == JobState.SUCCEEDED

    def test_status_view_matches_server(self, tmp_path):
        srv = _server(tmp_path)
        srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.run(stop_when_idle=True, max_ticks=30)
        view = load_state_view(srv.state_dir)
        assert view["by_state"] == {JobState.SUCCEEDED: 1}
        assert view["health"]["status"] == "ready"
        assert view["jobs"][0]["energy"] == pytest.approx(
            next(iter(srv.jobs.values())).energy
        )


# -- served ADAPT: an ask/tell campaign on the broker's pump ------------------


def _adapt_state(srv, job):
    """The job's ADAPT state as the server's checkpoint log folds it."""
    from repro.core.campaign import CheckpointLog

    log = CheckpointLog(os.path.join(srv.state_dir, "checkpoints.jsonl"))
    try:
        return log.load(job.job_id, ("adapt",))
    finally:
        log.close()


class TestServedAdapt:
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_answers_equal_adapt_run_bit_for_bit(self, tmp_path, batch_size):
        """H2 and H4 ADAPT jobs served beside VQE jobs, in the same ticks,
        give AdaptVQE.run()'s energies, parameters, iteration counts and
        selected operators exactly, at any batch size."""
        from repro.core.adapt import AdaptVQE
        from repro.serve.store import ProblemCache

        cfg = ServerConfig(num_ranks=2, batch_size=batch_size)
        srv = CampaignServer(str(tmp_path / "srv"), cfg)
        adapt_specs = [
            JobSpec(tenant="a", kind="adapt", molecule="h2", max_iterations=3),
            JobSpec(tenant="c", kind="adapt", molecule="h4", max_iterations=2),
        ]
        jobs = [srv.submit(s) for s in adapt_specs]
        srv.submit(JobSpec(tenant="b", molecule="h2", geometry=0.9))
        srv.submit(JobSpec(tenant="d", molecule="h4", seed=1))
        srv.run(stop_when_idle=True, max_ticks=20)
        assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
        cache = ProblemCache()
        for spec, job in zip(adapt_specs, jobs):
            problem = cache.get(spec)
            want = AdaptVQE(
                problem["hamiltonian"],
                problem["pool"],
                problem["reference"],
                max_iterations=spec.max_iterations,
                gradient_tolerance=cfg.adapt_gradient_tolerance,
            ).run()
            got = srv.store.get_result(spec.content_key())
            assert got["energy"] == want.energy
            assert got["parameters"] == [float(x) for x in want.parameters]
            assert got["iterations"] == len(want.iterations)
            labels = [r["selected_label"] for r in _adapt_state(srv, job)["records"]]
            assert labels == want.operator_labels
        srv.close()

    def test_grows_one_iteration_per_tick(self, tmp_path):
        """With a zero gradient tolerance, a 3-iteration H2 job grows one
        iteration per tick and completes on tick 3."""
        srv = _server(tmp_path, adapt_gradient_tolerance=0.0)
        job = srv.submit(JobSpec(tenant="t", kind="adapt", molecule="h2", max_iterations=3))
        states, grown = [], []
        for _ in range(3):
            srv.tick()
            states.append(srv.jobs[job.job_id].state)
            grown.append(_adapt_state(srv, job)["iteration"])
        assert states == [JobState.RUNNING, JobState.RUNNING, JobState.SUCCEEDED]
        assert grown == [1, 2, 3]
        srv.close()

    def test_kill_after_one_tick_resumes_at_iteration_one(self, tmp_path):
        """A kill after tick 1 leaves the iteration-1 checkpoint; the
        restarted server resumes from it, grows iteration 2 on its first
        tick, and ends where an uninterrupted server does."""
        cfg = dict(adapt_gradient_tolerance=0.0)
        spec = JobSpec(tenant="t", kind="adapt", molecule="h2", max_iterations=3)
        control = _server(tmp_path, name="control", **cfg)
        control.submit(spec)
        control.run(stop_when_idle=True, max_ticks=10)
        want = control.store.get_result(spec.content_key())
        control.close()

        srv = _server(tmp_path, **cfg)
        job = srv.submit(spec)
        srv.tick()
        srv.close()  # kill -9
        assert _adapt_state(srv, job)["iteration"] == 1
        srv2 = CampaignServer(srv.state_dir, srv.config)
        srv2.tick()
        campaign = srv2.executions[job.job_id].campaign
        assert (campaign.resumed_from, campaign.state.iteration) == (1, 2)
        srv2.run(stop_when_idle=True, max_ticks=10)
        assert srv2.jobs[job.job_id].state == JobState.SUCCEEDED
        assert srv2.jobs[job.job_id].resumed
        assert srv2.store.get_result(spec.content_key()) == want
        srv2.close()


# -- per-family structure, per-tick derived values ----------------------------


def _mini_scan(tmp_path, name, num_ranks, monkeypatch, **cfg):
    """40 H2 jobs: 20 distinct geometries from each of two tenants, so
    half are dedup hits.  ``cfg`` are further ``ServerConfig`` fields.
    Returns the drained server, the SHA-256 key computations and the
    ExecutionPlan lowerings the scan took: ``"circuit"`` per
    ``ExecutionPlan.__init__``, ``"generators"`` per ``from_generators``."""
    import repro.serve.spec as spec_mod
    import repro.sim.plan as plan_mod

    sha_calls = _count_sha256(monkeypatch, spec_mod)
    lowerings = []
    lower = plan_mod.ExecutionPlan.__init__
    from_generators = plan_mod.ExecutionPlan.from_generators

    def counting_init(self, *args, **kwargs):
        lowerings.append("circuit")
        lower(self, *args, **kwargs)

    def counting_from_generators(*args, **kwargs):
        lowerings.append("generators")
        return from_generators(*args, **kwargs)

    monkeypatch.setattr(plan_mod.ExecutionPlan, "__init__", counting_init)
    monkeypatch.setattr(
        plan_mod.ExecutionPlan, "from_generators", staticmethod(counting_from_generators)
    )
    srv = _server(
        tmp_path,
        name=name,
        num_ranks=num_ranks,
        global_queue_limit=64,
        default_tenant_policy=TenantPolicy(max_queued=64),
        **cfg,
    )
    for k in range(20):
        for tenant in ("alice", "bob"):
            srv.submit(JobSpec(tenant=tenant, molecule="h2", geometry=round(0.6 + 0.04 * k, 4)))
    srv.run(stop_when_idle=True, max_ticks=200)
    assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
    return srv, len(sha_calls), lowerings


class TestScanSharesStructureAndDerivedValues:
    def test_status_file_equals_a_fresh_encoding(self, tmp_path, monkeypatch):
        srv, _, _ = _mini_scan(tmp_path, "srv", 2, monkeypatch)
        with open(os.path.join(srv.state_dir, "status.json")) as fh:
            on_disk = json.load(fh)
        fresh = {
            "health": srv.health(),
            "jobs": [srv.jobs[jid].to_dict() for jid in srv.state.order],
        }
        assert on_disk == json.loads(json.dumps(fresh))
        assert len(on_disk["jobs"]) == 40
        # a field set outside the journal fold still reaches the file
        job = srv.jobs[srv.state.order[0]]
        job.detail = "edited behind the fold"
        srv._publish_health()
        with open(os.path.join(srv.state_dir, "status.json")) as fh:
            assert json.load(fh)["jobs"][0]["detail"] == "edited behind the fold"

    def test_distinct_geometries_share_one_ansatz_and_one_plan(
        self, tmp_path, monkeypatch
    ):
        srv, _, lowerings = _mini_scan(tmp_path, "srv", 2, monkeypatch)
        problems = [srv.problems.get(j.spec) for j in srv.jobs.values()]
        assert srv.problems.builds == 20
        assert len({id(p["hamiltonian"]) for p in problems}) == 20
        assert len({id(p["ansatz"]) for p in problems}) == 1
        assert len({id(p["generators"]) for p in problems}) == 1
        assert len({id(p["plan"]) for p in problems}) == 1
        assert problems[0]["plan"].dim == 4  # H2's (N = 2, S_z = 0) sector
        # one generator lowering for the 20 geometries, and no circuit
        # compiled while serving
        assert lowerings == ["generators"]

    def test_key_hashing_is_per_job_not_per_tick(self, tmp_path, monkeypatch):
        # a rank starts at most batch_size jobs per tick: with 2, one
        # rank needs more ticks for the scan than four ranks do
        slow, sha_slow, _ = _mini_scan(tmp_path, "one-rank", 1, monkeypatch, batch_size=2)
        fast, sha_fast, _ = _mini_scan(tmp_path, "four-ranks", 4, monkeypatch, batch_size=2)
        assert slow.ticks > fast.ticks  # same jobs, more scheduling rounds
        # _count_sha256 was re-installed by the second scan: each count is its own
        assert sha_slow == sha_fast
        assert sha_slow <= 8 * len(slow.jobs)

    def test_previous_servers_result_is_a_dedup_hit_after_reopen(self, tmp_path):
        srv = _server(tmp_path)
        first = srv.submit(JobSpec(tenant="alice", molecule="h2", geometry=0.8))
        srv.run(stop_when_idle=True, max_ticks=30)
        energy = srv.jobs[first.job_id].energy
        srv.close()
        reopened = CampaignServer(srv.state_dir, srv.config)
        again = reopened.submit(JobSpec(tenant="bob", molecule="h2", geometry=0.8))
        reopened.run(stop_when_idle=True, max_ticks=30)
        job = reopened.jobs[again.job_id]
        assert job.state == JobState.SUCCEEDED and job.dedup_hit
        assert job.energy == energy
        assert reopened.problems.builds == 0  # nothing was recomputed
        # a result line truncated under the server still reads as absent:
        # the next identical submission recomputes instead of failing
        path = os.path.join(srv.state_dir, "store", "results.jsonl")
        os.truncate(path, os.path.getsize(path) - 6)
        third = reopened.submit(JobSpec(tenant="carol", molecule="h2", geometry=0.8))
        reopened.run(stop_when_idle=True, max_ticks=30)
        job = reopened.jobs[third.job_id]
        assert job.state == JobState.SUCCEEDED and not job.dedup_hit
        assert job.energy == pytest.approx(energy, abs=1e-8)


class TestPlanKeyedScan:
    """Every geometry of a scan runs one plan, so the broker carries them
    in shared waves; dedup and warm starts keep their own keys."""

    def test_duplicate_completes_in_the_tick_its_result_lands(self, tmp_path):
        srv = _server(tmp_path)
        a = srv.submit(JobSpec(tenant="alice", molecule="h2", geometry=0.8))
        b = srv.submit(JobSpec(tenant="bob", molecule="h2", geometry=0.8))
        srv.tick()
        assert srv.jobs[a.job_id].state == JobState.SUCCEEDED
        assert srv.jobs[b.job_id].state == JobState.SUCCEEDED
        assert srv.jobs[b.job_id].dedup_hit
        assert srv.jobs[b.job_id].energy == srv.jobs[a.job_id].energy
        assert srv.idle and srv.ticks == 1

    def test_scan_shares_waves_and_reaches_each_ground_energy(self, tmp_path):
        from repro.chem.fci import exact_ground_energy

        geometries = [round(0.55 + 0.1 * k, 4) for k in range(8)]
        srv = _server(tmp_path, num_ranks=2)
        for g in geometries:
            for tenant in ("alice", "bob"):
                srv.submit(JobSpec(tenant=tenant, molecule="h2", geometry=g))
        srv.run(stop_when_idle=True, max_ticks=50)
        health = srv.health()
        assert health["batch"]["mean_occupancy"] > 1
        assert srv.ticks < len(geometries)
        assert health["dedup_hits"] == len(geometries)
        for job in srv.jobs.values():
            assert job.state == JobState.SUCCEEDED
            hq = srv.problems.get(job.spec)["hamiltonian"]
            exact = exact_ground_energy(hq, num_particles=2, sz=0)
            assert abs(job.energy - exact) < 1e-6, (job.spec.geometry, job.energy - exact)
        srv.close()
        reopened = CampaignServer(srv.state_dir, srv.config)
        assert reopened.idle
        assert reopened.health()["stored_results"] == health["stored_results"]
        reopened.close()


# -- satellite: checkpoint schema guard ---------------------------------------


class TestCheckpointSchemaGuard:
    """Checkpoint loads fail with a clear schema error, never a raw
    KeyError or an unpickling crash."""

    @staticmethod
    def _adapt(tmp_path):
        from repro.core.adapt import AdaptVQE
        from repro.serve.store import ProblemCache

        problem = ProblemCache().get(JobSpec(tenant="t", kind="adapt"))
        return AdaptVQE(
            problem["hamiltonian"],
            problem["pool"],
            problem["reference"],
            max_iterations=2,
        )

    @staticmethod
    def _write(tmp_path, payload, kind="adapt"):
        line = {"key": None, "kind": kind, "state": payload}
        (tmp_path / "checkpoints.jsonl").write_text(json.dumps(line) + "\n")

    def test_future_version_rejected(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError

        self._write(tmp_path, {"version": 99})
        with pytest.raises(CheckpointSchemaError, match="upgrade"):
            CampaignRunner(str(tmp_path))._load_adapt_state(self._adapt(tmp_path))

    def test_stale_version_rejected(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError

        self._write(tmp_path, {"version": 0})
        with pytest.raises(CheckpointSchemaError, match="stale"):
            CampaignRunner(str(tmp_path))._load_adapt_state(self._adapt(tmp_path))

    def test_missing_fields_rejected(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError

        self._write(tmp_path, {"version": 1, "iteration": 1})
        with pytest.raises(CheckpointSchemaError, match="missing required"):
            CampaignRunner(str(tmp_path))._load_adapt_state(self._adapt(tmp_path))

    def test_non_dict_payload_rejected(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError

        self._write(tmp_path, [1, 2, 3])
        with pytest.raises(CheckpointSchemaError):
            CampaignRunner(str(tmp_path))._load_adapt_state(self._adapt(tmp_path))

    def test_vqe_params_missing_field_rejected(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError
        from repro.core.vqe import VQE
        from repro.serve.store import ProblemCache

        self._write(tmp_path, {"version": 1, "parameters": [0.1]}, kind="vqe")  # no energy/eval
        problem = ProblemCache().get(JobSpec(tenant="t", kind="vqe"))
        vqe = VQE(
            problem["hamiltonian"],
            generators=problem["generators"],
            reference_state=problem["reference"],
        )
        with pytest.raises(CheckpointSchemaError, match="missing required"):
            CampaignRunner(str(tmp_path)).run_vqe(vqe)

    def test_schema_errors_are_value_errors(self):
        from repro.core.campaign import CheckpointSchemaError

        assert issubclass(CheckpointSchemaError, ValueError)


# -- state as lines in long-lived logs ----------------------------------------


class _Killed(BaseException):
    """Stands in for the server process dying where it is raised."""


def _state_paths(state_dir):
    """Every file and directory under a state directory, relative."""
    found = set()
    for root, dirs, files in os.walk(state_dir):
        for name in dirs + files:
            found.add(os.path.relpath(os.path.join(root, name), state_dir))
    return found


def _log_lines(srv):
    with open(os.path.join(srv.state_dir, "checkpoints.jsonl")) as fh:
        return [json.loads(line) for line in fh]


class TestStateLogs:
    """A served job's disk state is lines appended to logs the server
    keeps open: no directory or file is created per job."""

    @staticmethod
    def _scan(tmp_path, n):
        srv = _server(tmp_path, name=f"scan{n}")
        for k in range(n):
            srv.submit(JobSpec(tenant="t", molecule="h2", geometry=round(0.6 + 0.1 * k, 4)))
        srv.run(stop_when_idle=True, max_ticks=60)
        assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
        srv.close()
        return _state_paths(srv.state_dir)

    def test_state_paths_do_not_grow_with_the_job_count(self, tmp_path):
        two, six = self._scan(tmp_path, 2), self._scan(tmp_path, 6)
        assert two == six
        assert {"checkpoints.jsonl", "journal.jsonl", "store/results.jsonl"} <= six

    def test_kill_between_final_line_and_completed_record(self, tmp_path, monkeypatch):
        """A job whose final checkpoint line landed but whose completion
        was never journalled resumes from that line to the same energy."""
        spec = JobSpec(tenant="t", molecule="h2", geometry=0.8)
        control = _server(tmp_path, name="control")
        control.submit(spec)
        control.run(stop_when_idle=True, max_ticks=30)
        want = next(iter(control.jobs.values())).energy
        control.close()

        srv = _server(tmp_path)
        job = srv.submit(spec)

        def die(*args, **kwargs):
            raise _Killed

        monkeypatch.setattr(CampaignServer, "_finish_success", die)
        with pytest.raises(_Killed):
            srv.tick()
        srv.close()  # kill -9 before the "completed" record
        monkeypatch.undo()
        assert _log_lines(srv)[-1]["kind"] == "vqe_final"
        assert srv.jobs[job.job_id].state == JobState.RUNNING

        srv2 = CampaignServer(srv.state_dir, srv.config)
        srv2.run(stop_when_idle=True, max_ticks=30)
        resumed = srv2.jobs[job.job_id]
        assert resumed.state == JobState.SUCCEEDED and resumed.resumed
        assert resumed.energy == want
        srv2.close()

    def test_inflight_checkpoints_from_the_full_register_server_resume(self, tmp_path):
        """Checkpoints keep the t0..t{P-1} parameter order and meaning,
        so campaigns killed in flight under the circuit resume on the
        sector plan to the energies the circuit reached."""
        state_dir = str(tmp_path / "srv")
        shutil.copytree(_INFLIGHT_STATE, state_dir)
        srv = CampaignServer(state_dir, ServerConfig(num_ranks=2))
        srv.run(stop_when_idle=True, max_ticks=60)
        assert set(srv.jobs) == set(_INFLIGHT_ENERGIES)
        for job_id, energy in _INFLIGHT_ENERGIES.items():
            job = srv.jobs[job_id]
            assert job.state == JobState.SUCCEEDED
            assert abs(job.energy - energy) < 1e-10
        assert srv.jobs["j00002-5aefb236"].resumed and srv.jobs["j00003-25c386f4"].resumed
        srv.close()

    def test_startup_compaction_keeps_only_in_flight_jobs_last_line(self, tmp_path):
        srv = _server(tmp_path, adapt_gradient_tolerance=0.0)
        running = srv.submit(
            JobSpec(tenant="a", kind="adapt", molecule="h2", max_iterations=3)
        )
        done = srv.submit(JobSpec(tenant="b", molecule="h2", geometry=0.9))
        srv.tick()
        srv.tick()
        assert srv.jobs[running.job_id].state == JobState.RUNNING
        assert srv.jobs[done.job_id].state == JobState.SUCCEEDED
        srv.close()  # kill -9
        before = _log_lines(srv)
        assert {line["key"] for line in before} == {running.job_id, done.job_id}
        last = [line for line in before if line["key"] == running.job_id][-1]
        assert last["state"]["iteration"] == 2

        srv2 = CampaignServer(srv.state_dir, srv.config)
        assert _log_lines(srv2) == [last]
        srv2.run(stop_when_idle=True, max_ticks=10)
        assert srv2.jobs[running.job_id].state == JobState.SUCCEEDED
        srv2.close()
        # a restart with no job in flight leaves an empty log
        CampaignServer(srv.state_dir, srv.config).close()
        assert _log_lines(srv2) == []

    @pytest.mark.parametrize("log", ["checkpoints", "results", "warm"])
    def test_torn_tail_is_skipped_and_the_next_append_starts_a_line(self, tmp_path, log):
        from repro.core.campaign import CheckpointLog
        from repro.serve.store import read_warm_family

        root = str(tmp_path)
        geometry = {"a": 0.5, "b": 0.9}
        if log == "checkpoints":
            path = os.path.join(root, "checkpoints.jsonl")

            def reopen():
                return CheckpointLog(path)

            def write(lg, key, value):
                lg.save(key, "vqe", {"v": value})

            def read(lg, key):
                line = lg.get((key, "vqe"))
                return None if line is None else line["state"]["v"]

        elif log == "results":
            path = os.path.join(root, "results.jsonl")

            def reopen():
                return ContentStore(root)

            def write(store, key, value):
                store.put_result(key, {"v": value})

            def read(store, key):
                result = store.get_result(key)
                return None if result is None else result["v"]

        else:
            path = os.path.join(root, "warm", "fam.json")

            def reopen():
                return ContentStore(root)

            def write(store, key, value):
                store.add_warm_start("fam", geometry[key], np.array([value]))

            def read(store, key):
                parameters = read_warm_family(path).get(geometry[key])
                return None if parameters is None else parameters[0]

        first = reopen()
        write(first, "a", 1)
        write(first, "b", 2)
        first.close()
        os.truncate(path, os.path.getsize(path) - 4)  # killed mid-append of "b"
        second = reopen()
        assert (read(second, "a"), read(second, "b")) == (1, None)
        write(second, "b", 3)
        second.close()
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # a, the torn b, then b on a line of its own
        json.loads(lines[2])
        third = reopen()
        assert read(third, "b") == 3
        third.close()

    def test_old_layout_is_refused_naming_the_path(self, tmp_path):
        from repro.core.campaign import CampaignRunner, CheckpointSchemaError

        for sub in ("jobs", os.path.join("store", "results")):
            state_dir = tmp_path / sub.replace(os.sep, "-")
            os.makedirs(state_dir / sub)
            with pytest.raises(CheckpointSchemaError, match="drain") as err:
                CampaignServer(str(state_dir), ServerConfig(num_ranks=1))
            assert str(state_dir / sub) in str(err.value)
        for name in ("vqe_params.json", "adapt_state.json"):
            ckpt = tmp_path / name.split(".")[0]
            os.makedirs(ckpt)
            (ckpt / name).write_text("{}")
            with pytest.raises(CheckpointSchemaError, match="fresh") as err:
                CampaignRunner(str(ckpt))
            assert str(ckpt / name) in str(err.value)


# -- satellite: per-fault-kind comm metrics -----------------------------------


class TestCommFaultKindMetrics:
    def test_fault_and_retry_counters_by_kind(self):
        from repro.hpc.comm import SimComm
        from repro.hpc.faults import FaultInjector
        from repro.utils.retry import RetryPolicy

        injector = FaultInjector(
            [
                FaultSpec("transient_exchange", at_step=0),
                FaultSpec("corruption", at_step=1, bit_flips=1),
            ],
            seed=0,
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=4, seed=1),
        )
        a, b = np.arange(2.0), np.arange(2.0) + 5
        comm.exchange([a, b], [1, 0])
        assert comm.stats.faults_by_kind.get("transient_exchange", 0) >= 1
        assert comm.stats.retries_by_kind.get("transient_exchange", 0) >= 1
        # corruption fires on the second op (the retried exchange)
        total_faults = sum(comm.stats.faults_by_kind.values())
        total_retries = sum(comm.stats.retries_by_kind.values())
        assert total_retries == comm.stats.retries
        assert total_faults >= comm.stats.transient_errors

    def test_obs_metrics_emitted_per_kind(self):
        from repro import obs
        from repro.hpc.comm import SimComm
        from repro.hpc.faults import FaultInjector
        from repro.utils.retry import RetryPolicy

        obs.reset()
        obs.configure(enabled=True)
        try:
            injector = FaultInjector(
                [FaultSpec("transient_exchange", at_step=0)], seed=0
            )
            comm = SimComm(
                2,
                fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=3, seed=1),
            )
            a, b = np.arange(2.0), np.arange(2.0) + 5
            comm.exchange([a, b], [1, 0])
            snaps = {
                (s["name"], tuple(sorted((s.get("labels") or {}).items()))): s[
                    "value"
                ]
                for s in obs.get_registry().snapshot()
            }
            key = (
                "repro_comm_faults_total",
                (("kind", "transient_exchange"),),
            )
            assert snaps.get(key, 0) >= 1
            key = (
                "repro_comm_retries_by_kind_total",
                (("kind", "transient_exchange"),),
            )
            assert snaps.get(key, 0) >= 1
        finally:
            obs.disable()
            obs.reset()

    def test_reset_clears_kind_maps(self):
        from repro.hpc.comm import CommStats

        stats = CommStats()
        stats.record_fault("corruption")
        stats.retries_by_kind["corruption"] = 2
        stats.reset()
        assert stats.faults_by_kind == {}
        assert stats.retries_by_kind == {}


# -- the live-job index -------------------------------------------------------


def _recount(srv):
    """Every index the tick reads, recomputed by scanning all jobs."""
    order = list(dict.fromkeys(srv.state.order))
    jobs = [srv.jobs[jid] for jid in order]
    by_state, tenants = {}, {}
    for job in jobs:
        by_state[job.state] = by_state.get(job.state, 0) + 1
        per_tenant = tenants.setdefault(job.spec.tenant, {})
        per_tenant[job.state] = per_tenant.get(job.state, 0) + 1
    live = {
        state: [j.job_id for j in jobs if j.state == state]
        for state in (JobState.QUEUED, JobState.RUNNING)
    }
    est = {state: sum(srv.jobs[j].est_bytes for j in ids) for state, ids in live.items()}
    return by_state, tenants, live, est


def _assert_index_matches_scan(srv):
    by_state, tenants, live, est = _recount(srv)
    for state, ids in live.items():
        assert [j.job_id for j in srv._jobs_in(state)] == ids
    for tenant, counts in tenants.items():
        assert srv._tenant_counts(tenant) == (
            counts.get(JobState.QUEUED, 0),
            counts.get(JobState.RUNNING, 0),
        )
    health = srv.health()
    assert health["jobs"] == by_state
    assert health["tenants"] == tenants
    assert health["queue_depth"] == len(live[JobState.QUEUED])
    assert health["running"] == len(live[JobState.RUNNING])
    assert health["memory"]["queued_est_bytes"] == est[JobState.QUEUED]
    assert health["memory"]["running_est_bytes"] == est[JobState.RUNNING]
    assert srv.idle == (not live[JobState.QUEUED] and not live[JobState.RUNNING])
    # the journal alone rebuilds the same indexes
    replayed = _ServerState()
    for rec in srv.journal.replay():
        replayed.apply(rec)
    assert replayed.counts == srv.state.counts
    assert replayed.tenant_counts == srv.state.tenant_counts
    for state, bucket in srv.state.live.items():
        assert sorted(replayed.live[state]) == sorted(bucket)


class TestLiveJobIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_matches_a_full_scan_under_random_operations(self, tmp_path, seed):
        import random

        rng = random.Random(seed)
        clock = {"t": 0.0}
        config = ServerConfig(
            num_ranks=3,
            global_queue_limit=6,
            default_tenant_policy=TenantPolicy(max_queued=3),
            clock=lambda: clock["t"],
            batch_size=32 if seed % 2 else 1,
        )
        srv = CampaignServer(str(tmp_path / "srv"), config)
        ops = ["submit"] * 5 + ["tick"] * 3 + ["rank_loss", "drain", "reopen"]
        try:
            for _ in range(60):
                op = rng.choice(ops)
                if op == "submit":
                    srv.submit(
                        JobSpec(
                            tenant=rng.choice(["alice", "bob", "carol"]),
                            kind=rng.choice(["vqe", "vqe", "adapt"]),
                            molecule="h2",
                            geometry=rng.choice([None, 0.7, 0.8, 0.9]),
                            seed=rng.randrange(3),
                            max_iterations=2,
                            deadline_s=rng.choice([None, None, 1.5]),
                        ),
                        submission_id=rng.choice([None, f"s{rng.randrange(6)}"]),
                    )
                elif op == "tick":
                    srv.tick()
                elif op == "rank_loss" and rng.random() < 0.5:
                    srv.inject_rank_loss(rng.randrange(config.num_ranks))
                elif op == "drain" and rng.random() < 0.1:
                    srv.drain()
                elif op == "reopen":
                    srv.close()
                    srv = CampaignServer(srv.state_dir, config)
                clock["t"] += 0.5
                _assert_index_matches_scan(srv)
        finally:
            srv.close()


class TestServerConfigValidation:
    @pytest.mark.parametrize(
        "name",
        [
            "num_ranks",
            "checkpoint_period",
            "batch_size",
            "global_queue_limit",
            "max_job_attempts",
            "memory_queue_factor",
        ],
    )
    def test_counts_below_one_are_named(self, name):
        with pytest.raises(ValueError, match=rf"ServerConfig\.{name} must be >= 1, got 0"):
            ServerConfig(**{name: 0})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("adapt_gradient_tolerance", -1e-4),
            ("adapt_gradient_tolerance", float("nan")),
        ],
    )
    def test_negative_or_nan_values_are_named(self, name, value):
        with pytest.raises(
            ValueError, match=rf"ServerConfig\.{name} must be >= 0, got {value!r}"
        ):
            ServerConfig(**{name: value})
        assert getattr(ServerConfig(**{name: 0}), name) == 0

    def test_negative_snapshot_period_is_named(self):
        with pytest.raises(
            ValueError, match=r"ServerConfig\.metrics_snapshot_period must be >= 0, got -1"
        ):
            ServerConfig(metrics_snapshot_period=-1)
        assert ServerConfig(metrics_snapshot_period=0).metrics_snapshot_period == 0
