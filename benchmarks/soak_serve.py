"""Soak test: the campaign server survives a kill -9 mid-service.

Drives the real CLI in subprocesses, exactly like an operator would:

1. spool submissions from three tenants (``repro submit``),
2. start ``repro serve`` with an injected rank crash and durable
   (fsync) journaling, let campaigns get in flight and one finish,
3. ``SIGKILL`` the server — no atexit handlers, no flushing,
4. spool more submissions while the server is down,
5. restart the server and let it drain the backlog,
6. assert from ``repro status --json`` and the journal that every job
   reached a terminal state, the rank loss stuck, nothing was lost,
   and no job completed twice (idempotent replay, no duplicated work),
7. assert the structured event log survived the kill consistently:
   sequence numbers strictly increase across the restart, the stream
   parses around any torn tail, completion events never contradict the
   journal, and ``repro top --once --json`` renders the whole story
   out-of-process,
8. assert the memory ledger did not leak across the restart+replay:
   once the backlog is drained, the restarted server's ``status.json``
   must show zero predicted bytes still queued/running and a ledger
   live set holding only the shared problem cache and pooled
   simulators — never per-job buffers retained after their jobs
   reached a terminal state,
9. assert the restarted server batched the same-molecule campaigns,
10. assert the checkpoint log came through the kill: a copy taken
   between the kill and the restart, and the log after the final
   drain, fold every finished VQE campaign to its final save and
   every finished ADAPT campaign to a final save holding the
   journalled energy at a converged or ``max_iterations`` state; the
   restart's compaction left no line of a job that was terminal when
   it ran; and each warm-start family folds to one entry per
   converged geometry.

Run from the repository root:

    PYTHONPATH=src python benchmarks/soak_serve.py

Exit code 0 = the service behaved; anything else is a soak failure.
CI runs this as its own job (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.campaign import CheckpointLog  # noqa: E402
from repro.obs.events import read_events  # noqa: E402
from repro.serve.journal import Journal  # noqa: E402
from repro.serve.spec import JobSpec  # noqa: E402
from repro.serve.store import read_warm_family  # noqa: E402
from repro.utils.jsonl import parse_lines  # noqa: E402


def _cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        check=check,
        env=env,
        cwd=REPO_ROOT,
    )


def _submit(state_dir: str, tenant: str, **kw: str) -> None:
    args = ["submit", "--state-dir", state_dir, "--tenant", tenant]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    _cli(*args)


def _start_server(state_dir: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--state-dir",
            state_dir,
            "--ranks",
            "2",
            "--fsync",
            "--tick-sleep",
            "0.01",
            # enable observability so the allocation ledger runs and
            # status.json carries the memory section the soak asserts on
            "--profile",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=REPO_ROOT,
    )


def _wait_for_journal(state_dir: str, record_type: str, timeout_s: float) -> bool:
    """Poll the journal until a record of the given type exists."""
    path = os.path.join(state_dir, "journal.jsonl")
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.isfile(path):
            try:
                if any(r.type == record_type for r in Journal(path).replay()):
                    return True
            except Exception:
                pass
        time.sleep(0.1)
    return False


def _final_save_failures(log: CheckpointLog, job_id: str, spec, energy) -> list:
    """What is wrong with a finished job's fold in the checkpoint log: a
    VQE job's latest line must be its final save, and an ADAPT job's
    state must hold the journalled energy and be converged or at the
    job's ``max_iterations``."""
    kinds = ("adapt",) if spec.kind == "adapt" else ("vqe", "vqe_final")
    try:
        state = log.load(job_id, kinds)
    except ValueError as err:
        return [f"{job_id}: unreadable checkpoint ({err})"]
    if state is None:
        return [f"{job_id}: no checkpoint line in {log.path}"]
    failures = []
    if state.get("energy") != energy:
        failures.append(
            f"{job_id}: checkpoint energy {state.get('energy')!r} != "
            f"journalled {energy!r}"
        )
    if spec.kind != "adapt":
        if log.latest(job_id, kinds) != "vqe_final":
            failures.append(f"{job_id}: latest VQE line is not the final save")
    elif not (state.get("converged") or state.get("iteration") == spec.max_iterations):
        failures.append(
            f"{job_id}: final ADAPT state is neither converged nor at "
            f"max_iterations {spec.max_iterations} (iteration "
            f"{state.get('iteration')!r})"
        )
    return failures


def main() -> int:
    work_dir = tempfile.mkdtemp(prefix="repro-soak-")
    state_dir = os.path.join(work_dir, "state")
    checkpoints = os.path.join(state_dir, "checkpoints.jsonl")
    at_kill = os.path.join(work_dir, "checkpoints-at-kill.jsonl")
    print(f"soak state: {state_dir}")

    # 1. three tenants spool a mixed workload before the server starts
    _submit(state_dir, "alice", kind="adapt", molecule="h2", max_iterations="3")
    _submit(state_dir, "bob", kind="vqe", molecule="h2", geometry="0.9")
    _submit(state_dir, "carol", kind="vqe", molecule="h4")
    _submit(state_dir, "alice", kind="vqe", molecule="h2", geometry="0.8")

    # 2. serve with rank 1 doomed to crash on its first dispatch
    server = _start_server(state_dir, "--crash-rank", "1")
    try:
        # wait until campaigns are genuinely in flight (work started
        # and the injected rank crash has fired)
        if not _wait_for_journal(state_dir, "started", timeout_s=60):
            print("FAIL: no job started before the kill")
            return 1
        if not _wait_for_journal(state_dir, "rank_lost", timeout_s=60):
            print("FAIL: injected rank crash never fired")
            return 1
        # and one job has finished, so the kill leaves a final save whose
        # lines the restart's compaction must drop
        if not _wait_for_journal(state_dir, "completed", timeout_s=120):
            print("FAIL: no job completed before the kill")
            return 1
        # 3. kill -9: no graceful shutdown of any kind
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        print("killed server mid-service (SIGKILL)")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    # the restart compacts the checkpoint log: keep what the kill left,
    # so that jobs finished before it still have their final saves checked
    if os.path.isfile(checkpoints):
        shutil.copyfile(checkpoints, at_kill)

    # 4. the outage doesn't stop tenants from spooling more work —
    # including four same-molecule campaigns with distinct seeds, which
    # the restarted server must serve through the evaluation broker as
    # one batch group (asserted from status.json below)
    _submit(state_dir, "bob", kind="vqe", molecule="h2", geometry="0.7")
    _submit(state_dir, "carol", kind="adapt", molecule="h2", max_iterations="2")
    for k, tenant in enumerate(("alice", "bob", "carol", "dave")):
        _submit(state_dir, tenant, kind="vqe", molecule="h2", seed=str(k))

    # 5. restart; the journal replays, in-flight campaigns resume from
    # their checkpoints, the backlog drains
    restarted = _start_server(
        state_dir, "--crash-rank", "1", "--stop-when-idle", "--max-ticks", "500"
    )
    out, err = restarted.communicate(timeout=600)
    print(out.decode().strip())
    if restarted.returncode != 0:
        print(f"FAIL: restarted server exited {restarted.returncode}")
        print(err.decode())
        return 1

    # 6. verdicts, from the operator-visible surfaces only
    status = _cli("status", "--state-dir", state_dir, "--json")
    view = json.loads(status.stdout)
    failures = []

    nonterminal = [
        j for j in view["jobs"] if j["state"] in ("queued", "running")
    ]
    if nonterminal:
        failures.append(f"jobs stuck non-terminal: {nonterminal}")
    succeeded = [j for j in view["jobs"] if j["state"] == "succeeded"]
    if len(succeeded) != 10:
        failures.append(
            f"expected all 10 jobs to succeed, got {view['by_state']}"
        )
    if view["lost_ranks"] != [1]:
        failures.append(f"rank loss not durable: {view['lost_ranks']}")
    for job in succeeded:
        if job["energy"] is None or job["energy"] >= 0:
            failures.append(f"implausible energy on {job['job_id']}: {job}")

    journal = Journal(os.path.join(state_dir, "journal.jsonl")).replay()
    completions: dict = {}
    for rec in journal:
        if rec.type == "completed":
            jid = rec.payload["job_id"]
            completions[jid] = completions.get(jid, 0) + 1
    duplicated = {j: n for j, n in completions.items() if n != 1}
    if duplicated:
        failures.append(f"duplicated completions after replay: {duplicated}")
    if not any(r.type == "recovered" for r in journal):
        failures.append("restart never journaled a recovery marker")

    # 7. event-log replay consistency across the kill -9
    events = read_events(os.path.join(state_dir, "events.jsonl"))
    if not events:
        failures.append("no structured events survived the soak")
    seqs = [e.seq for e in events]
    if sorted(seqs) != seqs or len(set(seqs)) != len(seqs):
        failures.append(
            "event seq not strictly increasing across the restart"
        )
    if not any(e.type == "server.recovered" for e in events):
        failures.append("restart never emitted a server.recovered event")
    event_completions: dict = {}
    for e in events:
        if e.type == "job.completed":
            jid = e.attrs["job_id"]
            event_completions[jid] = event_completions.get(jid, 0) + 1
    dup_events = {j: n for j, n in event_completions.items() if n != 1}
    if dup_events:
        failures.append(f"duplicated completion events: {dup_events}")
    # every completion event must correspond to a journaled completion
    # (the journal is the source of truth; the event log may at worst
    # lose the final pre-kill record, never invent one)
    phantom = set(event_completions) - set(completions)
    if phantom:
        failures.append(f"completion events with no journal record: {phantom}")

    # 8. memory-ledger hygiene across the kill: the restarted server
    # replayed the journal, resumed/re-ran the backlog, and went idle —
    # its final status.json must show the accounting fully unwound.
    memory = (view.get("health") or {}).get("memory") or {}
    if not memory:
        failures.append("status.json carries no memory section")
    else:
        if memory.get("rank_memory_bytes", 0) <= 0:
            failures.append(f"no rank memory budget published: {memory}")
        if memory.get("queued_est_bytes", 0) != 0:
            failures.append(
                "predicted bytes still queued at idle (est-byte leak "
                f"through replay): {memory}"
            )
        if memory.get("running_est_bytes", 0) != 0:
            failures.append(
                f"predicted bytes still running at idle: {memory}"
            )
        live = memory.get("ledger_live_bytes", 0)
        peak = memory.get("ledger_peak_bytes", 0)
        if not 0 <= live <= peak:
            failures.append(f"ledger live/peak inconsistent: {memory}")
        # at idle only the shared problem cache (~0.4 MiB for the h2/h4
        # Hamiltonians + UCCSD generator observables) and the pooled
        # 4/8-qubit simulators may stay live; retaining even one job's
        # buffers past its terminal state would blow through this
        if live > 2 << 20:
            failures.append(
                f"ledger leak: {live} bytes live after drain "
                "(per-job buffers retained past terminal state?)"
            )

    # 9. the restarted server batched the in-flight same-molecule
    # campaigns (replayed submissions join waves like fresh ones) and
    # no completion was duplicated for them — the journal check above
    # already covers every job, this pins that batching was live
    batch = (view.get("health") or {}).get("batch") or {}
    if batch.get("batched_evals", 0) <= 0:
        failures.append(
            "restarted server never executed a multi-campaign batch "
            f"group despite 4 same-physics campaigns: {batch}"
        )

    # 10. the checkpoint log came through the kill: every finished
    # (non-dedup) job folds to its final save — in the copy taken at the
    # kill for jobs that were terminal when the restart compacted the
    # log, in the drained log for the rest — the compaction left no
    # line of those terminal jobs, and each warm-start family folds to
    # one entry per geometry its finished VQE campaigns converged at
    specs = {
        r.payload["job_id"]: JobSpec.from_dict(r.payload["spec"])
        for r in journal
        if r.type == "admitted"
    }
    journalled = {
        r.payload["job_id"]: r.payload["energy"]
        for r in journal
        if r.type == "completed"
    }
    restart_seq = next(r.seq for r in journal if r.type == "recovered")
    terminal_at_restart = {
        r.payload["job_id"]
        for r in journal
        if r.seq < restart_seq
        and r.type in ("completed", "failed", "timed_out", "shed", "rejected")
    }
    before, after = CheckpointLog(at_kill), CheckpointLog(checkpoints)
    expected_warm: dict = {}
    for job in succeeded:
        if job["dedup_hit"]:
            continue
        job_id = job["job_id"]
        spec = specs[job_id]
        log = before if job_id in terminal_at_restart else after
        failures += _final_save_failures(log, job_id, spec, journalled[job_id])
        if spec.kind != "adapt":
            expected_warm.setdefault(spec.family_key(), set()).add(spec.geometry)
    with open(checkpoints, "rb") as fh:
        kept = {line.get("key") for line in parse_lines(fh.read()) if isinstance(line, dict)}
    stale = sorted(kept & terminal_at_restart)
    if stale:
        failures.append(f"compaction kept lines of jobs terminal at the restart: {stale}")
    before.close()
    after.close()
    warm_dir = os.path.join(state_dir, "store", "warm")
    for name in sorted(os.listdir(warm_dir)):
        family = read_warm_family(os.path.join(warm_dir, name))
        want = expected_warm.get(name[: -len(".json")], set())
        if set(family) != want:
            failures.append(
                f"warm family {name} folds to geometries {sorted(family, key=str)}, "
                f"expected {sorted(want, key=str)}"
            )

    top = _cli("top", "--state-dir", state_dir, "--once", "--json", check=False)
    if top.returncode != 0:
        failures.append(f"repro top --once --json exited {top.returncode}")
    else:
        try:
            snap = json.loads(top.stdout)
            if snap.get("events_total", 0) < len(events):
                failures.append("repro top saw fewer events than the log holds")
        except json.JSONDecodeError:
            failures.append("repro top --json emitted unparseable output")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    resumed = sum(1 for j in view["jobs"] if j.get("resumed"))
    print(
        f"PASS: {len(succeeded)} jobs succeeded across the kill "
        f"({resumed} resumed from checkpoints, rank 1 lost and stayed lost, "
        f"{len(journal)} journal records, {len(events)} events replayed "
        f"consistently, no duplicated completions, "
        f"{batch.get('batched_evals', 0)} evaluations batched across "
        f"campaigns, "
        f"{memory.get('ledger_live_bytes', 0)} ledger bytes live at idle)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
