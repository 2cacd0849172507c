"""Tests for the cross-campaign evaluation broker (``repro.serve.broker``).

Covers the batched-vs-scalar plan equivalence claim (Hypothesis over
random ansatz families and widths, plus directed coverage of every
diagonal fast-path gate), the wave protocol's determinism and error
containment, group-atomic LPT placement, the end-to-end serve claim —
eight same-molecule campaigns batched to the same energies as
sequential serving — and the broker's ledger/stats surfaces.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hpc.scheduler import BatchScheduler, Job
from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.library import hardware_efficient_ansatz
from repro.ir.pauli import PauliSum
from repro.serve import (
    CampaignServer,
    Journal,
    JobSpec,
    JobState,
    ServerConfig,
)
from repro.serve.broker import BrokeredEstimator, EvaluationBroker
from repro.serve.spec import estimate_group_memory
from repro.serve.store import ProblemCache
from repro.sim.batched import BatchedStatevectorSimulator
from repro.sim.expectation import expectation_direct
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _scalar_reference(plan, rows):
    """One-row-at-a-time plan execution (the pre-broker path)."""
    out = []
    for row in rows:
        sim = StatevectorSimulator(plan.num_qubits)
        sim.run_plan(plan, row)
        out.append(sim.statevector(copy=True))
    return np.array(out)


def _random_observable(num_qubits, rng, terms=4):
    labels = {}
    for _ in range(terms):
        label = "".join(rng.choice(list("IXYZ")) for _ in range(num_qubits))
        labels[label] = float(rng.uniform(-1, 1))
    return PauliSum.from_label_dict(labels)


# -- batched plan execution == scalar plan execution --------------------------


class TestBatchedPlanEquivalence:
    @settings(max_examples=20)
    @given(
        num_qubits=st.integers(min_value=2, max_value=5),
        layers=st.integers(min_value=1, max_value=2),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hea_plans_match_scalar(self, num_qubits, layers, batch, seed):
        rng = np.random.default_rng(seed)
        ansatz = hardware_efficient_ansatz(num_qubits, layers=layers)
        plan = compile_circuit(ansatz)
        rows = rng.uniform(-np.pi, np.pi, size=(batch, plan.num_parameters))
        sim = BatchedStatevectorSimulator(num_qubits, batch)
        got = sim.run_plan(plan, rows)
        ref = _scalar_reference(plan, rows)
        assert np.allclose(got, ref, atol=1e-10)

    @settings(max_examples=10)
    @given(
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_uccsd_plans_match_scalar(self, batch, seed):
        from repro.chem.uccsd import build_uccsd_circuit

        rng = np.random.default_rng(seed)
        circuit = build_uccsd_circuit(4, 2).circuit
        plan = compile_circuit(circuit)
        rows = rng.uniform(-0.5, 0.5, size=(batch, plan.num_parameters))
        sim = BatchedStatevectorSimulator(4, batch)
        got = sim.run_plan(plan, rows)
        ref = _scalar_reference(plan, rows)
        assert np.allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize(
        "gate", ["rz", "p", "rzz", "cp", "crz", "rx", "ry", "rxx", "ryy"]
    )
    def test_every_parametric_gate_matches_scalar(self, gate, rng):
        """Directed coverage of the rotation steps (rz/rzz/rx/ry/rxx/ryy)
        and the diagonal phase gates (p/cp/crz) — including the 2q
        controlled phases the batched simulator used to reject."""
        c = Circuit(3).h(0).h(1).h(2)
        nq = 2 if gate in ("rzz", "rxx", "ryy", "cp", "crz") else 1
        c.add(gate, [0, 2][:nq], Parameter("a", coeff=0.7, offset=-0.2))
        c.cx(0, 1)
        plan = compile_circuit(c)
        batch = 5
        rows = rng.uniform(-2 * np.pi, 2 * np.pi, size=(batch, 1))
        sim = BatchedStatevectorSimulator(3, batch)
        got = sim.run_plan(plan, rows)
        ref = _scalar_reference(plan, rows)
        assert np.allclose(got, ref, atol=1e-12)

    def test_direct_run_supports_cp_and_crz(self, rng):
        """The ``run`` (circuit template) path is compile + ``run_plan``;
        cp/crz work there too."""
        for gate in ("cp", "crz"):
            c = Circuit(2).h(0).h(1)
            c.add(gate, [0, 1], Parameter("a"))
            batch = 3
            table = {"a": rng.uniform(-np.pi, np.pi, size=batch)}
            sim = BatchedStatevectorSimulator(2, batch)
            sim.run(c, table)
            for b in range(batch):
                ref = StatevectorSimulator(2).run(
                    c.bind({"a": float(table["a"][b])})
                )
                assert np.allclose(sim.states[b], ref, atol=1e-12)

    def test_unsupported_gate_error_names_gate(self):
        c = Circuit(1).add("u3", [0], Parameter("a"), 0.1, 0.2)
        with pytest.raises(ValueError, match="u3"):
            BatchedStatevectorSimulator(1, 2).run(c, {"a": np.zeros(2)})


# -- the wave protocol --------------------------------------------------------


def _run_workers(broker, worker_fns):
    """Server-tick shape: register workers, start threads, pump."""
    results = {}
    errors = {}

    def wrap(i, fn):
        try:
            results[i] = fn()
        except Exception as err:  # noqa: BLE001 — asserted by tests
            errors[i] = err
        finally:
            broker.worker_finished()

    threads = []
    for i, fn in enumerate(worker_fns):
        broker.worker_started()
        threads.append(threading.Thread(target=wrap, args=(i, fn), daemon=True))
    for t in threads:
        t.start()
    broker.pump()
    for t in threads:
        t.join()
    return results, errors


class TestEvaluationBroker:
    def _setup(self, rng, num_qubits=3):
        ansatz = hardware_efficient_ansatz(num_qubits, layers=1)
        plan = compile_circuit(ansatz)
        ham = _random_observable(num_qubits, rng)
        return plan, ham

    def test_same_physics_campaigns_share_one_group(self, rng):
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        xs = rng.uniform(-1, 1, size=(4, plan.num_parameters))

        def make_worker(k):
            est = BrokeredEstimator(broker, group_key="phys", tag=f"j{k}")
            return lambda: est.estimate_plan(plan, xs[k], ham)

        results, errors = _run_workers(broker, [make_worker(k) for k in range(4)])
        assert not errors
        ref = _scalar_reference(plan, xs)
        for k in range(4):
            assert results[k] == pytest.approx(
                expectation_direct(ref[k], ham), abs=1e-10
            )
        stats = broker.stats()
        assert stats["waves"] == 1
        assert stats["groups_executed"] == 1
        assert stats["batched_evals"] == 4
        assert stats["solo_evals"] == 0
        assert stats["max_occupancy"] == 4

    def test_distinct_physics_split_into_groups(self, rng):
        plan_a, ham_a = self._setup(rng, num_qubits=2)
        plan_b, ham_b = self._setup(rng, num_qubits=3)
        broker = EvaluationBroker(batch_size=8)
        xa = rng.uniform(-1, 1, size=plan_a.num_parameters)
        xb = rng.uniform(-1, 1, size=plan_b.num_parameters)
        est_a = BrokeredEstimator(broker, group_key="a")
        est_b = BrokeredEstimator(broker, group_key="b")
        results, errors = _run_workers(
            broker,
            [
                lambda: est_a.estimate_plan(plan_a, xa, ham_a),
                lambda: est_b.estimate_plan(plan_b, xb, ham_b),
            ],
        )
        assert not errors
        stats = broker.stats()
        assert stats["groups_executed"] == 2
        assert stats["solo_evals"] == 2
        assert stats["batched_evals"] == 0

    def test_block_submission_is_atomic_and_ordered(self, rng):
        """A multi-row submission (an FD sweep) resolves as one block,
        in submission row order."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=4)  # smaller than the block
        rows = rng.uniform(-1, 1, size=(7, plan.num_parameters))
        est = BrokeredEstimator(broker, group_key="phys", tag="j0")
        results, errors = _run_workers(
            broker, [lambda: est.estimate_plan_many(plan, rows, ham)]
        )
        assert not errors
        ref = _scalar_reference(plan, rows)
        expected = [expectation_direct(s, ham) for s in ref]
        assert np.allclose(results[0], expected, atol=1e-10)

    def test_multi_round_campaigns_stay_in_lockstep(self, rng):
        """Workers that evaluate repeatedly re-batch on every wave:
        R rounds of W workers = R waves of occupancy W, regardless of
        thread scheduling.  Run twice to pin determinism of the stats."""
        plan, ham = self._setup(rng)
        rounds, workers = 3, 4

        def run_once():
            broker = EvaluationBroker(batch_size=8)

            def make_worker(k):
                est = BrokeredEstimator(broker, group_key="phys", tag=f"j{k}")

                def work():
                    out = []
                    for r in range(rounds):
                        x = np.full(plan.num_parameters, 0.1 * (k + 1) + 0.01 * r)
                        out.append(est.estimate_plan(plan, x, ham))
                    return out

                return work

            results, errors = _run_workers(
                broker, [make_worker(k) for k in range(workers)]
            )
            assert not errors
            return results, broker.stats()

        results1, stats1 = run_once()
        results2, stats2 = run_once()
        assert stats1 == stats2
        assert stats1["waves"] == rounds
        assert stats1["max_occupancy"] == workers
        assert stats1["batched_evals"] == rounds * workers
        for k in range(workers):
            assert results1[k] == results2[k]

    def test_many_workers_stay_in_lockstep_under_fast_switching(self, rng):
        """More workers than cores, each sleeping on its own future while
        the interpreter switches threads every microsecond: every round
        is still one wave carrying every worker's row."""
        import sys

        plan, ham = self._setup(rng)
        rounds, workers = 5, 24
        broker = EvaluationBroker(batch_size=workers)

        def make_worker(k):
            est = BrokeredEstimator(broker, group_key="phys", tag=f"j{k}")
            x = np.full(plan.num_parameters, 0.05 * (k + 1))
            return lambda: [est.estimate_plan(plan, x + 0.01 * r, ham) for r in range(rounds)]

        fns = [make_worker(k) for k in range(workers)]
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: outcome.extend(_run_workers(broker, fns)), daemon=True
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "broker deadlocked"
        results, errors = outcome
        assert not errors and len(results) == workers
        stats = broker.stats()
        assert stats["waves"] == rounds
        assert stats["groups_executed"] == rounds
        assert stats["max_occupancy"] == workers
        assert stats["batched_evals"] == rounds * workers

    def test_group_failure_reaches_only_its_workers(self, rng):
        """A bad request poisons its own group; other groups in the
        same wave still resolve."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        good = BrokeredEstimator(broker, group_key="good")
        bad = BrokeredEstimator(broker, group_key="bad")
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        wrong = rng.uniform(-1, 1, size=plan.num_parameters + 1)
        results, errors = _run_workers(
            broker,
            [
                lambda: good.estimate_plan(plan, x, ham),
                lambda: bad.estimate_plan(plan, wrong, ham),
            ],
        )
        assert 0 in results and 1 in errors
        assert isinstance(errors[1], ValueError)

    def test_mixed_wave_runs_value_and_gradient_groups_apart(self, rng):
        """Value-only and gradient requests under one physics key run as
        two groups; each future gets its own shape back."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        rows = rng.uniform(-1, 1, size=(3, plan.num_parameters))
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        values = broker.submit(plan, rows, ham, "phys", tag="j0")
        both = broker.submit(plan, x, ham, "phys", tag="j1", gradient=True)
        broker.pump()  # no live workers: runs the one pending wave
        stats = broker.stats()
        assert (stats["waves"], stats["groups_executed"]) == (1, 2)
        assert stats["batched_evals"] == 0 and stats["solo_evals"] == 4
        ref = _scalar_reference(plan, rows)
        assert values.result().shape == (3,)
        assert np.allclose(values.result(), [expectation_direct(s, ham) for s in ref])
        value, grad = both.result()
        assert value.shape == (1,) and grad.shape == (1, plan.num_parameters)
        from repro.opt.parameter_shift import parameter_shift_gradient

        exact = parameter_shift_gradient(plan.source, ham, x)
        assert np.allclose(grad[0], exact, atol=1e-12)

    def test_gradient_group_failure_reaches_only_its_futures(self, rng):
        """A gradient group that raises resolves its own futures with
        the error; the value-only group of the same key still resolves."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        good = broker.submit(plan, x, ham, "phys")
        bad = broker.submit(plan, np.append(x, 0.0), ham, "phys", gradient=True)
        broker.pump()
        assert good.result().shape == (1,)
        with pytest.raises(ValueError, match="parameter rows"):
            bad.result()

    def test_pump_with_no_workers_returns(self):
        EvaluationBroker().pump()  # no hang, nothing to do

    def test_rejects_silly_batch_size(self):
        with pytest.raises(ValueError):
            EvaluationBroker(batch_size=0)

    def test_occupancy_metrics_emitted_when_enabled(self, rng):
        obs.enable()
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        xs = rng.uniform(-1, 1, size=(3, plan.num_parameters))

        def make_worker(k):
            est = BrokeredEstimator(broker, group_key="phys", tag=f"j{k}")
            return lambda: est.estimate_plan(plan, xs[k], ham)

        _run_workers(broker, [make_worker(k) for k in range(3)])
        snaps = {m["name"]: m for m in obs.get_registry().snapshot()}
        assert snaps["repro_serve_batched_evals_total"]["value"] == 3.0
        occ = snaps["repro_serve_batch_occupancy"]
        assert occ["count"] == 1 and occ["sum"] == 3.0

    def test_ledger_sees_serve_batch_category(self, rng):
        obs.enable()
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        est = BrokeredEstimator(broker, group_key="phys")
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        _run_workers(broker, [lambda: est.estimate_plan(plan, x, ham)])
        peaks = obs.get_memory_ledger().peak_by_category
        assert peaks.get("serve.batch", 0) > 0


# -- physics-tier problem sharing ---------------------------------------------


class TestPhysicsSharing:
    def test_physics_key_ignores_solver_knobs(self):
        a = JobSpec(tenant="alice", molecule="h2", seed=1)
        b = JobSpec(tenant="bob", molecule="h2", seed=2, priority=3)
        c = JobSpec(tenant="bob", molecule="h2", geometry=0.9)
        assert a.physics_key() == b.physics_key()
        assert a.content_key() != b.content_key()
        assert a.physics_key() != c.physics_key()

    def test_problem_cache_aliases_same_physics(self):
        cache = ProblemCache()
        a = cache.get(JobSpec(tenant="t", molecule="h2", seed=1))
        b = cache.get(JobSpec(tenant="t", molecule="h2", seed=2))
        assert a is b  # same dict => same plan object => one batch group
        assert cache.physics_hits == 1
        assert a.get("ansatz") is not None

    def test_group_memory_estimate_scales_by_rows_not_jobs(self):
        from repro.serve.spec import estimate_job_memory

        spec = JobSpec(tenant="t", molecule="h2")
        one = estimate_group_memory([spec])
        eight = estimate_group_memory([spec] * 8)
        assert one == estimate_job_memory(spec)
        # 7 extra rows of the sweep's (2B, 2^n) block plus B-row H psi,
        # NOT 7 extra full jobs
        assert eight == one + 7 * 3 * 16 * (1 << 4)
        assert eight < 8 * one
        # a second geometry on the same plan adds its Hamiltonian: 15
        # term entries and 2 compiled passes (two diagonals, one gather)
        scan = [spec, JobSpec(tenant="t", molecule="h2", geometry=0.9)]
        two = estimate_group_memory([spec] * 2)
        assert estimate_group_memory(scan) == two + 15 * 96 + (2 * 16 + 8) * (1 << 4)


# -- group-atomic scheduling --------------------------------------------------


class TestGroupScheduling:
    def test_groups_stay_whole_on_one_rank(self):
        jobs = [Job(f"j{i}", num_qubits=4, num_gates=50) for i in range(6)]
        sched = BatchScheduler(num_ranks=4)
        placed = sched.schedule_groups([(jobs[:4], 1000), (jobs[4:], 500)])
        homes = {}
        for rank, members in placed.assignments.items():
            for job in members:
                homes[job.name] = rank
        assert len({homes[f"j{i}"] for i in range(4)}) == 1
        assert len({homes[f"j{i}"] for i in range(4, 6)}) == 1
        assert placed.rank_bytes[homes["j0"]] >= 1000

    def test_group_bytes_respect_rank_capacity(self):
        jobs_a = [Job("a0", 4, 50), Job("a1", 4, 50)]
        jobs_b = [Job("b0", 4, 50), Job("b1", 4, 50)]
        sched = BatchScheduler(num_ranks=2)
        placed = sched.schedule_groups(
            [(jobs_a, 900), (jobs_b, 900)], rank_capacity_bytes=1000
        )
        ranks = {
            job.name: rank
            for rank, members in placed.assignments.items()
            for job in members
        }
        assert ranks["a0"] != ranks["b0"]  # both on one rank would burst 1000

    def test_empty_groups_skipped(self):
        sched = BatchScheduler(num_ranks=2)
        placed = sched.schedule_groups([([], 100), ([Job("x", 4, 10)], 64)])
        assert sum(len(v) for v in placed.assignments.values()) == 1


# -- end-to-end serving -------------------------------------------------------


def _submit_fleet(srv, n, molecule="h2"):
    jobs = []
    for k in range(n):
        jobs.append(
            srv.submit(JobSpec(tenant=f"t{k}", molecule=molecule, seed=k))
        )
    return jobs


class TestServeBatched:
    def test_eight_campaigns_batch_to_sequential_energies(self, tmp_path):
        """The headline equivalence claim: 8 same-molecule campaigns
        with distinct seeds served batched reach the same energies as
        --no-batch sequential serving, to 1e-10."""
        n = 8
        batched = CampaignServer(
            str(tmp_path / "batched"), ServerConfig(num_ranks=2)
        )
        _submit_fleet(batched, n)
        batched.run(stop_when_idle=True, max_ticks=40)
        batched_energies = {
            j.spec.content_key(): j.energy for j in batched.jobs.values()
        }
        assert all(
            j.state == JobState.SUCCEEDED for j in batched.jobs.values()
        )
        stats = batched.broker.stats()
        assert stats["batched_evals"] > 0
        assert stats["max_occupancy"] >= 2
        batched.close()

        solo = CampaignServer(
            str(tmp_path / "solo"),
            ServerConfig(num_ranks=2, batch_enabled=False),
        )
        assert solo.broker is None
        _submit_fleet(solo, n)
        solo.run(stop_when_idle=True, max_ticks=40)
        for j in solo.jobs.values():
            assert j.state == JobState.SUCCEEDED
            assert j.energy == pytest.approx(
                batched_energies[j.spec.content_key()], abs=1e-10
            )
        solo.close()

    def test_h4_fleet_batched_equals_solo_with_one_row_per_iterate(self, tmp_path):
        """8 H4 campaigns on exact gradients: the broker's block sweep
        and --no-batch's one-row sweep give equal energies and identical
        evaluation counts, and the broker ran one row per evaluation."""
        runs = {}
        for name, batch in (("batched", True), ("solo", False)):
            srv = CampaignServer(
                str(tmp_path / name), ServerConfig(num_ranks=2, batch_enabled=batch)
            )
            _submit_fleet(srv, 8, molecule="h4")
            srv.run(stop_when_idle=True, max_ticks=40)
            assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
            runs[name] = {
                j.spec.content_key(): (
                    j.energy,
                    srv.store.get_result(j.spec.content_key())["evaluations"],
                )
                for j in srv.jobs.values()
            }
            if batch:
                stats = srv.broker.stats()
                evaluations = sum(n for _, n in runs[name].values())
                assert stats["batched_evals"] + stats["solo_evals"] == evaluations
                assert stats["max_occupancy"] == 8
            srv.close()
        for key, (energy, evaluations) in runs["batched"].items():
            assert runs["solo"][key][0] == pytest.approx(energy, abs=1e-10)
            assert runs["solo"][key][1] == evaluations

    def test_distinct_seeds_are_distinct_campaigns(self, tmp_path):
        """Seeded jitter makes same-molecule different-seed submissions
        genuinely independent optimizations (distinct content keys, no
        dedup), which is what gives the broker real work to batch."""
        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=2))
        jobs = _submit_fleet(srv, 4)
        assert len({j.spec.content_key() for j in jobs}) == 4
        srv.run(stop_when_idle=True, max_ticks=40)
        assert not any(srv.jobs[j.job_id].dedup_hit for j in jobs)
        srv.close()

    def test_health_reports_batch_stats(self, tmp_path):
        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=2))
        _submit_fleet(srv, 3)
        srv.run(stop_when_idle=True, max_ticks=40)
        batch = srv.health()["batch"]
        assert batch["enabled"]
        assert batch["evals_total"] > 0
        assert batch["mean_occupancy"] > 0
        srv.close()

        off = CampaignServer(
            str(tmp_path / "off"),
            ServerConfig(num_ranks=2, batch_enabled=False),
        )
        assert off.health()["batch"] == {"enabled": False}
        off.close()

    def test_dashboard_surfaces_batch_stats(self, tmp_path):
        from repro.obs.dashboard import Dashboard

        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=2))
        _submit_fleet(srv, 2)
        srv.run(stop_when_idle=True, max_ticks=40)
        srv.close()
        snap = Dashboard(str(tmp_path / "srv")).snapshot()
        assert snap["batch"]["enabled"]
        assert snap["batch"]["evals_total"] > 0
        screen = Dashboard(str(tmp_path / "srv")).render(snap)
        assert "batch:" in screen

    def test_kill_restart_no_duplicate_completions(self, tmp_path):
        """kill -9 mid-batched-service: the restarted server resumes
        in-flight campaigns, reaches control energies, and no job
        completes twice."""
        cfg = ServerConfig(num_ranks=2)
        control = CampaignServer(str(tmp_path / "control"), cfg)
        _submit_fleet(control, 4)
        control.run(stop_when_idle=True, max_ticks=40)
        control_energies = {
            j.spec.content_key(): j.energy for j in control.jobs.values()
        }
        control.close()

        srv = CampaignServer(str(tmp_path / "srv"), cfg)
        _submit_fleet(srv, 4)
        srv.tick()
        srv.close()  # kill -9: broker, executions, caches all gone

        srv2 = CampaignServer(str(tmp_path / "srv"), cfg)
        srv2.run(stop_when_idle=True, max_ticks=40)
        for j in srv2.jobs.values():
            assert j.state == JobState.SUCCEEDED
            assert j.energy == pytest.approx(
                control_energies[j.spec.content_key()], abs=1e-10
            )
        completions = {}
        journal = Journal(os.path.join(srv2.state_dir, "journal.jsonl"))
        for rec in journal.replay():
            if rec.type == "completed":
                jid = rec.payload["job_id"]
                completions[jid] = completions.get(jid, 0) + 1
        assert completions and all(n == 1 for n in completions.values())
        srv2.close()
