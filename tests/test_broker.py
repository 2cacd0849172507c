"""Tests for the cross-campaign evaluation broker (``repro.serve.broker``).

Covers the batched-vs-scalar plan equivalence claim (Hypothesis over
random ansatz families and widths, plus directed coverage of every
diagonal fast-path gate), the wave loop's grouping and error
containment, group-atomic LPT placement, the end-to-end serve claim —
same-molecule campaigns batched to the same energies as sequential
(``batch_size=1``) serving, on the server thread alone — and the
broker's ledger/stats surfaces.
"""

import os
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hpc.scheduler import BatchScheduler, Job
from repro.ir.circuit import Circuit
from repro.ir.compiled import compile_observable
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
from repro.serve.broker import EvaluationBroker
from repro.serve.spec import estimate_group_memory
from repro.serve.store import ProblemCache
from repro.sim.batched import BatchedStatevectorSimulator
from repro.sim.expectation import expectation_direct
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator
from tests.row_campaign import RowCampaign


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


# -- the wave loop -------------------------------------------------------------


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
        group = [RowCampaign(plan, ham, x) for x in xs]
        assert broker.pump([("phys", c) for c in group])[0] == [None] * 4
        ref = _scalar_reference(plan, xs)
        from repro.opt.parameter_shift import parameter_shift_gradient

        for k, c in enumerate(group):
            assert c.values[0] == pytest.approx(expectation_direct(ref[k], ham), abs=1e-10)
            exact = parameter_shift_gradient(plan.source, ham, xs[k])
            assert np.allclose(c.gradients[0], exact, atol=1e-12)
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
        a = RowCampaign(plan_a, ham_a, rng.uniform(-1, 1, size=plan_a.num_parameters))
        b = RowCampaign(plan_b, ham_b, rng.uniform(-1, 1, size=plan_b.num_parameters))
        assert broker.pump([("a", a), ("b", b)])[0] == [None, None]
        stats = broker.stats()
        assert stats["groups_executed"] == 2
        assert stats["solo_evals"] == 2
        assert stats["batched_evals"] == 0

    def test_waves_run_until_the_longest_campaign_ends(self, rng):
        """One wave per round: campaigns that end early leave the later
        waves (and are charged only the waves they took part in), and
        batch_size only cuts a group into sweeps, which the occupancy
        stats count."""
        plan, ham = self._setup(rng)
        runs = {}
        for batch_size in (1, 8):
            broker = EvaluationBroker(batch_size=batch_size)
            group = [
                RowCampaign(plan, ham, 0.1 * (k + 1) + 0.01 * np.arange(k + 1)[:, None]
                            * np.ones(plan.num_parameters))
                for k in range(3)
            ]
            errors, charged_s = broker.pump([("phys", c) for c in group])
            assert errors == [None] * 3
            assert 0.0 < charged_s[0] <= charged_s[1] <= charged_s[2]
            runs[batch_size] = [c.values for c in group]
            stats = broker.stats()
            assert stats["waves"] == 3
            assert [len(c.values) for c in group] == [1, 2, 3]
            sweeps = {1: (0, 6, 6, 1), 8: (5, 1, 3, 3)}[batch_size]
            assert sweeps == (
                stats["batched_evals"],
                stats["solo_evals"],
                stats["groups_executed"],
                stats["max_occupancy"],
            )
        assert runs[1] == runs[8]

    def test_group_failure_reaches_only_its_workers(self, rng):
        """A bad row fails its own group's campaigns; the other group of
        the same wave still gets its answers, and a campaign whose tell
        raises ends alone."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        good = RowCampaign(plan, ham, [x, x + 0.1])
        bad = RowCampaign(plan, ham, np.append(x, 0.0))
        also_bad = RowCampaign(plan, ham, np.append(x, 1.0))

        class Refuses(RowCampaign):
            def tell(self, value, gradient):
                raise OSError("checkpoint disk full")

        refuses = Refuses(plan, ham, x)
        errors, _ = broker.pump(
            [("good", good), ("bad", bad), ("bad", also_bad), ("good", refuses)]
        )
        assert errors[0] is None and len(good.values) == 2
        assert isinstance(errors[1], ValueError) and errors[2] is errors[1]
        assert isinstance(errors[3], OSError)

    def test_ask_failure_ends_only_its_campaign(self, rng):
        """An ask() that raises (an ADAPT screen, say) ends that campaign
        alone, as a raising tell does: the pump goes on for the rest."""
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        x = rng.uniform(-1, 1, size=plan.num_parameters)

        class Breaks(RowCampaign):
            def ask(self):
                if self.values:
                    raise RuntimeError("pool screen failed")
                return super().ask()

        good = RowCampaign(plan, ham, [x, x + 0.1, x + 0.2])
        breaks = Breaks(plan, ham, [x, x + 0.1])
        errors, charged_s = broker.pump([("p", breaks), ("p", good)])
        assert isinstance(errors[0], RuntimeError) and errors[1] is None
        assert (len(breaks.values), len(good.values)) == (1, 3)
        assert 0.0 < charged_s[0] <= charged_s[1]

    def test_each_campaign_is_charged_only_its_own_sweeps(self, rng):
        """Two groups share three waves; the slow group's sweeps (a 50 ms
        observable apply each) are charged to the slow campaign alone."""
        delay = 0.05

        class SlowObservable:
            def __init__(self, hamiltonian, plan):
                self.compiled = compile_observable(hamiltonian, plan.index)

            def apply(self, block):
                time.sleep(delay)
                return self.compiled.apply(block)

        plan_slow, ham_slow = self._setup(rng, num_qubits=2)
        plan_fast, ham_fast = self._setup(rng, num_qubits=3)
        slow = RowCampaign(
            plan_slow,
            SlowObservable(ham_slow, plan_slow),
            rng.uniform(-1, 1, size=(3, plan_slow.num_parameters)),
        )
        fast = RowCampaign(
            plan_fast, ham_fast, rng.uniform(-1, 1, size=(3, plan_fast.num_parameters))
        )
        broker = EvaluationBroker(batch_size=8)
        errors, charged_s = broker.pump([("a-slow", slow), ("b-fast", fast)])
        assert errors == [None, None]
        assert broker.stats()["waves"] == 3
        assert charged_s[0] >= 3 * delay
        assert charged_s[1] < delay

    def test_rejects_silly_batch_size(self):
        with pytest.raises(ValueError):
            EvaluationBroker(batch_size=0)

    def test_occupancy_metrics_emitted_when_enabled(self, rng):
        obs.enable()
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        xs = rng.uniform(-1, 1, size=(3, plan.num_parameters))
        broker.pump([("phys", RowCampaign(plan, ham, x)) for x in xs])
        snaps = {m["name"]: m for m in obs.get_registry().snapshot()}
        assert snaps["repro_serve_batched_evals_total"]["value"] == 3.0
        occ = snaps["repro_serve_batch_occupancy"]
        assert occ["count"] == 1 and occ["sum"] == 3.0

    def test_ledger_sees_serve_batch_category(self, rng):
        obs.enable()
        plan, ham = self._setup(rng)
        broker = EvaluationBroker(batch_size=8)
        x = rng.uniform(-1, 1, size=plan.num_parameters)
        broker.pump([("phys", RowCampaign(plan, ham, x))])
        peaks = obs.get_memory_ledger().peak_by_category
        assert peaks.get("serve.batch", 0) > 0


# -- physics-tier problem sharing ---------------------------------------------


def _blocked_uccsd(n_so, n_e):
    """A stand-in UCCSD build whose generator no plan can lower (it is
    Hermitian, not anti-Hermitian)."""
    generator = PauliSum.from_label_dict({"XY" + "I" * (n_so - 2): 1.0})
    return types.SimpleNamespace(circuit=Circuit(n_so), generators=[((0, 1), generator)])


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

    def test_every_geometry_shares_one_sector_plan(self):
        """Served VQE runs the UCCSD generators lowered once per shape to
        the (N, S_z) sector: no Z2 masks, so every geometry gets the
        same plan object; the circuit is kept but not compiled."""
        cache = ProblemCache()
        a = cache.get(JobSpec(tenant="t", molecule="h4"))
        b = cache.get(JobSpec(tenant="t", molecule="h4", geometry=1.1))
        assert a["plan"] is b["plan"] and a["ansatz"] is b["ansatz"]
        assert a["plan"].dim == 36 and a["plan"].num_parameters == len(a["generators"]) == 26
        assert a["plan"].rotation_steps == a["plan"].num_ops

    @pytest.mark.parametrize("molecule", ["h2", "h4", "lih"])
    def test_sector_plan_matches_the_circuit(self, molecule):
        """The served plan and the compiled UCCSD circuit, the oracle,
        give the same energies and gradients at random rows."""
        from repro.sim.batched import reverse_value_and_gradient

        problem = ProblemCache().get(JobSpec(tenant="t", molecule=molecule))
        hq, plan = problem["hamiltonian"], problem["plan"]
        circuit_plan = compile_circuit(problem["ansatz"])
        assert circuit_plan.parameters == plan.parameters
        rows = np.random.default_rng(7).uniform(-0.3, 0.3, size=(5, plan.num_parameters))
        values, grads = reverse_value_and_gradient(plan, hq, rows)
        want_values, want_grads = reverse_value_and_gradient(circuit_plan, hq, rows)
        assert np.max(np.abs(values - want_values)) < 1e-12
        assert np.max(np.abs(grads - want_grads)) < 1e-12

    def test_unlowerable_generators_fail_at_build_naming_the_molecule(self, monkeypatch):
        monkeypatch.setattr("repro.serve.store.build_uccsd_circuit", _blocked_uccsd)
        with pytest.raises(ValueError, match="'h2'.*anti-Hermitian"):
            ProblemCache().get(JobSpec(tenant="t", molecule="h2"))

    def test_unbuildable_problem_fails_the_job_not_the_tick(self, tmp_path, monkeypatch):
        """A served job whose problem build raises is a failed attempt
        (retried, then failed with the reason); the tick goes on."""
        monkeypatch.setattr("repro.serve.store.build_uccsd_circuit", _blocked_uccsd)
        clock = {"t": 0.0}
        srv = CampaignServer(
            str(tmp_path / "srv"),
            ServerConfig(num_ranks=2, max_job_attempts=2, clock=lambda: clock["t"]),
        )
        job = srv.submit(JobSpec(tenant="t", molecule="h2"))
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.QUEUED  # retry scheduled
        clock["t"] += 10.0
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.FAILED
        assert "'h2'" in srv.jobs[job.job_id].detail
        srv.close()

    def test_unbuildable_problem_of_a_recovered_running_job_fails_the_job(
        self, tmp_path, monkeypatch
    ):
        """A journal killed with the job RUNNING (between its ``started``
        record and the end of its build) restarts into ticks that fail
        the job, not ticks that raise on every restart."""
        clock = {"t": 0.0}
        # three attempts: the killed one counts
        config = ServerConfig(num_ranks=2, max_job_attempts=3, clock=lambda: clock["t"])
        first = CampaignServer(str(tmp_path / "srv"), config)
        job = first.submit(JobSpec(tenant="t", molecule="h2"))
        first.state.apply(
            first.journal.append("started", job_id=job.job_id, rank=0, attempt=1)
        )
        assert first.jobs[job.job_id].state == JobState.RUNNING
        first.close()  # kill -9 mid-build

        monkeypatch.setattr("repro.serve.store.build_uccsd_circuit", _blocked_uccsd)
        srv = CampaignServer(str(tmp_path / "srv"), config)
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.QUEUED  # retry scheduled
        clock["t"] += 10.0
        srv.tick()
        assert srv.jobs[job.job_id].state == JobState.FAILED
        assert "'h2'" in srv.jobs[job.job_id].detail
        srv.close()

    def test_group_memory_estimate_scales_by_rows_not_jobs(self):
        from repro.serve.spec import estimate_job_memory

        spec = JobSpec(tenant="t", molecule="h2")
        one = estimate_group_memory([spec])
        eight = estimate_group_memory([spec] * 8)
        assert one == estimate_job_memory(spec)
        # 7 extra rows of the sweep's (2B, D) block plus B-row H psi on
        # the D = 4 amplitudes of H2's sector, each with its 3
        # parameters, 3 gradient entries and value: NOT 7 extra full jobs
        assert eight == one + 7 * (3 * 16 * 4 + 8 * (2 * 3 + 1))
        assert eight < 8 * one
        # a second geometry on the same plan adds its Hamiltonian: 15
        # term entries and 2 compiled passes (two diagonals, one gather)
        scan = [spec, JobSpec(tenant="t", molecule="h2", geometry=0.9)]
        two = estimate_group_memory([spec] * 2)
        assert estimate_group_memory(scan) == two + 15 * 96 + (2 * 16 + 8) * 4


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
        sequential serving (batch_size=1), to 1e-10."""
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
            ServerConfig(num_ranks=2, batch_size=1),
        )
        _submit_fleet(solo, n)
        solo.run(stop_when_idle=True, max_ticks=40)
        for j in solo.jobs.values():
            assert j.state == JobState.SUCCEEDED
            assert j.energy == pytest.approx(
                batched_energies[j.spec.content_key()], abs=1e-10
            )
        solo.close()

    def test_h4_fleet_batched_equals_solo_with_one_row_per_iterate(self, tmp_path):
        """8 H4 campaigns on exact gradients: batch_size 32's block sweep
        and batch_size 1's one-row sweeps give bit-identical energies and
        evaluation counts, and the broker ran one row per evaluation."""
        runs = {}
        for batch_size in (32, 1):
            srv = CampaignServer(
                str(tmp_path / str(batch_size)),
                ServerConfig(num_ranks=2, batch_size=batch_size),
            )
            _submit_fleet(srv, 8, molecule="h4")
            srv.run(stop_when_idle=True, max_ticks=40)
            assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
            runs[batch_size] = {
                j.spec.content_key(): (
                    j.energy,
                    srv.store.get_result(j.spec.content_key())["evaluations"],
                )
                for j in srv.jobs.values()
            }
            stats = srv.broker.stats()
            evaluations = sum(n for _, n in runs[batch_size].values())
            assert stats["batched_evals"] + stats["solo_evals"] == evaluations
            if batch_size == 32:
                # 4 + 4 jobs start on the 2 ranks in one tick: one group
                assert stats["max_occupancy"] == 8
            else:
                assert (stats["batched_evals"], stats["max_occupancy"]) == (0, 1)
            srv.close()
        assert runs[1] == runs[32]

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
        assert batch["evals_total"] > 0
        assert batch["mean_occupancy"] > 0
        srv.close()

        idle = CampaignServer(
            str(tmp_path / "idle"),
            ServerConfig(num_ranks=2, batch_size=1),
        )
        batch = idle.health()["batch"]
        assert (batch["batch_size"], batch["evals_total"]) == (1, 0)
        idle.close()

    def test_dashboard_surfaces_batch_stats(self, tmp_path):
        from repro.obs.dashboard import Dashboard

        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=2))
        _submit_fleet(srv, 2)
        srv.run(stop_when_idle=True, max_ticks=40)
        srv.close()
        snap = Dashboard(str(tmp_path / "srv")).snapshot()
        assert snap["batch"]["evals_total"] > 0
        screen = Dashboard(str(tmp_path / "srv")).render(snap)
        assert "batch:" in screen

    def test_serving_starts_no_thread(self, tmp_path, monkeypatch):
        """Batched serving runs on the server thread alone: with thread
        start refused, an H2 fleet and an ADAPT job are served through
        several ticks (the scan's warm starts hold geometries back a
        tick) to the energies of an unpatched server."""
        specs = [
            JobSpec(tenant=f"t{k % 3}", molecule="h2", geometry=g)
            for k, g in enumerate((0.7, 0.8, 0.9, 1.0, 0.7, 0.9))
        ] + [JobSpec(tenant="t0", kind="adapt", molecule="h2", max_iterations=2)]

        def serve(name):
            srv = CampaignServer(str(tmp_path / name), ServerConfig(num_ranks=2))
            for spec in specs:
                srv.submit(spec)
            srv.run(stop_when_idle=True, max_ticks=40)
            assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
            energies = {j.job_id: j.energy for j in srv.jobs.values()}
            ticks = srv.ticks
            srv.close()
            return energies, ticks

        control, _ = serve("control")

        def refuse(self):
            raise RuntimeError("the server started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        energies, ticks = serve("threadless")
        assert ticks >= 2
        assert energies == control

    def test_obs_enabled_served_vqe_builds_no_run_report(self, tmp_path, monkeypatch):
        """Nothing reads a served job's RunReport, so none is built."""
        from repro.obs import report as report_mod

        built = []
        original = report_mod.RunReport.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(report_mod.RunReport, "__init__", counting_init)
        obs.enable()
        srv = CampaignServer(str(tmp_path / "srv"), ServerConfig(num_ranks=2))
        _submit_fleet(srv, 2)
        srv.run(stop_when_idle=True, max_ticks=40)
        assert all(j.state == JobState.SUCCEEDED for j in srv.jobs.values())
        srv.close()
        assert built == []

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
