"""Tests for the core layer: VQE driver, estimators, caching, counting."""

import numpy as np
import pytest

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import (
    build_molecular_hamiltonian,
    synthetic_two_body_hamiltonian,
)
from repro.chem.molecule import h2, h4_chain
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import build_uccsd_circuit, uccsd_generators
from repro.core.cache import CachedEnergyEvaluator, PostAnsatzCache
from repro.core.counting import (
    energy_evaluation_gate_counts,
    jw_pauli_term_count,
    statevector_memory_bytes,
    uccsd_gate_count,
)
from repro.core.estimator import make_estimator
from repro.core.vqe import VQE
from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliSum
from repro.sim.plan import compile_circuit
from tests.scipy_oracle import ScipyOptimizer


@pytest.fixture(scope="module")
def h2_setup():
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    return scf, hq, e_fci


class TestVQEDriver:
    def test_chemistry_mode_reaches_fci(self, h2_setup):
        _, hq, e_fci = h2_setup
        gens = [a for _, a in uccsd_generators(4, 2)]
        vqe = VQE(hq, generators=gens, reference_state=hartree_fock_state(4, 2))
        res = vqe.run()
        assert abs(res.energy - e_fci) < 1e-6
        assert res.mode == "chemistry"

    def test_circuit_mode_reaches_fci(self, h2_setup):
        _, hq, e_fci = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        vqe = VQE(hq, ansatz=ansatz.circuit)
        res = vqe.run()
        assert abs(res.energy - e_fci) < 1e-4
        assert res.mode == "circuit"

    def test_modes_agree(self, h2_setup):
        """Same ansatz family: both modes find the same minimum."""
        _, hq, _ = h2_setup
        gens = [a for _, a in uccsd_generators(4, 2)]
        chem = VQE(hq, generators=gens, reference_state=hartree_fock_state(4, 2)).run()
        circ = VQE(hq, ansatz=build_uccsd_circuit(4, 2).circuit).run()
        assert abs(chem.energy - circ.energy) < 1e-4

    @pytest.mark.parametrize(
        "mode, optimizer",
        [
            pytest.param("circuit", "lbfgsb", id="lbfgsb"),
            pytest.param("circuit", "cobyla", id="cobyla"),
            pytest.param("chemistry", "lbfgsb", id="chemistry-lbfgsb"),
            pytest.param("chemistry", "cobyla", id="chemistry-cobyla"),
        ],
    )
    def test_circuit_mode_fuses_exact_gradient_while_read(
        self, h2_setup, mode, optimizer, monkeypatch
    ):
        """L-BFGS reads a gradient at every iterate, so every evaluation
        is one value+gradient sweep; COBYLA never reads one, so only its
        first evaluation pays for it.  The same rule holds for the
        estimator's sweep (circuit mode) and the generator plan's
        (chemistry mode).  Caching estimators offer no gradient."""
        from repro.opt import gradient

        _, hq, e_fci = h2_setup
        circuit = build_uccsd_circuit(4, 2).circuit
        sweeps = []
        opt = None
        if optimizer == "cobyla":  # never reads a gradient
            opt = ScipyOptimizer("COBYLA", max_iterations=2000, rhobeg=0.5)
        if mode == "circuit":
            est = make_estimator("direct")
            offered = est.value_and_gradient
            est.value_and_gradient = lambda *a: sweeps.append(1) or offered(*a)
            vqe = VQE(hq, ansatz=circuit, estimator=est, optimizer=opt)
        else:
            sweep = gradient.reverse_value_and_gradient
            monkeypatch.setattr(
                gradient, "reverse_value_and_gradient",
                lambda *a: sweeps.append(1) or sweep(*a),
            )
            gens = [a for _, a in uccsd_generators(4, 2)]
            vqe = VQE(hq, generators=gens, reference_state=hartree_fock_state(4, 2),
                      optimizer=opt)
        res = vqe.run()
        assert abs(res.energy - e_fci) < 1e-4
        assert len(sweeps) == (1 if optimizer == "cobyla" else res.num_function_evaluations)
        vqe = VQE(hq, ansatz=circuit, estimator=make_estimator("caching"))
        assert vqe.gradient(np.zeros(3)) is None

    def test_energy_at_zero_is_hf(self, h2_setup):
        scf, hq, _ = h2_setup
        gens = [a for _, a in uccsd_generators(4, 2)]
        vqe = VQE(hq, generators=gens, reference_state=hartree_fock_state(4, 2))
        assert np.isclose(vqe.energy(np.zeros(3)), scf.energy, atol=1e-8)

    def test_non_hermitian_rejected(self):
        h = PauliSum.from_label_dict({"XY": 1j})
        with pytest.raises(ValueError):
            VQE(h, generators=[], reference_state=np.array([1, 0, 0, 0]))

    def test_requires_an_ansatz(self, h2_setup):
        _, hq, _ = h2_setup
        with pytest.raises(ValueError):
            VQE(hq)

    def test_wrong_initial_params(self, h2_setup):
        _, hq, _ = h2_setup
        gens = [a for _, a in uccsd_generators(4, 2)]
        vqe = VQE(hq, generators=gens, reference_state=hartree_fock_state(4, 2))
        with pytest.raises(ValueError):
            vqe.run(np.zeros(7))


class TestEstimators:
    def test_direct_and_caching_agree(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind([0.05, -0.03, 0.1])
        direct = make_estimator("direct")
        caching = make_estimator("caching")
        assert np.isclose(
            direct.estimate(bound, hq), caching.estimate(bound, hq), atol=1e-9
        )

    def test_sampling_close(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind([0.05, -0.03, 0.1])
        direct = make_estimator("direct").estimate(bound, hq)
        sampled = make_estimator("sampling", shots_per_group=30000, seed=5).estimate(
            bound, hq
        )
        assert abs(direct - sampled) < 0.02

    def test_caching_tracks_extra_gates(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind([0.0, 0.0, 0.0])
        est = make_estimator("caching")
        est.estimate(bound, hq)
        assert est.extra_gates > 0

    def test_vqe_reaches_same_energy_with_direct_and_caching(self, h2_setup):
        """The circuit-mode VQE driver is estimator-agnostic: direct and
        caching estimators agree on the optimized H2 energy."""
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2).circuit
        energies = {
            name: VQE(
                hq, ansatz=ansatz,
                estimator=make_estimator(name),
                optimizer=ScipyOptimizer("COBYLA", max_iterations=500, rhobeg=0.5),
            ).run().energy
            for name in ("direct", "caching")
        }
        assert np.isclose(energies["direct"], energies["caching"], atol=1e-6)

    def test_unknown_estimator(self):
        with pytest.raises(KeyError):
            make_estimator("magic")


@pytest.fixture(scope="module")
def h4_fd_rows():
    """The H4 UCCSD circuit plan and one central-difference sweep's
    2P+1 rows, laid out as ``VQE(fd_gradient=True)`` asks for them."""
    mh = build_molecular_hamiltonian(run_rhf(h4_chain()))
    plan = compile_circuit(build_uccsd_circuit(mh.num_spin_orbitals, mh.num_electrons).circuit)
    p = plan.num_parameters
    rows = np.tile(np.random.default_rng(0).uniform(-0.2, 0.2, p), (2 * p + 1, 1))
    for k in range(p):
        rows[1 + 2 * k, k] += 1e-6
        rows[2 + 2 * k, k] -= 1e-6
    return plan, rows, mh.to_qubit()


class TestFiniteDifferenceRows:
    """``estimate_plan_many`` runs its rows as one batched block and is,
    bit for bit, a loop of ``estimate_plan``."""

    @pytest.mark.parametrize(
        "name, kwargs, nrows",
        [("direct", {}, None), ("caching", {}, 9),
         ("sampling", {"shots_per_group": 64, "seed": 3}, 9)],
    )
    def test_equals_a_loop_of_estimate_plan(self, h4_fd_rows, name, kwargs, nrows):
        plan, rows, h = h4_fd_rows
        rows = rows[:nrows]
        block, loop = make_estimator(name, **kwargs), make_estimator(name, **kwargs)
        values = block.estimate_plan_many(plan, rows, h)
        expected = np.array([loop.estimate_plan(plan, row, h) for row in rows])
        assert np.array_equal(values, expected)
        assert block.evaluations == loop.evaluations == len(rows)
        assert getattr(block, "extra_gates", 0) == getattr(loop, "extra_gates", 0)

    def test_parametric_u3_is_refused_by_name(self):
        circ = Circuit(2).add("u3", [0], Parameter("a"), 0.4, -1.1).add("cx", [0, 1])
        h = PauliSum.from_label_dict({"ZZ": 1.0})
        with pytest.raises(ValueError, match="parameterized gate 'u3'"):
            VQE(h, ansatz=circ, fd_gradient=True).run()


class TestPostAnsatzCache:
    def test_hit_miss_accounting(self):
        cache = PostAnsatzCache()
        params = np.array([0.1, 0.2])
        assert cache.get(params) is None
        cache.put(params, np.ones(4, dtype=complex))
        assert cache.get(params) is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = PostAnsatzCache(max_entries=2)
        for k in range(3):
            cache.put(np.array([float(k)]), np.ones(4, dtype=complex))
        assert len(cache) == 2
        assert cache.get(np.array([0.0])) is None  # evicted

    def test_hit_refreshes_recency(self):
        """A hit makes its state the most recently used: the next
        insert evicts the other one."""
        cache = PostAnsatzCache(max_entries=2)
        a, b, c = (np.array([float(k)]) for k in range(3))
        cache.put(a, np.ones(4, dtype=complex))
        cache.put(b, np.ones(4, dtype=complex))
        assert cache.get(a) is not None
        cache.put(c, np.ones(4, dtype=complex))
        assert cache.get(a) is not None
        assert cache.get(b) is None  # least recently used

    def test_device_capacity_spill(self):
        """States beyond device capacity are host-resident (§4.1.4)."""
        state = np.ones(1 << 10, dtype=complex)  # 16 KiB
        cache = PostAnsatzCache(device_capacity_bytes=20_000, max_entries=4)
        cache.put(np.array([1.0]), state)
        assert cache.host_spills == 0
        cache.put(np.array([2.0]), state)  # exceeds 20 KB -> host
        assert cache.host_spills == 1
        cache.get(np.array([2.0]))  # host access counts again
        assert cache.host_spills == 2


class TestCachedEnergyEvaluator:
    def test_caching_equals_noncaching_energy(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        params = np.array([0.07, -0.02, 0.11])
        on = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=True)
        off = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=False)
        assert np.isclose(on.energy(params), off.energy(params), atol=1e-9)

    def test_caching_runs_ansatz_once(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        params = np.zeros(3)
        on = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=True)
        on.energy(params)
        assert on.ledger.ansatz_executions == 1
        # Re-evaluating at the same point hits the cache: still 1.
        on.energy(params)
        assert on.ledger.ansatz_executions == 1
        assert on.ledger.cache_hits == 1

    def test_noncaching_reruns_per_group(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        off = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=False)
        off.energy(np.zeros(3))
        assert off.ledger.ansatz_executions >= off.num_groups - 1

    def test_gate_savings(self, h2_setup):
        """The Fig. 3 effect at H2 scale: caching saves most gates."""
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        params = np.zeros(3)
        on = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=True)
        off = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=False)
        on.energy(params)
        off.energy(params)
        assert on.ledger.total_gates < off.ledger.total_gates / 2

    def test_per_term_mode(self, h2_setup):
        _, hq, _ = h2_setup
        ansatz = build_uccsd_circuit(4, 2)
        ungrouped = CachedEnergyEvaluator(
            ansatz.circuit, hq, use_caching=True, group_terms=False
        )
        grouped = CachedEnergyEvaluator(ansatz.circuit, hq, use_caching=True)
        p = np.array([0.03, 0.01, -0.06])
        assert np.isclose(ungrouped.energy(p), grouped.energy(p), atol=1e-9)
        assert ungrouped.num_groups >= grouped.num_groups


class TestCounting:
    @pytest.mark.parametrize("n_spatial", [4, 6, 8])
    def test_term_count_formula_exact(self, n_spatial):
        """The closed-form Fig. 1b census must match explicit JW
        construction term for term."""
        hq = synthetic_two_body_hamiltonian(n_spatial, seed=1).to_qubit()
        assert jw_pauli_term_count(2 * n_spatial) == hq.num_terms

    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            jw_pauli_term_count(13)

    def test_memory_counts(self):
        assert statevector_memory_bytes(30) == (1 << 30) * 16  # 16 GiB
        assert statevector_memory_bytes(10) == 16384

    def test_uccsd_count_monotone(self):
        counts = [uccsd_gate_count(n) for n in range(12, 32, 2)]
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert counts[-1] > 1e6  # ~millions of gates at 30 qubits (Fig 1a)

    def test_fig3_savings_range(self):
        """The paper reports 3 to 5 orders of magnitude of savings."""
        for n in range(12, 32, 2):
            cost = energy_evaluation_gate_counts(n)
            assert 2.5 <= cost.savings_orders_of_magnitude <= 5.5
        assert energy_evaluation_gate_counts(12).non_caching_gates > 1e7
        assert energy_evaluation_gate_counts(30).non_caching_gates < 1e12

    def test_caching_cost_is_ansatz_plus_basis(self):
        cost = energy_evaluation_gate_counts(16)
        assert cost.caching_gates == cost.ansatz_gates + cost.basis_change_gates
        assert (
            cost.non_caching_gates
            == cost.num_pauli_terms * cost.ansatz_gates + cost.basis_change_gates
        )
