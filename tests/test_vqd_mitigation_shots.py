"""Tests for VQD excited states, UCCGSD, error mitigation (ZNE +
readout), and variance-weighted shot allocation."""

import numpy as np
import pytest

from repro.chem.fci import sector_indices
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import uccsd_excitations, uccsd_generators
from repro.core.shots import allocate_shots, sampled_energy_with_allocation
from repro.core.vqd import run_vqd
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.expectation import basis_change_circuit, expectation_direct
from repro.sim.mitigation import (
    ReadoutErrorModel,
    fold_circuit,
    mitigate_counts,
    zne_expectation,
)
from repro.sim.noise import DepolarizingChannel, NoiseModel
from repro.sim.statevector import StatevectorSimulator
from repro.utils.bitops import count_set_bits


@pytest.fixture(scope="module")
def h2_problem():
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    mat = hq.to_sparse()
    keep = sector_indices(4, num_particles=2, sz=0)
    spectrum = np.linalg.eigvalsh(mat[np.ix_(keep, keep)].toarray())
    return hq, spectrum


class TestUCCGSD:
    def test_generalized_superset_of_standard(self):
        s_std, d_std = uccsd_excitations(6, 2)
        s_gen, d_gen = uccsd_excitations(6, 2, generalized=True)
        assert set(s_std) <= set(s_gen)
        assert len(d_gen) >= len(d_std)

    def test_generalized_generators_antihermitian(self):
        for _, a in uccsd_generators(4, 2, generalized=True):
            assert a.is_anti_hermitian()

    def test_no_duplicate_generators(self):
        # Distinct pairings of the same 4 orbitals share Pauli strings
        # but differ in sign patterns, so compare full (key, coeff)
        # signatures (up to overall sign: A and -A are redundant).
        gens = uccsd_generators(6, 2, generalized=True)
        sigs = set()
        for _, g in gens:
            items = tuple(sorted((k, complex(v)) for k, v in g.terms.items()))
            neg = tuple(sorted((k, -complex(v)) for k, v in g.terms.items()))
            assert items not in sigs and neg not in sigs
            sigs.add(items)


class TestVQD:
    def test_h2_lowest_three_states(self, h2_problem):
        hq, spectrum = h2_problem
        gens = [a for _, a in uccsd_generators(4, 2, generalized=True)]
        res = run_vqd(
            hq, gens, hartree_fock_state(4, 2), num_states=3, restarts=3
        )
        assert np.allclose(res.energies, spectrum[:3], atol=1e-5)

    def test_states_orthogonal(self, h2_problem):
        hq, _ = h2_problem
        gens = [a for _, a in uccsd_generators(4, 2, generalized=True)]
        res = run_vqd(hq, gens, hartree_fock_state(4, 2), num_states=2)
        overlap = abs(np.vdot(res.states[0], res.states[1]))
        assert overlap < 1e-3

    def test_gaps_positive(self, h2_problem):
        hq, _ = h2_problem
        gens = [a for _, a in uccsd_generators(4, 2, generalized=True)]
        res = run_vqd(hq, gens, hartree_fock_state(4, 2), num_states=3, restarts=3)
        assert all(g > 0 for g in res.gaps)

    def test_single_state_equals_vqe(self, h2_problem):
        hq, spectrum = h2_problem
        gens = [a for _, a in uccsd_generators(4, 2)]
        res = run_vqd(hq, gens, hartree_fock_state(4, 2), num_states=1)
        assert abs(res.energies[0] - spectrum[0]) < 1e-6

    def test_bad_num_states(self, h2_problem):
        hq, _ = h2_problem
        with pytest.raises(ValueError):
            run_vqd(hq, [], hartree_fock_state(4, 2), num_states=0)


class TestFolding:
    def test_fold_preserves_unitary(self):
        c = Circuit(2).h(0).cx(0, 1).rz(0.3, 1)
        for s in (1, 3, 5):
            folded = fold_circuit(c, s)
            assert len(folded) == s * len(c)
            assert np.allclose(folded.to_matrix(), c.to_matrix(), atol=1e-9)

    def test_even_scale_rejected(self):
        with pytest.raises(ValueError):
            fold_circuit(Circuit(1).h(0), 2)


class TestZNE:
    def test_extrapolation_recovers_accuracy(self, h2_problem):
        """ZNE must land closer to the noiseless value than the raw
        noisy expectation does."""
        hq, _ = h2_problem
        from repro.chem.uccsd import build_uccsd_circuit

        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind([0.0, 0.0, -0.107])  # near-optimal
        exact = expectation_direct(
            StatevectorSimulator(4).run(bound), hq
        )
        noise = NoiseModel().add_all_qubit_channel(DepolarizingChannel(2e-4))
        mitigated, values = zne_expectation(
            bound, hq, noise, scale_factors=(1, 3, 5)
        )
        raw_err = abs(values[1] - exact)
        zne_err = abs(mitigated - exact)
        assert zne_err < raw_err / 2
        # noise monotonically degrades with folding
        assert abs(values[5] - exact) > abs(values[1] - exact)

    def test_needs_two_scales(self, h2_problem):
        hq, _ = h2_problem
        noise = NoiseModel().add_all_qubit_channel(DepolarizingChannel(1e-3))
        with pytest.raises(ValueError):
            zne_expectation(Circuit(4).h(0), hq, noise, scale_factors=(1,))


class TestReadoutMitigation:
    def test_roundtrip(self, rng):
        model = ReadoutErrorModel(p01=np.array([0.02, 0.05]), p10=np.array([0.03, 0.01]))
        true = rng.random(4)
        true /= true.sum()
        noisy = model.apply_to_probabilities(true)
        recovered = model.correct_probabilities(noisy)
        assert np.allclose(recovered, true, atol=1e-10)

    def test_noisy_distribution_differs(self):
        model = ReadoutErrorModel(p01=np.array([0.1]), p10=np.array([0.1]))
        true = np.array([1.0, 0.0])
        noisy = model.apply_to_probabilities(true)
        assert np.isclose(noisy[1], 0.1)

    def test_mitigate_counts(self, rng):
        model = ReadoutErrorModel(p01=np.array([0.05, 0.05]), p10=np.array([0.05, 0.05]))
        # true state |11>: readout flips each bit with 5%
        shots = 200000
        flips0 = rng.random(shots) < 0.05
        flips1 = rng.random(shots) < 0.05
        outcomes = (1 - flips0).astype(int) | (((1 - flips1).astype(int)) << 1)
        counts: dict = {}
        for o in outcomes:
            counts[int(o)] = counts.get(int(o), 0) + 1
        probs = mitigate_counts(counts, model)
        assert probs[0b11] > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutErrorModel(p01=np.array([1.5]), p10=np.array([0.0]))
        with pytest.raises(ValueError):
            ReadoutErrorModel(p01=np.array([0.1, 0.1]), p10=np.array([0.1]))


class TestShotAllocation:
    def test_sqrt_weighting(self):
        shots = allocate_shots([100.0, 1.0], 1000, minimum=10)
        assert sum(shots) == 1000
        # sqrt(100):sqrt(1) = 10:1 split of the budget above minimum
        assert shots[0] > 8 * shots[1] / 2
        assert shots[0] > shots[1]

    def test_minimum_respected(self):
        shots = allocate_shots([1000.0, 0.0, 0.0], 300, minimum=50)
        assert all(s >= 50 for s in shots)
        assert sum(shots) == 300

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            allocate_shots([1.0, 1.0], 10, minimum=16)

    def test_zero_weights_fall_back_uniform(self):
        shots = allocate_shots([0.0, 0.0], 100, minimum=10)
        assert sum(shots) == 100
        assert abs(shots[0] - shots[1]) <= 1

    @staticmethod
    def _case(h2_problem):
        """H2 at a UCCSD point: the state, <H>, the measurable QWC groups
        and each group's exact single-shot variance, read off the
        probabilities of the basis-rotated state."""
        hq, _ = h2_problem
        from repro.chem.uccsd import build_uccsd_circuit

        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind([0.05, -0.02, -0.1])
        state = StatevectorSimulator(4).run(bound).copy()
        groups = [
            g
            for g in hq.group_qubitwise_commuting()
            if not all(p.is_identity for _, p in g)
        ]
        k = np.arange(16)
        variances = []
        for g in groups:
            sim = StatevectorSimulator(4)
            sim.set_state(state)
            sim.apply_circuit(basis_change_circuit([p for _, p in g], 4))
            probs = sim.probabilities()
            outcome = sum(
                c.real * (1.0 - 2.0 * (count_set_bits(k & (p.x | p.z)) & 1))
                for c, p in g
                if not p.is_identity
            )
            variances.append(float(probs @ outcome**2 - (probs @ outcome) ** 2))
        return state, hq, expectation_direct(state, hq), groups, variances

    def test_variance_policy_beats_uniform(self, h2_problem):
        """sum_g Var_g / s_g with shots sqrt-weighted by the exact group
        variances (the Lagrange optimum) is no worse than a uniform split
        and no better than the continuous bound (sum_g sqrt Var_g)^2 / S;
        the worst-case weight (sum_i |c_i|)^2 bounds every group."""
        _, _, _, groups, variances = self._case(h2_problem)
        budget = 2000

        def estimator_variance(shots):
            return sum(v / s for v, s in zip(variances, shots))

        optimal = estimator_variance(allocate_shots(variances, budget))
        uniform = estimator_variance(allocate_shots([1.0] * len(groups), budget))
        assert optimal <= uniform
        assert optimal >= sum(np.sqrt(variances)) ** 2 / budget
        for g, v in zip(groups, variances):
            assert sum(abs(c) for c, _ in g) ** 2 >= v

    def test_sampled_energy_unbiased(self, h2_problem):
        """The mean of 20 seeded estimates lies within 4 sigma of <H>,
        sigma from the exact group variances at the shots the policy
        assigns."""
        state, hq, exact, groups, variances = self._case(h2_problem)
        shots = allocate_shots([sum(abs(c) for c, _ in g) ** 2 for g in groups], 2000)
        reps = 20
        sigma = np.sqrt(sum(v / s for v, s in zip(variances, shots)) / reps)
        estimates = [
            sampled_energy_with_allocation(
                state, hq, 2000, rng=np.random.default_rng(500 + i)
            )
            for i in range(reps)
        ]
        assert abs(np.mean(estimates) - exact) <= 4 * sigma
