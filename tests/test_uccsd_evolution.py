"""Tests for UCCSD ansatz construction, Pauli exponentials, and the
exact generator evolution used by the chemistry-mode driver."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.chem.downfolding import hermitian_downfold
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2o
from repro.chem.pools import qubit_pool, uccsd_pool
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.chem.uccsd import (
    build_uccsd_circuit,
    compile_evolution,
    count_uccsd_gates,
    pauli_exponential,
    uccsd_excitations,
    uccsd_generators,
)
from repro.core.adapt import AdaptVQE
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.evolution import GeneratorEvolution, apply_pauli_rotation, terms_commute
from repro.sim.statevector import StatevectorSimulator
from repro.utils.linalg import random_statevector


class TestExcitations:
    def test_h2_excitations(self):
        singles, doubles = uccsd_excitations(4, 2)
        assert singles == [(0, 2), (1, 3)]
        assert doubles == [(0, 1, 2, 3)]

    def test_spin_conservation(self):
        singles, doubles = uccsd_excitations(8, 4)
        for i, a in singles:
            assert (i - a) % 2 == 0
        for i, j, a, b in doubles:
            assert ((i % 2) + (j % 2)) == ((a % 2) + (b % 2))

    def test_generators_antihermitian_and_number_conserving(self):
        for _, a in uccsd_generators(6, 2):
            assert a.is_anti_hermitian()

    def test_generator_terms_commute(self):
        """Within one excitation block the JW strings mutually commute,
        so the per-block exponential is exact (no internal Trotter)."""
        for _, a in uccsd_generators(8, 4):
            assert terms_commute(a)


class TestPauliExponential:
    @pytest.mark.parametrize("label", ["ZZ", "XY", "YX", "XX", "ZY", "YZI", "XZY"])
    def test_matches_matrix_exponential(self, label):
        n = len(label)
        p = PauliString.from_label(label)
        phi = 0.37
        circ = pauli_exponential(p, phi, n)
        expected = expm(1j * phi * p.to_matrix())
        got = circ.to_matrix()
        assert np.allclose(got, expected, atol=1e-10)

    def test_identity_pauli_no_gates(self):
        circ = pauli_exponential(PauliString.identity(3), 0.5, 3)
        assert len(circ) == 0

    def test_rotation_helper_matches(self, rng):
        p = PauliString.from_label("XZY")
        state = random_statevector(3, rng)
        phi = -0.81
        got = apply_pauli_rotation(state, p, phi)
        expected = expm(1j * phi * p.to_matrix()) @ state
        assert np.allclose(got, expected, atol=1e-10)


class TestCompileEvolution:
    def test_single_excitation_block(self, rng):
        gens = uccsd_generators(4, 2)
        theta = 0.23
        for _, a in gens:
            circ = compile_evolution(a, theta, 4)
            dense = expm(theta * a.to_matrix())
            state = random_statevector(4, rng)
            sim = StatevectorSimulator(4)
            sim.set_state(state)
            sim.run(circ, reset=False)
            assert np.allclose(sim.state, dense @ state, atol=1e-9)

    def test_rejects_hermitian_generator(self):
        h = PauliSum.from_label_dict({"ZZ": 1.0})
        with pytest.raises(ValueError):
            compile_evolution(h, 0.1, 2)


class TestGeneratorEvolution:
    def test_fast_path_used_for_uccsd(self):
        for _, a in uccsd_generators(4, 2):
            ev = GeneratorEvolution(a)
            assert ev.exact_factorization

    def test_apply_matches_expm(self, rng):
        for _, a in uccsd_generators(4, 2):
            ev = GeneratorEvolution(a)
            state = random_statevector(4, rng)
            theta = 0.4
            expected = expm(theta * a.to_matrix()) @ state
            assert np.allclose(ev.apply(state, theta), expected, atol=1e-9)

    def test_noncommuting_fallback(self, rng):
        a = PauliSum.from_label_dict({"XI": 1j, "ZI": 0.5j, "IY": -0.3j})
        assert not terms_commute(a)
        ev = GeneratorEvolution(a)
        assert not ev.exact_factorization
        state = random_statevector(2, rng)
        expected = expm(0.7 * a.to_matrix()) @ state
        assert np.allclose(ev.apply(state, 0.7), expected, atol=1e-8)

    def test_rejects_hermitian(self):
        with pytest.raises(ValueError):
            GeneratorEvolution(PauliSum.from_label_dict({"X": 1.0}))

    def test_unitarity(self, rng):
        for _, a in uccsd_generators(4, 2):
            ev = GeneratorEvolution(a)
            state = random_statevector(4, rng)
            out = ev.apply(state, 1.3)
            assert np.isclose(np.linalg.norm(out), 1.0, atol=1e-10)


def _closed_form_cases():
    """(id, generator) for every shape of generator the closed form
    covers; labels are highest qubit first."""
    cases = [(f"h4-{label}", a) for label, a in uccsd_generators(8, 4)]
    cases += [(f"qubit-{op.label}", op.generator) for op in qubit_pool(4, 2)]
    double = uccsd_generators(8, 4)[-1][1]
    cases += [
        ("scaled-0.37", double * 0.37),  # omega in {0, 0.37}
        # one x-mask, anticommuting terms: not a product of rotations
        ("one-mask-noncommuting", PauliSum.from_label_dict({"IX": 1j, "ZY": 1j})),
        # ... and with a different omega on each amplitude pair
        (
            "one-mask-per-amplitude-omega",
            PauliSum.from_label_dict({"IX": 1j, "ZX": 0.5j, "ZY": 0.3j}),
        ),
        ("z-only", PauliSum.from_label_dict({"ZI": 0.5j, "IZ": -0.8j, "II": 0.2j})),
        ("two-masks-commuting", PauliSum.from_label_dict({"XI": 0.5j, "IX": -0.8j})),
        (
            "diagonal-plus-mask",
            PauliSum.from_label_dict({"ZZ": 0.5j, "XX": 0.3j, "YY": 0.1j}),
        ),
        # masks commute with each other, terms inside one mask do not
        (
            "commuting-masks-noncommuting-inside",
            PauliSum.from_label_dict({"IIX": 1j, "IZY": 1j, "XII": 0.4j}),
        ),
    ]
    return [pytest.param(a, id=name) for name, a in cases]


class TestClosedFormEvolution:
    """exp(theta A) per x-mask group against scipy's dense expm."""

    @pytest.mark.parametrize("a", _closed_form_cases())
    @pytest.mark.parametrize("theta", [0.0, 0.4, -1.7])
    def test_matches_expm_and_is_unitary(self, a, theta, rng):
        ev = GeneratorEvolution(a)
        assert ev.exact_factorization
        state = random_statevector(a.num_qubits, rng)
        kept = state.copy()
        out = ev.apply(state, theta)
        assert out is not state and np.array_equal(state, kept)
        expected = expm(theta * a.to_matrix()) @ state
        assert np.abs(out - expected).max() < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert np.abs(ev.apply(out, -theta) - state).max() < 1e-12

    def test_noncommuting_inside_one_mask_needs_no_krylov(self):
        a = PauliSum.from_label_dict({"IX": 1j, "ZY": 1j})
        assert not terms_commute(a)
        assert GeneratorEvolution(a).exact_factorization

    def test_zero_generator_returns_a_copy(self, rng):
        state = random_statevector(2, rng)
        out = GeneratorEvolution(PauliSum.zero(2)).apply(state, 0.3)
        assert out is not state and np.array_equal(out, state)

    def test_state_dimension_checked(self):
        ev = GeneratorEvolution(PauliSum.from_label_dict({"XY": 1j}))
        with pytest.raises(ValueError, match="dimension"):
            ev.apply(np.ones(8, dtype=complex), 0.1)

    def test_adapt_h2o_reproduces_sequence_and_energies(self):
        """Quick-size Fig. 5 (8-qubit downfolded H2O), run to 1e-6 Ha so
        singles are selected too; operators and energies are the ones
        the per-term rotation loop produced."""
        scf = run_rhf(h2o())
        res = hermitian_downfold(
            build_molecular_hamiltonian(scf), scf.mo_energies, [0, 1], [2, 3, 4, 5]
        )
        heff = res.effective_hamiltonian.chop(1e-8)
        n_q, n_e = heff.num_qubits, res.num_electrons
        e_exact = exact_ground_energy(heff, num_particles=n_e, sz=0)
        assert abs(e_exact - -75.0086679629034) < 1e-10
        result = AdaptVQE(
            heff, uccsd_pool(n_q, n_e), hartree_fock_state(n_q, n_e),
            max_iterations=25, reference_energy=e_exact, energy_tolerance=1e-6,
        ).run()
        labels = [it.selected_label for it in result.iterations]
        assert labels[:3] == ["d(0,1->6,7)", "d(2,3->6,7)", "d(4,5->6,7)"]
        # the two singles are spin partners with equal gradients
        assert sorted(labels[3:]) == ["s(2->6)", "s(3->7)"]
        assert np.allclose(
            [it.energy for it in result.iterations],
            [
                -75.00489607403729, -75.00773137172754, -75.00855004133302,
                -75.00862011307649, -75.00866796288064,
            ],
            rtol=0, atol=1e-10,
        )


class TestUCCSDCircuit:
    @pytest.mark.parametrize("n_so,ne", [(4, 2), (6, 2), (8, 4)])
    def test_analytic_count_matches_built(self, n_so, ne):
        ansatz = build_uccsd_circuit(n_so, ne)
        counted = count_uccsd_gates(n_so, ne)
        assert len(ansatz.circuit) == counted["total_gates"]
        assert ansatz.num_parameters == counted["num_parameters"]

    def test_two_qubit_count(self):
        ansatz = build_uccsd_circuit(4, 2)
        counted = count_uccsd_gates(4, 2)
        assert ansatz.circuit.count_2q() == counted["two_qubit_gates"]

    def test_zero_parameters_gives_hf(self):
        ansatz = build_uccsd_circuit(4, 2)
        bound = ansatz.circuit.bind({name: 0.0 for name in ansatz.circuit.parameters})
        sim = StatevectorSimulator(4)
        state = sim.run(bound)
        hf = hartree_fock_state(4, 2)
        assert np.allclose(np.abs(state), np.abs(hf), atol=1e-10)

    def test_circuit_matches_generator_evolution(self, rng):
        """The compiled circuit and the direct generator evolution agree
        (exactly, since all blocks factor without Trotter error here)."""
        ansatz = build_uccsd_circuit(4, 2)
        params = rng.normal(scale=0.1, size=ansatz.num_parameters)
        bound = ansatz.circuit.bind(list(params))
        sim = StatevectorSimulator(4)
        circuit_state = sim.run(bound).copy()

        state = hartree_fock_state(4, 2)
        for theta, (_, a) in zip(params, ansatz.generators):
            state = GeneratorEvolution(a).apply(state, float(theta))
        assert np.allclose(circuit_state, state, atol=1e-9)

    def test_counts_grow_with_qubits(self):
        counts = [count_uccsd_gates(n)["total_gates"] for n in (8, 12, 16, 20)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_trotter_steps_scale_gates(self):
        c1 = count_uccsd_gates(6, 2, trotter_steps=1)
        c2 = count_uccsd_gates(6, 2, trotter_steps=2)
        ref = 2  # reference X gates are not repeated
        assert c2["total_gates"] - ref == 2 * (c1["total_gates"] - ref)


class TestPools:
    def test_uccsd_pool_size(self):
        pool = uccsd_pool(4, 2)
        assert len(pool) == 3  # 2 singles + 1 double

    def test_pool_generators_antihermitian(self):
        for op in uccsd_pool(6, 2):
            assert op.generator.is_anti_hermitian()
        for op in qubit_pool(6, 2):
            assert op.generator.is_anti_hermitian()

    def test_qubit_pool_strings_are_single(self):
        for op in qubit_pool(4, 2):
            assert op.generator.num_terms == 1

    def test_qubit_pool_no_duplicates(self):
        pool = qubit_pool(6, 2)
        keys = set()
        for op in pool:
            for _, p in op.generator:
                assert (p.x, p.z) not in keys
                keys.add((p.x, p.z))

    def test_labels_unique(self):
        pool = uccsd_pool(8, 4)
        labels = [op.label for op in pool]
        assert len(labels) == len(set(labels))
