"""Tests for ADAPT-VQE (paper §5.3)."""

import numpy as np
import pytest

from repro.chem.downfolding import hermitian_downfold
from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2, h2o, h4_chain, lih
from repro.chem.pools import qubit_pool, uccsd_pool
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.core.adapt import AdaptVQE
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.opt.gradient import AnsatzObjective, finite_difference_gradient


@pytest.fixture(scope="module")
def h2_problem():
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    return hq, e_fci


@pytest.fixture(scope="module")
def h4_problem():
    scf = run_rhf(h4_chain())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=4, sz=0)
    return hq, e_fci


class TestPoolGradients:
    def test_gradient_formula_matches_derivative(self, h2_problem):
        """<[H, A]> on |HF> must equal dE/dtheta at theta = 0."""
        hq, _ = h2_problem
        pool = uccsd_pool(4, 2)
        ref = hartree_fock_state(4, 2)
        adapt = AdaptVQE(hq, pool, ref)
        grads = adapt.pool_gradients(ref)
        for k, op in enumerate(pool):
            obj = AnsatzObjective(ref, [op.generator], hq)
            fd = finite_difference_gradient(obj.energy, np.zeros(1))[0]
            assert np.isclose(grads[k], fd, atol=1e-6)

    def test_double_has_largest_gradient_for_h2(self, h2_problem):
        """For H2 the double excitation dominates (singles vanish by
        Brillouin's theorem on the HF state)."""
        hq, _ = h2_problem
        pool = uccsd_pool(4, 2)
        ref = hartree_fock_state(4, 2)
        grads = AdaptVQE(hq, pool, ref).pool_gradients(ref)
        labels = [op.label for op in pool]
        best = labels[int(np.argmax(np.abs(grads)))]
        assert best.startswith("d(")
        # Brillouin: single-excitation gradients are ~0.
        for lbl, g in zip(labels, grads):
            if lbl.startswith("s("):
                assert abs(g) < 1e-8


@pytest.fixture(scope="module", params=["h2o", "lih"])
def screen_problem(request):
    """(H, electrons): Fig. 5's 12-qubit downfolded H2O, or 12-qubit
    LiH on all its spin orbitals."""
    if request.param == "h2o":
        scf = run_rhf(h2o())
        down = hermitian_downfold(
            build_molecular_hamiltonian(scf), scf.mo_energies,
            core_orbitals=[0], active_orbitals=[1, 2, 3, 4, 5, 6],
        )
        return down.effective_hamiltonian.chop(1e-8), down.num_electrons
    mh = build_molecular_hamiltonian(run_rhf(lih()))
    return mh.to_qubit(), mh.num_electrons


class TestBracketScreen:
    """The screen is the sweep's rotation bracket on the pool plan's
    index set; the oracle is 2 Re <H psi|A_k psi> on all 2^n amplitudes
    with every operator compiled as an observable."""

    def test_matches_full_register_oracle(self, screen_problem):
        h, n_e = screen_problem
        n = h.num_qubits
        pool = uccsd_pool(n, n_e)
        adapt = AdaptVQE(h, pool, hartree_fock_state(n, n_e), gradient_tolerance=0.0)
        assert adapt.index.size < 1 << n
        st = adapt.initial_state()
        for iteration in range(3):  # at HF, then after 1 and 2 iterations
            assert st.iteration == iteration
            psi = st.statevector
            h_psi = compile_observable(h).apply(psi)
            want = [
                2.0 * np.vdot(h_psi, compile_observable(op.generator).apply(psi)).real
                for op in pool
            ]
            np.testing.assert_allclose(adapt.pool_gradients(psi), want, rtol=0, atol=1e-12)
            adapt.step(st)

    def test_run_compiles_no_pool_operator(self):
        mh = build_molecular_hamiltonian(run_rhf(lih()))
        n, n_e = mh.num_spin_orbitals, mh.num_electrons
        pool = uccsd_pool(n, n_e)
        result = AdaptVQE(mh.to_qubit(), pool, hartree_fock_state(n, n_e), max_iterations=3).run()
        assert len(result.iterations) == 3
        assert not any(op.generator._compiled for op in pool)


class TestAdaptConvergence:
    def test_h2_one_iteration(self, h2_problem):
        hq, e_fci = h2_problem
        adapt = AdaptVQE(
            hq,
            uccsd_pool(4, 2),
            hartree_fock_state(4, 2),
            max_iterations=5,
            reference_energy=e_fci,
            energy_tolerance=1e-6,
        )
        res = adapt.run()
        assert res.converged
        assert abs(res.energy - e_fci) < 1e-6
        assert len(res.operator_labels) <= 2

    def test_h4_reaches_chemical_accuracy(self, h4_problem):
        hq, e_fci = h4_problem
        adapt = AdaptVQE(
            hq,
            uccsd_pool(8, 4),
            hartree_fock_state(8, 4),
            max_iterations=25,
            reference_energy=e_fci,
            energy_tolerance=1e-3,
        )
        res = adapt.run()
        assert res.converged
        assert res.iterations_to_accuracy(1e-3) is not None

    def test_energy_monotone_nonincreasing(self, h4_problem):
        hq, e_fci = h4_problem
        adapt = AdaptVQE(
            hq,
            uccsd_pool(8, 4),
            hartree_fock_state(8, 4),
            max_iterations=8,
            reference_energy=e_fci,
        )
        res = adapt.run()
        energies = [it.energy for it in res.iterations]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-9

    def test_one_parameter_per_iteration(self, h4_problem):
        """Each adaptive iteration grows the ansatz by one layer
        (the Fig. 5 caption's '+1 layer per iteration')."""
        hq, _ = h4_problem
        adapt = AdaptVQE(
            hq, uccsd_pool(8, 4), hartree_fock_state(8, 4), max_iterations=5
        )
        res = adapt.run()
        for k, it in enumerate(res.iterations, start=1):
            assert it.num_parameters == k

    def test_qubit_pool_also_converges_h2(self, h2_problem):
        hq, e_fci = h2_problem
        adapt = AdaptVQE(
            hq,
            qubit_pool(4, 2),
            hartree_fock_state(4, 2),
            max_iterations=10,
            reference_energy=e_fci,
            energy_tolerance=1e-5,
        )
        res = adapt.run()
        assert abs(res.energy - e_fci) < 1e-4

    def test_empty_pool_rejected(self, h2_problem):
        hq, _ = h2_problem
        with pytest.raises(ValueError):
            AdaptVQE(hq, [], hartree_fock_state(4, 2))

    def test_gradient_tolerance_stops(self, h2_problem):
        """With a huge tolerance ADAPT stops immediately, converged."""
        hq, _ = h2_problem
        adapt = AdaptVQE(
            hq,
            uccsd_pool(4, 2),
            hartree_fock_state(4, 2),
            gradient_tolerance=1e3,
        )
        res = adapt.run()
        assert res.converged
        assert len(res.iterations) == 0


class TestSelectionTies:
    def test_round_off_does_not_pick_between_ties(self):
        """Stretched LiH downfolded to 8 qubits: its two pi orbitals
        (spatial 3 and 4 of the active space) are degenerate, so
        d(0,1->4,5) and d(0,1->6,7) have equal |gradient| in exact
        arithmetic.  Scaling H by one ulp or reordering its terms moves
        only round-off, and the lowest pool index must win every time."""
        scf = run_rhf(lih(1.9))
        down = hermitian_downfold(
            build_molecular_hamiltonian(scf), scf.mo_energies, [0], [1, 2, 3, 4]
        )
        h = down.effective_hamiltonian
        n, n_e = h.num_qubits, down.num_electrons
        keys = list(h.terms)
        rng = np.random.default_rng(1)
        variants = [h, h * (1 + 2.2e-16)] + [
            PauliSum(n, {keys[i]: h.terms[keys[i]] for i in rng.permutation(len(keys))})
            for _ in range(2)
        ]
        picks = [
            AdaptVQE(
                hv, uccsd_pool(n, n_e), hartree_fock_state(n, n_e),
                max_iterations=3,
            ).run().operator_labels
            for hv in variants
        ]
        assert picks == [["d(0,1->2,3)", "d(0,1->4,5)", "d(0,1->6,7)"]] * 4
