"""Tests for the circuit library (QFT, GHZ, hardware-efficient ansatz,
Trotter evolution), QPE, and parameter-shift gradients."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2
from repro.chem.reference import hartree_fock_state
from repro.chem.scf import run_rhf
from repro.core.qpe import run_qpe
from repro.ir.library import (
    ghz,
    hardware_efficient_ansatz,
    inverse_qft,
    qft,
    trotter_evolution,
)
from repro.ir.pauli import PauliSum
from repro.opt.parameter_shift import (
    parameter_shift_gradient,
    supports_parameter_shift,
)
from repro.sim.statevector import StatevectorSimulator


@pytest.fixture(scope="module")
def h2_problem():
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    return hq, e_fci


class TestQFT:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        u = qft(n).to_matrix()
        dim = 1 << n
        dft = np.array(
            [
                [np.exp(2j * np.pi * j * k / dim) for k in range(dim)]
                for j in range(dim)
            ]
        ) / np.sqrt(dim)
        assert np.allclose(u, dft, atol=1e-10)

    def test_inverse_is_adjoint(self):
        u = qft(3).to_matrix()
        ui = inverse_qft(3).to_matrix()
        assert np.allclose(ui @ u, np.eye(8), atol=1e-10)

    def test_qft_of_basis_state_uniform_magnitudes(self):
        sim = StatevectorSimulator(3)
        sim.run(qft(3))
        assert np.allclose(np.abs(sim.state), 1 / np.sqrt(8), atol=1e-10)


class TestGHZ:
    def test_state(self):
        sim = StatevectorSimulator(4)
        sim.run(ghz(4))
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[15] = 1 / np.sqrt(2)
        assert np.allclose(sim.state, expected, atol=1e-12)


class TestHardwareEfficientAnsatz:
    def test_parameter_count(self):
        c = hardware_efficient_ansatz(4, layers=2)
        # 2 layers x (ry + rz) x 4 qubits + final ry layer
        assert c.num_parameters == 2 * 2 * 4 + 4

    def test_circular_entangler(self):
        lin = hardware_efficient_ansatz(4, layers=1, entangler="linear")
        cir = hardware_efficient_ansatz(4, layers=1, entangler="circular")
        assert cir.count_2q() == lin.count_2q() + 1

    def test_invalid_entangler(self):
        with pytest.raises(ValueError):
            hardware_efficient_ansatz(3, entangler="all2all")

    def test_expressible_enough_for_h2(self, h2_problem):
        """A 2-layer HEA optimized with parameter-shift gradients and
        L-BFGS reaches H2's FCI energy — exercising the full
        hardware-faithful gradient path end to end."""
        from repro.core.estimator import DirectEstimator
        from repro.opt.scipy_wrap import LBFGSB

        hq, e_fci = h2_problem
        ansatz = hardware_efficient_ansatz(4, layers=2)
        est = DirectEstimator()

        def energy(p):
            return est.estimate(ansatz.bind(list(p)), hq)

        def grad(p):
            return parameter_shift_gradient(ansatz, hq, p)

        rng = np.random.default_rng(2)
        res = LBFGSB(max_iterations=300).minimize(
            energy,
            rng.normal(scale=0.1, size=ansatz.num_parameters),
            gradient=grad,
        )
        assert abs(res.fun - e_fci) < 1e-5


class TestTrotterEvolution:
    def test_single_term_exact(self):
        h = PauliSum.from_label_dict({"ZZ": 0.7})
        t = 0.9
        circ = trotter_evolution(h, t)
        expected = expm(-1j * t * h.to_matrix())
        assert np.allclose(circ.to_matrix(), expected, atol=1e-10)

    def test_commuting_terms_exact(self):
        h = PauliSum.from_label_dict({"ZZ": 0.7, "ZI": -0.3, "IZ": 0.2})
        t = 1.3
        circ = trotter_evolution(h, t)
        assert np.allclose(circ.to_matrix(), expm(-1j * t * h.to_matrix()), atol=1e-9)

    def test_noncommuting_converges_with_steps(self):
        h = PauliSum.from_label_dict({"XX": 0.8, "ZI": 0.5, "IZ": 0.5})
        t = 1.0
        exact = expm(-1j * t * h.to_matrix())

        def err(steps):
            u = trotter_evolution(h, t, steps).to_matrix()
            return np.linalg.norm(u - exact)

        assert err(16) < err(4) < err(1)
        assert err(16) < 0.1  # first-order Trotter: error ~ t^2/steps

    def test_identity_term_skipped(self):
        h = PauliSum.from_label_dict({"II": 5.0, "ZZ": 0.3})
        circ = trotter_evolution(h, 1.0)
        # identity contributes no gates (global phase handled classically)
        assert all(g.name in ("cx", "rz", "h", "rx") for g in circ.gates)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            trotter_evolution(PauliSum.from_label_dict({"XY": 1j}), 1.0)


class TestQPE:
    def test_h2_ground_energy(self, h2_problem):
        hq, e_fci = h2_problem
        res = run_qpe(
            hq, hartree_fock_state(4, 2), num_ancillas=10,
            energy_window=(-2.0, 0.0),
        )
        assert abs(res.energy - e_fci) <= res.resolution
        assert res.success_probability > 0.5

    def test_resolution_improves_with_ancillas(self, h2_problem):
        hq, e_fci = h2_problem
        r6 = run_qpe(hq, hartree_fock_state(4, 2), 6, (-2.0, 0.0))
        r10 = run_qpe(hq, hartree_fock_state(4, 2), 10, (-2.0, 0.0))
        assert r10.resolution < r6.resolution
        assert abs(r10.energy - e_fci) <= abs(r6.energy - e_fci) + r10.resolution

    def test_eigenstate_input_deterministic(self):
        """Feeding an exact eigenstate makes QPE sharply peaked."""
        h = PauliSum.from_label_dict({"ZI": 0.5, "IZ": 0.25})
        state = np.zeros(4, dtype=complex)
        state[0b11] = 1.0  # eigenvalue -0.75
        res = run_qpe(h, state, num_ancillas=6, energy_window=(-1.0, 1.0))
        assert abs(res.energy - (-0.75)) <= res.resolution
        assert res.success_probability > 0.8

    def test_distribution_normalized(self, h2_problem):
        hq, _ = h2_problem
        res = run_qpe(hq, hartree_fock_state(4, 2), 5, (-2.0, 0.0))
        assert np.isclose(res.distribution.sum(), 1.0, atol=1e-9)

    def test_default_window_brackets_spectrum(self, h2_problem):
        hq, e_fci = h2_problem
        res = run_qpe(hq, hartree_fock_state(4, 2), num_ancillas=12)
        assert abs(res.energy - e_fci) <= 2 * res.resolution

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            run_qpe(
                PauliSum.from_label_dict({"XY": 1j}),
                np.array([1, 0, 0, 0], dtype=complex),
            )


class TestParameterShift:
    def test_hea_supported_uccsd_not(self):
        from repro.chem.uccsd import build_uccsd_circuit

        assert supports_parameter_shift(hardware_efficient_ansatz(3, 1))
        assert not supports_parameter_shift(build_uccsd_circuit(4, 2).circuit)

    def test_matches_finite_difference(self, h2_problem):
        hq, _ = h2_problem
        ansatz = hardware_efficient_ansatz(4, layers=1)
        rng = np.random.default_rng(9)
        x = rng.normal(scale=0.3, size=ansatz.num_parameters)

        from repro.core.estimator import DirectEstimator
        from repro.opt.gradient import finite_difference_gradient

        est = DirectEstimator()

        def energy(p):
            return est.estimate(ansatz.bind(list(p)), hq)

        ps = parameter_shift_gradient(ansatz, hq, x)
        fd = finite_difference_gradient(energy, x)
        assert np.allclose(ps, fd, atol=1e-5)

    def test_rejects_reused_parameter(self, h2_problem):
        """The two-term rule (a custom ``estimate``) refuses a parameter
        that feeds several gates, naming the gate; the simulator path
        differentiates the same circuit in reverse mode."""
        from repro.chem.uccsd import build_uccsd_circuit
        from repro.core.estimator import DirectEstimator

        hq, _ = h2_problem
        circuit = build_uccsd_circuit(4, 2).circuit
        x = np.zeros(circuit.num_parameters)
        with pytest.raises(ValueError, match=r"gate 'r[xyz]' on qubits .* reuses"):
            parameter_shift_gradient(circuit, hq, x, estimate=DirectEstimator().estimate)
        assert parameter_shift_gradient(circuit, hq, x).shape == x.shape
