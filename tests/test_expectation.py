"""Tests for the three expectation-evaluation strategies (paper §4.2):
direct, basis-rotated (measurement-faithful), and sampled."""

import numpy as np
import pytest

from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.expectation import (
    basis_change_circuit,
    diagonal_expectation,
    expectation_basis_rotated,
    expectation_direct,
    expectation_sampled,
)
from repro.sim.statevector import StatevectorSimulator
from repro.utils.linalg import random_statevector
from tests.test_statevector import random_circuit


def toy_hamiltonian() -> PauliSum:
    """The paper's Eq. 4 toy Hamiltonian: H = ZZ + XX."""
    return PauliSum.from_label_dict({"ZZ": 1.0, "XX": 1.0})


class TestBasisChange:
    def test_z_terms_need_no_gates(self):
        circ = basis_change_circuit([PauliString.from_label("ZIZ")], 3)
        assert len(circ) == 0

    def test_x_gets_hadamard(self):
        circ = basis_change_circuit([PauliString.from_label("IX")], 2)
        assert [g.name for g in circ.gates] == ["h"]
        assert circ.gates[0].qubits == (0,)

    def test_y_gets_sdg_h(self):
        circ = basis_change_circuit([PauliString.from_label("YI")], 2)
        assert [g.name for g in circ.gates] == ["sdg", "h"]

    def test_incompatible_group_rejected(self):
        with pytest.raises(ValueError):
            basis_change_circuit(
                [PauliString.from_label("XI"), PauliString.from_label("ZI")], 2
            )

    def test_rotation_diagonalizes(self, rng):
        """After the basis change, <P> must equal the diagonal formula."""
        for lbl in ["XY", "YX", "XX", "ZY"]:
            p = PauliString.from_label(lbl)
            state = random_statevector(2, rng)
            circ = basis_change_circuit([p], 2)
            sim = StatevectorSimulator(2)
            sim.set_state(state)
            sim.apply_circuit(circ)
            got = diagonal_expectation(sim.probabilities(), p.x | p.z)
            want = p.expectation(state).real
            assert np.isclose(got, want, atol=1e-10)


class TestDirect:
    def test_toy_hamiltonian_bell(self):
        """On the Bell state, <ZZ> = <XX> = 1 so <H> = 2 (Eq. 4/8)."""
        sim = StatevectorSimulator(2)
        state = sim.run(Circuit(2).h(0).cx(0, 1))
        assert np.isclose(expectation_direct(state, toy_hamiltonian()), 2.0)

    def test_zz_matrix_example(self):
        """The paper's Eq. 6 matrix: <00|ZZ|00> = 1, <01|ZZ|01> = -1."""
        h = PauliSum.from_label_dict({"ZZ": 1.0})
        e00 = np.zeros(4, dtype=complex)
        e00[0] = 1
        assert np.isclose(expectation_direct(e00, h), 1.0)
        e01 = np.zeros(4, dtype=complex)
        e01[0b01] = 1
        assert np.isclose(expectation_direct(e01, h), -1.0)

    def test_non_hermitian_rejected(self, rng):
        h = PauliSum.from_label_dict({"XY": 1j})
        state = random_statevector(2, rng)
        with pytest.raises(ValueError):
            expectation_direct(state, h)

    def test_matches_dense(self, rng):
        h = PauliSum.from_label_dict(
            {"XXI": 0.5, "IZZ": -1.2, "YIY": 0.3, "ZII": 0.9, "III": 0.1}
        )
        state = random_statevector(3, rng)
        dense = h.to_matrix()
        assert np.isclose(
            expectation_direct(state, h), np.vdot(state, dense @ state).real
        )


class TestStrategyAgreement:
    """All three strategies must agree (sampled within statistical error)."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_direct_equals_rotated(self, seed, rng):
        n = 4
        c = random_circuit(n, 25, seed)
        state = StatevectorSimulator(n).run(c).copy()
        h = PauliSum.from_label_dict(
            {"XXII": 0.5, "IZZI": -1.2, "YIIY": 0.3, "ZIII": 0.9, "IIXZ": 0.4}
        )
        direct = expectation_direct(state, h)
        rotated = expectation_basis_rotated(state, h)
        assert np.isclose(direct, rotated, atol=1e-9)

    def test_rotated_gate_count_reported(self, rng):
        state = random_statevector(2, rng)
        h = toy_hamiltonian()
        val, gates = expectation_basis_rotated(state, h, return_gate_count=True)
        # ZZ costs nothing; XX needs 2 Hadamards.
        assert gates == 2

    def test_sampled_converges(self):
        sim = StatevectorSimulator(2)
        state = sim.run(Circuit(2).h(0).cx(0, 1)).copy()
        h = toy_hamiltonian()
        est = expectation_sampled(state, h, shots_per_group=20000,
                                  rng=np.random.default_rng(0))
        assert abs(est - 2.0) < 0.05

    def test_sampled_error_scaling(self):
        """Statistical error should shrink roughly as 1/sqrt(shots)."""
        sim = StatevectorSimulator(2)
        state = sim.run(Circuit(2).ry(1.1, 0).cx(0, 1)).copy()
        h = toy_hamiltonian()
        exact = expectation_direct(state, h)

        def rms_error(shots, reps=12):
            errs = []
            for i in range(reps):
                est = expectation_sampled(
                    state, h, shots, rng=np.random.default_rng(1000 + i)
                )
                errs.append((est - exact) ** 2)
            return np.sqrt(np.mean(errs))

        e_small = rms_error(100)
        e_big = rms_error(10000)
        assert e_big < e_small  # more shots, less error

    def test_identity_term_handled(self, rng):
        state = random_statevector(2, rng)
        h = PauliSum.from_label_dict({"II": 2.5, "ZZ": 1.0})
        d = expectation_direct(state, h)
        r = expectation_basis_rotated(state, h)
        assert np.isclose(d, r, atol=1e-9)
        zz = PauliString.from_label("ZZ").expectation(state).real
        assert np.isclose(d, 2.5 + zz, atol=1e-9)


class TestMeasuredInputValidation:
    """The measured paths refuse bad input before any rotation or draw."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s, h: expectation_basis_rotated(s, h),
            lambda s, h: expectation_sampled(s, h, 100, rng=np.random.default_rng(0)),
        ],
        ids=["basis_rotated", "sampled"],
    )
    def test_non_hermitian_observable_rejected(self, evaluate):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        h = PauliSum.from_label_dict({"ZI": 1 + 0.5j})
        with pytest.raises(ValueError, match="non-Hermitian hamiltonian: term ZI"):
            evaluate(state, h)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_fewer_than_one_shot_rejected(self, shots):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        with pytest.raises(ValueError, match="shots_per_group must be at least 1"):
            expectation_sampled(state, toy_hamiltonian(), shots_per_group=shots)
