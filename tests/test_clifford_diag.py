"""Tests for Clifford conjugation and simultaneous diagonalization of
general commuting Pauli groups."""

import math

import numpy as np
import pytest

from repro.ir.circuit import Circuit
from repro.ir.clifford import (
    conjugate_pauli,
    conjugate_through_circuit,
    diagonalizing_clifford,
)
from repro.ir.gates import Gate
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.expectation import expectation_direct, measure_general_group
from repro.utils.linalg import random_statevector


def random_clifford_circuit(n: int, num_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    names = ["h", "s", "sdg", "x", "y", "z"]
    c = Circuit(n)
    for _ in range(num_gates):
        r = rng.random()
        if r < 0.3 and n >= 2:
            c.append(Gate("cx", tuple(int(x) for x in rng.choice(n, 2, replace=False))))
        elif r < 0.4 and n >= 2:
            c.append(Gate("cz", tuple(int(x) for x in rng.choice(n, 2, replace=False))))
        elif r < 0.7:
            c.append(Gate(str(rng.choice(names)), (int(rng.integers(n)),)))
        else:
            k = int(rng.integers(4))
            axis = str(rng.choice(["rx", "ry", "rz"]))
            c.append(Gate(axis, (int(rng.integers(n)),), (k * math.pi / 2,)))
    return c


def random_commuting_set(n, k, seed):
    """Commuting strings built by conjugating Z-type strings through a
    random Clifford circuit (guaranteed mutually commuting)."""
    rng = np.random.default_rng(seed)
    c = random_clifford_circuit(n, 20, seed)
    out = []
    for _ in range(k):
        z = int(rng.integers(1, 1 << n))
        _, p = conjugate_through_circuit(c, 1.0, PauliString(n, 0, z))
        out.append(p)
    return out


class TestConjugation:
    def test_h_swaps_x_z(self):
        sign, p = conjugate_pauli(Gate("h", (0,)), 1.0, PauliString.from_label("X"))
        assert p.label() == "Z" and sign == 1.0
        sign, p = conjugate_pauli(Gate("h", (0,)), 1.0, PauliString.from_label("Y"))
        assert p.label() == "Y" and sign == -1.0

    def test_s_maps_x_to_y(self):
        sign, p = conjugate_pauli(Gate("s", (0,)), 1.0, PauliString.from_label("X"))
        assert p.label() == "Y" and sign == 1.0

    def test_cx_propagates_x(self):
        # CX(0->1): X_0 -> X_0 X_1
        sign, p = conjugate_pauli(
            Gate("cx", (0, 1)), 1.0, PauliString.from_label("IX")
        )
        assert p.label() == "XX" and sign == 1.0

    def test_cz_entangles_x(self):
        sign, p = conjugate_pauli(
            Gate("cz", (0, 1)), 1.0, PauliString.from_label("IX")
        )
        assert p.label() == "ZX" and sign == 1.0

    def test_matches_dense_conjugation(self, rng):
        """Random gate/Pauli pairs: compare against dense U P U^dag."""
        gates = [
            Gate("h", (0,)), Gate("s", (1,)), Gate("sdg", (2,)),
            Gate("x", (0,)), Gate("y", (1,)), Gate("z", (2,)),
            Gate("cx", (0, 2)), Gate("cz", (1, 2)), Gate("swap", (0, 1)),
        ]
        n = 3
        for g in gates:
            for _ in range(5):
                p = PauliString(
                    n, int(rng.integers(1 << n)), int(rng.integers(1 << n))
                )
                sign, q = conjugate_pauli(g, 1.0, p)
                u = Circuit(n, [g]).to_matrix()
                expected = u @ p.to_matrix() @ u.conj().T
                assert np.allclose(expected, sign * q.to_matrix(), atol=1e-9)

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            conjugate_pauli(Gate("t", (0,)), 1.0, PauliString.from_label("X"))


class TestDiagonalization:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_commuting_sets(self, seed):
        n = 4
        strings = random_commuting_set(n, 5, seed)
        circ = diagonalizing_clifford(strings, n)
        for p in strings:
            _, rot = conjugate_through_circuit(circ, 1.0, p)
            assert rot.x == 0  # Z-type after rotation

    def test_already_diagonal_needs_nothing(self):
        strings = [PauliString.from_label("ZZ"), PauliString.from_label("IZ")]
        circ = diagonalizing_clifford(strings, 2)
        assert len(circ) == 0

    def test_bell_basis_group(self):
        """{XX, ZZ, YY} (the Bell-basis stabilizers) need entanglement:
        qubit-wise they are incompatible, generally they co-diagonalize."""
        strings = [
            PauliString.from_label("XX"),
            PauliString.from_label("ZZ"),
            PauliString.from_label("YY"),
        ]
        assert not strings[0].qubitwise_commutes_with(strings[1])
        circ = diagonalizing_clifford(strings, 2)
        assert circ.count_2q() > 0  # entangling rotation required
        for p in strings:
            _, rot = conjugate_through_circuit(circ, 1.0, p)
            assert rot.x == 0

    def test_anticommuting_rejected(self):
        with pytest.raises(ValueError):
            diagonalizing_clifford(
                [PauliString.from_label("X"), PauliString.from_label("Z")], 1
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_measure_general_group(self, seed, rng):
        n = 4
        strings = random_commuting_set(n, 5, seed + 20)
        coeffs = rng.normal(size=len(strings))
        group = [(complex(c), p) for c, p in zip(coeffs, strings)]
        state = random_statevector(n, rng)
        val, _ = measure_general_group(state, group, n)
        h = PauliSum.zero(n)
        for c, p in group:
            h.add_term(p, c.real)
        assert np.isclose(val, expectation_direct(state, h), atol=1e-8)

    def test_chemistry_groups_diagonalize(self):
        """Every general-commuting group of the H2 Hamiltonian must be
        measurable through one Clifford rotation, reproducing the exact
        energy."""
        from repro.chem.hamiltonian import build_molecular_hamiltonian
        from repro.chem.molecule import h2
        from repro.chem.reference import hartree_fock_state
        from repro.chem.scf import run_rhf

        hq = build_molecular_hamiltonian(run_rhf(h2())).to_qubit()
        state = hartree_fock_state(4, 2)
        total = 0.0
        groups = hq.group_general_commuting()
        for group in groups:
            val, _ = measure_general_group(state, group, 4)
            total += val
        assert np.isclose(total, expectation_direct(state, hq), atol=1e-8)
        # fewer bases than qubit-wise grouping
        assert len(groups) < len(hq.group_qubitwise_commuting())
