"""Stabilizer (Clifford) simulation in tableau form.

The paper's related work (§6.1) highlights CAFQA [Ravi et al., ASPLOS
2023]: bootstrap VQE by searching the *Clifford* points of the ansatz
with an efficient classical stabilizer simulator, then hand the best
point to the continuous optimizer.  This module is that substrate — an
Aaronson–Gottesman-style tableau simulator tracking the n stabilizer
generators of the state as signed Pauli strings (bitmask x/z pairs, so
every gate conjugation is O(n) bit arithmetic and simulation cost is
polynomial in qubits instead of the statevector's 2^n).

Supported gates: the Clifford generators H, S (plus Sdg, X, Y, Z, CX,
CZ, SWAP built from them) and rotation gates RX/RY/RZ at multiples of
pi/2, which is exactly the gate alphabet CAFQA's discrete search
moves over.

Expectation values of Pauli observables come from stabilizer-group
membership: <P> is +/-1 when +/-P is in the group, 0 otherwise —
resolved by GF(2) elimination over the generators with exact phase
tracking through ``PauliString.mul``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.pauli import PauliString, PauliSum

__all__ = ["StabilizerSimulator", "is_clifford_angle"]


def is_clifford_angle(theta: float, atol: float = 1e-9) -> bool:
    """True if theta is a multiple of pi/2 (rotation stays Clifford)."""
    return abs(theta / (math.pi / 2) - round(theta / (math.pi / 2))) < atol


class StabilizerSimulator:
    """Tableau simulator over n qubits.

    Rows are the stabilizer generators: ``xs[i]``/``zs[i]`` bitmasks
    plus ``signs[i]`` in {+1, -1}.  The initial state |0...0> has
    generators +Z_0 ... +Z_{n-1}.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self.xs = [0] * num_qubits
        self.zs = [1 << q for q in range(num_qubits)]
        self.signs = [1] * num_qubits

    def reset(self) -> None:
        self.xs = [0] * self.num_qubits
        self.zs = [1 << q for q in range(self.num_qubits)]
        self.signs = [1] * self.num_qubits

    # -- elementary conjugations ------------------------------------------------

    def _h(self, q: int) -> None:
        bit = 1 << q
        for i in range(self.num_qubits):
            xb = self.xs[i] & bit
            zb = self.zs[i] & bit
            if xb and zb:  # Y -> -Y
                self.signs[i] = -self.signs[i]
            # swap x and z bits
            if bool(xb) != bool(zb):
                self.xs[i] ^= bit
                self.zs[i] ^= bit

    def _s(self, q: int) -> None:
        bit = 1 << q
        for i in range(self.num_qubits):
            xb = self.xs[i] & bit
            zb = self.zs[i] & bit
            if xb and zb:  # Y -> -X
                self.signs[i] = -self.signs[i]
            if xb:  # X -> Y (z bit toggles when x set)
                self.zs[i] ^= bit

    def _x(self, q: int) -> None:
        bit = 1 << q
        for i in range(self.num_qubits):
            if self.zs[i] & bit:  # Z, Y anticommute with X
                self.signs[i] = -self.signs[i]

    def _z(self, q: int) -> None:
        bit = 1 << q
        for i in range(self.num_qubits):
            if self.xs[i] & bit:
                self.signs[i] = -self.signs[i]

    def _y(self, q: int) -> None:
        bit = 1 << q
        for i in range(self.num_qubits):
            if bool(self.xs[i] & bit) != bool(self.zs[i] & bit):
                self.signs[i] = -self.signs[i]

    def _cx(self, c: int, t: int) -> None:
        cb, tb = 1 << c, 1 << t
        for i in range(self.num_qubits):
            xc = bool(self.xs[i] & cb)
            zt = bool(self.zs[i] & tb)
            xt = bool(self.xs[i] & tb)
            zc = bool(self.zs[i] & cb)
            if xc and zt and (xt == zc):
                self.signs[i] = -self.signs[i]
            if xc:
                self.xs[i] ^= tb
            if zt:
                self.zs[i] ^= cb

    # -- gate dispatch ---------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        name = gate.name
        qs = gate.qubits
        if name == "h":
            self._h(qs[0])
        elif name == "s":
            self._s(qs[0])
        elif name == "sdg":
            self._s(qs[0])
            self._s(qs[0])
            self._s(qs[0])
        elif name == "x":
            self._x(qs[0])
        elif name == "y":
            self._y(qs[0])
        elif name == "z":
            self._z(qs[0])
        elif name == "i":
            pass
        elif name == "cx":
            self._cx(qs[0], qs[1])
        elif name == "cz":
            self._h(qs[1])
            self._cx(qs[0], qs[1])
            self._h(qs[1])
        elif name == "swap":
            self._cx(qs[0], qs[1])
            self._cx(qs[1], qs[0])
            self._cx(qs[0], qs[1])
        elif name in ("rx", "ry", "rz", "p"):
            (theta,) = gate.params
            theta = float(theta)
            if name == "p":
                theta = theta  # p(k*pi/2) ~ rz(k*pi/2) up to global phase
            if not is_clifford_angle(theta):
                raise ValueError(
                    f"{name}({theta}) is not a Clifford rotation (angle must "
                    "be a multiple of pi/2)"
                )
            k = round(theta / (math.pi / 2)) % 4
            q = qs[0]
            if name in ("rz", "p"):
                for _ in range(k):
                    self._s(q)
            elif name == "rx":
                self._h(q)
                for _ in range(k):
                    self._s(q)
                self._h(q)
            else:  # ry = S . RX . Sdg (since S X Sdg = Y); Sdg acts first
                self._s(q)
                self._s(q)
                self._s(q)
                self._h(q)
                for _ in range(k):
                    self._s(q)
                self._h(q)
                self._s(q)
        else:
            raise ValueError(f"gate {name!r} is not Clifford-simulable here")

    def run(self, circuit: Circuit, reset: bool = True) -> None:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width mismatch")
        if circuit.num_parameters:
            from repro.sim.plan import unbound_parameter_message

            raise ValueError(unbound_parameter_message(circuit))
        if reset:
            self.reset()
        for g in circuit.gates:
            self.apply_gate(g)

    # -- observation ----------------------------------------------------------------------

    def stabilizer_strings(self) -> List[Tuple[int, PauliString]]:
        """The current generators as (sign, PauliString) pairs."""
        return [
            (self.signs[i], PauliString(self.num_qubits, self.xs[i], self.zs[i]))
            for i in range(self.num_qubits)
        ]

    def expectation_pauli(self, pauli: PauliString) -> float:
        """<P>: +/-1 if +/-P is in the stabilizer group, else 0."""
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("observable width mismatch")
        if pauli.is_identity:
            return 1.0
        n = self.num_qubits
        # Solve sum_i a_i (x_i, z_i) = (x_P, z_P) over GF(2).
        rows = [(self.xs[i] | (self.zs[i] << n)) for i in range(n)]
        target = pauli.x | (pauli.z << n)
        # Gaussian elimination tracking which generators combine.
        basis: List[Tuple[int, int]] = []  # (vector, membership mask)
        for i, v in enumerate(rows):
            basis.append((v, 1 << i))
        solution_mask = 0
        v = target
        # reduce target against an eliminated basis
        pivots: Dict[int, Tuple[int, int]] = {}
        for vec, mask in basis:
            cur_vec, cur_mask = vec, mask
            while cur_vec:
                msb = cur_vec.bit_length() - 1
                if msb in pivots:
                    pvec, pmask = pivots[msb]
                    cur_vec ^= pvec
                    cur_mask ^= pmask
                else:
                    pivots[msb] = (cur_vec, cur_mask)
                    break
        while v:
            msb = v.bit_length() - 1
            if msb not in pivots:
                return 0.0  # P (up to sign) is not in the group
            pvec, pmask = pivots[msb]
            v ^= pvec
            solution_mask ^= pmask
        # Multiply the chosen generators and compare sign with P.
        acc_sign = 1.0 + 0.0j
        acc = PauliString.identity(n)
        for i in range(n):
            if (solution_mask >> i) & 1:
                phase, acc = acc.mul(
                    PauliString(n, self.xs[i], self.zs[i])
                )
                acc_sign *= phase * self.signs[i]
        assert acc == pauli, "elimination produced the wrong Pauli"
        if abs(acc_sign.imag) > 1e-9:
            raise RuntimeError("non-real stabilizer phase (internal error)")
        return float(acc_sign.real)

    def expectation(self, observable: PauliSum) -> float:
        """<H> = sum_P c_P <P> (each term is -1, 0 or +1)."""
        total = 0.0
        for coeff, pstr in observable:
            val = self.expectation_pauli(pstr)
            if val:
                total += coeff.real * val
        return total

    def statevector(self) -> np.ndarray:
        """Dense statevector via projector products (testing only;
        exponential in qubits)."""
        n = self.num_qubits
        dim = 1 << n
        state = np.zeros(dim, dtype=np.complex128)
        state[0] = 1.0
        for sign, pstr in self.stabilizer_strings():
            state = 0.5 * (state + sign * pstr.apply(state))
        norm = np.linalg.norm(state)
        if norm < 1e-12:
            # |0...0> is orthogonal to the stabilized space; seed with
            # a random vector instead (still projects correctly).
            rng = np.random.default_rng(1)
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for sign, pstr in self.stabilizer_strings():
                state = 0.5 * (state + sign * pstr.apply(state))
            norm = np.linalg.norm(state)
        return state / norm
