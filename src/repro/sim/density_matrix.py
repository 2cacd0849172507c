"""Density-matrix simulation mode.

NWQ-Sim descends from DM-Sim [paper ref 7], a density-matrix simulator
for GPU clusters; the chemistry mode of the paper runs statevector, but
noisy validation of VQE ansatze needs mixed states.  This module gives
that mode: rho lives as a dense 2^n x 2^n matrix, unitaries act as
``U rho U^dag`` (applied with the same vectorized kernels used for
statevectors, once per side), and noise enters through Kraus channels
(``repro.sim.noise``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.pauli import PauliSum
from repro.sim.noise import NoiseChannel, NoiseModel

__all__ = ["DensityMatrixSimulator"]


class DensityMatrixSimulator:
    """Dense density-matrix simulator for small noisy registers.

    Memory is 2^(2n) complex128, so practical up to ~12 qubits; the
    paper's noisy-validation use cases (few-qubit ansatz studies) fit
    comfortably.
    """

    def __init__(self, num_qubits: int, noise_model: Optional[NoiseModel] = None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > 13:
            raise ValueError("density-matrix mode limited to 13 qubits (16 GiB)")
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits
        self.rho = np.zeros((self.dim, self.dim), dtype=np.complex128)
        self.rho[0, 0] = 1.0
        self.noise_model = noise_model

    def reset(self) -> None:
        self.rho.fill(0)
        self.rho[0, 0] = 1.0

    def set_pure_state(self, state: np.ndarray) -> None:
        state = np.asarray(state, dtype=np.complex128)
        if state.shape != (self.dim,):
            raise ValueError("state dimension mismatch")
        self.rho = np.outer(state, state.conj())

    # -- execution ---------------------------------------------------------------

    def _apply_unitary_kernel(self, gate: Gate) -> None:
        """rho <- U rho U^dag using statevector kernels column- and
        row-wise: apply U to each column (as vectors), then U* to each
        row (via the transposed view)."""
        m = gate.to_matrix()
        qs = gate.qubits
        n = self.num_qubits
        # Columns: rho[:, j] are vectors; flatten in Fortran order view.
        # Apply to all columns at once by treating rho as (dim, dim) and
        # looping kernels over the first axis via reshape:
        # kernels operate on 1-D arrays, so use matrix form for clarity.
        full = _embed_unitary(m, qs, n)
        self.rho = full @ self.rho @ full.conj().T

    def apply_gate(self, gate: Gate) -> None:
        self._apply_unitary_kernel(gate)
        if self.noise_model is not None:
            for channel, qubits in self.noise_model.channels_after(gate):
                self.apply_channel(channel, qubits)

    def apply_channel(self, channel: NoiseChannel, qubits: Sequence[int]) -> None:
        """Apply a Kraus channel: rho <- sum_k K rho K^dag."""
        n = self.num_qubits
        new = np.zeros_like(self.rho)
        for k in channel.kraus_operators(len(qubits)):
            full = _embed_unitary(k, tuple(qubits), n)
            new += full @ self.rho @ full.conj().T
        self.rho = new

    def run(self, circuit: Circuit, reset: bool = True) -> np.ndarray:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit width mismatch")
        if circuit.num_parameters:
            from repro.sim.plan import unbound_parameter_message

            raise ValueError(unbound_parameter_message(circuit))
        if reset:
            self.reset()
        for g in circuit.gates:
            self.apply_gate(g)
        return self.rho

    # -- observation -----------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).clip(min=0.0)

    def expectation(self, observable: PauliSum) -> float:
        """Tr(rho H), computed term-by-term without building H densely."""
        total = 0.0 + 0.0j
        for coeff, pstr in observable:
            # Tr(rho P) = sum_j (rho P)_{jj} = sum_j rho[j, :] P[:, j];
            # P has one nonzero per column: P[k ^ x, k].
            dim = self.dim
            cols = np.arange(dim, dtype=np.int64)
            rows = cols ^ pstr.x
            from repro.utils.bitops import count_set_bits

            vals = (1.0 - 2.0 * (count_set_bits(cols & pstr.z) & 1)).astype(
                np.complex128
            )
            c = pstr.phase_exponent()
            if c:
                vals *= (1j) ** c
            total += coeff * np.sum(self.rho[cols, rows] * vals)
        if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
            raise ValueError("non-Hermitian observable")
        return float(total.real)

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states."""
        return float(np.real(np.vdot(self.rho, self.rho @ np.eye(self.dim))))

    def sample_counts(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Dict[int, int]:
        rng = rng or np.random.default_rng()
        p = self.probabilities()
        p = p / p.sum()
        outcomes, counts = np.unique(
            rng.choice(self.dim, size=shots, p=p), return_counts=True
        )
        return {int(o): int(c) for o, c in zip(outcomes, counts)}


def _embed_unitary(m: np.ndarray, qubits: "tuple[int, ...]", n: int) -> np.ndarray:
    """Embed a k-qubit operator into the full 2^n space (dense; DM mode
    is small-register by construction so this is acceptable)."""
    dim = 1 << n
    k = len(qubits)
    out = np.zeros((dim, dim), dtype=np.complex128)
    sub_dim = 1 << k
    base = np.arange(dim, dtype=np.int64)
    sub = np.zeros(dim, dtype=np.int64)
    for j, q in enumerate(qubits):
        sub |= ((base >> q) & 1) << j
    stripped = base.copy()
    for q in qubits:
        stripped &= ~(1 << q)
    for s_out in range(sub_dim):
        offset = 0
        for j, q in enumerate(qubits):
            if (s_out >> j) & 1:
                offset |= 1 << q
        rows = stripped | offset
        out[rows, base] = m[s_out, sub]
    return out
