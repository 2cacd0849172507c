"""Quantum phase estimation for chemistry Hamiltonians.

The paper's abstract reports executing *both* QPE and VQE for
downfolded chemistry systems through the XACC + NWQ-Sim stack; this
module supplies the QPE side.

Textbook QPE: an ``m``-ancilla register controls powers of the
evolution unitary U = exp(i H t) applied to a system register prepared
in a reference state; the inverse QFT on the ancillas concentrates
probability on the binary fraction phi with U's eigenphase
2 pi phi, from which the eigenvalue E = 2 pi phi / t (after
un-shifting).  The measured eigenvalue is drawn toward the eigenstate
of largest overlap with the reference — Hartree–Fock overlaps the
ground state well for the systems here, so QPE reads out E_0.

Controlled powers are applied as exact controlled-unitary blocks on
the statevector (one dense 2^n x 2^n matrix per power — honest for the
simulator scale used here); a Trotterized gate-level path is available
through ``repro.ir.library.trotter_evolution`` for circuit-faithful
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.library import inverse_qft
from repro.ir.pauli import PauliSum
from repro.sim.statevector import StatevectorSimulator

__all__ = ["QPEResult", "run_qpe", "run_qpe_trotter", "run_iterative_qpe"]


@dataclass
class QPEResult:
    """Outcome of one QPE run."""

    energy: float
    phase: float
    distribution: np.ndarray  # probability per ancilla outcome
    num_ancillas: int
    resolution: float  # energy quantum per ancilla tick
    success_probability: float  # weight on the reported outcome

    def __repr__(self) -> str:
        return (
            f"QPEResult(energy={self.energy:.6f}, "
            f"resolution={self.resolution:.2e}, "
            f"p={self.success_probability:.3f})"
        )


def _evolution_unitary(hamiltonian: PauliSum, t: float, e_min: float) -> np.ndarray:
    """Dense exp(i t (H - e_min)), the controlled unitary of both QPEs."""
    import scipy.linalg

    h_mat = hamiltonian.to_sparse().toarray()
    return scipy.linalg.expm(1j * t * (h_mat - e_min * np.eye(h_mat.shape[0])))


def run_qpe(
    hamiltonian: PauliSum,
    reference_state: np.ndarray,
    num_ancillas: int = 8,
    energy_window: Optional[Tuple[float, float]] = None,
) -> QPEResult:
    """Estimate the eigenvalue of ``hamiltonian`` supported by
    ``reference_state``.

    Parameters
    ----------
    hamiltonian:
        Hermitian qubit observable.
    reference_state:
        System-register preparation (e.g. the HF determinant); QPE
        resolves the eigenvalue of the dominant eigencomponent.
    num_ancillas:
        Phase-register width m; energy resolution is window / 2^m.
    energy_window:
        (E_min, E_max) guaranteed to contain the target eigenvalue.
        Defaults to +/- the Pauli 1-norm of H, which always brackets
        the spectrum.
    """
    if not hamiltonian.is_hermitian():
        raise ValueError("QPE requires a Hermitian Hamiltonian")
    n = hamiltonian.num_qubits
    dim = 1 << n
    reference_state = np.asarray(reference_state, dtype=np.complex128)
    if reference_state.shape != (dim,):
        raise ValueError("reference state dimension mismatch")

    if energy_window is None:
        bound = hamiltonian.norm1()
        energy_window = (-bound, bound)
    e_min, e_max = energy_window
    if e_max <= e_min:
        raise ValueError("empty energy window")
    # Scale/shift H so the window maps to phases in [0, 1):
    # phi = (E - e_min) / (e_max - e_min) * (2^m - 1)/2^m head-room.
    span = (e_max - e_min) * (1 << num_ancillas) / ((1 << num_ancillas) - 1)
    t = 2.0 * math.pi / span

    u = _evolution_unitary(hamiltonian, t, e_min)

    # State layout: system qubits 0..n-1, ancillas n..n+m-1.
    m = num_ancillas
    total = n + m
    sim = StatevectorSimulator(total)
    state = np.zeros(1 << total, dtype=np.complex128)
    state[: dim] = reference_state  # ancillas |0...0>
    sim.set_state(state, copy=False)

    prep = Circuit(total)
    for a in range(m):
        prep.h(n + a)
    sim.apply_circuit(prep)

    # Controlled U^(2^k) on ancilla k: exact dense controlled blocks.
    psi = sim.statevector(copy=False).reshape((1 << m, dim))  # [anc, system]
    u_power = u
    for k in range(m):
        anc_bit = 1 << k
        for anc in range(1 << m):
            if anc & anc_bit:
                psi[anc] = u_power @ psi[anc]
        if k < m - 1:
            u_power = u_power @ u_power

    # Inverse QFT on the ancilla register.
    iqft = inverse_qft(m)
    shifted = Circuit(total)
    for g in iqft.gates:
        shifted.append(
            type(g)(g.name, tuple(q + n for q in g.qubits), g.params, g.matrix)
        )
    sim.apply_circuit(shifted)

    probs_full = sim.probabilities().reshape((1 << m, dim))
    anc_probs = probs_full.sum(axis=1)
    best = int(np.argmax(anc_probs))
    phase = best / (1 << m)
    energy = e_min + phase * span
    return QPEResult(
        energy=float(energy),
        phase=float(phase),
        distribution=anc_probs,
        num_ancillas=m,
        resolution=float(span / (1 << m)),
        success_probability=float(anc_probs[best]),
    )


def run_qpe_trotter(
    hamiltonian: PauliSum,
    reference_circuit: Circuit,
    num_ancillas: int = 6,
    energy_window: Optional[Tuple[float, float]] = None,
    trotter_steps: int = 2,
) -> QPEResult:
    """Fully gate-level QPE: the entire algorithm — reference prep,
    Hadamards, controlled Trotterized powers of U, inverse QFT — is one
    circuit executed by the statevector simulator.

    Exponentially many controlled-evolution repetitions (sum 2^k) keep
    this to small demos, which is faithful to the real cost of QPE; the
    dense-matrix :func:`run_qpe` is the fast path for larger registers.
    ``trotter_steps`` applies per single power of U; Trotter error adds
    a bias on top of the phase-register resolution.
    """
    from repro.ir.library import controlled_evolution, inverse_qft

    if not hamiltonian.is_hermitian():
        raise ValueError("QPE requires a Hermitian Hamiltonian")
    n = hamiltonian.num_qubits
    if reference_circuit.num_qubits != n:
        raise ValueError("reference circuit width mismatch")
    m = num_ancillas
    total = n + m

    if energy_window is None:
        bound = hamiltonian.norm1()
        energy_window = (-bound, bound)
    e_min, e_max = energy_window
    if e_max <= e_min:
        raise ValueError("empty energy window")
    span = (e_max - e_min) * (1 << m) / ((1 << m) - 1)
    t = 2.0 * math.pi / span
    shifted = hamiltonian + PauliSum.identity(n, -e_min)

    qpe = Circuit(total)
    for g in reference_circuit.gates:
        qpe.append(g)
    for a in range(m):
        qpe.h(n + a)
    for k in range(m):
        # controlled-U^(2^k) = 2^k controlled-U applications
        block = controlled_evolution(
            shifted, t, control=n + k, num_qubits=total, steps=trotter_steps
        )
        for _ in range(1 << k):
            qpe.compose(block)
    iqft = inverse_qft(m)
    for g in iqft.gates:
        qpe.append(
            type(g)(g.name, tuple(q + n for q in g.qubits), g.params, g.matrix)
        )

    sim = StatevectorSimulator(total)
    sim.run(qpe)
    probs_full = sim.probabilities().reshape((1 << m, 1 << n))
    anc_probs = probs_full.sum(axis=1)
    best = int(np.argmax(anc_probs))
    phase = best / (1 << m)
    energy = e_min + phase * span
    return QPEResult(
        energy=float(energy),
        phase=float(phase),
        distribution=anc_probs,
        num_ancillas=m,
        resolution=float(span / (1 << m)),
        success_probability=float(anc_probs[best]),
    )


def run_iterative_qpe(
    hamiltonian: PauliSum,
    reference_state: np.ndarray,
    num_bits: int = 10,
    energy_window: Optional[Tuple[float, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> QPEResult:
    """Iterative (single-ancilla) phase estimation.

    Kitaev-style IPE reads the phase one bit at a time, least
    significant first: each round is Hadamard, controlled-U^(2^k), a
    classically-controlled feedback rotation undoing the already-known
    lower bits, Hadamard, and a *mid-circuit measurement* of the one
    ancilla (collapse handled by the simulator).  Only one extra qubit
    is ever needed — the hardware-friendly QPE variant.
    """
    if not hamiltonian.is_hermitian():
        raise ValueError("QPE requires a Hermitian Hamiltonian")
    rng = rng or np.random.default_rng(0)
    n = hamiltonian.num_qubits
    dim = 1 << n
    reference_state = np.asarray(reference_state, dtype=np.complex128)
    if reference_state.shape != (dim,):
        raise ValueError("reference state dimension mismatch")
    if energy_window is None:
        bound = hamiltonian.norm1()
        energy_window = (-bound, bound)
    e_min, e_max = energy_window
    if e_max <= e_min:
        raise ValueError("empty energy window")
    m = num_bits
    span = (e_max - e_min) * (1 << m) / ((1 << m) - 1)
    t = 2.0 * math.pi / span

    u = _evolution_unitary(hamiltonian, t, e_min)
    # u^(2^k) table
    powers = [u]
    for _ in range(m - 1):
        powers.append(powers[-1] @ powers[-1])

    total = n + 1
    anc = n
    sim = StatevectorSimulator(total)
    state = np.zeros(1 << total, dtype=np.complex128)
    state[:dim] = reference_state
    sim.set_state(state, copy=False)

    # phase = sum_j bits[j] * 2^(j - m): bits[0] is the least significant
    # bit (measured first, at the highest power of U), bits[m-1] the MSB.
    bits = [0] * m
    for k in range(m - 1, -1, -1):
        i = m - k - 1  # significance index of the bit this round reads:
        # frac(2^k phase) = 0.b_i b_{i-1} ... b_0
        step = Circuit(total).h(anc)
        sim.apply_circuit(step)
        # controlled-U^{2^k} on the ancilla, applied directly
        psi = sim.statevector(copy=False).reshape(2, dim)
        psi[1] = powers[k] @ psi[1]
        # feedback: rotate away the already-measured lower bits
        phi_known = sum(bits[j] * 2.0 ** (j + k - m) for j in range(i))
        fb = Circuit(total)
        fb.add("p", [anc], -2.0 * math.pi * phi_known)
        fb.h(anc)
        sim.apply_circuit(fb)
        outcome = sim.measure_qubit(anc, rng)
        bits[i] = outcome
        if outcome:  # reset ancilla to |0>
            sim.apply_circuit(Circuit(total).x(anc))

    phase = sum(b / (1 << (m - j)) for j, b in enumerate(bits))
    energy = e_min + phase * span
    distribution = np.zeros(1 << min(m, 20))
    idx = sum(b << j for j, b in enumerate(bits))
    if idx < distribution.shape[0]:
        distribution[idx] = 1.0
    return QPEResult(
        energy=float(energy),
        phase=float(phase),
        distribution=distribution,
        num_ancillas=1,
        resolution=float(span / (1 << m)),
        success_probability=1.0,
    )
