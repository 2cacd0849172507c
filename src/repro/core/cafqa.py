"""CAFQA-style Clifford bootstrap for VQE (paper §6.1, ref [11]).

CAFQA observes that when every variational rotation sits at a multiple
of pi/2 the ansatz circuit is Clifford, so its energy is classically
computable in polynomial time with a stabilizer simulator.  Searching
this discrete lattice yields an initialization at least as good as —
often far better than — the zero-angle (Hartree–Fock) start, at
negligible cost compared to the continuous optimization it seeds.

``cafqa_search`` runs multi-restart coordinate descent over the
{0, pi/2, pi, 3pi/2}^m lattice, evaluating each candidate with
``repro.sim.stabilizer.StabilizerSimulator``; ``cafqa_bootstrap_vqe``
wires the winner into a warm-started continuous VQE run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.stabilizer import StabilizerSimulator

__all__ = ["CafqaResult", "cafqa_search", "cafqa_bootstrap_vqe"]

_CLIFFORD_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


@dataclass
class CafqaResult:
    """Best Clifford point found by the discrete search."""

    energy: float
    angles: np.ndarray
    evaluations: int
    restarts: int
    improved_over_zero: bool


def _clifford_energy(
    circuit: Circuit, hamiltonian: PauliSum, angles: Sequence[float]
) -> float:
    bound = circuit.bind(list(angles))
    sim = StabilizerSimulator(circuit.num_qubits)
    sim.run(bound)
    return sim.expectation(hamiltonian)


def cafqa_search(
    ansatz: Circuit,
    hamiltonian: PauliSum,
    restarts: int = 4,
    max_sweeps: int = 10,
    seed: int = 0,
) -> CafqaResult:
    """Coordinate-descent search over the Clifford lattice.

    Each sweep tries all four Clifford angles for every parameter in
    turn, keeping improvements; sweeps repeat to a fixed point.
    Restart 0 starts from all-zero angles (the HF point for chemistry
    ansatze); the rest start from random lattice points.
    """
    m = ansatz.num_parameters
    if m == 0:
        raise ValueError("ansatz has no parameters")
    rng = np.random.default_rng(seed)
    evaluations = 0

    e_zero = _clifford_energy(ansatz, hamiltonian, [0.0] * m)
    evaluations += 1
    best_angles = np.zeros(m)
    best_energy = e_zero

    for restart in range(restarts):
        if restart == 0:
            angles = np.zeros(m)
            energy = e_zero
        else:
            angles = rng.choice(_CLIFFORD_ANGLES, size=m)
            energy = _clifford_energy(ansatz, hamiltonian, angles)
            evaluations += 1
        for _ in range(max_sweeps):
            improved = False
            for k in range(m):
                current = angles[k]
                for cand in _CLIFFORD_ANGLES:
                    if cand == current:
                        continue
                    trial = angles.copy()
                    trial[k] = cand
                    e = _clifford_energy(ansatz, hamiltonian, trial)
                    evaluations += 1
                    if e < energy - 1e-12:
                        angles, energy = trial, e
                        improved = True
            if not improved:
                break
        if energy < best_energy - 1e-12:
            best_energy, best_angles = energy, angles.copy()

    return CafqaResult(
        energy=float(best_energy),
        angles=best_angles,
        evaluations=evaluations,
        restarts=restarts,
        improved_over_zero=best_energy < e_zero - 1e-12,
    )


def cafqa_bootstrap_vqe(
    ansatz: Circuit,
    hamiltonian: PauliSum,
    optimizer=None,
    restarts: int = 4,
    seed: int = 0,
):
    """Full CAFQA pipeline: discrete Clifford search, then continuous
    VQE warm-started at the winner.  Returns ``(CafqaResult, VQEResult)``."""
    from repro.core.vqe import VQE

    search = cafqa_search(ansatz, hamiltonian, restarts=restarts, seed=seed)
    vqe = VQE(hamiltonian, ansatz=ansatz, optimizer=optimizer)
    result = vqe.run(search.angles)
    return search, result
