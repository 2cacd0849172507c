"""Error mitigation for noisy simulation: zero-noise extrapolation and
readout-error mitigation.

The paper's stated purpose for large-scale simulation is
characterizing and validating algorithms *before* hardware deployment;
mitigation strategies are part of that validation loop — the question
"how much accuracy does ZNE buy this ansatz at this error rate?" is
answered entirely in simulation.

* **Zero-noise extrapolation (ZNE)** by global unitary folding: the
  circuit ``C`` becomes ``C (C^dag C)^k``, multiplying the effective
  noise strength by ``2k + 1`` while leaving the ideal unitary
  unchanged; Richardson (polynomial) extrapolation of the measured
  expectation values back to scale 0 estimates the noiseless value.
* **Readout mitigation**: a per-qubit confusion model ``p(read b' |
  true b)`` is calibrated from basis-state preparations and inverted
  (tensored 2x2 inverses) on measured count distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.density_matrix import DensityMatrixSimulator
from repro.sim.noise import NoiseModel

__all__ = [
    "fold_circuit",
    "zne_expectation",
    "ReadoutErrorModel",
    "mitigate_counts",
]


def fold_circuit(circuit: Circuit, scale_factor: int) -> Circuit:
    """Global unitary folding: C -> C (C^dag C)^k with scale = 2k + 1.

    The folded circuit implements the same unitary but executes
    ``scale_factor`` times the gates, amplifying per-gate noise by the
    same factor.
    """
    if scale_factor < 1 or scale_factor % 2 == 0:
        raise ValueError("scale factor must be an odd positive integer")
    k = (scale_factor - 1) // 2
    folded = circuit.copy()
    inverse = circuit.inverse()
    for _ in range(k):
        folded.compose(inverse)
        folded.compose(circuit)
    return folded


def zne_expectation(
    circuit: Circuit,
    observable: PauliSum,
    noise_model: NoiseModel,
    scale_factors: Sequence[int] = (1, 3, 5),
    order: Optional[int] = None,
) -> Tuple[float, Dict[int, float]]:
    """Richardson-extrapolated expectation under a noise model.

    Runs the folded circuits on the density-matrix simulator, fits a
    polynomial of degree ``order`` (default: #points - 1) in the scale
    factor, and returns ``(extrapolated_value, per-scale values)``.
    """
    if len(scale_factors) < 2:
        raise ValueError("need at least two scale factors")
    values: Dict[int, float] = {}
    for s in scale_factors:
        folded = fold_circuit(circuit, s)
        sim = DensityMatrixSimulator(circuit.num_qubits, noise_model=noise_model)
        sim.run(folded)
        values[s] = sim.expectation(observable)
    xs = np.array(sorted(values))
    ys = np.array([values[int(x)] for x in xs])
    degree = order if order is not None else len(xs) - 1
    coeffs = np.polyfit(xs, ys, degree)
    extrapolated = float(np.polyval(coeffs, 0.0))
    return extrapolated, values


@dataclass
class ReadoutErrorModel:
    """Independent per-qubit readout confusion.

    ``p01[q]`` is P(read 1 | true 0), ``p10[q]`` is P(read 0 | true 1)
    on qubit q.
    """

    p01: np.ndarray
    p10: np.ndarray

    def __post_init__(self) -> None:
        self.p01 = np.asarray(self.p01, dtype=float)
        self.p10 = np.asarray(self.p10, dtype=float)
        if self.p01.shape != self.p10.shape:
            raise ValueError("p01/p10 shape mismatch")
        if np.any(self.p01 < 0) or np.any(self.p01 > 1):
            raise ValueError("p01 out of range")
        if np.any(self.p10 < 0) or np.any(self.p10 > 1):
            raise ValueError("p10 out of range")

    @property
    def num_qubits(self) -> int:
        return self.p01.shape[0]

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        """2x2 column-stochastic matrix M[read, true]."""
        return np.array(
            [
                [1 - self.p01[qubit], self.p10[qubit]],
                [self.p01[qubit], 1 - self.p10[qubit]],
            ]
        )

    def apply_to_probabilities(self, probs: np.ndarray) -> np.ndarray:
        """Noisy readout distribution from the true distribution."""
        return self._transform(probs, inverse=False)

    def correct_probabilities(self, probs: np.ndarray) -> np.ndarray:
        """Inverse-confusion correction (may need clipping)."""
        out = self._transform(probs, inverse=True)
        out = np.clip(out, 0.0, None)
        total = out.sum()
        return out / total if total > 0 else out

    def _transform(self, probs: np.ndarray, inverse: bool) -> np.ndarray:
        n = self.num_qubits
        if probs.shape != (1 << n,):
            raise ValueError("distribution size mismatch")
        out = probs.astype(float).copy()
        # tensored structure: apply each qubit's 2x2 along its axis
        out = out.reshape([2] * n)
        for q in range(n):
            m = self.confusion_matrix(q)
            if inverse:
                m = np.linalg.inv(m)
            # qubit q is bit q of the index: axis (n - 1 - q) in the
            # reshaped little-endian layout
            axis = n - 1 - q
            out = np.moveaxis(out, axis, 0)
            out = np.tensordot(m, out, axes=([1], [0]))
            out = np.moveaxis(out, 0, axis)
        return out.reshape(-1)


def mitigate_counts(
    counts: Dict[int, int], model: ReadoutErrorModel
) -> np.ndarray:
    """Inverse-confusion-corrected probability vector from raw counts."""
    dim = 1 << model.num_qubits
    probs = np.zeros(dim)
    total = sum(counts.values())
    for outcome, c in counts.items():
        probs[outcome] = c / total
    return model.correct_probabilities(probs)
