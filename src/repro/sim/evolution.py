"""Exact statevector evolution under Pauli-sum generators: the oracle.

``GeneratorEvolution`` applies one ``exp(theta A)``, ``A``
anti-Hermitian, to a dense state.  VQE and ADAPT do not use it:
a generator ansatz is lowered to an :class:`repro.sim.plan.ExecutionPlan`
(``from_generators``) and runs, and is differentiated, like any other
plan.  It stays as the exact per-generator reference the tests hold
those plans to, and it also takes the generators a plan refuses.

Its fast path is the plan's own steps
(:func:`repro.sim.plan.generator_ops`: one closed-form
:class:`repro.sim.kernels.MaskRotation` per x-mask group, exact whether
or not the terms inside a group commute).  When terms of different groups anticommute
(:func:`repro.sim.plan.mask_clash`) it falls back to Krylov
``expm_multiply`` on the sparse matrix — exact to machine precision
either way.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.ir.pauli import PauliString, PauliSum
from repro.sim.kernels import MaskRotation, apply_rotation
from repro.sim.plan import generator_ops, mask_clash

__all__ = ["apply_pauli_rotation", "terms_commute", "GeneratorEvolution"]


def apply_pauli_rotation(
    state: np.ndarray, pauli: PauliString, phi: float
) -> np.ndarray:
    """Return exp(i * phi * P) @ state (two vectorized passes)."""
    return math.cos(phi) * state + (1j * math.sin(phi)) * pauli.apply(state)


def terms_commute(a: PauliSum) -> bool:
    """True if all Pauli terms of ``a`` mutually commute."""
    return not a.to_symplectic().anticommutation_matrix().any()


class GeneratorEvolution:
    """Prepared applicator for exp(theta * A), A anti-Hermitian.

    Precomputes either the per-x-mask rotation steps (exact fast path)
    or the sparse matrix (Krylov path) once.  ``apply`` never writes to
    its input and always returns a fresh array.
    """

    def __init__(self, generator: PauliSum):
        if not generator.is_anti_hermitian(atol=1e-9):
            raise ValueError("generator must be anti-Hermitian")
        self.generator = generator
        self.num_qubits = generator.num_qubits
        self._steps: Optional[List[MaskRotation]] = None
        self._sparse = None
        if mask_clash(generator) is None:
            self._steps = [op.data for op in generator_ops(generator, 0)]
        else:
            from scipy.sparse.linalg import expm_multiply

            self._sparse = generator.to_sparse()
            self._expm_multiply = expm_multiply

    @property
    def exact_factorization(self) -> bool:
        return self._steps is not None

    def apply(self, state: np.ndarray, theta: float) -> np.ndarray:
        """Return exp(theta * A) @ state."""
        if self._steps is None:
            return self._expm_multiply(self._sparse * theta, state)
        dim = 1 << self.num_qubits
        if state.shape[0] != dim:
            raise ValueError(
                f"state dimension mismatch: expected {dim}, got {state.shape[0]}"
            )
        out = state.astype(np.complex128)  # always a copy
        for step in self._steps:
            apply_rotation(out, theta, step)
        return out

    def apply_generator(self, state: np.ndarray) -> np.ndarray:
        """Return A @ state, one pass per Pauli term (the reference path
        of :meth:`repro.ir.pauli.PauliSum.apply`)."""
        return self.generator.apply(state)
