"""Exact statevector evolution under Pauli-sum generators.

The VQE/ADAPT drivers evolve states as products of exponentials
``exp(theta_k A_k)`` with anti-Hermitian generators ``A_k``.  In the
x-mask-batched compiled form (``repro.ir.compiled``) the terms sharing
an x-mask ``x`` act together as ``A_x |k> = d[k] |k ^ x>``: a direct sum
of anti-Hermitian blocks on the pairs ``{j, j ^ x}`` (1x1 when x = 0)
with ``A_x^2 = -omega^2``, ``omega[j] = |d[j]|``, so

    exp(theta A_x) psi = cos(omega theta) o psi
                         + sin(omega theta) / omega o (A_x psi)

— one gather and a few elementwise passes, exact whether or not the
terms inside the group commute; the trigonometry is evaluated once per
*distinct* weight (three for a fermionic excitation).  This is the
kernel compiled circuit plans run their rotation steps on
(:func:`repro.sim.kernels.apply_rotation`).  Every UCCSD
single/double and qubit-pool string has a single x-mask.  A generator
with several masks is one such step per mask when terms of different
masks commute, and otherwise falls back to Krylov ``expm_multiply`` on
the sparse matrix — exact to machine precision either way, so drivers
can treat this as an oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
import scipy.sparse.linalg as spla

from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.kernels import MaskRotation, apply_rotation

__all__ = ["apply_pauli_rotation", "terms_commute", "GeneratorEvolution"]


def apply_pauli_rotation(
    state: np.ndarray, pauli: PauliString, phi: float
) -> np.ndarray:
    """Return exp(i * phi * P) @ state (two vectorized passes)."""
    return math.cos(phi) * state + (1j * math.sin(phi)) * pauli.apply(state)


def terms_commute(a: PauliSum) -> bool:
    """True if all Pauli terms of ``a`` mutually commute."""
    return not a.to_symplectic().anticommutation_matrix().any()


def _mask_groups_commute(a: PauliSum) -> bool:
    """True if every two terms of ``a`` with different x-masks commute
    (terms sharing a mask may anticommute: their group is exponentiated
    in closed form as a whole)."""
    symp = a.to_symplectic()
    other_mask = (symp.x[:, None, :] != symp.x[None, :, :]).any(axis=-1)
    return not (symp.anticommutation_matrix() & other_mask).any()


class GeneratorEvolution:
    """Prepared applicator for exp(theta * A), A anti-Hermitian.

    Precomputes either the per-x-mask closed-form steps (exact fast
    path) or the sparse matrix (Krylov path) once, so repeated
    applications during optimization are cheap.  ``apply`` never writes
    to its input and always returns a fresh array.
    """

    def __init__(self, generator: PauliSum):
        if not generator.is_anti_hermitian(atol=1e-9):
            raise ValueError("generator must be anti-Hermitian")
        self.generator = generator
        self.num_qubits = generator.num_qubits
        # compiled once here: the adjoint sweep calls apply_generator in
        # a tight loop and should not pay the memoization version check
        self._compiled = compile_observable(generator)
        self._steps: Optional[List[MaskRotation]] = None
        self._sparse = None
        if self._compiled.num_passes <= 1 or _mask_groups_commute(generator):
            # compiled form: A_x |k> = d[k] |k ^ x>, i.e. w[i] = d[i ^ x]
            self._steps = [
                MaskRotation(x, *np.unique(d if g is None else d[g], return_inverse=True))
                for x, d, g in zip(
                    self._compiled.x_masks,
                    self._compiled.diagonals,
                    self._compiled.gathers,
                )
            ]
        else:
            self._sparse = generator.to_sparse()

    @property
    def exact_factorization(self) -> bool:
        return self._steps is not None

    def apply(self, state: np.ndarray, theta: float) -> np.ndarray:
        """Return exp(theta * A) @ state."""
        if self._steps is None:
            return spla.expm_multiply(self._sparse * theta, state)
        if state.shape[0] != self._compiled.dim:
            raise ValueError("state dimension mismatch")
        out = state.astype(np.complex128)  # always a copy
        for step in self._steps:
            apply_rotation(out, theta, step)
        return out

    def apply_generator(self, state: np.ndarray) -> np.ndarray:
        """Return A @ state (used for adjoint gradients).

        Uses the x-mask-batched compiled form, which is cached on the
        generator itself — UCCSD excitation blocks share one x-mask
        across all their strings, so this is a single gather + multiply
        per call, reused across every ADAPT re-optimization that picks
        the same pool operator.
        """
        return self._compiled.apply(state)
