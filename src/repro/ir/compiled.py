"""Compiled Pauli observables: x-mask-batched evaluation kernels.

The direct expectation method (paper §4.2.2) evaluates <psi|H|psi>
from the amplitude vector with one vectorized pass *per Hamiltonian
term* — for a downfolded chemistry Hamiltonian that is thousands of
full-vector gathers, sign evaluations, and reductions on every energy
and gradient call of a VQE/ADAPT campaign.

This module precompiles the observable instead.  Writing each term as
``P(x, z) = i^{|x & z|} X^x Z^z``, every term with the same x-mask
performs the *same* amplitude permutation ``k -> k ^ x``; only the
diagonal sign pattern differs.  Grouping terms by x-mask and summing
their sign patterns into one dense complex diagonal per distinct mask,

    d_x[k] = sum_z c_{x,z} * i^{|x & z|} * (-1)^{parity(k & z)},

collapses the whole observable to

    (H psi)[j]   = sum_x d_x[j ^ x] * psi[j ^ x],
    <psi|H|psi>  = sum_x sum_k conj(psi[k ^ x]) * d_x[k] * psi[k],

i.e. **one gather + one multiply + one reduction per distinct x-mask**
instead of per term.  All diagonal (Z-only) terms share x = 0 and
collapse into a single gather-free pass — for qubit-mapped chemistry
Hamiltonians that alone absorbs a large fraction of the term count.

Compiled forms are cached on the source :class:`PauliSum` (invalidated
by ``add_term``/``chop``) via :func:`compile_observable`, so every
consumer — the estimators, the adjoint-gradient sweep, ADAPT pool
screening, batched simulation — shares one compilation per observable
per campaign.  Compile cost is one n-level Walsh-Hadamard transform per
distinct x-mask (``num_passes * n * 2^n``, whatever the term count —
a few naive ``apply`` calls' worth), so the engine pays for itself
within the first evaluations; memory is ``num_passes * 2^n * 24`` bytes
(complex diagonal + int64 gather table per non-zero mask).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.ir.pauli import PauliSum
from repro.utils.bitops import basis_indices

__all__ = ["CompiledPauliSum", "compile_observable"]


class CompiledPauliSum:
    """An x-mask-batched, ready-to-evaluate form of a :class:`PauliSum`.

    Instances are immutable snapshots: they do not track later
    mutations of the source sum.  Use :func:`compile_observable` to get
    the memoized (auto-invalidated) compiled form.
    """

    __slots__ = (
        "num_qubits",
        "dim",
        "num_terms",
        "x_masks",
        "diagonals",
        "gathers",
        "source_version",
        "__weakref__",  # memory-ledger registration outlives no instance
    )

    def __init__(self, pauli_sum: PauliSum):
        n = pauli_sum.num_qubits
        dim = 1 << n
        self.num_qubits = n
        self.dim = dim
        self.num_terms = pauli_sum.num_terms
        self.source_version = pauli_sum.version

        # One in-place Walsh-Hadamard transform per distinct x-mask over
        # the packed symplectic form (x = 0, the gather-free diagonal
        # pass, sorts first).
        idx = basis_indices(n)
        masks, self.diagonals = pauli_sum.to_symplectic().x_mask_diagonals()
        self.x_masks: Tuple[int, ...] = tuple(masks.tolist())
        self.gathers: List[Optional[np.ndarray]] = [
            None if x == 0 else idx ^ x for x in self.x_masks
        ]
        obs.mem_track(self, "compiled_observable", self.nbytes())
        if obs.enabled():
            obs.inc(
                "repro_compiled_obs_compiles_total",
                help="Observable compilations (x-mask batching)",
            )
            obs.inc(
                "repro_compiled_obs_compiled_terms_total",
                self.num_terms,
                help="Pauli terms absorbed into compiled observables",
            )

    # -- inspection ----------------------------------------------------------

    @property
    def num_passes(self) -> int:
        """Full-vector passes per evaluation (= distinct x-masks); the
        naive per-term path pays ``num_terms`` passes instead."""
        return len(self.x_masks)

    @property
    def is_diagonal(self) -> bool:
        """True when every term is Z-type (single gather-free pass)."""
        return self.x_masks == (0,) or not self.x_masks

    def nbytes(self) -> int:
        """Memory held by the precomputed diagonals + gather tables."""
        total = self.diagonals.nbytes
        for g in self.gathers:
            if g is not None:
                total += g.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"CompiledPauliSum(qubits={self.num_qubits}, "
            f"terms={self.num_terms}, passes={self.num_passes})"
        )

    def _record(self, op: str) -> None:
        if obs.enabled():
            obs.inc(
                "repro_compiled_obs_evaluations_total",
                help="Compiled-observable evaluations by operation",
                labels={"op": op},
            )
            obs.inc(
                "repro_compiled_obs_passes_total",
                self.num_passes,
                help="Full-vector passes performed by compiled evaluations",
            )
            obs.inc(
                "repro_compiled_obs_passes_saved_total",
                self.num_terms - self.num_passes,
                help="Per-term passes avoided by x-mask batching",
            )

    # -- numerics ------------------------------------------------------------

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Return ``H @ state`` in one pass per distinct x-mask."""
        if state.shape[0] != self.dim:
            raise ValueError(
                f"state dimension mismatch: expected {self.dim}, got {state.shape[0]}"
            )
        self._record("apply")
        out = np.zeros(self.dim, dtype=np.complex128)
        for d, g in zip(self.diagonals, self.gathers):
            t = d * state
            if g is None:
                out += t
            else:
                out += t[g]
        return out

    def expectation(self, state: np.ndarray) -> complex:
        """<state| H |state> without materializing ``H @ state``."""
        if state.shape[0] != self.dim:
            raise ValueError(
                f"state dimension mismatch: expected {self.dim}, got {state.shape[0]}"
            )
        self._record("expectation")
        total = 0.0 + 0.0j
        abs2: Optional[np.ndarray] = None
        for d, g in zip(self.diagonals, self.gathers):
            if g is None:
                if abs2 is None:
                    abs2 = (state.real * state.real) + (state.imag * state.imag)
                total += np.dot(d, abs2)
            else:
                total += np.vdot(state[g], d * state)
        return complex(total)

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """<psi_b|H|psi_b> for a (B, 2^n) batch, one pass per x-mask.

        Returns the complex per-row values; Hermiticity checking is the
        caller's concern (see ``BatchedStatevectorSimulator``).
        """
        if states.ndim != 2 or states.shape[1] != self.dim:
            raise ValueError("expected a (batch, 2^n) amplitude matrix")
        self._record("expectations")
        out = np.zeros(states.shape[0], dtype=np.complex128)
        for d, g in zip(self.diagonals, self.gathers):
            if g is None:
                abs2 = (states.real * states.real) + (states.imag * states.imag)
                out += abs2 @ d
            else:
                out += np.einsum(
                    "bi,bi->b", states[:, g].conj(), d * states
                )
        return out


def compile_observable(
    observable: Union[PauliSum, CompiledPauliSum],
) -> CompiledPauliSum:
    """The memoizing entry point every hot path goes through.

    Returns the compiled form of ``observable``, reusing the copy
    cached on the :class:`PauliSum` when it is still valid (the cache
    is dropped by ``add_term``/``chop``).  Passing an already-compiled
    observable is a no-op, so APIs can accept either form.
    """
    if isinstance(observable, CompiledPauliSum):
        return observable
    cached = observable._compiled
    if (
        isinstance(cached, CompiledPauliSum)
        and cached.source_version == observable.version
    ):
        if obs.enabled():
            obs.inc(
                "repro_compiled_obs_cache_total",
                help="Compiled-observable cache lookups by outcome",
                labels={"outcome": "hit"},
            )
        return cached
    if obs.enabled():
        obs.inc(
            "repro_compiled_obs_cache_total",
            help="Compiled-observable cache lookups by outcome",
            labels={"outcome": "miss"},
        )
    compiled = CompiledPauliSum(observable)
    observable._compiled = compiled
    return compiled
