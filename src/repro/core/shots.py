"""Variance-weighted shot allocation across measurement groups.

In sampled execution the estimator variance of <H> is

    Var = sum_g Var_g / s_g,   sum_g s_g = S (shot budget),

and Lagrange optimization gives the classic answer: allocate shots
proportionally to the square root of each group's variance,
``s_g ~ sqrt(Var_g)``.  Uniform allocation — what a naive driver does —
wastes budget on tiny-coefficient groups.  Both policies are provided
so the benchmark can quantify the gap.  :func:`allocate_shots` takes
any per-group variances (true ones, or estimates from a pilot run);
:func:`sampled_energy_with_allocation` always weights by the worst-case
bound ``(sum_i |c_i|)^2`` per group, which can be far from the true
variance — on a UCCSD state of STO-3G H2 it is ~120x loose on the
11-term group and ~1.04x on the one-term groups, so the ``"variance"``
policy there is *worse* than uniform (RMS 0.0121 vs 0.0093 Ha at 2 000
shots, against 0.0076 for the true-variance optimum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.pauli import PauliString, PauliSum
from repro.sim.expectation import basis_change_circuit, diagonal_expectation
from repro.sim.statevector import StatevectorSimulator
from repro.utils.bitops import count_set_bits

__all__ = ["allocate_shots", "sampled_energy_with_allocation"]


def allocate_shots(
    group_weights: Sequence[float], total_shots: int, minimum: int = 16
) -> List[int]:
    """Integer shot counts proportional to sqrt-weights.

    ``group_weights`` are (upper bounds on) per-group variances; each
    group receives at least ``minimum`` shots and the counts sum to
    ``total_shots`` exactly.
    """
    w = np.sqrt(np.maximum(np.asarray(group_weights, dtype=float), 0.0))
    k = len(w)
    if total_shots < minimum * k:
        raise ValueError("shot budget below the per-group minimum")
    if w.sum() == 0:
        w = np.ones(k)
    raw = minimum + (total_shots - minimum * k) * w / w.sum()
    shots = np.floor(raw).astype(int)
    # distribute the rounding remainder to the largest fractional parts
    remainder = total_shots - int(shots.sum())
    order = np.argsort(-(raw - shots))
    for i in range(remainder):
        shots[order[i % k]] += 1
    return [int(s) for s in shots]


def sampled_energy_with_allocation(
    state: np.ndarray,
    hamiltonian: PauliSum,
    total_shots: int,
    policy: str = "variance",
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Finite-shot <H> under a shot-allocation policy.

    ``policy`` is ``"variance"`` (sqrt-weighted by the group coefficient
    1-norm squared — the worst-case variance bound, not the group's
    actual variance) or ``"uniform"``.
    """
    rng = rng or np.random.default_rng()
    n = hamiltonian.num_qubits
    groups = hamiltonian.group_qubitwise_commuting()
    # identity-only groups are free
    measurable = []
    constant = 0.0
    for g in groups:
        if all(p.is_identity for _, p in g):
            constant += sum(c.real for c, _ in g)
        else:
            measurable.append(g)
    if not measurable:
        return constant
    if policy == "variance":
        weights = [sum(abs(c) for c, _ in g) ** 2 for g in measurable]
    elif policy == "uniform":
        weights = [1.0] * len(measurable)
    else:
        raise ValueError("policy must be 'variance' or 'uniform'")
    shots = allocate_shots(weights, total_shots)

    sim = StatevectorSimulator(n)
    total = constant
    for g, s in zip(measurable, shots):
        strings = [p for _, p in g]
        circ = basis_change_circuit(strings, n)
        sim.set_state(state, copy=True)
        sim.apply_circuit(circ)
        samples = sim.sample(s, rng)
        # One (shots, terms) parity pass for the whole group instead of
        # a Python loop over members.
        ident = np.array([p.is_identity for _, p in g])
        coeffs = np.array([c.real for c, _ in g])
        total += float(coeffs[ident].sum())
        z_masks = np.array(
            [p.x | p.z for _, p in g if not p.is_identity], dtype=np.int64
        )
        if z_masks.size:
            parities = (
                count_set_bits(samples[:, None] & z_masks[None, :]) & 1
            )
            means = 1.0 - 2.0 * parities.mean(axis=0)
            total += float(coeffs[~ident] @ means)
    return total
