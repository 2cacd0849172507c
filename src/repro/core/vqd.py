"""Variational quantum deflation (VQD): excited states with VQE.

Chemistry validation needs more than ground states — potential energy
surfaces of excited states decide photochemistry.  VQD (Higgott,
Wang & Brierley, 2019) finds state k by minimizing

    E_k(theta) = <psi(theta)|H|psi(theta)>
                 + sum_{j<k} beta_j |<psi(theta)|psi_j>|^2

where the overlap penalties deflate the already-found states out of
the search space.  With statevector access the overlaps are exact
inner products, and the functional is an ordinary energy,
``<psi|H'|psi>`` with ``H' = H + sum_j beta_j |psi_j><psi_j|``: state k
is found by the chemistry-mode ansatz objective over ``H'``, whose
gradient is the same reverse-mode sweep as every other ansatz's.

The deflation weights must exceed the energy gaps; we default to
``beta = 2 * (spectral 1-norm bound)`` which always suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.opt.base import Optimizer
from repro.opt.gradient import AnsatzObjective
from repro.opt.lbfgs import LBFGSB
from repro.sim.plan import ExecutionPlan

__all__ = ["VQDResult", "run_vqd"]


@dataclass
class VQDResult:
    """The computed portion of the spectrum."""

    energies: List[float]
    states: List[np.ndarray]
    parameters: List[np.ndarray]
    function_evaluations: int

    @property
    def gaps(self) -> List[float]:
        """Excitation energies relative to the ground state."""
        return [e - self.energies[0] for e in self.energies[1:]]


class _Deflated:
    """``H' = H + beta sum_j |psi_j><psi_j|``: the deflated functional
    is ``<psi|H'|psi>``, so VQD is an ordinary objective over ``H'``.
    ``compiled_h`` and the found ``states`` live on the plan's index
    set."""

    def __init__(self, compiled_h, beta: float, states: Sequence[np.ndarray]):
        self.compiled_h = compiled_h
        self.beta = beta
        self.states = np.array(states)  # (j, dim)

    def apply(self, block: np.ndarray) -> np.ndarray:
        """``H'`` on a ``(dim,)`` state or a ``(…, dim)`` block."""
        overlaps = self.beta * (block @ self.states.conj().T)  # (…, j)
        return self.compiled_h.apply(block) + overlaps @ self.states

    def expectation(self, state: np.ndarray) -> complex:
        overlaps = self.states.conj() @ state
        return self.compiled_h.expectation(state) + self.beta * np.vdot(overlaps, overlaps)


def run_vqd(
    hamiltonian: PauliSum,
    generators: Sequence[PauliSum],
    reference_state: np.ndarray,
    num_states: int = 2,
    beta: Optional[float] = None,
    optimizer: Optional[Optimizer] = None,
    initial_parameters: Optional[Sequence[np.ndarray]] = None,
    restarts: int = 2,
    seed: int = 0,
) -> VQDResult:
    """Compute the lowest ``num_states`` eigenstates reachable by the
    ansatz (within its symmetry sector).

    Parameters
    ----------
    generators / reference_state:
        Same product-of-exponentials ansatz family as chemistry-mode
        VQE; the reference fixes the particle-number sector.
    beta:
        Deflation weight; defaults to twice the Pauli 1-norm of H
        (a rigorous upper bound on any gap).
    optimizer:
        Defaults to the numpy L-BFGS (:class:`repro.opt.lbfgs.LBFGSB`)
        with at most 500 iterations.
    restarts:
        Random restarts per excited state (the deflated landscape has
        more local minima than the ground-state one).
    """
    if num_states < 1:
        raise ValueError("need at least one state")
    if beta is None:
        beta = 2.0 * hamiltonian.norm1()
    optimizer = optimizer or LBFGSB(max_iterations=500)
    rng = np.random.default_rng(seed)

    objective = AnsatzObjective(reference_state, list(generators), hamiltonian)
    # The deflated operator carries no Z2 symmetries, so its plans hold
    # the index set the generators alone decide; the found states and
    # H' live on that one.
    index = ExecutionPlan.from_generators(generators, reference_state).index
    compiled_h = compile_observable(hamiltonian, index)
    found_states: List[np.ndarray] = []
    energies: List[float] = []
    parameters: List[np.ndarray] = []
    nfev = 0

    for k in range(num_states):
        if found_states:
            deflated = _Deflated(compiled_h, beta, [s[index] for s in found_states])
            objective = AnsatzObjective(reference_state, list(generators), deflated)
        m = objective.num_parameters
        starts = []
        if initial_parameters is not None and k < len(initial_parameters):
            starts.append(np.asarray(initial_parameters[k], dtype=float))
        if k == 0:
            starts.append(np.zeros(m))
        for _ in range(restarts):
            starts.append(rng.normal(scale=0.2, size=m))

        best = None
        for x0 in starts:
            res = optimizer.minimize(objective.energy, x0, gradient=objective.gradient)
            nfev += res.nfev
            if best is None or res.fun < best.fun:
                best = res
        assert best is not None
        state = objective.prepare_state(best.x)
        # report the raw energy, not the deflated functional
        energies.append(float(compiled_h.expectation(state[index]).real))
        found_states.append(state)
        parameters.append(best.x)

    return VQDResult(
        energies=energies,
        states=found_states,
        parameters=parameters,
        function_evaluations=nfev,
    )
