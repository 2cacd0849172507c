"""Post-ansatz state caching (paper §4.1).

VQE evaluates <H> = sum_g <psi(theta)| B_g^dag D_g B_g |psi(theta)>
over measurement groups g with basis circuits B_g.  Without caching,
every group re-executes the ansatz U(theta); with caching the ansatz
runs once per theta, the amplitudes are parked in device memory, and
each group applies only its (tiny) basis-change suffix to a copy.

``PostAnsatzCache`` (defined in :mod:`repro.sim.cache`, because the
execution plan's prefix cache is one too) models the memory hierarchy
of §4.1.4.

``CachedEnergyEvaluator`` is the full caching execution mode: it owns
the gate ledger that Fig. 3 quantifies, counting ansatz preparations
and basis-change gates for both caching and non-caching strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.cache import PostAnsatzCache
from repro.sim.expectation import basis_change_circuit, diagonal_expectation
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator

__all__ = ["PostAnsatzCache", "CachedEnergyEvaluator", "GateLedger"]


@dataclass
class GateLedger:
    """Tally of gates executed, split by purpose (the Fig. 3 ledger)."""

    ansatz_executions: int = 0
    ansatz_gates: int = 0
    basis_gates: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_gates(self) -> int:
        return self.ansatz_gates + self.basis_gates


class CachedEnergyEvaluator:
    """Energy evaluation with optional post-ansatz caching.

    Parameters
    ----------
    ansatz:
        Parameterized circuit U(theta) *including* reference prep.
    hamiltonian:
        Pauli observable.
    use_caching:
        The paper's optimization toggle: with ``False`` the evaluator
        faithfully re-executes the ansatz for every measurement group
        (the baseline whose gate count explodes in Fig. 3).
    group_terms:
        Measure qubit-wise-commuting groups together (one basis
        rotation per group); disable to model per-term measurement.
    """

    def __init__(
        self,
        ansatz: Circuit,
        hamiltonian: PauliSum,
        use_caching: bool = True,
        group_terms: bool = True,
        cache: Optional[PostAnsatzCache] = None,
    ):
        if ansatz.num_qubits != hamiltonian.num_qubits:
            raise ValueError(
                f"ansatz/observable width mismatch: ansatz has {ansatz.num_qubits} qubits, "
                f"observable {hamiltonian.num_qubits}"
            )
        self.ansatz = ansatz
        self.hamiltonian = hamiltonian
        self.use_caching = use_caching
        self.cache = cache or PostAnsatzCache()
        self.ledger = GateLedger()
        self._sim = StatevectorSimulator(ansatz.num_qubits)
        if group_terms:
            self._groups = hamiltonian.group_qubitwise_commuting()
        else:
            self._groups = [[(c, p)] for c, p in hamiltonian]
        self._basis_circuits = [
            basis_change_circuit([p for _, p in g], ansatz.num_qubits)
            for g in self._groups
        ]

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def _prepare(self, params: np.ndarray) -> np.ndarray:
        if self.ansatz.num_parameters:
            plan = compile_circuit(self.ansatz)
            state = self._sim.run_plan(plan, params)
        else:
            state = self._sim.run(self.ansatz)
        self.ledger.ansatz_executions += 1
        # Fig. 3 counts source gates, however few kernel ops a plan runs
        self.ledger.ansatz_gates += len(self.ansatz)
        return state.copy()

    def energy(self, params: np.ndarray) -> float:
        with obs.span(
            "cache.energy_eval", groups=self.num_groups, caching=self.use_caching
        ):
            return self._energy_impl(params)

    def _energy_impl(self, params: np.ndarray) -> float:
        params = np.atleast_1d(np.asarray(params, dtype=float))
        cached: Optional[np.ndarray] = None
        if self.use_caching:
            cached = self.cache.get(params)
            if cached is None:
                cached = self._prepare(params)
                self.cache.put(params, cached)
                self.ledger.cache_misses += 1
                if obs.enabled():
                    obs.inc("repro_cache_misses_total", help="Post-ansatz cache misses")
            else:
                self.ledger.cache_hits += 1
                if obs.enabled():
                    obs.inc("repro_cache_hits_total", help="Post-ansatz cache hits")

        total = 0.0
        for group, basis in zip(self._groups, self._basis_circuits):
            strings = [p for _, p in group]
            if all(p.is_identity for p in strings):
                total += sum(c.real for c, _ in group)
                continue
            if self.use_caching:
                self._sim.set_state(cached, copy=True)
            else:
                self._prepare(params)  # faithful re-execution per group
            self._sim.apply_circuit(basis)
            self.ledger.basis_gates += len(basis)
            probs = self._sim.probabilities()
            for coeff, pstr in group:
                if pstr.is_identity:
                    total += coeff.real
                else:
                    total += coeff.real * diagonal_expectation(
                        probs, pstr.x | pstr.z
                    )
        return total
