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
from functools import partial
from typing import Optional

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.cache import PostAnsatzCache
from repro.sim.expectation import measure, measurement_table, qwc_table
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
            self.num_groups = len(hamiltonian.group_qubitwise_commuting())
            self._table = qwc_table(hamiltonian)
        else:
            self.num_groups = hamiltonian.num_terms
            self._table = measurement_table(
                [[term] for term in hamiltonian], ansatz.num_qubits
            )

    def _run_ansatz(self, params: np.ndarray) -> np.ndarray:
        """U(params)|0> in the evaluator's register (the live buffer)."""
        if self.ansatz.num_parameters:
            state = self._sim.run_plan(compile_circuit(self.ansatz), params)
        else:
            state = self._sim.run(self.ansatz)
        self.ledger.ansatz_executions += 1
        # Fig. 3 counts source gates, however few kernel ops a plan runs
        self.ledger.ansatz_gates += len(self.ansatz)
        return state

    def energy(self, params: np.ndarray) -> float:
        with obs.span(
            "cache.energy_eval", groups=self.num_groups, caching=self.use_caching
        ):
            return self._energy_impl(params)

    def _energy_impl(self, params: np.ndarray) -> float:
        params = np.atleast_1d(np.asarray(params, dtype=float))
        if self.use_caching:
            state = self.cache.get(params)
            if state is None:
                state = self._run_ansatz(params).copy()
                self.cache.put(params, state)
                self.ledger.cache_misses += 1
            else:
                self.ledger.cache_hits += 1
        else:
            # faithful re-execution: the ansatz runs again before every group
            state = partial(self._run_ansatz, params)
        value, gates = measure(state, self._table, self._sim)
        self.ledger.basis_gates += gates
        return value
