"""Post-ansatz state caching (paper §4.1).

VQE evaluates <H> = sum_g <psi(theta)| B_g^dag D_g B_g |psi(theta)>
over measurement groups g with basis circuits B_g.  Without caching,
every group re-executes the ansatz U(theta); with caching the ansatz
runs once per theta, the amplitudes are parked in device memory, and
each group applies only its (tiny) basis-change suffix to a copy.

``PostAnsatzCache`` models the memory hierarchy of §4.1.4 explicitly:
a configurable "device" capacity in bytes; states that do not fit are
spilled to "host" storage, and every access is tallied so the
device/host traffic is observable (the simulation keeps both in RAM —
the *accounting* is what the paper's design point is about).

``CachedEnergyEvaluator`` is the full caching execution mode: it owns
the gate ledger that Fig. 3 quantifies, counting ansatz preparations
and basis-change gates for both caching and non-caching strategies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.expectation import measure, measurement_table, qwc_table
from repro.sim.plan import compile_circuit
from repro.sim.statevector import StatevectorSimulator

__all__ = ["PostAnsatzCache", "CachedEnergyEvaluator", "GateLedger"]


class PostAnsatzCache:
    """Device-memory cache of post-ansatz statevectors.

    Keys are parameter tuples (exact match — VQE optimizers re-query
    the same point for every Pauli group, which is precisely the reuse
    pattern caching exploits).  A small LRU of ``max_entries`` states
    is kept; ``device_capacity_bytes`` models the GPU-memory limit of
    §4.1.4: states beyond it are tracked as host-resident and accesses
    to them counted as spills.
    """

    def __init__(self, device_capacity_bytes: int = 4 * (1 << 30), max_entries: int = 4):
        self.device_capacity_bytes = device_capacity_bytes
        self.max_entries = max_entries
        # least recently used first
        self._store: "OrderedDict[Tuple[float, ...], np.ndarray]" = OrderedDict()
        self._on_device: Dict[Tuple[float, ...], bool] = {}
        self.device_bytes_used = 0
        self.total_bytes = 0  # device + host resident (both live in RAM)
        self.hits = 0
        self.misses = 0
        self.host_spills = 0
        self._mem = obs.mem_track(self, "post_ansatz_cache", 0)

    def _key(self, params: np.ndarray) -> Tuple[float, ...]:
        return tuple(float(p) for p in np.atleast_1d(params))

    def get(self, params: np.ndarray) -> Optional[np.ndarray]:
        key = self._key(params)
        state = self._store.get(key)
        if state is None:
            self.misses += 1
            return None
        self.hits += 1
        self._store.move_to_end(key)
        if not self._on_device.get(key, False):
            self.host_spills += 1  # host -> device fetch
        return state

    def put(self, params: np.ndarray, state: np.ndarray) -> None:
        key = self._key(params)
        if key in self._store:
            return
        while len(self._store) >= self.max_entries:
            evicted, old = self._store.popitem(last=False)
            self.total_bytes -= old.nbytes
            if self._on_device.pop(evicted, False):
                self.device_bytes_used -= old.nbytes
        fits = self.device_bytes_used + state.nbytes <= self.device_capacity_bytes
        self._store[key] = state
        self._on_device[key] = fits
        self.total_bytes += state.nbytes
        if fits:
            self.device_bytes_used += state.nbytes
        else:
            self.host_spills += 1  # device -> host spill at insert
        if not self._mem:  # late-bound: obs may be enabled after init
            self._mem = obs.mem_track(self, "post_ansatz_cache", 0)
        obs.mem_resize(self._mem, self.total_bytes)

    def __len__(self) -> int:
        return len(self._store)


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
