"""Estimation strategies behind the VQE driver (paper §4.2).

One uniform interface over the three ways of turning (circuit,
observable) into a number, so the driver and the benchmarks can ablate
them cleanly:

* ``DirectEstimator``        — exact <H> from amplitudes (§4.2.2),
* ``CachingEstimator``       — measurement-faithful basis rotations on
                               a cached post-ansatz state (§4.1),
* ``SamplingEstimator``      — finite shots (the §4.2.1 baseline).
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.batched import BatchedStatevectorSimulator, reverse_value_and_gradient
from repro.sim.expectation import (
    expectation_basis_rotated,
    expectation_direct,
    expectation_sampled,
)
from repro.sim.statevector import StatevectorSimulator

__all__ = [
    "Estimator",
    "DirectEstimator",
    "CachingEstimator",
    "SamplingEstimator",
    "make_estimator",
]


class Estimator(ABC):
    """Turns a bound circuit + observable into an expectation value.

    The estimator holds one simulator: a VQE loop calls ``estimate``
    thousands of times at one register width, and re-allocating a 2^n
    amplitude buffer (plus a second one inside the basis-rotation and
    sampling paths) per call was pure setup overhead.  A call at a new
    width replaces it.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.evaluations = 0
        self._sim = None

    def _simulator(self, num_qubits: int) -> StatevectorSimulator:
        if self._sim is None or self._sim.num_qubits != num_qubits:
            self._sim = StatevectorSimulator(num_qubits)
        return self._sim

    def estimate(self, circuit: Circuit, observable: PauliSum) -> float:
        """Expectation <0|U^dag H U|0>."""
        self.evaluations += 1
        sim = self._simulator(circuit.num_qubits)
        sim.run(circuit)
        return self._evaluate(sim, observable)

    def estimate_plan(self, plan, params, observable: PauliSum) -> float:
        """Expectation from a compiled :class:`repro.sim.plan.ExecutionPlan`.

        The bind-free fast path of :meth:`estimate`: the simulator
        executes the plan's prepacked kernel ops directly, then the same
        evaluation strategy runs on the resulting state.
        """
        self.evaluations += 1
        sim = self._simulator(plan.num_qubits)
        sim.run_plan(plan, params)
        return self._evaluate(sim, observable)

    def estimate_plan_many(
        self, plan, rows: np.ndarray, observable: PauliSum
    ) -> np.ndarray:
        """Expectations for many parameter vectors of one plan.

        ``rows`` has shape (R, P); returns the R expectation values in
        order.  ``VQE(fd_gradient=True)`` asks for a whole central-difference
        sweep (``2P+1`` rows) in one call.  The rows run as one block
        through :meth:`BatchedStatevectorSimulator.run_plan`; each row's
        state is then copied into this estimator's simulator and
        evaluated there, so the count and every estimator's tallies
        are those of R :meth:`estimate_plan` calls.  A parametric gate
        with no batched form (``u3``) raises the batched executor's
        ``ValueError``.
        """
        rows = np.asarray(rows, dtype=float)
        sim = self._simulator(plan.num_qubits)
        block = BatchedStatevectorSimulator(plan.num_qubits, len(rows)).run_plan(plan, rows)
        values = np.empty(len(rows))
        for r, state in enumerate(block):
            self.evaluations += 1
            sim.state[:] = state
            values[r] = self._evaluate(sim, observable)
        return values

    def value_and_gradient(self, plan, params, observable: PauliSum):
        """``(energy, exact gradient)`` at ``params`` as one evaluation, for
        any plan :func:`repro.sim.batched.reverse_mode_blocker` admits; the
        default ``None`` means no exact gradient (caching, sampling)."""
        return None

    def _evaluate(self, sim: StatevectorSimulator, observable: PauliSum) -> float:
        """Turn the simulator's current state into an expectation value.

        Subclasses implement this hook and inherit both :meth:`estimate`
        and the plan fast path.
        """
        raise NotImplementedError("estimator subclasses implement _evaluate")


class DirectEstimator(Estimator):
    """NWQ-Sim's chemistry-mode fast path: no circuits beyond the
    ansatz, no sampling — exact amplitude-space contraction."""

    name = "direct"

    def _evaluate(self, sim: StatevectorSimulator, observable: PauliSum) -> float:
        return expectation_direct(sim.statevector(copy=False), observable)

    def value_and_gradient(self, plan, params, observable: PauliSum):
        """The one-row reverse-mode sweep."""
        self.evaluations += 1
        values, grads = reverse_value_and_gradient(plan, observable, np.atleast_2d(params))
        return float(values[0]), grads[0]


class CachingEstimator(Estimator):
    """Cached post-ansatz state + per-group basis rotations.

    Exact like the direct estimator but runs the same circuit suffixes
    a hardware backend would; ``extra_gates`` accumulates the
    beyond-ansatz gate count (the caching-mode curve of Fig. 3).
    """

    name = "caching"

    def __init__(self) -> None:
        super().__init__()
        self.extra_gates = 0

    def _evaluate(self, sim: StatevectorSimulator, observable: PauliSum) -> float:
        state = sim.statevector(copy=True)
        value, gates = expectation_basis_rotated(
            state, observable, return_gate_count=True, sim=sim
        )
        self.extra_gates += gates
        return value


class SamplingEstimator(Estimator):
    """Finite-shot estimation — the traditional baseline (§4.2.1)."""

    name = "sampling"

    def __init__(self, shots_per_group: int = 4096, seed: int = 7):
        super().__init__()
        self.shots_per_group = shots_per_group
        self.rng = np.random.default_rng(seed)

    def _evaluate(self, sim: StatevectorSimulator, observable: PauliSum) -> float:
        state = sim.statevector(copy=True)
        return expectation_sampled(
            state, observable, self.shots_per_group, self.rng, sim=sim
        )


def make_estimator(name: str, **kwargs) -> Estimator:
    """Estimator factory: 'direct', 'caching', or 'sampling'."""
    table = {
        "direct": DirectEstimator,
        "caching": CachingEstimator,
        "sampling": SamplingEstimator,
    }
    try:
        return table[name](**kwargs)
    except KeyError:
        raise KeyError(f"unknown estimator {name!r}; choose from {sorted(table)}") from None
