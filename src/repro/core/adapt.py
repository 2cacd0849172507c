"""ADAPT-VQE (paper §5.3; Grimsley et al. [4], qubit-ADAPT [16]).

The ansatz is grown one operator per iteration: every pool candidate's
energy gradient at theta = 0,

    dE/dtheta_k |_0 = <psi| [H, A_k] |psi> = 2 Re <H psi | A_k psi>,

is evaluated on the *current* state, the largest-|gradient| operator
is appended, and all parameters are re-optimized warm-started from the
previous optimum.  This is exactly the loop whose convergence Fig. 5
plots for the downfolded 6-orbital H2O system: energy error vs
iteration, one added layer per iteration, chemical accuracy (1 mHa)
around iteration 16.

The pool is lowered once, as a plan's generators are
(``ExecutionPlan.from_generators``), so a candidate's gradient is the
reverse-mode sweep's own bracket, ``2 Re kernels.rotation_bracket(H psi,
psi, step)`` summed over its rotation steps, against one ``H psi`` per
screen: no circuits, and no pool operator compiled as an observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs.flight import FlightRecorder
from repro.chem.pools import PoolOperator
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import find_z2_symmetries, parity_flips
from repro.opt.base import OptimizeResult, Optimizer
from repro.opt.gradient import AnsatzObjective
from repro.opt.lbfgs import LBFGSB
from repro.sim.kernels import rotation_bracket
from repro.sim.plan import ExecutionPlan

__all__ = [
    "AdaptVQE",
    "AdaptResult",
    "AdaptIteration",
    "AdaptState",
    "convergence_traces",
]

CHEMICAL_ACCURACY_HA = 1.594e-3  # 1 kcal/mol in Hartree
MILLI_HARTREE = 1e-3

# Pool gradients within this relative distance of the largest count as
# tied (spin partners are exact ties); the lowest pool index is chosen.
_GRADIENT_TIE_RTOL = 1e-10


def convergence_traces(iterations: Sequence["AdaptIteration"]) -> dict:
    """Per-iteration convergence series for run reports / plotting."""
    traces = {
        "energy": [it.energy for it in iterations],
        "max_gradient": [it.max_gradient for it in iterations],
    }
    errors = [
        it.error_vs_reference
        for it in iterations
        if it.error_vs_reference is not None
    ]
    if errors:
        traces["error_vs_reference"] = errors
    return traces


@dataclass
class AdaptIteration:
    """Record of one ADAPT growth step."""

    iteration: int
    selected_label: str
    max_gradient: float
    energy: float
    error_vs_reference: Optional[float]
    num_parameters: int


@dataclass
class AdaptState:
    """Resumable ADAPT progress: everything ``step`` needs to continue.

    This is the unit the campaign layer (``repro.core.campaign``)
    checkpoints between growth iterations — pool indices rather than
    operators, so it round-trips through JSON.  ``statevector`` is a
    derived cache (recomputed from ``parameters`` after a restore).
    """

    iteration: int = 0
    chosen_indices: List[int] = field(default_factory=list)
    parameters: np.ndarray = field(default_factory=lambda: np.zeros(0))
    energy: float = 0.0
    records: List[AdaptIteration] = field(default_factory=list)
    converged: bool = False
    statevector: Optional[np.ndarray] = None


@dataclass
class Growth:
    """A growth iteration between :meth:`AdaptVQE.grow` and
    :meth:`AdaptVQE.settle`."""

    objective: AnsatzObjective
    x0: np.ndarray
    max_gradient: float
    pool_mean_abs_grad: float


@dataclass
class AdaptResult:
    """Full ADAPT-VQE trajectory (the Fig. 5 data).

    ``report`` is a :class:`repro.obs.RunReport` when observability was
    enabled for the run, else ``None``.
    """

    energy: float
    parameters: np.ndarray
    operator_labels: List[str]
    iterations: List[AdaptIteration]
    converged: bool
    reference_energy: Optional[float]
    report: Optional[object] = None

    def iterations_to_accuracy(self, accuracy_ha: float = MILLI_HARTREE) -> Optional[int]:
        """First iteration whose error is below ``accuracy_ha`` (None if never)."""
        for it in self.iterations:
            if it.error_vs_reference is not None and it.error_vs_reference < accuracy_ha:
                return it.iteration
        return None


class AdaptVQE:
    """Adaptive ansatz growth + inner VQE re-optimization.

    Parameters
    ----------
    hamiltonian:
        Qubit observable (e.g. a downfolded effective Hamiltonian).
    pool:
        Candidate generators (``repro.chem.pools``).
    reference_state:
        Starting state (Hartree–Fock determinant).
    optimizer:
        Inner optimizer; defaults to the numpy L-BFGS
        (:class:`repro.opt.lbfgs.LBFGSB`) on adjoint gradients.
    gradient_tolerance:
        Stop when the largest pool gradient falls below this.
    energy_tolerance:
        Stop when |E - reference_energy| falls below this (requires
        ``reference_energy``); the paper's criterion is 1 mHa.
    """

    def __init__(
        self,
        hamiltonian: PauliSum,
        pool: Sequence[PoolOperator],
        reference_state: np.ndarray,
        optimizer: Optional[Optimizer] = None,
        max_iterations: int = 30,
        gradient_tolerance: float = 1e-4,
        energy_tolerance: Optional[float] = None,
        reference_energy: Optional[float] = None,
        flight_context: Optional[Dict[str, Any]] = None,
    ):
        if not pool:
            raise ValueError("pool is empty")
        n = hamiltonian.num_qubits
        self.hamiltonian = hamiltonian
        self.pool = list(pool)
        self.reference_state = np.asarray(reference_state, dtype=np.complex128)
        if self.reference_state.shape != (1 << n,):
            raise ValueError(
                f"reference state has shape {self.reference_state.shape}; the "
                f"{n}-qubit Hamiltonian needs ({1 << n},)"
            )
        for op in self.pool:
            if op.generator.num_qubits != n:
                raise ValueError(
                    f"pool operator {op.label!r} acts on {op.generator.num_qubits} "
                    f"qubits, the Hamiltonian on {n}"
                )
        # From a basis-state reference, an operator every term of which
        # breaks one of H's Z2 symmetries (find_z2_symmetries) moves the
        # state out of its parity class, where H psi has no weight.  When
        # no operator breaks one only in part, the others keep the state
        # in that class, so such an operator's gradient is exactly 0 at
        # every iteration and it is not screened.
        masks = find_z2_symmetries(hamiltonian)
        flips = [parity_flips(op.generator, masks) for op in self.pool]
        mixed = any(any(f) and not all(f) for f in flips)
        self._screened = [k for k, f in enumerate(flips) if mixed or not any(f)]
        # The screened operators lowered once, as a plan's generators
        # are: the plan's index set (their parity set, sector or full
        # register) is the one the screen runs on.
        self._pool_plan = ExecutionPlan.from_generators(
            [self.pool[k].generator for k in self._screened], self.reference_state, masks
        )
        self.index = self._pool_plan.index
        # One x-mask-batched compilation shared by screening, the inner
        # objectives (via the PauliSum-attached cache) and initial_state.
        self._compiled_h = compile_observable(hamiltonian, self.index)
        self.optimizer = optimizer or LBFGSB(max_iterations=500)
        self.max_iterations = max_iterations
        self.gradient_tolerance = gradient_tolerance
        self.energy_tolerance = energy_tolerance
        self.reference_energy = reference_energy
        # one growth iteration per sample is cheap enough to always
        # record; verdict events still no-op without a bus installed
        self.flight = FlightRecorder(
            kind="adapt", context=dict(flight_context or {})
        )

    def _restrict(self, state: np.ndarray) -> np.ndarray:
        """A full 2^n state on the screening index set."""
        return state if self.index.size == state.size else state[self.index]

    def pool_gradients(self, state: np.ndarray) -> np.ndarray:
        """<[H, A_k]> = 2 Re <H psi| A_k |psi> for every candidate, on the
        given 2^n state: the sum of the sweep's rotation brackets over
        A_k's rotation steps, exactly 0.0 for the operators that are not
        screened (see ``__init__``).  The screen runs on :attr:`index`."""
        with obs.span("adapt.pool_screening", pool_size=len(self.pool)):
            state = self._restrict(state)
            h_state = self._compiled_h.apply(state)
            grads = np.zeros(len(self.pool))
            for op in self._pool_plan.ops:
                if op.kind == "rot":
                    k = self._screened[op.param_refs[0][2]]
                    grads[k] += 2.0 * rotation_bracket(h_state, state, op.data).real
        return grads

    # -- stepwise interface (checkpointable campaign loop) ----------------------

    def initial_state(self) -> AdaptState:
        """Fresh ADAPT progress at iteration 0 (reference state)."""
        state = self.reference_state.copy()
        energy = float(np.real(self._compiled_h.expectation(self._restrict(state))))
        return AdaptState(energy=energy, statevector=state)

    def prepare_statevector(self, st: AdaptState) -> np.ndarray:
        """(Re)compute |psi(theta)> for the state's chosen operators —
        used after restoring a checkpoint, where only parameters and
        pool indices survive serialization."""
        if not st.chosen_indices:
            return self.reference_state.copy()
        objective = AnsatzObjective(
            self.reference_state,
            [self.pool[k].generator for k in st.chosen_indices],
            self.hamiltonian,
        )
        return objective.prepare_state(st.parameters)

    def step(self, st: AdaptState, verbose: bool = False) -> AdaptState:
        """One ADAPT growth iteration, in place: :meth:`grow`, re-optimize
        all parameters from the warm start, :meth:`settle`."""
        if st.converged:
            return st
        with obs.span("adapt.step", iteration=st.iteration + 1):
            growth = self.grow(st)
            if growth is not None:
                objective, x0 = growth.objective, growth.x0
                with obs.span("adapt.reoptimize", iteration=st.iteration, parameters=len(x0)):
                    res = self.optimizer.minimize(objective.energy, x0, gradient=objective.gradient)
                self.settle(st, growth, res, verbose)
        return st

    def grow(self, st: AdaptState) -> Optional["Growth"]:
        """Screen the pool on the current state and append the
        largest-gradient operator, in place; ``None``, with
        ``st.converged`` set, when that gradient is below tolerance."""
        if st.statevector is None:
            st.statevector = self.prepare_statevector(st)
        grads = self.pool_gradients(st.statevector)
        magnitudes = np.abs(grads)
        g_max = float(magnitudes.max())
        # Spin partners have equal |gradient| in exact arithmetic: the
        # lowest index among the near-ties wins, not the round-off.
        k_best = int(
            np.flatnonzero(magnitudes >= g_max * (1.0 - _GRADIENT_TIE_RTOL))[0]
        )
        if g_max < self.gradient_tolerance:
            st.converged = True
            return None
        st.iteration += 1
        st.chosen_indices.append(k_best)
        objective = AnsatzObjective(
            self.reference_state,
            [self.pool[k].generator for k in st.chosen_indices],
            self.hamiltonian,
        )
        warm_start = np.concatenate([st.parameters, [0.0]])
        return Growth(objective, warm_start, g_max, float(np.mean(magnitudes)))

    def settle(
        self, st: AdaptState, growth: "Growth", res: OptimizeResult, verbose: bool = False
    ) -> None:
        """Take the re-optimized parameters and energy of ``res`` and
        record the iteration, in place; ``st.converged`` is set when the
        energy error is below ``energy_tolerance``."""
        st.parameters = res.x
        st.energy = res.fun
        st.statevector = growth.objective.prepare_state(st.parameters)
        label = self.pool[st.chosen_indices[-1]].label
        err = (
            abs(st.energy - self.reference_energy)
            if self.reference_energy is not None
            else None
        )
        st.records.append(
            AdaptIteration(
                iteration=st.iteration,
                selected_label=label,
                max_gradient=growth.max_gradient,
                energy=st.energy,
                error_vs_reference=err,
                num_parameters=len(st.parameters),
            )
        )
        self.flight.record(
            st.energy,
            params=st.parameters,
            grad_norm=growth.max_gradient,
            pool_size=len(self.pool),
            pool_mean_abs_grad=growth.pool_mean_abs_grad,
            index=st.iteration,
        )
        if verbose:
            err_s = f" dE={err*1000:.4f} mHa" if err is not None else ""
            print(
                f"[adapt {st.iteration:3d}] +{label:24s} "
                f"|g|={growth.max_gradient:.2e} E={st.energy:.8f}{err_s}"
            )
        if (
            self.energy_tolerance is not None
            and err is not None
            and err < self.energy_tolerance
        ):
            st.converged = True

    def result(self, st: AdaptState) -> AdaptResult:
        """Package a (finished or in-flight) state as an AdaptResult."""
        return AdaptResult(
            energy=st.energy,
            parameters=st.parameters,
            operator_labels=[self.pool[k].label for k in st.chosen_indices],
            iterations=list(st.records),
            converged=st.converged,
            reference_energy=self.reference_energy,
        )

    def run(self, verbose: bool = False) -> AdaptResult:
        t_start = time.perf_counter()
        st = self.initial_state()
        with obs.span(
            "adapt.run",
            pool_size=len(self.pool),
            max_iterations=self.max_iterations,
        ):
            while not st.converged and st.iteration < self.max_iterations:
                self.step(st, verbose=verbose)
        result = self.result(st)
        if obs.enabled():
            result.report = obs.collect_report(
                meta={
                    "kind": "adapt",
                    "num_qubits": self.hamiltonian.num_qubits,
                    "pool_size": len(self.pool),
                    "iterations": st.iteration,
                    "energy": result.energy,
                    "converged": result.converged,
                },
                convergence=convergence_traces(result.iterations),
                flight=self.flight.to_dict(),
                wall_time_s=time.perf_counter() - t_start,
            )
        return result
