"""The VQE driver (paper §3.1 workflow, steps 1-5).

Two ways in, one program underneath:

* **Chemistry mode** (``generators`` + ``reference_state``): the
  NWQ-Sim fast path.  The product of generator exponentials is lowered
  straight to an execution plan (``ExecutionPlan.from_generators``,
  wrapped by ``repro.opt.gradient.AnsatzObjective``), expectation
  values are computed directly from amplitudes (§4.2), and exact
  reverse-mode gradients feed gradient-based optimizers.
* **Circuit mode** (``ansatz`` circuit + ``estimator``): the portable
  XACC-style path — the parameterized circuit is compiled once to a
  bind-free execution plan (``repro.sim.plan``) and re-executed per
  evaluation through any estimator (direct / caching / sampling),
  which is what the caching and sampling ablations measure.

Both modes run an ``ExecutionPlan`` through the same kernels, and both
take value and gradient from one reverse-mode sweep
(``repro.sim.batched.reverse_value_and_gradient``) while the optimizer
reads gradients (``repro.opt.gradient.GradientFusion``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.obs import events as obs_events
from repro.obs.flight import FlightRecorder
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.core.estimator import DirectEstimator, Estimator
from repro.opt.base import Optimizer, OptimizeResult
from repro.opt.gradient import AnsatzObjective, GradientFusion
from repro.opt.lbfgs import LBFGSB, LBFGSState
from repro.sim.batched import reverse_mode_blocker
from repro.sim.plan import compile_circuit

__all__ = ["VQE", "VQEResult"]


@dataclass
class VQEResult:
    """Converged VQE output.

    ``report`` is a :class:`repro.obs.RunReport` when observability was
    enabled for the run, else ``None``.
    """

    energy: float
    optimal_parameters: np.ndarray
    history: List[float]
    num_function_evaluations: int
    num_iterations: int
    converged: bool
    mode: str
    report: Optional[object] = None

    def __repr__(self) -> str:
        return (
            f"VQEResult(energy={self.energy:.8f}, nfev="
            f"{self.num_function_evaluations}, mode={self.mode!r})"
        )


class VQE:
    """Variational quantum eigensolver.

    Chemistry mode::

        vqe = VQE(hamiltonian, generators=gens, reference_state=hf)
        result = vqe.run()

    Circuit mode::

        vqe = VQE(hamiltonian, ansatz=circuit, estimator=make_estimator("caching"))
        result = vqe.run()

    The default ``optimizer`` is the numpy L-BFGS
    (:class:`repro.opt.lbfgs.LBFGSB`); it takes forward differences
    when the estimator gives no gradient.
    """

    def __init__(
        self,
        hamiltonian: PauliSum,
        ansatz: Optional[Circuit] = None,
        estimator: Optional[Estimator] = None,
        generators: Optional[Sequence[PauliSum]] = None,
        reference_state: Optional[np.ndarray] = None,
        optimizer: Optional[Optimizer] = None,
        evaluation_callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
        flight_context: Optional[Dict[str, Any]] = None,
        fd_gradient: bool = False,
        fd_epsilon: float = 1e-6,
    ):
        if not hamiltonian.is_hermitian():
            raise ValueError("hamiltonian must be Hermitian")
        self.hamiltonian = hamiltonian
        self.optimizer = optimizer or LBFGSB()
        # called as callback(eval_index, params, energy) after every
        # energy evaluation; the campaign layer uses it for periodic
        # parameter checkpoints and fault-injection hooks
        self.evaluation_callback = evaluation_callback
        self.num_evaluations = 0
        # convergence flight recorder: created lazily in run() when
        # observability or an event bus is active (self.flight stays
        # None otherwise, keeping the per-evaluation cost one `is None`
        # check — the disabled-overhead contract)
        self.flight: Optional[FlightRecorder] = None
        self.flight_context = dict(flight_context or {})
        # circuit mode's gradient, fused with the value (GradientFusion):
        # the estimator's exact one, or with fd_gradient central
        # differences over 2P+1 rows in ONE estimate_plan_many call
        self.fd_gradient = bool(fd_gradient)
        self.fd_epsilon = float(fd_epsilon)
        self._fusion = GradientFusion()
        self.mode: str
        if generators is not None:
            for name, value in (("ansatz", ansatz), ("estimator", estimator),
                                ("fd_gradient", fd_gradient or None)):
                if value is not None:
                    raise ValueError(
                        f"VQE got both generators and {name}: chemistry mode runs the "
                        f"generators on the direct sweep, {name} is a circuit-mode input"
                    )
            if reference_state is None:
                raise ValueError("chemistry mode needs a reference state")
            self.objective = AnsatzObjective(
                reference_state, list(generators), hamiltonian
            )
            self.mode = "chemistry"
            self.num_parameters = self.objective.num_parameters
            self.ansatz = None
            self.estimator = None
        elif ansatz is not None:
            self.ansatz = ansatz
            self.estimator = estimator or DirectEstimator()
            self.objective = None
            self.mode = "circuit"
            self.num_parameters = ansatz.num_parameters
        else:
            raise ValueError("provide either generators or an ansatz circuit")

    def energy(self, params: np.ndarray) -> float:
        """One energy evaluation at the given parameters."""
        params = np.atleast_1d(np.asarray(params, dtype=float))
        with obs.span("vqe.energy_eval", mode=self.mode):
            e = self._energy_impl(params)
        self.record(params, e)
        return e

    def record(self, params: np.ndarray, energy: float) -> None:
        """Book one evaluation, however it was computed: the count, its
        metric, the flight record and the evaluation callback."""
        self.num_evaluations += 1
        if obs.enabled():
            obs.inc(
                "repro_vqe_energy_evaluations_total",
                help="VQE objective evaluations",
                labels={"mode": self.mode},
            )
        if self.flight is not None:
            self.flight.record(energy, params=params, index=self.num_evaluations)
        if self.evaluation_callback is not None:
            self.evaluation_callback(self.num_evaluations, params, energy)

    def _energy_impl(self, params: np.ndarray) -> float:
        if self.mode == "chemistry":
            return self.objective.energy(params)
        if not self.ansatz.num_parameters:
            return self.estimator.estimate(self.ansatz, self.hamiltonian)
        # compile once, re-execute bind-free for every evaluation
        # (compile_circuit memoizes on the circuit and invalidates on
        # mutation, so ADAPT-style growing ansaetze recompile exactly
        # when they change)
        plan = compile_circuit(self.ansatz)
        fused = self._fused_sweep(plan)

        def plain(x: np.ndarray) -> float:
            return self.estimator.estimate_plan(plan, x, self.hamiltonian)

        return plain(params) if fused is None else self._fusion.value(params, fused, plain)

    def _fused_sweep(self, plan) -> Optional[Callable]:
        """Circuit mode's value+gradient evaluation for ``plan``: central
        differences with ``fd_gradient``, else the estimator's exact
        gradient when it offers one, else ``None``."""
        if self.fd_gradient:
            return lambda x: self._fd_value_and_gradient(plan, x)
        offers = type(self.estimator).value_and_gradient is not Estimator.value_and_gradient
        if offers and reverse_mode_blocker(plan) is None:
            return lambda x: self.estimator.value_and_gradient(plan, x, self.hamiltonian)
        return None

    def _fd_value_and_gradient(self, plan, params: np.ndarray):
        """Value at ``params`` plus central differences along every
        coordinate, all in one ``estimate_plan_many`` call."""
        p = self.num_parameters
        eps = self.fd_epsilon
        rows = np.tile(params, (2 * p + 1, 1))
        for k in range(p):
            rows[1 + 2 * k, k] += eps
            rows[2 + 2 * k, k] -= eps
        vals = np.asarray(
            self.estimator.estimate_plan_many(plan, rows, self.hamiltonian),
            dtype=float,
        )
        return float(vals[0]), (vals[1::2] - vals[2::2]) / (2.0 * eps)

    def _has_gradient(self) -> bool:
        return self.mode == "chemistry" or (
            self.ansatz.num_parameters > 0
            and self._fused_sweep(compile_circuit(self.ansatz)) is not None
        )

    def gradient(self, params: np.ndarray) -> Optional[np.ndarray]:
        """The exact gradient — in circuit mode the estimator's, or
        central differences with ``fd_gradient`` — kept from the fused
        evaluation at ``params`` when there was one; ``None`` when the
        circuit-mode estimator offers neither."""
        params = np.atleast_1d(np.asarray(params, dtype=float))
        if self.mode == "chemistry":
            return self.objective.gradient(params)
        if not (self._fusion.holds(params) or self._has_gradient()):
            return None
        return self._fusion.gradient(params, self.energy)

    def _start(self, initial_parameters: Optional[np.ndarray]) -> np.ndarray:
        """The checked start point; opens the flight recorder when
        observability or an event bus is on."""
        x0 = (
            np.zeros(self.num_parameters)
            if initial_parameters is None
            else np.asarray(initial_parameters, dtype=float)
        )
        if x0.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} initial parameters, got {x0.shape}"
            )
        if obs.enabled() or obs_events.get_bus() is not None:
            self.flight = FlightRecorder(
                kind="vqe", context=self.flight_context
            )
        return x0

    def begin(self, initial_parameters: Optional[np.ndarray] = None) -> LBFGSState:
        """The optimizer's ask/tell state from the start point, for a
        caller that evaluates value and gradient itself (the campaign
        server's batched sweeps) and books each evaluation with
        :meth:`record`; :meth:`result` then reads the ended state."""
        if not isinstance(self.optimizer, LBFGSB):
            raise TypeError(
                f"ask/tell VQE runs the L-BFGS optimizer, not {type(self.optimizer).__name__}"
            )
        return self.optimizer.start(self._start(initial_parameters))

    def run(self, initial_parameters: Optional[np.ndarray] = None) -> VQEResult:
        """Optimize to the minimum energy (§3.1 step 5)."""
        t_start = time.perf_counter()
        x0 = self._start(initial_parameters)
        with obs.span(
            "vqe.run", mode=self.mode, parameters=self.num_parameters
        ):
            result = self._run_impl(x0)
        if obs.enabled():
            result.report = obs.collect_report(
                meta={
                    "kind": "vqe",
                    "mode": self.mode,
                    "num_parameters": self.num_parameters,
                    "num_qubits": self.hamiltonian.num_qubits,
                    "energy": result.energy,
                    "converged": result.converged,
                },
                convergence={"energy": list(result.history)},
                flight=(
                    self.flight.to_dict() if self.flight is not None else None
                ),
                wall_time_s=time.perf_counter() - t_start,
            )
        return result

    def result(self, res: OptimizeResult) -> VQEResult:
        """The :class:`VQEResult` of an ended optimizer run."""
        return VQEResult(
            energy=res.fun,
            optimal_parameters=res.x,
            history=res.history,
            num_function_evaluations=res.nfev,
            num_iterations=res.nit,
            converged=res.converged,
            mode=self.mode,
        )

    def _run_impl(self, x0: np.ndarray) -> VQEResult:
        if self.num_parameters == 0:
            e = self.energy(np.zeros(0))
            return VQEResult(
                energy=e,
                optimal_parameters=np.zeros(0),
                history=[e],
                num_function_evaluations=1,
                num_iterations=0,
                converged=True,
                mode=self.mode,
            )
        grad = self.gradient if self._has_gradient() else None
        return self.result(self.optimizer.minimize(self.energy, x0, gradient=grad))
