"""Exact gradients for product-of-exponentials ansatze.

``AnsatzObjective`` binds (reference state, generator list, observable)
into an energy function and its exact gradient.  It runs no engine of
its own: the generators are lowered to an
:class:`repro.sim.plan.ExecutionPlan` (``from_generators``), the same
program a compiled circuit is, so states come from ``plan.execute``
and gradients from the one reverse-mode sweep
:func:`repro.sim.batched.reverse_value_and_gradient`.
For E(theta) = <ref|U^dag H U|ref>, U = U_m ... U_1,
U_k = exp(theta_k A_k), the sweep computes

    dE/dtheta_k = 2 Re <lambda_k| A_k |phi_k>,
    phi_k = U_k ... U_1 |ref>,   lambda_k = U_{k+1}^dag ... U_m^dag H U |ref>,

with one forward pass and one backward pass that undoes each U_k on
both vectors — about three evolutions, whatever the parameter count.
This is the simulator-only trick that makes the classical optimization
loop (paper §6.2's acknowledged bottleneck) tractable at scale.

``GradientFusion`` decides when a value evaluation also returns its
gradient from that same sweep (circuit-mode VQE applies the same rule
to its estimator); ``finite_difference_gradient`` is the central-
difference reference the tests hold the sweep to.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.ir.symplectic import find_z2_symmetries
from repro.sim.batched import reverse_value_and_gradient
from repro.sim.plan import ExecutionPlan

__all__ = ["AnsatzObjective", "GradientFusion", "finite_difference_gradient"]


def finite_difference_gradient(
    fun: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient (2m evaluations)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        grad[k] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return grad


class GradientFusion:
    """Value and gradient from one sweep, only while the optimizer reads
    gradients.

    The first value evaluation runs the fused sweep and keeps its
    gradient; every later one does so only if the optimizer read a
    gradient since the last fused sweep.  A quasi-Newton optimizer, which
    reads f and g at every iterate, pays one sweep per iterate; a
    gradient-free one pays for one gradient, on its first evaluation.
    """

    def __init__(self) -> None:
        self._armed = True
        self._x: Optional[np.ndarray] = None
        self._grad: Optional[np.ndarray] = None

    def value(
        self,
        x: np.ndarray,
        fused: Callable[[np.ndarray], Tuple[float, np.ndarray]],
        plain: Callable[[np.ndarray], float],
    ) -> float:
        """``fused(x)``'s value while armed (its gradient is kept), else
        ``plain(x)``."""
        if not self._armed:
            return plain(x)
        self._armed = False  # re-armed when gradient() reads it
        value, self._grad = fused(x)
        self._x = x.copy()
        return value

    def holds(self, x: np.ndarray) -> bool:
        """Whether the kept gradient is the one at ``x``."""
        return self._x is not None and np.array_equal(x, self._x)

    def gradient(self, x: np.ndarray, evaluate: Callable[[np.ndarray], float]) -> np.ndarray:
        """The gradient at ``x``: the kept one when the last fused sweep
        ran at ``x``, else by ``evaluate(x)``, a value evaluation that
        fuses because reading a gradient arms it."""
        self._armed = True
        if not self.holds(x):
            evaluate(x)
        return self._grad.copy()


class AnsatzObjective:
    """Energy and exact gradient of a product-of-exponentials ansatz.

    Parameters
    ----------
    reference_state:
        The computational basis state the ansatz starts from (e.g.
        Hartree–Fock), as a dense vector.
    generators:
        Anti-Hermitian ``PauliSum`` generators; parameter k multiplies
        generator k.
    hamiltonian:
        Hermitian ``PauliSum`` observable, compiled on the plan's index
        set.

    The plan holds the (N, S_z) sector of the reference when the
    generators close on it (:meth:`ExecutionPlan.from_generators`),
    narrowed to the reference's parity class under the Hamiltonian's Z2
    symmetries when every generator commutes with them, so energies and
    gradients run on that set; :meth:`prepare_state` still returns the
    full 2^n vector.
    """

    def __init__(
        self,
        reference_state: np.ndarray,
        generators: Sequence[PauliSum],
        hamiltonian: PauliSum,
    ):
        if not isinstance(hamiltonian, PauliSum):
            raise ValueError(
                f"hamiltonian must be a PauliSum, not {type(hamiltonian).__name__}"
            )
        self.plan = ExecutionPlan.from_generators(
            generators, reference_state, find_z2_symmetries(hamiltonian)
        )
        if hamiltonian.num_qubits != self.plan.num_qubits:
            raise ValueError(
                f"Hamiltonian acts on {hamiltonian.num_qubits} qubits, the "
                f"ansatz on {self.plan.num_qubits}"
            )
        self.hamiltonian = hamiltonian
        # x-mask-batched on the plan's index set: shared across the
        # thousands of energy and gradient calls one optimization makes
        # (repro.ir.compiled)
        self._operator = compile_observable(hamiltonian, self.plan.index)
        self.num_parameters = self.plan.num_parameters
        self._fusion = GradientFusion()

    def prepare_state(self, params: np.ndarray) -> np.ndarray:
        """|psi(theta)> = prod_k exp(theta_k A_k) |ref> (k ascending), a
        fresh 2^n array from one full execution of the plan."""
        return self.plan.embed(self._plan_state(params))

    def _plan_state(self, params: np.ndarray) -> np.ndarray:
        """|psi(theta)> on the plan's index set, a fresh array."""
        return self.plan.execute(np.empty(self.plan.dim, dtype=np.complex128), params)

    def energy(self, params: np.ndarray) -> float:
        params = np.asarray(params, dtype=float)
        with obs.span("opt.objective_energy", parameters=self.num_parameters):
            return self._fusion.value(params, self._value_and_gradient, self._energy)

    def gradient(self, params: np.ndarray) -> np.ndarray:
        """The exact gradient, from the sweep that evaluated the energy
        at ``params`` when there was one."""
        params = np.asarray(params, dtype=float)
        with obs.span("opt.objective_gradient", parameters=self.num_parameters):
            return self._fusion.gradient(params, self.energy)

    def _energy(self, params: np.ndarray) -> float:
        return float(self._operator.expectation(self._plan_state(params)).real)

    def _value_and_gradient(self, params: np.ndarray) -> Tuple[float, np.ndarray]:
        values, grads = reverse_value_and_gradient(self.plan, self._operator, params[None])
        return float(values[0]), grads[0]
