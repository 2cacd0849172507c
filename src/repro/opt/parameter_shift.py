"""Parameter-shift gradients for circuit-mode VQE.

For a rotation gate exp(-i theta G / 2) whose generator G squares to
the identity (RX/RY/RZ/RZZ/RXX/RYY; the phase gate reduces to RZ up to
a global phase), the exact derivative is

    dE/dtheta = [E(theta + pi/2) - E(theta - pi/2)] / 2.

This is the gradient a *hardware* backend can evaluate — no state
access needed.  The rule requires each named parameter to appear in
exactly one eligible rotation; ansatze like
``repro.ir.library.hardware_efficient_ansatz`` satisfy this by
construction, while trotterized UCCSD (one parameter feeding many
rotations) does not.

On the simulator (no custom ``estimate``) the same derivatives come
from one reverse-mode sweep over the compiled plan
(:func:`repro.sim.batched.reverse_value_and_gradient`), which only
needs every parametric plan op to be a rotation step or a phase gate —
UCCSD included, since its generators become single rotation steps.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliSum
from repro.sim.batched import reverse_value_and_gradient
from repro.sim.plan import compile_circuit

__all__ = [
    "parameter_shift_gradient",
    "supports_parameter_shift",
]

_SHIFT_GATES = {"rx", "ry", "rz", "p", "rzz", "rxx", "ryy"}


def _parameter_occurrences(circuit: Circuit) -> Dict[str, List[Parameter]]:
    occ: Dict[str, List[Parameter]] = {}
    for g in circuit.gates:
        for p in g.params:
            if isinstance(p, Parameter):
                if g.name not in _SHIFT_GATES:
                    occ.setdefault(p.name, []).append(None)  # ineligible
                else:
                    occ.setdefault(p.name, []).append(p)
    return occ


def _shift_rule_violation(circuit: Circuit) -> Optional[str]:
    """Why the two-term rule cannot run on ``circuit``, naming the first
    offending gate (name, qubits, parameter); ``None`` when it can."""
    seen = set()
    for g in circuit.gates:
        for p in g.params:
            if not isinstance(p, Parameter):
                continue
            where = f"gate {g.name!r} on qubits {g.qubits} (parameter {p.name!r})"
            if g.name not in _SHIFT_GATES:
                return f"{where} is not an RX/RY/RZ/P/RZZ/RXX/RYY rotation"
            if p.name in seen:
                return f"{where} reuses a parameter of an earlier gate"
            seen.add(p.name)
    return None


def supports_parameter_shift(circuit: Circuit) -> bool:
    """True if every parameter appears exactly once, in a gate the
    two-term shift rule covers."""
    return _shift_rule_violation(circuit) is None


def parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
    estimate: Optional[Callable[[Circuit, PauliSum], float]] = None,
) -> np.ndarray:
    """Exact gradient of ``<H>`` at ``params``.

    With ``estimate=None`` this is the reverse-mode sweep on the
    compiled plan, for any circuit whose plan admits it.  A custom
    ``estimate`` (e.g. a sampling estimator's bound method) runs the
    hardware-faithful two-term rule instead: two evaluations of bound
    circuits per parameter, each parameter in exactly one shift gate.
    """
    names = circuit.parameters
    params = np.asarray(params, dtype=float)
    if params.shape != (len(names),):
        raise ValueError(f"expected {len(names)} parameters, got shape {params.shape}")
    if estimate is None:
        _, grads = reverse_value_and_gradient(
            compile_circuit(circuit), hamiltonian, params[None, :]
        )
        return grads[0]
    violation = _shift_rule_violation(circuit)
    if violation is not None:
        raise ValueError(f"parameter-shift rule cannot run: {violation}")
    occ = _parameter_occurrences(circuit)
    values = dict(zip(names, params))
    grad = np.zeros(len(names))
    for k, name in enumerate(names):
        (pref,) = occ[name]
        # gate angle = coeff * p + offset; shifting the *gate angle* by
        # +/- pi/2 means shifting p by +/- pi / (2 coeff).
        if pref.coeff == 0:
            continue
        shift = math.pi / (2.0 * pref.coeff)
        up = dict(values)
        up[name] = values[name] + shift
        down = dict(values)
        down[name] = values[name] - shift
        e_up = estimate(circuit.bind(up), hamiltonian)
        e_down = estimate(circuit.bind(down), hamiltonian)
        # d(angle)/dp = coeff; chain rule restores it.
        grad[k] = 0.5 * (e_up - e_down) * pref.coeff
    return grad

