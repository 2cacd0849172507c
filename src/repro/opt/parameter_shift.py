"""Parameter-shift gradients for circuit-mode VQE.

For a rotation gate exp(-i theta G / 2) whose generator G squares to
the identity (RX/RY/RZ/RZZ/RXX/RYY; the phase gate reduces to RZ up to
a global phase), the exact derivative is

    dE/dtheta = [E(theta + pi/2) - E(theta - pi/2)] / 2.

This is the gradient a *hardware* backend can evaluate — no state
access needed — and complements the simulator-only adjoint gradients
of ``repro.opt.gradient``.  The rule requires each named parameter to
appear in exactly one eligible rotation; ansatze like
``repro.ir.library.hardware_efficient_ansatz`` satisfy this by
construction, while trotterized UCCSD (one parameter feeding many
rotations) does not — those use the adjoint path.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Parameter
from repro.ir.pauli import PauliSum

__all__ = [
    "parameter_shift_gradient",
    "supports_parameter_shift",
    "batched_parameter_shift_gradient",
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


def supports_parameter_shift(circuit: Circuit) -> bool:
    """True if every parameter appears exactly once, in a gate the
    two-term shift rule covers."""
    occ = _parameter_occurrences(circuit)
    return all(len(v) == 1 and v[0] is not None for v in occ.values())


def parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
    estimate: Optional[Callable[[Circuit, PauliSum], float]] = None,
) -> np.ndarray:
    """Exact gradient via two energy evaluations per parameter.

    ``estimate`` defaults to the direct estimator; pass a sampling
    estimator's ``estimate`` method for the hardware-faithful variant.
    """
    if not supports_parameter_shift(circuit):
        raise ValueError(
            "parameter-shift rule requires each parameter in exactly one "
            "RX/RY/RZ/P/RZZ/RXX/RYY gate; use adjoint gradients for "
            "product-of-exponential ansatze"
        )
    names = circuit.parameters
    params = np.asarray(params, dtype=float)
    if params.shape != (len(names),):
        raise ValueError(f"expected {len(names)} parameters")
    occ = _parameter_occurrences(circuit)

    if estimate is None:
        return _plan_parameter_shift_gradient(circuit, hamiltonian, params, occ)

    # custom estimate callables (e.g. a sampling estimator's bound
    # method) take bound circuits; keep the faithful per-evaluation path
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


def _plan_parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
    occ: Dict[str, List[Parameter]],
) -> np.ndarray:
    """The simulator fast path: reverse-mode evaluation of the shift
    derivatives on the compiled plan.

    For the gates the shift rule covers, the two-term formula *is* the
    analytic derivative, so the whole gradient can be read off one
    forward pass, one ``H|psi>`` application, and one backward sweep
    undoing ops pairwise on ``|phi>`` and ``|lambda> = H|psi>`` — the
    classic adjoint trick, here running on prepacked plan ops instead
    of ``Gate`` objects.  A rotation step ``exp(theta A)`` contributes
    ``2 Re <lambda| A |phi>``; every op is undone by
    ``apply_op(..., adjoint=True)``.  Cost is ~3 plan executions plus
    one observable apply, independent of parameter count, versus the
    naive ``2 m`` bound circuit runs and ``2 m`` expectations.
    Identical values to the two-term formula to machine precision.
    """
    from repro import obs
    from repro.ir.compiled import compile_observable
    from repro.sim.kernels import apply_op, phase_bracket, rotation_bracket
    from repro.sim.plan import compile_circuit

    names = circuit.parameters
    plan = compile_circuit(circuit)
    n = plan.num_qubits
    psi = np.zeros(plan.dim, dtype=np.complex128)
    psi[0] = 1.0
    plan.execute_slice(psi, params, 0)
    lam = compile_observable(hamiltonian).apply(psi)
    phi = psi  # backward sweep updates the forward buffer in place
    grad = np.zeros(len(names))
    for op in reversed(plan.ops):
        if op.kind == "rot":
            # exp(theta A): dU/dtheta = A U
            for k in op.param_deps:
                grad[k] += 2.0 * rotation_bracket(lam, phi, op.data).real
        elif op.is_parametric:
            # the phase gate, the one shift-rule gate that is not a
            # rotation step: dU/dtheta = i |1><1| U
            _, coeff, k, _ = op.param_refs[0]
            grad[k] += 2.0 * coeff * phase_bracket(lam, phi, op.qubits[0]).real
        kind, payload = op.resolve(params)
        apply_op(phi, kind, payload, op.qubits, n, adjoint=True)
        apply_op(lam, kind, payload, op.qubits, n, adjoint=True)
    if obs.enabled():
        obs.inc(
            "repro_plan_adjoint_gradients_total",
            help="Plan-based reverse-mode parameter-shift gradients",
        )
    return grad


def _prefix_parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
    occ: Dict[str, List[Parameter]],
) -> np.ndarray:
    """Shifted-evaluation path with explicit prefix reuse (the middle
    rung the benchmark measures between naive bind+run and the
    reverse-mode sweep).

    Each shift-eligible parameter appears in exactly one gate, so the
    shifted evaluations for parameter k share the op prefix up to that
    gate with the unshifted circuit.  A base state is advanced through
    the plan once (op position ``first_use[k]`` per parameter, ascending
    by construction of ``Circuit.parameters``), and every shifted
    evaluation copies the base prefix and replays only the suffix —
    ~m * G kernel ops total instead of the naive 2 m G.
    """
    from repro import obs
    from repro.sim.expectation import expectation_direct
    from repro.sim.plan import compile_circuit

    names = circuit.parameters
    plan = compile_circuit(circuit)
    base = np.zeros(plan.dim, dtype=np.complex128)
    base[0] = 1.0
    work = np.empty_like(base)
    pos = 0
    skipped = 0
    grad = np.zeros(len(names))
    for k, name in enumerate(names):
        (pref,) = occ[name]
        if pref.coeff == 0:
            continue
        fk = plan.first_use[k]
        plan.execute_slice(base, params, pos, fk)
        pos = fk
        shift = math.pi / (2.0 * pref.coeff)
        energies = []
        for sign in (1.0, -1.0):
            shifted = params.copy()
            shifted[k] += sign * shift
            work[:] = base
            plan.execute_slice(work, shifted, fk)
            energies.append(expectation_direct(work, hamiltonian))
            skipped += fk
        grad[k] = 0.5 * (energies[0] - energies[1]) * pref.coeff
    if skipped and obs.enabled():
        obs.inc(
            "repro_plan_prefix_resumes_total",
            2 * len(names),
            help="Plan executions resumed from a parked prefix state",
        )
        obs.inc(
            "repro_plan_prefix_ops_skipped_total",
            skipped,
            help="Kernel ops skipped via prefix-state reuse",
            labels={"engine": "circuit"},
        )
    return grad


def batched_parameter_shift_gradient(
    circuit: Circuit,
    hamiltonian: PauliSum,
    params: np.ndarray,
) -> np.ndarray:
    """Parameter-shift gradient with all 2m shifted evaluations run as
    ONE batched simulation (paper §6.2 batch execution, applied to the
    gradient workload).

    Numerically identical to :func:`parameter_shift_gradient`; the
    benchmark suite measures the batching speedup.
    """
    from repro.sim.batched import BatchedStatevectorSimulator
    from repro.sim.plan import compile_circuit

    if not supports_parameter_shift(circuit):
        raise ValueError(
            "parameter-shift rule requires each parameter in exactly one "
            "RX/RY/RZ/P/RZZ/RXX/RYY gate"
        )
    names = circuit.parameters
    params = np.asarray(params, dtype=float)
    if params.shape != (len(names),):
        raise ValueError(f"expected {len(names)} parameters")
    occ = _parameter_occurrences(circuit)

    m = len(names)
    batch = 2 * m
    rows = np.tile(params, (batch, 1))
    coeffs = np.zeros(m)
    for k, name in enumerate(names):
        (pref,) = occ[name]
        coeffs[k] = pref.coeff
        if pref.coeff == 0:
            continue
        shift = math.pi / (2.0 * pref.coeff)
        rows[2 * k, k] += shift
        rows[2 * k + 1, k] -= shift

    # the same compiled plan the scalar paths share (memoized on the
    # circuit): static segments pre-fused, diagonals pre-folded
    plan = compile_circuit(circuit)
    sim = BatchedStatevectorSimulator(circuit.num_qubits, batch)
    sim.run_plan(plan, rows)
    energies = sim.expectations(hamiltonian)
    grad = 0.5 * (energies[0::2] - energies[1::2]) * coeffs
    grad[coeffs == 0] = 0.0
    return grad
