"""Expectation-value evaluation strategies (paper §4.2).

Two ways to turn a state into <H>:

``expectation_direct``
    The paper's direct method: compute <psi|H|psi> from the full
    amplitude vector with vectorized per-term application — exact, no
    circuits, no sampling noise.  This is NWQ-Sim's chemistry-mode
    fast path.

``measure``
    The measured expectation, and the only code that rotates a state
    for measurement.  An observable becomes a *measurement table*: one
    row per measured group holding the group's basis-change circuit,
    its real coefficients and the Z-masks its members become after the
    rotation.  Per row, ``measure`` rotates a copy of the (cached,
    §4.1) post-ansatz state, takes the exact probabilities or draws
    shots (§4.2.1), and reduces every member's parity in one pass.
    ``expectation_basis_rotated`` (the Fig. 3 caching mode),
    ``expectation_sampled``, ``measure_general_group`` and the caching
    evaluator are thin callers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.clifford import conjugate_through_circuit, diagonalizing_clifford
from repro.ir.compiled import CompiledPauliSum, compile_observable
from repro.ir.pauli import PauliString, PauliSum
from repro.sim.statevector import StatevectorSimulator
from repro.utils.bitops import basis_indices, count_set_bits

__all__ = [
    "basis_change_circuit",
    "expectation_direct",
    "expectation_basis_rotated",
    "expectation_sampled",
    "diagonal_expectation",
    "MeasuredGroup",
    "measurement_table",
    "qwc_table",
    "measure",
    "measure_general_group",
]

Group = Sequence[Tuple[complex, PauliString]]


class MeasuredGroup(NamedTuple):
    """One measured basis: after ``basis``, member i contributes
    ``coeffs[i] * <Z^masks[i]>`` (mask 0 is an identity member)."""

    basis: Circuit
    coeffs: np.ndarray
    masks: np.ndarray


# (sum of the identity-only groups, the groups that need a rotation)
MeasurementTable = Tuple[float, List[MeasuredGroup]]


def basis_change_circuit(group: Sequence[PauliString], num_qubits: int) -> Circuit:
    """Circuit rotating every term of a qubit-wise commuting group to
    Z-type: H for X factors, Sdg+H for Y factors (§4.1.2)."""
    basis: Dict[int, str] = {}
    for pstr in group:
        for q in pstr.support:
            op = pstr.op_on(q)
            prev = basis.get(q)
            if prev is not None and prev != op:
                raise ValueError(
                    "terms are not qubit-wise commuting; cannot share a basis"
                )
            basis[q] = op
    circ = Circuit(num_qubits)
    for q in sorted(basis):
        op = basis[q]
        if op == "X":
            circ.h(q)
        elif op == "Y":
            circ.sdg(q).h(q)
    return circ


def diagonal_expectation(weights: np.ndarray, z_masks) -> np.ndarray:
    """sum_b weights_b (-1)^parity(b & m) for a mask m or an array of
    masks: <Z^m> when ``weights`` are outcome probabilities.

    All masks share one parity pass over the basis indices, taken in
    slices of at most 2^20 (index, mask) pairs to bound the temporary.
    """
    masks = np.asarray(z_masks, dtype=np.int64)
    flat = masks.reshape(-1)
    idx = basis_indices(weights.shape[0].bit_length() - 1)[:, None]
    step = max(1, (1 << 20) // idx.shape[0])
    values = np.empty(flat.size)
    for lo in range(0, flat.size, step):
        parity = count_set_bits(idx & flat[lo:lo + step]) & 1
        values[lo:lo + step] = weights @ (1.0 - 2.0 * parity)
    return values.reshape(masks.shape)


def expectation_direct(
    state: np.ndarray, hamiltonian: Union[PauliSum, CompiledPauliSum]
) -> float:
    """Exact <psi|H|psi> from amplitudes (direct method, §4.2.2).

    The observable is compiled to its x-mask-batched form on first use
    (one pass per distinct x-mask instead of per term; see
    :mod:`repro.ir.compiled`) and the compiled form is reused across
    calls — pass either a ``PauliSum`` or a ``CompiledPauliSum``.

    Raises if the expectation has a non-negligible imaginary part
    (i.e. H was not Hermitian).
    """
    compiled = compile_observable(hamiltonian)
    with obs.span(
        "sim.expectation_direct",
        terms=compiled.num_terms,
        passes=compiled.num_passes,
    ):
        val = compiled.expectation(state)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValueError(f"non-Hermitian observable: <H> = {val}")
    return float(val.real)


# -- the measurement table -------------------------------------------------------


def _qwc_rotation(group: Group, num_qubits: int):
    basis = basis_change_circuit([p for _, p in group], num_qubits)
    return basis, [(c.real, p.x | p.z) for c, p in group]


def _clifford_rotation(group: Group, num_qubits: int):
    basis = diagonalizing_clifford(
        [p for _, p in group if not p.is_identity], num_qubits
    )
    members = []
    for coeff, pstr in group:
        sign, rotated = conjugate_through_circuit(basis, 1.0, pstr)
        assert rotated.x == 0, "rotation failed to diagonalize a member"
        members.append((coeff.real * sign, rotated.z))
    return basis, members


def _table(groups: Sequence[Group], num_qubits: int, rotation) -> MeasurementTable:
    constant = 0.0
    rows: List[MeasuredGroup] = []
    for group in groups:
        for coeff, pstr in group:
            if abs(coeff.imag) > 1e-10:
                raise ValueError(
                    f"non-Hermitian hamiltonian: term {pstr.label()} has "
                    f"coefficient {coeff}"
                )
        if all(p.is_identity for _, p in group):
            constant += sum(c.real for c, _ in group)
            continue
        basis, members = rotation(group, num_qubits)
        coeffs, masks = zip(*members)
        rows.append(
            MeasuredGroup(basis, np.array(coeffs), np.array(masks, dtype=np.int64))
        )
    return constant, rows


def measurement_table(groups: Sequence[Group], num_qubits: int) -> MeasurementTable:
    """The table of qubit-wise commuting ``groups``: each is rotated by
    single-qubit basis changes, and a member keeps its support as its
    Z-mask.  Groups of identity terms only fold into the constant.
    Raises ``ValueError`` on a complex coefficient."""
    return _table(groups, num_qubits, _qwc_rotation)


def qwc_table(hamiltonian: PauliSum) -> MeasurementTable:
    """:func:`measurement_table` of the qubit-wise commuting grouping,
    memoized on the ``PauliSum`` beside the grouping itself (dropped by
    ``add_term``/``chop``)."""
    if hamiltonian._qwc_table is None:
        hamiltonian._qwc_table = measurement_table(
            hamiltonian.group_qubitwise_commuting(), hamiltonian.num_qubits
        )
    return hamiltonian._qwc_table


# -- the measured expectation ----------------------------------------------------


def measure(
    state: Union[np.ndarray, Callable[[], np.ndarray]],
    table: MeasurementTable,
    sim: StatevectorSimulator,
    shots: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, int]:
    """``(<H>, basis-change gates run)`` over a measurement table.

    Per row: load a copy of ``state`` into ``sim`` (a callable is
    called first — the non-caching mode re-prepares the ansatz for
    every group), apply the row's basis change, then reduce every
    member's parity against the exact probabilities (``shots`` None)
    or against ``shots`` ``sim.sample`` draws.  Rows draw in table
    order.
    """
    constant, rows = table
    if shots is not None:
        if shots < 1:
            raise ValueError(f"shots_per_group must be at least 1, got {shots}")
        rng = rng or np.random.default_rng()
    total = constant
    gates = 0
    for row in rows:
        sim.set_state(state() if callable(state) else state, copy=True)
        sim.apply_circuit(row.basis)
        gates += len(row.basis)
        if shots is None:
            values = diagonal_expectation(sim.probabilities(), row.masks)
        else:
            outcomes = np.bincount(sim.sample(int(shots), rng), minlength=sim.dim)
            values = diagonal_expectation(outcomes.astype(float), row.masks) / shots
        total += float(row.coeffs @ values)
    return total, gates


def _simulator(sim: Optional[StatevectorSimulator], num_qubits: int) -> StatevectorSimulator:
    if sim is None:
        return StatevectorSimulator(num_qubits)
    if sim.num_qubits != num_qubits:
        raise ValueError("simulator width does not match observable")
    return sim


def expectation_basis_rotated(
    state: np.ndarray,
    hamiltonian: PauliSum,
    return_gate_count: bool = False,
    sim: Optional[StatevectorSimulator] = None,
) -> "float | Tuple[float, int]":
    """Exact <H> via shared-basis rotations of a cached state.

    :func:`measure` over the qubit-wise-commuting groups.  The returned
    gate count is the number of *additional* gates beyond the single
    ansatz execution — the caching-mode cost of Fig. 3.

    ``sim`` lets repeated evaluations (estimators, Fig. 3 sweeps) reuse
    one simulator instead of allocating a fresh 2^n register per call;
    the measurement table itself is memoized on the ``PauliSum``.
    """
    n = hamiltonian.num_qubits
    sim = _simulator(sim, n)
    rotation_span = obs.span("sim.expectation_basis_rotated", qubits=n)
    with rotation_span:
        total, extra_gates = measure(state, qwc_table(hamiltonian), sim)
    rotation_span.set_attribute("extra_gates", extra_gates)
    if return_gate_count:
        return total, extra_gates
    return total


def expectation_sampled(
    state: np.ndarray,
    hamiltonian: PauliSum,
    shots_per_group: int,
    rng: Optional[np.random.Generator] = None,
    sim: Optional[StatevectorSimulator] = None,
) -> float:
    """Finite-shot estimate of <H> (the traditional baseline, §4.2.1):
    :func:`measure` with ``shots_per_group`` draws per qubit-wise group.

    ``sim`` lets repeated evaluations reuse one simulator; the
    measurement table is memoized on the ``PauliSum``.
    """
    n = hamiltonian.num_qubits
    sim = _simulator(sim, n)
    with obs.span(
        "sim.expectation_sampled", qubits=n, shots_per_group=shots_per_group
    ):
        return measure(state, qwc_table(hamiltonian), sim, shots_per_group, rng)[0]


def measure_general_group(
    state: np.ndarray, group: Group, num_qubits: int
) -> Tuple[float, int]:
    """Sum of coeff * <P> over a generally-commuting group, using one
    shared Clifford rotation (:func:`repro.ir.clifford.diagonalizing_clifford`).
    Returns (value, circuit gate count)."""
    table = _table([group], num_qubits, _clifford_rotation)
    return measure(state, table, StatevectorSimulator(num_qubits))
