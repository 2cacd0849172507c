"""Compiled circuit execution: bind-free plans.

``compile_circuit`` lowers a (possibly parameterized) circuit once to a
flat list of ops, so that the thousands of energy and gradient
evaluations of an optimization re-walk no ``Gate`` objects and re-bind
no parameters.  A plan op is **plain data** — ``(kind, qubits, data,
parameter slots)``, see :class:`PlanOp` — and this module applies none
of it: every executor (``ExecutionPlan.execute`` here, the batched and
distributed simulators, the reverse-mode gradient) walks the list and
hands each op to :func:`repro.sim.kernels.apply_op`.  Lowering is two
passes:

* **Pauli-frame pass.**  Clifford gates are not emitted as they are
  seen; they are kept as a *frame*: the literal list of pending gates
  (adjacent inverse pairs cancelled) plus the inverse tableau
  ``M(P) = C^dag P C`` of their product ``C`` on the 2n generators,
  updated per gate from a numerically derived, cached local action
  (``repro.ir.clifford.conjugate_pauli``; no per-gate rules).  A
  rotation ``rz/rx/ry/rzz/rxx/ryy`` about the Pauli ``Q`` — symbolic or
  constant angle — is pulled in front of the frame as
  ``exp(-i theta/2 M(Q))``.  Adjacent pulled rotations that share an
  x-mask and a parameter slot and mutually commute merge into one
  **rotation step** ``exp(theta A)``, ``(A psi)[i] = w[i] psi[i ^ x]``,
  executed by the one closed-form kernel
  :func:`repro.sim.kernels.apply_rotation`.  A Trotterized UCCSD
  circuit — Clifford-conjugated rotations ``V^dag Rz(theta) V`` — thus
  collapses to one step per excitation plus the reference ``x`` gates
  (H4: 2692 gates -> 30 ops).
* **Residue.**  Whatever the frame cannot absorb is a barrier:
  parametric ``p/cp/crz/u3`` gates keep their name and one affine
  parameter slot ``(coeff, index, offset)`` per angle and are lowered
  per call by :func:`repro.sim.kernels.lower_gate`; static
  non-Clifford gates (``t``, opaque unitaries, >= 3-qubit gates) join
  the pending gates and make them opaque to rotations.  Pending gates
  are flushed through the paper's <= 2-qubit fusion (§4.3), lowered by
  the same ``lower_gate``, and adjacent static diagonal ops fold into a
  single pass.  The emitted tail is the literal gate list, so plans are
  phase-exact.

A generator ansatz ``prod_k exp(theta_k A_k) |ref>`` (chemistry-mode
VQE, ADAPT) needs neither pass: ``ExecutionPlan.from_generators``
emits one rotation step per x-mask group of each generator, the steps
the frame pass recovers from the equivalent Trotterized circuit,
without building that circuit.

Every plan has an **index set** ``plan.index``, the sorted basis
indices its state holds (``plan.dim`` of them).  A circuit plan holds
the full register.  A generator plan whose steps all have zero weight
wherever ``i ^ x`` leaves the (N, S_z) sector of its reference holds
that sector, narrowed to the reference's parity class under the
observable's Z2 symmetries when every generator commutes with them
(see ``from_generators``): its steps carry sector-length class tables
and a partner table (see :class:`repro.sim.kernels.MaskRotation`), it
emits no reference ``x`` ops and ``execute`` starts at the reference's
position ``plan.origin``.  Any other generator plan (a qubit pool, say)
emits the reference's ``x`` ops and holds the full register, as before.

Consumers: ``StatevectorSimulator.run_plan`` (the estimators'
``estimate_plan``, ``CachedEnergyEvaluator``),
``BatchedStatevectorSimulator.run_plan`` (the estimators'
``estimate_plan_many``), the reverse-mode sweep (the parameter-shift
gradient, ``repro.opt.gradient.AnsatzObjective``), and the slice-aware
``DistributedStatevector.run_plan``.  The three simulators hold a full
register and refuse a sector plan; ``execute`` and the reverse-mode
sweep take either.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.clifford import conjugate_pauli
from repro.ir.gates import GATE_SET, Gate, Parameter
from repro.ir.pauli import PauliString, PauliSum
from repro.ir.symplectic import parity_flips
from repro.sim import kernels
from repro.sim.fusion import fuse_circuit
from repro.utils.bitops import I_POW, basis_indices, popcount, sector_of

__all__ = [
    "ExecutionPlan",
    "PlanOp",
    "compile_circuit",
    "generator_ops",
    "mask_clash",
    "unbound_parameter_message",
]

# Widest register for which a run of wide-support diagonal gates is
# folded into one dense 2^n diagonal (16 MiB of complex128 at 20).
FULL_DIAG_FOLD_MAX_QUBITS = 20

# Rotation gates exp(-i theta/2 Q): the local (x, z) bits of Q.
_ROTATION_AXES: Dict[str, Tuple[int, int]] = {
    "rz": (0, 1),
    "rx": (1, 0),
    "ry": (1, 1),
    "rzz": (0, 3),
    "rxx": (3, 0),
    "ryy": (3, 3),
}


def unbound_parameter_message(circuit: Circuit) -> str:
    """The shared error text for executing a parameterized circuit:
    names the offending parameters instead of a bare "bind first"."""
    names = circuit.parameters
    shown = ", ".join(repr(n) for n in names[:8])
    if len(names) > 8:
        shown += f", ... ({len(names) - 8} more)"
    return (
        f"circuit has {len(names)} unbound parameter(s) [{shown}]; "
        "call bind() with values for them, or compile the circuit "
        "(repro.sim.plan.compile_circuit) and execute the plan with a "
        "parameter vector"
    )


class PlanOp:
    """One op of an :class:`ExecutionPlan` — plain data, applied by
    :func:`repro.sim.kernels.apply_op` under every executor.

    * ``kind`` — ``rot`` for a rotation step (parametric when it has a
      parameter slot, static for a constant angle); ``x``/``cx``/
      ``diag1``/``diag2``/``diag_full``/``dense`` for the static
      residue; ``gate`` for a parametric barrier gate, lowered per call
      from ``gate_name`` and its angles;
    * ``data`` — the :class:`repro.sim.kernels.MaskRotation` of a
      rotation step, the frozen diagonal/matrix payload of a static op;
    * ``gate_name``/``param_refs`` — registry name and the affine
      parameter slots ``("p", coeff, index, offset)`` / ``("c", value)``
      of a ``gate`` op (a rotation step's slot has coefficient 1 and
      offset 0: its coefficients live in the step's weights);
    * ``param_deps`` — parameter indices this op depends on (empty for
      static ops);
    * ``source_gates`` — how many source gates this op absorbs.
    """

    __slots__ = (
        "kind",
        "qubits",
        "data",
        "gate_name",
        "param_refs",
        "param_deps",
        "source_gates",
    )

    def __init__(
        self,
        kind: str,
        qubits: Tuple[int, ...],
        data=None,
        gate_name: str = "",
        param_refs: Tuple = (),
        source_gates: int = 1,
    ):
        self.kind = kind
        self.qubits = qubits
        self.data = data
        self.gate_name = gate_name
        self.param_refs = param_refs
        self.param_deps = frozenset(r[2] for r in param_refs if r[0] == "p")
        self.source_gates = source_gates

    @property
    def is_parametric(self) -> bool:
        return bool(self.param_deps)

    def resolve(self, params: np.ndarray):
        """``(kind, payload)`` for :func:`repro.sim.kernels.apply_op`,
        with parameters substituted from one flat vector or a ``(B, P)``
        block of them (angles are then ``(B,)`` vectors)."""
        if self.kind == "rot":
            refs = self.param_refs
            return "rot", (params[..., refs[0][2]] if refs else 1.0, self.data)
        if self.kind != "gate":
            return self.kind, self.data
        if params.ndim > 1 and self.gate_name not in kernels.ANGLE_DIAGONAL_GATES:
            raise ValueError(
                f"no batched form for parameterized gate {self.gate_name!r} "
                f"on qubits {self.qubits}: a dense matrix per row is not "
                "supported; supported: rotation steps (rx, ry, rz, rzz, rxx, "
                "ryy) and p, cp, crz"
            )
        angles = [
            ref[1] if ref[0] == "c" else ref[1] * params[..., ref[2]] + ref[3]
            for ref in self.param_refs
        ]
        return kernels.lower_gate(self.gate_name, angles)

    def __repr__(self) -> str:
        return f"PlanOp({self.kind}, q={list(self.qubits)}, src={self.source_gates})"


def _static_op(gate: Gate) -> PlanOp:
    """One parameter-free gate as a plan op; a dense block that is in
    fact diagonal becomes a diagonal op, so that it can fold."""
    kind, payload = kernels.lower_gate(gate.name, gate.params, gate.matrix)
    if kind == "dense":
        # Copy before freezing: the gate may hand back its own (shared)
        # matrix object for opaque/fused gates.
        payload = np.array(payload, dtype=np.complex128)
        if len(gate.qubits) <= 2 and not np.count_nonzero(
            payload - np.diag(np.diagonal(payload))
        ):
            kind, payload = f"diag{len(gate.qubits)}", np.diagonal(payload)
        else:
            payload.flags.writeable = False
    if kind in ("diag1", "diag2"):
        payload = tuple(complex(d) for d in payload)
    return PlanOp(kind, gate.qubits, payload)


def _parametric_op(gate: Gate, index_of: Dict[str, int]) -> PlanOp:
    """A parametric barrier gate (anything but a rotation): its name
    and one affine parameter slot per angle."""
    refs = tuple(
        ("p", p.coeff, index_of[p.name], p.offset)
        if isinstance(p, Parameter)
        else ("c", float(p))
        for p in gate.params
    )
    return PlanOp("gate", gate.qubits, gate_name=gate.name, param_refs=refs)


# ---------------------------------------------------------------------------
# The Pauli-frame pass
# ---------------------------------------------------------------------------

# A Pauli is carried as (x, z, k) = i^k X^x Z^z on Python ints.
_Pauli = Tuple[int, int, int]


def _pauli_mul(a: _Pauli, b: _Pauli) -> _Pauli:
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * popcount(a[1] & b[0])) & 3


@lru_cache(maxsize=4096)
def _clifford_action(name: str, params: Tuple[float, ...]):
    """``g^dag P g`` for the local generators ``X_0, Z_0, X_1, Z_1`` of a
    parameter-free registry gate ``g`` on <= 2 qubits, each as
    ``(sign, x bits, z bits)``; ``None`` when ``g`` is not Clifford."""
    nq = GATE_SET[name][0]
    if nq > 2:
        return None
    inverse = Gate(name, tuple(range(nq)), params).dagger()
    u = inverse.to_matrix()
    images = []
    try:
        for q in range(nq):
            for x, z in ((1 << q, 0), (0, 1 << q)):
                pauli = PauliString(nq, x, z)
                sign, image = conjugate_pauli(inverse, 1.0, pauli)
                # conjugate_pauli matches to 1e-9; rotations pulled through
                # the tableau are exact only if the gate is that Clifford
                if not np.allclose(u @ pauli.to_matrix() @ u.conj().T,
                                   sign * image.to_matrix(), rtol=0.0, atol=1e-14):
                    return None
                images.append((sign, image.x, image.z))
    except ValueError:
        return None
    return tuple(images)


@lru_cache(maxsize=4096)
def _cancels(name_a: str, params_a: Tuple, name_b: str, params_b: Tuple) -> bool:
    """True when two registry gates on the same qubit tuple multiply to
    the identity, phase included."""
    product = GATE_SET[name_b][2](*params_b) @ GATE_SET[name_a][2](*params_a)
    return bool(np.allclose(product, np.eye(product.shape[0]), rtol=0.0, atol=1e-14))


class _Frame:
    """The pending static gates of the frame pass and, while all of them
    are Clifford, the inverse tableau of their product."""

    def __init__(self, n: int):
        self.n = n
        self.absorbed = 0
        self.reset()

    def reset(self) -> None:
        self.pending: List[Optional[Gate]] = []
        # per qubit, the pending gates touching it (indices, oldest first)
        self.touching: List[List[int]] = [[] for _ in range(self.n)]
        # rows[2q] = M(X_q), rows[2q + 1] = M(Z_q)
        self.rows: List[_Pauli] = []
        for q in range(self.n):
            self.rows += [(1 << q, 0, 0), (0, 1 << q, 0)]
        self.opaque = False

    def image(self, qubits: Sequence[int], sign: float, lx: int, lz: int) -> _Pauli:
        """``M(P)`` of the Hermitian Pauli ``sign * P(lx, lz)`` given by
        its bits on ``qubits``."""
        out = (0, 0, 0 if sign > 0 else 2)
        for j, q in enumerate(qubits):
            xb, zb = (lx >> j) & 1, (lz >> j) & 1
            if xb:
                out = _pauli_mul(out, self.rows[2 * q])
            if zb:
                out = _pauli_mul(out, self.rows[2 * q + 1])
            if xb and zb:  # Y = i X Z
                out = out[0], out[1], (out[2] + 1) & 3
        return out

    def push(self, gate: Gate, action) -> None:
        """Append a static gate; ``action`` is its Clifford action, or
        ``None`` for a gate rotations cannot be pulled through."""
        qs = gate.qubits
        if action is None:
            self.opaque = True
        elif not self.opaque:
            images = [self.image(qs, *local) for local in action]
            for j, q in enumerate(qs):
                self.rows[2 * q], self.rows[2 * q + 1] = images[2 * j], images[2 * j + 1]
        tops = {self.touching[q][-1] if self.touching[q] else -1 for q in qs}
        if len(tops) == 1 and -1 not in tops and gate.matrix is None:
            (top,) = tops
            last = self.pending[top]
            if (
                last.qubits == qs
                and last.matrix is None
                and _cancels(last.name, last.params, gate.name, gate.params)
            ):
                self.pending[top] = None
                for q in qs:
                    self.touching[q].pop()
                self.absorbed += 2
                return
        for q in qs:
            self.touching[q].append(len(self.pending))
        self.pending.append(gate)


class _RotationDraft:
    """A rotation step under construction: terms ``c X^x Z^z`` sharing
    the x-mask ``x`` and the parameter slot ``slot`` (``None``:
    constant), kept as ``(z, c)``."""

    def __init__(self, x: int, slot: Optional[int]):
        self.x = x
        self.slot = slot
        self.terms: List[Tuple[int, complex]] = []  # (z mask, coefficient)
        self.gates = 0  # source gates (an offset piece is not its own gate)

    def accepts(self, x: int, z: int, slot: Optional[int]) -> bool:
        return (
            x == self.x
            and slot == self.slot
            and all(popcount(x & (z ^ other)) % 2 == 0 for other, _ in self.terms)
        )

    def to_op(self, n: int, index: Optional[np.ndarray] = None) -> PlanOp:
        # (X^x Z^z psi)[i] = (-1)^{|(i ^ x) & z|} psi[i ^ x]
        step = kernels.MaskRotation.from_terms(
            self.x,
            [(z, -c if popcount(self.x & z) & 1 else c) for z, c in self.terms],
            n,
            index,
        )
        support = self.x
        for z, _ in self.terms:
            support |= z
        return PlanOp(
            "rot", tuple(q for q in range(n) if (support >> q) & 1),
            data=step, gate_name="rot",
            param_refs=() if self.slot is None else (("p", 1.0, self.slot, 0.0),),
            source_gates=self.gates,
        )


def _lower(circuit: Circuit, index_of: Dict[str, int]):
    """The frame pass: ``circuit`` to (ops, fused gates removed, frame
    gates absorbed, rotations merged into an earlier step)."""
    n = circuit.num_qubits
    ops: List[PlanOp] = []
    frame = _Frame(n)
    draft: Optional[_RotationDraft] = None
    fused_removed = 0
    merged = 0

    def close_draft() -> None:
        nonlocal draft, merged
        if draft is not None:
            ops.append(draft.to_op(n))
            merged += len(draft.terms) - 1
            draft = None

    def flush() -> None:
        nonlocal fused_removed
        close_draft()
        gates = [g for g in frame.pending if g is not None]
        if gates:
            fr = fuse_circuit(Circuit(n, gates), max_qubits=2)
            gates = fr.circuit.gates
            fused_removed += fr.original_gates - fr.fused_gates
        ops.extend(_static_op(g) for g in gates)
        frame.reset()

    def rotate(pauli: _Pauli, slot: Optional[int], scale: float, gates: int = 1) -> None:
        nonlocal draft
        x, z, k = pauli
        if draft is None or not draft.accepts(x, z, slot):
            close_draft()
            draft = _RotationDraft(x, slot)
        draft.terms.append((z, scale * -0.5j * I_POW[k]))
        draft.gates += gates

    for g in circuit.gates:
        axes = _ROTATION_AXES.get(g.name) if g.matrix is None else None
        if g.is_parameterized:
            if axes is None:
                flush()
                ops.append(_parametric_op(g, index_of))
                continue
        else:
            action = _clifford_action(g.name, g.params) if g.matrix is None else None
            if action is not None or axes is None:
                frame.push(g, action)
                continue
        if frame.opaque:
            flush()
        pauli = frame.image(g.qubits, 1.0, *axes)
        (theta,) = g.params
        if isinstance(theta, Parameter):
            if theta.offset:
                rotate(pauli, None, theta.offset, gates=0)
            rotate(pauli, index_of[theta.name], theta.coeff)
        else:
            rotate(pauli, None, float(theta))
    flush()
    return ops, fused_removed, frame.absorbed, merged


# ---------------------------------------------------------------------------
# Generator lowering
# ---------------------------------------------------------------------------


def generator_ops(
    generator: PauliSum, slot: int, index: Optional[np.ndarray] = None
) -> List[PlanOp]:
    """``exp(theta_slot A)`` for an anti-Hermitian ``A``: one rotation
    step per x-mask group of its terms (ascending mask), each on the
    qubits the group touches, over all 2^n amplitudes or over the sorted
    basis indices ``index``.  The steps multiply to ``exp(theta A)``
    exactly when :func:`mask_clash` finds no anticommuting pair."""
    drafts: Dict[int, _RotationDraft] = {}
    for (x, z), c in sorted(generator.terms.items()):
        draft = drafts.setdefault(x, _RotationDraft(x, slot))
        # P(x, z) = i^{|x & z|} X^x Z^z
        draft.terms.append((z, c * I_POW[popcount(x & z) & 3]))
    return [draft.to_op(generator.num_qubits, index) for draft in drafts.values()]


def _closes(step: kernels.MaskRotation) -> bool:
    """Whether ``step`` maps its index set into itself: zero weight
    wherever the partner of an amplitude leaves the set."""
    if step.partners is None or step.x == 0:
        return True
    outside = step.partners == np.arange(step.partners.size)
    return not step.weights[step.classes[outside]].any()


def mask_clash(generator: PauliSum) -> Optional[Tuple[int, int]]:
    """The x-masks of the first two anticommuting terms of ``generator``
    in different x-mask groups, or ``None`` (terms sharing a mask may
    anticommute: their step is exponentiated as a whole)."""
    terms = list(generator.terms)
    return next(
        ((x1, x2) for i, (x1, z1) in enumerate(terms) for x2, z2 in terms[i + 1:]
         if x1 != x2 and popcount((x1 & z2) ^ (z1 & x2)) & 1),
        None,
    )


# ---------------------------------------------------------------------------
# Diagonal-run folding
# ---------------------------------------------------------------------------


def _fold_diag_run(run: List[PlanOp], n: int, fold_full: bool
                   ) -> Tuple[List[PlanOp], int]:
    """Collapse a run of adjacent static diagonal ops into one pass.

    Returns (replacement ops, gates folded away).  Diagonal matrices
    commute, so any in-stream-adjacent combination is legal.  The folded
    diagonal is what the run does to a vector of ones over its support
    (the whole register when the support is wider than two qubits).
    """
    if len(run) < 2:
        return run, 0
    support = sorted({q for op in run for q in op.qubits})
    register = support
    if len(support) > 2:
        if not fold_full or n > FULL_DIAG_FOLD_MAX_QUBITS:
            return run, 0
        register = range(n)
    local = {q: j for j, q in enumerate(register)}
    diag = np.ones(1 << len(register), dtype=np.complex128)
    for op in run:
        kernels.apply_op(
            diag, op.kind, op.data, [local[q] for q in op.qubits], len(register)
        )
    if len(support) > 2:
        kind = "diag_full"
        diag.flags.writeable = False
    else:
        kind, diag = f"diag{len(support)}", tuple(complex(d) for d in diag)
    src = sum(op.source_gates for op in run)
    return [PlanOp(kind, tuple(support), diag, source_gates=src)], len(run) - 1


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class ExecutionPlan:
    """A circuit — or a generator ansatz — compiled to a flat list of
    prepacked kernel ops.

    Plans are immutable snapshots of their source circuit (like
    :class:`repro.ir.compiled.CompiledPauliSum` for observables); use
    :func:`compile_circuit` for the memoized, auto-invalidating entry
    point.  ``execute(state, params)`` is a tight loop over the ops
    through :func:`repro.sim.kernels.apply_op` — zero ``Gate``
    construction, zero ``bind`` copies per call, and no state kept
    between calls: every execution starts from the plan's start state.

    ``fold_full_diag=False`` keeps runs of wide-support diagonal gates
    unfolded instead of one 2^n diagonal; every executor takes either
    form (the argument survives for one caller, see ROADMAP item 1).
    """

    def __init__(self, circuit: Circuit, fold_full_diag: bool = True):
        self.source = circuit
        self._source_gates = tuple(circuit.gates)
        index_of = {name: k for k, name in enumerate(circuit.parameters)}

        (lowered, self.fused_gates_removed, self.frame_gates_absorbed,
         self.rotations_merged) = _lower(circuit, index_of)

        self.diag_gates_folded = 0
        ops: List[PlanOp] = []
        for diagonal, run in groupby(
            lowered, key=lambda op: op.kind in ("diag1", "diag2", "diag_full")
        ):
            run = list(run)
            if diagonal:
                run, saved = _fold_diag_run(run, circuit.num_qubits, fold_full_diag)
                self.diag_gates_folded += saved
            ops.extend(run)
        self._adopt(ops, circuit.num_qubits, circuit.parameters, len(circuit.gates))

    @classmethod
    def from_generators(
        cls, generators: Sequence[PauliSum], reference: np.ndarray,
        z_masks: Sequence[int] = (),
    ) -> "ExecutionPlan":
        """The plan of ``exp(theta_{m-1} A_{m-1}) ... exp(theta_0 A_0)
        |ref>``: :func:`generator_ops` of generator k on parameter
        ``t{k}``.

        The index set is decided by the data alone.  When every
        generator maps the (N, S_z) sector of the basis state
        ``reference`` into itself (a number- and spin-conserving ansatz:
        every rotation step has zero weight wherever ``i ^ x`` leaves
        the sector), the plan holds only that sector
        (:func:`repro.utils.bitops.sector_of`) and starts at the
        reference's position in it; otherwise it holds the full register
        and starts with ``x`` ops preparing the reference from |0...0>.
        ``z_masks`` are the observable's Z2 symmetries
        (:func:`repro.ir.symplectic.find_z2_symmetries`): when every
        generator term commutes with every one of them, the sector is
        narrowed to the reference's parity class, which the ansatz
        never leaves.  Raises ``ValueError`` naming the reference or
        generator that cannot be lowered so."""
        reference = np.asarray(reference)
        n, nonzero = reference.size.bit_length() - 1, np.flatnonzero(reference)
        if (reference.shape != (1 << n,) or nonzero.size != 1
                or not np.isclose(reference[nonzero[0]], 1.0)):
            raise ValueError(
                "reference state must be one computational basis state (a single "
                f"amplitude 1); got shape {reference.shape} with {nonzero.size} "
                "nonzero amplitude(s)"
            )
        ref = int(nonzero[0])
        for k, a in enumerate(generators):
            clash = mask_clash(a)
            fault = (
                f"acts on {a.num_qubits} qubits, the reference on {n}" if a.num_qubits != n
                else "is not anti-Hermitian" if not a.is_anti_hermitian(atol=1e-9)
                else "has anticommuting terms in the x-mask groups "
                f"{clash[0]:#x} and {clash[1]:#x}" if clash else ""
            )
            if fault:
                raise ValueError(f"generator {k} {fault}")
        if any(any(parity_flips(a, z_masks)) for a in generators):
            z_masks = ()
        index, start = sector_of(n, ref, z_masks), ref
        ops = [op for k, a in enumerate(generators) for op in generator_ops(a, k, index)]
        if not all(_closes(op.data) for op in ops):
            index, start = None, 0
            ops = [PlanOp("x", (q,)) for q in range(n) if (ref >> q) & 1]
            ops += [op for k, a in enumerate(generators) for op in generator_ops(a, k)]
        plan = cls.__new__(cls)
        plan.source, plan._source_gates = None, ()
        plan.fused_gates_removed = plan.frame_gates_absorbed = 0
        plan.rotations_merged = plan.diag_gates_folded = 0
        plan._adopt(ops, n, [f"t{k}" for k in range(len(generators))], 0, index, start)
        return plan

    def _adopt(
        self, ops: List[PlanOp], num_qubits: int, parameters: List[str],
        source_gate_count: int, index: Optional[np.ndarray] = None, start: int = 0,
    ) -> None:
        """Take ``ops`` as the plan: sizes, memory and compile metrics —
        whatever lowered them.  ``index`` is the plan's index set
        (``None``: the full register) and ``start`` the basis state its
        state starts in before the ops."""
        self.num_qubits = num_qubits
        self.index = basis_indices(num_qubits) if index is None else index
        self.dim = self.index.size
        self.origin = int(np.searchsorted(self.index, start))
        self.parameters: List[str] = parameters
        self.num_parameters = len(parameters)
        self.source_gate_count = source_gate_count
        self.rotation_steps = sum(1 for op in ops if op.kind == "rot")
        self._ops = ops
        self.num_ops = len(ops)
        obs.mem_track(self, "plan_data", self.data_bytes())

        if obs.enabled():
            obs.inc("repro_plan_compile_total", help="Circuit-plan compilations")
            for name, value, text in (
                ("ops", self.num_ops, "Kernel ops emitted by circuit-plan compilation"),
                ("frame_gates_absorbed", self.frame_gates_absorbed,
                 "Clifford gates cancelled inside the compile-time Pauli frame"),
                ("rotation_steps", self.rotation_steps,
                 "Rotation steps emitted by circuit-plan compilation"),
                ("rotations_merged", self.rotations_merged,
                 "Rotations merged into an earlier rotation step"),
                ("fused_gates_removed", self.fused_gates_removed,
                 "Gates removed by compile-time static-segment fusion"),
                ("diag_gates_folded", self.diag_gates_folded,
                 "Gates absorbed by compile-time diagonal folding"),
            ):
                obs.inc(f"repro_plan_{name}_total", value, help=text)

    # -- inspection ----------------------------------------------------------

    @property
    def ops(self) -> List[PlanOp]:
        return self._ops

    @property
    def full_register(self) -> bool:
        """Whether the plan's state holds all 2^n amplitudes (else only
        the basis states of :attr:`index`)."""
        return self.dim == 1 << self.num_qubits

    def embed(self, block: np.ndarray) -> np.ndarray:
        """The full-register form of a ``(…, dim)`` block of plan states:
        ``block`` itself on the full register, else a fresh array, zero
        outside :attr:`index`."""
        if self.full_register:
            return block
        out = np.zeros(block.shape[:-1] + (1 << self.num_qubits,), dtype=block.dtype)
        out[..., self.index] = block
        return out

    def require_full_register(self, register_dim: int) -> None:
        """Raise ``ValueError`` unless the plan holds the full register:
        an executor with ``register_dim`` amplitudes per state calls
        this before running it."""
        if not self.full_register:
            raise ValueError(
                f"plan holds the {self.dim}-amplitude symmetry sector of its "
                f"{self.num_qubits}-qubit register; this executor holds all "
                f"{register_dim} amplitudes (run it with ExecutionPlan.execute "
                "or reverse_value_and_gradient)"
            )

    @property
    def num_parametric_ops(self) -> int:
        return sum(1 for op in self._ops if op.is_parametric)

    def is_stale(self) -> bool:
        """True once the source circuit was mutated after compilation."""
        gates = self.source.gates
        return len(gates) != len(self._source_gates) or any(
            a is not b for a, b in zip(gates, self._source_gates)
        )

    def data_bytes(self) -> int:
        """Bytes frozen into the plan's prepacked kernel data (dense
        matrices, folded diagonals, rotation-step tables)."""
        total = 0
        for op in self._ops:
            data = op.data
            if isinstance(data, (np.ndarray, kernels.MaskRotation)):
                total += data.nbytes
            elif isinstance(data, (tuple, list)):
                for item in data:
                    if isinstance(item, np.ndarray):
                        total += item.nbytes
        return total

    def stats(self) -> Dict[str, object]:
        """Compile/execute statistics (the ``--plan-stats`` payload).

        ``frame_gates_absorbed`` counts Clifford gates cancelled inside
        the frame, ``rotations_merged`` rotations folded into an earlier
        step; ``fused_gates_removed`` is still what <= 2-qubit fusion
        removed, now from the residue only (about 0 on UCCSD, where the
        frame leaves nothing to fuse)."""
        return {
            "source_gates": self.source_gate_count,
            "ops": self.num_ops,
            "parametric_ops": self.num_parametric_ops,
            "frame_gates_absorbed": self.frame_gates_absorbed,
            "rotation_steps": self.rotation_steps,
            "rotations_merged": self.rotations_merged,
            "fused_gates_removed": self.fused_gates_removed,
            "diag_gates_folded": self.diag_gates_folded,
        }

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(qubits={self.num_qubits}, dim={self.dim}, "
            f"ops={self.num_ops}/{self.source_gate_count} gates, "
            f"params={self.num_parameters})"
        )

    # -- execution -----------------------------------------------------------

    def _check_params(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        if params.ndim == 0:
            params = params.reshape(1)
        if params.shape != (self.num_parameters,):
            raise ValueError(
                f"plan expects {self.num_parameters} parameter(s) "
                f"{self.parameters}, got shape {params.shape}"
            )
        return params

    def execute(self, state: np.ndarray, params: Sequence[float] = ()) -> np.ndarray:
        """Run the plan in place on ``state`` and return it: the buffer
        is set to the plan's start state (|0...0> on the full register,
        the reference on a sector) and every op is applied to it."""
        params = self._check_params(params)
        if state.shape != (self.dim,):
            raise ValueError(
                f"state dimension mismatch: expected shape ({self.dim},), got {state.shape}"
            )
        state.fill(0)
        state[self.origin] = 1.0
        n, apply_op = self.num_qubits, kernels.apply_op
        for op in self._ops:
            kind, payload = op.resolve(params)
            apply_op(state, kind, payload, op.qubits, n)
        return state


def compile_circuit(circuit: Circuit, fold_full_diag: bool = True) -> ExecutionPlan:
    """The memoizing entry point: compile ``circuit`` to an
    :class:`ExecutionPlan`, reusing the plan cached on the circuit when
    the gate list is unchanged (mutation via ``append``/``add``/
    ``compose`` invalidates it — a stale plan is never returned).
    """
    cached = getattr(circuit, "_plan", None)
    hit = (
        cached is not None
        and cached[0] == fold_full_diag
        and not cached[1].is_stale()
    )
    if obs.enabled():
        obs.inc(
            "repro_plan_cache_total",
            help="Plan cache lookups by outcome",
            labels={"outcome": "hit" if hit else "miss"},
        )
    if hit:
        return cached[1]
    plan = ExecutionPlan(circuit, fold_full_diag=fold_full_diag)
    circuit._plan = (fold_full_diag, plan)
    return plan
