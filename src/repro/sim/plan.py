"""Compiled circuit execution: bind-free plans with prefix-state reuse.

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

On top of the flat op list, plans support cross-evaluation
**prefix-state reuse**: consecutive ``execute`` calls record the last
parameter vector, and intermediate states are parked at parametric-op
boundaries (at most ``PREFIX_BUDGET`` of them, budgeted through
:class:`repro.core.cache.PostAnsatzCache` device/host accounting).
When only a suffix of the parameters changes — exactly the access
pattern of parameter-shift gradients (2P shifted evaluations differing
in one parameter) and ADAPT warm starts — the plan resumes from the
longest parked prefix instead of replaying the whole circuit.

Consumers: ``StatevectorSimulator.run_plan``, the estimators'
``estimate_plan``, ``CachedEnergyEvaluator``, the parameter-shift
gradients, ``BatchedStatevectorSimulator.run_plan``, and the
slice-aware ``DistributedStatevector.run_plan``.
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
from repro.ir.pauli import PauliString
from repro.sim import kernels
from repro.sim.fusion import fuse_circuit
from repro.utils.bitops import I_POW, popcount

__all__ = [
    "ExecutionPlan",
    "PlanOp",
    "compile_circuit",
    "unbound_parameter_message",
]

# Widest register for which a run of wide-support diagonal gates is
# folded into one dense 2^n diagonal (16 MiB of complex128 at 20).
FULL_DIAG_FOLD_MAX_QUBITS = 20

# Prefix-state reuse: how many intermediate states one plan may park,
# and the device-tier byte budget of the cache that holds them.
PREFIX_BUDGET = 8
PREFIX_DEVICE_BYTES = 1 << 30

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
      static ops), used by prefix-reuse bookkeeping;
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
    """A rotation step under construction: Pauli terms sharing the
    x-mask ``x`` and the parameter slot ``slot`` (``None``: constant)."""

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

    def to_op(self, n: int) -> PlanOp:
        # (X^x Z^z psi)[i] = (-1)^{|(i ^ x) & z|} psi[i ^ x]
        step = kernels.MaskRotation.from_terms(
            self.x,
            [(z, -c if popcount(self.x & z) & 1 else c) for z, c in self.terms],
            n,
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
    """A circuit compiled to a flat list of prepacked kernel ops.

    Plans are immutable snapshots of their source circuit (like
    :class:`repro.ir.compiled.CompiledPauliSum` for observables); use
    :func:`compile_circuit` for the memoized, auto-invalidating entry
    point.  ``execute(state, params)`` is a tight loop over the op
    ops through :func:`repro.sim.kernels.apply_op` — zero ``Gate``
    construction, zero ``bind`` copies per call.

    ``fold_full_diag=False`` keeps runs of wide-support diagonal gates
    unfolded instead of one 2^n diagonal; every executor takes either
    form (the argument survives for one caller, see ROADMAP item 1).
    """

    def __init__(self, circuit: Circuit, fold_full_diag: bool = True):
        self.source = circuit
        self._source_gates = tuple(circuit.gates)
        self.num_qubits = circuit.num_qubits
        self.dim = 1 << circuit.num_qubits
        self.parameters: List[str] = circuit.parameters
        self.num_parameters = len(self.parameters)
        self.source_gate_count = len(circuit.gates)
        index_of = {name: k for k, name in enumerate(self.parameters)}

        (lowered, self.fused_gates_removed, self.frame_gates_absorbed,
         self.rotations_merged) = _lower(circuit, index_of)
        self.rotation_steps = sum(1 for op in lowered if op.kind == "rot")

        self.diag_gates_folded = 0
        ops: List[PlanOp] = []
        for diagonal, run in groupby(
            lowered, key=lambda op: op.kind in ("diag1", "diag2", "diag_full")
        ):
            run = list(run)
            if diagonal:
                run, saved = _fold_diag_run(run, self.num_qubits, fold_full_diag)
                self.diag_gates_folded += saved
            ops.extend(run)

        self._ops = ops
        self.num_ops = len(ops)
        obs.mem_track(self, "plan_data", self.data_bytes())

        # -- prefix-reuse bookkeeping ---------------------------------------
        # first op index touching each parameter
        self.first_use: List[int] = [self.num_ops] * self.num_parameters
        for i, op in enumerate(ops):
            for k in op.param_deps:
                if i < self.first_use[k]:
                    self.first_use[k] = i
        # park boundaries: entries of parametric ops, plus the end
        boundaries = sorted({i for i, op in enumerate(ops) if op.param_deps})
        boundaries.append(self.num_ops)
        self._boundaries = boundaries
        # parameters whose value the state at each boundary depends on
        deps_before: Dict[int, Tuple[int, ...]] = {}
        seen: set = set()
        bi = 0
        for i in range(self.num_ops + 1):
            while bi < len(boundaries) and boundaries[bi] == i:
                deps_before[i] = tuple(sorted(seen))
                bi += 1
            if i < self.num_ops:
                seen |= ops[i].param_deps
        self._deps_before = deps_before

        self.clear_prefix_cache()
        self.prefix_resumes = 0
        self.prefix_ops_skipped = 0

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
    def num_parametric_ops(self) -> int:
        return sum(1 for op in self._ops if op.is_parametric)

    def is_stale(self) -> bool:
        """True once the source circuit was mutated after compilation."""
        gates = self.source.gates
        return len(gates) != len(self._source_gates) or any(
            a is not b for a, b in zip(gates, self._source_gates)
        )

    def param_op_index(self, k: int) -> int:
        """First op index that depends on parameter ``k``."""
        return self.first_use[k]

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
        cache = self._prefix_cache
        return {
            "source_gates": self.source_gate_count,
            "ops": self.num_ops,
            "parametric_ops": self.num_parametric_ops,
            "frame_gates_absorbed": self.frame_gates_absorbed,
            "rotation_steps": self.rotation_steps,
            "rotations_merged": self.rotations_merged,
            "fused_gates_removed": self.fused_gates_removed,
            "diag_gates_folded": self.diag_gates_folded,
            "prefix_resumes": self.prefix_resumes,
            "prefix_ops_skipped": self.prefix_ops_skipped,
            "prefix_cache_hits": cache.hits,
            "prefix_cache_misses": cache.misses,
            "prefix_cache_entries": len(cache),
        }

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan(qubits={self.num_qubits}, "
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

    def _prefix_key(self, pos: int, params: np.ndarray) -> np.ndarray:
        deps = self._deps_before[pos]
        key = np.empty(1 + len(deps))
        key[0] = float(pos)
        for j, k in enumerate(deps):
            key[1 + j] = params[k]
        return key

    def _find_resume(self, params: np.ndarray):
        cache = self._prefix_cache
        # only positions with a state parked right now can hit
        for pos in sorted({int(key[0]) for key in cache.keys()}, reverse=True):
            snap = cache.get(self._prefix_key(pos, params))
            if snap is not None:
                return pos, snap
        return None

    def _park_targets(self, params: np.ndarray) -> Tuple[int, ...]:
        targets = {self.num_ops}
        last = self._last_params
        if last is not None and last.shape == params.shape:
            changed = np.nonzero(params != last)[0]
            if changed.size:
                first_op = min(self.first_use[int(c)] for c in changed)
                # largest boundary <= the earliest affected op
                best = 0
                for b in self._boundaries:
                    if b <= first_op:
                        best = b
                    else:
                        break
                if best > 0:
                    targets.add(best)
        return tuple(sorted(targets))

    def execute(
        self,
        state: np.ndarray,
        params: Sequence[float] = (),
        reset: bool = True,
    ) -> np.ndarray:
        """Run the plan in place on ``state`` and return it.

        With ``reset=True`` (the default) the buffer is initialized to
        |0...0> — or, when prefix reuse finds a parked intermediate
        state consistent with ``params``, to that state, skipping its
        prefix of ops.  With ``reset=False`` the plan is applied to the
        caller's current state and prefix reuse is bypassed (the
        provenance of the state is unknown).
        """
        params = self._check_params(params)
        if state.shape != (self.dim,):
            raise ValueError(
                f"state dimension mismatch: expected shape ({self.dim},), got {state.shape}"
            )
        start = 0
        if not reset:
            self._run(state, params, 0, self.num_ops)
        else:
            resume = self._find_resume(params)
            if resume is not None:
                start, snap = resume
                state[:] = snap
                self.prefix_resumes += 1
                self.prefix_ops_skipped += start
            else:
                state.fill(0)
                state[0] = 1.0
            i = start
            for pos in self._park_targets(params):  # ends at num_ops
                if pos < i:
                    continue
                self._run(state, params, i, pos)
                i = pos
                if pos < self.num_ops or i > start:
                    self._prefix_cache.put(self._prefix_key(pos, params), state.copy())
            self._last_params = params.copy()
        if obs.enabled():
            obs.inc(
                "repro_plan_executions_total", help="Compiled-plan executions"
            )
            obs.inc(
                "repro_plan_ops_executed_total",
                self.num_ops - start,
                help="Kernel ops executed by compiled plans",
            )
            if start:
                obs.inc(
                    "repro_plan_prefix_resumes_total",
                    help="Plan executions resumed from a parked prefix state",
                )
                obs.inc(
                    "repro_plan_prefix_ops_skipped_total",
                    start,
                    help="Kernel ops skipped via prefix-state reuse",
                    labels={"engine": "circuit"},
                )
        return state

    def execute_slice(
        self,
        state: np.ndarray,
        params: Sequence[float],
        start: int,
        stop: Optional[int] = None,
    ) -> np.ndarray:
        """Run ops ``[start, stop)`` on the caller's state — the
        explicit-prefix form the parameter-shift gradient drives."""
        params = self._check_params(params)
        stop = self.num_ops if stop is None else stop
        if not (0 <= start <= stop <= self.num_ops):
            raise ValueError(f"invalid op range [{start}, {stop})")
        self._run(state, params, start, stop)
        return state

    def _run(self, state: np.ndarray, params: np.ndarray, start: int, stop: int) -> None:
        n, apply_op = self.num_qubits, kernels.apply_op
        for op in self._ops[start:stop]:
            kind, payload = op.resolve(params)
            apply_op(state, kind, payload, op.qubits, n)

    def clear_prefix_cache(self) -> None:
        """Drop parked prefix states (frees memory; never affects
        correctness — only future reuse opportunities)."""
        from repro.core.cache import PostAnsatzCache  # lazy: avoids cycle

        self._prefix_cache = PostAnsatzCache(
            device_capacity_bytes=PREFIX_DEVICE_BYTES,
            max_entries=PREFIX_BUDGET,
            mem_category="prefix_cache",
        )
        self._last_params: Optional[np.ndarray] = None


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
