"""Compiled circuit execution: bind-free plans with prefix-state reuse.

``compile_circuit`` lowers a (possibly parameterized) circuit once to a
flat list of prepacked kernel ops, so that the thousands of energy and
gradient evaluations of an optimization re-walk no ``Gate`` objects,
re-bind no parameters and dispatch on no gate names.  Lowering is two
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
  parametric ``p/cp/crz/u3`` gates keep an affine parameter slot
  ``(index, coeff, offset)`` and a matrix/diagonal builder; static
  non-Clifford gates (``t``, opaque unitaries, >= 3-qubit gates) join
  the pending gates and make them opaque to rotations.  Pending gates
  are flushed through the paper's <= 2-qubit fusion (§4.3), and
  adjacent static diagonal ops fold into a single pass.  The emitted
  tail is the literal gate list, so plans are phase-exact.

On top of the flat op list, plans support cross-evaluation
**prefix-state reuse**: consecutive ``execute`` calls record the last
parameter vector, and intermediate states are parked at parametric-op
boundaries (budgeted through :class:`repro.core.cache.PostAnsatzCache`
device/host accounting).  When only a suffix of the parameters changes
— exactly the access pattern of parameter-shift gradients (2P shifted
evaluations differing in one parameter) and ADAPT warm starts — the
plan resumes from the longest parked prefix instead of replaying the
whole circuit.

Consumers: ``StatevectorSimulator.run_plan``, the estimators'
``estimate_plan``, ``CachedEnergyEvaluator``, the parameter-shift
gradients, ``BatchedStatevectorSimulator.run_plan``, and the
slice-aware ``DistributedStatevector.run_plan``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ir.circuit import Circuit
from repro.ir.clifford import conjugate_pauli
from repro.ir.gates import GATE_SET, Gate, Parameter
from repro.ir.pauli import PauliString
from repro.sim import kernels
from repro.sim.fusion import fuse_circuit
from repro.utils.bitops import I_POW, indices_1q, indices_2q, popcount

__all__ = [
    "ExecutionPlan",
    "PlanOp",
    "compile_circuit",
    "unbound_parameter_message",
]

# Widest register for which a run of wide-support diagonal gates is
# folded into one dense 2^n diagonal (16 MiB of complex128 at 20).
FULL_DIAG_FOLD_MAX_QUBITS = 20

_DIAG_1Q_STATIC: Dict[str, Tuple[complex, complex]] = {
    "i": (1.0 + 0j, 1.0 + 0j),
    "z": (1.0 + 0j, -1.0 + 0j),
    "s": (1.0 + 0j, 1j),
    "sdg": (1.0 + 0j, -1j),
    "t": (1.0 + 0j, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))),
    "tdg": (1.0 + 0j, complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))),
}

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
    """One prepacked kernel op of an :class:`ExecutionPlan`.

    ``run(state, params)`` performs the in-place kernel arithmetic.
    The metadata fields let alternative executors (batched, distributed
    slices) re-dispatch the op without touching ``Gate`` objects:

    * ``kind`` — ``rot`` for a rotation step (parametric when it has a
      parameter slot, static for a constant angle); ``x``/``cx``/
      ``diag1``/``diag2``/``diag_full``/``dense1``/``dense2``/``densek``
      for the static residue; ``pdiag1``/``pdiag2``/``pdense1``/
      ``pdense2``/``pdensek`` for parametric barrier gates;
    * ``data`` — the :class:`repro.sim.kernels.MaskRotation` of a
      rotation step, the frozen diagonal/matrix payload of a static op;
    * ``gate_name``/``param_refs`` — builder identity and the affine
      parameter slots ``(index, coeff, offset)`` for parametric ops (a
      rotation step's slot has coefficient 1 and offset 0: its
      coefficients live in the step's weights);
    * ``param_deps`` — parameter indices this op depends on (empty for
      static ops), used by prefix-reuse bookkeeping;
    * ``source_gates`` — how many source gates this op absorbs.
    """

    __slots__ = (
        "run",
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
        run: Callable[[np.ndarray, np.ndarray], None],
        kind: str,
        qubits: Tuple[int, ...],
        data=None,
        gate_name: str = "",
        param_refs: Tuple = (),
        param_deps: frozenset = frozenset(),
        source_gates: int = 1,
    ):
        self.run = run
        self.kind = kind
        self.qubits = qubits
        self.data = data
        self.gate_name = gate_name
        self.param_refs = param_refs
        self.param_deps = param_deps
        self.source_gates = source_gates

    @property
    def is_parametric(self) -> bool:
        return bool(self.param_deps)

    def angles(self, params: np.ndarray) -> Tuple[float, ...]:
        """Resolve this op's gate angles from the flat parameter vector."""
        return tuple(
            ref[1] if ref[0] == "c" else ref[1] * params[ref[2]] + ref[3]
            for ref in self.param_refs
        )

    def theta(self, params: np.ndarray) -> "float | np.ndarray":
        """The angle of a rotation step, for one flat parameter vector
        (a scalar) or a (B, P) block of them (shape (B,))."""
        if not self.param_refs:
            return 1.0 if params.ndim == 1 else np.ones(params.shape[0])
        return params[..., self.param_refs[0][2]]

    def resolve(self, params: np.ndarray):
        """(kind, payload) of a non-rotation op with parameters
        substituted — the form the distributed executor dispatches on.
        ``kind`` is one of ``x``/``cx``/``diag1``/``diag2``/
        ``diag_full``/``dense``."""
        if not self.is_parametric:
            if self.kind in ("x", "cx", "diag1", "diag2", "diag_full"):
                return self.kind, self.data
            return "dense", self.data
        angles = self.angles(params)
        name = self.gate_name
        if name == "p":
            return "diag1", (1.0 + 0j, complex(math.cos(angles[0]), math.sin(angles[0])))
        if name == "cp":
            return "diag2", (1.0 + 0j, 1.0 + 0j, 1.0 + 0j,
                             complex(math.cos(angles[0]), math.sin(angles[0])))
        if name == "crz":
            e = complex(math.cos(angles[0] / 2), -math.sin(angles[0] / 2))
            return "diag2", (1.0 + 0j, e, 1.0 + 0j, e.conjugate())
        return "dense", GATE_SET[name][2](*angles)

    def __repr__(self) -> str:
        return f"PlanOp({self.kind}, q={list(self.qubits)}, src={self.source_gates})"


# ---------------------------------------------------------------------------
# Op construction helpers (closures capture index tables at compile time)
# ---------------------------------------------------------------------------


def _static_op(gate: Gate, n: int) -> PlanOp:
    """Prepack one parameter-free gate into a kernel closure."""
    name = gate.name
    qs = gate.qubits
    if gate.matrix is None:
        if name == "x":
            i0, i1 = indices_1q(n, qs[0])

            def run(state, params, i0=i0, i1=i1):
                tmp = state[i0].copy()
                state[i0] = state[i1]
                state[i1] = tmp

            return PlanOp(run, "x", qs)
        if name == "cx":
            _, ic, _, ict = indices_2q(n, qs[0], qs[1])

            def run(state, params, ic=ic, ict=ict):
                tmp = state[ic].copy()
                state[ic] = state[ict]
                state[ict] = tmp

            return PlanOp(run, "cx", qs)
        if name in _DIAG_1Q_STATIC:
            return _diag1_op(_DIAG_1Q_STATIC[name], qs, n)
        if name == "p":
            theta = float(gate.params[0])
            return _diag1_op((1.0, complex(math.cos(theta), math.sin(theta))), qs, n)
        if name == "cz":
            return _diag2_op((1, 1, 1, -1), qs, n)
        if name in ("cp", "crz"):
            theta = float(gate.params[0])
            if name == "cp":
                diag = (1, 1, 1, complex(math.cos(theta), math.sin(theta)))
            else:
                e = complex(math.cos(theta / 2), -math.sin(theta / 2))
                diag = (1, e, 1, e.conjugate())
            return _diag2_op(diag, qs, n)
    # Copy before freezing: to_matrix() may hand back the gate's own
    # (shared) matrix object for opaque/fused gates.
    m = np.array(gate.to_matrix(), dtype=np.complex128)
    m.flags.writeable = False
    return _dense_op(m, qs, n)


def _diag1_op(diag: Tuple[complex, complex], qs: Tuple[int, ...], n: int,
              source_gates: int = 1) -> PlanOp:
    i0, i1 = indices_1q(n, qs[0])
    d0, d1 = complex(diag[0]), complex(diag[1])

    def run(state, params, i0=i0, i1=i1, d0=d0, d1=d1):
        if d0 != 1.0:
            state[i0] *= d0
        if d1 != 1.0:
            state[i1] *= d1

    return PlanOp(run, "diag1", qs, data=(d0, d1), source_gates=source_gates)


def _diag2_op(diag: Sequence[complex], qs: Tuple[int, ...], n: int,
              source_gates: int = 1) -> PlanOp:
    tables = indices_2q(n, qs[0], qs[1])
    diag = tuple(complex(d) for d in diag)

    def run(state, params, tables=tables, diag=diag):
        for sub in range(4):
            d = diag[sub]
            if d != 1.0:
                state[tables[sub]] *= d

    return PlanOp(run, "diag2", qs, data=diag, source_gates=source_gates)


def _diag_full_op(diag: np.ndarray, qs: Tuple[int, ...],
                  source_gates: int) -> PlanOp:
    diag = np.ascontiguousarray(diag)
    diag.flags.writeable = False

    def run(state, params, diag=diag):
        state *= diag

    return PlanOp(run, "diag_full", qs, data=diag, source_gates=source_gates)


def _dense_op(m: np.ndarray, qs: Tuple[int, ...], n: int,
              source_gates: int = 1) -> PlanOp:
    if len(qs) == 1:
        i0, i1 = indices_1q(n, qs[0])
        m00, m01, m10, m11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]

        def run(state, params, i0=i0, i1=i1,
                m00=m00, m01=m01, m10=m10, m11=m11):
            a0 = state[i0]
            a1 = state[i1]
            state[i0] = m00 * a0 + m01 * a1
            state[i1] = m10 * a0 + m11 * a1

        return PlanOp(run, "dense1", qs, data=m, source_gates=source_gates)
    if len(qs) == 2:
        tables = indices_2q(n, qs[0], qs[1])

        def run(state, params, tables=tables, m=m):
            a = [state[t] for t in tables]
            for row in range(4):
                state[tables[row]] = (
                    m[row, 0] * a[0] + m[row, 1] * a[1]
                    + m[row, 2] * a[2] + m[row, 3] * a[3]
                )

        return PlanOp(run, "dense2", qs, data=m, source_gates=source_gates)

    def run(state, params, m=m, qs=qs, n=n):
        kernels.apply_kq_dense(state, m, qs, n)

    return PlanOp(run, "densek", qs, data=m, source_gates=source_gates)


def _param_refs(gate: Gate, index_of: Dict[str, int]) -> Tuple:
    refs = []
    for p in gate.params:
        if isinstance(p, Parameter):
            refs.append(("p", p.coeff, index_of[p.name], p.offset))
        else:
            refs.append(("c", float(p)))
    return tuple(refs)


def _parametric_op(gate: Gate, n: int, index_of: Dict[str, int]) -> PlanOp:
    """Prepack a parametric barrier gate (anything but a rotation): an
    affine parameter slot plus a closed-form matrix/diagonal builder."""
    name = gate.name
    qs = gate.qubits
    refs = _param_refs(gate, index_of)
    deps = frozenset(r[2] for r in refs if r[0] == "p")
    # Fast path: the controlled/uncontrolled phase gates.
    if name in ("p", "cp", "crz"):
        _, coeff, idx, offset = refs[0]
        if name == "p":
            _, i1 = indices_1q(n, qs[0])

            def run(state, params, i1=i1, c=coeff, k=idx, o=offset):
                th = c * params[k] + o
                state[i1] *= complex(math.cos(th), math.sin(th))

            return PlanOp(run, "pdiag1", qs, gate_name=name,
                          param_refs=refs, param_deps=deps)
        tables = indices_2q(n, qs[0], qs[1])

        def run(state, params, tables=tables, c=coeff, k=idx, o=offset,
                name=name):
            th = c * params[k] + o
            if name == "cp":
                state[tables[3]] *= complex(math.cos(th), math.sin(th))
            else:  # crz
                e = complex(math.cos(th / 2), -math.sin(th / 2))
                state[tables[1]] *= e
                state[tables[3]] *= e.conjugate()

        return PlanOp(run, "pdiag2", qs, gate_name=name,
                      param_refs=refs, param_deps=deps)
    # Generic fallback: registry factory with resolved angles (u3).
    factory = GATE_SET[name][2]
    nq = len(qs)

    def run(state, params, refs=refs, factory=factory, qs=qs, n=n, nq=nq):
        angles = [
            r[1] if r[0] == "c" else r[1] * params[r[2]] + r[3] for r in refs
        ]
        m = factory(*angles)
        if nq == 1:
            kernels.apply_1q(state, m, qs[0], n)
        elif nq == 2:
            kernels.apply_2q(state, m, qs[0], qs[1], n)
        else:
            kernels.apply_kq_dense(state, m, qs, n)

    kind = "pdense1" if nq == 1 else ("pdense2" if nq == 2 else "pdensek")
    return PlanOp(run, kind, qs, gate_name=name,
                  param_refs=refs, param_deps=deps)


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
        slot = self.slot
        refs = () if slot is None else (("p", 1.0, slot, 0.0),)

        def run(state, params, step=step, slot=slot):
            kernels.apply_rotation(state, 1.0 if slot is None else params[slot], step)

        support = self.x
        for z, _ in self.terms:
            support |= z
        return PlanOp(
            run, "rot", tuple(q for q in range(n) if (support >> q) & 1),
            data=step, gate_name="rot", param_refs=refs,
            param_deps=frozenset(r[2] for r in refs),
            source_gates=self.gates,
        )


def _lower(circuit: Circuit, index_of: Dict[str, int], fuse: bool):
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
        if fuse and gates:
            fr = fuse_circuit(Circuit(n, gates), max_qubits=2)
            gates = fr.circuit.gates
            fused_removed += fr.original_gates - fr.fused_gates
        ops.extend(_static_op(g, n) for g in gates)
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
                ops.append(_parametric_op(g, n, index_of))
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


def _is_static_diag(op: PlanOp) -> bool:
    if op.kind in ("diag1", "diag2", "diag_full"):
        return True
    if op.kind in ("dense1", "dense2") and op.data is not None:
        m = op.data
        return bool(np.count_nonzero(m - np.diag(np.diagonal(m))) == 0)
    return False


def _op_full_diag(op: PlanOp, n: int) -> np.ndarray:
    """The 2^n diagonal of a static diagonal op."""
    d = np.ones(1 << n, dtype=np.complex128)
    if op.kind == "diag_full":
        return op.data.copy()
    if op.kind == "diag1" or (op.kind == "dense1"):
        vals = op.data if op.kind == "diag1" else np.diagonal(op.data)
        i0, i1 = indices_1q(n, op.qubits[0])
        d[i0] = vals[0]
        d[i1] = vals[1]
        return d
    vals = op.data if op.kind == "diag2" else np.diagonal(op.data)
    tables = indices_2q(n, op.qubits[0], op.qubits[1])
    for sub in range(4):
        d[tables[sub]] = vals[sub]
    return d


def _fold_diag_run(run: List[PlanOp], n: int, fold_full: bool
                   ) -> Tuple[List[PlanOp], int]:
    """Collapse a run of adjacent static diagonal ops into one pass.

    Returns (replacement ops, gates folded away).  Diagonal matrices
    commute, so any in-stream-adjacent combination is legal.
    """
    if len(run) < 2:
        return run, 0
    support = sorted({q for op in run for q in op.qubits})
    src = sum(op.source_gates for op in run)
    if len(support) == 1:
        d0, d1 = 1.0 + 0j, 1.0 + 0j
        for op in run:
            vals = op.data if op.kind == "diag1" else np.diagonal(op.data)
            d0 *= vals[0]
            d1 *= vals[1]
        return [_diag1_op((d0, d1), (support[0],), n, source_gates=src)], len(run) - 1
    if len(support) == 2:
        q0, q1 = support
        diag = np.ones(4, dtype=np.complex128)
        for op in run:
            vals = op.data if op.kind in ("diag1", "diag2") else np.diagonal(op.data)
            if len(op.qubits) == 1:
                slot = 0 if op.qubits[0] == q0 else 1
                for sub in range(4):
                    diag[sub] *= vals[(sub >> slot) & 1]
            else:
                # (q0', q1') may be the support pair in either order.
                swapped = op.qubits[0] != q0
                for sub in range(4):
                    s = ((sub & 1) << 1 | (sub >> 1)) if swapped else sub
                    diag[sub] *= vals[s]
        return [_diag2_op(tuple(diag), (q0, q1), n, source_gates=src)], len(run) - 1
    if fold_full and n <= FULL_DIAG_FOLD_MAX_QUBITS:
        d = np.ones(1 << n, dtype=np.complex128)
        for op in run:
            d *= _op_full_diag(op, n)
        return [_diag_full_op(d, tuple(support), src)], len(run) - 1
    return run, 0


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


class ExecutionPlan:
    """A circuit compiled to a flat list of prepacked kernel ops.

    Plans are immutable snapshots of their source circuit (like
    :class:`repro.ir.compiled.CompiledPauliSum` for observables); use
    :func:`compile_circuit` for the memoized, auto-invalidating entry
    point.  ``execute(state, params)`` is a tight loop over the op
    closures — zero ``Gate`` construction, zero ``bind`` copies, zero
    name dispatch per call.
    """

    def __init__(
        self,
        circuit: Circuit,
        fuse: bool = True,
        fold_diagonals: bool = True,
        fold_full_diag: bool = True,
        prefix_budget: int = 8,
        prefix_device_bytes: int = 1 << 30,
        enable_prefix: bool = True,
    ):
        self.source = circuit
        self._source_gates = tuple(circuit.gates)
        self.num_qubits = circuit.num_qubits
        self.dim = 1 << circuit.num_qubits
        self.parameters: List[str] = circuit.parameters
        self.num_parameters = len(self.parameters)
        self.source_gate_count = len(circuit.gates)
        index_of = {name: k for k, name in enumerate(self.parameters)}

        n = self.num_qubits
        (ops, self.fused_gates_removed, self.frame_gates_absorbed,
         self.rotations_merged) = _lower(circuit, index_of, fuse)
        self.rotation_steps = sum(1 for op in ops if op.kind == "rot")

        self.diag_gates_folded = 0
        if fold_diagonals:
            folded: List[PlanOp] = []
            run: List[PlanOp] = []
            for op in ops:
                if not op.is_parametric and _is_static_diag(op):
                    run.append(op)
                    continue
                merged, saved = _fold_diag_run(run, n, fold_full_diag)
                folded.extend(merged)
                self.diag_gates_folded += saved
                run = []
                folded.append(op)
            merged, saved = _fold_diag_run(run, n, fold_full_diag)
            folded.extend(merged)
            self.diag_gates_folded += saved
            ops = folded

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

        self._prefix_cache = None
        if enable_prefix:
            from repro.core.cache import PostAnsatzCache  # lazy: avoids cycle

            self._prefix_cache = PostAnsatzCache(
                device_capacity_bytes=prefix_device_bytes,
                max_entries=prefix_budget,
                mem_category="prefix_cache",
            )
        self._last_params: Optional[np.ndarray] = None
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
            "prefix_cache_hits": cache.hits if cache else 0,
            "prefix_cache_misses": cache.misses if cache else 0,
            "prefix_cache_entries": len(cache) if cache else 0,
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
            raise ValueError("state dimension mismatch")
        start = 0
        if reset:
            resume = (
                self._find_resume(params)
                if self._prefix_cache is not None
                else None
            )
            if resume is not None:
                start, snap = resume
                state[:] = snap
                self.prefix_resumes += 1
                self.prefix_ops_skipped += start
            else:
                state.fill(0)
                state[0] = 1.0
        ops = self._ops
        if reset and self._prefix_cache is not None:
            cache = self._prefix_cache
            i = start
            for pos in self._park_targets(params):
                if pos < i:
                    continue
                for j in range(i, pos):
                    ops[j].run(state, params)
                i = pos
                if pos < self.num_ops or i > start:
                    cache.put(self._prefix_key(pos, params), state.copy())
            for j in range(i, self.num_ops):
                ops[j].run(state, params)
            self._last_params = params.copy()
        else:
            for j in range(start, self.num_ops):
                ops[j].run(state, params)
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
        ops = self._ops
        for j in range(start, stop):
            ops[j].run(state, params)
        return state

    def clear_prefix_cache(self) -> None:
        """Drop parked prefix states (frees memory; never affects
        correctness — only future reuse opportunities)."""
        if self._prefix_cache is not None:
            from repro.core.cache import PostAnsatzCache

            self._prefix_cache = PostAnsatzCache(
                device_capacity_bytes=self._prefix_cache.device_capacity_bytes,
                max_entries=self._prefix_cache.max_entries,
                mem_category="prefix_cache",
            )
        self._last_params = None


def compile_circuit(
    circuit: Circuit,
    fuse: bool = True,
    fold_diagonals: bool = True,
    fold_full_diag: bool = True,
    prefix_budget: int = 8,
    enable_prefix: bool = True,
) -> ExecutionPlan:
    """The memoizing entry point: compile ``circuit`` to an
    :class:`ExecutionPlan`, reusing the plan cached on the circuit when
    the gate list is unchanged (mutation via ``append``/``add``/
    ``compose`` invalidates it — a stale plan is never returned).
    """
    options = (fuse, fold_diagonals, fold_full_diag, prefix_budget, enable_prefix)
    cached = getattr(circuit, "_plan", None)
    if (
        cached is not None
        and cached[0] == options
        and not cached[1].is_stale()
    ):
        if obs.enabled():
            obs.inc(
                "repro_plan_cache_total",
                help="Plan cache lookups by outcome",
                labels={"outcome": "hit"},
            )
        return cached[1]
    if obs.enabled():
        obs.inc(
            "repro_plan_cache_total",
            help="Plan cache lookups by outcome",
            labels={"outcome": "miss"},
        )
    plan = ExecutionPlan(
        circuit,
        fuse=fuse,
        fold_diagonals=fold_diagonals,
        fold_full_diag=fold_full_diag,
        prefix_budget=prefix_budget,
        enable_prefix=enable_prefix,
    )
    circuit._plan = (options, plan)
    return plan
