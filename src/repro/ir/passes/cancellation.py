"""Local simplification passes: inverse cancellation and rotation merging.

Both passes use a per-qubit "frontier" scan so that only gates that are
truly adjacent on the *same qubits* (no interposing gate touching those
qubits) are combined — commutation through unrelated qubits is free.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate, Parameter
from repro.ir.passes.base import Pass

__all__ = ["CancelAdjacentInverses", "MergeRotations"]

_SELF_INVERSE = {"x", "y", "z", "h", "cx", "cz", "swap"}
_INVERSE_PAIRS = {("s", "sdg"), ("sdg", "s"), ("t", "tdg"), ("tdg", "t")}
_ROTATIONS = {"rx", "ry", "rz", "p", "rzz", "rxx", "ryy", "cp", "crz"}


def _cancels(a: Gate, b: Gate) -> bool:
    if a.qubits != b.qubits:
        return False
    if a.name in _SELF_INVERSE and a.name == b.name:
        return True
    return (a.name, b.name) in _INVERSE_PAIRS


class CancelAdjacentInverses(Pass):
    """Remove pairs of adjacent mutually-inverse gates.

    A gate and its inverse cancel when no other gate acts on any of
    their qubits in between.  Repeated application (via the
    PassManager's fixed point) handles nested cancellations such as
    ``H X X H``.
    """

    def run(self, circuit: Circuit) -> Circuit:
        out: List[Optional[Gate]] = []
        # last surviving gate index touching each qubit
        frontier: Dict[int, int] = {}
        for g in circuit.gates:
            prev_idx = None
            idxs = {frontier.get(q) for q in g.qubits}
            if len(idxs) == 1:
                (prev_idx,) = idxs
            if prev_idx is not None and out[prev_idx] is not None:
                prev = out[prev_idx]
                if _cancels(prev, g):
                    out[prev_idx] = None
                    # retreat frontier for these qubits: find previous gate
                    for q in g.qubits:
                        frontier.pop(q, None)
                    # rebuild frontiers lazily: scan backwards for each qubit
                    for q in g.qubits:
                        for i in range(len(out) - 1, -1, -1):
                            og = out[i]
                            if og is not None and q in og.qubits:
                                frontier[q] = i
                                break
                    continue
            out.append(g)
            for q in g.qubits:
                frontier[q] = len(out) - 1
        return Circuit(circuit.num_qubits, [g for g in out if g is not None])


def _merge_params(a, b):
    """Sum two rotation angles, symbolic-aware when same parameter."""
    if isinstance(a, Parameter) and isinstance(b, Parameter):
        if a.name != b.name:
            return None
        return Parameter(a.name, a.coeff + b.coeff, a.offset + b.offset)
    if isinstance(a, Parameter) or isinstance(b, Parameter):
        if isinstance(b, Parameter):
            a, b = b, a
        return a + float(b)
    return float(a) + float(b)


class MergeRotations(Pass):
    """Merge adjacent same-axis rotations: RZ(a) RZ(b) -> RZ(a+b).

    Rotations summing to an angle that is 0 mod 4*pi are dropped
    entirely (the gates are 4*pi-periodic as unitaries; 2*pi leaves a
    global phase of -1 which is also physically irrelevant, but we keep
    the conservative 4*pi criterion so circuit unitaries match exactly
    in tests).
    """

    def run(self, circuit: Circuit) -> Circuit:
        out: List[Optional[Gate]] = []
        frontier: Dict[int, int] = {}
        for g in circuit.gates:
            if g.name in _ROTATIONS:
                idxs = {frontier.get(q) for q in g.qubits}
                if len(idxs) == 1 and None not in idxs:
                    (prev_idx,) = idxs
                    prev = out[prev_idx]
                    if (
                        prev is not None
                        and prev.name == g.name
                        and prev.qubits == g.qubits
                    ):
                        merged = _merge_params(prev.params[0], g.params[0])
                        if merged is not None:
                            drop = (
                                not isinstance(merged, Parameter)
                                and math.isclose(
                                    math.remainder(float(merged), 4 * math.pi),
                                    0.0,
                                    abs_tol=1e-14,
                                )
                            )
                            if drop:
                                out[prev_idx] = None
                                for q in g.qubits:
                                    frontier.pop(q, None)
                                    for i in range(len(out) - 1, -1, -1):
                                        og = out[i]
                                        if og is not None and q in og.qubits:
                                            frontier[q] = i
                                            break
                            else:
                                out[prev_idx] = Gate(g.name, g.qubits, (merged,))
                            continue
            out.append(g)
            for q in g.qubits:
                frontier[q] = len(out) - 1
        return Circuit(circuit.num_qubits, [g for g in out if g is not None])
