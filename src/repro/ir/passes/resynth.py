"""Single-qubit run resynthesis: collapse any run of 1q gates to one u3.

A maximal run of single-qubit gates on the same qubit implements some
SU(2) element; we multiply the matrices and re-express the product as a
single ``u3`` (ZYZ Euler decomposition), discarding global phase.  This
is the 1-qubit specialization of gate fusion that remains expressible
in the portable gate set (unlike the simulator's opaque fused
unitaries).
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.passes.base import Pass

__all__ = ["ResynthesizeSingleQubitRuns", "zyz_angles"]


def zyz_angles(u: np.ndarray) -> "tuple[float, float, float]":
    """ZYZ Euler angles (theta, phi, lam) with u ~ e^{i alpha} u3(theta, phi, lam)."""
    # Strip global phase: make det = 1, then fix remaining sign freedom.
    det = np.linalg.det(u)
    su = u / cmath.sqrt(det)
    # su = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    c = abs(su[0, 0])
    c = min(1.0, max(0.0, c))
    theta = 2.0 * math.acos(c)
    if abs(su[0, 0]) > 1e-12 and abs(su[1, 0]) > 1e-12:
        plus = 2.0 * cmath.phase(su[1, 1])
        minus = 2.0 * cmath.phase(su[1, 0])
        phi = (plus + minus) / 2.0
        lam = (plus - minus) / 2.0
    elif abs(su[0, 0]) > 1e-12:  # theta ~ 0: only phi+lam matters
        phi = 2.0 * cmath.phase(su[1, 1])
        lam = 0.0
    else:  # theta ~ pi: only phi-lam matters
        phi = 2.0 * cmath.phase(su[1, 0])
        lam = 0.0
    return theta, phi, lam


class ResynthesizeSingleQubitRuns(Pass):
    """Collapse maximal single-qubit gate runs into one ``u3`` each."""

    def __init__(self, min_run: int = 2):
        self.min_run = min_run

    def run(self, circuit: Circuit) -> Circuit:
        # Pending run per qubit: list of gates
        pending: Dict[int, List[Gate]] = {}
        out: List[Gate] = []

        def flush(q: int) -> None:
            run = pending.pop(q, [])
            if not run:
                return
            if len(run) < self.min_run:
                out.extend(run)
                return
            u = np.eye(2, dtype=np.complex128)
            for g in run:
                u = g.to_matrix() @ u
            theta, phi, lam = zyz_angles(u)
            if (
                math.isclose(theta, 0.0, abs_tol=1e-12)
                and math.isclose((phi + lam) % (2 * math.pi), 0.0, abs_tol=1e-12)
            ):
                return  # identity run, drop it
            out.append(Gate("u3", (q,), (theta, phi, lam)))

        for g in circuit.gates:
            if g.num_qubits == 1 and not g.is_parameterized and g.matrix is None:
                pending.setdefault(g.qubits[0], []).append(g)
                continue
            for q in g.qubits:
                flush(q)
            if g.num_qubits == 1:
                # parameterized or opaque 1q gate: barrier for that qubit
                out.append(g)
            else:
                out.append(g)
        for q in list(pending):
            flush(q)
        return Circuit(circuit.num_qubits, out)
