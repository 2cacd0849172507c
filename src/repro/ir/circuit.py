"""Circuit intermediate representation.

``Circuit`` plays the role XACC's IR plays in the paper: the hardware-
agnostic program representation produced by ansatz generators and
consumed by compiler passes, the gate-fusion optimizer, and any of the
execution backends.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.ir.gates import Gate, Parameter, ParamValue

__all__ = ["Circuit"]


class Circuit:
    """An ordered list of gate instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        self.gates: List[Gate] = []
        if gates:
            for g in gates:
                self.append(g)

    # -- construction -------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
            raise ValueError(
                f"gate {gate} out of range for {self.num_qubits} qubits"
            )
        self.gates.append(gate)
        return self

    def add(self, name: str, qubits: Sequence[int], *params: ParamValue) -> "Circuit":
        """Append a registry gate by name. Chainable."""
        return self.append(Gate(name, tuple(qubits), tuple(params)))

    # Named helpers keep ansatz-builder code readable.
    def x(self, q: int) -> "Circuit":
        return self.add("x", [q])

    def y(self, q: int) -> "Circuit":
        return self.add("y", [q])

    def z(self, q: int) -> "Circuit":
        return self.add("z", [q])

    def h(self, q: int) -> "Circuit":
        return self.add("h", [q])

    def s(self, q: int) -> "Circuit":
        return self.add("s", [q])

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", [q])

    def t(self, q: int) -> "Circuit":
        return self.add("t", [q])

    def rx(self, theta: ParamValue, q: int) -> "Circuit":
        return self.add("rx", [q], theta)

    def ry(self, theta: ParamValue, q: int) -> "Circuit":
        return self.add("ry", [q], theta)

    def rz(self, theta: ParamValue, q: int) -> "Circuit":
        return self.add("rz", [q], theta)

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", [control, target])

    def cz(self, a: int, b: int) -> "Circuit":
        return self.add("cz", [a, b])

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", [a, b])

    def compose(self, other: "Circuit") -> "Circuit":
        """Append all gates of ``other`` (must fit this register)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError("composed circuit is wider than target")
        for g in other.gates:
            self.append(g)
        return self

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, list(self.gates))

    def inverse(self) -> "Circuit":
        """The adjoint circuit (reversed order, each gate inverted)."""
        inv = Circuit(self.num_qubits)
        for g in reversed(self.gates):
            inv.append(g.dagger())
        return inv

    # -- parameters ---------------------------------------------------------

    @property
    def parameters(self) -> List[str]:
        """Sorted unique symbolic parameter names, in first-use order."""
        seen: Dict[str, None] = {}
        for g in self.gates:
            for p in g.params:
                if isinstance(p, Parameter) and p.name not in seen:
                    seen[p.name] = None
        return list(seen)

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def bind(self, values: "Dict[str, float] | Sequence[float]") -> "Circuit":
        """Return a concrete circuit with parameters substituted.

        ``values`` may be a mapping name->value or a sequence ordered
        like :attr:`parameters`.
        """
        if not isinstance(values, dict):
            names = self.parameters
            if len(values) != len(names):
                raise ValueError(
                    f"expected {len(names)} parameter values, got {len(values)}"
                )
            values = dict(zip(names, values))
        missing = set(self.parameters) - set(values)
        if missing:
            raise ValueError(f"unbound parameters: {sorted(missing)}")
        return Circuit(self.num_qubits, [g.bound(values) for g in self.gates])

    # -- statistics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def gate_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for g in self.gates:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    def count_2q(self) -> int:
        """Number of two-qubit gates (entangling cost proxy)."""
        return sum(1 for g in self.gates if g.num_qubits == 2)

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        frontier = [0] * self.num_qubits
        for g in self.gates:
            level = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = level
        return max(frontier) if self.gates else 0

    # -- dense matrix (testing / small circuits only) ------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense unitary of the whole circuit. Exponential in qubits;
        intended for tests on small registers."""
        dim = 1 << self.num_qubits
        u = np.eye(dim, dtype=np.complex128)
        for g in self.gates:
            u = _embed(g, self.num_qubits) @ u
        return u

    def __repr__(self) -> str:
        return (
            f"Circuit(num_qubits={self.num_qubits}, gates={len(self.gates)}, "
            f"depth={self.depth()}, params={self.num_parameters})"
        )


def _embed(gate: Gate, num_qubits: int) -> np.ndarray:
    """Embed a 1- or 2-qubit gate matrix into the full register unitary."""
    m = gate.to_matrix()
    dim = 1 << num_qubits
    u = np.zeros((dim, dim), dtype=np.complex128)
    qs = gate.qubits
    k = len(qs)
    rest = [q for q in range(num_qubits) if q not in qs]
    for basis in range(dim):
        sub = 0
        for j, q in enumerate(qs):
            sub |= ((basis >> q) & 1) << j
        base = basis
        for q in qs:
            base &= ~(1 << q)
        for sub_out in range(1 << k):
            out = base
            for j, q in enumerate(qs):
                if (sub_out >> j) & 1:
                    out |= 1 << q
            u[out, basis] += m[sub_out, sub]
    return u
