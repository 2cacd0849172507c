"""SABRE-style SWAP routing for connectivity-constrained targets.

The paper's related-work section (§6.1) points at SABRE [Li et al.,
ASPLOS'19] as the qubit-mapping approach compatible with this stack.
Simulators need no routing (all-to-all connectivity), but the workflow
is hardware-agnostic: the same IR must compile to devices with limited
coupling.  This pass implements the SABRE look-ahead heuristic: keep a
front layer of unexecutable 2q gates, and greedily insert the SWAP that
most reduces the summed device distance of the front layer (plus a
discounted extended set).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.ir.passes.base import Pass

__all__ = ["SabreRouter", "linear_coupling", "grid_coupling"]


def linear_coupling(n: int) -> nx.Graph:
    """A 1D chain of n physical qubits."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, i + 1) for i in range(n - 1))
    return g


def grid_coupling(rows: int, cols: int) -> nx.Graph:
    """A rows x cols grid; nodes numbered row-major."""
    g = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_node(v)
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


class SabreRouter(Pass):
    """Route a circuit onto a coupling graph by inserting SWAPs.

    The output circuit acts on *physical* qubits.  ``final_layout``
    (available after :meth:`run`) maps logical -> physical so callers
    can undo the permutation when interpreting results.
    """

    def __init__(
        self,
        coupling: nx.Graph,
        extended_depth: int = 20,
        decay: float = 0.5,
        seed: int = 7,
    ):
        self.coupling = coupling
        self.extended_depth = extended_depth
        self.decay = decay
        self.seed = seed
        self.dist: Dict[int, Dict[int, int]] = dict(
            nx.all_pairs_shortest_path_length(coupling)
        )
        self.final_layout: Optional[Dict[int, int]] = None
        self.swap_count = 0

    def run(self, circuit: Circuit) -> Circuit:
        n_phys = self.coupling.number_of_nodes()
        if circuit.num_qubits > n_phys:
            raise ValueError("circuit wider than device")
        # logical -> physical (identity start); phys -> logical inverse.
        l2p: Dict[int, int] = {q: q for q in range(circuit.num_qubits)}
        p2l: Dict[int, int] = {p: q for q, p in l2p.items()}

        # Dependency structure: per-qubit FIFO of gate indices.
        gates = circuit.gates
        succ: List[List[int]] = [[] for _ in gates]
        last_on: Dict[int, int] = {}
        indeg = [0] * len(gates)
        for i, g in enumerate(gates):
            for q in g.qubits:
                if q in last_on:
                    succ[last_on[q]].append(i)
                    indeg[i] += 1
                last_on[q] = i
        front: Set[int] = {i for i, d in enumerate(indeg) if d == 0}

        out = Circuit(n_phys)
        executed = [False] * len(gates)
        self.swap_count = 0

        def executable(i: int) -> bool:
            g = gates[i]
            if g.num_qubits == 1:
                return True
            a, b = (l2p[q] for q in g.qubits)
            return self.coupling.has_edge(a, b)

        def execute(i: int) -> None:
            g = gates[i]
            out.append(Gate(g.name, tuple(l2p[q] for q in g.qubits), g.params, g.matrix))
            executed[i] = True

        def advance() -> None:
            """Execute everything executable, maintaining the front layer."""
            progress = True
            while progress:
                progress = False
                for i in sorted(front):
                    if executable(i):
                        execute(i)
                        front.discard(i)
                        for j in succ[i]:
                            indeg[j] -= 1
                            if indeg[j] == 0:
                                front.add(j)
                        progress = True

        def front_cost(layout: Dict[int, int]) -> float:
            cost = 0.0
            two_q = [i for i in front if gates[i].num_qubits == 2]
            for i in two_q:
                a, b = (layout[q] for q in gates[i].qubits)
                cost += self.dist[a][b]
            # extended set: a window of not-yet-executed 2q gates after front
            window = 0
            for i, g in enumerate(gates):
                if executed[i] or i in front or g.num_qubits != 2:
                    continue
                a, b = (layout[q] for q in g.qubits)
                cost += self.decay * self.dist[a][b]
                window += 1
                if window >= self.extended_depth:
                    break
            return cost

        advance()
        stall = 0
        while not all(executed):
            # Candidate SWAPs: edges adjacent to qubits in blocked front gates.
            candidates: Set[Tuple[int, int]] = set()
            for i in front:
                g = gates[i]
                if g.num_qubits != 2:
                    continue
                for q in g.qubits:
                    p = l2p[q]
                    for nb in self.coupling.neighbors(p):
                        candidates.add((min(p, nb), max(p, nb)))
            if not candidates:
                raise RuntimeError("router stalled: no candidate swaps")
            best, best_cost = None, float("inf")
            for a, b in sorted(candidates):
                trial = dict(l2p)
                la, lb = p2l.get(a), p2l.get(b)
                if la is not None:
                    trial[la] = b
                if lb is not None:
                    trial[lb] = a
                c = front_cost(trial)
                if c < best_cost:
                    best, best_cost = (a, b), c
            a, b = best  # type: ignore[misc]
            out.append(Gate("swap", (a, b)))
            self.swap_count += 1
            la, lb = p2l.get(a), p2l.get(b)
            if la is not None:
                l2p[la] = b
            if lb is not None:
                l2p[lb] = a
            p2l = {p: q for q, p in l2p.items()}
            before = sum(executed)
            advance()
            stall = stall + 1 if sum(executed) == before else 0
            if stall > 4 * self.coupling.number_of_nodes():
                raise RuntimeError("router made no progress; check coupling graph")
        self.final_layout = dict(l2p)
        return out
