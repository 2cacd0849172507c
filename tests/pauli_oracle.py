"""Per-term reference loops for the Pauli algebra.

These dict-of-terms loops are the oracle the packed symplectic engine
(:mod:`repro.ir.symplectic`) is checked against: one Python iteration
per term pair for products and commutators, a member-by-member
qubit-wise-commutation test for grouping, and a chain of two-term
ladder products per fermionic term for the mappings.  They live under
``tests/`` because nothing in the package runs them; the property tests
in ``tests/test_symplectic.py`` and the per-term baselines of
``benchmarks/bench_pauli_algebra.py`` import them from here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.chem.fermion import FermionOperator
from repro.chem.mappings import _get_mapper
from repro.ir.pauli import PauliString, PauliSum
from repro.utils.bitops import I_POW as _I_POW
from repro.utils.bitops import popcount as _popcount

__all__ = [
    "dot_per_term",
    "commutator_per_term",
    "group_qwc_per_term",
    "map_fermion_operator_per_term",
]


def dot_per_term(a: PauliSum, b: PauliSum) -> PauliSum:
    """Product ``a @ b``, one dict update per term pair."""
    out: Dict[Tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        c11 = _popcount(x1 & z1)
        for (x2, z2), c2 in b.terms.items():
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            exponent = (
                c11
                + _popcount(x2 & z2)
                - _popcount(x3 & z3)
                + 2 * _popcount(z1 & x2)
            ) % 4
            coeff = c1 * c2 * _I_POW[exponent]
            key = (x3, z3)
            new = out.get(key, 0.0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return PauliSum(a.num_qubits, out)


def commutator_per_term(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b]``: each anticommuting pair contributes ``2 P1 P2``."""
    out: Dict[Tuple[int, int], complex] = {}
    for (x1, z1), c1 in a.terms.items():
        c11 = _popcount(x1 & z1)
        for (x2, z2), c2 in b.terms.items():
            if (_popcount(x1 & z2) + _popcount(z1 & x2)) % 2 == 0:
                continue  # commuting pair contributes nothing
            x3 = x1 ^ x2
            z3 = z1 ^ z2
            exponent = (
                c11
                + _popcount(x2 & z2)
                - _popcount(x3 & z3)
                + 2 * _popcount(z1 & x2)
            ) % 4
            coeff = 2.0 * c1 * c2 * _I_POW[exponent]
            key = (x3, z3)
            new = out.get(key, 0.0) + coeff
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return PauliSum(a.num_qubits, out)


def group_qwc_per_term(ps: PauliSum) -> List[List[Tuple[complex, PauliString]]]:
    """Greedy first-fit qubit-wise-commuting grouping, testing every
    member of every group.  Terms are scanned by descending ``|coeff|``
    with ties in ascending ``(x, z)`` order — the engine's scan order,
    so the two must return identical groups."""
    groups: List[List[Tuple[complex, PauliString]]] = []
    ordered = sorted(ps, key=lambda t: (-abs(t[0]), t[1].x, t[1].z))
    reps: List[List[PauliString]] = []
    for coeff, pstr in ordered:
        placed = False
        for gi, members in enumerate(reps):
            if all(pstr.qubitwise_commutes_with(m) for m in members):
                groups[gi].append((coeff, pstr))
                members.append(pstr)
                placed = True
                break
        if not placed:
            groups.append([(coeff, pstr)])
            reps.append([pstr])
    return groups


def _ladder(mapper, p: int, dagger: bool) -> PauliSum:
    """a+_p or a_p = X_U . Z_P . (I +/- Z_F)/2 as a two-term sum."""
    n = mapper.n
    x_u = PauliSum.from_string(PauliString(n, x=mapper.update_masks[p]))
    z_p = PauliSum.from_string(PauliString(n, z=mapper.parity_masks[p]))
    z_f = PauliSum.from_string(PauliString(n, z=mapper.flip_masks[p]))
    sign = 1.0 if dagger else -1.0
    projector = (PauliSum.identity(n) + sign * z_f) * 0.5
    return dot_per_term(dot_per_term(x_u, z_p), projector)


def map_fermion_operator_per_term(
    op: FermionOperator, num_modes: int, mapping: str = "jordan-wigner"
) -> PauliSum:
    """Map one operator a fermionic term at a time, each term a chain of
    per-term products of its ladder factors."""
    if op.max_orbital >= num_modes:
        raise ValueError(
            f"operator touches orbital {op.max_orbital} >= num_modes {num_modes}"
        )
    mapper = _get_mapper(mapping, num_modes)
    ladders: Dict[Tuple[int, bool], PauliSum] = {}

    def ladder(p: int, dagger: bool) -> PauliSum:
        if (p, dagger) not in ladders:
            ladders[p, dagger] = _ladder(mapper, p, dagger)
        return ladders[p, dagger]

    result = PauliSum.zero(num_modes)
    for term, coeff in op:
        if not term:
            result = result + PauliSum.identity(num_modes, coeff)
            continue
        acc = ladder(*term[0])
        for orb, dag in term[1:]:
            acc = dot_per_term(acc, ladder(orb, dag))
        result = result + acc * coeff
    return result.chop(1e-14)
