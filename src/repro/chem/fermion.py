"""Fermionic operator algebra: sums of normal-ordered ladder strings.

``FermionOperator`` represents sums of products of creation (``p^``)
and annihilation (``p``) operators with complex coefficients, with the
canonical anticommutation relations

    {a_p, a+_q} = delta_pq,   {a_p, a_q} = {a+_p, a+_q} = 0.

Normal ordering (creations left of annihilations, indices descending)
is implemented through iterative application of the anticommutators,
so operator identities (e.g. number-operator idempotency, commutators
of excitations) hold exactly.  This is the algebra the UCCSD generator
construction and the downfolding sigma_ext build on before mapping to
qubits.

Terms are keyed by tuples of ``(orbital, is_creation)`` pairs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["FermionOperator"]

LadderTerm = Tuple[Tuple[int, bool], ...]


class FermionOperator:
    """A linear combination of ladder-operator products."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[LadderTerm, complex]] = None):
        self.terms: Dict[LadderTerm, complex] = dict(terms or {})

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "FermionOperator":
        return cls()

    @classmethod
    def identity(cls, coeff: complex = 1.0) -> "FermionOperator":
        return cls({(): complex(coeff)})

    @classmethod
    def term(
        cls, ops: Sequence[Tuple[int, bool]], coeff: complex = 1.0
    ) -> "FermionOperator":
        """One ladder string, e.g. ``term([(2, True), (0, False)])`` for
        ``a+_2 a_0``."""
        return cls({tuple(ops): complex(coeff)})

    @classmethod
    def from_string(cls, spec: str, coeff: complex = 1.0) -> "FermionOperator":
        """Parse ``"2^ 0"`` style strings (^ marks creation)."""
        ops: List[Tuple[int, bool]] = []
        for token in spec.split():
            if token.endswith("^"):
                ops.append((int(token[:-1]), True))
            else:
                ops.append((int(token), False))
        return cls.term(ops, coeff)

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        out = FermionOperator(dict(self.terms))
        for k, v in other.terms.items():
            new = out.terms.get(k, 0.0) + v
            if new == 0:
                out.terms.pop(k, None)
            else:
                out.terms[k] = new
        return out

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (other * -1.0)

    def __mul__(self, other) -> "FermionOperator":
        if isinstance(other, FermionOperator):
            out: Dict[LadderTerm, complex] = {}
            for t1, c1 in self.terms.items():
                for t2, c2 in other.terms.items():
                    key = t1 + t2
                    new = out.get(key, 0.0) + c1 * c2
                    if new == 0:
                        out.pop(key, None)
                    else:
                        out[key] = new
            return FermionOperator(out)
        return FermionOperator(
            {k: v * other for k, v in self.terms.items() if v * other != 0}
        )

    def __rmul__(self, scalar: complex) -> "FermionOperator":
        return self * scalar

    def __neg__(self) -> "FermionOperator":
        return self * -1.0

    def dagger(self) -> "FermionOperator":
        """Hermitian adjoint: reverse each string, toggle dagger flags,
        conjugate coefficients."""
        out: Dict[LadderTerm, complex] = {}
        for term, coeff in self.terms.items():
            adj = tuple((orb, not dag) for orb, dag in reversed(term))
            out[adj] = out.get(adj, 0.0) + coeff.conjugate()
        return FermionOperator(out)

    def commutator(self, other: "FermionOperator") -> "FermionOperator":
        return (self * other - other * self).normal_ordered()

    # -- normal ordering --------------------------------------------------------------

    def normal_ordered(self) -> "FermionOperator":
        """Rewrite with all creations left of annihilations, creation
        indices strictly descending, annihilation indices strictly
        ascending; duplicate adjacent equal ladder ops vanish."""
        out = FermionOperator()
        for term, coeff in self.terms.items():
            out = out + _normal_order_term(list(term), coeff)
        out.chop(0.0)
        return out

    def chop(self, threshold: float = 1e-12) -> "FermionOperator":
        dead = [k for k, v in self.terms.items() if abs(v) <= threshold]
        for k in dead:
            del self.terms[k]
        return self

    # -- inspection ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Tuple[LadderTerm, complex]]:
        return iter(self.terms.items())

    @property
    def max_orbital(self) -> int:
        m = -1
        for term in self.terms:
            for orb, _ in term:
                m = max(m, orb)
        return m

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        diff = (self - self.dagger()).normal_ordered()
        return all(abs(c) <= atol for c in diff.terms.values())

    def is_anti_hermitian(self, atol: float = 1e-10) -> bool:
        s = (self + self.dagger()).normal_ordered()
        return all(abs(c) <= atol for c in s.terms.values())

    def conserves_particle_number(self) -> bool:
        """True if every term has equal creation and annihilation counts."""
        for term in self.terms:
            ups = sum(1 for _, dag in term if dag)
            if 2 * ups != len(term):
                return False
        return True

    def __repr__(self) -> str:
        parts = []
        for term, coeff in list(self.terms.items())[:4]:
            ops = " ".join(f"{o}^" if d else f"{o}" for o, d in term)
            parts.append(f"({coeff:.4g}) [{ops}]")
        more = "" if len(self.terms) <= 4 else f" + ... ({len(self.terms)} terms)"
        return " + ".join(parts) + more if parts else "0"


def _normal_order_term(ops: List[Tuple[int, bool]], coeff: complex) -> FermionOperator:
    """Normal-order one ladder string via bubble passes with the CAR.

    Each adjacent transposition either anticommutes (sign flip) or, for
    ``a_p a+_p``, produces the contraction ``1 - a+_p a_p`` (two terms,
    handled by a small work stack).
    """
    result = FermionOperator()
    stack: List[Tuple[List[Tuple[int, bool]], complex]] = [(ops, coeff)]
    while stack:
        term, c = stack.pop()
        changed = True
        dead = False
        while changed and not dead:
            changed = False
            for i in range(len(term) - 1):
                (o1, d1), (o2, d2) = term[i], term[i + 1]
                if not d1 and d2:  # annihilation left of creation
                    if o1 == o2:
                        # a_p a+_p = 1 - a+_p a_p
                        rest_identity = term[:i] + term[i + 2:]
                        stack.append((rest_identity, c))
                        term = term[:i] + [term[i + 1], term[i]] + term[i + 2:]
                        c = -c
                    else:
                        term[i], term[i + 1] = term[i + 1], term[i]
                        c = -c
                    changed = True
                    break
                if d1 == d2:
                    if o1 == o2:
                        dead = True  # a+ a+ or a a with equal index -> 0
                        break
                    # canonical order: creations descending, annihilations ascending
                    want_swap = (d1 and o1 < o2) or (not d1 and o1 > o2)
                    if want_swap:
                        term[i], term[i + 1] = term[i + 1], term[i]
                        c = -c
                        changed = True
                        break
        if not dead and c != 0:
            key = tuple(term)
            new = result.terms.get(key, 0.0) + c
            if new == 0:
                result.terms.pop(key, None)
            else:
                result.terms[key] = new
    return result
