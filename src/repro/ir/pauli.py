"""Pauli-string and Pauli-sum algebra in the symplectic representation.

Observables (molecular Hamiltonians after qubit mapping, downfolded
effective Hamiltonians, ADAPT pool generators) are all sums of Pauli
strings.  We store a string as a pair of bitmasks ``(x, z)`` over the
qubit register — qubit ``q`` carries X iff bit ``q`` of ``x`` is set
and Z iff bit ``q`` of ``z`` is set; both set means Y.  With the phase
convention

    P(x, z) = i^{|x & z|} X^x Z^z

``P`` is exactly the literal tensor product of Pauli matrices (each Y
contributes ``i X Z``), so every ``PauliString`` is Hermitian and a
``PauliSum`` is Hermitian iff all its coefficients are real.

This representation makes products, commutators and statevector
application bit arithmetic — which is what lets the downfolding
commutator expansion (``repro.chem.downfolding``) run over thousands of
terms without symbolic blowup.  Every sum-level operation (product,
commutator, grouping, simplification) runs on the packed form of
:mod:`repro.ir.symplectic`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.bitops import I_POW as _I_POW
from repro.utils.bitops import basis_indices, count_set_bits
from repro.utils.bitops import popcount as _popcount

__all__ = ["PauliString", "PauliSum"]

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def _check_width(left: int, right: int) -> None:
    if left != right:
        raise ValueError(f"qubit count mismatch: {left} vs {right}")


class PauliString:
    """A single Hermitian Pauli string on ``num_qubits`` qubits."""

    __slots__ = ("x", "z", "num_qubits")

    def __init__(self, num_qubits: int, x: int = 0, z: int = 0):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        mask = (1 << num_qubits) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("x/z masks exceed register width")
        self.num_qubits = num_qubits
        self.x = x
        self.z = z

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a textual label; ``label[0]`` is the *highest* qubit
        (ket order ``|b_{n-1} ... b_0>``), e.g. ``"XIZ"`` puts X on qubit 2."""
        n = len(label)
        x = z = 0
        for pos, ch in enumerate(label.upper()):
            q = n - 1 - pos
            try:
                xb, zb = _CHAR_TO_XZ[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    @classmethod
    def from_ops(cls, num_qubits: int, ops: Dict[int, str]) -> "PauliString":
        """Build from a sparse ``{qubit: 'X'|'Y'|'Z'}`` mapping."""
        x = z = 0
        for q, ch in ops.items():
            if q < 0 or q >= num_qubits:
                raise ValueError(f"qubit {q} out of range")
            try:
                xb, zb = _CHAR_TO_XZ[ch.upper()]
            except KeyError:
                raise ValueError(
                    f"invalid Pauli character {ch!r} on qubit {q}"
                ) from None
            if (xb, zb) == (0, 0):
                continue
            x |= xb << q
            z |= zb << q
        return cls(num_qubits, x, z)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits, 0, 0)

    # -- basic properties ----------------------------------------------------

    def label(self) -> str:
        """Textual label, highest qubit first."""
        return "".join(
            _XZ_TO_CHAR[((self.x >> q) & 1, (self.z >> q) & 1)]
            for q in range(self.num_qubits - 1, -1, -1)
        )

    def op_on(self, qubit: int) -> str:
        """The single-qubit Pauli letter acting on ``qubit``."""
        return _XZ_TO_CHAR[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits acted on non-trivially, ascending."""
        mask = self.x | self.z
        return tuple(q for q in range(self.num_qubits) if (mask >> q) & 1)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return _popcount(self.x | self.z)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    @property
    def is_diagonal(self) -> bool:
        """True for Z-type strings (diagonal in the computational basis)."""
        return self.x == 0

    # -- algebra --------------------------------------------------------------

    def mul(self, other: "PauliString") -> Tuple[complex, "PauliString"]:
        """Product ``self @ other`` as ``(phase, PauliString)``.

        The result of a product of two Pauli strings is always a phase
        in {1, i, -1, -i} times another Pauli string.
        """
        _check_width(self.num_qubits, other.num_qubits)
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        # i^{c1 + c2 - c3} * (-1)^{|z1 & x2|}
        exponent = (
            _popcount(self.x & self.z)
            + _popcount(other.x & other.z)
            - _popcount(x3 & z3)
            + 2 * _popcount(self.z & other.x)
        ) % 4
        return _I_POW[exponent], PauliString(self.num_qubits, x3, z3)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings commute (symplectic inner product = 0)."""
        return (
            _popcount(self.x & other.z) + _popcount(self.z & other.x)
        ) % 2 == 0

    def qubitwise_commutes_with(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: on every shared qubit the letters agree
        or one is identity.  This is the grouping criterion for shared
        measurement bases (§4.1 of the paper)."""
        for q in range(self.num_qubits):
            a = ((self.x >> q) & 1, (self.z >> q) & 1)
            b = ((other.x >> q) & 1, (other.z >> q) & 1)
            if a != (0, 0) and b != (0, 0) and a != b:
                return False
        return True

    # -- numerics --------------------------------------------------------------

    def phase_exponent(self) -> int:
        """Exponent c in P = i^c X^x Z^z (c = |x & z| mod 4)."""
        return _popcount(self.x & self.z) % 4

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Return ``P @ state`` for a dense statevector (vectorized)."""
        n = self.num_qubits
        dim = 1 << n
        if state.shape[0] != dim:
            raise ValueError(f"state dimension mismatch: expected {dim}, got {state.shape[0]}")
        idx = basis_indices(n)
        src = idx ^ self.x
        # P|k> = i^c (-1)^{parity(z & k)} |k ^ x>; reading out[j] pulls from
        # k = j ^ x, giving sign parity(z & (j ^ x)).
        signs = 1.0 - 2.0 * (count_set_bits(src & self.z) & 1)
        out = state[src] * signs
        c = self.phase_exponent()
        if c:
            out = out * _I_POW[c]
        return out

    def expectation(self, state: np.ndarray) -> complex:
        """<state| P |state> without building P's matrix."""
        return complex(np.vdot(state, self.apply(state)))

    def to_sparse(self) -> sp.csr_matrix:
        """Sparse matrix (one nonzero per row)."""
        n = self.num_qubits
        dim = 1 << n
        cols = basis_indices(n)
        rows = cols ^ self.x
        vals = (1.0 - 2.0 * (count_set_bits(cols & self.z) & 1)).astype(
            np.complex128
        )
        c = self.phase_exponent()
        if c:
            vals *= _I_POW[c]
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))

    def to_matrix(self) -> np.ndarray:
        return self.to_sparse().toarray()

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliString)
            and self.num_qubits == other.num_qubits
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.num_qubits, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString('{self.label()}')"


class PauliSum:
    """A linear combination of Pauli strings with complex coefficients.

    Internally a dict keyed by ``(x, z)`` masks; all algebra collapses
    duplicate strings immediately, which keeps commutator expansions
    (downfolding) from blowing up.

    Expensive derived structures — the qubit-wise-commuting measurement
    grouping and the compiled x-mask-batched form
    (:mod:`repro.ir.compiled`) — are memoized on the instance and
    invalidated by the mutating operations ``add_term`` / ``chop``.
    Code that mutates ``terms`` directly must call ``invalidate_caches``
    itself (nothing in this repository does).
    """

    __slots__ = (
        "num_qubits",
        "terms",
        "_version",
        "_qwc_groups",
        "_compiled",
        "_symp",
    )

    def __init__(
        self,
        num_qubits: int,
        terms: Optional[Dict[Tuple[int, int], complex]] = None,
    ):
        self.num_qubits = num_qubits
        self.terms: Dict[Tuple[int, int], complex] = dict(terms or {})
        self._version = 0
        self._qwc_groups: Optional[
            List[List[Tuple[complex, PauliString]]]
        ] = None
        self._compiled: Optional[object] = None
        self._symp: Optional[object] = None

    # -- derived-structure caches ---------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter; bumped by ``add_term``/``chop`` so derived
        caches (grouping, compiled form) can detect staleness."""
        return self._version

    def invalidate_caches(self) -> None:
        """Drop memoized grouping / compiled / symplectic forms after a
        mutation."""
        self._version += 1
        self._qwc_groups = None
        self._compiled = None
        self._symp = None

    def to_symplectic(self):
        """Packed (X|Z) uint64 bit-matrix view of the whole sum.

        Memoized on the instance under the same ``_version`` protocol as
        the compiled form; the returned :class:`SymplecticPauli` is
        immutable by convention — engine operations return new objects.
        """
        from repro.ir.symplectic import SymplecticPauli

        if self._symp is None:
            self._symp = SymplecticPauli.from_pauli_sum(self)
        return self._symp

    @classmethod
    def from_symplectic(cls, symp) -> "PauliSum":
        """Build from a :class:`repro.ir.symplectic.SymplecticPauli`."""
        return cls(symp.num_qubits, symp.to_terms_dict())

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliSum":
        return cls(num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(num_qubits, {(0, 0): complex(coeff)})

    @classmethod
    def from_string(cls, pauli: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(pauli.num_qubits, {(pauli.x, pauli.z): complex(coeff)})

    @classmethod
    def from_terms(
        cls, terms: Iterable[Tuple[complex, PauliString]]
    ) -> "PauliSum":
        terms = list(terms)
        if not terms:
            raise ValueError("from_terms needs at least one term; use zero()")
        n = terms[0][1].num_qubits
        out = cls(n)
        for coeff, pstr in terms:
            out.add_term(pstr, coeff)
        return out

    @classmethod
    def from_label_dict(cls, labels: Dict[str, complex]) -> "PauliSum":
        """Build from ``{"XIZ": coeff, ...}``; labels must share length."""
        items = list(labels.items())
        if not items:
            raise ValueError("empty label dict")
        n = len(items[0][0])
        out = cls(n)
        for label, coeff in items:
            if len(label) != n:
                raise ValueError("inconsistent label lengths")
            out.add_term(PauliString.from_label(label), coeff)
        return out

    # -- mutation ---------------------------------------------------------------

    def add_term(self, pauli: PauliString, coeff: complex) -> None:
        _check_width(self.num_qubits, pauli.num_qubits)
        key = (pauli.x, pauli.z)
        new = self.terms.get(key, 0.0) + complex(coeff)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new
        self.invalidate_caches()

    def chop(self, threshold: float = 1e-12) -> "PauliSum":
        """Drop terms with |coeff| <= threshold (in place); returns self."""
        dead = [k for k, c in self.terms.items() if abs(c) <= threshold]
        for k in dead:
            del self.terms[k]
        if dead:
            self.invalidate_caches()
        return self

    def simplify(self, threshold: float = 0.0) -> "PauliSum":
        """Return a new sum with duplicate strings collapsed and terms
        with |coeff| <= threshold dropped (engine dedup).

        The dict representation already collapses duplicates on entry,
        so this is mainly a convenience for code that built ``terms``
        out-of-band or wants a chop that does not mutate in place.
        """
        return PauliSum.from_symplectic(
            self.to_symplectic().dedup(threshold=threshold)
        )

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Tuple[complex, PauliString]]:
        for (x, z), coeff in self.terms.items():
            yield coeff, PauliString(self.num_qubits, x, z)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, pauli: PauliString) -> complex:
        return self.terms.get((pauli.x, pauli.z), 0.0)

    def is_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= atol for c in self.terms.values())

    def is_anti_hermitian(self, atol: float = 1e-10) -> bool:
        return all(abs(c.real) <= atol for c in self.terms.values())

    def norm1(self) -> float:
        """Sum of |coefficients| (induced-1 Pauli norm)."""
        return float(sum(abs(c) for c in self.terms.values()))

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        _check_width(self.num_qubits, other.num_qubits)
        out = PauliSum(self.num_qubits, dict(self.terms))
        for key, coeff in other.terms.items():
            new = out.terms.get(key, 0.0) + coeff
            if new == 0:
                out.terms.pop(key, None)
            else:
                out.terms[key] = new
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return self.dot(scalar)
        scalar = complex(scalar)
        if scalar == 0:
            return PauliSum.zero(self.num_qubits)
        out: Dict[Tuple[int, int], complex] = {}
        for k, c in self.terms.items():
            scaled = c * scalar
            if scaled != 0:
                out[k] = scaled
        return PauliSum(self.num_qubits, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "PauliSum":
        scalar = complex(scalar)
        if scalar == 0:
            raise ZeroDivisionError("PauliSum division by zero")
        return self * (1.0 / scalar)

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    def dot(self, other: "PauliSum") -> "PauliSum":
        """Operator product on the packed symplectic engine: every term
        pair multiplied with vectorized phase tracking, then one
        dedup-and-sum; terms come out in ascending ``(x, z)`` order."""
        return PauliSum.from_symplectic(
            self.to_symplectic().mul(other.to_symplectic())
        )

    def commutator(self, other: "PauliSum") -> "PauliSum":
        """[self, other] on the packed symplectic engine.

        For Pauli strings either the pair commutes (contribution zero)
        or anticommutes (contribution ``2 * P1 P2``), so the engine
        multiplies only the anticommuting pairs of its adjacency matrix.
        """
        return PauliSum.from_symplectic(
            self.to_symplectic().commutator(other.to_symplectic())
        )

    # -- numerics --------------------------------------------------------------------

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Return ``H @ state`` summing vectorized per-term applications.

        This is the naive one-pass-per-term reference path; hot loops
        (VQE energies/gradients, ADAPT screening) should go through
        :func:`repro.ir.compiled.compile_observable`, which batches
        terms by shared x-mask into one pass per distinct mask.
        """
        dim = 1 << self.num_qubits
        if state.shape[0] != dim:
            raise ValueError(f"state dimension mismatch: expected {dim}, got {state.shape[0]}")
        out = np.zeros_like(state, dtype=np.complex128)
        idx = basis_indices(self.num_qubits)
        for (x, z), coeff in self.terms.items():
            src = idx ^ x
            signs = 1.0 - 2.0 * (count_set_bits(src & z) & 1)
            phase = _I_POW[_popcount(x & z) % 4]
            out += (coeff * phase) * (state[src] * signs)
        return out

    def expectation(self, state: np.ndarray) -> complex:
        """<state| H |state> (direct, no sampling)."""
        return complex(np.vdot(state, self.apply(state)))

    def matrix_block(self, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
        """``<rows| H |cols>`` for arrays of basis-state indices, built
        from the packed symplectic form in O(terms x len(cols)) — the
        2^n x 2^n matrix is never formed, so symmetry-sector blocks
        (FCI, Loewdin partitioning) cost what the sector costs.  See
        :meth:`repro.ir.symplectic.SymplecticPauli.matrix_block`."""
        return self.to_symplectic().matrix_block(rows, cols)

    def to_sparse(self) -> sp.csr_matrix:
        """Sparse matrix of the whole sum (the block over every index)."""
        idx = basis_indices(self.num_qubits)
        return self.matrix_block(idx, idx)

    def to_matrix(self) -> np.ndarray:
        return self.to_sparse().toarray()

    def ground_energy(self, k: int = 1) -> float:
        """Lowest eigenvalue by sparse diagonalization (reference values)."""
        mat = self.to_sparse()
        if mat.shape[0] <= 64:
            return float(np.linalg.eigvalsh(mat.toarray())[0])
        vals = sp.linalg.eigsh(
            mat, k=k, which="SA", return_eigenvectors=False, maxiter=5000
        )
        return float(np.min(vals))

    # -- measurement grouping (shared bases, §4.1) ---------------------------------

    def group_qubitwise_commuting(self) -> List[List[Tuple[complex, PauliString]]]:
        """Greedy grouping into qubit-wise commuting sets.

        Terms in one group can be measured from a single basis-rotated
        copy of the cached post-ansatz state, which is exactly the
        saving quantified in Fig. 3 of the paper.

        The greedy first-fit scan (:meth:`SymplecticPauli.group_qubitwise`:
        descending ``|coeff|``, ties in ``(x, z)`` order, so the groups
        depend only on the terms, not on their insertion order) is
        memoized on the instance (invalidated by ``add_term``/``chop``)
        because every basis-rotated / sampled expectation needs the same
        grouping.  Callers share the returned structure — treat it as
        read-only.
        """
        if self._qwc_groups is None:
            terms = list(self)
            self._qwc_groups = [
                [terms[i] for i in group]
                for group in self.to_symplectic().group_qubitwise()
            ]
        return self._qwc_groups

    def group_general_commuting(
        self, strategy: str = "largest_first"
    ) -> List[List[Tuple[complex, PauliString]]]:
        """Grouping under *general* commutation (weaker than qubit-wise,
        so groups are fewer/larger).

        Generally-commuting groups share an eigenbasis reachable by a
        Clifford circuit rather than single-qubit rotations; grouping
        is graph coloring of the anti-commutation graph (greedy, via
        networkx).  Counting the groups quantifies how much measurement
        reduction a smarter (Clifford) basis-change strategy buys over
        the paper's qubit-wise scheme.
        """
        import networkx as nx

        terms = list(self)
        g = nx.Graph()
        g.add_nodes_from(range(len(terms)))
        # Anti-commutation adjacency via vectorized engine passes,
        # chunked over rows to bound the broadcast intermediates.
        symp = self.to_symplectic()
        t = len(terms)
        for lo in range(0, t, 512):
            hi = min(lo + 512, t)
            anti = symp.anticommutation_matrix(rows=slice(lo, hi))
            ii, jj = np.nonzero(anti)
            keep = jj > (ii + lo)  # upper triangle only
            g.add_edges_from(
                zip((ii[keep] + lo).tolist(), jj[keep].tolist())
            )
        coloring = nx.coloring.greedy_color(g, strategy=strategy)
        groups: Dict[int, List[Tuple[complex, PauliString]]] = {}
        for idx, color in coloring.items():
            groups.setdefault(color, []).append(terms[idx])
        return [groups[c] for c in sorted(groups)]

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{c:.4g}*{PauliString(self.num_qubits, x, z).label()}"
            for (x, z), c in list(self.terms.items())[:4]
        )
        more = "" if len(self.terms) <= 4 else f", ... ({len(self.terms)} terms)"
        return f"PauliSum({preview}{more})"
