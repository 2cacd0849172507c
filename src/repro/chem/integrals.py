"""Molecular integrals over contracted Cartesian Gaussians.

McMurchie–Davidson scheme (Helgaker, Jorgensen & Olsen, ch. 9):
products of Gaussians are expanded in Hermite Gaussians via the E
coefficients; Coulomb-type integrals then reduce to Hermite Coulomb
integrals R built on the Boys function.

This module is the "NWChem role" substrate of the reproduction: it
supplies the real one- and two-electron integrals behind the H2O
Hamiltonian of Fig. 5, and it is the set-up cost of every workflow,
scan point and served job, so it is written for arrays, not for
primitives.  :class:`HermitePairs` expands every contracted pair
``i >= j`` once — the E recursion runs over all primitive pairs of the
basis at a time — and files the resulting Hermite Gaussians
``Lambda_tuv(p, P)`` by ``(t, u, v)`` class (10 classes for an s/p
basis).  Every integral reads that table: the one-electron matrices
are a weighted ``bincount`` over primitive pairs, and the ERI tensor is
one block of Hermite Coulomb integrals per pair of classes (the R
recursion on arrays, one Boys evaluation per block) folded back onto
contracted pairs by a segment matmul.  Class-pair symmetry halves the
blocks; ``_BLOCK`` bounds what a block allocates.  The scalar
per-primitive routines this replaced live on in
``tests/test_integrals_scf.py`` as the oracle.

The Boys function is numpy only: a table of F_n on a grid, built once
at import, read by a short Taylor step below ``_BOYS_X_END`` and by the
upward recursion from F_0 = sqrt(pi / x) / 2 above it, where erf(sqrt x)
is 1 to double precision.  No scipy module is imported on the way from
a molecule to its integrals.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.chem.basis import BasisFunction
from repro.chem.molecule import Molecule

__all__ = [
    "HermitePairs",
    "boys",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_attraction_matrix",
    "eri_tensor",
    "core_hamiltonian",
]

# Grid points (primitive pair x primitive pair) per ERI block; larger
# class pairs are cut into row chunks.  A block holds ~20 float64
# temporaries of this size, so the cap bounds a call's scratch (~10 MiB)
# whatever the basis.  It is deliberately not small: at 512 KiB the
# temporaries sit above malloc's mmap threshold and go back to the OS
# when freed, whereas 2-32 KiB chunks live on the heap and fragment it.
# Ladder adapt_h2o, whose peak comes long after the integrals, ten
# pairs each: peak RSS 171.8 MiB with the scalar engine, 175.8 at 2^12,
# 174.3 at 2^16 (H2O fits one block; that row moves in ~2 MiB steps
# with any change of heap layout, the scalar engine's included).
_BLOCK = 1 << 16


# Boys function grid: F_n(j h) for n <= _BOYS_MAX_ORDER + _BOYS_TERMS - 1,
# read by a _BOYS_TERMS-term Taylor step of at most h/2.  The truncation
# error is below (h/2)^7 / 7! * F_{n+7} / F_n < 4e-15 relative (measured
# against 40-digit arithmetic: 2.9e-15 at n <= 8, rounding included); the
# grid ends where the large-x form is exact in double precision
# (erfc(6) ~ 2e-17).  8 is the highest order a d shell reaches.
_BOYS_MAX_ORDER = 8
_BOYS_TERMS = 7
_BOYS_STEP = 1.0 / 16.0
_BOYS_X_END = 36.0


def _boys_table() -> List[np.ndarray]:
    """``table[n][k, j] = F_{n+k}(j h) / k!``: the Taylor coefficients,
    with the factorials folded in so that the step is a plain Horner.

    The top order is summed as the series
    F_m(x) = exp(-x) sum_i (2x)^i / ((2m+1)(2m+3)...(2m+2i+1)), whose
    terms are all positive; the lower orders follow by the stable
    downward recursion F_{m-1} = (2x F_m + exp(-x)) / (2m - 1).
    """
    top = _BOYS_MAX_ORDER + _BOYS_TERMS - 1
    x = np.arange(int(_BOYS_X_END / _BOYS_STEP) + 2) * _BOYS_STEP
    term = np.full(x.size, 1.0 / (2 * top + 1))
    total = term.copy()
    i = 0
    while np.any(term > 1e-17 * total):
        i += 1
        term = term * (2.0 * x) / (2 * top + 2 * i + 1)
        total += term
    ex = np.exp(-x)
    f = np.empty((top + 1, x.size))
    f[top] = ex * total
    for m in range(top, 0, -1):
        f[m - 1] = (2.0 * x * f[m] + ex) / (2 * m - 1)
    fact = np.array([math.factorial(k) for k in range(_BOYS_TERMS)], dtype=float)
    return [f[n : n + _BOYS_TERMS] / fact[:, None] for n in range(_BOYS_MAX_ORDER + 1)]


_BOYS_TABLE = _boys_table()


def _boys_near(n: int, x: np.ndarray) -> np.ndarray:
    """F_n(x) for 0 <= x < _BOYS_X_END: Taylor step from the nearest
    grid point, sum_k F_{n+k}(x_j) (x_j - x)^k / k!."""
    j = np.rint(x * (1.0 / _BOYS_STEP)).astype(np.intp)
    d = j * _BOYS_STEP - x
    coef = _BOYS_TABLE[n]
    f = coef[-1][j]
    for row in coef[-2::-1]:
        f *= d
        f += row[j]
    return f


def _boys_far(n: int, x: np.ndarray) -> np.ndarray:
    """F_n(x) for x >= _BOYS_X_END by the upward recursion
    F_{m+1} = ((2m+1) F_m - exp(-x)) / 2x, stable for x > n."""
    f = np.sqrt(math.pi / x) * 0.5
    if n:
        ex = np.exp(-x)
        half = 0.5 / x
        for m in range(n):
            f = ((2 * m + 1) * f - ex) * half
    return f


def _boys(n: int, x: np.ndarray) -> np.ndarray:
    """F_n(x) elementwise on a float array of arguments x >= 0."""
    if x.size == 0 or x.max() < _BOYS_X_END:
        return _boys_near(n, x)
    near = x < _BOYS_X_END
    far = ~near
    f = np.empty_like(x)
    f[near] = _boys_near(n, x[near])
    f[far] = _boys_far(n, x[far])
    return f


def boys(n: int, x: float) -> float:
    """Boys function F_n(x) = int_0^1 t^{2n} exp(-x t^2) dt, for
    0 <= n <= 8 and x >= 0."""
    if not 0 <= n <= _BOYS_MAX_ORDER:
        raise ValueError(f"Boys order {n} outside 0..{_BOYS_MAX_ORDER}")
    return float(_boys(n, np.array([x], dtype=float))[0])


def _hermite_e(imax: int, jmax: int, a, b, ab) -> np.ndarray:
    """Hermite expansion coefficients E_t^{ij} of 1-D Gaussian products,
    for all ``i <= imax``, ``j <= jmax`` at once: shape
    ``(imax+1, jmax+1, imax+jmax+1) + ab.shape``, zero where t > i+j."""
    p = a + b
    q = a * b / p
    table = np.zeros((imax + 1, jmax + 1, imax + jmax + 2) + ab.shape)
    table[0, 0, 0] = np.exp(-q * ab * ab)

    # the t axis carries one slot of zero padding so t+1 always reads
    rising = np.arange(1, table.shape[2]).reshape((-1,) + (1,) * ab.ndim)

    def raise_index(src, dst, shift):
        # E_t^{+1} = E_{t-1} / 2p + shift E_t + (t + 1) E_{t+1}
        dst[1:] = src[:-1] / (2.0 * p)
        dst += shift * src
        dst[:-1] += rising * src[1:]

    for j in range(jmax + 1):
        if j:
            raise_index(table[0, j - 1], table[0, j], q * ab / b)
        for i in range(1, imax + 1):
            raise_index(table[i - 1, j], table[i, j], -q * ab / a)
    return table[:, :, :-1]


class HermitePairs:
    """Every contracted pair ``i >= j`` of a basis as Hermite Gaussians.

    Built once per (basis, geometry) and accepted by every integral
    function of this module in place of the basis-function list, so a
    caller that needs several integrals (``run_rhf``) pays for the
    expansion once.  Arrays run over the primitive pairs of all
    contracted pairs; ``classes`` maps ``(t, u, v)`` to the primitive
    pairs with a non-zero coefficient ``c_i c_j E_t E_u E_v`` there.
    """

    def __init__(self, bfs: Sequence[BasisFunction]):
        n = len(bfs)
        self.npair = n * (n + 1) // 2
        fn = np.repeat(np.arange(n), [len(f.exponents) for f in bfs])
        expo = np.concatenate([f.exponents for f in bfs])
        coef = np.concatenate([f.coeffs for f in bfs])
        ka, kb = np.nonzero(fn[:, None] >= fn[None, :])
        i, j = fn[ka], fn[kb]
        centers = np.array([f.center for f in bfs], dtype=float)
        lmn = np.array([f.lmn for f in bfs], dtype=np.intp)
        a, self.b = expo[ka], expo[kb]
        A, B = centers[i].T, centers[j].T  # (3, primitive pairs)
        self.pair = i * (i + 1) // 2 + j
        self.p = a + self.b
        self.P = (a * A + self.b * B) / self.p
        cc = coef[ka] * coef[kb]
        self.norm = cc * (math.pi / self.p) ** 1.5
        # index[i, j] = contracted-pair number of (max, min): unpacks a
        # per-pair vector into the symmetric matrix
        ar = np.arange(n)
        hi, lo = np.maximum.outer(ar, ar), np.minimum.outer(ar, ar)
        self.index = hi * (hi + 1) // 2 + lo

        lmax = int(lmn.max())
        # j runs two past lmax: the kinetic operator raises the ket
        self._table = _hermite_e(lmax, lmax + 2, a, self.b, A - B)
        self._l1, self.l2 = lmn[i].T, lmn[j].T
        self._where = (np.arange(3)[:, None], np.arange(self.p.size)[None, :])
        # e[t, d] = E_t^{l1 l2} along axis d, per primitive pair
        self.e = np.moveaxis(
            self._table[(self._l1, self.l2, slice(None)) + self._where], -1, 0
        )
        self.classes: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        for tuv in itertools.product(range(2 * lmax + 1), repeat=3):
            t, u, v = tuv
            c = cc * self.e[t, 0] * self.e[u, 1] * self.e[v, 2]
            k = np.flatnonzero(c)
            if k.size:
                self.classes[tuv] = (k, c[k])

    def ket_shifted(self, dj: int) -> np.ndarray:
        """E_0^{l1, l2+dj} per axis and primitive pair (0 where l2+dj < 0
        would be read: its kinetic prefactor l2 (l2 - 1) vanishes)."""
        return self._table[(self._l1, np.maximum(self.l2 + dj, 0), 0) + self._where]

    def contract(self, weights: np.ndarray) -> np.ndarray:
        """Sum per-primitive-pair values onto the symmetric AO matrix."""
        return np.bincount(self.pair, weights=weights, minlength=self.npair)[self.index]


Basis = Union[Sequence[BasisFunction], HermitePairs]


def _pairs(bfs: Basis) -> HermitePairs:
    return bfs if isinstance(bfs, HermitePairs) else HermitePairs(bfs)


def _with_axis(e0: np.ndarray, d: int, new: np.ndarray) -> np.ndarray:
    """Product over the three axes of ``e0`` with axis ``d`` replaced."""
    parts = list(e0)
    parts[d] = new
    return parts[0] * parts[1] * parts[2]


def _hermite_coulomb(tuv: Tuple[int, int, int], alpha, X) -> np.ndarray:
    """Hermite Coulomb integrals R^0_{tuv}(alpha, X) on arrays; ``X`` has
    shape ``(3, ...)`` and ``alpha`` broadcasts against ``X[0]``."""
    order = sum(tuv)
    x = alpha * (X[0] * X[0] + X[1] * X[1] + X[2] * X[2])
    f = _boys(order, x)
    if order == 0:
        return f
    # Boys table by the stable downward recursion, then
    # R^n_{000} = (-2 alpha)^n F_n for n = 0..order
    ex = np.exp(-x)
    r = [f]
    for n in range(order - 1, -1, -1):
        f = (2.0 * x * f + ex) / (2 * n + 1)
        r.append(f)
    r.reverse()
    scale = 1.0
    for n in range(1, order + 1):
        scale = scale * (-2.0 * alpha)
        r[n] = r[n] * scale
    # raise one Cartesian index at a time:
    # R^n_{.. k ..} = (k - 1) R^{n+1}_{.. k-2 ..} + X_d R^{n+1}_{.. k-1 ..}
    for d in (2, 1, 0):
        below: List[np.ndarray] = []
        for k in range(1, tuv[d] + 1):
            above = [
                X[d] * r[n + 1] + ((k - 1) * below[n + 1] if k > 1 else 0.0)
                for n in range(len(r) - 1)
            ]
            below, r = r, above
    return r[0]


def overlap_matrix(bfs: Basis) -> np.ndarray:
    """AO overlap matrix S."""
    tab = _pairs(bfs)
    return tab.contract(tab.norm * tab.e[0].prod(axis=0))


def kinetic_matrix(bfs: Basis) -> np.ndarray:
    """AO kinetic-energy matrix T, via overlaps of the ket with its
    angular momentum shifted by +-2."""
    tab = _pairs(bfs)
    e0, b, l2 = tab.e[0], tab.b, tab.l2
    up = tab.ket_shifted(2)
    down = l2 * (l2 - 1) * tab.ket_shifted(-2)
    value = b * (2 * l2.sum(axis=0) + 3) * e0.prod(axis=0)
    for d in range(3):
        value -= 2.0 * b * b * _with_axis(e0, d, up[d]) + 0.5 * _with_axis(e0, d, down[d])
    return tab.contract(tab.norm * value)


def nuclear_attraction_matrix(bfs: Basis, molecule: Molecule) -> np.ndarray:
    """AO nuclear-attraction matrix V (includes the -Z factors)."""
    tab = _pairs(bfs)
    charges = np.array([float(atom.atomic_number) for atom in molecule.atoms])
    C = np.array([atom.position for atom in molecule.atoms], dtype=float).T
    weights = np.zeros(tab.p.size)
    for tuv, (k, coef) in tab.classes.items():
        p = tab.p[k]
        r = _hermite_coulomb(tuv, p[:, None], tab.P[:, k, None] - C[:, None, :])
        weights[k] -= coef * (2.0 * math.pi / p) * (r @ charges)
    return tab.contract(weights)


def core_hamiltonian(bfs: Basis, molecule: Molecule) -> np.ndarray:
    """H_core = T + V."""
    tab = _pairs(bfs)
    return kinetic_matrix(tab) + nuclear_attraction_matrix(tab, molecule)


def eri_tensor(bfs: Basis) -> np.ndarray:
    """Two-electron integrals (ij|kl), chemists' notation.

    Per pair of Hermite classes, one block
    ``2 pi^{5/2} / (p q sqrt(p+q)) (-1)^{t'+u'+v'} R_{t+t',u+u',v+v'}``
    over (primitive pairs) x (primitive pairs), summed onto contracted
    pairs; the block of the swapped class pair is its transpose.
    """
    tab = _pairs(bfs)
    classes = []
    for tuv, (k, coef) in tab.classes.items():
        seg = np.zeros((tab.npair, k.size))
        seg[tab.pair[k], np.arange(k.size)] = coef / tab.p[k]
        classes.append((tuv, tab.p[k], tab.P[:, k], seg))
    g = np.zeros((tab.npair, tab.npair))
    for first, (tuv1, p1, P1, seg1) in enumerate(classes):
        for tuv2, p2, P2, seg2 in classes[first:]:
            total = (tuv1[0] + tuv2[0], tuv1[1] + tuv2[1], tuv1[2] + tuv2[2])
            half = np.zeros((tab.npair, p2.size))
            step = max(1, _BLOCK // p2.size)
            for lo in range(0, p1.size, step):
                rows = slice(lo, lo + step)
                s = p1[rows, None] + p2
                r = _hermite_coulomb(
                    total, p1[rows, None] * p2 / s, P1[:, rows, None] - P2[:, None, :]
                )
                r /= np.sqrt(s)
                half += seg1[:, rows] @ r
            sign = -1.0 if sum(tuv2) % 2 else 1.0
            block = (2.0 * math.pi ** 2.5 * sign) * (half @ seg2.T)
            g += block
            if tuv1 != tuv2:
                g += block.T
    return g[tab.index[:, :, None, None], tab.index]
