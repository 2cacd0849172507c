"""Gaussian basis sets: STO-3G shell data and basis-function expansion.

The paper's chemistry workflows draw their Hamiltonians from standard
Gaussian-basis electronic-structure calculations (NWChem on the
authors' side).  We carry the STO-3G minimal basis for H–Ne, which is
enough to build the real H2O Hamiltonian behind Fig. 5 (7 spatial
orbitals; O 1s frozen -> 6-orbital / 12-qubit active space) plus the
H2/H4/LiH example systems.

Data layout per element: a list of shells, each
``(angular_momentum, [exponents], [contraction coefficients])``.
SP shells are stored as separate s and p entries sharing exponents,
which is how the integrals code consumes them.

Primitive normalization and contracted renormalization follow the
standard Cartesian-Gaussian conventions (Helgaker et al., ch. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.chem.molecule import Molecule

__all__ = ["BasisFunction", "build_basis", "STO3G"]

# -- STO-3G data (standard published exponents/coefficients) -------------------

_S_CONTR = [0.15432897, 0.53532814, 0.44463454]
_SP_S_CONTR = [-0.09996723, 0.39951283, 0.70011547]
_SP_P_CONTR = [0.15591627, 0.60768372, 0.39195739]

#: element -> list of (L, exponents, coefficients)
STO3G: Dict[str, List[Tuple[int, List[float], List[float]]]] = {
    "H": [(0, [3.42525091, 0.62391373, 0.16885540], _S_CONTR)],
    "He": [(0, [6.36242139, 1.15892300, 0.31364979], _S_CONTR)],
    "Li": [
        (0, [16.11957475, 2.93620066, 0.79465050], _S_CONTR),
        (0, [0.63628970, 0.14786010, 0.04808870], _SP_S_CONTR),
        (1, [0.63628970, 0.14786010, 0.04808870], _SP_P_CONTR),
    ],
    "Be": [
        (0, [30.16787069, 5.49511766, 1.48719276], _S_CONTR),
        (0, [1.31483311, 0.30553890, 0.09937074], _SP_S_CONTR),
        (1, [1.31483311, 0.30553890, 0.09937074], _SP_P_CONTR),
    ],
    "B": [
        (0, [48.79111318, 8.88736228, 2.40526704], _S_CONTR),
        (0, [2.23695661, 0.51982050, 0.16906180], _SP_S_CONTR),
        (1, [2.23695661, 0.51982050, 0.16906180], _SP_P_CONTR),
    ],
    "C": [
        (0, [71.61683735, 13.04509632, 3.53051216], _S_CONTR),
        (0, [2.94124940, 0.68348310, 0.22228990], _SP_S_CONTR),
        (1, [2.94124940, 0.68348310, 0.22228990], _SP_P_CONTR),
    ],
    "N": [
        (0, [99.10616896, 18.05231239, 4.88566024], _S_CONTR),
        (0, [3.78045590, 0.87849660, 0.28571440], _SP_S_CONTR),
        (1, [3.78045590, 0.87849660, 0.28571440], _SP_P_CONTR),
    ],
    "O": [
        (0, [130.70932014, 23.80886605, 6.44360831], _S_CONTR),
        (0, [5.03315132, 1.16959612, 0.38038900], _SP_S_CONTR),
        (1, [5.03315132, 1.16959612, 0.38038900], _SP_P_CONTR),
    ],
    "F": [
        (0, [166.67912940, 30.36081233, 8.21682067], _S_CONTR),
        (0, [6.46480325, 1.50228124, 0.48858850], _SP_S_CONTR),
        (1, [6.46480325, 1.50228124, 0.48858850], _SP_P_CONTR),
    ],
    "Ne": [
        (0, [207.01561000, 37.70815100, 10.20529700], _S_CONTR),
        (0, [8.24631510, 1.91626620, 0.62322930], _SP_S_CONTR),
        (1, [8.24631510, 1.91626620, 0.62322930], _SP_P_CONTR),
    ],
}


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 0:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, lmn: Tuple[int, int, int]) -> float:
    """Normalization constant of a primitive Cartesian Gaussian
    x^l y^m z^n exp(-alpha r^2)."""
    l, m, n = lmn
    L = l + m + n
    num = (2.0 * alpha / math.pi) ** 0.75 * (4.0 * alpha) ** (L / 2.0)
    den = math.sqrt(
        _double_factorial(2 * l - 1)
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
    )
    return num / den


@dataclass
class BasisFunction:
    """A contracted Cartesian Gaussian basis function.

    ``coeffs`` already include primitive normalization factors and the
    contracted-renormalization constant, so integrals code can simply
    sum over primitives with these weights.
    """

    center: Tuple[float, float, float]
    lmn: Tuple[int, int, int]
    exponents: np.ndarray
    coeffs: np.ndarray
    shell_index: int = -1
    atom_index: int = -1

    @property
    def angular_momentum(self) -> int:
        return sum(self.lmn)


def _cartesian_components(L: int) -> List[Tuple[int, int, int]]:
    """Cartesian angular-momentum triples in canonical order."""
    if L == 0:
        return [(0, 0, 0)]
    if L == 1:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    comps = []
    for l in range(L, -1, -1):
        for m in range(L - l, -1, -1):
            comps.append((l, m, L - l - m))
    return comps


def _contracted_self_overlap(
    exponents: np.ndarray, weighted: np.ndarray, lmn: Tuple[int, int, int]
) -> float:
    """<phi|phi> for a contraction with per-primitive weights (includes
    primitive norms)."""
    l, m, n = lmn
    L = l + m + n
    s = 0.0
    pref = (
        _double_factorial(2 * l - 1)
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
        * math.pi ** 1.5
    )
    for ci, ai in zip(weighted, exponents):
        for cj, aj in zip(weighted, exponents):
            p = ai + aj
            s += ci * cj * pref / (2.0 * p) ** L / p ** 1.5
    return s


def build_basis(molecule: Molecule, basis_name: str = "sto-3g") -> List[BasisFunction]:
    """Expand a molecule into a list of contracted basis functions."""
    if basis_name.lower().replace("_", "-") != "sto-3g":
        raise ValueError(f"unsupported basis {basis_name!r} (only STO-3G shipped)")
    functions: List[BasisFunction] = []
    shell_counter = 0
    for atom_idx, atom in enumerate(molecule.atoms):
        try:
            shells = STO3G[atom.symbol]
        except KeyError:
            raise ValueError(f"no STO-3G data for element {atom.symbol!r}") from None
        for L, exps, coefs in shells:
            exps_arr = np.asarray(exps, dtype=float)
            coefs_arr = np.asarray(coefs, dtype=float)
            for lmn in _cartesian_components(L):
                weighted = coefs_arr * np.array(
                    [primitive_norm(a, lmn) for a in exps_arr]
                )
                norm = _contracted_self_overlap(exps_arr, weighted, lmn)
                weighted = weighted / math.sqrt(norm)
                functions.append(
                    BasisFunction(
                        center=atom.position,
                        lmn=lmn,
                        exponents=exps_arr,
                        coeffs=weighted,
                        shell_index=shell_counter,
                        atom_index=atom_idx,
                    )
                )
            shell_counter += 1
    return functions
