"""Molecular geometry container.

Coordinates are stored in Bohr (atomic units); constructors accept
Angstrom for convenience.  Provides the nuclear-repulsion energy and
the standard test molecules used across the examples and benchmarks
(H2, H4 chain, LiH, H2O — the paper's showcase molecule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Atom", "Molecule", "ANGSTROM_TO_BOHR"]

ANGSTROM_TO_BOHR = 1.8897259886

_SYMBOL_TO_Z = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5,
    "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
}


@dataclass(frozen=True)
class Atom:
    """One nucleus: element symbol and position in Bohr."""

    symbol: str
    position: Tuple[float, float, float]

    @property
    def atomic_number(self) -> int:
        try:
            return _SYMBOL_TO_Z[self.symbol]
        except KeyError:
            raise ValueError(f"unsupported element {self.symbol!r}") from None


@dataclass
class Molecule:
    """A molecule: atoms (positions in Bohr), charge and spin multiplicity."""

    atoms: List[Atom]
    charge: int = 0
    multiplicity: int = 1

    @classmethod
    def from_angstrom(
        cls,
        spec: Sequence[Tuple[str, Tuple[float, float, float]]],
        charge: int = 0,
        multiplicity: int = 1,
    ) -> "Molecule":
        atoms = [
            Atom(sym, tuple(ANGSTROM_TO_BOHR * np.asarray(pos)))
            for sym, pos in spec
        ]
        return cls(atoms, charge, multiplicity)

    @property
    def num_electrons(self) -> int:
        return sum(a.atomic_number for a in self.atoms) - self.charge

    def nuclear_repulsion(self) -> float:
        """Sum over pairs Z_i Z_j / |R_i - R_j| (atomic units)."""
        e = 0.0
        for i, a in enumerate(self.atoms):
            for j, b in enumerate(self.atoms[i + 1:], start=i + 1):
                r = np.linalg.norm(np.asarray(a.position) - np.asarray(b.position))
                if r == 0.0:
                    raise ValueError(
                        f"atoms {i} ({a.symbol}) and {j} ({b.symbol}) coincide "
                        f"at {tuple(a.position)}"
                    )
                e += a.atomic_number * b.atomic_number / r
        return e

    def __repr__(self) -> str:
        syms = "".join(a.symbol for a in self.atoms)
        return f"Molecule({syms}, charge={self.charge}, mult={self.multiplicity})"


# -- standard geometries used by the paper's experiments ----------------------


def h2(bond_length_angstrom: float = 0.7414) -> Molecule:
    """H2 at (by default) its experimental equilibrium bond length."""
    return Molecule.from_angstrom(
        [("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, bond_length_angstrom))]
    )


def h4_chain(spacing_angstrom: float = 0.9) -> Molecule:
    """Linear H4 — a standard strongly-correlated VQE benchmark."""
    return Molecule.from_angstrom(
        [("H", (0.0, 0.0, i * spacing_angstrom)) for i in range(4)]
    )


def lih(bond_length_angstrom: float = 1.5949) -> Molecule:
    """LiH at its experimental equilibrium bond length."""
    return Molecule.from_angstrom(
        [("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, bond_length_angstrom))]
    )


def beh2(bond_angstrom: float = 1.3264) -> Molecule:
    """Linear BeH2 — a 7-orbital classic VQE benchmark."""
    return Molecule.from_angstrom(
        [
            ("Be", (0.0, 0.0, 0.0)),
            ("H", (0.0, 0.0, bond_angstrom)),
            ("H", (0.0, 0.0, -bond_angstrom)),
        ]
    )


def hydrogen_fluoride(bond_angstrom: float = 0.9168) -> Molecule:
    """HF at its experimental equilibrium bond length."""
    return Molecule.from_angstrom(
        [("F", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, bond_angstrom))]
    )


def h2o(
    oh_angstrom: float = 0.9572, angle_deg: float = 104.52
) -> Molecule:
    """Water at the experimental gas-phase geometry.

    This is the paper's showcase system: Fig. 5 runs ADAPT-VQE on the
    downfolded 6-orbital (12-qubit) active space of H2O.
    """
    half = np.deg2rad(angle_deg) / 2.0
    return Molecule.from_angstrom(
        [
            ("O", (0.0, 0.0, 0.0)),
            ("H", (0.0, oh_angstrom * np.sin(half), oh_angstrom * np.cos(half))),
            ("H", (0.0, -oh_angstrom * np.sin(half), oh_angstrom * np.cos(half))),
        ]
    )
