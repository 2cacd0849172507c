"""Tests for the Gaussian-integral engine, SCF, and MP2 against known
reference values and structural invariants.

The scalar McMurchie-Davidson routines below (one primitive pair or
quartet per call, recursion per Hermite index) are the implementation
``repro.chem.integrals`` shipped before it was rewritten over arrays;
they are kept here, arithmetic untouched, as the oracle the array
engine is compared against.  Their Boys function is scipy's ``hyp1f1``,
which the engine no longer uses.
"""

import math
from typing import Dict, Sequence, Tuple

import numpy as np
import pytest
from scipy.special import gamma, gammainc, hyp1f1

from repro.chem.basis import build_basis, primitive_norm
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.integrals import (
    HermitePairs,
    _boys,
    _hermite_coulomb as array_hermite_coulomb,
    boys,
    core_hamiltonian,
    eri_tensor,
    kinetic_matrix,
    nuclear_attraction_matrix,
    overlap_matrix,
)
from repro.chem.mo import transform_to_mo
from repro.chem.molecule import Atom, Molecule, h2, h2o, h4_chain, lih
from repro.chem.mp2 import run_mp2
from repro.chem.scf import run_rhf

# -- scalar oracle ------------------------------------------------------------


def _boys_hyp1f1(n, x):
    """F_n(x) = 1F1(n + 1/2; n + 3/2; -x) / (2n + 1)."""
    return hyp1f1(n + 0.5, n + 1.5, -np.asarray(x, dtype=float)) / (2 * n + 1)


def _hermite_e(
    i: int, j: int, t: int, Qx: float, a: float, b: float, memo: Dict
) -> float:
    """Hermite expansion coefficient E_t^{ij} for a 1-D Gaussian product."""
    if t < 0 or t > i + j:
        return 0.0
    key = (i, j, t)
    if key in memo:
        return memo[key]
    p = a + b
    q = a * b / p
    if i == j == t == 0:
        val = math.exp(-q * Qx * Qx)
    elif j == 0:
        val = (
            (1.0 / (2.0 * p)) * _hermite_e(i - 1, j, t - 1, Qx, a, b, memo)
            - (q * Qx / a) * _hermite_e(i - 1, j, t, Qx, a, b, memo)
            + (t + 1) * _hermite_e(i - 1, j, t + 1, Qx, a, b, memo)
        )
    else:
        val = (
            (1.0 / (2.0 * p)) * _hermite_e(i, j - 1, t - 1, Qx, a, b, memo)
            + (q * Qx / b) * _hermite_e(i, j - 1, t, Qx, a, b, memo)
            + (t + 1) * _hermite_e(i, j - 1, t + 1, Qx, a, b, memo)
        )
    memo[key] = val
    return val


def _overlap_prim(
    a: float,
    lmn1: Tuple[int, int, int],
    A: Sequence[float],
    b: float,
    lmn2: Tuple[int, int, int],
    B: Sequence[float],
) -> float:
    """<prim_a | prim_b> for unnormalized primitives."""
    p = a + b
    s = (math.pi / p) ** 1.5
    for d in range(3):
        memo: Dict = {}
        s *= _hermite_e(lmn1[d], lmn2[d], 0, A[d] - B[d], a, b, memo)
    return s


def _kinetic_prim(
    a: float,
    lmn1: Tuple[int, int, int],
    A: Sequence[float],
    b: float,
    lmn2: Tuple[int, int, int],
    B: Sequence[float],
) -> float:
    """Kinetic-energy integral via overlap integrals of shifted momenta."""
    l2, m2, n2 = lmn2

    def S(d_lmn2: Tuple[int, int, int]) -> float:
        if min(d_lmn2) < 0:
            return 0.0
        return _overlap_prim(a, lmn1, A, b, d_lmn2, B)

    term0 = b * (2 * (l2 + m2 + n2) + 3) * S((l2, m2, n2))
    term1 = -2.0 * b * b * (
        S((l2 + 2, m2, n2)) + S((l2, m2 + 2, n2)) + S((l2, m2, n2 + 2))
    )
    term2 = -0.5 * (
        l2 * (l2 - 1) * S((l2 - 2, m2, n2))
        + m2 * (m2 - 1) * S((l2, m2 - 2, n2))
        + n2 * (n2 - 1) * S((l2, m2, n2 - 2))
    )
    return term0 + term1 + term2


def _hermite_coulomb(
    t: int,
    u: int,
    v: int,
    n: int,
    p: float,
    PC: np.ndarray,
    memo: Dict,
) -> float:
    """Hermite Coulomb integral R^n_{tuv}(p, P - C)."""
    key = (t, u, v, n)
    if key in memo:
        return memo[key]
    if t == u == v == 0:
        r2 = float(PC @ PC)
        val = (-2.0 * p) ** n * float(_boys_hyp1f1(n, p * r2))
    elif t > 0:
        val = (t - 1) * _hermite_coulomb(t - 2, u, v, n + 1, p, PC, memo) if t > 1 else 0.0
        val += PC[0] * _hermite_coulomb(t - 1, u, v, n + 1, p, PC, memo)
    elif u > 0:
        val = (u - 1) * _hermite_coulomb(t, u - 2, v, n + 1, p, PC, memo) if u > 1 else 0.0
        val += PC[1] * _hermite_coulomb(t, u - 1, v, n + 1, p, PC, memo)
    else:
        val = (v - 1) * _hermite_coulomb(t, u, v - 2, n + 1, p, PC, memo) if v > 1 else 0.0
        val += PC[2] * _hermite_coulomb(t, u, v - 1, n + 1, p, PC, memo)
    memo[key] = val
    return val


def _nuclear_prim(
    a: float,
    lmn1: Tuple[int, int, int],
    A: np.ndarray,
    b: float,
    lmn2: Tuple[int, int, int],
    B: np.ndarray,
    C: np.ndarray,
) -> float:
    """<prim_a| 1/|r - C| |prim_b> (positive; caller applies -Z)."""
    p = a + b
    P = (a * A + b * B) / p
    e_memos = [{}, {}, {}]
    r_memo: Dict = {}
    total = 0.0
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    for t in range(l1 + l2 + 1):
        Et = _hermite_e(l1, l2, t, A[0] - B[0], a, b, e_memos[0])
        if Et == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            Eu = _hermite_e(m1, m2, u, A[1] - B[1], a, b, e_memos[1])
            if Eu == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                Ev = _hermite_e(n1, n2, v, A[2] - B[2], a, b, e_memos[2])
                if Ev == 0.0:
                    continue
                total += Et * Eu * Ev * _hermite_coulomb(
                    t, u, v, 0, p, P - C, r_memo
                )
    return (2.0 * math.pi / p) * total


def _eri_prim(
    a: float, lmn1, A: np.ndarray,
    b: float, lmn2, B: np.ndarray,
    c: float, lmn3, C: np.ndarray,
    d: float, lmn4, D: np.ndarray,
) -> float:
    """Two-electron repulsion integral (ab|cd) over primitives
    (chemists' notation: electron 1 in a,b; electron 2 in c,d)."""
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    P = (a * A + b * B) / p
    Q = (c * C + d * D) / q
    e1 = [{}, {}, {}]
    e2 = [{}, {}, {}]
    r_memo: Dict = {}
    l1, m1, n1 = lmn1
    l2, m2, n2 = lmn2
    l3, m3, n3 = lmn3
    l4, m4, n4 = lmn4
    total = 0.0
    for t in range(l1 + l2 + 1):
        E1t = _hermite_e(l1, l2, t, A[0] - B[0], a, b, e1[0])
        if E1t == 0.0:
            continue
        for u in range(m1 + m2 + 1):
            E1u = _hermite_e(m1, m2, u, A[1] - B[1], a, b, e1[1])
            if E1u == 0.0:
                continue
            for v in range(n1 + n2 + 1):
                E1v = _hermite_e(n1, n2, v, A[2] - B[2], a, b, e1[2])
                if E1v == 0.0:
                    continue
                w1 = E1t * E1u * E1v
                for tau in range(l3 + l4 + 1):
                    E2t = _hermite_e(l3, l4, tau, C[0] - D[0], c, d, e2[0])
                    if E2t == 0.0:
                        continue
                    for nu in range(m3 + m4 + 1):
                        E2u = _hermite_e(m3, m4, nu, C[1] - D[1], c, d, e2[1])
                        if E2u == 0.0:
                            continue
                        for phi in range(n3 + n4 + 1):
                            E2v = _hermite_e(n3, n4, phi, C[2] - D[2], c, d, e2[2])
                            if E2v == 0.0:
                                continue
                            sign = -1.0 if (tau + nu + phi) % 2 else 1.0
                            total += (
                                w1
                                * E2t * E2u * E2v * sign
                                * _hermite_coulomb(
                                    t + tau, u + nu, v + phi, 0, alpha, P - Q, r_memo
                                )
                            )
    pref = 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
    return pref * total


def _oracle_matrix(bfs, prim_fn) -> np.ndarray:
    """Contract ``prim_fn(a, fi, b, fj)`` over the primitives of i >= j."""
    n = len(bfs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            fi, fj = bfs[i], bfs[j]
            val = 0.0
            for ci, ai in zip(fi.coeffs, fi.exponents):
                for cj, aj in zip(fj.coeffs, fj.exponents):
                    val += ci * cj * prim_fn(ai, fi, aj, fj)
            out[i, j] = out[j, i] = val
    return out


def oracle_overlap(bfs) -> np.ndarray:
    return _oracle_matrix(
        bfs,
        lambda a, fi, b, fj: _overlap_prim(a, fi.lmn, fi.center, b, fj.lmn, fj.center),
    )


def oracle_kinetic(bfs) -> np.ndarray:
    return _oracle_matrix(
        bfs,
        lambda a, fi, b, fj: _kinetic_prim(a, fi.lmn, fi.center, b, fj.lmn, fj.center),
    )


def oracle_nuclear(bfs, molecule) -> np.ndarray:
    nuclei = [(atom.atomic_number, np.asarray(atom.position)) for atom in molecule.atoms]
    return _oracle_matrix(
        bfs,
        lambda a, fi, b, fj: -sum(
            Z
            * _nuclear_prim(
                a, fi.lmn, np.asarray(fi.center), b, fj.lmn, np.asarray(fj.center), C
            )
            for Z, C in nuclei
        ),
    )


def oracle_eri(bfs) -> np.ndarray:
    """(ij|kl) per contracted quartet, 8-fold symmetry exploited."""
    n = len(bfs)
    eri = np.zeros((n, n, n, n))

    def contracted(i: int, j: int, k: int, l: int) -> float:
        fi, fj, fk, fl = bfs[i], bfs[j], bfs[k], bfs[l]
        A, B, C, D = (np.asarray(f.center) for f in (fi, fj, fk, fl))
        val = 0.0
        for ci, ai in zip(fi.coeffs, fi.exponents):
            for cj, aj in zip(fj.coeffs, fj.exponents):
                for ck, ak in zip(fk.coeffs, fk.exponents):
                    for cl, al in zip(fl.coeffs, fl.exponents):
                        val += ci * cj * ck * cl * _eri_prim(
                            ai, fi.lmn, A, aj, fj.lmn, B, ak, fk.lmn, C, al, fl.lmn, D
                        )
        return val

    for i in range(n):
        for j in range(i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(n):
                for l in range(k + 1):
                    if ij < k * (k + 1) // 2 + l:
                        continue
                    v = contracted(i, j, k, l)
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            eri[a, b, c, d] = v
                            eri[c, d, a, b] = v
    return eri


def _rigid_motion(molecule: Molecule) -> Molecule:
    """The molecule rotated by a seeded proper rotation and translated,
    so that every p function points off every axis."""
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    shift = np.array([0.3, -1.1, 0.7])
    return Molecule(
        [Atom(a.symbol, tuple(q @ np.asarray(a.position) + shift)) for a in molecule.atoms]
    )


_ORACLE_MOLECULES = {
    "h2": h2,
    "h4": h4_chain,
    "lih": lih,
    "h2o": h2o,
    "h2o-moved": lambda: _rigid_motion(h2o()),
}


class TestAgainstScalarOracle:
    """Every public integral function equals the scalar oracle to 1e-12."""

    @pytest.fixture(scope="class", params=sorted(_ORACLE_MOLECULES))
    def system(self, request):
        molecule = _ORACLE_MOLECULES[request.param]()
        return molecule, build_basis(molecule)

    def test_overlap(self, system):
        _, bfs = system
        assert np.abs(overlap_matrix(bfs) - oracle_overlap(bfs)).max() < 1e-12

    def test_kinetic(self, system):
        _, bfs = system
        assert np.abs(kinetic_matrix(bfs) - oracle_kinetic(bfs)).max() < 1e-12

    def test_nuclear_attraction_and_core(self, system):
        molecule, bfs = system
        v = oracle_nuclear(bfs, molecule)
        assert np.abs(nuclear_attraction_matrix(bfs, molecule) - v).max() < 1e-12
        h = oracle_kinetic(bfs) + v
        assert np.abs(core_hamiltonian(bfs, molecule) - h).max() < 1e-12

    def test_eri(self, system):
        _, bfs = system
        assert np.abs(eri_tensor(bfs) - oracle_eri(bfs)).max() < 1e-12

    def test_moved_water_has_p_functions_off_axis(self):
        bfs = build_basis(_ORACLE_MOLECULES["h2o-moved"]())
        s = overlap_matrix(bfs)
        # O 2p (functions 2..4) against the first H 1s: all three components
        assert np.all(np.abs(s[2:5, 5]) > 1e-3)

    def test_expanded_pairs_are_accepted_in_place_of_the_basis(self):
        molecule = h2o()
        bfs = build_basis(molecule)
        pairs = HermitePairs(bfs)
        assert np.array_equal(overlap_matrix(pairs), overlap_matrix(bfs))
        assert np.array_equal(
            core_hamiltonian(pairs, molecule), core_hamiltonian(bfs, molecule)
        )
        assert np.array_equal(eri_tensor(pairs), eri_tensor(bfs))

    def test_eri_coincident_centres(self):
        """Two functions on one centre: P - Q = 0 in every block, the
        Boys argument is exactly 0."""
        twice = Molecule([Atom("H", (0.2, 0.0, -0.4)), Atom("H", (0.2, 0.0, -0.4))])
        bfs = build_basis(twice)
        eri = eri_tensor(bfs)
        assert np.abs(eri - oracle_eri(bfs)).max() < 1e-12
        assert np.allclose(eri, eri[0, 0, 0, 0], atol=1e-12) and eri[0, 0, 0, 0] > 0


# x in [0, 60] dense, plus a log grid down to 1e-12 and up to 1e3
BOYS_GRID = np.concatenate([np.linspace(0.0, 60.0, 120_001), np.logspace(-12, 3, 3_001)])


def _relative(a, b):
    return np.abs(a - b) / np.abs(b)


class TestBoys:
    @pytest.mark.parametrize("n", range(5))
    def test_orders_the_integrals_use_match_hyp1f1(self, n):
        """Orders 0..4 (an s/p basis) to 1e-14 relative, both as the
        array ``_hermite_coulomb`` reads them and through ``boys``."""
        ref = _boys_hyp1f1(n, BOYS_GRID)
        assert _relative(_boys(n, BOYS_GRID), ref).max() <= 1e-14
        some = BOYS_GRID[::97]
        public = np.array([boys(n, x) for x in some])
        assert _relative(public, _boys_hyp1f1(n, some)).max() <= 1e-14
        if n == 0:  # R^0_000(alpha, X) = F_0(alpha |X|^2)
            X = np.stack([np.sqrt(BOYS_GRID), np.zeros_like(BOYS_GRID), np.zeros_like(BOYS_GRID)])
            assert _relative(array_hermite_coulomb((0, 0, 0), 1.0, X), ref).max() <= 1e-14

    @pytest.mark.parametrize("n", range(9))
    def test_every_order_to_1e13(self, n):
        """Orders 0..8 to 1e-13 relative.  ``hyp1f1`` itself drifts at
        high order (1.6e-13 at n = 8, x ~ 49 against 40-digit
        arithmetic), so the reference there is the better of it and the
        independent incomplete-gamma form
        F_n(x) = gamma(n + 1/2) P(n + 1/2, x) / (2 x^(n + 1/2)), which
        is within 6e-14 everywhere but loses digits at tiny x."""
        x = BOYS_GRID[BOYS_GRID > 0]
        with np.errstate(all="ignore"):
            via_gamma = gamma(n + 0.5) * gammainc(n + 0.5, x) / (2.0 * x ** (n + 0.5))
        got = _boys(n, x)
        err = np.fmin(_relative(got, _boys_hyp1f1(n, x)), _relative(got, via_gamma))
        assert err.max() <= 1e-13
        assert boys(n, 0.0) == 1.0 / (2 * n + 1)

    def test_order_outside_the_table_rejected(self):
        with pytest.raises(ValueError, match="Boys order 9"):
            boys(9, 1.0)

    def test_f0_zero(self):
        assert np.isclose(boys(0, 0.0), 1.0)

    def test_f0_analytic(self):
        # F_0(x) = sqrt(pi/(4x)) erf(sqrt(x))
        from scipy.special import erf

        for x in (0.1, 1.0, 5.0, 20.0):
            expected = 0.5 * np.sqrt(np.pi / x) * erf(np.sqrt(x))
            assert np.isclose(boys(0, x), expected, rtol=1e-10)

    def test_fn_zero(self):
        for n in range(5):
            assert np.isclose(boys(n, 0.0), 1.0 / (2 * n + 1))

    def test_downward_recursion(self):
        # F_{n}(x) = (2x F_{n+1}(x) + exp(-x)) / (2n + 1)
        x = 1.7
        for n in range(4):
            lhs = boys(n, x)
            rhs = (2 * x * boys(n + 1, x) + np.exp(-x)) / (2 * n + 1)
            assert np.isclose(lhs, rhs, rtol=1e-10)


class TestBasis:
    def test_h_has_one_function(self):
        bfs = build_basis(h2())
        assert len(bfs) == 2
        assert all(f.angular_momentum == 0 for f in bfs)

    def test_o_has_five_functions(self):
        bfs = build_basis(Molecule.from_angstrom([("O", (0, 0, 0))]))
        # 1s, 2s, 2px, 2py, 2pz
        assert len(bfs) == 5
        assert sum(1 for f in bfs if f.angular_momentum == 1) == 3

    def test_normalized_contractions(self):
        bfs = build_basis(h2o())
        s = overlap_matrix(bfs)
        assert np.allclose(np.diag(s), 1.0, atol=1e-10)

    def test_primitive_norm_s(self):
        # <g|g> = 1 for a normalized s primitive
        a = 0.8
        n = primitive_norm(a, (0, 0, 0))
        self_overlap = n * n * (np.pi / (2 * a)) ** 1.5
        assert np.isclose(self_overlap, 1.0)

    def test_unknown_element(self):
        with pytest.raises(ValueError):
            build_basis(Molecule.from_angstrom([("Na", (0, 0, 0))]))  # type: ignore

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            build_basis(h2(), "cc-pvdz")


class TestIntegralInvariants:
    @pytest.fixture(scope="class")
    def water(self):
        mol = h2o()
        bfs = build_basis(mol)
        return mol, bfs

    def test_overlap_spd(self, water):
        _, bfs = water
        s = overlap_matrix(bfs)
        assert np.allclose(s, s.T)
        assert np.min(np.linalg.eigvalsh(s)) > 0

    def test_kinetic_positive(self, water):
        _, bfs = water
        t = kinetic_matrix(bfs)
        assert np.allclose(t, t.T)
        assert np.min(np.linalg.eigvalsh(t)) > 0

    def test_nuclear_negative_diagonal(self, water):
        mol, bfs = water
        v = nuclear_attraction_matrix(bfs, mol)
        assert np.allclose(v, v.T)
        assert np.all(np.diag(v) < 0)

    def test_eri_eightfold_symmetry(self, water):
        _, bfs = water
        eri = eri_tensor(bfs)
        assert np.allclose(eri, eri.transpose(1, 0, 2, 3), atol=1e-10)
        assert np.allclose(eri, eri.transpose(0, 1, 3, 2), atol=1e-10)
        assert np.allclose(eri, eri.transpose(2, 3, 0, 1), atol=1e-10)

    def test_eri_diagonal_positive(self, water):
        _, bfs = water
        eri = eri_tensor(bfs)
        n = len(bfs)
        for i in range(n):
            assert eri[i, i, i, i] > 0


class TestSCF:
    def test_h2_energy(self):
        res = run_rhf(h2())
        assert res.converged
        assert np.isclose(res.energy, -1.116684, atol=2e-5)

    def test_h2o_energy(self):
        res = run_rhf(h2o())
        assert res.converged
        assert np.isclose(res.energy, -74.96293, atol=1e-4)

    def test_lih_energy(self):
        res = run_rhf(lih())
        assert res.converged
        # STO-3G LiH at r = 1.5949 A: about -7.862 Ha
        assert -7.90 < res.energy < -7.82

    def test_h2_virial_ballpark(self):
        """-V/T should be near 2 at equilibrium (virial theorem)."""
        res = run_rhf(h2())
        bfs = res.basis
        t = kinetic_matrix(bfs)
        n_occ = res.num_occupied
        dm = 2.0 * res.mo_coeff[:, :n_occ] @ res.mo_coeff[:, :n_occ].T
        kinetic = float(np.einsum("pq,pq->", dm, t))
        potential = res.energy - kinetic
        assert 1.5 < -potential / kinetic < 2.5

    @pytest.mark.parametrize(
        "factory, energy",
        [
            (h2, -1.116684390004),
            (lih, -7.862026961314),
            (h2o, -74.962928190590),
        ],
    )
    def test_energies_pinned_to_the_scalar_engine(self, factory, energy):
        res = run_rhf(factory())
        assert res.converged
        assert abs(res.energy - energy) < 1e-10

    @pytest.mark.parametrize(
        "factory, energy",
        [
            (h2, -1.116684390004243),
            (lih, -7.862026961314116),
            (h2o, -74.96292819059059),
        ],
    )
    def test_energies_pinned_to_the_hyp1f1_engine(self, factory, energy):
        """The numpy Boys function moves no RHF energy by more than
        1e-12 Ha from the engine that called scipy's ``hyp1f1``."""
        assert abs(run_rhf(factory()).energy - energy) < 1e-12

    def test_non_finite_coordinate_rejected_up_front(self):
        mol = Molecule([Atom("H", (0.0, 0.0, 0.0)), Atom("H", (0.0, 0.0, float("nan")))])
        with pytest.raises(ValueError, match=r"atom 1 \(H\).*non-finite"):
            run_rhf(mol)

    def test_coincident_atoms_rejected_by_name(self):
        mol = Molecule([Atom("Li", (0.0, 0.0, 1.0)), Atom("H", (0.0, 0.0, 1.0))])
        with pytest.raises(ValueError, match=r"atoms 0 \(Li\) and 1 \(H\) coincide"):
            mol.nuclear_repulsion()
        with pytest.raises(ValueError, match="coincide"):
            run_rhf(mol)

    def test_open_shell_rejected(self):
        mol = Molecule.from_angstrom([("H", (0, 0, 0))])
        with pytest.raises(ValueError):
            run_rhf(mol)

    def test_orbital_count(self):
        res = run_rhf(h2o())
        assert res.num_orbitals == 7
        assert res.num_occupied == 5

    def test_mo_orthonormal(self):
        res = run_rhf(h2o())
        c, s = res.mo_coeff, res.overlap
        assert np.allclose(c.T @ s @ c, np.eye(7), atol=1e-8)

    def test_nuclear_repulsion_h2(self):
        # Two protons at 0.7414 A = 1.40104 Bohr: 1/r = 0.7137 Ha
        assert np.isclose(h2().nuclear_repulsion(), 0.71375, atol=2e-4)


class TestMOTransformAndMP2:
    def test_mo_fock_diagonal(self):
        """In the MO basis the Fock matrix is diagonal with the orbital
        energies — an end-to-end check of the transformation."""
        res = run_rhf(h2o())
        mo = transform_to_mo(res)
        n_occ = mo.num_occupied
        f = mo.h_mo.copy()
        for p in range(mo.num_orbitals):
            for q in range(mo.num_orbitals):
                for i in range(n_occ):
                    f[p, q] += 2.0 * mo.eri_mo[p, q, i, i] - mo.eri_mo[p, i, i, q]
        assert np.allclose(f, np.diag(res.mo_energies), atol=1e-7)

    def test_hf_energy_from_mo_integrals(self):
        res = run_rhf(h2o())
        mh = build_molecular_hamiltonian(res)
        assert np.isclose(mh.hartree_fock_energy(), res.energy, atol=1e-8)

    def test_h2_mp2_energy(self):
        res = run_rhf(h2())
        mh = build_molecular_hamiltonian(res)
        mp2 = run_mp2(mh, res.mo_energies)
        # Literature H2/STO-3G MP2 correlation: about -0.01310 Ha
        assert np.isclose(mp2.correlation_energy, -0.01310, atol=3e-4)
        assert mp2.correlation_energy < 0

    def test_h2o_mp2_negative_and_bounded(self):
        res = run_rhf(h2o())
        mh = build_molecular_hamiltonian(res)
        mp2 = run_mp2(mh, res.mo_energies)
        assert -0.1 < mp2.correlation_energy < -0.01

    def test_mp2_amplitude_antisymmetry(self):
        res = run_rhf(h4_chain())
        mh = build_molecular_hamiltonian(res)
        mp2 = run_mp2(mh, res.mo_energies)
        t2 = mp2.t2
        assert np.allclose(t2, -t2.transpose(1, 0, 2, 3), atol=1e-10)
        assert np.allclose(t2, -t2.transpose(0, 1, 3, 2), atol=1e-10)
