"""Spin operators: S_z, S+, S-, and total S^2.

Interleaved spin-orbital convention (even = alpha, odd = beta).  Used
to verify spin symmetry of simulated states: a closed-shell VQE ground
state should have <S^2> = 0 (singlet); the low-lying excited state VQD
finds for H2 is the m_s = 0 triplet component with <S^2> = 2.
"""

from __future__ import annotations

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.chem.mappings import map_fermion_operators

__all__ = ["s_z_operator", "s_plus_operator", "s_squared_operator", "spin_expectations"]


def s_z_operator(num_spatial: int) -> FermionOperator:
    """S_z = 1/2 sum_p (n_{p alpha} - n_{p beta})."""
    op = FermionOperator()
    for p in range(num_spatial):
        op = op + FermionOperator.term([(2 * p, True), (2 * p, False)], 0.5)
        op = op + FermionOperator.term(
            [(2 * p + 1, True), (2 * p + 1, False)], -0.5
        )
    return op


def s_plus_operator(num_spatial: int) -> FermionOperator:
    """S+ = sum_p a+_{p alpha} a_{p beta}."""
    op = FermionOperator()
    for p in range(num_spatial):
        op = op + FermionOperator.term([(2 * p, True), (2 * p + 1, False)], 1.0)
    return op


def s_squared_operator(num_spatial: int) -> FermionOperator:
    """S^2 = S- S+ + S_z (S_z + 1), normal ordered."""
    sp = s_plus_operator(num_spatial)
    sm = sp.dagger()
    sz = s_z_operator(num_spatial)
    identity = FermionOperator.identity(1.0)
    return (sm * sp + sz * (sz + identity)).normal_ordered()


def spin_expectations(
    state: np.ndarray, num_spatial: int
) -> "tuple[float, float]":
    """(<S_z>, <S^2>) of a JW-encoded state on 2*num_spatial qubits."""
    n_so = 2 * num_spatial
    if state.shape != (1 << n_so,):
        raise ValueError("state dimension mismatch")
    sz_q, s2_q = map_fermion_operators(
        [s_z_operator(num_spatial), s_squared_operator(num_spatial)], n_so
    )
    return (
        float(sz_q.expectation(state).real),
        float(s2_q.expectation(state).real),
    )
