"""Kraus noise channels and per-gate noise models for the density-matrix
simulation mode.

The channels are the standard NISQ error processes used when validating
VQE ansatze before hardware deployment (the paper's stated purpose for
large-scale simulation): depolarizing, amplitude damping, phase
damping, and bit/phase flip.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, List, Tuple

import numpy as np

from repro.ir.gates import Gate

__all__ = [
    "NoiseChannel",
    "DepolarizingChannel",
    "AmplitudeDampingChannel",
    "PhaseDampingChannel",
    "BitFlipChannel",
    "PhaseFlipChannel",
    "NoiseModel",
]

_I = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class NoiseChannel(ABC):
    """A CPTP map given by its Kraus operators."""

    @abstractmethod
    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        """Kraus set for a ``num_qubits``-qubit application."""

    def is_cptp(self, num_qubits: int = 1, atol: float = 1e-10) -> bool:
        """Check sum_k K^dag K = I (trace preservation)."""
        dim = 1 << num_qubits
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for k in self.kraus_operators(num_qubits):
            acc += k.conj().T @ k
        return np.allclose(acc, np.eye(dim), atol=atol)


class DepolarizingChannel(NoiseChannel):
    """Uniform depolarizing noise with error probability ``p``.

    For one qubit: rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z).
    For two qubits: the 15 non-identity Pauli pairs share p/15.
    """

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p

    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        paulis = [_I, _X, _Y, _Z]
        if num_qubits == 1:
            ops = [math.sqrt(1 - self.p) * _I]
            ops += [math.sqrt(self.p / 3) * m for m in (_X, _Y, _Z)]
            return ops
        if num_qubits == 2:
            ops = [math.sqrt(1 - self.p) * np.kron(_I, _I)]
            for i, a in enumerate(paulis):
                for j, b in enumerate(paulis):
                    if i == 0 and j == 0:
                        continue
                    ops.append(math.sqrt(self.p / 15) * np.kron(b, a))
            return ops
        raise ValueError("depolarizing channel defined for 1 or 2 qubits")


class AmplitudeDampingChannel(NoiseChannel):
    """T1 relaxation with damping probability ``gamma``."""

    def __init__(self, gamma: float):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        self.gamma = gamma

    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        if num_qubits != 1:
            raise ValueError("amplitude damping is a single-qubit channel")
        k0 = np.array([[1, 0], [0, math.sqrt(1 - self.gamma)]], dtype=np.complex128)
        k1 = np.array([[0, math.sqrt(self.gamma)], [0, 0]], dtype=np.complex128)
        return [k0, k1]


class PhaseDampingChannel(NoiseChannel):
    """Pure dephasing (T2) with probability ``lam``."""

    def __init__(self, lam: float):
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        self.lam = lam

    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        if num_qubits != 1:
            raise ValueError("phase damping is a single-qubit channel")
        k0 = np.array([[1, 0], [0, math.sqrt(1 - self.lam)]], dtype=np.complex128)
        k1 = np.array([[0, 0], [0, math.sqrt(self.lam)]], dtype=np.complex128)
        return [k0, k1]


class BitFlipChannel(NoiseChannel):
    """X error with probability ``p``."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p

    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        if num_qubits != 1:
            raise ValueError("bit flip is a single-qubit channel")
        return [math.sqrt(1 - self.p) * _I, math.sqrt(self.p) * _X]


class PhaseFlipChannel(NoiseChannel):
    """Z error with probability ``p``."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p

    def kraus_operators(self, num_qubits: int) -> List[np.ndarray]:
        if num_qubits != 1:
            raise ValueError("phase flip is a single-qubit channel")
        return [math.sqrt(1 - self.p) * _I, math.sqrt(self.p) * _Z]


class NoiseModel:
    """Per-gate noise attachment: after every 1q (2q) gate, apply the
    configured 1q (2q) channels on the gate's qubits."""

    def __init__(self) -> None:
        self._1q: List[NoiseChannel] = []
        self._2q: List[NoiseChannel] = []

    def add_all_qubit_channel(
        self, channel: NoiseChannel, num_qubits: int = 1
    ) -> "NoiseModel":
        if num_qubits == 1:
            self._1q.append(channel)
        elif num_qubits == 2:
            self._2q.append(channel)
        else:
            raise ValueError("channels attach to 1- or 2-qubit gates")
        return self

    def channels_after(
        self, gate: Gate
    ) -> Iterable[Tuple[NoiseChannel, Tuple[int, ...]]]:
        if gate.num_qubits == 1:
            for ch in self._1q:
                yield ch, gate.qubits
        elif gate.num_qubits == 2:
            for ch in self._2q:
                yield ch, gate.qubits
            # 1q channels also act on each qubit of a 2q gate (typical
            # device calibration convention).
            for ch in self._1q:
                for q in gate.qubits:
                    yield ch, (q,)
