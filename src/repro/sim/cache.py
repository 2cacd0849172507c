"""Device-memory cache of post-ansatz statevectors (paper §4.1.4).

``PostAnsatzCache`` models the memory hierarchy of §4.1.4 explicitly:
a configurable "device" capacity in bytes; states that do not fit are
spilled to "host" storage, and every access is tallied so the
device/host traffic is observable (the simulation keeps both in RAM —
the *accounting* is what the paper's design point is about).  It backs
the prefix cache of :class:`repro.sim.plan.ExecutionPlan` and the
caching estimator of :mod:`repro.core.cache`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["PostAnsatzCache"]


class PostAnsatzCache:
    """Device-memory cache of post-ansatz statevectors.

    Keys are parameter tuples (exact match — VQE optimizers re-query
    the same point for every Pauli group, which is precisely the reuse
    pattern caching exploits).  A small LRU of ``max_entries`` states
    is kept; ``device_capacity_bytes`` models the GPU-memory limit of
    §4.1.4: states beyond it are tracked as host-resident and accesses
    to them counted as spills.
    """

    def __init__(
        self,
        device_capacity_bytes: int = 4 * (1 << 30),
        max_entries: int = 4,
        mem_category: str = "post_ansatz_cache",
    ):
        self.device_capacity_bytes = device_capacity_bytes
        self.max_entries = max_entries
        self._store: Dict[Tuple[float, ...], np.ndarray] = {}
        self._order: List[Tuple[float, ...]] = []
        self._on_device: Dict[Tuple[float, ...], bool] = {}
        self.device_bytes_used = 0
        self.total_bytes = 0  # device + host resident (both live in RAM)
        self.hits = 0
        self.misses = 0
        self.host_spills = 0
        self.mem_category = mem_category
        self._mem = obs.mem_track(self, mem_category, 0)

    def _key(self, params: np.ndarray) -> Tuple[float, ...]:
        return tuple(float(p) for p in np.atleast_1d(params))

    def get(self, params: np.ndarray) -> Optional[np.ndarray]:
        key = self._key(params)
        state = self._store.get(key)
        if state is None:
            self.misses += 1
            return None
        self.hits += 1
        if not self._on_device.get(key, False):
            self.host_spills += 1  # host -> device fetch
        return state

    def put(self, params: np.ndarray, state: np.ndarray) -> None:
        key = self._key(params)
        if key in self._store:
            return
        while len(self._order) >= self.max_entries:
            evicted = self._order.pop(0)
            old = self._store.pop(evicted)
            self.total_bytes -= old.nbytes
            if self._on_device.pop(evicted, False):
                self.device_bytes_used -= old.nbytes
        fits = self.device_bytes_used + state.nbytes <= self.device_capacity_bytes
        self._store[key] = state
        self._on_device[key] = fits
        self.total_bytes += state.nbytes
        if fits:
            self.device_bytes_used += state.nbytes
        else:
            self.host_spills += 1  # device -> host spill at insert
        self._order.append(key)
        if not self._mem:  # late-bound: obs may be enabled after init
            self._mem = obs.mem_track(self, self.mem_category, 0)
        obs.mem_resize(self._mem, self.total_bytes)

    def keys(self) -> List[Tuple[float, ...]]:
        """Keys of the states held right now, oldest first."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self._store)
