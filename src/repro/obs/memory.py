"""The memory observatory: allocation ledger + capacity model.

The rest of ``repro.obs`` measures *time* — spans, counters, SLOs,
per-rank timelines.  This module measures *bytes*, the currency that
actually governs the paper's scaling story: a statevector job either
fits in the 2^n-amplitude memory wall or it does not, and at fleet
scale "will this job fit, and where?" dominates scheduling decisions.

Two halves:

* :class:`MemoryLedger` — a process-global allocation ledger every
  large buffer registers with (category, nbytes, owner span, rank):
  statevector amplitude buffers, distributed slices and exchange
  scratch, compiled-observable diagonals, execution-plan frozen data,
  cached post-ansatz states, and the serve-layer problem cache.  The
  ledger maintains live bytes, per-category/per-rank peak watermarks,
  and per-span attribution; it folds into ``RunReport`` v4 and the
  per-rank memory view of :mod:`repro.obs.perf`.  Like the tracer and
  the event bus it follows the enable/no-op discipline: when
  observability is off the instrumentation helpers in ``repro.obs``
  hand out handle 0 and every ledger call short-circuits on it.
* :func:`estimate_statevector_job_bytes` — the predictive capacity
  model: amplitudes (2^n, or the (N, S_z) sector a number-conserving
  job runs on) + workspace copies + compiled-observable passes and
  rotation-step tables.  ``repro.serve`` wraps
  it as ``estimate_job_memory(spec)`` to drive memory-aware admission
  and (time, bytes)-aware placement.

Like every ``repro.obs`` module this is a leaf: standard library only.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

__all__ = [
    "MemoryLedger",
    "estimate_statevector_job_bytes",
    "estimate_batched_group_bytes",
    "observable_bytes",
    "estimate_compiled_passes",
    "AMPLITUDE_BYTES",
    "TERM_BYTES",
    "RANK_MEMORY_GAUGE",
]

# One complex128 amplitude.
AMPLITUDE_BYTES = 16
# Gather tables are int64 indices.
_GATHER_BYTES = 8
# One packed (mask, coeff) entry of a qubit Hamiltonian's term dict.
TERM_BYTES = 96

# Per-rank peak watermark the ledger mirrors into the metrics registry,
# labelled {rank="k"} like the rank-time counters of repro.obs.perf.
RANK_MEMORY_GAUGE = "repro_rank_memory_peak_bytes"


class MemoryLedger:
    """Tracks every registered buffer: live bytes, peaks, attribution.

    ``alloc`` returns an integer handle (> 0); ``free``/``resize`` take
    it back.  Handle 0 is the no-op handle the disabled instrumentation
    path hands out — ``free(0)``/``resize(0, ...)`` return immediately,
    and unknown handles are tolerated (an object allocated before an
    ``obs.reset()`` may be garbage-collected after it).

    Invariants (property-tested in ``tests/test_memory.py``):

    * ``allocated_bytes_total - freed_bytes_total == live_bytes``
    * ``peak_bytes >= live_bytes`` at all times, per category and total
    * category live totals sum to the ledger live total
    """

    def __init__(self, gauge_hook: Optional[Callable[..., None]] = None):
        # gauge_hook(name, value, help=..., labels=...) — wired to
        # ``obs.gauge_set`` by ``repro.obs``; None keeps the ledger
        # registry-free for standalone unit tests.
        self.gauge_hook = gauge_hook
        self._lock = threading.Lock()
        self._next_handle = 1
        # handle -> (category, nbytes, rank, span)
        self._records: Dict[int, tuple] = {}
        self.live_bytes = 0
        self.peak_bytes = 0
        self.live_by_category: Dict[str, int] = {}
        self.peak_by_category: Dict[str, int] = {}
        self.live_by_rank: Dict[int, int] = {}
        self.peak_by_rank: Dict[int, int] = {}
        # cumulative bytes allocated while each span name was innermost
        self.span_bytes: Dict[str, int] = {}
        self.allocs_total = 0
        self.frees_total = 0
        self.allocated_bytes_total = 0
        self.freed_bytes_total = 0

    # -- mutation -------------------------------------------------------------

    def alloc(
        self,
        category: str,
        nbytes: int,
        rank: Optional[int] = None,
        span: str = "",
    ) -> int:
        """Register a buffer; returns its handle (always > 0)."""
        nbytes = max(0, int(nbytes))
        with self._lock:
            handle = self._next_handle
            self._next_handle += 1
            self._records[handle] = (category, nbytes, rank, span)
            self.allocs_total += 1
            self.allocated_bytes_total += nbytes
            if span:
                self.span_bytes[span] = self.span_bytes.get(span, 0) + nbytes
            self._apply(category, rank, nbytes)
        self._publish(rank)
        return handle

    def free(self, handle: int) -> int:
        """Unregister a buffer; returns the bytes released (0 for the
        no-op handle or a handle the ledger no longer knows)."""
        if not handle:
            return 0
        with self._lock:
            rec = self._records.pop(handle, None)
            if rec is None:
                return 0
            category, nbytes, rank, _ = rec
            self.frees_total += 1
            self.freed_bytes_total += nbytes
            self._apply(category, rank, -nbytes)
        self._publish(rank)
        return nbytes

    def resize(self, handle: int, nbytes: int) -> None:
        """Adjust a registered buffer to its new size (cache-style
        allocations that grow/shrink under one handle)."""
        if not handle:
            return
        nbytes = max(0, int(nbytes))
        with self._lock:
            rec = self._records.get(handle)
            if rec is None:
                return
            category, old, rank, span = rec
            delta = nbytes - old
            self._records[handle] = (category, nbytes, rank, span)
            if delta > 0:
                self.allocated_bytes_total += delta
                if span:
                    self.span_bytes[span] = self.span_bytes.get(span, 0) + delta
            else:
                self.freed_bytes_total -= delta
            self._apply(category, rank, delta)
        self._publish(rank)

    def _apply(self, category: str, rank: Optional[int], delta: int) -> None:
        self.live_bytes += delta
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        cat_live = self.live_by_category.get(category, 0) + delta
        self.live_by_category[category] = cat_live
        if cat_live > self.peak_by_category.get(category, 0):
            self.peak_by_category[category] = cat_live
        if rank is not None:
            rank_live = self.live_by_rank.get(rank, 0) + delta
            self.live_by_rank[rank] = rank_live
            if rank_live > self.peak_by_rank.get(rank, 0):
                self.peak_by_rank[rank] = rank_live

    def _publish(self, rank: Optional[int]) -> None:
        if rank is not None and self.gauge_hook is not None:
            self.gauge_hook(
                RANK_MEMORY_GAUGE,
                float(self.peak_by_rank.get(rank, 0)),
                help="Peak ledger bytes attributed to each rank",
                labels={"rank": str(rank)},
            )

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Rebase the watermarks: buffers that are still registered stay
        live (their owners outlive an ``obs.reset()``), peaks collapse
        to the current live level, and the cumulative counters restart
        so the ``allocated - freed == live`` invariant keeps holding."""
        with self._lock:
            self.live_bytes = 0
            self.live_by_category = {}
            self.live_by_rank = {}
            for category, nbytes, rank, _ in self._records.values():
                self.live_bytes += nbytes
                self.live_by_category[category] = (
                    self.live_by_category.get(category, 0) + nbytes
                )
                if rank is not None:
                    self.live_by_rank[rank] = (
                        self.live_by_rank.get(rank, 0) + nbytes
                    )
            self.peak_bytes = self.live_bytes
            self.peak_by_category = dict(self.live_by_category)
            self.peak_by_rank = dict(self.live_by_rank)
            self.span_bytes = {}
            self.allocs_total = len(self._records)
            self.frees_total = 0
            self.allocated_bytes_total = self.live_bytes
            self.freed_bytes_total = 0

    def __len__(self) -> int:
        return len(self._records)

    # -- views ----------------------------------------------------------------

    def top_spans(self, k: int = 10) -> Dict[str, int]:
        """The k spans that allocated the most cumulative bytes."""
        ranked = sorted(self.span_bytes.items(), key=lambda kv: -kv[1])
        return dict(ranked[: max(0, k)])

    def to_dict(self) -> Dict[str, Any]:
        """The ``RunReport.memory`` payload (plain JSON-able dict)."""
        with self._lock:
            return {
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
                "live_by_category": dict(sorted(self.live_by_category.items())),
                "peak_by_category": dict(sorted(self.peak_by_category.items())),
                "live_by_rank": {
                    str(k): v for k, v in sorted(self.live_by_rank.items())
                },
                "peak_by_rank": {
                    str(k): v for k, v in sorted(self.peak_by_rank.items())
                },
                "top_spans": self.top_spans(),
                "allocs_total": self.allocs_total,
                "frees_total": self.frees_total,
                "allocated_bytes_total": self.allocated_bytes_total,
                "freed_bytes_total": self.freed_bytes_total,
                "tracked_buffers": len(self._records),
            }


# -- the capacity model -------------------------------------------------------

# Measured distinct-x-mask pass counts of the compiled observable for
# the molecule families the campaign server accepts (STO-3G, no
# downfolding — the ``ProblemCache`` build path).  Passes drive the
# dominant allocation (passes * 2^n * 24 bytes), so known families use
# the measured value and only unknown widths fall back to the cubic
# fit below.
MEASURED_PASSES = {4: 2, 8: 27, 12: 84, 14: 162}


def estimate_compiled_passes(num_qubits: int) -> int:
    """Distinct x-masks of a JW-mapped chemistry Hamiltonian at width
    ``num_qubits`` — measured where known, ~n^3/17 (the one- and
    two-body excitation mask count) otherwise."""
    known = MEASURED_PASSES.get(num_qubits)
    if known is not None:
        return known
    return max(1, round(num_qubits**3 / 17))


def observable_bytes(num_qubits: int, passes: int, dim: Optional[int] = None) -> int:
    """Bytes held by a compiled observable on ``dim`` amplitudes (default
    all 2^n): one complex128 diagonal per pass plus one int64 gather
    table per non-zero x-mask."""
    dim = 1 << num_qubits if dim is None else dim
    gathers = max(0, passes - 1)  # the x=0 pass is gather-free
    return passes * AMPLITUDE_BYTES * dim + gathers * _GATHER_BYTES * dim


def estimate_statevector_job_bytes(
    num_qubits: int,
    kind: str = "vqe",
    batch_size: int = 1,
    compiled_passes: Optional[int] = None,
    generator_terms: int = 0,
    workspace_states: int = 3,
    sector_dim: Optional[int] = None,
) -> Dict[str, int]:
    """Predict the peak ledger bytes of one statevector campaign.

    Components (all scale with dim: 2^n, or ``sector_dim`` when the
    job's reference and generators close on an (N, S_z) sector, so that
    its plan, compiled observables and states hold only that sector):

    * ``amplitudes`` — the simulator's state buffer(s);
    * ``workspace`` — transient full-vector copies the evaluation hot
      path holds at once (compiled expectation's gather + product
      temporaries, the reference state, the parameter-shift scratch);
    * ``observable`` — compiled-observable diagonals + gather tables
      for the Hamiltonian (``compiled_passes`` when the caller already
      compiled, else the per-width estimate), plus one rotation step
      per ansatz generator or screened ADAPT pool operator
      (``generator_terms``): a one-byte class per amplitude, and on a
      sector an 8-byte partner as well.

    Returns the per-component breakdown plus ``total``.  Validated
    against measured ledger peaks at 8-14 qubits in
    ``tests/test_memory.py`` (±10%).
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    full = 1 << num_qubits
    dim = full if sector_dim is None else sector_dim
    passes = (
        compiled_passes
        if compiled_passes is not None
        else estimate_compiled_passes(num_qubits)
    )
    if kind == "adapt":
        # ADAPT screens a pool of candidate generators; the screening
        # path batches pool gradients through extra state copies.
        workspace_states += 1
    per_generator = 1 if dim == full else 1 + _GATHER_BYTES
    generator_bytes = max(0, generator_terms) * per_generator * dim
    breakdown = {
        "amplitudes": AMPLITUDE_BYTES * dim * max(1, batch_size),
        "workspace": AMPLITUDE_BYTES * dim * max(0, workspace_states),
        "observable": observable_bytes(num_qubits, passes, dim) + generator_bytes,
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def estimate_batched_group_bytes(
    num_qubits: int,
    group_size: int,
    kind: str = "vqe",
    compiled_passes: Optional[int] = None,
    generator_terms: int = 0,
    hamiltonians: int = 1,
    hamiltonian_terms: int = 0,
    **job_inputs: Any,
) -> int:
    """Peak bytes of a batch group of ``group_size`` same-plan jobs
    executing through the evaluation broker.

    The group shares ONE plan, so the amplitude block scales with the
    group: the reverse-mode sweep's (2B, 2^n) block plus the B-row
    ``H psi`` it gathers into it.  One job's workspace already holds a
    one-row sweep's three rows, so the group is one job's total plus
    ``3 (group_size - 1)`` amplitude rows.  Jobs at ``hamiltonians``
    distinct geometries each bring their own Hamiltonian: every one past
    the first adds its ``hamiltonian_terms`` term entries and its
    compiled passes.  ``job_inputs`` are further arguments of the
    one-job estimate.
    """
    single = estimate_statevector_job_bytes(
        num_qubits,
        kind=kind,
        compiled_passes=compiled_passes,
        generator_terms=generator_terms,
        **job_inputs,
    )["total"]
    extra = 3 * max(0, group_size - 1) * AMPLITUDE_BYTES * (1 << num_qubits)
    if hamiltonians > 1:
        passes = (
            compiled_passes
            if compiled_passes is not None
            else estimate_compiled_passes(num_qubits)
        )
        per_hamiltonian = TERM_BYTES * hamiltonian_terms + observable_bytes(num_qubits, passes)
        extra += (hamiltonians - 1) * per_hamiltonian
    return int(single + extra)
