"""The evaluation broker: cross-campaign batched execution.

The paper's central scaling lesson is that VQE throughput comes from
amortizing state preparation and expectation evaluation across many
concurrent evaluations, not from accelerating any single one.  Before
this module the campaign server embodied the opposite: each tick ran
one job's evaluations serially, so ten tenants optimizing the same
molecule paid for ten independent statevector sweeps.

The broker turns the server tick into a collect -> batch -> execute ->
resume cycle:

* **collect** — campaigns run in worker threads whose estimator is a
  :class:`BrokeredEstimator`.  Instead of executing plans, it
  *submits* evaluation requests (parameter rows + plan + observable +
  compatibility key) and blocks on a future.
* **batch** — the broker coordinator waits until every live worker is
  either blocked on a future or finished, then drains the pending
  requests and groups them by compatibility key
  (``JobSpec.plan_key()``: kind, molecule, basis) and plan object.
  Every geometry of a molecule runs the same plan object
  (``ProblemCache``'s UCCSD tier), so a whole scan is one group, each
  row carrying its own geometry's Hamiltonian; two different plans
  never share a group.
* **execute** — each group's parameter rows are stacked into a
  ``(B, P)`` block.  A gradient group (one row per optimizer iterate)
  runs as ONE :func:`~repro.sim.batched.reverse_value_and_gradient`
  sweep over a ``(2B, 2^n)`` block: B energies and B exact gradients,
  each distinct Hamiltonian applied once to the rows that carry it.
  A value-only group runs as one ``BatchedStatevectorSimulator.run_plan``
  sweep plus one ``expectations`` call per distinct Hamiltonian on its
  rows.
* **resume** — futures resolve, workers wake, campaigns continue to
  their next evaluation.  The coordinator fires the next wave when
  they all block again.

The wave protocol is deterministic by construction: a wave fires only
when *every* live worker has reached a decision point (blocked or
finished), so wave composition does not depend on thread scheduling.
Within a group rows are ordered by (group key, submission sequence),
and batched plan execution is row-independent, so each campaign's
energies are bit-identical regardless of who else shared its batch.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.estimator import Estimator
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.obs.memory import TERM_BYTES
from repro.sim.batched import (
    BatchedStatevectorSimulator,
    observable_rows,
    reverse_value_and_gradient,
)
from repro.sim.expectation import expectation_direct

__all__ = ["EvaluationBroker", "BrokeredEstimator", "OCCUPANCY_BUCKETS"]

# Batch-occupancy histogram buckets: rows per executed group.
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _EvalFuture:
    """Resolution slot for one submission (a block of rows).

    Its worker sleeps on the future's own event, not on the broker's
    condition, so resolving a wave of B futures wakes B threads once
    each, and a submission wakes only the coordinator."""

    __slots__ = ("_broker", "_done", "_values", "_error")

    def __init__(self, broker: "EvaluationBroker"):
        self._broker = broker
        self._done = threading.Event()
        self._values: Any = None
        self._error: Optional[BaseException] = None

    def _set(self, values, error: Optional[BaseException] = None) -> None:
        # called by the coordinator under the broker lock
        self._values = values
        self._error = error
        self._done.set()

    def result(self):
        """Block until the coordinator resolves this future: the
        submission's ``(k,)`` values, or ``((k,), (k, P))`` values and
        gradients for a gradient request.

        Registers the calling worker as *waiting* so the coordinator
        knows when every live worker has reached its decision point.
        """
        br = self._broker
        with br._cond:
            if not self._done.is_set():
                br._waiting += 1
                br._cond.notify_all()
        # _waiting is re-zeroed by the coordinator at resolve time,
        # before any waiter can observe the event
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._values  # type: ignore[return-value]


class _EvalRequest:
    __slots__ = ("seq", "group_key", "plan", "observable", "rows", "tag", "gradient", "future")

    def __init__(self, seq, group_key, plan, observable, rows, tag, gradient, future):
        self.seq = seq
        self.group_key = group_key
        self.plan = plan
        self.observable = observable
        self.rows = rows
        self.tag = tag
        self.gradient = gradient
        self.future = future


class EvaluationBroker:
    """Per-server coordinator that batches compatible evaluation
    requests from concurrent campaign workers.

    Lifecycle per tick: the server calls :meth:`worker_started` as it
    spawns each campaign worker, the workers submit through their
    :class:`BrokeredEstimator`, the server thread calls :meth:`pump`
    (which runs waves until every worker has finished), and each
    worker's wrapper calls :meth:`worker_finished` on exit.
    """

    def __init__(self, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self._cond = threading.Condition()
        self._pending: List[_EvalRequest] = []
        self._active = 0
        self._waiting = 0
        self._seq = 0
        # -- stats (coordinator-thread only; read by health snapshots)
        self.waves = 0
        self.groups_executed = 0
        self.batched_evals = 0  # rows executed in groups of >= 2 rows
        self.solo_evals = 0  # rows executed alone (group of 1)
        self.max_occupancy = 0
        self.occupancy_sum = 0

    # -- worker lifecycle -----------------------------------------------------

    def worker_started(self) -> None:
        with self._cond:
            self._active += 1
            self._cond.notify_all()

    def worker_finished(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    # -- submission (worker threads) ------------------------------------------

    def submit(
        self,
        plan,
        rows: np.ndarray,
        observable,
        group_key: str,
        tag: str = "",
        gradient: bool = False,
    ) -> _EvalFuture:
        """Enqueue a block of parameter rows for one (plan, observable).

        All rows of one submission resolve together (one future), so a
        whole finite-difference sweep joins a wave atomically.  With
        ``gradient`` every row also gets its exact gradient.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        future = _EvalFuture(self)
        with self._cond:
            self._seq += 1
            self._pending.append(
                _EvalRequest(self._seq, group_key, plan, observable, rows, tag, gradient, future)
            )
            self._cond.notify_all()
        return future

    # -- coordination (server thread) -----------------------------------------

    def pump(self) -> None:
        """Run batched waves until every registered worker finished.

        Fires a wave exactly when all still-live workers are blocked on
        futures (deterministic lockstep); returns once ``_active`` hits
        zero with nothing pending.
        """
        while True:
            with self._cond:
                while True:
                    if self._active == 0 and not self._pending:
                        return
                    if self._pending and self._waiting >= self._active:
                        break
                    # timeout guards against a missed notify; the
                    # predicate re-check is what matters
                    self._cond.wait(timeout=0.1)
                wave = self._pending
                self._pending = []
            resolved = self._execute_wave(wave)
            with self._cond:
                # every drained request's worker sits in result(); they
                # are all satisfied by this resolution, so the waiting
                # count restarts from zero before any of them wake
                self._waiting = 0
                for future, values, error in resolved:
                    future._set(values, error)
                self._cond.notify_all()

    # -- execution ------------------------------------------------------------

    def _execute_wave(
        self, wave: List[_EvalRequest]
    ) -> List[Tuple[_EvalFuture, Any, Optional[BaseException]]]:
        """Group, stack, and execute one wave; never raises — failures
        resolve the affected group's futures with the error."""
        self.waves += 1
        # deterministic grouping: order requests by (key, submission
        # seq); gradient requests form their own group, and the id()
        # component keeps two plan objects out of one block even under
        # one group key.  Observables may differ within a group: each
        # row carries its own.
        groups: Dict[Tuple[str, bool, int], List[_EvalRequest]] = {}
        for req in sorted(wave, key=lambda r: (r.group_key, r.seq)):
            gid = (req.group_key, req.gradient, id(req.plan))
            groups.setdefault(gid, []).append(req)
        resolved: List[Tuple[_EvalFuture, Any, Optional[BaseException]]] = []
        for gid in groups:
            reqs = groups[gid]
            try:
                values, grads = self._execute_group(reqs)
            except Exception as err:  # noqa: BLE001 — forwarded to workers
                resolved.extend((r.future, None, err) for r in reqs)
                continue
            offset = 0
            for req in reqs:
                part = slice(offset, offset + req.rows.shape[0])
                answer = values[part] if grads is None else (values[part], grads[part])
                resolved.append((req.future, answer, None))
                offset = part.stop
        return resolved

    def _execute_group(self, reqs: List[_EvalRequest]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The group's stacked values, and its gradients for a gradient
        group (else ``None``)."""
        plan = reqs[0].plan
        rows = np.vstack([r.rows for r in reqs])
        observables = [r.observable for r in reqs for _ in range(r.rows.shape[0])]
        total = rows.shape[0]
        if len(reqs) >= 2:
            self.batched_evals += total
        else:
            self.solo_evals += total
        self.groups_executed += 1
        self.occupancy_sum += total
        self.max_occupancy = max(self.max_occupancy, total)
        with obs.span(
            "serve.batch_group",
            rows=total,
            campaigns=len(reqs),
            num_qubits=plan.num_qubits,
        ):
            out = np.empty(total, dtype=float)
            grads = np.empty_like(rows) if reqs[0].gradient else None
            chunks = [
                slice(start, start + self.batch_size)
                for start in range(0, total, self.batch_size)
            ]
            handle = 0
            if obs.enabled():
                obs.observe(
                    "repro_serve_batch_occupancy",
                    float(total),
                    help="Evaluation rows per executed batch group",
                    buckets=OCCUPANCY_BUCKETS,
                )
                obs.inc(
                    "repro_serve_batched_evals_total"
                    if len(reqs) >= 2
                    else "repro_serve_solo_evals_total",
                    amount=float(total),
                    help="Evaluations executed through the broker",
                )
                # transient stacked rows + result buffers, priced under
                # the same ledger category as the amplitude blocks; a
                # gradient chunk of B rows also holds the sweep's
                # (2B, 2^n) block and the B-row H psi it gathers into
                # the block's lower half.  Every distinct Hamiltonian of
                # a chunk past its first is one more geometry's terms
                # and compiled passes.
                nbytes = rows.nbytes + out.nbytes + max(
                    _extra_hamiltonian_bytes(plan, observables[part]) for part in chunks
                )
                if grads is not None:
                    nbytes += grads.nbytes + 3 * min(total, self.batch_size) * 16 * plan.dim
                handle = obs.mem_alloc("serve.batch", nbytes)
            try:
                for part in chunks:
                    if grads is not None:
                        out[part], grads[part] = reverse_value_and_gradient(
                            plan, observables[part], rows[part]
                        )
                        continue
                    chunk = rows[part]
                    sim = BatchedStatevectorSimulator(
                        plan.num_qubits, len(chunk), mem_category="serve.batch"
                    )
                    sim.run_plan(plan, chunk)
                    values = out[part]
                    for observable, sub in observable_rows(observables[part], len(chunk)):
                        values[sub] = sim.expectations(observable, sub)
            finally:
                obs.mem_free(handle)
        return out, grads

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Plain-int broker counters for ``health()``/``status.json``
        (available with observability off, unlike the metric mirrors)."""
        executed = self.batched_evals + self.solo_evals
        return {
            "batch_size": self.batch_size,
            "waves": self.waves,
            "groups_executed": self.groups_executed,
            "batched_evals": self.batched_evals,
            "solo_evals": self.solo_evals,
            "max_occupancy": self.max_occupancy,
            "mean_occupancy": (
                round(self.occupancy_sum / self.groups_executed, 2)
                if self.groups_executed
                else 0.0
            ),
            "evals_total": executed,
        }


def _extra_hamiltonian_bytes(plan, observables) -> int:
    """Bytes of the distinct Hamiltonians of one chunk past its first:
    each geometry's term entries plus its observable compiled on the
    plan's index set (memoized on the ``PauliSum``, so the sweep reuses
    it)."""
    parts = observable_rows(observables, len(observables))[1:]
    return sum(
        TERM_BYTES * op.num_terms + compile_observable(op, plan.index).nbytes()
        for op, _ in parts
        if isinstance(op, PauliSum)
    )


class BrokeredEstimator(Estimator):
    """Estimator facade that forwards plan evaluations to a broker.

    Each campaign worker gets its own instance carrying the campaign's
    compatibility key (``JobSpec.plan_key()``) and a tag (the job id).
    The zero-parameter and bound-circuit paths fall back to direct local
    evaluation — they are not worth a wave.
    """

    name = "brokered"

    def __init__(self, broker: EvaluationBroker, group_key: str, tag: str = ""):
        super().__init__()
        self.broker = broker
        self.group_key = group_key
        self.tag = tag

    def estimate_plan(self, plan, params, observable) -> float:
        self.evaluations += 1
        values = self.broker.submit(
            plan,
            np.asarray(params, dtype=float)[None, :],
            observable,
            self.group_key,
            self.tag,
        ).result()
        return float(values[0])

    def estimate_plan_many(self, plan, rows, observable) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self.evaluations += rows.shape[0]
        values = self.broker.submit(
            plan, rows, observable, self.group_key, self.tag
        ).result()
        return np.asarray(values, dtype=float)

    def value_and_gradient(self, plan, params, observable):
        """One row per optimizer iterate, answered by the group's block
        reverse-mode sweep."""
        self.evaluations += 1
        values, grads = self.broker.submit(
            plan, params, observable, self.group_key, self.tag, gradient=True
        ).result()
        return float(values[0]), grads[0]

    def _evaluate(self, sim, observable) -> float:
        return expectation_direct(sim.statevector(copy=False), observable)
