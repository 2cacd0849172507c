"""The evaluation broker: cross-campaign batched execution.

The paper's central scaling lesson is that VQE throughput comes from
amortizing state preparation and expectation evaluation across many
concurrent evaluations, not from accelerating any single one.  The
broker applies it across the campaign server's running campaigns:
ten tenants optimizing the same molecule share one statevector sweep
per optimizer step instead of paying for ten.

Every campaign is an L-BFGS ask/tell state
(:class:`repro.core.campaign.VQECampaign` or ``AdaptCampaign``), and
:meth:`EvaluationBroker.pump` runs them on the calling thread, one wave
at a time, until every one has ended its turn (a VQE campaign its run,
an ADAPT campaign one growth iteration):

* **collect** — each live campaign's ``ask()``: its next parameter row.
* **group** — rows are grouped by (plan key, plan object); the plan key
  is ``JobSpec.plan_key()`` (kind, molecule, basis).  Every geometry of
  a molecule runs the same plan object (``ProblemCache``'s UCCSD sector
  plan), so a whole scan is one group, each row carrying its own
  geometry's Hamiltonian; two different plans never share a group.  An ADAPT
  campaign carries its own plan, the grown ansatz's, which changes
  with every growth iteration, so it is a group of its own.
* **execute** — each group's rows run as
  :func:`~repro.sim.batched.reverse_value_and_gradient` sweeps of at most
  ``batch_size`` rows: one ``(2B, D)`` block, ``D`` the plan's
  amplitudes (a VQE plan's (N, S_z) sector), gives B energies and B
  exact gradients, each distinct Hamiltonian applied once to the rows
  that carry it.
* **tell** — each campaign gets its row's value and gradient and moves
  on to its next ask.

Waves, groups and rows follow from the campaigns and their order alone,
and the sweep is row-wise, so each campaign's energies are bit-identical
whoever else shared its batch and whatever ``batch_size`` is.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.ir.compiled import compile_observable
from repro.ir.pauli import PauliSum
from repro.obs.memory import TERM_BYTES
from repro.sim.batched import observable_rows, reverse_value_and_gradient

__all__ = ["EvaluationBroker", "OCCUPANCY_BUCKETS"]

# Batch-occupancy histogram buckets: rows per executed sweep.
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class EvaluationBroker:
    """Per-server executor of batched evaluation waves over ask/tell
    campaigns (see the module docstring)."""

    def __init__(self, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        # -- stats (read by health snapshots)
        self.waves = 0
        # one sweep per batch_size chunk of a group; occupancy is rows
        # per sweep, so batch_size=1 runs every row solo
        self.groups_executed = 0  # sweeps executed
        self.batched_evals = 0  # rows executed in sweeps of >= 2 rows
        self.solo_evals = 0  # rows executed alone (sweep of 1)
        self.max_occupancy = 0
        self.occupancy_sum = 0

    def pump(
        self, campaigns: Sequence[Tuple[str, Any]]
    ) -> Tuple[List[Optional[Exception]], List[float]]:
        """Run waves until every campaign has ended.

        ``campaigns`` holds ``(plan_key, campaign)`` pairs; a campaign
        has ``plan``, ``observable``, ``ask()`` (a parameter row, or
        ``None`` once it has ended its turn) and ``tell(value,
        gradient)``.  Returns two lists in campaign order: the exception
        that ended each campaign — its group's sweep or its own ``ask``
        or ``tell`` raised — or ``None``; and the seconds charged to
        each campaign: its own ``ask`` and ``tell`` calls plus its
        group's sweep in every wave it took part in, so that other
        groups' sweeps in the same waves are not charged to it.
        """
        errors: List[Optional[Exception]] = [None] * len(campaigns)
        charged = [0.0] * len(campaigns)
        clock = time.perf_counter
        live = range(len(campaigns))
        while True:
            asks = []
            for i in live:
                t0 = clock()
                try:
                    x = campaigns[i][1].ask()
                except Exception as err:  # noqa: BLE001 — ends this campaign
                    errors[i], x = err, None
                charged[i] += clock() - t0
                if x is not None:
                    asks.append((i, x))
            if not asks:
                return errors, charged
            self.waves += 1
            # one group per (plan key, plan object), keys in sorted
            # order, campaigns in their given order within a group
            groups: Dict[Tuple[str, int], List[Tuple[int, np.ndarray]]] = {}
            for i, x in sorted(asks, key=lambda a: campaigns[a[0]][0]):
                key, campaign = campaigns[i]
                groups.setdefault((key, id(campaign.plan)), []).append((i, x))
            live = []
            for members in groups.values():
                group = [campaigns[i][1] for i, _ in members]
                t0 = clock()
                try:
                    values, grads = self._execute_group(group, [x for _, x in members])
                except Exception as err:  # noqa: BLE001 — ends the group's campaigns
                    sweep_s = clock() - t0
                    for i, _ in members:
                        errors[i] = err
                        charged[i] += sweep_s
                    continue
                sweep_s = clock() - t0
                for row, (i, _) in enumerate(members):
                    t0 = clock()
                    try:
                        campaigns[i][1].tell(values[row], grads[row])
                    except Exception as err:  # noqa: BLE001 — ends this campaign
                        errors[i] = err
                    else:
                        live.append(i)
                    charged[i] += sweep_s + clock() - t0
            live.sort()

    def _execute_group(
        self, group: List[Any], xs: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Values ``(B,)`` and gradients ``(B, P)`` of one group's rows."""
        plan = group[0].plan
        rows = np.vstack(xs)
        observables = [c.observable for c in group]
        total = rows.shape[0]
        with obs.span(
            "serve.batch_group", rows=total, num_qubits=plan.num_qubits
        ):
            out = np.empty(total, dtype=float)
            grads = np.empty_like(rows)
            chunks = [
                slice(start, start + self.batch_size)
                for start in range(0, total, self.batch_size)
            ]
            handle = 0
            if obs.enabled():
                # transient stacked rows + result buffers, priced under
                # the same ledger category as the amplitude blocks; a
                # chunk of B rows also holds the sweep's (2B, D) block
                # and the B-row H psi it gathers into the block's lower
                # half.  Every distinct Hamiltonian of a chunk past its
                # first is one more geometry's terms and compiled passes.
                nbytes = rows.nbytes + out.nbytes + grads.nbytes + max(
                    _extra_hamiltonian_bytes(plan, observables[part]) for part in chunks
                )
                nbytes += 3 * min(total, self.batch_size) * 16 * plan.dim
                handle = obs.mem_alloc("serve.batch", nbytes)
            try:
                for part in chunks:
                    out[part], grads[part] = reverse_value_and_gradient(
                        plan, observables[part], rows[part]
                    )
                    self._count_sweep(len(observables[part]))
            finally:
                obs.mem_free(handle)
        return out, grads

    def _count_sweep(self, rows: int) -> None:
        """Stats and metric mirrors of one executed sweep of ``rows``."""
        if rows >= 2:
            self.batched_evals += rows
        else:
            self.solo_evals += rows
        self.groups_executed += 1
        self.occupancy_sum += rows
        self.max_occupancy = max(self.max_occupancy, rows)
        if obs.enabled():
            obs.observe(
                "repro_serve_batch_occupancy",
                float(rows),
                help="Evaluation rows per executed batch sweep",
                buckets=OCCUPANCY_BUCKETS,
            )
            obs.inc(
                "repro_serve_batched_evals_total"
                if rows >= 2
                else "repro_serve_solo_evals_total",
                amount=float(rows),
                help="Evaluations executed through the broker",
            )

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
