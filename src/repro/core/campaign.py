"""Checkpointed, restartable VQE/ADAPT campaigns (the recovery layer).

A multi-hour ADAPT-VQE campaign on a shared HPC system must assume it
will be interrupted: rank crashes, walltime kills, node drains.  The
``CampaignRunner`` makes the drivers in this package survivable:

* **Periodic checkpointing.**  Every save is one JSON line appended to
  a checkpoint log (:class:`CheckpointLog`) and flushed, never
  fsynced.  A line is tagged with a campaign key and a kind: ``vqe``
  (the parameter vector every ``checkpoint_period`` energy
  evaluations), ``vqe_final`` (the result, once the run ends) or
  ``adapt`` (the pool indices, parameters and per-iteration records
  every ``checkpoint_period`` iterations, on convergence and at the
  end).  Loading folds the log: the last line that parses per
  (key, kind) wins, so a kill mid-append falls back to the checkpoint
  before it.  A standalone runner owns ``<checkpoint_dir>/checkpoints.jsonl``
  under the key ``None``; the campaign server shares one log across its
  jobs, keyed by job id, and compacts it when it starts.
* **Restart-on-failure.**  An unrecoverable
  :class:`repro.hpc.faults.RankFailure` (injected by a
  ``FaultInjector`` or raised by the distributed substrate) rolls the
  campaign back to the last checkpoint and replays from there, up to
  ``max_restarts`` times; the work redone is reported so the
  checkpoint-period / lost-work tradeoff is measurable
  (``benchmarks/bench_fault_recovery.py``).
* **Distributed cross-check.**  Optionally every checkpoint is
  validated by scattering the ansatz state over a
  ``DistributedStatevector`` and recomputing the energy through the
  (fault-injected, retry-protected) ``SimComm`` — so transient
  exchange faults and their retries are exercised inside the same
  campaign whose crash recovery is being tested.

Because the fault injector, the retry jitter, and the optimizers are
all seeded/deterministic, an entire faulty campaign — crashes,
retries, rollbacks and all — replays identically, and must land on
the same final energy as the fault-free run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Collection, Dict, Hashable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.obs import events as obs_events
from repro.core.adapt import (
    AdaptIteration,
    AdaptResult,
    AdaptState,
    AdaptVQE,
    convergence_traces,
)
from repro.core.vqe import VQE, VQEResult
from repro.hpc.comm import SimComm
from repro.hpc.distributed import DistributedStatevector
from repro.hpc.faults import FaultInjector, FaultLedger, RankFailure
from repro.hpc.perfmodel import SimulatedClock
from repro.utils.files import atomic_write
from repro.utils.jsonl import KeyedLog, parse_line
from repro.utils.retry import RetryPolicy

__all__ = [
    "AdaptCampaign",
    "CampaignFailedError",
    "CheckpointSchemaError",
    "CampaignResult",
    "CampaignRunner",
    "CheckpointLog",
    "VQECampaign",
    "refuse_old_layout",
]

CHECKPOINT_LOG = "checkpoints.jsonl"
# the one-file-per-campaign checkpoints of earlier versions
_OLD_CHECKPOINT_FILES = ("vqe_params.json", "adapt_state.json")
_STATE_VERSION = 1
_VQE_KINDS = ("vqe", "vqe_final")


class CampaignFailedError(RuntimeError):
    """The campaign could not be completed within ``max_restarts``."""


class CheckpointSchemaError(ValueError):
    """A campaign checkpoint does not match the schema this version of
    the code writes — stale (older writer), future (newer writer), or
    structurally broken.  Raised instead of a raw ``KeyError`` /
    ``TypeError`` so callers can distinguish "wrong format" from
    "corrupt file" and tell the operator what to do."""


def refuse_old_layout(*paths: str) -> None:
    """Refuse a directory that holds state in the file-per-job layout of
    an earlier version (any of ``paths`` exists): this version would not
    read it and would silently recompute its jobs."""
    for path in paths:
        if os.path.exists(path):
            raise CheckpointSchemaError(
                f"{path!r} is state in the file-per-job layout of an earlier "
                "repro, which this version does not read; drain that directory "
                "with the version that wrote it, or start from a fresh one"
            )


def _check_schema_version(payload: dict, where: str) -> None:
    """Reject checkpoints written by a different schema version with an
    actionable message."""
    version = payload.get("version")
    if not isinstance(version, int):
        raise CheckpointSchemaError(
            f"{where} has no integer 'version' field — "
            "not a repro campaign checkpoint, or written before versioning"
        )
    if version < _STATE_VERSION:
        raise CheckpointSchemaError(
            f"stale {where}: version {version} < "
            f"supported {_STATE_VERSION}; re-run the campaign from scratch "
            "or migrate the checkpoint"
        )
    if version > _STATE_VERSION:
        raise CheckpointSchemaError(
            f"{where} is from a newer repro (version "
            f"{version} > supported {_STATE_VERSION}); upgrade this "
            "installation to resume it"
        )


def _require_fields(payload: dict, fields: Sequence[str], where: str) -> None:
    missing = [f for f in fields if f not in payload]
    if missing:
        raise CheckpointSchemaError(
            f"{where} is missing required field(s) "
            f"{missing} — truncated write or incompatible schema"
        )


@dataclass
class CampaignResult:
    """A converged campaign plus its recovery bookkeeping.

    ``report`` is a :class:`repro.obs.RunReport` when observability was
    enabled for the campaign, else ``None``.
    """

    result: Union[AdaptResult, VQEResult]
    restarts: int
    checkpoints_written: int
    iterations_recomputed: int
    resumed_from: Optional[int]
    fault_ledger: Optional[FaultLedger]
    simulated_backoff_s: float = 0.0
    report: Optional[object] = None

    @property
    def energy(self) -> float:
        return self.result.energy


def _line_key(line: Dict[str, Any]) -> Hashable:
    return line["key"], line["kind"]


class CheckpointLog(KeyedLog):
    """The append-only checkpoint log of any number of campaigns: one
    ``{"key", "kind", "state"}`` line per save, folded by (key, kind)
    with the last line that parses winning.  Only line offsets are held
    in memory."""

    KINDS = ("vqe", "vqe_final", "adapt")

    def __init__(self, path: str):
        super().__init__(path, _line_key)

    def has(self, key: Optional[str]) -> bool:
        """Whether the campaign ``key`` has saved anything."""
        return any((key, kind) in self for kind in self.KINDS)

    def forget_campaign(self, key: Optional[str]) -> None:
        """Drop a finished campaign from the in-memory fold."""
        for kind in self.KINDS:
            self.forget((key, kind))

    def latest(self, key: Optional[str], kinds: Sequence[str]) -> Optional[str]:
        """Which of ``kinds`` the campaign ``key`` saved last, if any."""
        found = [(self.location((key, kind)), kind) for kind in kinds]
        return max(((loc, kind) for loc, kind in found if loc is not None), default=(0, None))[1]

    def load(self, key: Optional[str], kinds: Sequence[str]) -> Optional[dict]:
        """The state on the campaign's latest line of any of ``kinds``
        (``None`` if it has none), checked against the schema version."""
        if self.unreadable:
            raise ValueError(
                f"corrupt campaign checkpoint {self.path!r}: no line parses as JSON"
            )
        kind = self.latest(key, kinds)
        if kind is None:
            return None
        where = f"campaign checkpoint {self.path!r} (key {key!r}, kind {kind!r})"
        line = self.get((key, kind))
        if line is None:
            raise ValueError(f"corrupt {where}: its line no longer parses")
        state = line.get("state")
        if not isinstance(state, dict):
            raise CheckpointSchemaError(f"{where} is not a JSON object")
        _check_schema_version(state, where)
        return state

    def save(self, key: Optional[str], kind: str, state: dict) -> None:
        self.append({"key": key, "kind": kind, "state": state})

    @staticmethod
    def compact(path: str, keep: Collection[str]) -> None:
        """Rewrite the log at ``path``, atomically, to the last line that
        parses of each campaign key in ``keep``; skipped when every line
        is kept.  Lines are read from the end, and only until every key
        of ``keep`` has its line."""
        try:
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        last: Dict[str, int] = {}  # key -> index of its last line
        for k in range(len(lines) - 1, -1, -1):
            if len(last) == len(keep):
                break
            line = parse_line(lines[k])
            key = line.get("key") if isinstance(line, dict) else None
            if isinstance(key, str) and key in keep:
                last.setdefault(key, k)
        if len(last) < len(lines):
            kept = sorted(last.values())
            atomic_write(path, "".join(lines[k].decode() + "\n" for k in kept))


class CampaignRunner:
    """Drives a VQE or ADAPT-VQE run with checkpoint/restart semantics.

    Parameters
    ----------
    checkpoint_dir:
        Where campaign state lives: the runner saves to and resumes from
        ``<checkpoint_dir>/checkpoints.jsonl`` under the key ``None``.
        Re-running a ``CampaignRunner`` over a directory holding a
        previous (partial) campaign resumes it — that is the
        batch-queue walltime-kill story.
    checkpoint_period:
        Checkpoint every N ADAPT iterations (or every N VQE energy
        evaluations).  Small N = little lost work but more I/O; the
        Young/Daly analysis in ``repro.hpc.perfmodel`` quantifies the
        tradeoff.
    max_restarts:
        Rank failures tolerated before :class:`CampaignFailedError`.
    fault_injector:
        Optional deterministic fault source (campaign-scope crashes
        consult it each iteration; the distributed cross-check routes
        comm-scope faults through it too).
    retry_policy:
        Retry policy for the distributed cross-check's communicator.
    distributed_ranks:
        If set, every checkpoint is cross-validated on a
        ``DistributedStatevector`` over this many simulated ranks.
    log, key:
        Instead of ``checkpoint_dir``: a :class:`CheckpointLog` that the
        caller shares between campaigns (and closes), and this
        campaign's key in it.
    """

    def __init__(
        self,
        checkpoint_dir: Optional[str] = None,
        checkpoint_period: int = 1,
        max_restarts: int = 3,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        distributed_ranks: Optional[int] = None,
        crosscheck_tolerance: float = 1e-8,
        log: Optional[CheckpointLog] = None,
        key: Optional[str] = None,
    ):
        if checkpoint_period < 1:
            raise ValueError("checkpoint_period must be >= 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if (checkpoint_dir is None) == (log is None):
            raise ValueError("give a CampaignRunner checkpoint_dir or log, not both")
        self.checkpoint_period = checkpoint_period
        self.max_restarts = max_restarts
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.distributed_ranks = distributed_ranks
        self.crosscheck_tolerance = crosscheck_tolerance
        self.clock = SimulatedClock()
        self.checkpoints_written = 0
        self._crosscheck_comm: Optional[SimComm] = None
        self._owns_log = log is None
        if log is None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            refuse_old_layout(
                *(os.path.join(checkpoint_dir, name) for name in _OLD_CHECKPOINT_FILES)
            )
            log = CheckpointLog(os.path.join(checkpoint_dir, CHECKPOINT_LOG))
        self.log, self.key = log, key
        if obs.enabled():
            # simulated-time span attributes follow the campaign clock
            obs.set_clock(self.clock)

    # -- ADAPT campaigns ----------------------------------------------------------

    def run_adapt(self, adapt: AdaptVQE, verbose: bool = False) -> CampaignResult:
        """Run (or resume) an ADAPT-VQE campaign to convergence."""
        try:
            return self._run_adapt(adapt, verbose)
        finally:
            self.close()

    def _run_adapt(self, adapt: AdaptVQE, verbose: bool) -> CampaignResult:
        t_start = time.perf_counter()
        st = self._load_adapt_state(adapt)
        resumed_from = st.iteration if st is not None else None
        if st is None:
            st = adapt.initial_state()
        restarts = 0
        recomputed = 0
        while not st.converged and st.iteration < adapt.max_iterations:
            try:
                with obs.span(
                    "campaign.iteration", iteration=st.iteration + 1
                ):
                    if self.fault_injector is not None:
                        # the crash lands *mid-iteration*: the step's work
                        # is lost and the campaign rolls back
                        self.fault_injector.check_campaign_faults(st.iteration + 1)
                    adapt.step(st, verbose=verbose)
                    self._adapt_checkpoint(adapt, st)
            except RankFailure as err:
                restarts += 1
                obs_events.emit(
                    "campaign.restart",
                    kind="adapt",
                    restart=restarts,
                    reason=str(err),
                )
                if restarts > self.max_restarts:
                    raise CampaignFailedError(
                        f"gave up after {restarts} rank failures (last: {err})"
                    ) from err
                failed_at = st.iteration + 1
                st = self._load_adapt_state(adapt) or adapt.initial_state()
                recomputed += failed_at - 1 - st.iteration
                if verbose:
                    print(
                        f"[campaign] {err}; rolled back to iteration "
                        f"{st.iteration}, restart {restarts}/{self.max_restarts}"
                    )
        campaign_result = self._finish_adapt(adapt, st, restarts, recomputed, resumed_from)
        if obs.enabled():
            campaign_result.report = self._collect_report(
                kind="adapt_campaign",
                result=campaign_result,
                convergence=convergence_traces(campaign_result.result.iterations),
                flight=adapt.flight.to_dict(),
                wall_time_s=time.perf_counter() - t_start,
            )
        return campaign_result

    def _collect_report(
        self,
        kind: str,
        result: "CampaignResult",
        convergence: Optional[dict],
        wall_time_s: float,
        flight: Optional[dict] = None,
    ):
        """Aggregate campaign-level telemetry into one RunReport."""
        return obs.collect_report(
            meta={
                "kind": kind,
                "energy": result.energy,
                "restarts": result.restarts,
                "checkpoints_written": result.checkpoints_written,
                "iterations_recomputed": result.iterations_recomputed,
                "resumed_from": result.resumed_from,
                "simulated_backoff_s": result.simulated_backoff_s,
            },
            comm_stats=self.comm_stats,
            fault_ledger=(
                self.fault_injector.ledger if self.fault_injector else None
            ),
            convergence=convergence,
            flight=flight,
            wall_time_s=wall_time_s,
        )

    # -- the ADAPT checkpoint rule, shared by run_adapt and AdaptCampaign --------

    def _adapt_checkpoint(self, adapt: AdaptVQE, st: AdaptState) -> None:
        """After a growth iteration: save (and cross-check) when the run
        converged or every ``checkpoint_period`` iterations."""
        if st.converged or st.iteration % self.checkpoint_period == 0:
            self._save_adapt_state(st)
            self._distributed_crosscheck(adapt, st)

    def _finish_adapt(self, adapt: AdaptVQE, st: AdaptState, restarts: int, recomputed: int,
                      resumed_from: Optional[int]) -> CampaignResult:
        """The final save, and the campaign's result."""
        self._save_adapt_state(st)
        return self._campaign_result(adapt.result(st), restarts, recomputed, resumed_from)

    def _campaign_result(self, result, restarts, recomputed, resumed_from) -> CampaignResult:
        ledger = self.fault_injector.ledger if self.fault_injector else None
        return CampaignResult(result, restarts, self.checkpoints_written, recomputed,
                              resumed_from, ledger, self.clock.now)

    def _save_adapt_state(self, st: AdaptState) -> None:
        payload = {
            "version": _STATE_VERSION,
            "iteration": st.iteration,
            "chosen_indices": list(st.chosen_indices),
            "parameters": [float(x) for x in st.parameters],
            "energy": st.energy,
            "converged": st.converged,
            "records": [
                {
                    "iteration": r.iteration,
                    "selected_label": r.selected_label,
                    "max_gradient": r.max_gradient,
                    "energy": r.energy,
                    "error_vs_reference": r.error_vs_reference,
                    "num_parameters": r.num_parameters,
                }
                for r in st.records
            ],
        }
        with obs.span("campaign.checkpoint", iteration=st.iteration):
            if obs.enabled():
                # snapshot telemetry alongside the state (ignored by the
                # loader; purely for post-mortem inspection)
                payload["report"] = obs.collect_report(
                    meta={"kind": "adapt_checkpoint", "iteration": st.iteration},
                    fault_ledger=(
                        self.fault_injector.ledger if self.fault_injector else None
                    ),
                    convergence=convergence_traces(st.records),
                ).to_dict()
            self.log.save(self.key, "adapt", payload)
        self.checkpoints_written += 1

    def _load_adapt_state(self, adapt: AdaptVQE) -> Optional[AdaptState]:
        payload = self.log.load(self.key, ("adapt",))
        if payload is None:
            return None
        where = self._where()
        _require_fields(
            payload,
            ("iteration", "chosen_indices", "parameters", "energy",
             "records", "converged"),
            where,
        )
        chosen = [int(k) for k in payload["chosen_indices"]]
        if any(k < 0 or k >= len(adapt.pool) for k in chosen):
            raise ValueError(
                "campaign checkpoint references operators outside the pool "
                "(wrong pool for this checkpoint?)"
            )
        params = np.asarray(payload["parameters"], dtype=float)
        if params.shape != (len(chosen),):
            raise ValueError("campaign checkpoint parameter/operator count mismatch")
        try:
            records = [AdaptIteration(**r) for r in payload["records"]]
        except TypeError as err:
            raise CheckpointSchemaError(
                f"{where} has an incompatible iteration-record layout: {err}"
            ) from err
        st = AdaptState(
            iteration=int(payload["iteration"]),
            chosen_indices=chosen,
            parameters=params,
            energy=float(payload["energy"]),
            records=records,
            converged=bool(payload["converged"]),
        )
        return st

    # -- distributed cross-check --------------------------------------------------

    def _distributed_crosscheck(self, adapt: AdaptVQE, st: AdaptState) -> None:
        """Recompute the checkpointed energy on the distributed backend
        (through the fault-injected, retry-protected communicator) and
        insist it agrees with the dense driver."""
        if self.distributed_ranks is None:
            return
        n = adapt.hamiltonian.num_qubits
        if self._crosscheck_comm is None:
            self._crosscheck_comm = SimComm(
                self.distributed_ranks,
                fault_injector=self.fault_injector,
                retry_policy=self.retry_policy,
                clock=self.clock,
            )
        with obs.span(
            "campaign.crosscheck",
            iteration=st.iteration,
            ranks=self.distributed_ranks,
        ):
            dsv = DistributedStatevector(
                n, self.distributed_ranks, comm=self._crosscheck_comm
            )
            vec = (
                st.statevector
                if st.statevector is not None
                else adapt.prepare_statevector(st)
            )
            for k in range(dsv.num_ranks):
                dsv.slices[k] = np.array(
                    vec[k * dsv.local_dim : (k + 1) * dsv.local_dim],
                    dtype=np.complex128,
                )
            e_dist = dsv.expectation(adapt.hamiltonian)
        if abs(e_dist - st.energy) > self.crosscheck_tolerance:
            raise CampaignFailedError(
                f"distributed cross-check diverged: dense {st.energy:.12f} "
                f"vs distributed {e_dist:.12f}"
            )

    @property
    def comm_stats(self):
        """CommStats of the cross-check communicator (retries, bytes),
        or None if no distributed cross-check ran."""
        return self._crosscheck_comm.stats if self._crosscheck_comm else None

    # -- plain VQE campaigns ------------------------------------------------------

    def run_vqe(
        self, vqe: VQE, initial_parameters: Optional[np.ndarray] = None
    ) -> CampaignResult:
        """Run (or resume) a VQE optimization with parameter
        checkpointing every ``checkpoint_period`` energy evaluations.

        After a rank failure the optimizer restarts warm from the last
        checkpointed parameter vector — for deterministic optimizers
        this converges to the same minimum as the uninterrupted run.
        """
        t_start = time.perf_counter()
        restarts = 0
        previous_callback = vqe.evaluation_callback
        try:
            x0, resumed_from = self._vqe_start_point(initial_parameters)
            vqe.evaluation_callback = self._vqe_checkpointer(previous_callback)
            while True:
                try:
                    result = vqe.run(x0)
                    break
                except RankFailure as err:
                    restarts += 1
                    obs_events.emit(
                        "campaign.restart",
                        kind="vqe",
                        restart=restarts,
                        reason=str(err),
                    )
                    if restarts > self.max_restarts:
                        raise CampaignFailedError(
                            f"gave up after {restarts} rank failures (last: {err})"
                        ) from err
                    x0, _ = self._vqe_start_point(initial_parameters)
            campaign_result = self._finish_vqe(vqe, result, restarts, resumed_from)
        finally:
            vqe.evaluation_callback = previous_callback
            self.close()
        if obs.enabled():
            campaign_result.report = self._collect_report(
                kind="vqe_campaign",
                result=campaign_result,
                convergence={"energy": list(result.history)},
                flight=(
                    vqe.flight.to_dict() if vqe.flight is not None else None
                ),
                wall_time_s=time.perf_counter() - t_start,
            )
        return campaign_result

    # -- the VQE checkpoint rule, shared by run_vqe and VQECampaign ---------------

    def _vqe_start_point(self, initial_parameters):
        """``(x0, resumed_from)``: the last checkpointed parameters and
        their evaluation index, else ``initial_parameters`` and ``None``."""
        saved = self._load_vqe_params()
        if saved is None:
            return initial_parameters, None
        return np.asarray(saved["parameters"], dtype=float), saved["eval"]

    def _vqe_checkpointer(self, previous):
        """The evaluation callback that consults the fault injector and
        saves every ``checkpoint_period`` evaluations, then calls
        ``previous``."""

        def checkpoint_callback(idx: int, params: np.ndarray, energy: float) -> None:
            if self.fault_injector is not None:
                self.fault_injector.check_campaign_faults(idx)
            if idx % self.checkpoint_period == 0:
                self._save_vqe_params(params, energy, idx)
            if previous is not None:
                previous(idx, params, energy)

        return checkpoint_callback

    def _finish_vqe(
        self, vqe: VQE, result: VQEResult, restarts: int, resumed_from: Optional[int]
    ) -> CampaignResult:
        """The final save, and the campaign's result."""
        self._save_vqe_params(
            result.optimal_parameters,
            result.energy,
            vqe.num_evaluations,
            final={"iterations": int(result.num_iterations), "converged": bool(result.converged)},
        )
        return self._campaign_result(result, restarts, 0, resumed_from)

    def _saved_vqe_result(self, vqe: VQE) -> Optional[VQEResult]:
        """The run's result, when the campaign's latest VQE line is its
        final save (the run ended; a kill may have come before its
        caller recorded that)."""
        if self.log.latest(self.key, _VQE_KINDS) != "vqe_final":
            return None
        state = self._load_vqe_params()
        return VQEResult(
            energy=float(state["energy"]),
            optimal_parameters=np.asarray(state["parameters"], dtype=float),
            history=[],
            num_function_evaluations=int(state["eval"]),
            num_iterations=int(state["iterations"]),
            converged=bool(state["converged"]),
            mode=vqe.mode,
        )

    def close(self) -> None:
        """Close the checkpoint log if this runner opened it (a shared
        log is its owner's to close); the next save reopens it."""
        if self._owns_log:
            self.log.close()

    def _where(self) -> str:
        """This campaign's checkpoint, as error messages name it."""
        return f"campaign checkpoint {self.log.path!r} (key {self.key!r})"

    def _save_vqe_params(
        self,
        params: np.ndarray,
        energy: float,
        eval_index: int,
        final: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one checkpoint line: an evaluation's, or the final save
        of the run's result (``final`` holds its further fields)."""
        payload = {
            "version": _STATE_VERSION,
            "parameters": [float(x) for x in np.atleast_1d(params)],
            "energy": float(energy),
            "eval": int(eval_index),
            **(final or {}),
        }
        with obs.span("campaign.checkpoint", eval=eval_index):
            self.log.save(self.key, "vqe" if final is None else "vqe_final", payload)
        self.checkpoints_written += 1

    def _load_vqe_params(self) -> Optional[dict]:
        """The latest VQE line, an evaluation's or the final save."""
        payload = self.log.load(self.key, _VQE_KINDS)
        if payload is not None:
            _require_fields(payload, ("parameters", "energy", "eval"), self._where())
        return payload


class _AskTell:
    """The campaigns' ask/tell core: loop ``x = campaign.ask()``, evaluate
    energy and gradient at ``x`` on ``campaign.plan`` and
    ``campaign.observable``, ``campaign.tell(value, gradient)``, until
    ``ask()`` gives ``None``.  One L-BFGS run at a time; ``_ended`` takes
    each finished run.  An exception from ``ask`` or ``tell`` ends the
    campaign; its caller retries from the last checkpoint after
    :meth:`close`."""

    plan = observable = _state = None
    result: Optional[CampaignResult] = None

    def _begin(self, state) -> None:
        self._state, self._history, self._x = state, [], None

    def ask(self) -> Optional[np.ndarray]:
        """The next parameter row to evaluate, or ``None``."""
        self._x = None if self._state is None else self._state.ask()
        return self._x

    def tell(self, value: float, gradient: np.ndarray) -> None:
        """Energy and gradient at the row :meth:`ask` gave."""
        self._history.append(float(value))
        self._state.tell(value, gradient)
        if self._state.done:
            state, self._state = self._state, None
            self._ended(state.result(self._history))

    def close(self) -> None:
        """Release what the campaign holds open."""
        self.runner.close()


class VQECampaign(_AskTell):
    """A chemistry-mode VQE campaign: the VQE's L-BFGS on its
    objective's plan, resumed from and checkpointed to the runner's log
    as :meth:`CampaignRunner.run_vqe` does.  The tell that ends the run
    makes the final save and sets ``result`` (a :class:`CampaignResult`
    without a report); a campaign whose latest line is its final save
    has ``result`` set at once, from that save."""

    def __init__(
        self,
        runner: CampaignRunner,
        vqe: VQE,
        initial_parameters: Optional[np.ndarray] = None,
    ):
        if vqe.objective is None:
            raise ValueError("an ask/tell VQE campaign runs a chemistry-mode VQE")
        self.runner = runner
        self.vqe = vqe
        self.plan = vqe.objective.plan
        self.observable = vqe.hamiltonian
        x0, self.resumed_from = runner._vqe_start_point(initial_parameters)
        self._previous_callback = vqe.evaluation_callback
        done = runner._saved_vqe_result(vqe)
        if done is not None:  # ended before a kill: no row to ask
            self.result = runner._campaign_result(done, 0, 0, self.resumed_from)
            return
        vqe.evaluation_callback = runner._vqe_checkpointer(self._previous_callback)
        self._begin(vqe.begin(x0))

    def tell(self, value: float, gradient: np.ndarray) -> None:
        self.vqe.record(self._x, float(value))
        super().tell(value, gradient)

    def _ended(self, res) -> None:
        try:
            result = self.vqe.result(res)
            self.result = self.runner._finish_vqe(self.vqe, result, 0, self.resumed_from)
        finally:
            self.close()

    def close(self) -> None:
        """Restore the VQE's callback and release the checkpoint log."""
        self.vqe.evaluation_callback = self._previous_callback
        super().close()


class AdaptCampaign(_AskTell):
    """An ADAPT-VQE campaign, resumed from and checkpointed to the
    runner's log as :meth:`CampaignRunner.run_adapt` does.  A
    growth iteration is :meth:`AdaptVQE.grow` (``plan`` becomes the grown
    ansatz's), an ask/tell run of the ADAPT optimizer (an
    :class:`~repro.opt.lbfgs.LBFGSB`) from the warm start, and
    :meth:`AdaptVQE.settle`; ``ask()`` then gives ``None`` once, so each
    pump until ``None`` grows one iteration.  ``result`` is set only when
    the run converges or reaches ``max_iterations``."""

    def __init__(self, runner: CampaignRunner, adapt: AdaptVQE):
        self.runner = runner
        self.adapt = adapt
        self.observable = adapt.hamiltonian
        st = runner._load_adapt_state(adapt)
        self.resumed_from = st.iteration if st is not None else None
        self.state = st or adapt.initial_state()
        self._settled = False

    def ask(self) -> Optional[np.ndarray]:
        if self._settled:  # the caller's turn ends with the iteration
            self._settled = False
        elif self._state is None and self.result is None:
            self._advance()
        return super().ask()

    def _advance(self) -> None:
        """Start the next growth iteration or, once the run has
        converged or reached ``max_iterations``, make the final save and
        set ``result``."""
        adapt, st = self.adapt, self.state
        if not st.converged and st.iteration < adapt.max_iterations:
            self._growth = adapt.grow(st)
            if self._growth is not None:
                self.plan = self._growth.objective.plan
                self._begin(adapt.optimizer.start(self._growth.x0))
                return
            self.runner._adapt_checkpoint(adapt, st)
        try:
            self.result = self.runner._finish_adapt(adapt, st, 0, 0, self.resumed_from)
        finally:
            self.close()

    def _ended(self, res) -> None:
        self.adapt.settle(self.state, self._growth, res)
        self.runner._adapt_checkpoint(self.adapt, self.state)
        if self.state.converged or self.state.iteration >= self.adapt.max_iterations:
            self._advance()
        else:
            self._settled = True
