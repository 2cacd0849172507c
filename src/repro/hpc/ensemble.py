"""Ensemble execution of VQE evaluation workloads (paper §6.2, EQC [15]).

EQC-style ensembling distributes the independent expectation-value
evaluations a single VQE step generates — the 2m parameter-shift
energies of a gradient, the members of a line search, the Pauli-group
circuits of one energy — across an ensemble of devices.  Here the
"devices" are simulated ranks: each evaluation genuinely executes (on
the single-device statevector simulator) while the LPT scheduler and
machine model track where it would run and how long the ensemble would
take, so both the numerics and the projected speedup are real outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.hpc.cluster import Machine, get_machine
from repro.hpc.faults import FaultInjector
from repro.hpc.scheduler import BatchScheduler, Job, Schedule
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.sim.expectation import expectation_direct
from repro.sim.statevector import StatevectorSimulator

__all__ = ["EnsembleResult", "EnsembleExecutor"]


@dataclass
class EnsembleResult:
    """Values plus the simulated ensemble timing."""

    values: np.ndarray
    schedule: Schedule

    @property
    def speedup(self) -> float:
        return self.schedule.speedup

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def failed_ranks(self) -> List[int]:
        return self.schedule.failed_ranks


class EnsembleExecutor:
    """Runs batches of (bound circuit, observable) evaluations over a
    simulated device ensemble."""

    def __init__(
        self,
        num_devices: int,
        machine: Union[Machine, str] = "perlmutter",
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.num_devices = num_devices
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        self.scheduler = BatchScheduler(num_devices, self.machine)
        self.fault_injector = fault_injector

    def evaluate(
        self,
        circuits: Sequence[Circuit],
        observable: PauliSum,
    ) -> EnsembleResult:
        """Expectation of ``observable`` after each circuit.

        All circuits must be bound and share the observable's width.
        """
        jobs = [
            Job.from_circuit(f"eval_{k}", c) for k, c in enumerate(circuits)
        ]
        with obs.span(
            "ensemble.evaluate", circuits=len(circuits), devices=self.num_devices
        ) as sp:
            schedule = self._schedule_with_faults(jobs)
            values = np.empty(len(circuits))
            for k, circuit in enumerate(circuits):
                sim = StatevectorSimulator(circuit.num_qubits)
                state = sim.run(circuit)
                values[k] = expectation_direct(state, observable)
        if obs.enabled():
            sp.set_attribute("makespan_s", schedule.makespan)
            sp.set_attribute("speedup", schedule.speedup)
            sp.set_attribute(
                "rank_busy_sim_s",
                {str(k): t for k, t in sorted(schedule.rank_times.items())},
            )
        return EnsembleResult(values=values, schedule=schedule)

    def _schedule_with_faults(self, jobs: Sequence[Job]) -> Schedule:
        """Plan the batch, then replay it against the fault injector:
        a rank that dies mid-batch loses its unfinished jobs, which are
        re-LPT'd onto the survivors (graceful degradation) — the
        returned schedule's makespan/speedup describe the degraded
        ensemble.  The numerics are unaffected: every evaluation still
        runs (on a survivor)."""
        injector = self.fault_injector
        if injector is None:
            return self.scheduler.schedule(jobs)
        alive = [
            k for k in range(self.num_devices) if k not in injector.crashed_ranks
        ]
        schedule = self.scheduler.schedule(jobs, available_ranks=alive)
        completed: List[str] = []
        for idx, job in enumerate(jobs):
            rank = next(
                (
                    k
                    for k, js in schedule.assignments.items()
                    if any(j.name == job.name for j in js)
                ),
                None,
            )
            if rank is None:
                continue
            dead = injector.check_batch_faults(idx, rank)
            if dead is not None and dead in schedule.assignments:
                if len(schedule.assignments) == 1:
                    raise RuntimeError(
                        "last surviving ensemble rank crashed; batch cannot "
                        "be degraded further"
                    )
                schedule = self.scheduler.reschedule_after_failure(
                    schedule, dead, completed
                )
            completed.append(job.name)
        return schedule

    def parameter_shift_gradient(
        self,
        circuit: Circuit,
        observable: PauliSum,
        params: np.ndarray,
    ) -> "tuple[np.ndarray, EnsembleResult]":
        """EQC-style distributed gradient: the 2m shifted evaluations
        are scheduled over the ensemble.  Returns (gradient, result)."""
        import math as _math

        from repro.opt.parameter_shift import _parameter_occurrences, _shift_rule_violation

        violation = _shift_rule_violation(circuit)
        if violation is not None:
            raise ValueError(f"parameter-shift rule cannot run: {violation}")
        names = circuit.parameters
        params = np.asarray(params, dtype=float)
        occ = _parameter_occurrences(circuit)
        values = dict(zip(names, params))
        shifted: List[Circuit] = []
        coeffs = np.zeros(len(names))
        for k, name in enumerate(names):
            (pref,) = occ[name]
            coeffs[k] = pref.coeff
            shift = _math.pi / (2.0 * pref.coeff) if pref.coeff else 0.0
            up = dict(values)
            up[name] = values[name] + shift
            down = dict(values)
            down[name] = values[name] - shift
            shifted.append(circuit.bind(up))
            shifted.append(circuit.bind(down))
        result = self.evaluate(shifted, observable)
        e = result.values
        grad = 0.5 * (e[0::2] - e[1::2]) * coeffs
        grad[coeffs == 0] = 0.0
        return grad, result
