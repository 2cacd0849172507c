"""Tests for the fault-injection layer: specs, ledger, retry policy,
faulty communicator, distributed execution under faults, and graceful
scheduler degradation."""

import numpy as np
import pytest

from repro.hpc.comm import SimComm
from repro.hpc.distributed import DistributedStatevector
from repro.hpc.faults import (
    FaultInjector,
    FaultSpec,
    RankFailure,
    TransientCommError,
)
from repro.hpc.perfmodel import SimulatedClock
from repro.hpc.scheduler import BatchScheduler, Job
from repro.ir.circuit import Circuit
from repro.ir.pauli import PauliSum
from repro.utils.retry import RetryExhaustedError, RetryPolicy
from tests.test_statevector import random_circuit


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike", at_step=0)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("rank_crash", at_step=0, scope="cosmic")

    def test_needs_a_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec("transient_exchange")

    def test_crash_defaults_to_single_trigger(self):
        assert FaultSpec("rank_crash", at_step=3).max_triggers == 1
        assert FaultSpec("transient_exchange", probability=0.5).max_triggers is None


class TestRetryPolicy:
    def test_succeeds_first_try(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.call(lambda: 42) == 42
        assert policy.stats.retries == 0

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientCommError("drop")
            return "ok"

        clock = SimulatedClock()
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, seed=4)
        out = policy.call(flaky, retry_on=(TransientCommError,), clock=clock)
        assert out == "ok"
        assert len(attempts) == 3
        assert policy.stats.retries == 2
        # backoff is simulated, accumulated on the clock, never slept
        assert clock.now == pytest.approx(policy.stats.backoff_seconds)
        assert clock.now > 0.0

    def test_exhaustion_raises_with_cause(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)

        def always_fails():
            raise TransientCommError("nope")

        with pytest.raises(RetryExhaustedError) as exc:
            policy.call(always_fails, retry_on=(TransientCommError,))
        assert isinstance(exc.value.last_error, TransientCommError)
        assert policy.stats.failures == 1

    def test_non_retryable_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5)
        calls = []

        def fails_hard():
            calls.append(1)
            raise ValueError("fatal")

        with pytest.raises(ValueError):
            policy.call(fails_hard, retry_on=(TransientCommError,))
        assert len(calls) == 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=0.1,
            backoff_factor=2.0,
            max_delay=0.5,
            jitter=0.0,
        )
        delays = [policy.backoff_delay(k) for k in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_seeded(self):
        a = RetryPolicy(max_attempts=3, jitter=0.5, seed=9)
        b = RetryPolicy(max_attempts=3, jitter=0.5, seed=9)
        assert [a.backoff_delay(1) for _ in range(4)] == [
            b.backoff_delay(1) for _ in range(4)
        ]


class TestFaultInjectorDeterminism:
    def _event_trace(self, seed):
        injector = FaultInjector(
            [
                FaultSpec("transient_exchange", probability=0.3),
                FaultSpec("corruption", probability=0.2),
            ],
            seed=seed,
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=20, seed=seed),
        )
        buf = np.arange(8, dtype=np.complex128)
        for _ in range(30):
            comm.exchange([buf, buf + 1], [1, 0])
        return [(e.kind, e.step) for e in injector.ledger.events]

    def test_same_seed_same_fault_sequence(self):
        assert self._event_trace(13) == self._event_trace(13)

    def test_different_seed_different_sequence(self):
        assert self._event_trace(13) != self._event_trace(14)


class TestSimCommFaults:
    def test_transient_without_policy_escalates(self):
        injector = FaultInjector(
            [FaultSpec("transient_exchange", at_step=0)], seed=0
        )
        comm = SimComm(2, fault_injector=injector)
        with pytest.raises(TransientCommError):
            comm.exchange([np.ones(2), np.ones(2)], [1, 0])
        assert comm.stats.transient_errors == 1

    def test_transient_with_policy_recovers(self):
        injector = FaultInjector(
            [FaultSpec("transient_exchange", at_step=0)], seed=0
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, seed=1),
        )
        a, b = np.arange(2.0), np.arange(2.0) + 5
        out = comm.exchange([a, b], [1, 0])
        assert np.array_equal(out[0], b)
        assert comm.stats.retries == 1
        assert comm.stats.retry_backoff_s > 0.0
        assert injector.ledger.count("transient_exchange") == 1

    def test_rank_crash_not_retried(self):
        injector = FaultInjector(
            [FaultSpec("rank_crash", rank=1, at_step=0)], seed=0
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=5, seed=1),
        )
        with pytest.raises(RankFailure) as exc:
            comm.exchange([np.ones(2), np.ones(2)], [1, 0])
        assert exc.value.rank == 1
        assert comm.stats.retries == 0
        assert 1 in injector.crashed_ranks

    def test_detectable_corruption_is_retried_clean(self):
        """A checksum-detected bit flip triggers retransmission; the
        delivered payload must be the uncorrupted original."""
        injector = FaultInjector(
            [FaultSpec("corruption", rank=0, at_step=0, bit_flips=3)], seed=5
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, seed=1),
        )
        a = np.arange(16, dtype=np.complex128)
        b = a + 100
        out = comm.exchange([a, b], [1, 0])
        assert np.array_equal(out[1], a)  # delivered clean after retry
        assert comm.stats.corrupted_messages == 1
        assert injector.ledger.count("corruption") == 1

    def test_undetectable_corruption_propagates(self):
        injector = FaultInjector(
            [
                FaultSpec(
                    "corruption", rank=0, at_step=0, bit_flips=1, detectable=False
                )
            ],
            seed=5,
        )
        comm = SimComm(2, fault_injector=injector)
        a = np.arange(16, dtype=np.complex128)
        b = a + 100
        out = comm.exchange([a, b], [1, 0])
        assert not np.array_equal(out[1], a)  # silently corrupted
        assert comm.stats.corrupted_messages == 0  # checksum never saw it

    def test_straggler_counted(self):
        injector = FaultInjector(
            [FaultSpec("straggler", at_step=0, latency_multiplier=8.0)], seed=0
        )
        comm = SimComm(2, fault_injector=injector)
        comm.exchange([np.ones(2), np.ones(2)], [1, 0])
        assert comm.stats.straggler_ops == 1
        assert injector.ledger.count("straggler") == 1

    def test_allreduce_transient_recovered(self):
        injector = FaultInjector(
            [FaultSpec("transient_exchange", at_step=0)], seed=0
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, seed=1),
        )
        assert comm.allreduce([1.0, 2.0]) == pytest.approx(3.0)
        assert comm.stats.retries == 1

    def test_stats_reset_clears_fault_counters(self):
        injector = FaultInjector(
            [FaultSpec("transient_exchange", at_step=0)], seed=0
        )
        comm = SimComm(
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, seed=1),
        )
        comm.exchange([np.ones(2), np.ones(2)], [1, 0])
        comm.stats.reset()
        assert comm.stats.retries == 0
        assert comm.stats.retry_backoff_s == 0.0
        assert comm.stats.transient_errors == 0


class TestDistributedUnderFaults:
    def test_transient_faults_do_not_change_the_state(self):
        """A faulty-but-retried distributed run must be bit-identical
        to the fault-free one, with every fault in the ledger."""
        n = 6
        c = random_circuit(n, 40, 2)
        clean = DistributedStatevector(n, 4)
        clean.run(c)
        injector = FaultInjector(
            [
                FaultSpec("transient_exchange", probability=0.2),
                FaultSpec("corruption", probability=0.1, bit_flips=2),
            ],
            seed=21,
        )
        faulty = DistributedStatevector(
            n,
            4,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=12, seed=3),
        )
        faulty.run(c)
        assert np.allclose(faulty.gather(), clean.gather(), atol=0.0)
        stats = faulty.comm.stats
        assert stats.retries == stats.transient_errors
        # every detected fault is retried: transients plus
        # checksum-caught corruptions
        assert (
            injector.ledger.count("transient_exchange") + stats.corrupted_messages
            == stats.transient_errors
        )
        assert stats.transient_errors > 0  # the scenario actually fired
        assert injector.ledger.count("corruption") > 0

    def test_expectation_survives_faults(self):
        n = 6
        c = random_circuit(n, 30, 7)
        h = PauliSum.from_label_dict(
            {"XXIIII": 0.5, "IZZIII": -1.2, "ZIIIIZ": 0.9, "IIIIII": 0.25}
        )
        clean = DistributedStatevector(n, 4)
        clean.run(c)
        e_ref = clean.expectation(h)
        injector = FaultInjector(
            [FaultSpec("transient_exchange", probability=0.25)], seed=8
        )
        faulty = DistributedStatevector(
            n,
            4,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=12, seed=8),
        )
        faulty.run(c)
        assert faulty.expectation(h) == pytest.approx(e_ref, abs=1e-12)

    def test_gate_scope_crash_interrupts_run(self):
        injector = FaultInjector(
            [FaultSpec("rank_crash", scope="gate", at_step=5, rank=2)], seed=0
        )
        d = DistributedStatevector(6, 4, fault_injector=injector)
        with pytest.raises(RankFailure) as exc:
            d.run(random_circuit(6, 30, 1))
        assert exc.value.rank == 2
        assert d.gates_applied == 5

    def test_retry_exhaustion_escalates(self):
        injector = FaultInjector(
            [FaultSpec("transient_exchange", probability=1.0)], seed=0
        )
        d = DistributedStatevector(
            6,
            2,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, seed=0),
        )
        with pytest.raises(RetryExhaustedError):
            d.run(Circuit(6).h(5))

    def test_explicit_comm_plus_injector_rejected(self):
        comm = SimComm(2)
        injector = FaultInjector(
            [FaultSpec("transient_exchange", at_step=0)], seed=0
        )
        with pytest.raises(ValueError):
            DistributedStatevector(6, 2, comm=comm, fault_injector=injector)


class TestSchedulerDegradation:
    def _jobs(self, count=12):
        return [Job(f"j{k}", 18, 500 + 100 * (k % 5)) for k in range(count)]

    def test_schedule_on_survivors_only(self):
        sched = BatchScheduler(4).schedule(self._jobs(), available_ranks=[0, 2, 3])
        assert sorted(sched.assignments) == [0, 2, 3]
        assert sched.failed_ranks == [1]
        assert sched.num_survivors == 3

    def test_no_survivors_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(2).schedule(self._jobs(), available_ranks=[])

    def test_reschedule_preserves_all_unfinished_jobs(self):
        scheduler = BatchScheduler(4)
        jobs = self._jobs()
        healthy = scheduler.schedule(jobs)
        victim_jobs = [j.name for j in healthy.assignments[1]]
        done = victim_jobs[:1]
        degraded = scheduler.reschedule_after_failure(healthy, 1, completed=done)
        assert degraded.failed_ranks == [1]
        assert 1 not in degraded.assignments
        surviving = [
            j.name for js in degraded.assignments.values() for j in js
        ]
        # every job is either completed on the dead rank or reassigned
        assert sorted(surviving + done) == sorted(j.name for j in jobs)

    def test_degraded_makespan_never_improves(self):
        scheduler = BatchScheduler(4)
        healthy = scheduler.schedule(self._jobs())
        degraded = scheduler.reschedule_after_failure(healthy, 0)
        assert degraded.makespan >= healthy.makespan
        assert degraded.speedup <= healthy.speedup
        assert degraded.serial_time == healthy.serial_time

    def test_reschedule_unknown_rank_rejected(self):
        scheduler = BatchScheduler(2)
        healthy = scheduler.schedule(self._jobs(4))
        with pytest.raises(ValueError):
            scheduler.reschedule_after_failure(healthy, 5)


class TestBatchScopeCrash:
    """``check_batch_faults``, the hook the campaign server calls once
    per dispatch: it names the rank that died and never raises."""

    def test_fires_at_its_step_once_and_records_the_rank(self):
        injector = FaultInjector(
            [FaultSpec("rank_crash", scope="batch", at_step=2)], seed=0
        )
        dead = [injector.check_batch_faults(k, rank=k % 4) for k in range(6)]
        assert dead == [None, None, 2, None, None, None]
        assert injector.ledger.count("rank_crash") == 1
        assert injector.crashed_ranks == {2}

    def test_dead_rank_leaves_the_degraded_schedule(self):
        jobs = [Job(f"j{k}", 18, 500 + 100 * (k % 5)) for k in range(8)]
        scheduler = BatchScheduler(4)
        clean = scheduler.schedule(jobs)
        injector = FaultInjector(
            [FaultSpec("rank_crash", scope="batch", at_step=0)], seed=0
        )
        dead = injector.check_batch_faults(0, rank=1)
        assert dead == 1
        degraded = scheduler.reschedule_after_failure(clean, dead)
        assert dead not in degraded.assignments
        assert degraded.makespan >= clean.makespan
        assert degraded.speedup <= clean.speedup
        # the spec is spent: the survivors run on
        assert injector.check_batch_faults(0, rank=1) is None

    def test_rank_filter_and_other_scopes_do_not_fire(self):
        injector = FaultInjector(
            [
                FaultSpec("rank_crash", scope="batch", rank=3, probability=1.0),
                FaultSpec("rank_crash", scope="campaign", at_step=0),
            ],
            seed=0,
        )
        assert injector.check_batch_faults(0, rank=0) is None
        assert injector.check_batch_faults(1, rank=3) == 3
        assert injector.ledger.count("rank_crash") == 1
