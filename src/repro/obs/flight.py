"""Convergence flight recorder: *why* is this campaign slow or stuck?

Telemetry so far answered "how long did it take" (spans), "how much
work" (metrics), and "what happened" (events).  For a variational
campaign the operator's real question is about the *trajectory*: is
the optimizer still descending, has it stalled, is it diverging, or is
it screening a pool whose gradients have collapsed (the barren-plateau
signature)?  The flight recorder answers that from inside the driver
loop:

* Every VQE energy evaluation / ADAPT growth iteration lands one
  :class:`FlightSample` — energy, gradient norm, step norm (parameter
  movement since the previous sample), parameter drift (movement since
  the start), and pool-screening stats for ADAPT.
* Three detectors run over the rolling sample window:

  - **stall** — the best energy improved by less than
    ``stall_min_improvement`` across ``stall_window`` samples,
  - **divergence** — the energy has sat more than
    ``divergence_margin`` *above* the best seen for
    ``divergence_window`` consecutive samples,
  - **barren plateau** — the gradient norm stayed below
    ``barren_grad_threshold`` for ``barren_window`` samples while the
    run had not converged.

* A verdict change is emitted as a ``flight.verdict`` event on the
  global bus (:mod:`repro.obs.events`) — so a server-hosted campaign's
  stall is visible in ``repro top`` out-of-process — and the full
  recording is attached to RunReports (the ``flight`` section).

Detectors are pure functions of the sample sequence, so a recorded
trajectory replays to the same verdicts — the property the synthetic-
trace tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import events as obs_events

__all__ = [
    "VERDICT_OK",
    "VERDICT_STALLED",
    "VERDICT_DIVERGING",
    "VERDICT_BARREN",
    "FlightConfig",
    "FlightSample",
    "FlightRecorder",
]

VERDICT_OK = "ok"
VERDICT_STALLED = "stalled"
VERDICT_DIVERGING = "diverging"
VERDICT_BARREN = "barren_plateau"


@dataclass(frozen=True)
class FlightConfig:
    """Detector thresholds (all windows are sample counts)."""

    stall_window: int = 4
    stall_min_improvement: float = 1e-8
    divergence_window: int = 3
    divergence_margin: float = 1e-6
    barren_window: int = 4
    barren_grad_threshold: float = 1e-7
    max_samples: int = 10_000  # ring bound so recorders never grow unbounded

    def __post_init__(self) -> None:
        if min(self.stall_window, self.divergence_window, self.barren_window) < 2:
            raise ValueError("detector windows must be >= 2 samples")
        if self.max_samples < 16:
            raise ValueError("max_samples must be >= 16")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stall_window": self.stall_window,
            "stall_min_improvement": self.stall_min_improvement,
            "divergence_window": self.divergence_window,
            "divergence_margin": self.divergence_margin,
            "barren_window": self.barren_window,
            "barren_grad_threshold": self.barren_grad_threshold,
        }


@dataclass
class FlightSample:
    """One point on the convergence trajectory."""

    index: int
    energy: float
    grad_norm: Optional[float] = None
    step_norm: Optional[float] = None
    drift: Optional[float] = None
    pool_size: Optional[int] = None
    pool_mean_abs_grad: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"index": self.index, "energy": self.energy}
        for key in (
            "grad_norm",
            "step_norm",
            "drift",
            "pool_size",
            "pool_mean_abs_grad",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _norm(delta: Sequence[float]) -> float:
    return math.sqrt(sum(float(x) * float(x) for x in delta))


class FlightRecorder:
    """Rolling trajectory recorder + detectors for one campaign.

    ``context`` (job id, tenant, molecule, ...) rides along on every
    emitted ``flight.verdict`` event so the server-side log attributes
    verdicts to jobs without the recorder knowing about the server.
    """

    def __init__(
        self,
        kind: str = "vqe",
        config: Optional[FlightConfig] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self.config = config or FlightConfig()
        self.context: Dict[str, Any] = dict(context or {})
        self.samples: List[FlightSample] = []
        self.verdict = VERDICT_OK
        self.verdict_detail = ""
        self.verdict_at: Optional[int] = None
        self.best_energy = math.inf
        self._first_params: Optional[List[float]] = None
        self._last_params: Optional[List[float]] = None
        self._dropped = 0

    # -- recording ------------------------------------------------------------

    def record(
        self,
        energy: float,
        params: Optional[Sequence[float]] = None,
        grad_norm: Optional[float] = None,
        pool_size: Optional[int] = None,
        pool_mean_abs_grad: Optional[float] = None,
        index: Optional[int] = None,
    ) -> FlightSample:
        """Add one sample (and run the detectors)."""
        energy = float(energy)
        step_norm = drift = None
        if params is not None:
            values = [float(x) for x in params]
            if self._first_params is None:
                self._first_params = values
            if self._last_params is not None:
                # parameter-count growth (ADAPT appends one per step):
                # compare over the shared prefix, count the new entries
                # as movement from their zero warm start
                shared = min(len(values), len(self._last_params))
                delta = [
                    values[i] - self._last_params[i] for i in range(shared)
                ] + [values[i] for i in range(shared, len(values))]
                step_norm = _norm(delta)
            shared0 = min(len(values), len(self._first_params))
            drift = _norm(
                [values[i] - self._first_params[i] for i in range(shared0)]
                + [values[i] for i in range(shared0, len(values))]
            )
            self._last_params = values
        sample = FlightSample(
            index=(
                index
                if index is not None
                else len(self.samples) + self._dropped
            ),
            energy=energy,
            grad_norm=grad_norm,
            step_norm=step_norm,
            drift=drift,
            pool_size=pool_size,
            pool_mean_abs_grad=pool_mean_abs_grad,
        )
        self.samples.append(sample)
        if len(self.samples) > self.config.max_samples:
            self.samples.pop(0)
            self._dropped += 1
        self.best_energy = min(self.best_energy, energy)
        self._evaluate(sample)
        return sample

    # -- detectors ------------------------------------------------------------

    def _evaluate(self, latest: FlightSample) -> None:
        verdict, detail = self._detect()
        if verdict != self.verdict:
            self.verdict = verdict
            self.verdict_detail = detail
            self.verdict_at = latest.index
            obs_events.emit(
                "flight.verdict",
                kind=self.kind,
                verdict=verdict,
                detail=detail,
                index=latest.index,
                energy=latest.energy,
                **self.context,
            )

    def _detect(self) -> "tuple[str, str]":
        cfg = self.config
        samples = self.samples
        # divergence: energy parked above the best for W straight samples
        w = cfg.divergence_window
        if len(samples) >= w:
            tail = samples[-w:]
            above = [s.energy - self.best_energy for s in tail]
            if all(a > cfg.divergence_margin for a in above):
                return (
                    VERDICT_DIVERGING,
                    f"energy {max(above):.3e} above best for {w} samples",
                )
        # barren plateau: tiny gradients across the window (and not
        # "done": a converged run's small gradient is success, but the
        # driver stops recording then, so a live tiny-gradient window
        # means screening found nothing to exploit)
        w = cfg.barren_window
        grads = [s.grad_norm for s in samples[-w:] if s.grad_norm is not None]
        if len(grads) >= w and all(g < cfg.barren_grad_threshold for g in grads):
            return (
                VERDICT_BARREN,
                f"gradient norm < {cfg.barren_grad_threshold:g} "
                f"for {w} samples",
            )
        # stall: the best energy stopped improving across the window
        w = cfg.stall_window
        if len(samples) > w:
            best_before = min(s.energy for s in samples[:-w])
            best_now = min(best_before, min(s.energy for s in samples[-w:]))
            if best_before - best_now < cfg.stall_min_improvement:
                return (
                    VERDICT_STALLED,
                    f"best energy improved < {cfg.stall_min_improvement:g} "
                    f"over the last {w} samples",
                )
        return VERDICT_OK, ""

    # -- export ---------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        return len(self.samples) + self._dropped

    def traces(self) -> Dict[str, List[float]]:
        """Convergence-style series (for RunReport.convergence)."""
        out: Dict[str, List[float]] = {"energy": [s.energy for s in self.samples]}
        for key in ("grad_norm", "step_norm", "drift"):
            values = [getattr(s, key) for s in self.samples]
            if any(v is not None for v in values):
                out[key] = [float(v) if v is not None else 0.0 for v in values]
        return out

    def to_dict(self, max_samples: int = 200) -> Dict[str, Any]:
        """JSON-able recording (tail-truncated for report embedding)."""
        tail = self.samples[-max_samples:]
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "verdict_detail": self.verdict_detail,
            "verdict_at": self.verdict_at,
            "num_samples": self.num_samples,
            "best_energy": (
                self.best_energy if math.isfinite(self.best_energy) else None
            ),
            "context": dict(self.context),
            "detectors": self.config.to_dict(),
            "samples": [s.to_dict() for s in tail],
        }
