"""Process-wide metrics registry: counters, gauges, histograms.

Prometheus's data model, minus the network: instruments are created
(or fetched) by name from a :class:`MetricsRegistry`, updated from the
instrumented hot paths, and exported two ways —

* :meth:`MetricsRegistry.expose` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples), scrape-able or diff-able;
* :meth:`MetricsRegistry.write_jsonl` — one JSON object per metric
  per line, the benchmark-friendly snapshot format.

Histograms use fixed cumulative buckets (``observe(v)`` increments
every bucket whose upper bound is >= v, like Prometheus ``le``
semantics) and support quantile estimation by linear interpolation
inside the target bucket — the same math a PromQL
``histogram_quantile`` performs server-side.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.files import atomic_write

# One process-wide lock guards every metric mutation and registry
# get-or-create.  The registry is process-global, so any thread of the
# process may increment the same counters; a read-modify-write on a
# float or a dict insert must not tear.
# Contention is negligible: updates are nanoseconds and the hot paths
# already gate on ``obs.enabled()``.
_LOCK = threading.Lock()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

# Log-spaced seconds-scale buckets, suitable for kernel and phase times.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape(text: str, quote: bool = True) -> str:
    """Text-format escaping: backslash and newline everywhere, and the
    double quote inside label values."""
    text = text.replace("\\", "\\\\").replace("\n", "\\n")
    return text.replace('"', '\\"') if quote else text


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class _Metric:
    """Common name/help/labels plumbing."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = dict(labels or {})
        for k in labels:
            if not _LABEL_RE.match(k):
                raise ValueError(f"invalid label name {k!r}")
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = {str(k): str(v) for k, v in labels.items()}


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with _LOCK:
            self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": self.labels,
            "value": self.value,
        }

    def expose(self) -> List[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]


class Gauge(_Metric):
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None):
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with _LOCK:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with _LOCK:
            self.value -= amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": self.labels,
            "value": self.value,
        }

    def expose(self) -> List[str]:
        return [f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"]


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics).

    ``buckets`` are finite upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; pass finite bounds only")
        self.buckets = bounds
        # counts[i] = observations with v <= buckets[i]; counts[-1] = +Inf
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with _LOCK:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bucket cumulative counts including the +Inf bucket."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantiles(self) -> Dict[str, Optional[float]]:
        """p50/p95/p99 summary (None where empty, for JSON safety)."""
        out: Dict[str, Optional[float]] = {}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            value = self.quantile(q)
            out[label] = None if math.isnan(value) else value
        return out

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation inside the
        target bucket (PromQL ``histogram_quantile`` math).  Returns
        NaN with no observations; values in the +Inf bucket clamp to
        the largest finite bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = self.cumulative_counts()
        for i, cum in enumerate(cumulative):
            if cum >= rank:
                if i == len(self.buckets):  # +Inf bucket
                    return self.buckets[-1]
                upper = self.buckets[i]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                prev_cum = cumulative[i - 1] if i > 0 else 0
                in_bucket = cum - prev_cum
                if in_bucket == 0:
                    return upper
                return lower + (upper - lower) * (rank - prev_cum) / in_bucket
        return self.buckets[-1]

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": self.labels,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "quantiles": self.quantiles(),
        }

    def expose(self) -> List[str]:
        lines: List[str] = []
        labels = dict(self.labels)
        for bound, cum in zip(
            list(self.buckets) + [math.inf], self.cumulative_counts()
        ):
            le = "+Inf" if math.isinf(bound) else _format_value(bound)
            bucket_labels = dict(labels)
            bucket_labels["le"] = le
            lines.append(f"{self.name}_bucket{_format_labels(bucket_labels)} {cum}")
        suffix = _format_labels(labels)
        lines.append(f"{self.name}_sum{suffix} {_format_value(self.sum)}")
        lines.append(f"{self.name}_count{suffix} {self.count}")
        return lines


def _format_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Owns every instrument; get-or-create by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _Metric] = {}

    def _key(
        self, name: str, labels: Optional[Mapping[str, str]]
    ) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return (name, tuple(sorted((labels or {}).items())))

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> _Metric:
        key = self._key(name, labels)
        with _LOCK:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def collect(self) -> List[_Metric]:
        return list(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export -------------------------------------------------------------

    def expose(self) -> str:
        """Prometheus text exposition of every instrument."""
        lines: List[str] = []
        seen_families: set = set()
        for metric in sorted(self._metrics.values(), key=lambda m: m.name):
            if metric.name not in seen_families:
                seen_families.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {_escape(metric.help, quote=False)}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> List[Dict[str, object]]:
        """One plain dict per instrument, sorted by name."""
        return [
            m.snapshot()
            for m in sorted(self._metrics.values(), key=lambda m: (m.name, sorted(m.labels.items())))
        ]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per metric per line.  Written atomically
        (tmp + rename) so out-of-process pollers like ``repro top``
        never read a torn snapshot."""
        payload = "".join(json.dumps(snap) + "\n" for snap in self.snapshot())
        atomic_write(path, payload)

    def write_prometheus(self, path: str) -> None:
        """Prometheus exposition file, written atomically."""
        atomic_write(path, self.expose())

    def reset(self) -> None:
        self._metrics.clear()
