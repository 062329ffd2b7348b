"""Unified metrics: named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per session owns every quantitative signal the
engine produces -- the plan-pipeline counters, the recovery counters, the
per-update latency histogram.  The registry replaces the scattered
``self._x += 1`` integers the simulator used to keep: call sites hold the
:class:`Counter`/:class:`Histogram` object directly (one attribute load +
method call on the hot path, no name lookup), while reporting surfaces
(``statistics()``, ``telemetry_report()``, the Prometheus text dump) read
the registry.

Design constraints:

* **Zero dependencies** -- stdlib only, importable everywhere.
* **Cheap writes.** ``Counter.inc`` is an integer add under one
  process-wide lock (counters are bumped a few times per update, at the
  granularity of plans and chunks, not per amplitude; concurrent jobs share a
  base's counters).  ``Histogram.observe`` is a bisect into a fixed bucket
  table.
* **Mergeable.** Forked sessions get their *own* registry tagged with the
  parent's session id; :meth:`MetricsRegistry.merge` folds several
  sessions' registries into one, which is how ``SweepRunner`` reports its
  base session and its fork together instead of dropping the fork's stats.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "next_session_id",
]

#: log-spaced latency buckets (seconds): 1 µs .. 30 s, the range one
#: update / plan build / kernel chunk plausibly spans.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.0, 5.0)
)[:-1] + (30.0,)

_session_ids = itertools.count(1)

#: serialises :meth:`Counter.inc` and :meth:`Gauge.inc` across every metric
_INC_LOCK = threading.Lock()


def next_session_id() -> int:
    """Process-unique monotonically increasing session id."""
    return next(_session_ids)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "unit", "help", "value")

    kind = "counter"

    def __init__(self, name: str, *, unit: str = "", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        # a bare ``+=`` can lose an increment when two threads interleave
        with _INC_LOCK:
            self.value += n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "unit", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, *, unit: str = "", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def inc(self, delta: float = 1) -> None:
        # several threads move one gauge up and down (active jobs)
        with _INC_LOCK:
            self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value})"


class _HistogramTimer:
    """Context manager feeding one wall-clock interval into a histogram."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: "Histogram") -> None:
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(perf_counter() - self._t0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and p50/p95 estimates.

    ``bounds`` are the inclusive upper bucket edges; one implicit overflow
    bucket catches everything beyond the last edge.  Percentiles are
    estimated by linear interpolation inside the bucket where the requested
    rank falls -- coarse, but stable, allocation-free and mergeable, which
    is what an always-on runtime histogram needs.
    """

    __slots__ = (
        "name", "unit", "help", "bounds", "bucket_counts",
        "count", "total", "min", "max",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        *,
        unit: str = "",
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(
            DEFAULT_TIME_BUCKETS if bounds is None else sorted(bounds)
        )
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def time(self) -> _HistogramTimer:
        """``with hist.time(): ...`` -- observe the block's wall time."""
        return _HistogramTimer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - seen) / n
                # clamp the bucket estimate into the observed range so
                # min <= pXX <= max always holds
                return min(max(lo + (hi - lo) * frac, self.min), self.max)
            seen += n
        return self.max  # pragma: no cover - unreachable (counts add up)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket bounds differ"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """The report-facing digest (count/sum/min/mean/max/p50/p95)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "mean": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, count={self.count})"


def _sanitize(name: str) -> str:
    """Dotted metric name -> Prometheus-legal identifier."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    ident = "".join(out)
    if ident and ident[0].isdigit():  # pragma: no cover - defensive
        ident = "_" + ident
    return ident


class MetricsRegistry:
    """Get-or-create registry of named metrics, tagged with a session id."""

    def __init__(
        self,
        *,
        session_id: Optional[int] = None,
        parent_session_id: Optional[int] = None,
    ) -> None:
        self.session_id = next_session_id() if session_id is None else session_id
        self.parent_session_id = parent_session_id
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # -- get-or-create accessors -------------------------------------------

    def _get(self, cls, name: str, kwargs):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str, *, unit: str = "", help: str = "") -> Counter:
        return self._get(Counter, name, {"unit": unit, "help": help})

    def gauge(self, name: str, *, unit: str = "", help: str = "") -> Gauge:
        return self._get(Gauge, name, {"unit": unit, "help": help})

    def histogram(
        self,
        name: str,
        *,
        unit: str = "",
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get(
            Histogram, name, {"unit": unit, "help": help, "bounds": bounds}
        )

    def get(self, name: str):
        """The registered metric named ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- reporting ----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """``{"counters": {...}, "gauges": {...}, "histograms": {...}}``."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.summary()
        return {
            "session_id": self.session_id,
            "parent_session_id": self.parent_session_id,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def prometheus_text(self, prefix: str = "qtask") -> str:
        """Prometheus text-exposition dump of every registered metric."""
        lines: List[str] = []
        labels = f'{{session="{self.session_id}"}}'
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            ident = f"{prefix}_{_sanitize(name)}"
            if metric.unit:
                ident = f"{ident}_{_sanitize(metric.unit)}"
            if metric.help:
                lines.append(f"# HELP {ident} {metric.help}")
            lines.append(f"# TYPE {ident} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{ident}{labels} {metric.value}")
                continue
            cumulative = 0
            for bound, n in zip(metric.bounds, metric.bucket_counts):
                cumulative += n
                lines.append(
                    f'{ident}_bucket{{session="{self.session_id}",'
                    f'le="{bound:g}"}} {cumulative}'
                )
            lines.append(
                f'{ident}_bucket{{session="{self.session_id}",le="+Inf"}} '
                f"{metric.count}"
            )
            lines.append(f"{ident}_sum{labels} {metric.total}")
            lines.append(f"{ident}_count{labels} {metric.count}")
        return "\n".join(lines) + "\n"

    # -- cross-session aggregation -------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s metrics into this registry (in place).

        Counters and histograms accumulate; gauges take the other's value
        only where this registry has none (a gauge is a point-in-time
        reading -- summing two sessions' gauge values is meaningless).
        Returns ``self`` for chaining.
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name, unit=metric.unit, help=metric.help).inc(
                    metric.value
                )
            elif isinstance(metric, Gauge):
                if name not in self._metrics:
                    self.gauge(name, unit=metric.unit, help=metric.help).set(
                        metric.value
                    )
            else:
                mine = self.histogram(
                    name,
                    unit=metric.unit,
                    help=metric.help,
                    bounds=metric.bounds,
                )
                mine.merge(metric)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(session={self.session_id}, "
            f"metrics={len(self._metrics)})"
        )
