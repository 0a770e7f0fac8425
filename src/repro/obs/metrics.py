"""Metrics registry: span wall-time histograms + counters + gauges.

One process-global :class:`MetricsRegistry` aggregates three kinds of
observation:

* **span stats** — per span kind, a count / total / min / max accumulator
  plus a coarse log2 latency histogram, fed by the tracer on span exit;
* **counters** — a :class:`repro.perf.counters.Counters` instance owned by
  the registry; install it with ``perf.counting(registry.counters)`` (the
  CLI ``repro trace`` command and the experiment runner do) and the
  engine's measured flops/words flow in;
* **gauges / event counts** — last-value and monotonically increasing
  scalars (the drift watchdog's ``drift.*`` readings, kernel-registry
  resolution counts).

:func:`repro.obs.metrics` snapshots everything into one JSON-friendly dict.
"""

from __future__ import annotations

import math
import threading

from ..perf.counters import Counters
from .switch import current_run

__all__ = ["SpanStats", "MetricsRegistry", "registry", "metrics"]

#: log2 bucket edges (seconds) for span latency histograms: 1us .. 4s.
_BUCKET_MIN_EXP = -20  # 2**-20 s ~ 0.95 us
_BUCKET_MAX_EXP = 2    # 2**2 s = 4 s


class SpanStats:
    """Streaming wall-time statistics for one span kind."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets = [0] * (_BUCKET_MAX_EXP - _BUCKET_MIN_EXP + 2)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if seconds <= 0:
            exp = _BUCKET_MIN_EXP
        else:
            exp = min(max(math.frexp(seconds)[1], _BUCKET_MIN_EXP),
                      _BUCKET_MAX_EXP + 1)
        self.buckets[exp - _BUCKET_MIN_EXP] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "log2_buckets": {
                f"<=2^{exp}s": n
                for exp, n in zip(
                    range(_BUCKET_MIN_EXP, _BUCKET_MAX_EXP + 2), self.buckets
                )
                if n
            },
        }


class MetricsRegistry:
    """Thread-safe aggregation point for spans, counters, and gauges."""

    def __init__(self):
        self._lock = threading.Lock()
        self.span_stats: dict[str, SpanStats] = {}
        self.counters = Counters()
        self._gauges: dict[str, float] = {}
        self._events: dict[str, int] = {}

    # -- feeds ---------------------------------------------------------
    def observe_span(self, kind: str, seconds: float) -> None:
        with self._lock:
            stats = self.span_stats.get(kind)
            if stats is None:
                stats = self.span_stats[kind] = SpanStats()
            stats.observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def set_max_gauge(self, name: str, value: float) -> None:
        """High-watermark gauge: keeps the maximum value ever set.

        Used for peaks (``mem.peak_bytes``) where the last value is less
        interesting than the worst one.
        """
        value = float(value)
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._events[name] = self._events.get(name, 0) + value

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": self.counters.snapshot(),
                "spans": {
                    kind: stats.snapshot()
                    for kind, stats in sorted(self.span_stats.items())
                },
                "gauges": dict(self._gauges),
                "events": dict(self._events),
            }

    def reset(self) -> None:
        with self._lock:
            self.span_stats.clear()
            self.counters.reset()
            self._gauges.clear()
            self._events.clear()


class _DispatchingRegistry:
    """Call-time dispatching facade over the metrics registry.

    ``registry`` is imported by value all over the stack, so run scoping
    cannot rebind the name; instead every attribute resolves on the
    active run context's private registry when it has one, else on the
    process-global :class:`MetricsRegistry`.
    """

    __slots__ = ("_global",)

    def __init__(self):
        self._global = MetricsRegistry()

    def __getattr__(self, name: str):
        ctx = current_run()
        if ctx is not None and ctx.metrics is not None:
            return getattr(ctx.metrics, name)
        return getattr(self._global, name)


#: the process-global registry (the tracer and watchdog feed this one);
#: a dispatching facade so run-scoped contexts transparently capture the
#: same call sites.
registry = _DispatchingRegistry()


def metrics() -> dict:
    """Snapshot of the active registry (counters, span stats, gauges)."""
    return registry.snapshot()


# ---------------------------------------------------------------------------
# the metrics.json artifact
# ---------------------------------------------------------------------------

def write_artifact(trace_dir: str, session):
    """``repro trace``: build info, wall time and the registry snapshot."""
    from .artifacts import dump_json
    from .buildinfo import build_info

    doc = {"build": build_info(), "wall_seconds": session.elapsed,
           "run_id": session.run_id, "metrics": registry.snapshot()}
    return [dump_json(trace_dir, "metrics.json", doc)], None


def report_section(arts, args) -> str | None:
    """``repro report``: the recorded counters and gauges."""
    doc = arts.load("metrics")
    if doc is None:
        return None
    counters = doc.get("metrics", {}).get("counters", {})
    gauges = doc.get("metrics", {}).get("gauges", {})
    lines = []
    if counters:
        lines.append("\ncounters: " + ", ".join(
            f"{k}={v:,}" for k, v in counters.items()))
    if gauges:
        lines.append("gauges  : " + ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(gauges.items())))
    return "\n".join(lines) if lines else None


def replay(doc, arts) -> dict:
    """``repro serve``: restore gauges, counters and event counts."""
    snap = doc.get("metrics", {})
    loaded = {"gauges": 0, "counters": 0}
    for name, value in snap.get("gauges", {}).items():
        registry.set_gauge(name, value)
        loaded["gauges"] += 1
    for name, value in snap.get("events", {}).items():
        registry.incr(name, int(value))
    counters = registry.counters
    for name, value in snap.get("counters", {}).items():
        if hasattr(counters, name) and name != "extra":
            setattr(counters, name, value)
        else:
            counters.extra[name] = value
        loaded["counters"] += 1
    return loaded
