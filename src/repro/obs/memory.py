"""Memory telemetry: measured memoized-value bytes, fed by engine events.

The cost model *predicts* peak memoized-value memory
(:func:`repro.model.cost.simulate_peak_value_bytes`) and the planner trades
flops against that prediction — but a prediction nobody measures is a
prediction nobody can trust.  This module closes the loop: the engines
report every node-value store and free to a process-global
:class:`MemTracker`, which maintains exact live/peak byte accounting
(per node and in total), per-ALS-iteration windows for comparison against
the model's symbolic prediction, and optional :mod:`tracemalloc` samples
that capture what the allocator *actually* holds on top of the symbolic
count.

Tracking is off by default (:data:`SWITCH`: ``REPRO_TRACE`` or
``REPRO_MEMTRACK``).

Byte accounting is *exact by construction*: a node value matrix is a dense
``nnz_t x R`` float64 array, so ``value.nbytes`` equals the model's
``nnz_t * R * 8`` term and measured-vs-predicted ratios of 1.0 are the
tested invariant, not a tolerance.  The tracemalloc series is the only
place allocator overhead appears, and it gets a tolerance band in the
drift watchdog rather than an exact one.
"""

from __future__ import annotations

import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.dtypes import VALUE_ITEMSIZE
from .metrics import registry as _metrics
from .switch import RunPlugin, Switch, env_flag

__all__ = [
    "MemReading", "MemTracker", "enabled", "enable", "disable",
    "tracking", "get_tracker",
]


@dataclass
class MemReading:
    """One ALS iteration's measured-vs-predicted memory comparison."""

    iteration: int
    #: max simultaneously-live memoized-value bytes inside the window.
    measured_peak_bytes: int
    #: the cost model's :attr:`CostReport.peak_value_bytes` (0 if unknown).
    predicted_peak_bytes: int
    #: live memoized-value bytes when the window closed.
    live_bytes: int
    #: kernel workspace arena bytes when the window closed.
    workspace_bytes: int
    #: factor-matrix bytes (dense, constant per run).
    factor_bytes: int
    #: tracemalloc (current, peak) bytes at window close, if sampling.
    traced_current_bytes: int | None = None
    traced_peak_bytes: int | None = None

    @property
    def ratio(self) -> float | None:
        """measured/predicted peak, None when there is no prediction."""
        if self.predicted_peak_bytes <= 0:
            return None
        return self.measured_peak_bytes / self.predicted_peak_bytes

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "measured_peak_bytes": self.measured_peak_bytes,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "ratio": self.ratio,
            "live_bytes": self.live_bytes,
            "workspace_bytes": self.workspace_bytes,
            "factor_bytes": self.factor_bytes,
            "traced_current_bytes": self.traced_current_bytes,
            "traced_peak_bytes": self.traced_peak_bytes,
        }


@dataclass
class _Sample:
    """A time-stamped total-live-bytes sample (for trace counter tracks)."""

    t: float
    live_bytes: int


class MemTracker:
    """Exact live/peak accounting of memoized-value bytes.

    Engines report node-value lifecycle events keyed by
    ``(id(engine), node_id)`` so multiple engines can share one tracker
    without id collisions.  All mutation happens under one lock: the
    store/free, the running total, and the peak update are atomic, which is
    what makes peak accounting correct when pool workers rebuild
    concurrently.

    Parameters
    ----------
    sample_tracemalloc:
        also record :func:`tracemalloc.get_traced_memory` at iteration
        boundaries (starts tracemalloc if it is not already tracing).
        Symbolic byte counts are exact; this is the allocator-overhead
        view the watchdog's tolerance band watches.
    keep_samples:
        retain up to this many time-stamped total-live samples for the
        Chrome-trace memory counter track (0 disables the series).
    """

    def __init__(self, *, sample_tracemalloc: bool = False,
                 keep_samples: int = 100_000):
        self._lock = threading.Lock()
        self._live: dict[tuple[int, int], int] = {}
        self.live_bytes = 0
        self.peak_bytes = 0
        self._window_peak = 0
        self.n_stores = 0
        self.n_frees = 0
        #: stores whose byte size disagreed with the registered prediction.
        self.n_mismatches = 0
        self._expected: dict[int, list[int]] = {}
        self.readings: list[MemReading] = []
        self.samples: list[_Sample] = []
        self._keep_samples = int(keep_samples)
        self.sample_tracemalloc = False
        self._own_tracemalloc = False
        self.sample(sample_tracemalloc)

    def sample(self, on: bool) -> None:
        """Turn tracemalloc sampling on or off (starting tracemalloc if
        it is not already tracing; :meth:`close` stops what this started)."""
        self.sample_tracemalloc = bool(on)
        if self.sample_tracemalloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._own_tracemalloc = True

    # -- engine feeds --------------------------------------------------
    def register_expected(self, engine_key: int,
                          node_bytes: list[int]) -> None:
        """Install the model's per-node byte prediction for one engine.

        Subsequent :meth:`on_store` events from that engine are checked
        against the prediction; disagreements count in ``n_mismatches``
        and the ``mem.node_mismatch`` metric.
        """
        with self._lock:
            self._expected[engine_key] = list(node_bytes)

    def on_store(self, engine_key: int, node_id: int, nbytes: int) -> None:
        """A node value matrix of ``nbytes`` was cached."""
        key = (engine_key, node_id)
        with self._lock:
            prev = self._live.pop(key, 0)
            self._live[key] = nbytes
            self.live_bytes += nbytes - prev
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
            if self.live_bytes > self._window_peak:
                self._window_peak = self.live_bytes
            self.n_stores += 1
            expected = self._expected.get(engine_key)
            if (expected is not None and node_id < len(expected)
                    and expected[node_id] != nbytes):
                self.n_mismatches += 1
                _metrics.incr("mem.node_mismatch")
            self._sample_locked()

    def on_free(self, engine_key: int, node_id: int) -> None:
        """A cached node value was dropped (invalidation or eager free)."""
        key = (engine_key, node_id)
        with self._lock:
            nbytes = self._live.pop(key, None)
            if nbytes is None:
                return
            self.live_bytes -= nbytes
            self.n_frees += 1
            self._sample_locked()

    def release_engine(self, engine_key: int) -> None:
        """Drop every entry of one engine (its values are gone)."""
        with self._lock:
            for key in [k for k in self._live if k[0] == engine_key]:
                self.live_bytes -= self._live.pop(key)
            self._expected.pop(engine_key, None)

    def _sample_locked(self) -> None:
        if len(self.samples) < self._keep_samples:
            from .trace import get_tracer

            self.samples.append(_Sample(get_tracer().now(), self.live_bytes))

    # -- iteration windows ---------------------------------------------
    def begin_window(self) -> None:
        """Start a peak-measurement window (an ALS iteration).

        The tracemalloc peak restarts here too, so each window's traced
        peak covers that window only, not every run since tracing began.
        """
        if self.sample_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        with self._lock:
            self._window_peak = self.live_bytes

    def window_peak(self) -> int:
        """Max total live bytes observed since :meth:`begin_window`."""
        with self._lock:
            return self._window_peak

    def observe_iteration(self, iteration: int, *,
                          predicted_peak_bytes: int = 0,
                          workspace_bytes: int = 0,
                          factor_bytes: int = 0) -> MemReading:
        """Close the current window into a :class:`MemReading`.

        Publishes ``mem.*`` gauges so ``repro trace`` metrics snapshots
        carry the latest reading, and appends to :attr:`readings` — the
        measured-vs-predicted series the dashboard plots.
        """
        traced_current = traced_peak = None
        if self.sample_tracemalloc and tracemalloc.is_tracing():
            traced_current, traced_peak = tracemalloc.get_traced_memory()
        with self._lock:
            reading = MemReading(
                iteration=iteration,
                measured_peak_bytes=self._window_peak,
                predicted_peak_bytes=predicted_peak_bytes,
                live_bytes=self.live_bytes,
                workspace_bytes=workspace_bytes,
                factor_bytes=factor_bytes,
                traced_current_bytes=traced_current,
                traced_peak_bytes=traced_peak,
            )
            self.readings.append(reading)
        _metrics.set_gauge("mem.iter_peak_bytes", reading.measured_peak_bytes)
        _metrics.set_max_gauge("mem.peak_bytes", self.peak_bytes)
        if predicted_peak_bytes > 0:
            _metrics.set_gauge("mem.predicted_peak_bytes",
                               predicted_peak_bytes)
        if traced_peak is not None:
            _metrics.set_max_gauge("mem.tracemalloc_peak_bytes", traced_peak)
        return reading

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly summary + the full per-iteration series."""
        with self._lock:
            return {
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
                "n_stores": self.n_stores,
                "n_frees": self.n_frees,
                "n_mismatches": self.n_mismatches,
                "n_live_nodes": len(self._live),
                "tracemalloc": self.sample_tracemalloc,
                "readings": [r.to_dict() for r in self.readings],
            }

    def reset(self) -> None:
        with self._lock:
            self._live.clear()
            self._expected.clear()
            self.live_bytes = 0
            self.peak_bytes = 0
            self._window_peak = 0
            self.n_stores = 0
            self.n_frees = 0
            self.n_mismatches = 0
            self.readings.clear()
            self.samples.clear()

    def close(self) -> None:
        """Stop tracemalloc if this tracker started it."""
        if self._own_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._own_tracemalloc = False

    def __repr__(self) -> str:
        return (
            f"MemTracker(live={self.live_bytes}, peak={self.peak_bytes}, "
            f"stores={self.n_stores}, frees={self.n_frees})"
        )


_tracker = MemTracker()
#: the memory tracker's switch.  REPRO_TRACE turns on the whole stack;
#: REPRO_MEMTRACK enables just the memory side.
SWITCH = Switch("memory", _tracker, pin="mem_enabled", slot="memory",
                on=env_flag("REPRO_TRACE", "REPRO_MEMTRACK"),
                clear=_tracker.reset)
enabled, disable, get_tracker = SWITCH.enabled, SWITCH.disable, SWITCH.get


def enable(*, clear: bool = False, sample_tracemalloc: bool | None = None) -> None:
    """Turn memory tracking on; ``clear=True`` resets accumulated state."""
    if sample_tracemalloc is not None:
        _tracker.sample(sample_tracemalloc)
    SWITCH.enable(clear=clear)


@contextmanager
def tracking(*, clear: bool = True, sample_tracemalloc: bool = False):
    """Enable memory tracking for a block, restoring prior state after.

    Usage::

        with memory.tracking() as mt:
            cp_als(X, rank=16, strategy="bdt")
        print(mt.peak_bytes, mt.readings)
    """
    if sample_tracemalloc:
        _tracker.sample(True)
    try:
        with SWITCH.block(clear=clear) as tracker:
            yield tracker
    finally:
        _tracker.close()


class MemoryPlugin(RunPlugin):
    """Measured-vs-predicted peak memoized-value bytes per iteration."""

    name = "memory"
    result_field = "memory_readings"

    def __init__(self, tracker: MemTracker, run):
        super().__init__(tracker)
        self.engine = engine = run.engine
        node_nnz = engine.symbolic.node_nnz()
        tracker.register_expected(
            id(engine), [n * run.rank * VALUE_ITEMSIZE for n in node_nnz]
        )
        if run.cost is not None:
            self.predicted = run.cost.peak_value_bytes
        else:
            from ..model.cost import simulate_peak_value_bytes

            self.predicted = simulate_peak_value_bytes(
                engine.strategy, node_nnz, run.rank
            )

    @classmethod
    def attach(cls, run):
        tracker = SWITCH.active()
        if tracker is None or not run.memoized:
            return None
        return cls(tracker, run)

    def begin(self, iteration: int) -> None:
        self.instrument.begin_window()

    def end(self, it) -> MemReading:
        return self.instrument.observe_iteration(
            it.iteration,
            predicted_peak_bytes=self.predicted,
            workspace_bytes=self.engine.workspace_nbytes(),
            factor_bytes=self.engine.factor_bytes(),
        )

    def fields(self, reading: MemReading) -> dict:
        return {"mem_peak_bytes": reading.measured_peak_bytes,
                "mem_live_bytes": reading.live_bytes}


def write_artifact(trace_dir: str, session):
    """``repro trace``: the tracker snapshot as ``memory.json``."""
    from .artifacts import dump_json

    tracker = get_tracker()
    path = dump_json(trace_dir, "memory.json", tracker.snapshot())
    note = None
    if tracker.readings:
        last = tracker.readings[-1]
        note = (f"\nmemory: peak memoized values {tracker.peak_bytes:,} B "
                f"(predicted {last.predicted_peak_bytes:,} B, "
                f"{len(tracker.readings)} iteration readings)")
    return [path], note
