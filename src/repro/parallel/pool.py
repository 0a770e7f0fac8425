"""Worker pools: the worker-count rule, the base both tiers share, and
the thread pool.

NumPy's heavy kernels (fancy gathers, element-wise multiplies, ``reduceat``)
release the GIL, so a thread pool yields real concurrency on the memory-bound
inner loops without the serialization cost of multiprocessing.  The pool is
deliberately thin: submit a list of thunks, collect results in order.  The
process pool (:mod:`repro.parallel.procpool`) shares its base: the inline
path, lane ids, the ``pool.imbalance`` gauge and ``close``.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..core.validate import check_positive_int
from ..obs import profiler as _profiler
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from ..obs.switch import current_run


def _env_workers() -> int | None:
    """Parsed ``REPRO_WORKERS`` override (None when unset)."""
    raw = (os.environ.get("REPRO_WORKERS") or "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def oversubscription_allowed() -> bool:
    """Whether ``REPRO_ALLOW_OVERSUBSCRIBE`` opts out of worker clamping."""
    raw = (os.environ.get("REPRO_ALLOW_OVERSUBSCRIBE") or "").strip().lower()
    return raw in {"1", "true", "yes", "on"}


def resolve_worker_count(
    requested: int | None = None,
    *,
    clamp: bool = True,
    allow_oversubscribe: bool | None = None,
    tier: str = "thread",
) -> int:
    """One precedence rule for every execution tier: explicit ``requested``
    (``--workers`` / an ``n_workers=`` argument) beats ``REPRO_WORKERS``,
    which beats the cpu-count default (capped at 8).

    Counts above ``os.cpu_count()`` are oversubscription: harmless for
    threads (GIL-released kernels interleave), but each extra *process*
    burns a core and a copy of the interpreter.  With ``clamp=True`` such
    counts are reduced to the cpu count with a ``RuntimeWarning`` naming
    both numbers; ``allow_oversubscribe=True`` (or the
    ``REPRO_ALLOW_OVERSUBSCRIBE=1`` environment opt-out, for deliberate
    scaling sweeps on small machines) keeps the requested count, still
    with a warning instead of silence.
    """
    if requested is not None:
        value = check_positive_int(requested, "n_workers")
        source = "n_workers"
    else:
        env = _env_workers()
        if env is not None:
            value = env
            source = "REPRO_WORKERS"
        else:
            return max(1, min(os.cpu_count() or 1, 8))
    ncpu = os.cpu_count() or 1
    if value > ncpu:
        if allow_oversubscribe is None:
            allow_oversubscribe = oversubscription_allowed()
        if not clamp or allow_oversubscribe:
            warnings.warn(
                f"{source}={value} oversubscribes this machine "
                f"({ncpu} cpus); proceeding as requested ({tier} tier)",
                RuntimeWarning, stacklevel=2,
            )
        else:
            warnings.warn(
                f"{source}={value} exceeds os.cpu_count()={ncpu}; "
                f"clamping to {ncpu} ({tier} tier; set "
                f"REPRO_ALLOW_OVERSUBSCRIBE=1 to keep the requested count)",
                RuntimeWarning, stacklevel=2,
            )
            value = ncpu
    return value


def default_workers() -> int:
    """Worker count default: ``REPRO_WORKERS`` override (validated and
    clamped against the cpu count by :func:`resolve_worker_count`), else
    cpu count capped at 8 (memory-bound kernels stop scaling past that on
    typical desktop memory systems)."""
    return resolve_worker_count(None)


class PoolBase:
    """What both tiers' pools share: ordered results, the inline path,
    stable lane ids, the ``pool.imbalance`` gauge and ``close``.

    ``tier`` names the tier (``"thread"`` or ``"process"``); engines read
    it to decide how tasks reach the workers.  ``_lane_key`` says what a
    lane is: the thread that ran the task, or its process.
    """

    tier = "abstract"
    _lane_key = staticmethod(threading.get_ident)

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._executor = None
        # Stable small lane ids (0..n-1), assigned first-seen: the inline
        # path runs on the submitting thread, which therefore gets id 0 —
        # identical span shape to a one-worker pool.
        self._lanes: dict[int, int] = {}
        self._lanes_lock = threading.Lock()

    def _lane(self, key: int) -> int:
        with self._lanes_lock:
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = len(self._lanes)
                self._new_lane(key, lane)
            return lane

    def _new_lane(self, key: int, lane: int) -> None:
        """Hook run once per lane, when its key is first seen."""

    def _run_inline(self, tasks: Sequence[Callable[[], object]]) -> list:
        """Run thunks on the calling thread, in order; traced, each gets a
        ``pool_task`` span with ``queue_wait`` exactly 0.0."""
        if not _trace.enabled():
            return [t() for t in tasks]
        durations: list[float] = []
        results = [self._run_span(t, i, None, durations)
                   for i, t in enumerate(tasks)]
        self._publish_imbalance(durations)
        return results

    def _run_span(self, task: Callable[[], object], index: int,
                  t_submit: float | None,
                  durations: list[float]) -> object:
        # t_submit None = inline execution: no queue, wait is exactly 0.0.
        queue_wait = (
            max(_trace.get_tracer().now() - t_submit, 0.0)
            if t_submit is not None else 0.0
        )
        with _trace.span(
            "pool_task", index=index, worker=self._lane(self._lane_key()),
            queue_wait=queue_wait, source="measured",
        ) as rec:
            result = task()
        if rec is not None:
            durations.append(rec.duration)
        return result

    @staticmethod
    def _publish_imbalance(durations: list[float]) -> None:
        if len(durations) < 2:
            return
        mean = sum(durations) / len(durations)
        if mean > 0:
            _metrics.set_gauge("pool.imbalance", max(durations) / mean)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WorkerPool(PoolBase):
    """A reusable thread pool with ordered map semantics.

    With ``n_workers=1`` everything runs inline (no threads), which keeps
    single-worker baselines overhead-free and deterministic for profiling.
    """

    tier = "thread"

    def __init__(self, n_workers: int | None = None):
        # Explicit thread counts are honored even past the cpu count
        # (threads oversubscribe harmlessly); env/default counts go
        # through the shared resolution + clamp.
        super().__init__(
            check_positive_int(n_workers, "n_workers")
            if n_workers is not None else resolve_worker_count(None)
        )
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)

    def _new_lane(self, key: int, lane: int) -> None:
        # Folded profiler stacks carry the same lane id as this thread's
        # pool_task spans.
        _profiler.label_thread(key, f"worker-{lane}")

    def run(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        """Execute thunks, returning their results in submission order.

        When tracing is enabled, each task runs inside a copy of the
        submitting thread's :mod:`contextvars` context wrapped in a
        ``pool_task`` span carrying ``index``, ``worker`` (stable lane id),
        ``queue_wait`` (seconds between submit and start; exactly 0.0
        on the inline path), and ``source="measured"`` (threads are timed
        directly, never synthesized), so worker-thread spans (and any
        context-local
        counters) nest under the caller's current span and
        :mod:`repro.obs.utilization` can reconstruct per-worker timelines.
        Each traced fan-out of >=2 tasks also publishes the
        ``pool.imbalance`` gauge (max/mean task seconds).  The traced path
        is entirely skipped while tracing is off.
        """
        if self._executor is None or len(tasks) <= 1:
            return self._run_inline(tasks)
        if _trace.enabled() or current_run() is not None:
            # One context copy per task: a Context cannot be entered by two
            # threads at once, and the copy carries the parent span id and
            # the active run context (so worker-thread events/metrics land
            # in the right run even when tracing itself is off).
            durations: list[float] = []
            tracer = _trace.get_tracer()
            futures = [
                self._executor.submit(
                    contextvars.copy_context().run, self._run_span, t, i,
                    tracer.now(), durations
                )
                for i, t in enumerate(tasks)
            ]
            results = [f.result() for f in futures]
            self._publish_imbalance(durations)
            return results
        futures = [self._executor.submit(t) for t in tasks]
        return [f.result() for f in futures]
