"""Thread-pool execution of MTTKRP kernels.

NumPy's heavy kernels (fancy gathers, element-wise multiplies, ``reduceat``)
release the GIL, so a thread pool yields real concurrency on the memory-bound
inner loops without the serialization cost of multiprocessing.  The pool is
deliberately thin: submit a list of thunks, collect results in order.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.validate import check_mode, check_positive_int
from ..baselines.base import MttkrpBackend
from ..obs import profiler as _profiler
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from ..obs.switch import current_run
from .partition import partition_nonzeros


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


class WorkerPool:
    """A reusable thread pool with ordered map semantics.

    With ``n_workers=1`` everything runs inline (no threads), which keeps
    single-worker baselines overhead-free and deterministic for profiling.
    """

    def __init__(self, n_workers: int | None = None):
        # Explicit thread counts are honored even past the cpu count
        # (threads oversubscribe harmlessly); env/default counts go
        # through the shared resolution + clamp.
        if n_workers is not None:
            self.n_workers = check_positive_int(n_workers, "n_workers")
        else:
            self.n_workers = resolve_worker_count(None)
        self._executor: ThreadPoolExecutor | None = None
        if self.n_workers > 1:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        # Stable small worker ids (0..n-1) keyed by thread ident, assigned
        # first-seen: the inline path runs on the submitting thread, which
        # therefore gets id 0 — identical span shape to a one-thread pool.
        self._worker_ids: dict[int, int] = {}
        self._worker_lock = threading.Lock()

    def _worker_id(self) -> int:
        ident = threading.get_ident()
        with self._worker_lock:
            wid = self._worker_ids.get(ident)
            if wid is None:
                wid = self._worker_ids[ident] = len(self._worker_ids)
                # Once per thread: folded profiler stacks carry the same
                # lane id as this thread's pool_task spans.
                _profiler.label_thread(ident, f"worker-{wid}")
            return wid

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
            if _trace.enabled():
                durations: list[float] = []
                results = [
                    self._run_span(t, i, None, durations)
                    for i, t in enumerate(tasks)
                ]
                self._publish_imbalance(durations)
                return results
            return [t() for t in tasks]
        if _trace.enabled() or current_run() is not None:
            # One context copy per task: a Context cannot be entered by two
            # threads at once, and the copy carries the parent span id and
            # the active run context (so worker-thread events/metrics land
            # in the right run even when tracing itself is off).
            durations = []
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

    def _run_span(self, task: Callable[[], object], index: int,
                  t_submit: float | None,
                  durations: list[float]) -> object:
        # t_submit None = inline execution: no queue, wait is exactly 0.0.
        queue_wait = (
            max(_trace.get_tracer().now() - t_submit, 0.0)
            if t_submit is not None else 0.0
        )
        with _trace.span(
            "pool_task", index=index, worker=self._worker_id(),
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

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ParallelCooMttkrp(MttkrpBackend):
    """Nonzero-parallel COO MTTKRP: chunk, partial-accumulate, reduce.

    Each worker computes the Hadamard products for a contiguous nonzero
    range and scatters into a private ``I_n x R`` partial; partials are
    summed (the distributive-TTV property).  This is the shared-memory
    algorithm of the paper's multicore evaluation, with the reduction taking
    the role of the atomic/privatized accumulation in the C implementation.
    """

    name = "parallel-coo"

    def __init__(self, tensor: CooTensor, n_workers: int | None = None,
                 pool: WorkerPool | None = None):
        super().__init__(tensor)
        self._own_pool = pool is None
        self.pool = pool or WorkerPool(n_workers)
        self.chunks = [
            (lo, hi) for lo, hi in partition_nonzeros(tensor, self.pool.n_workers)
            if hi > lo
        ]

    def close(self) -> None:
        if self._own_pool:
            self.pool.close()

    def __enter__(self) -> "ParallelCooMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _partial(self, lo: int, hi: int, mode: int) -> np.ndarray:
        tensor, factors = self.tensor, self.factors
        idx = tensor.idx[lo:hi]
        prod: np.ndarray | None = None
        for m in range(tensor.ndim):
            if m == mode:
                continue
            rows = factors[m][idx[:, m]]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None
        prod *= tensor.vals[lo:hi, None]
        out = np.zeros((tensor.shape[mode], self.rank), dtype=VALUE_DTYPE)
        np.add.at(out, idx[:, mode], prod)
        return out

    def mttkrp(self, mode: int) -> np.ndarray:
        mode = check_mode(mode, self.tensor.ndim)
        if self.tensor.nnz == 0:
            return np.zeros(
                (self.tensor.shape[mode], self.rank), dtype=VALUE_DTYPE
            )
        # One kernel span per mode with the attrs the roofline attribution
        # pass prices (`repro.obs.roofline`): backend names the layout,
        # mode+nnz select the cost model's per-mode flop/word terms.
        with _trace.span("kernel", backend=self.name, mode=mode,
                         nnz=self.tensor.nnz):
            tasks = [
                (lambda lo=lo, hi=hi: self._partial(lo, hi, mode))
                for lo, hi in self.chunks
            ]
            partials = self.pool.run(tasks)
            out = partials[0]
            for p in partials[1:]:
                out += p
        return out
