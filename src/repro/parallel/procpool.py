"""One sharded COO MTTKRP engine on either tier, and the process pool.

The thread tier (:class:`~repro.parallel.pool.WorkerPool`) only scales
where NumPy releases the GIL; the interpreter sections between kernels
serialize, and E8 plateaus well below the core count.  The process tier
is the one the paper's multicore evaluation actually corresponds to:
worker *processes*, each owning a contiguous shard of the nonzero space.
:class:`ShardedCooMttkrp` runs on either, with one shard rule, one shard
task and one reduction:

* shards come from :func:`repro.kernels.alto.aligned_chunks`: snapped to
  leading-mode boundaries, so mode-0 shards write disjoint rows of one
  output (conflict-free, no partials) and other modes reduce per-shard
  slabs in fixed shard order.  The result depends on the tensor, the
  factors and the shard count only — not on the tier or the layout;
* the shard task reads its columns from the index matrix
  (``layout="numpy"``) or decodes them from one packed ALTO code per
  nonzero (``layout="alto"``; the decoded coordinates are equal
  integers, so every float op sees identical inputs in identical order);
* the data plane — index matrix or codes, values, factors, output slabs —
  is preallocated once: plain arrays on the thread tier,
  ``multiprocessing.shared_memory`` segments (:mod:`repro.parallel.shm`)
  on the process tier.  A process dispatch pickles only segment *specs*
  and shard bounds — a few hundred bytes per MTTKRP regardless of tensor
  size.  Factor updates are a ``copyto`` into the plane.

Instrumentation keeps the thread tier's exact shape: one ``pool_task``
span per shard (``index`` / ``worker`` / ``queue_wait`` / ``source``,
lanes keyed by worker pid first-seen), the ``pool.imbalance`` gauge per
fan-out, and a structured ``repro-events/v1`` warning when a worker
process dies mid-shard; the engine then swaps its process pool for a
thread pool over the same plane and shards, so it never hangs on a
broken pool and its results do not change.

When the parent is tracing, workers are no longer a telemetry black box:
each task runs under a worker-local scoped
:class:`~repro.obs.runctx.RunContext` whose tracer records the interior
``kernel`` / ``kernel_chunk`` / ``alto_decode`` spans, and the finished
spans (plus counters and precise task start/stop stamps) ride back to the
parent alongside the result.  The parent aligns them onto its own clock
via the wall-clock epochs of the two tracers, re-parents them under the
task's ``pool_task`` span with
:func:`repro.obs.trace.merge_subprocess_spans`, and marks the span
``source="measured"``.  If a worker reports no payload (capture off) the
parent falls back to the old synthesized span, marked
``source="synthesized"`` so downstream consumers
(:mod:`repro.obs.utilization`, the dashboard, E8) stay honest about what
was measured.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

from ..baselines.base import MttkrpBackend
from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.validate import check_mode
from ..kernels.alto import AltoEncoding, aligned_chunks, fits_alto
from ..kernels.shard import coo_mttkrp_shard
from ..kernels.workspace import WorkspaceArena
from ..obs import events as _events
from ..obs import profiler as _profiler
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from .pool import PoolBase, WorkerPool, resolve_worker_count
from .shm import SharedArrayGroup, attach_array

__all__ = [
    "ProcessPool", "ShardedCooMttkrp", "ParallelCooMttkrp",
    "AltoCooMttkrp", "ProcessMttkrp", "default_start_method",
]


def default_start_method() -> str:
    """``REPRO_START_METHOD`` override, else ``fork`` where available.

    Fork keeps worker startup at milliseconds and inherits the parent's
    imports; spawn (the only option on Windows/macOS defaults) works too —
    everything workers touch arrives via shared memory, not inheritance.
    """
    raw = (os.environ.get("REPRO_START_METHOD") or "").strip().lower()
    methods = multiprocessing.get_all_start_methods()
    if raw:
        if raw not in methods:
            raise ValueError(
                f"REPRO_START_METHOD={raw!r} not in {methods}"
            )
        return raw
    return "fork" if "fork" in methods else methods[0]


def _timed_call(fn: Callable, args: tuple, capture: bool = False,
                profile_hz: float | None = None):
    """Worker-side wrapper: run one task, report wall time + pid (+ spans).

    With ``capture=False`` (parent not tracing) this is the old cheap
    path: ``(result, seconds, pid, None)``.  With ``capture=True`` the
    task runs under a fresh scoped run context whose tracer/metrics are
    local to this process and this task; the fourth element becomes a
    payload dict carrying the worker tracer's wall-clock epoch, the task's
    start/stop on that tracer's clock, and every interior span — enough
    for the parent to reconstruct the task on its own timeline.

    ``profile_hz`` (set when the parent is profiling) additionally gives
    the scoped context a private :class:`~repro.obs.profiler.ProfileStore`
    and keeps a worker-local sampler thread alive for the task, so the
    payload's ``profile`` snapshot carries the worker-interior folded
    stacks the parent's sampler can never see.
    """
    if not capture:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0, os.getpid(), None
    from ..obs import runctx as _runctx

    ctx = _runctx.RunContext.scoped(
        trace=True, events=False, mem=False,
        profile=profile_hz is not None, profile_hz=profile_hz,
    )
    with _runctx.using(ctx, register=False):
        tracer = ctx.tracer
        t0 = tracer.now()
        result = fn(*args)
        t1 = tracer.now()
    payload = {
        "wall_epoch": tracer.wall_epoch,
        "t0": t0,
        "t1": t1,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "spans": [s.to_dict() for s in tracer.finished()],
        "counters": ctx.metrics.counters,
        "profile": (ctx.profiler.snapshot()
                    if ctx.profiler is not None else None),
    }
    return result, t1 - t0, os.getpid(), payload


class ProcessPool(PoolBase):
    """Persistent worker processes with ordered map semantics.

    The sibling of :class:`~repro.parallel.pool.WorkerPool` on the same
    base: tasks are ``(fn, args)`` pairs with a module-level picklable
    ``fn``, one worker (or one task) runs inline, and the ``pool_task``
    span shape is the thread tier's — spans are rebuilt in the parent from
    worker-reported stamps, with ``queue_wait`` the gap between submission
    and the task's start, and lanes keyed by worker pid.  Worker counts
    resolve through :func:`~repro.parallel.pool.resolve_worker_count` with
    clamping on (a surplus *process* burns a core; set
    ``REPRO_ALLOW_OVERSUBSCRIBE=1`` or ``allow_oversubscribe=True`` for
    deliberate sweeps).
    """

    tier = "process"
    _lane_key = staticmethod(os.getpid)

    def __init__(self, n_workers: int | None = None, *,
                 allow_oversubscribe: bool | None = None,
                 start_method: str | None = None, capture: bool = True):
        super().__init__(resolve_worker_count(
            n_workers, clamp=True, allow_oversubscribe=allow_oversubscribe,
            tier=self.tier,
        ))
        self.start_method = start_method or default_start_method()
        #: ship worker-interior spans back when the parent traces; set
        #: False to keep the pre-PR-7 synthesized spans (the overhead
        #: benchmark compares the two).
        self.capture = bool(capture)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(self.start_method),
            )
        return self._executor

    def run(self, calls: Sequence[tuple[Callable, tuple]]) -> list:
        """Execute ``(fn, args)`` pairs, results in submission order.

        Raises :class:`concurrent.futures.process.BrokenProcessPool` when
        a worker dies mid-task — callers decide the fallback policy.
        """
        if self.n_workers == 1 or len(calls) <= 1:
            return self._run_inline(
                [functools.partial(fn, *args) for fn, args in calls]
            )
        executor = self._ensure_executor()
        traced = _trace.enabled()
        capture = traced and self.capture
        # Ship the parent's sampling rate to the workers only when both
        # capture and profiling are live; workers then sample themselves
        # for the task's duration and return the folded stacks.
        profile_hz = None
        if capture and _profiler.enabled():
            profile_hz = _profiler.active_hz() or _profiler.default_hz()
        tracer = _trace.get_tracer() if traced else None
        parent_span = _trace.current_span_id()
        submits = []
        futures = []
        for fn, args in calls:
            submits.append(tracer.now() if tracer is not None else 0.0)
            futures.append(executor.submit(_timed_call, fn, args, capture,
                                           profile_hz))
        results = []
        durations = []
        for i, future in enumerate(futures):
            result, dur, pid, payload = future.result()
            durations.append(dur)
            results.append(result)
            if tracer is None:
                continue
            if payload is not None:
                # Genuine worker-interior telemetry: align the worker
                # tracer's clock onto ours through the two wall-clock
                # epochs, record the task at its *measured* start/stop,
                # and merge the interior spans under it.
                offset = payload["wall_epoch"] - tracer.wall_epoch
                t0 = payload["t0"] + offset
                t1 = payload["t1"] + offset
                rec = _trace.record_span(
                    "pool_task", t0, t1, parent=parent_span,
                    index=i, worker=self._lane(pid),
                    queue_wait=max(t0 - submits[i], 0.0),
                    source="measured", pid=pid,
                )
                _trace.merge_subprocess_spans(
                    payload["spans"], offset=offset,
                    parent=rec.id if rec is not None else parent_span,
                    tid=pid,
                )
                counters = payload.get("counters")
                if counters is not None and any(counters.snapshot().values()):
                    _metrics.counters.add(counters)
                profile = payload.get("profile")
                if profile and profile.get("n_samples") \
                        and _profiler.enabled():
                    store = _profiler.get_store()
                    if store is not None:
                        # Same re-rooting as the spans above: worker
                        # stacks land under pool_task, one lane per pid.
                        store.merge_child(profile, lane=f"pid-{pid}")
            else:
                # No payload (worker ran without capture): synthesize the
                # span from the reported duration, as before PR 7, and
                # say so.
                t1 = tracer.now()
                _trace.record_span(
                    "pool_task", t1 - dur, t1, parent=parent_span,
                    index=i, worker=self._lane(pid),
                    queue_wait=max(t1 - dur - submits[i], 0.0),
                    source="synthesized", pid=pid,
                )
        self._publish_imbalance(durations)
        return results


# -- the shard task (module-level: picklable under spawn) -------------------

#: the shard kernel's scratch in a worker process, kept across tasks.
_WORKER_ARENA = WorkspaceArena()


def _array(entry) -> np.ndarray:
    """A plane entry as an array: in the engine's own process entries are
    arrays; a worker process receives shared-segment specs and maps them."""
    return entry if isinstance(entry, np.ndarray) else attach_array(entry)


def _mttkrp_shard(plane, layout, shape, mode, lo, hi, shard, arena=None):
    """One shard's MTTKRP, accumulated into the plane's output slabs.

    ``plane`` maps ``idx`` (or ALTO ``codes``), ``vals``, ``factor<m>``,
    ``out0`` and ``partials`` to arrays or shared-segment specs.  Every
    COO engine runs the same kernel
    (:func:`~repro.kernels.shard.coo_mttkrp_shard`).  Mode 0 writes
    straight into ``out0`` — shards are aligned to leading-mode
    boundaries, so writes never overlap; other modes fill this shard's
    private slab for the engine's ordered reduction.
    """
    if layout == "alto":
        enc = AltoEncoding(shape, _array(plane["codes"]))

        def column(m):
            with _trace.span("alto_decode", mode=m, nnz=hi - lo):
                return enc.decode(m, lo, hi)
    else:
        idx = _array(plane["idx"])

        def column(m):
            return idx[lo:hi, m]

    factors = [_array(plane[f"factor{m}"]) for m in range(len(shape))]
    gathers = [(factors[m], column(m))
               for m in range(len(shape)) if m != mode]
    target = column(mode)
    with _trace.span("kernel_chunk", phase="gather_scatter", lo=lo, hi=hi):
        if mode == 0:
            out = _array(plane["out0"])
        else:
            out = _array(plane["partials"])[shard, : shape[mode]]
            out.fill(0.0)
        coo_mttkrp_shard(out, target, gathers, _array(plane["vals"])[lo:hi],
                         _WORKER_ARENA if arena is None else arena)
    return True


def _process_shard(plane, layout, shape, mode, lo, hi, shard, arena=None):
    """The process tier's task: one shard under its own ``kernel`` span,
    recorded where the shard runs (``nnz`` is the shard's share)."""
    with _trace.span("kernel", backend=f"process-{layout}", mode=mode,
                     shard=shard, nnz=hi - lo):
        return _mttkrp_shard(plane, layout, shape, mode, lo, hi, shard,
                             arena)


class ShardedCooMttkrp(MttkrpBackend):
    """Nonzero-parallel COO MTTKRP: aligned shards, one reduction order.

    ``pool`` is a :class:`~repro.parallel.pool.WorkerPool` or a
    :class:`ProcessPool`; its tier places the data plane (plain arrays or
    shared memory) and its worker count sets the shards.  ``layout`` is
    ``"numpy"`` (the ``(nnz, N)`` index matrix) or ``"alto"`` (one
    packed ``uint64`` code per nonzero: ``N``× less index traffic, two
    integer ops per recovered coordinate).  Tier and layout never change
    the result bits.  ``own_pool`` closes the pool with the engine.

    ``chunks`` may be replaced before :meth:`set_factors` by any
    mode-0-aligned shard list (tests use this to pin a reduction order).
    Usable as a context manager; shared segments are unlinked on
    :meth:`close` (and by a finalizer if you forget).
    """

    def __init__(self, tensor: CooTensor, pool, *, layout: str = "numpy",
                 own_pool: bool = False):
        super().__init__(tensor)
        if layout not in ("numpy", "alto"):
            raise ValueError(
                f"layout must be 'numpy' or 'alto', got {layout!r}"
            )
        if layout == "alto" and not fits_alto(tensor.shape):
            raise ValueError(
                f"alto layout needs <= 63 index bits, shape {tensor.shape} "
                "does not fit; use layout='numpy'"
            )
        self.layout = layout
        self.pool = pool
        self._own_pool = own_pool
        #: the worker death that swapped the process pool for threads.
        self._fallback: BaseException | None = None
        self.chunks = (
            aligned_chunks(tensor.idx[:, 0], pool.n_workers)
            if tensor.nnz else []
        )
        self._shm = SharedArrayGroup() if pool.tier == "process" else None
        self._plane: dict[str, np.ndarray] = {}
        self.encoding: AltoEncoding | None = None
        if layout == "alto":
            self.encoding = AltoEncoding.encode(tensor.idx, tensor.shape)
            self._share("codes", self.encoding.codes)
        else:
            self._share("idx", tensor.idx)
        self._share("vals", tensor.vals)
        self._arena = WorkspaceArena()

    @property
    def name(self) -> str:
        if self.pool.tier == "process":
            return "process-coo"
        return "alto-coo" if self.layout == "alto" else "parallel-coo"

    def _share(self, key: str, array: np.ndarray) -> None:
        """Put ``array`` in the plane (copied into shared memory on the
        process tier, by reference on the thread tier)."""
        self._plane[key] = (self._shm.put(key, array)
                            if self._shm is not None else array)

    def _slot(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """The plane's writable array ``key``, allocated on first use."""
        arr = self._plane.get(key)
        if arr is None or arr.shape != shape:
            arr = self._plane[key] = (
                self._shm.create(key, shape, VALUE_DTYPE)
                if self._shm is not None
                else np.empty(shape, dtype=VALUE_DTYPE)
            )
        return arr

    @property
    def index_nbytes(self) -> int:
        """Index bytes in the plane (the layout trade the cost model
        scores)."""
        return int(self._plane["codes" if self.layout == "alto"
                               else "idx"].nbytes)

    @property
    def _parallel(self) -> bool:
        return self.pool.n_workers > 1 and len(self.chunks) > 1

    def set_factors(self, factors) -> None:
        super().set_factors(factors)
        shape, rank = self.tensor.shape, self._rank
        self._slot("out0", (shape[0], rank))
        self._slot("partials", (len(self.chunks), max(shape), rank))
        for m, U in enumerate(self._factors):
            view = self._slot(f"factor{m}", U.shape)
            np.copyto(view, U)
            # Alias the factor list to the plane: every later update is a
            # copy into it, never a pickle.
            self._factors[m] = view

    def update_factor(self, mode: int, U: np.ndarray) -> None:
        mode = check_mode(mode, self.tensor.ndim)
        U = np.ascontiguousarray(U, dtype=VALUE_DTYPE)
        if U.shape != (self.tensor.shape[mode], self.rank):
            raise ValueError(
                f"factor for mode {mode} must be "
                f"{(self.tensor.shape[mode], self.rank)}, got {U.shape}"
            )
        np.copyto(self.factors[mode], U)

    def mttkrp(self, mode: int) -> np.ndarray:
        mode = check_mode(mode, self.tensor.ndim)
        if self.tensor.nnz == 0:
            return np.zeros((self.tensor.shape[mode], self.rank),
                            dtype=VALUE_DTYPE)
        if self.pool.tier == "process":
            try:
                return self._sharded(mode)
            except BrokenProcessPool as exc:
                self._activate_fallback(exc)
        # One kernel span per mode with the attrs the roofline attribution
        # pass prices (`repro.obs.roofline`): backend names the layout,
        # mode+nnz select the cost model's per-mode flop/word terms.
        with _trace.span("kernel", backend=self.name, mode=mode,
                         nnz=self.tensor.nnz):
            return self._sharded(mode)

    def _sharded(self, mode: int) -> np.ndarray:
        """Run every shard on the pool, then reduce in shard order."""
        plane, shape = self._plane, self.tensor.shape
        if mode == 0:
            plane["out0"].fill(0.0)
        process = self.pool.tier == "process"
        remote = process and self._parallel
        # Worker processes map the segments and keep their own scratch;
        # tasks run in this process read the plane's views directly.
        source = self._shm.specs() if remote else plane
        scratch = () if remote else (self._arena,)
        args = [(source, self.layout, shape, mode, lo, hi, shard, *scratch)
                for shard, (lo, hi) in enumerate(self.chunks)]
        if process:
            self.pool.run([(_process_shard, a) for a in args])
        else:
            self.pool.run([functools.partial(_mttkrp_shard, *a)
                           for a in args])
        if mode == 0:
            return plane["out0"].copy()
        partials = plane["partials"]
        rows = shape[mode]
        out = partials[0, :rows].copy()
        for shard in range(1, len(self.chunks)):
            out += partials[shard, :rows]
        return out

    def _activate_fallback(self, exc: BaseException) -> None:
        """Worker death: warn (structured + Python), swap in threads.

        The plane's shared segments stay mapped in this process and the
        shards do not change, so the thread pool reproduces the process
        tier's results bit for bit."""
        message = (
            f"process-tier worker died mid-shard ({exc!r}); "
            f"falling back to the thread tier for the rest of the run"
        )
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        if _events.enabled():
            _events.emit(
                "warning", message=message, tier="process",
                fallback="thread", layout=self.layout,
                n_workers=self.pool.n_workers,
            )
        _metrics.incr("procpool.broken")
        if self._own_pool:
            self.pool.close()
        self.pool = WorkerPool(self.pool.n_workers)
        self._own_pool = True
        self._fallback = exc

    def close(self) -> None:
        self._arena.clear()
        if self._own_pool:
            self.pool.close()
        if self._shm is not None:
            self._plane.clear()
            self._shm.close()

    def __enter__(self) -> "ShardedCooMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- constructors for the engine's three configurations ---------------------

def ParallelCooMttkrp(tensor: CooTensor, n_workers: int | None = None,
                      pool: WorkerPool | None = None) -> ShardedCooMttkrp:
    """The thread tier on the index matrix (``name="parallel-coo"``)."""
    return ShardedCooMttkrp(tensor, pool or WorkerPool(n_workers),
                            own_pool=pool is None)


def AltoCooMttkrp(tensor: CooTensor, n_workers: int | None = None,
                  pool: WorkerPool | None = None) -> ShardedCooMttkrp:
    """The thread tier on packed ALTO codes (``name="alto-coo"``)."""
    return ShardedCooMttkrp(tensor, pool or WorkerPool(n_workers),
                            layout="alto", own_pool=pool is None)


def ProcessMttkrp(tensor: CooTensor, n_workers: int | None = None, *,
                  layout: str = "numpy", pool: ProcessPool | None = None,
                  allow_oversubscribe: bool | None = None
                  ) -> ShardedCooMttkrp:
    """The process tier with shared-memory state (``name="process-coo"``)."""
    return ShardedCooMttkrp(
        tensor,
        pool or ProcessPool(n_workers,
                            allow_oversubscribe=allow_oversubscribe),
        layout=layout, own_pool=pool is None,
    )
