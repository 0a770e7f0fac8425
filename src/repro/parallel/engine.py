"""Parallel memoized engine: chunked node rebuilds on a thread pool.

Parallelizes the memoized MTTKRP's numeric phase.  Each node rebuild is
split along *segment boundaries* of its reduction plan, so every worker
produces a disjoint range of the node's output rows: gathers, Hadamard
products, and the segmented sums all run concurrently with no write
conflicts and no reduction pass.

Workers execute through the kernel backend's ``rebuild_chunk`` — the same
precomputed flat gather indices and per-thread workspace buffers as the
sequential engine, so no per-chunk index arithmetic happens on the hot
path.  Backends without chunk support (e.g. ``numba``, which parallelizes
inside the node already) fall back to the numpy chunk kernel.
"""

from __future__ import annotations

import numpy as np

from ..core.coo import CooTensor
from ..core.engine import MemoizedMttkrp
from ..kernels import get_kernel
from ..kernels.workspace import value_matrix
from ..obs import seam as _seam
from ..obs import trace as _trace
from .pool import WorkerPool


class ParallelMemoizedMttkrp(MemoizedMttkrp):
    """Drop-in replacement for :class:`MemoizedMttkrp` using worker threads.

    Single-worker pools degrade gracefully to near-sequential behaviour
    (one chunk per node), so speedup measurements can use the same class at
    every worker count.  Usable as a context manager; pools created by the
    engine are closed on exit.
    """

    name = "parallel-memoized"

    #: node rebuilds with fewer parent rows than this run sequentially —
    #: below it, thread dispatch costs more than the kernel itself.
    min_chunk_rows = 16_384

    def __init__(self, tensor: CooTensor, strategy, factors=None, *,
                 n_workers: int | None = None, pool: WorkerPool | None = None,
                 symbolic=None, min_chunk_rows: int | None = None,
                 kernel=None):
        self._own_pool = pool is None
        self.pool = pool or WorkerPool(n_workers)
        if min_chunk_rows is not None:
            self.min_chunk_rows = int(min_chunk_rows)
        kernel = get_kernel(kernel)
        self._chunk_kernel = (
            kernel if kernel.supports_chunks else get_kernel("numpy")
        )
        super().__init__(tensor, strategy, factors, symbolic=symbolic,
                         kernel=kernel)

    def _prepare_kernel(self) -> None:
        super()._prepare_kernel()
        if self._chunk_kernel is not self._kernel:
            self._chunk_kernel.prepare(self.symbolic, self.rank)

    def close(self) -> None:
        if self._own_pool:
            self.pool.close()
        tracker = _seam.node_tracker()
        if tracker is not None:
            # Pool engines are commonly short-lived context managers; drop
            # their entries so the tracker's live total reflects reality.
            tracker.release_engine(id(self))

    def __enter__(self) -> "ParallelMemoizedMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _rebuild_plan(self, node_id, ctx):
        plan = ctx.sym.plan
        assert plan is not None
        n_chunks = min(
            self.pool.n_workers,
            max(1, plan.n_sources // self.min_chunk_rows),
        )
        chunks = plan.chunks(n_chunks) if n_chunks > 1 else []
        if len(chunks) <= 1:
            return super()._rebuild_plan(node_id, ctx)

        kernel = self._chunk_kernel
        out = value_matrix(ctx.sym.nnz, self.rank)

        def chunk(s, g):
            kernel.rebuild_chunk(ctx, s, g, out)

        def traced_chunk(s, g):
            with _trace.span("kernel_chunk", backend=kernel.name,
                             node=node_id):
                chunk(s, g)

        def run(traced: bool) -> np.ndarray:
            fn = traced_chunk if traced else chunk
            self.pool.run([(lambda s=s, g=g: fn(s, g)) for s, g in chunks])
            if traced:
                # Chunked rebuilds grow per-worker arena buffers; refresh
                # the workspace gauge so the peak is visible even between
                # mttkrp span boundaries.
                self._publish_memory_gauges()
            return out

        return run, {"chunks": len(chunks)}
