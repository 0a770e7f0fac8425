"""The memoized engine on a thread pool.

:class:`~repro.core.engine.MemoizedMttkrp` takes an optional worker pool
and splits each large node rebuild along segment boundaries of its
reduction plan (see its ``pool`` parameter).  This module keeps the
constructor that builds and owns that pool.
"""

from __future__ import annotations

from ..core.coo import CooTensor
from ..core.engine import MemoizedMttkrp
from .pool import WorkerPool


def ParallelMemoizedMttkrp(tensor: CooTensor, strategy, factors=None, *,
                           n_workers: int | None = None,
                           pool: WorkerPool | None = None, symbolic=None,
                           min_chunk_rows: int | None = None,
                           kernel=None) -> MemoizedMttkrp:
    """A :class:`MemoizedMttkrp` on ``pool``, else on a
    ``WorkerPool(n_workers)`` it owns and closes on :meth:`close`.

    Single-worker pools degrade gracefully to near-sequential behaviour
    (one chunk per node), so speedup measurements can use the same engine
    at every worker count.  ``min_chunk_rows`` overrides the chunking
    threshold.
    """
    engine = MemoizedMttkrp(tensor, strategy, factors, symbolic=symbolic,
                            kernel=kernel,
                            pool=pool or WorkerPool(n_workers))
    engine._own_pool = pool is None
    if min_chunk_rows is not None:
        engine.min_chunk_rows = int(min_chunk_rows)
    return engine
