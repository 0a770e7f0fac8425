"""Slice-parallel (owner-computes) MTTKRP.

The alternative shared-memory decomposition: instead of splitting *nonzeros*
and reducing partial outputs, split the *output rows* — each worker owns a
set of mode-``n`` slices and processes exactly the nonzeros falling in them.
Owners write disjoint output rows, so there is no reduction at all; the price
is load imbalance when a few slices dominate (the skew measured by
:func:`repro.parallel.partition.partition_balance`), which is why the
nonzero-parallel scheme is the default and this one exists as the measured
counterpoint.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import MttkrpBackend
from ..core.coo import CooTensor
from ..core.dtypes import VALUE_DTYPE
from ..core.validate import check_mode
from ..kernels.shard import coo_mttkrp_shard
from ..kernels.workspace import WorkspaceArena
from .partition import partition_balance, partition_slices
from .pool import WorkerPool


class SliceParallelMttkrp(MttkrpBackend):
    """Owner-computes MTTKRP backend.

    For every mode, slices are assigned to workers by LPT over per-slice
    nonzero counts; per-worker nonzero row sets are precomputed once (they
    depend only on the pattern).
    """

    name = "parallel-slice"

    def __init__(self, tensor: CooTensor, n_workers: int | None = None,
                 pool: WorkerPool | None = None):
        super().__init__(tensor)
        self._own_pool = pool is None
        self.pool = pool or WorkerPool(n_workers)
        #: mode -> list of per-worker nonzero row-index arrays.
        self._worker_rows: dict[int, list[np.ndarray]] = {}
        #: mode -> measured load imbalance of the slice assignment.
        self.imbalance: dict[int, float] = {}
        self._arena = WorkspaceArena()

    def close(self) -> None:
        self._arena.clear()
        if self._own_pool:
            self.pool.close()

    def __enter__(self) -> "SliceParallelMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _rows_for_mode(self, mode: int) -> list[np.ndarray]:
        if mode not in self._worker_rows:
            k = self.pool.n_workers
            assign = partition_slices(self.tensor, mode, k)
            self.imbalance[mode] = partition_balance(
                self.tensor.slice_nnz(mode), assign, k
            )
            owner_of_nonzero = assign[self.tensor.idx[:, mode]]
            order = np.argsort(owner_of_nonzero, kind="stable")
            sorted_owner = owner_of_nonzero[order]
            bounds = np.searchsorted(sorted_owner, np.arange(k + 1))
            self._worker_rows[mode] = [
                order[bounds[w]:bounds[w + 1]] for w in range(k)
            ]
        return self._worker_rows[mode]

    def mttkrp(self, mode: int) -> np.ndarray:
        mode = check_mode(mode, self.tensor.ndim)
        tensor, factors, rank = self.tensor, self.factors, self.rank
        out = np.zeros((tensor.shape[mode], rank), dtype=VALUE_DTYPE)
        if tensor.nnz == 0:
            return out
        worker_rows = self._rows_for_mode(mode)

        def work(rows: np.ndarray) -> None:
            # This worker owns every output row it touches: direct add.
            idx = tensor.idx[rows]
            coo_mttkrp_shard(
                out, idx[:, mode],
                ((factors[m], idx[:, m])
                 for m in range(tensor.ndim) if m != mode),
                tensor.vals[rows], self._arena,
            )

        self.pool.run([(lambda r=r: work(r)) for r in worker_rows])
        return out
