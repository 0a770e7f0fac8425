"""Kernel backends: interchangeable implementations of one node rebuild.

A backend turns a :class:`RebuildContext` (static indices + current numeric
state) into the node's ``(n_segments, R)`` value matrix.  All backends
compute the *same* values — the engine's perf counters and the cost model
are backend-independent — they differ only in how the gather → Hadamard →
segmented-sum pipeline is executed:

``numpy``
    The default.  Pre-permuted flat gather indices (no per-rebuild
    permutation pass), ``np.take`` into reused workspace buffers (no large
    allocations), in-place Hadamard, and cache-sized segment-aligned blocks.
    Bitwise identical to ``reference``.

``reference``
    The original engine's numeric path, kept as the plain-numpy baseline
    for benchmarking and differential testing.

``numba``
    A fused-loop ``prange`` kernel (see :mod:`repro.kernels.numba_backend`),
    registered only when numba imports cleanly.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import VALUE_DTYPE
from .blocking import resolve_block_rows
from .workspace import WorkspaceArena


class RebuildContext:
    """Everything a backend may need to rebuild one node.

    ``sym``/``parent_sym`` are :class:`~repro.core.symbolic.NodeSymbolic`
    blocks; exactly one of ``parent_vals`` (a ``(m, R)`` cached node value
    matrix) and ``root_vals`` (the tensor's ``(m,)`` nonzero values) is set.
    """

    __slots__ = ("symbolic", "node_id", "sym", "parent_sym", "factors",
                 "parent_vals", "root_vals", "rank", "arena")

    def __init__(self, symbolic, node_id, sym, parent_sym, factors,
                 parent_vals, root_vals, rank, arena: WorkspaceArena):
        self.symbolic = symbolic
        self.node_id = node_id
        self.sym = sym
        self.parent_sym = parent_sym
        self.factors = factors
        self.parent_vals = parent_vals
        self.root_vals = root_vals
        self.rank = rank
        self.arena = arena

    def kernel_index(self):
        """The node's cached :class:`~repro.kernels.indices.NodeKernelIndex`."""
        return self.symbolic.kernel_index(self.node_id)


class KernelBackend:
    """Interface: :meth:`rebuild` a whole node, optionally by chunks."""

    #: registry name (overridden by implementations).
    name = "abstract"

    #: whether :meth:`rebuild_chunk` is implemented (the parallel engine's
    #: segment-aligned chunking requires it).
    supports_chunks = False

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        raise NotImplementedError

    def rebuild_chunk(self, ctx: RebuildContext, source_slice: slice,
                      segment_slice: slice, out: np.ndarray) -> None:
        """Compute rows ``segment_slice`` of the node's value matrix into
        ``out`` (the full ``(n_segments, R)`` array), reading only sources
        in ``source_slice``.  Chunks come from ``SegmentPlan.chunks`` and
        are segment-aligned, so concurrent chunk writes never overlap."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyKernel(KernelBackend):
    """Blocked gather → in-place Hadamard → ``reduceat`` on cached indices."""

    name = "numpy"
    supports_chunks = True

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        ki = ctx.kernel_index()
        out = np.empty((ki.n_segments, ctx.rank), dtype=VALUE_DTYPE)
        if ki.n_sources:
            block_rows = resolve_block_rows(ctx.rank)
            self._run_blocks(ctx, ki, ki.blocks_for(block_rows), out)
        return out

    def rebuild_chunk(self, ctx: RebuildContext, source_slice: slice,
                      segment_slice: slice, out: np.ndarray) -> None:
        from .blocking import segment_blocks

        ki = ctx.kernel_index()
        blocks = segment_blocks(
            ki.starts, ki.n_sources, resolve_block_rows(ctx.rank),
            seg_lo=segment_slice.start, seg_hi=segment_slice.stop,
        )
        self._run_blocks(ctx, ki, blocks, out)

    def _run_blocks(self, ctx: RebuildContext, ki, blocks, out) -> None:
        factors = ctx.factors
        arena = ctx.arena
        parent_vals = ctx.parent_vals
        root_vals = ctx.root_vals
        perm = ki.perm
        d0 = ki.delta_modes[0]
        g0 = ki.gather[0]
        rest = tuple(zip(ki.delta_modes[1:], ki.gather[1:]))
        for lo, hi, seg_lo, seg_hi, lstarts in blocks:
            n = hi - lo
            # Identity plans map source row k to output row k: gather
            # straight into the output and skip the reduction entirely.
            prod = out[lo:hi] if ki.identity else arena.request("prod", n, ctx.rank)
            np.take(factors[d0], g0[lo:hi], axis=0, out=prod, mode="clip")
            for d_mode, g in rest:
                scratch = arena.request("scratch", n, ctx.rank)
                np.take(factors[d_mode], g[lo:hi], axis=0, out=scratch,
                        mode="clip")
                np.multiply(prod, scratch, out=prod)
            if parent_vals is not None:
                if perm is None:
                    np.multiply(prod, parent_vals[lo:hi], out=prod)
                else:
                    scratch = arena.request("scratch", n, ctx.rank)
                    np.take(parent_vals, perm[lo:hi], axis=0, out=scratch,
                            mode="clip")
                    np.multiply(prod, scratch, out=prod)
            else:
                svals = (
                    root_vals[lo:hi] if perm is None
                    else root_vals[perm[lo:hi]]
                )
                np.multiply(prod, svals[:, None], out=prod)
            if not ki.identity:
                np.add.reduceat(prod, lstarts, axis=0, out=out[seg_lo:seg_hi])


class ReferenceKernel(KernelBackend):
    """The seed engine's numeric path, verbatim (baseline + differential
    testing): per-rebuild strided column reads, a fresh allocation per pass,
    and the segment permutation applied to the ``(m, R)`` products."""

    name = "reference"
    supports_chunks = True

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        sym, parent_sym = ctx.sym, ctx.parent_sym
        factors = ctx.factors
        prod: np.ndarray | None = None
        for d_mode, d_col in zip(sym.delta_modes, sym.delta_parent_cols):
            rows = factors[d_mode][parent_sym.index[:, d_col]]
            if prod is None:
                prod = rows.copy()
            else:
                prod *= rows
        assert prod is not None, "strategy validation guarantees non-empty delta"
        if ctx.parent_vals is None:
            prod *= ctx.root_vals[:, None]
        else:
            prod *= ctx.parent_vals
        assert sym.plan is not None
        return sym.plan.reduce(prod)

    def rebuild_chunk(self, ctx: RebuildContext, source_slice: slice,
                      segment_slice: slice, out: np.ndarray) -> None:
        sym, parent_sym = ctx.sym, ctx.parent_sym
        plan = sym.plan
        assert plan is not None
        factors = ctx.factors
        rows = plan.sorted_sources(source_slice)
        prod: np.ndarray | None = None
        for d_mode, d_col in zip(sym.delta_modes, sym.delta_parent_cols):
            gathered = factors[d_mode][parent_sym.index[rows, d_col]]
            if prod is None:
                prod = gathered
            else:
                prod *= gathered
        assert prod is not None
        if ctx.parent_vals is None:
            prod *= ctx.root_vals[rows, None]
        else:
            prod *= ctx.parent_vals[rows]
        starts = plan.local_starts(source_slice, segment_slice)
        np.add.reduceat(prod, starts, axis=0, out=out[segment_slice])
