"""Kernel backends: interchangeable implementations of one node rebuild.

A backend turns a :class:`RebuildContext` (static indices + current numeric
state) into the node's ``(n_segments, R)`` value matrix.  All backends
compute the *same* values — the engine's perf counters and the cost model
are backend-independent — they differ only in how the gather → Hadamard →
segmented-sum pipeline is executed:

``csr``
    The default.  The ``numpy`` pipeline with each block's segmented sum
    done as a CSR sparse × dense product (scipy's ``csr_matvecs`` writing
    straight into the output rows).  Agrees with ``reference`` within
    ``AGREEMENT_RTOL``, not bitwise: the sum runs in a different order.

``numpy``
    Pre-permuted flat gather indices (no per-rebuild permutation pass),
    ``np.take`` into reused workspace buffers (no large allocations),
    in-place Hadamard, and cache-sized segment-aligned blocks summed with
    ``np.add.reduceat``.  Bitwise identical to ``reference``.

``reference``
    The original engine's numeric path, kept as the plain-numpy baseline
    for benchmarking and differential testing.

``numba``
    A fused-loop ``prange`` kernel (see :mod:`repro.kernels.numba_backend`),
    registered only when numba imports cleanly.
"""

from __future__ import annotations

import numpy as np

from .blocking import block_bounds, block_pointer, resolve_block_rows
from .workspace import WorkspaceArena, value_matrix

try:  # private module, but present in every scipy >= 1.10
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except Exception as _csr_err:  # pragma: no cover - depends on scipy
    _csr_matvecs = None
    #: why the ``csr`` backend cannot run (None when it can).
    CSR_UNAVAILABLE: str | None = (
        f"scipy.sparse._sparsetools.csr_matvecs import failed: {_csr_err}"
    )
else:
    CSR_UNAVAILABLE = None


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

    def prepare(self, symbolic, rank: int) -> None:
        """Build the static state rebuilds of ``symbolic``'s nodes at
        ``rank`` will read.  Engines call it when factors are installed,
        before the first rebuild; the default builds nothing."""

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
    """Blocked gather → in-place Hadamard → ``reduceat`` on cached indices.

    Subclasses change the block loop through two hooks:
    :meth:`_block_gathers` (where a block's gather indices come from) and
    :meth:`_reduce_block` (how a block's products are segment-summed).
    """

    name = "numpy"
    supports_chunks = True

    def prepare(self, symbolic, rank: int) -> None:
        """Build every node's kernel index and block list now: built lazily
        inside the first iteration, these small long-lived arrays would
        land among its large transient buffers and fragment the heap."""
        block_rows = resolve_block_rows(rank, self)
        for ki in symbolic.build_kernel_indices():
            self.prepare_index(ki, block_rows)

    def prepare_index(self, ki, block_rows: int) -> None:
        """Build one node's static block state for ``block_rows``."""
        ki.blocks_for(block_rows)

    def rebuild(self, ctx: RebuildContext) -> np.ndarray:
        ki = ctx.kernel_index()
        out = value_matrix(ki.n_segments, ctx.rank)
        if ki.n_sources:
            block_rows = resolve_block_rows(ctx.rank, self)
            self._run_blocks(ctx, ki, ki.blocks_for(block_rows), out)
        return out

    def rebuild_chunk(self, ctx: RebuildContext, source_slice: slice,
                      segment_slice: slice, out: np.ndarray) -> None:
        ki = ctx.kernel_index()
        bounds = block_bounds(
            ki.starts, ki.n_sources, resolve_block_rows(ctx.rank, self),
            seg_lo=segment_slice.start, seg_hi=segment_slice.stop,
        )
        blocks = ((lo, hi, s_lo, s_hi,
                   block_pointer(ki.starts, lo, hi, s_lo, s_hi))
                  for lo, hi, s_lo, s_hi in bounds)
        self._run_blocks(ctx, ki, blocks, out)

    def _block_gathers(self, ctx: RebuildContext, ki):
        """``fetch(field, lo, hi)``: the gather indices of delta mode
        ``ki.delta_modes[field]`` for source rows ``lo:hi``."""
        gather = ki.gather
        return lambda field, lo, hi: gather[field][lo:hi]

    def _reduce_block(self, ki, prod: np.ndarray, ptr: np.ndarray,
                      out: np.ndarray) -> None:
        """Sum the block's product rows into its ``out`` rows; ``ptr`` is
        the block's CSR row pointer (segment offsets plus the block end)."""
        np.add.reduceat(prod, ptr[:-1], axis=0, out=out)

    def _run_blocks(self, ctx: RebuildContext, ki, blocks, out) -> None:
        factors = ctx.factors
        arena = ctx.arena
        parent_vals = ctx.parent_vals
        root_vals = ctx.root_vals
        perm = ki.perm
        fetch = self._block_gathers(ctx, ki)
        d0 = ki.delta_modes[0]
        rest = tuple(enumerate(ki.delta_modes[1:], start=1))
        for lo, hi, seg_lo, seg_hi, ptr in blocks:
            n = hi - lo
            # Identity plans map source row k to output row k: gather
            # straight into the output and skip the reduction entirely.
            prod = out[lo:hi] if ki.identity else arena.request("prod", n, ctx.rank)
            np.take(factors[d0], fetch(0, lo, hi), axis=0, out=prod,
                    mode="clip")
            for field, d_mode in rest:
                scratch = arena.request("scratch", n, ctx.rank)
                np.take(factors[d_mode], fetch(field, lo, hi), axis=0,
                        out=scratch, mode="clip")
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
                self._reduce_block(ki, prod, ptr, out[seg_lo:seg_hi])


class CsrKernel(NumpyKernel):
    """The ``numpy`` block loop with each block's segmented sum done as a
    CSR SpMM, ``out[seg_lo:seg_hi] = S_block @ prod``.

    ``S_block``'s row pointer is the block's cached offsets, its columns
    ``arange(n)`` and its data ones, read from one ``ones``/``cols`` pair
    the tree's nodes share.  Rows of the product are independent, so
    chunked rebuilds are bitwise equal to whole-node ones.
    """

    name = "csr"

    def prepare(self, symbolic, rank: int) -> None:
        """Build every node's blocks, and one ``ones``/``cols`` pair the
        tree's nodes share, sized to the largest node's need."""
        block_rows = resolve_block_rows(rank, self)
        indices = symbolic.build_kernel_indices()
        rows = [self._operand_rows(ki, block_rows) for ki in indices]
        shared = None
        for ki, n in zip(indices, rows):
            if not n:
                continue
            if shared is None:  # the first node's pair, grown to the max
                shared = ki.csr_operands(max(rows))
            ki.csr_operands(n, shared)

    def prepare_index(self, ki, block_rows: int) -> None:
        rows = self._operand_rows(ki, block_rows)
        if rows:
            ki.csr_operands(rows)

    @staticmethod
    def _operand_rows(ki, block_rows: int) -> int:
        """Rows the node's ``ones``/``cols`` need: its largest block, at
        least ``block_rows`` (chunk blocks hold up to that many, or one
        whole segment), at most its sources; 0 without reductions."""
        blocks = ki.blocks_for(block_rows)
        if ki.identity or not blocks:
            return 0
        largest = max(hi - lo for lo, hi, *_ in blocks)
        if block_rows > 0:
            largest = max(largest, block_rows)
        return min(largest, ki.n_sources)

    def rebuild_chunk(self, ctx: RebuildContext, source_slice: slice,
                      segment_slice: slice, out: np.ndarray) -> None:
        # csr_matvecs writes through a raw pointer: a strided ``out`` would
        # be reshaped into a copy and the chunk's rows silently lost.
        if not out.flags.c_contiguous:
            raise ValueError("csr rebuild_chunk needs a C-contiguous out")
        super().rebuild_chunk(ctx, source_slice, segment_slice, out)

    def _reduce_block(self, ki, prod: np.ndarray, ptr: np.ndarray,
                      out: np.ndarray) -> None:
        n, rank = prod.shape
        ones, cols = ki.csr_operands(n)
        out.fill(0.0)  # csr_matvecs accumulates: out += S @ prod
        _csr_matvecs(out.shape[0], n, rank, ptr, cols, ones,
                     prod.reshape(-1), out.reshape(-1))


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
