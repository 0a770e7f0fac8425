"""The memoized MTTKRP engine: numeric phase over a symbolic tree.

Given a tensor, a memoization strategy, and current factor matrices, the
engine produces MTTKRP results per mode while caching intermediate
semi-sparse tensors and invalidating exactly those that depend on an updated
factor.  All numeric work is three vectorized passes per node rebuild:
factor-row gather, Hadamard product, segmented sum.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..kernels import RebuildContext, WorkspaceArena, get_kernel
from ..kernels.workspace import value_matrix
from ..obs import seam as _seam
from ..obs import trace as _trace
from ..obs.metrics import registry as _metrics
from ..perf import counters as perf
from .coo import CooTensor
from .dtypes import VALUE_DTYPE
from .semisparse import SemiSparseTensor
from .strategy import MemoStrategy, resolve_strategy
from .symbolic import SymbolicTree
from .validate import check_factor_matrices, check_mode


def contraction_work(parent_nnz: int, rank: int, n_delta: int) -> tuple[int, int]:
    """(flops, words) convention for rebuilding a node from its parent.

    flops: ``parent_nnz * R * (n_delta + 1)`` — ``n_delta`` Hadamard
    multiplies per element-row plus one add into the segment reduction.
    words: gathered factor rows (``parent_nnz * R`` per delta mode), the
    parent value read, and the node value write.
    """
    flops = parent_nnz * rank * (n_delta + 1)
    words = parent_nnz * rank * (n_delta + 2)
    return flops, words


class MemoizedMttkrp:
    """Stateful MTTKRP provider for one tensor + strategy.

    Parameters
    ----------
    tensor:
        input sparse tensor.
    strategy:
        a :class:`MemoStrategy`, nested-tuple spec, or strategy name.
    factors:
        optional initial factor matrices (may also be installed later with
        :meth:`set_factors`).
    symbolic:
        a prebuilt :class:`SymbolicTree` to reuse (skips the symbolic phase).
    kernel:
        kernel backend executing node rebuilds: a name from
        :func:`repro.kernels.available_kernels`, a
        :class:`~repro.kernels.KernelBackend` instance, or ``None`` to
        resolve from the ``REPRO_KERNEL`` environment variable (default
        :data:`repro.kernels.DEFAULT_KERNEL`, ``"csr"``).  Backends differ
        only in execution; every backend produces the same values (see the
        parity contract in ``docs/performance.md``) and identical perf
        counters.
    pool:
        optional worker pool (anything with ``n_workers`` and an ordered
        ``run(thunks)``, e.g. :class:`repro.parallel.WorkerPool`).  A node
        rebuild splits into up to one chunk per worker, each of at least
        :attr:`min_chunk_rows` parent rows, along *segment boundaries* of
        its reduction plan, so every task writes a disjoint range of the
        node's output rows:
        no write conflicts, no reduction pass, and the result bits of the
        sequential rebuild.  ``None`` rebuilds every node inline.  The
        engine does not close a pool it was given (see :meth:`close`).
    """

    #: fewest parent rows per chunk of a pooled rebuild — below it,
    #: thread dispatch costs more than the kernel itself.
    min_chunk_rows = 16_384

    def __init__(self, tensor: CooTensor, strategy, factors=None, *,
                 symbolic: SymbolicTree | None = None, kernel=None,
                 pool=None):
        self.tensor = tensor
        self.strategy: MemoStrategy = resolve_strategy(strategy, tensor.ndim)
        if symbolic is not None:
            if symbolic.strategy is not self.strategy and (
                symbolic.strategy.signature() != self.strategy.signature()
            ):
                raise ValueError("prebuilt symbolic tree uses a different strategy")
            if symbolic.tensor is not tensor:
                raise ValueError("prebuilt symbolic tree is for a different tensor")
            self.symbolic = symbolic
        else:
            with _trace.span("symbolic_build", strategy=self.strategy.name,
                             nnz=tensor.nnz):
                self.symbolic = SymbolicTree(tensor, self.strategy)
        self._values: list[np.ndarray | None] = [None] * len(self.strategy.nodes)
        self._factors: list[np.ndarray] | None = None
        self._rank: int | None = None
        self._root_vals: np.ndarray = tensor.vals
        self._kernel = get_kernel(kernel)
        # Chunked rebuilds need ``rebuild_chunk``; backends without it
        # (``numba`` parallelizes inside the node) chunk on ``numpy``.
        self._chunk_kernel = (self._kernel if self._kernel.supports_chunks
                              else get_kernel("numpy"))
        self.pool = pool
        self._own_pool = False
        self._arena = WorkspaceArena()
        if factors is not None:
            self.set_factors(factors)

    @property
    def kernel(self):
        """The kernel backend executing this engine's node rebuilds."""
        return self._kernel

    @property
    def mode_order(self) -> tuple[int, ...]:
        """Mode update order under which each node rebuilds once/iteration."""
        return self.strategy.mode_order

    # ------------------------------------------------------------------
    # factor management
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        if self._rank is None:
            raise RuntimeError("factors have not been set")
        return self._rank

    @property
    def factors(self) -> list[np.ndarray]:
        if self._factors is None:
            raise RuntimeError("factors have not been set")
        return self._factors

    def set_factors(self, factors: Sequence[np.ndarray]) -> None:
        """Install a full set of factor matrices; drops every cached node.

        Once the rank is known, the kernel backend builds the static state
        its rebuilds read (kernel indices, block lists), so none of it is
        allocated inside the first iteration.
        """
        rank = check_factor_matrices(factors, self.tensor.shape)
        self._factors = [
            np.ascontiguousarray(U, dtype=VALUE_DTYPE) for U in factors
        ]
        self._rank = rank
        self.invalidate_all()
        self._prepare_kernel()

    def _prepare_kernel(self) -> None:
        self._kernel.prepare(self.symbolic, self.rank)
        if self.pool is not None and self._chunk_kernel is not self._kernel:
            self._chunk_kernel.prepare(self.symbolic, self.rank)

    def update_factor(self, mode: int, U: np.ndarray) -> None:
        """Replace one factor; invalidates nodes contracted with ``mode``."""
        mode = check_mode(mode, self.tensor.ndim)
        U = np.ascontiguousarray(U, dtype=VALUE_DTYPE)
        if U.shape != (self.tensor.shape[mode], self.rank):
            raise ValueError(
                f"factor for mode {mode} must be "
                f"{(self.tensor.shape[mode], self.rank)}, got {U.shape}"
            )
        self.factors[mode] = U
        self._drop(self.strategy.invalidated_by(mode), _seam.node_tracker())

    def invalidate_all(self) -> None:
        self._drop(range(len(self._values)), _seam.node_tracker())

    def _drop(self, node_ids, tracker) -> None:
        """Free the cached values of ``node_ids``, reporting each freed
        node to the memory tracker (when one is active)."""
        for nid in node_ids:
            if tracker is not None and self._values[nid] is not None:
                tracker.on_free(id(self), nid)
            self._values[nid] = None

    def set_root_values(self, vals: np.ndarray) -> None:
        """Replace the tensor's nonzero *values* (same sparsity pattern).

        The symbolic tree depends only on the coordinate pattern, so callers
        whose values change but whose pattern is fixed — e.g. the residual
        tensor in gradient-based completion — reuse all symbolic work.
        Drops every cached node.
        """
        vals = np.ascontiguousarray(vals, dtype=VALUE_DTYPE)
        if vals.shape != (self.tensor.nnz,):
            raise ValueError(
                f"values must have shape ({self.tensor.nnz},), got {vals.shape}"
            )
        self._root_vals = vals
        self.invalidate_all()

    # ------------------------------------------------------------------
    # numeric phase
    # ------------------------------------------------------------------
    def mttkrp(self, mode: int) -> np.ndarray:
        """The mode-``n`` MTTKRP ``M^(n)`` (shape ``I_n x R``).

        Entering mode ``n``'s sub-iteration eagerly frees every cached node
        contracted with ``n``: those values are doomed (the imminent factor
        update invalidates them) and freeing first is what bounds live value
        matrices by the tree height.
        """
        mode = check_mode(mode, self.tensor.ndim)
        probe = _seam.engine_probe()
        if probe is None:
            return self._mttkrp(mode, None)
        with probe.mttkrp(self, mode):
            return self._mttkrp(mode, probe.tracker)

    def _mttkrp(self, mode: int, tracker) -> np.ndarray:
        self._drop(self.strategy.invalidated_by(mode), tracker)
        return self._leaf_mttkrp(mode)

    def _leaf_mttkrp(self, mode: int) -> np.ndarray:
        """Scatter mode ``mode``'s leaf values (built if needed) into
        the dense ``I_n x R`` MTTKRP."""
        leaf_id = self.strategy.leaf_id(mode)
        self._ensure_node(leaf_id)
        sym = self.symbolic.nodes[leaf_id]
        vals = self._values[leaf_id]
        assert vals is not None
        out = np.zeros((self.tensor.shape[mode], self.rank), dtype=VALUE_DTYPE)
        out[sym.index[:, 0]] = vals
        perf.record(mttkrps=1, words=vals.size)
        return out

    def mttkrp_all(self) -> list[np.ndarray]:
        """All N MTTKRPs under the *current* factors, one tree sweep.

        With fixed factors the N leaf tensors share every internal node, so
        the whole set costs a single full-tree materialization — the
        gradient-evaluation pattern of CP completion/optimization, where all
        factors update simultaneously between evaluations.  Skips the
        per-mode eager free (every node stays cached until the next
        invalidation), trading the tree-height memory bound for speed.
        """
        outs: list[np.ndarray] = [None] * self.tensor.ndim  # type: ignore[list-item]
        for mode in self.strategy.mode_order:
            with _trace.span("mttkrp", mode=mode, sweep=True):
                outs[mode] = self._leaf_mttkrp(mode)
        if _trace.enabled():
            self._publish_memory_gauges()
        return outs

    def node_tensor(self, node_id: int) -> SemiSparseTensor:
        """Materialize a node's semi-sparse tensor (computing if needed)."""
        self._ensure_node(node_id)
        sym = self.symbolic.nodes[node_id]
        if self.strategy.nodes[node_id].is_root:
            vals = np.broadcast_to(
                self._root_vals[:, None], (self.tensor.nnz, self.rank)
            )
        else:
            vals = self._values[node_id]
            assert vals is not None
        return SemiSparseTensor(
            sym.modes,
            sym.index,
            vals,
            tuple(self.tensor.shape[m] for m in sym.modes),
        )

    def cached_node_ids(self) -> list[int]:
        """Ids of non-root nodes currently holding a value matrix."""
        return [
            nid
            for nid, v in enumerate(self._values)
            if v is not None and not self.strategy.nodes[nid].is_root
        ]

    def live_value_bytes(self) -> int:
        """Bytes held by cached value matrices right now."""
        return sum(
            v.nbytes for v in self._values if v is not None
        )

    def _ensure_node(self, node_id: int) -> None:
        node = self.strategy.nodes[node_id]
        if node.is_root or self._values[node_id] is not None:
            return
        assert node.parent is not None
        self._ensure_node(node.parent)
        value = self._compute_node(node_id)
        self._values[node_id] = value
        tracker = _seam.node_tracker()
        if tracker is not None:
            tracker.on_store(id(self), node_id, value.nbytes)

    def _rebuild_context(self, node_id: int) -> RebuildContext:
        """Assemble the static + numeric state a kernel backend consumes."""
        node = self.strategy.nodes[node_id]
        sym = self.symbolic.nodes[node_id]
        parent = self.strategy.nodes[node.parent]  # type: ignore[index]
        parent_sym = self.symbolic.nodes[node.parent]  # type: ignore[index]
        if parent.is_root:
            parent_vals, root_vals = None, self._root_vals
        else:
            parent_vals = self._values[parent.id]
            assert parent_vals is not None
            root_vals = None
        return RebuildContext(
            symbolic=self.symbolic,
            node_id=node_id,
            sym=sym,
            parent_sym=parent_sym,
            factors=self.factors,
            parent_vals=parent_vals,
            root_vals=root_vals,
            rank=self.rank,
            arena=self._arena,
        )

    def _compute_node(self, node_id: int) -> np.ndarray:
        """Rebuild one node: the single place telemetry wraps a rebuild
        (span, timing, event, attribution) whatever executes it."""
        ctx = self._rebuild_context(node_id)
        flops, words = contraction_work(
            ctx.parent_sym.nnz, self.rank, len(ctx.sym.delta_modes)
        )
        run, attrs = self._rebuild_plan(node_id, ctx)
        probe = _seam.engine_probe()
        if probe is None:
            result = run(False)
        else:
            result = probe.rebuild(node_id, ctx, run, attrs, flops, words)
        perf.record(
            flops=flops,
            words=words,
            contractions=len(ctx.sym.delta_modes),
            node_builds=1,
        )
        return result

    def _rebuild_plan(self, node_id: int, ctx: RebuildContext):
        """``(run, attrs)``: ``run(traced)`` executes the rebuild, inline
        or fanned out over the pool, and ``attrs`` are extra span/event
        fields; the telemetry around it stays in :meth:`_compute_node`.

        Traced, either way the rebuild is one ``kernel`` span (backend,
        node); a fan-out nests a ``kernel_chunk`` span per chunk under
        it, inside the pool's ``pool_task`` spans."""
        plan = ctx.sym.plan
        chunks = []
        if self.pool is not None and plan is not None:
            n_chunks = min(self.pool.n_workers,
                           max(1, plan.n_sources // self.min_chunk_rows))
            if n_chunks > 1:
                chunks = plan.chunks(n_chunks)
        if len(chunks) <= 1:
            kernel = self._kernel

            def rebuild(traced: bool) -> np.ndarray:
                return kernel.rebuild(ctx)

            attrs = {}
        else:
            kernel = self._chunk_kernel
            out = value_matrix(ctx.sym.nnz, self.rank)

            def chunk(s, g, traced: bool) -> None:
                if not traced:
                    return kernel.rebuild_chunk(ctx, s, g, out)
                with _trace.span("kernel_chunk", backend=kernel.name,
                                 node=node_id):
                    kernel.rebuild_chunk(ctx, s, g, out)

            def rebuild(traced: bool) -> np.ndarray:
                self.pool.run([functools.partial(chunk, s, g, traced)
                               for s, g in chunks])
                return out

            attrs = {"chunks": len(chunks)}

        def run(traced: bool) -> np.ndarray:
            if not traced:
                return rebuild(False)
            # A kernel span separates the backend's time from the engine's.
            with _trace.span("kernel", backend=kernel.name, node=node_id):
                result = rebuild(True)
            if attrs:
                # Chunked rebuilds grow per-worker arena buffers; refresh
                # the workspace gauge so the peak is visible even between
                # mttkrp span boundaries.
                self._publish_memory_gauges()
            return result

        return run, attrs

    def close(self) -> None:
        """Close the pool if the engine owns it, and drop this engine's
        entries from the memory tracker so its live total stays true
        (pool engines are commonly short-lived context managers)."""
        if self._own_pool:
            self.pool.close()
        tracker = _seam.node_tracker()
        if tracker is not None:
            tracker.release_engine(id(self))

    def __enter__(self) -> "MemoizedMttkrp":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def workspace_nbytes(self) -> int:
        """Bytes currently held by the kernel workspace arena."""
        return self._arena.nbytes()

    def factor_bytes(self) -> int:
        """Bytes of the installed dense factor matrices (0 before install)."""
        if self._factors is None:
            return 0
        return sum(U.nbytes for U in self._factors)

    def _publish_memory_gauges(self) -> None:
        """Push this engine's memory view into the metrics registry.

        Called at span boundaries while tracing is on, so ``repro trace`` /
        ``repro report`` show live/workspace/factor bytes even when the
        full :class:`repro.obs.memory.MemTracker` is not enabled.
        """
        live = self.live_value_bytes()
        _metrics.set_gauge("mem.live_value_bytes", live)
        _metrics.set_max_gauge("mem.live_value_bytes_peak", live)
        _metrics.set_gauge("mem.workspace_bytes", self.workspace_nbytes())
        _metrics.set_gauge("mem.factor_bytes", self.factor_bytes())

    def __repr__(self) -> str:
        return (
            f"MemoizedMttkrp(strategy={self.strategy.name!r}, "
            f"nnz={self.tensor.nnz}, rank={self._rank}, "
            f"kernel={self._kernel.name!r})"
        )
