"""Static per-node gather indices: the cached half of every node rebuild.

A node rebuild gathers factor rows addressed by columns of the *parent's*
index block, multiplies them with the parent values, permutes the products
into segment order, and segment-sums.  Everything about that except the
floating-point values is fixed by the sparsity pattern and the strategy —
yet the baseline engine re-derives it on every rebuild: the column slice
``parent.index[:, d_col]`` is a strided read, and the segment permutation is
applied as a separate ``(nnz, R)`` fancy-gather pass over the products.

:class:`NodeKernelIndex` precomputes, once per node:

* one **flat, contiguous, pre-permuted** gather array per delta mode
  (``parent.index[perm, d_col]``, the rows of one matrix), so the factor
  gather lands directly in segment order and the per-rebuild permutation
  pass disappears entirely;
* the parent-row permutation (``None`` when the plan's order is already
  sorted) for gathering parent/root values;
* the ``reduceat`` segment starts;
* per block size, the segment-aligned block list with each block's CSR row
  pointer, and the ``ones``/``arange`` data and column arrays the ``csr``
  backend's block operators share.

These arrays are cached on the :class:`~repro.core.symbolic.SymbolicTree`,
so engines, restarts, and parallel workers sharing a tree share them too.
"""

from __future__ import annotations

import numpy as np

from ..core.dtypes import VALUE_DTYPE


class NodeKernelIndex:
    """Precomputed flat gather/reduction indices for one non-root node."""

    __slots__ = (
        "node_id", "delta_modes", "n_sources", "n_segments", "gather",
        "perm", "starts", "identity", "_blocks", "_stacked", "_perm_full",
        "_alto", "_csr",
    )

    def __init__(self, node_id: int, delta_modes: tuple[int, ...],
                 gather, perm: np.ndarray | None,
                 starts: np.ndarray, n_sources: int, identity: bool):
        self.node_id = node_id
        self.delta_modes = delta_modes
        self._stacked: np.ndarray | None = None
        if isinstance(gather, np.ndarray):  # one (n_delta, n_sources) matrix
            self._stacked = gather
            gather = tuple(gather)
        #: one flat gather array per delta mode.
        self.gather: tuple[np.ndarray, ...] = tuple(gather)
        self.perm = perm
        self.starts = starts
        self.n_sources = int(n_sources)
        self.n_segments = int(starts.shape[0])
        self.identity = bool(identity)
        self._blocks: dict[int, list] = {}
        self._perm_full: np.ndarray | None = None
        #: lazily built bit-packed gather (see repro.kernels.alto);
        #: False = packing checked and not applicable.
        self._alto = None
        #: ``(ones, cols)`` of the csr backend's block operators.
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def blocks_for(self, block_rows: int) -> list:
        """Cached segment-aligned ``(src_lo, src_hi, seg_lo, seg_hi, ptr)``
        blocks for one block size.  ``ptr`` is the block's CSR row pointer
        (:func:`~repro.kernels.blocking.block_pointer`); all of a node's
        pointers are slices of one array."""
        blocks = self._blocks.get(block_rows)
        if blocks is None:
            from .blocking import block_bounds, block_pointer

            bounds = list(block_bounds(self.starts, self.n_sources, block_rows))
            pointers = np.empty(self.n_segments + len(bounds), dtype=np.intp)
            blocks, at = [], 0
            for lo, hi, seg_lo, seg_hi in bounds:
                ptr = pointers[at:at + seg_hi - seg_lo + 1]
                block_pointer(self.starts, lo, hi, seg_lo, seg_hi, out=ptr)
                blocks.append((lo, hi, seg_lo, seg_hi, ptr))
                at += ptr.shape[0]
            self._blocks[block_rows] = blocks
        return blocks

    def csr_operands(self, rows: int, shared=None) -> tuple[np.ndarray, np.ndarray]:
        """``(ones, cols)``, at least ``rows`` long: the data and column
        arrays of every block's CSR operator (a block sums row ``k`` of its
        product into the segment holding ``k``).  Set before the first
        rebuild, to ``shared`` (one pair for a whole tree) when that is
        long enough; a node gets its own pair only if a block outgrows it."""
        if self._csr is None or self._csr[0].shape[0] < rows:
            if shared is None or shared[0].shape[0] < rows:
                shared = (np.ones(rows, dtype=VALUE_DTYPE),
                          np.arange(rows, dtype=np.intp))
            self._csr = shared
        return self._csr

    def stacked_gather(self) -> np.ndarray:
        """All gather arrays as one ``(n_delta, n_sources)`` matrix (for
        fused backends that want a single typed argument)."""
        if self._stacked is None:
            self._stacked = np.ascontiguousarray(np.vstack(self.gather))
        return self._stacked

    def perm_or_identity(self) -> np.ndarray:
        """The permutation as a concrete array (``arange`` when identity)."""
        if self.perm is not None:
            return self.perm
        if self._perm_full is None:
            self._perm_full = np.arange(self.n_sources, dtype=np.intp)
        return self._perm_full

    def arrays(self):
        """Every array the index holds, including ones shared with other
        nodes of its tree."""
        yield self.starts
        yield from self.gather
        for extra in (self.perm, self._stacked, self._perm_full):
            if extra is not None:
                yield extra
        if self._alto is not None and self._alto is not False:
            yield self._alto.codes
        yield from self._csr or ()
        for blocks in self._blocks.values():
            for block in blocks:
                yield block[4]

    def nbytes(self) -> int:
        """Bytes held by the cached index structures."""
        return unique_nbytes(self.arrays())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NodeKernelIndex(node={self.node_id}, "
            f"deltas={self.delta_modes}, sources={self.n_sources}, "
            f"segments={self.n_segments}, identity={self.identity})"
        )


def unique_nbytes(arrays) -> int:
    """Bytes of the buffers ``arrays`` keep alive, each buffer counted once
    however many of the arrays view it."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return int(sum(owners.values()))


def build_node_index(sym, parent_sym) -> NodeKernelIndex:
    """Build the kernel index for ``sym`` (a non-root
    :class:`~repro.core.symbolic.NodeSymbolic`) from its parent's block."""
    plan = sym.plan
    assert plan is not None, "root nodes have no kernel index"
    perm: np.ndarray | None
    if plan.has_identity_perm:
        perm = None
    else:
        perm = np.ascontiguousarray(plan.perm, dtype=np.intp)
    gather = np.empty((len(sym.delta_parent_cols), plan.n_sources),
                      dtype=np.intp)
    for row, d_col in zip(gather, sym.delta_parent_cols):
        col = parent_sym.index[:, d_col]
        if perm is None:
            row[:] = col
        else:
            np.take(col, perm, out=row, mode="clip")  # unbuffered
    starts = np.ascontiguousarray(plan.starts, dtype=np.intp)
    return NodeKernelIndex(
        node_id=sym.node_id,
        delta_modes=sym.delta_modes,
        gather=gather,
        perm=perm,
        starts=starts,
        n_sources=plan.n_sources,
        identity=plan.is_identity,
    )
