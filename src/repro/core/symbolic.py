"""Symbolic contraction phase: per-node index blocks and reduction plans.

The sparsity pattern of every memoized intermediate is determined entirely by
the input tensor and the strategy tree — it never changes across CP-ALS
(sub-)iterations or restarts.  The symbolic phase therefore computes, once:

* each node's unique coordinate block over its kept modes, and
* a :class:`~repro.core.segreduce.SegmentPlan` mapping parent nonzeros to
  node rows (the "reduction set" of the memoization literature),

after which every numeric rebuild of a node is a gather + Hadamard +
segmented-sum with no sorting or hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rowcodes
from ..kernels.indices import NodeKernelIndex, build_node_index, unique_nbytes
from .coo import CooTensor
from .segreduce import SegmentPlan
from .strategy import MemoStrategy


@dataclass
class NodeSymbolic:
    """Static structure of one strategy node's intermediate tensor."""

    node_id: int
    modes: tuple[int, ...]
    #: unique coordinate rows over ``modes`` (lexicographic order).
    index: np.ndarray
    #: plan summing parent rows into this node's rows (None for the root).
    plan: SegmentPlan | None
    #: for each delta mode, its column position in the *parent's* index block.
    delta_parent_cols: tuple[int, ...]
    #: the delta modes themselves (aligned with ``delta_parent_cols``).
    delta_modes: tuple[int, ...]

    @property
    def nnz(self) -> int:
        return int(self.index.shape[0])

    def index_nbytes(self) -> int:
        plan_bytes = self.plan.index_nbytes() if self.plan is not None else 0
        return int(self.index.nbytes) + plan_bytes


class SymbolicTree:
    """Symbolic structures for every node of ``strategy`` applied to ``tensor``.

    Parameters
    ----------
    tensor:
        input tensor in canonical COO form.
    strategy:
        memoization tree over the tensor's modes.
    """

    def __init__(self, tensor: CooTensor, strategy: MemoStrategy):
        if strategy.n_modes != tensor.ndim:
            raise ValueError(
                f"strategy covers {strategy.n_modes} modes, tensor has "
                f"{tensor.ndim}"
            )
        self.tensor = tensor
        self.strategy = strategy
        self.nodes: list[NodeSymbolic] = [None] * len(strategy.nodes)  # type: ignore[list-item]
        self._kernel_indices: dict[int, NodeKernelIndex] = {}
        self._build()

    def _build(self) -> None:
        strat = self.strategy
        root = strat.root
        self.nodes[root.id] = NodeSymbolic(
            node_id=root.id,
            modes=root.modes,
            index=self.tensor.idx,
            plan=None,
            delta_parent_cols=(),
            delta_modes=(),
        )
        for nid in strat.topological_order():
            node = strat.nodes[nid]
            if node.is_root:
                continue
            parent_sym = self.nodes[node.parent]  # type: ignore[index]
            parent_modes = strat.nodes[node.parent].modes  # type: ignore[index]
            keep_cols = [parent_modes.index(m) for m in node.modes]
            delta_cols = tuple(parent_modes.index(m) for m in node.delta)
            projected = parent_sym.index[:, keep_cols]
            dims = [self.tensor.shape[m] for m in node.modes]
            perm, starts = rowcodes.sort_rows(projected, dims)
            self.nodes[nid] = NodeSymbolic(
                node_id=nid,
                modes=node.modes,
                index=np.take(projected, perm[starts], axis=0),
                plan=SegmentPlan.from_sorted(perm, starts),
                delta_parent_cols=delta_cols,
                delta_modes=node.delta,
            )

    # ------------------------------------------------------------------
    # kernel indices
    # ------------------------------------------------------------------
    def kernel_index(self, node_id: int) -> NodeKernelIndex | None:
        """The node's flat gather/reduction indices (``None`` for the root).

        Built on first request and cached on the tree, so every engine,
        restart, and parallel worker sharing this symbolic tree shares one
        set of precomputed arrays.  Like the index blocks themselves, these
        depend only on the sparsity pattern and the strategy.
        """
        node = self.strategy.nodes[node_id]
        if node.is_root:
            return None
        ki = self._kernel_indices.get(node_id)
        if ki is None:
            assert node.parent is not None
            ki = build_node_index(self.nodes[node_id], self.nodes[node.parent])
            self._kernel_indices[node_id] = ki
        return ki

    def build_kernel_indices(self) -> list[NodeKernelIndex]:
        """Build (if needed) and return every non-root node's kernel index;
        engines' kernel backends call this before the first rebuild."""
        indices = [self.kernel_index(sym.node_id) for sym in self.nodes]
        return [ki for ki in indices if ki is not None]

    def kernel_index_nbytes(self) -> int:
        """Bytes held by kernel indices built so far (excluded from
        :meth:`index_nbytes`, which the cost model predicts exactly);
        arrays the nodes share count once."""
        return unique_nbytes(
            a for ki in self._kernel_indices.values() for a in ki.arrays()
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def node_nnz(self) -> list[int]:
        """Per-node intermediate nonzero counts (cost-model input)."""
        return [sym.nnz for sym in self.nodes]

    def index_nbytes(self) -> int:
        """Total bytes of all symbolic index structures."""
        return sum(sym.index_nbytes() for sym in self.nodes)

    def compression_ratios(self) -> dict[int, float]:
        """Per non-root node: parent nnz / node nnz (index-overlap factor).

        Ratios above 1 quantify how much contraction shrinks the
        intermediates — the effect that makes memoization pay beyond the pure
        operation-count argument.
        """
        out: dict[int, float] = {}
        for sym in self.nodes:
            node = self.strategy.nodes[sym.node_id]
            if node.is_root:
                continue
            parent_nnz = self.nodes[node.parent].nnz  # type: ignore[index]
            out[sym.node_id] = parent_nnz / max(sym.nnz, 1)
        return out

    def __repr__(self) -> str:
        return (
            f"SymbolicTree(strategy={self.strategy.name!r}, "
            f"root_nnz={self.tensor.nnz}, "
            f"index_bytes={self.index_nbytes()})"
        )
