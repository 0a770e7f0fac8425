"""One COO MTTKRP shard kernel for every nonzero-parallel engine.

A shard is a run of nonzeros; its MTTKRP contribution is

    out[target[k]] += vals[k] * prod_m factor_m[index_m[k]]

computed over cache-sized blocks of nonzeros (``default_block_rows``), in
two passes per block.  The factor rows are gathered with ``np.take`` into
reused per-thread :class:`WorkspaceArena` buffers and multiplied in place.
Then one C loop folds in the values and accumulates the rows: scipy's
``coo_matmat_dense`` on the COO matrix with rows ``target``, columns
``arange(n)`` and data ``vals``, times the products.

Bitwise contract: blocks run in nonzero order, the C loop adds rows in
nonzero order, as ``np.add.at`` does, and ``v * x == x * v`` exactly, so
``out`` ends bit for bit equal to ``prod *= vals[:, None];
np.add.at(out, target, prod)``.  That is also the code that runs when the
scipy routine cannot be imported.  The C loop does no bounds checks, so
the kernel checks the target range itself and raises ``np.add.at``'s
``IndexError``; targets must lie in ``[0, len(out))`` (no negative
wrap-around).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.dtypes import INDEX_DTYPE
from .blocking import default_block_rows
from .workspace import WorkspaceArena

try:  # private module, but present in every scipy >= 1.10
    from scipy.sparse._sparsetools import coo_matmat_dense as _coo_matmat_dense
except Exception as _scatter_err:  # pragma: no cover - depends on scipy
    _coo_matmat_dense = None
    #: why the kernel scatters with ``np.add.at`` (None when it runs C).
    SCATTER_UNAVAILABLE: str | None = (
        f"scipy.sparse._sparsetools.coo_matmat_dense import failed: "
        f"{_scatter_err}"
    )
else:
    SCATTER_UNAVAILABLE = None

__all__ = ["SCATTER_UNAVAILABLE", "coo_mttkrp_shard"]


def _gather_hadamard(gathers, n: int, rank: int,
                     arena: WorkspaceArena) -> np.ndarray:
    """The row-wise product of ``factor[index]`` over the ``(factor,
    index)`` pairs, in gather order, as an ``(n, rank)`` arena view.

    Indices are tensor coordinates, valid by construction, so gathers use
    ``mode="clip"`` (the unbuffered ``np.take`` path).
    """
    (factor, index), *rest = gathers
    prod = arena.request("prod", n, rank)
    np.take(factor, index, axis=0, out=prod, mode="clip")
    for factor, index in rest:
        scratch = arena.request("scratch", n, rank)
        np.take(factor, index, axis=0, out=scratch, mode="clip")
        np.multiply(prod, scratch, out=prod)
    return prod


def _scatter_add(out, target, prod, vals) -> None:
    """``out[target[k]] += vals[k] * prod[k]`` in nonzero order."""
    if _coo_matmat_dense is None:
        prod *= vals[:, None]
        np.add.at(out, target, prod)
    else:
        n = target.shape[0]
        _coo_matmat_dense(n, out.shape[1], target,
                          np.arange(n, dtype=INDEX_DTYPE), vals, prod, out)


def coo_mttkrp_shard(out: np.ndarray, target: np.ndarray,
                     gathers: Iterable[tuple[np.ndarray, np.ndarray]],
                     vals: np.ndarray, arena: WorkspaceArena) -> None:
    """Accumulate one shard's MTTKRP into ``out`` (see the module doc).

    ``gathers`` holds one ``(factor, index)`` pair per non-target mode, in
    mode order; it may be lazy, and an empty shard consumes none of it.
    """
    n = target.shape[0]
    if n == 0:
        return
    lo, hi = int(target.min()), int(target.max())
    if lo < 0 or hi >= out.shape[0]:
        raise IndexError(
            f"index {lo if lo < 0 else hi} is out of bounds for axis 0 "
            f"with size {out.shape[0]}"
        )
    gathers = list(gathers)
    rank = out.shape[1]
    block = default_block_rows(rank)
    for b_lo in range(0, n, block):
        b_hi = min(b_lo + block, n)
        prod = _gather_hadamard(
            [(factor, index[b_lo:b_hi]) for factor, index in gathers],
            b_hi - b_lo, rank, arena,
        )
        _scatter_add(out, target[b_lo:b_hi], prod, vals[b_lo:b_hi])
