"""Cache-blocked execution: segment-aligned blocks and a block-size tuner.

The fused gather → Hadamard → segmented-sum pipeline streams ``(nnz, R)``
scratch; for large nodes those temporaries spill every cache level and each
numpy pass pays full memory bandwidth.  Processing sources in segment-aligned
blocks keeps the running product cache-resident between passes, which is
where the multi-pass numpy formulation recovers most of what a truly fused
loop would win.

Blocks always end on segment boundaries, so per-block ``np.add.reduceat``
results are bitwise identical to the unblocked reduction.  Each block's
offsets are allocated with a closing element: that array is the block's
CSR row pointer for the ``csr`` backend, and ``reduceat`` reads a view of
it without the last element.

Blocking stays even though the ``csr`` backend's sparse product could
reduce a whole node in one call: the unblocked product would need the whole
``(n_sources, R)`` Hadamard product materialized at once (153 MB on the
order-4 acceptance tensor at R=16), where a block needs a few thousand rows.

Block size resolution order:

1. ``REPRO_KERNEL_BLOCK`` environment variable (``0`` disables blocking);
2. a cached :func:`autotune_block_rows` measurement for the backend and
   rank (run explicitly, or lazily when ``REPRO_KERNEL_AUTOTUNE=1``);
3. a cache-capacity heuristic (:func:`default_block_rows`).
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..core.dtypes import VALUE_DTYPE

#: candidate block sizes (rows) swept by the auto-tuner; 0 = unblocked.
CANDIDATE_BLOCK_ROWS: tuple[int, ...] = (2048, 4096, 8192, 16384, 32768, 65536)

#: scratch working set targeted by the heuristic (≈ per-core L2 capacity).
_TARGET_WORKING_SET = 2 * 1024 * 1024

#: (backend name, rank) -> tuned block rows, filled by
#: :func:`autotune_block_rows`.
_TUNED: dict[tuple[str, int], int] = {}


def default_block_rows(rank: int) -> int:
    """Heuristic block size: two ``(rows, R)`` scratch buffers plus the
    output stream should fit the target working set."""
    rows = _TARGET_WORKING_SET // (max(rank, 1) * np.dtype(VALUE_DTYPE).itemsize * 3)
    return int(min(max(rows, 1024), 1 << 18))


def resolve_block_rows(rank: int, kernel=None) -> int:
    """The block size ``kernel`` (default: the resolved backend) should use
    for ``rank`` (0 = unblocked)."""
    env = os.environ.get("REPRO_KERNEL_BLOCK")
    if env is not None and env.strip():
        return max(0, int(env))
    tuned = _TUNED.get((_blocked_kernel(kernel).name, rank)) if _TUNED else None
    if tuned is not None:
        return tuned
    if os.environ.get("REPRO_KERNEL_AUTOTUNE", "").strip() == "1":
        return autotune_block_rows(rank, kernel=kernel)
    return default_block_rows(rank)


def clear_tuning_cache() -> None:
    _TUNED.clear()


def _blocked_kernel(kernel):
    """The backend whose block loop ``kernel`` runs: itself when it has
    one, else ``numpy`` (whose chunk kernel the parallel engine falls back
    on for backends without one)."""
    from .backends import NumpyKernel
    from .registry import get_kernel

    backend = get_kernel(kernel)
    return backend if isinstance(backend, NumpyKernel) else get_kernel("numpy")


def autotune_block_rows(
    rank: int,
    candidates: tuple[int, ...] = CANDIDATE_BLOCK_ROWS,
    *,
    sample_rows: int = 1 << 18,
    mean_segment: int = 4,
    repeats: int = 3,
    random_state: int = 0,
    kernel=None,
) -> int:
    """Pick a block size by timing the backend's block loop on synthetic data.

    Runs ``kernel``'s own gather → Hadamard → block reduction loop (default:
    the resolved backend; ``reduceat`` on ``numpy``, the sparse product on
    ``csr``) at each candidate block size, and caches the fastest for that
    backend and rank.  The synthetic workload (one factor gather, one value
    multiply, segments of ``mean_segment`` average length) matches a
    typical leaf rebuild.
    """
    from .backends import RebuildContext
    from .indices import NodeKernelIndex
    from .workspace import WorkspaceArena

    backend = _blocked_kernel(kernel)
    rng = np.random.default_rng(random_state)
    n_rows = max(int(sample_rows), max(candidates) if candidates else 1)
    factor = rng.random((50_000, rank))
    gather_idx = rng.integers(0, factor.shape[0], n_rows).astype(np.intp)
    starts = np.flatnonzero(rng.random(n_rows) < 1.0 / mean_segment).astype(np.intp)
    if starts.size == 0 or starts[0] != 0:
        starts = np.concatenate(([0], starts[starts > 0])).astype(np.intp)
    ki = NodeKernelIndex(0, (0,), (gather_idx,), None, starts, n_rows, False)
    ctx = RebuildContext(None, 0, None, None, [factor], None,
                         rng.random(n_rows), rank, WorkspaceArena())
    out = np.empty((starts.size, rank), dtype=VALUE_DTYPE)

    def run(block_rows: int) -> None:
        backend._run_blocks(ctx, ki, ki.blocks_for(block_rows), out)

    best_rows, best_time = 0, float("inf")
    for block_rows in (0,) + tuple(candidates):
        backend.prepare_index(ki, block_rows)
        run(block_rows)  # warm-up (and first-touch of the buffers)
        elapsed = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run(block_rows)
            elapsed = min(elapsed, time.perf_counter() - t0)
        if elapsed < best_time:
            best_rows, best_time = block_rows, elapsed
    _TUNED[(backend.name, rank)] = best_rows
    return best_rows


def block_bounds(
    starts: np.ndarray,
    n_sources: int,
    block_rows: int,
    *,
    seg_lo: int = 0,
    seg_hi: int | None = None,
):
    """Yield ``(src_lo, src_hi, seg_lo, seg_hi)`` of segment-aligned blocks.

    Each block covers whole segments and at most ``block_rows`` source rows
    (more only when a single segment alone exceeds ``block_rows``).
    ``block_rows <= 0`` yields the whole range as one block.  ``seg_lo`` /
    ``seg_hi`` restrict to a segment sub-range (the parallel engine's
    chunks).
    """
    n_segments = starts.shape[0] if seg_hi is None else seg_hi
    if seg_lo >= n_segments:
        return
    end_src = (
        n_sources if n_segments == starts.shape[0] else int(starts[n_segments])
    )
    seg = seg_lo
    while seg < n_segments:
        lo = int(starts[seg])
        if block_rows <= 0:
            nxt = n_segments
        else:
            nxt = int(np.searchsorted(starts[:n_segments], lo + block_rows,
                                      side="right")) - 1
            if nxt <= seg:
                nxt = seg + 1  # one oversized segment: take it whole
        hi = int(starts[nxt]) if nxt < n_segments else end_src
        yield lo, hi, seg, nxt
        seg = nxt


def block_pointer(starts: np.ndarray, lo: int, hi: int, seg_lo: int,
                  seg_hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """The block's segment offsets relative to ``lo`` plus the closing
    ``hi - lo``: its CSR row pointer (``seg_hi - seg_lo + 1`` long)."""
    if out is None:
        out = np.empty(seg_hi - seg_lo + 1, dtype=np.intp)
    np.subtract(starts[seg_lo:seg_hi], lo, out=out[:-1])
    out[-1] = hi - lo
    return out


def segment_blocks(
    starts: np.ndarray,
    n_sources: int,
    block_rows: int,
    *,
    seg_lo: int = 0,
    seg_hi: int | None = None,
):
    """Yield ``(src_lo, src_hi, seg_lo, seg_hi, local_starts)`` blocks.

    The blocks of :func:`block_bounds`; ``local_starts`` are the block's
    ``reduceat`` offsets relative to ``src_lo``: its :func:`block_pointer`
    without the closing element.
    """
    for lo, hi, s_lo, s_hi in block_bounds(starts, n_sources, block_rows,
                                           seg_lo=seg_lo, seg_hi=seg_hi):
        yield lo, hi, s_lo, s_hi, block_pointer(starts, lo, hi, s_lo, s_hi)[:-1]
