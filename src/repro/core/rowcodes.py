"""Row-encoding utilities: map multi-column integer rows to scalar keys.

Grouping identical coordinate tuples is the backbone of tensor
canonicalization, the symbolic contraction phase and the planner's
distinct-projection counts.  Every grouping goes through one primitive,
:func:`sort_rows`: it encodes each row as a lexicographic int64 code
(compressing a prefix to dense ranks whenever the mixed-radix product would
overflow), then finds the *stable* sort order of the codes with a single
``np.sort`` of packed ``(code << bits) | row`` keys.  The low bits of the
sorted keys are exactly ``np.argsort(codes, kind="stable")``, at a fraction
of the cost of a merge sort, and no caller needs a second sort or a hash
``np.unique``.
"""

from __future__ import annotations

import numpy as np

from .dtypes import INDEX_DTYPE

#: Largest mixed-radix product for which scalar encoding is safe.
_MAX_CODE = np.iinfo(np.int64).max


def fits_int64(dims) -> bool:
    """True if the mixed-radix encoding of ``dims`` fits in a signed int64."""
    prod = 1
    for d in dims:
        prod *= int(d)
        if prod > _MAX_CODE:
            return False
    return True


def encode_rows(idx: np.ndarray, dims) -> np.ndarray:
    """Encode each row of ``idx`` (``m x k``) as a scalar int64 key.

    The encoding is the mixed-radix number with digit ``idx[:, j]`` and radix
    ``dims[j]`` — row-major, so scalar-key order equals lexicographic row
    order.  Raises ``OverflowError`` when the key space exceeds int64; callers
    should check :func:`fits_int64` first or use :func:`sort_rows`, which
    has no such limit.
    """
    dims = [int(d) for d in dims]
    if idx.shape[1] != len(dims):
        raise ValueError(
            f"idx has {idx.shape[1]} columns but dims has {len(dims)} entries"
        )
    if not fits_int64(dims):
        raise OverflowError("mixed-radix key space exceeds int64")
    if not dims:
        return np.zeros(idx.shape[0], dtype=INDEX_DTYPE)
    return _lex_codes(idx, dims)[0]


def _lex_codes(idx: np.ndarray, dims,
               limit: int = _MAX_CODE + 1) -> tuple[np.ndarray, int]:
    """Lexicographic int64 codes of the rows of ``idx`` and their bound.

    ``idx`` is ``m x k`` with ``k >= 1``.  Returns ``(codes, bound)`` with
    ``0 <= codes < bound`` and code order equal to lexicographic row order
    (equal rows, equal codes).  When the running mixed-radix product would
    pass ``limit`` (int64 by default) the prefix codes — and if need be the
    next column — are first replaced by their dense ranks, which preserves
    order and equality with a bound of at most ``m``.
    """
    codes = idx[:, 0].astype(INDEX_DTYPE, copy=True)
    bound = int(dims[0])
    for j in range(1, idx.shape[1]):
        col, radix = idx[:, j], int(dims[j])
        if bound * radix > limit:
            codes, bound = _dense_ranks(codes, bound)
        if bound * radix > limit:
            col, radix = _dense_ranks(col.astype(INDEX_DTYPE), radix)
        codes *= radix
        codes += col
        bound *= radix
    return codes, bound


def _sort_codes(codes: np.ndarray, bound: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of 1-D int64 ``codes`` and the sorted codes.

    ``bound`` is an exclusive upper bound on non-negative codes, or None
    when the codes may be negative.  Already sorted codes return the
    identity after one O(m) check.  Otherwise the row number is packed into
    the low bits of each code and one ``np.sort`` orders the packed keys:
    the keys are distinct, so any sort gives the order a stable sort of the
    codes gives.  A merge-sort ``argsort`` is the fallback for key spaces too
    wide to pack.
    """
    m = codes.shape[0]
    if m < 2 or not np.any(codes[1:] < codes[:-1]):
        return np.arange(m, dtype=np.intp), codes
    bits = (m - 1).bit_length()
    if bound is not None and bound <= 1 << (63 - bits):
        keys = codes << bits
        keys |= np.arange(m, dtype=INDEX_DTYPE)
        keys.sort()
        perm = keys & ((1 << bits) - 1)
        keys >>= bits
        return perm, keys
    perm = np.argsort(codes, kind="stable")
    return perm, codes[perm]


def _group_starts(sorted_codes: np.ndarray) -> np.ndarray:
    """Offsets in sorted order where a new distinct code begins."""
    m = sorted_codes.shape[0]
    boundary = np.empty(m, dtype=bool)
    if m:
        boundary[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def group_ids(starts: np.ndarray, m: int) -> np.ndarray:
    """Group id of each position in sorted order, given the group starts."""
    ids = np.zeros(m, dtype=np.intp)
    ids[starts[1:]] = 1
    return np.cumsum(ids, out=ids)


def _dense_ranks(codes: np.ndarray, bound: int | None) -> tuple[np.ndarray, int]:
    """Replace each code by its rank among the distinct codes."""
    perm, sorted_codes = _sort_codes(codes, bound)
    starts = _group_starts(sorted_codes)
    ranks = np.empty(codes.shape[0], dtype=INDEX_DTYPE)
    ranks[perm] = group_ids(starts, codes.shape[0])
    return ranks, int(starts.shape[0])


def sort_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of a 1-D integer array as ``(perm, starts)``.

    ``perm`` equals ``np.argsort(codes, kind="stable")`` and ``starts``
    holds the offsets into ``codes[perm]`` where a new distinct value
    begins.
    """
    codes = np.asarray(codes, dtype=INDEX_DTYPE)
    bound = None
    if codes.shape[0] and codes.min() >= 0:
        bound = int(codes.max()) + 1
    perm, sorted_codes = _sort_codes(codes, bound)
    return perm, _group_starts(sorted_codes)


def sort_rows(idx: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic sort of the rows of ``idx`` as ``(perm, starts)``.

    ``idx`` is ``m x k`` with ``0 <= idx[:, j] < dims[j]``.  ``perm`` equals
    ``np.lexsort(idx.T[::-1])`` (a stable sort, so equal rows keep their
    input order) and ``starts`` holds the offsets into ``idx[perm]`` where a
    new distinct row begins: ``idx[perm[starts]]`` are the distinct rows in
    lexicographic order, and ``len(starts)`` is their count.  Any ``dims``
    works, including key spaces beyond int64.
    """
    m, k = idx.shape
    if k == 0:
        return np.arange(m, dtype=np.intp), np.zeros(min(m, 1), dtype=np.intp)
    # Keep the codes narrow enough to pack the row number beside them.
    limit = 1 << (63 - max(m - 1, 0).bit_length())
    perm, sorted_codes = _sort_codes(*_lex_codes(idx, dims, limit))
    return perm, _group_starts(sorted_codes)


def lexsort_rows(idx: np.ndarray) -> np.ndarray:
    """Return the stable permutation sorting rows of ``idx`` lexicographically."""
    m, k = idx.shape
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    if k and idx.min() < 0:
        # np.lexsort keys: last key is primary, so reverse the column order.
        return np.lexsort(idx.T[::-1])
    return sort_rows(idx, [int(idx[:, j].max()) + 1 for j in range(k)])[0]


def group_rows(idx: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """Group identical rows of ``idx``.

    Returns ``(unique_rows, inverse)`` where ``unique_rows`` is ``u x k`` in
    lexicographic order and ``inverse`` maps each input row to its group id,
    exactly like ``np.unique(idx, axis=0, return_inverse=True)``.
    """
    m = idx.shape[0]
    perm, starts = sort_rows(idx, dims)
    inverse = np.empty(m, dtype=np.intp)
    inverse[perm] = group_ids(starts, m)
    return np.take(idx, perm[starts], axis=0), inverse


def count_distinct_rows(idx: np.ndarray, dims) -> int:
    """Number of distinct rows of ``idx`` (cheaper than :func:`group_rows`)."""
    m, k = idx.shape
    if m == 0:
        return 0
    if k == 0:
        return 1
    codes, _ = _lex_codes(idx, dims)
    codes.sort()
    return 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
