"""Unit tests for repro.core.rowcodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import rowcodes


class TestFitsInt64:
    def test_small_dims_fit(self):
        assert rowcodes.fits_int64([10, 20, 30])

    def test_empty_dims_fit(self):
        assert rowcodes.fits_int64([])

    def test_huge_product_does_not_fit(self):
        assert not rowcodes.fits_int64([2**40, 2**40])

    def test_boundary(self):
        assert rowcodes.fits_int64([2**62])
        assert not rowcodes.fits_int64([2**62, 4])


class TestEncodeRows:
    def test_row_major_order(self):
        idx = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int64)
        codes = rowcodes.encode_rows(idx, [2, 3])
        assert codes.tolist() == [0, 1, 3]

    def test_matches_lexicographic_order(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 7, size=(50, 3)).astype(np.int64)
        codes = rowcodes.encode_rows(idx, [7, 7, 7])
        by_code = np.argsort(codes, kind="stable")
        by_lex = rowcodes.lexsort_rows(idx)
        assert np.array_equal(idx[by_code], idx[by_lex])

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            rowcodes.encode_rows(np.zeros((2, 2), dtype=np.int64), [5])

    def test_overflow_raises(self):
        idx = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(OverflowError):
            rowcodes.encode_rows(idx, [2**40, 2**40])

    def test_zero_columns(self):
        codes = rowcodes.encode_rows(np.zeros((4, 0), dtype=np.int64), [])
        assert codes.tolist() == [0, 0, 0, 0]

    def test_codes_unique_iff_rows_unique(self):
        idx = np.array([[1, 2], [1, 2], [2, 1]], dtype=np.int64)
        codes = rowcodes.encode_rows(idx, [4, 4])
        assert codes[0] == codes[1] != codes[2]


class TestGroupRows:
    def test_basic_grouping(self):
        idx = np.array([[1, 1], [0, 0], [1, 1], [0, 1]], dtype=np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [2, 2])
        assert unique_rows.tolist() == [[0, 0], [0, 1], [1, 1]]
        assert inverse.tolist() == [2, 0, 2, 1]

    def test_reconstruction_property(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 5, size=(200, 4)).astype(np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [5] * 4)
        assert np.array_equal(unique_rows[inverse], idx)

    def test_unique_rows_sorted(self):
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 4, size=(100, 3)).astype(np.int64)
        unique_rows, _ = rowcodes.group_rows(idx, [4] * 3)
        order = rowcodes.lexsort_rows(unique_rows)
        assert np.array_equal(order, np.arange(unique_rows.shape[0]))

    def test_empty_input(self):
        idx = np.zeros((0, 3), dtype=np.int64)
        unique_rows, inverse = rowcodes.group_rows(idx, [4] * 3)
        assert unique_rows.shape == (0, 3)
        assert inverse.shape == (0,)

    def test_matches_np_unique_on_fallback_path(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 3, size=(60, 2)).astype(np.int64)
        # Force the lexicographic fallback with oversized dims.
        u1, inv1 = rowcodes.group_rows(idx, [2**40, 2**40])
        u2, inv2 = np.unique(idx, axis=0, return_inverse=True)
        assert np.array_equal(u1, u2)
        assert np.array_equal(inv1, inv2.ravel())

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            min_size=0, max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_np_unique(self, rows):
        idx = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        u1, inv1 = rowcodes.group_rows(idx, [7, 7, 7])
        if len(rows):
            u2, inv2 = np.unique(idx, axis=0, return_inverse=True)
            assert np.array_equal(u1, u2)
            assert np.array_equal(inv1, inv2.ravel())
        else:
            assert u1.shape[0] == 0


class TestCountDistinctRows:
    def test_counts(self):
        idx = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int64)
        assert rowcodes.count_distinct_rows(idx, [2, 2]) == 2

    def test_empty(self):
        assert rowcodes.count_distinct_rows(np.zeros((0, 2), np.int64), [2, 2]) == 0

    def test_zero_columns_counts_one(self):
        assert rowcodes.count_distinct_rows(np.zeros((5, 0), np.int64), []) == 1

    def test_agrees_with_group_rows(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 9, size=(300, 3)).astype(np.int64)
        u, _ = rowcodes.group_rows(idx, [9] * 3)
        assert rowcodes.count_distinct_rows(idx, [9] * 3) == u.shape[0]


# ---------------------------------------------------------------------------
# sort_rows: one stable sort per grouping, checked against numpy oracles
# ---------------------------------------------------------------------------

#: dims reaching each path of the primitive at the small row counts drawn
#: below: packed key fits; prefix compressed to ranks (packed sort for the
#: ranks); single column too wide to pack (merge-sort fallback); prefix and
#: next column both compressed; order-8 key space beyond int64.
SORT_DIMS = [
    (7, 7, 7),
    (2**31, 2**31),
    (2**62,),
    (2**40, 2**40),
    (2**62, 4),
    (4, 2**62),
    (300,) * 8,
]


@st.composite
def row_blocks(draw):
    """An ``m x k`` int64 block with duplicate rows and extreme values."""
    dims = draw(st.sampled_from(SORT_DIMS))
    m = draw(st.one_of(st.integers(0, 2), st.integers(3, 60)))
    # digits 0..3 stay low, 4..7 map to the top four values of each mode
    digits = draw(hnp.arrays(np.int64, (m, len(dims)),
                             elements=st.integers(0, 7)))
    top = np.array(dims, dtype=np.int64) - 8
    idx = np.where(digits < 4, digits, np.maximum(top + digits, 0))
    idx = np.minimum(idx, np.array(dims, dtype=np.int64) - 1)
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order != "drawn" and m:
        idx = idx[np.lexsort(idx.T[::-1])]
        if order == "reversed":
            idx = idx[::-1]
    return np.ascontiguousarray(idx), dims


class TestSortRows:
    @given(row_blocks())
    @settings(max_examples=200, deadline=None)
    def test_perm_is_the_stable_lexicographic_argsort(self, block):
        idx, dims = block
        perm, starts = rowcodes.sort_rows(idx, dims)
        if rowcodes.fits_int64(dims):
            oracle = np.argsort(rowcodes.encode_rows(idx, dims), kind="stable")
        else:
            oracle = np.lexsort(idx.T[::-1])
        assert perm.dtype == np.intp and starts.dtype == np.intp
        assert np.array_equal(perm, oracle)
        sorted_rows = idx[perm]
        new_row = np.ones(idx.shape[0], dtype=bool)
        new_row[1:] = (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1)
        assert np.array_equal(starts, np.flatnonzero(new_row))

    @given(row_blocks())
    @settings(max_examples=200, deadline=None)
    def test_groups_match_np_unique_axis0(self, block):
        idx, dims = block
        perm, starts = rowcodes.sort_rows(idx, dims)
        if idx.shape[0] == 0:
            assert perm.shape == starts.shape == (0,)
            return
        uniq, first, inverse = np.unique(
            idx, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(idx[perm[starts]], uniq)
        assert np.array_equal(perm[starts], first)
        ids = np.empty(idx.shape[0], dtype=np.intp)
        ids[perm] = rowcodes.group_ids(starts, idx.shape[0])
        assert np.array_equal(ids, inverse.ravel())
        assert rowcodes.count_distinct_rows(idx, dims) == uniq.shape[0]
        u, inv = rowcodes.group_rows(idx, dims)
        assert np.array_equal(u, uniq) and np.array_equal(inv, inverse.ravel())
        assert np.array_equal(rowcodes.lexsort_rows(idx), perm)

    def test_zero_columns(self):
        perm, starts = rowcodes.sort_rows(np.zeros((3, 0), np.int64), [])
        assert perm.tolist() == [0, 1, 2] and starts.tolist() == [0]

    def test_sort_codes_matches_stable_argsort(self):
        rng = np.random.default_rng(7)
        for codes in (rng.integers(0, 5, 200), rng.integers(-5, 5, 200),
                      rng.integers(0, 2**62, 200), np.arange(50)[::-1]):
            perm, starts = rowcodes.sort_codes(codes)
            assert np.array_equal(perm, np.argsort(codes, kind="stable"))
            ordered = codes[perm]
            assert np.array_equal(
                starts, np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1))
            )


# ---------------------------------------------------------------------------
# canonicalization: bitwise equal to the bincount reference
# ---------------------------------------------------------------------------

def _canonical_reference(idx, vals):
    """Canonical form the way an ``np.unique`` grouping builds it."""
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    if uniq.shape[0] == idx.shape[0]:
        perm = np.empty(idx.shape[0], dtype=np.intp)
        perm[inverse] = np.arange(idx.shape[0])
        return idx[perm], vals[perm]
    return uniq, np.bincount(inverse, weights=vals, minlength=uniq.shape[0])


class TestCanonicalizeBitwise:
    @pytest.mark.parametrize("shape", [(3, 4, 2), (2**40, 2**40), (300,) * 8])
    def test_duplicates_match_bincount_reference(self, shape):
        from repro.core.coo import CooTensor

        rng = np.random.default_rng(11)
        m = 400
        idx = np.column_stack(
            [rng.integers(0, min(s, 3), m) for s in shape]
        ).astype(np.int64)
        vals = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        # rows 40..79 repeat rows 0..39, so those groups sum -0.0 + -0.0
        vals[:80] = -0.0
        idx[40:80] = idx[:40]
        t = CooTensor(idx, vals, shape)
        ref_idx, ref_vals = _canonical_reference(idx, vals)
        assert np.array_equal(t.idx, ref_idx)
        assert t.vals.tobytes() == ref_vals.tobytes()

    def test_negative_zero_sums_like_bincount(self):
        from repro.core.coo import CooTensor

        idx = np.array([[1, 0], [0, 0], [1, 0], [0, 1]])
        vals = np.array([-0.0, -0.0, -0.0, -0.0])
        t = CooTensor(idx, vals, (2, 2))
        ref_idx, ref_vals = _canonical_reference(idx, vals)
        assert np.array_equal(t.idx, ref_idx)
        assert t.vals.tobytes() == ref_vals.tobytes()
        # no duplicates: the values are moved, not summed, so -0.0 stays
        t = CooTensor(idx[1:], vals[1:], (2, 2))
        assert np.signbit(t.vals).all()


# ---------------------------------------------------------------------------
# guard: the whole set-up path runs without np.unique
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape,nnz", [((30, 40, 20, 10), 3000),
                                      ((300,) * 8, 2000)])
def test_setup_path_never_calls_np_unique(monkeypatch, shape, nnz):
    from repro.core.coo import CooTensor
    from repro.core.cpals import cp_als
    from repro.core.symbolic import SymbolicTree
    from repro.model.planner import plan
    from repro.synth.skewed import skewed_random_tensor

    source = skewed_random_tensor(shape, nnz, 1.0, random_state=0)
    order = np.random.default_rng(1).permutation(source.nnz)
    idx, vals = source.idx[order], source.vals[order]

    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on the set-up path")

    monkeypatch.setattr(np, "unique", no_unique)
    tensor = CooTensor(idx, vals, shape)
    assert np.array_equal(tensor.idx, source.idx)
    strategy = plan(tensor, 4).best.strategy
    SymbolicTree(tensor, strategy)
    result = cp_als(tensor, 4, strategy="auto", n_iter_max=1, tol=0,
                    random_state=0)
    assert np.isfinite(result.fits[-1])
