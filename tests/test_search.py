"""Tests for greedy strategy search (repro.model.search)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core import strategy as S
from repro.core.engine import MemoizedMttkrp
from repro.model.overlap import DistinctCounter
from repro.model.planner import plan
from repro.model.search import greedy_tree, search_candidates
from repro.synth.skewed import skewed_random_tensor

from .helpers import dense_mttkrp, random_coo, random_factors


@pytest.fixture(scope="module")
def tensor6d():
    return skewed_random_tensor((40,) * 6, 4000, 1.2, random_state=0)


@pytest.fixture(scope="module")
def tensor10d():
    return skewed_random_tensor((20,) * 10, 3000, 1.0, random_state=1)


class TestGreedyTree:
    def test_valid_strategy(self, tensor6d):
        strat = greedy_tree(tensor6d)
        assert strat.n_modes == 6
        assert sorted(strat.mode_order) == list(range(6))
        # Binary tree: every internal node has exactly two children.
        for node in strat.nodes:
            if node.children:
                assert len(node.children) == 2

    def test_engine_correct_on_greedy_tree(self, tensor6d):
        rng = np.random.default_rng(2)
        small = random_coo(rng, (4, 5, 3, 4, 5, 3), 50)
        strat = greedy_tree(small)
        factors = random_factors(rng, small.shape, 2)
        eng = MemoizedMttkrp(small, strat, factors)
        dense = small.to_dense()
        for mode in range(6):
            np.testing.assert_allclose(
                eng.mttkrp(mode),
                dense_mttkrp(dense, factors, mode),
                rtol=1e-10, atol=1e-10,
            )

    def test_explicit_mode_order(self, tensor6d):
        strat = greedy_tree(tensor6d, mode_order=[5, 4, 3, 2, 1, 0])
        assert strat.n_modes == 6

    def test_bad_mode_order(self, tensor6d):
        with pytest.raises(ValueError):
            greedy_tree(tensor6d, mode_order=[0, 0, 1, 2, 3, 4])

    def test_leaves_no_reference_cycle(self):
        """The memoized recursion must not keep the tensor alive for the
        cyclic GC: a solve's tensor is freed when the solve returns."""
        import gc
        import sys

        tensor = skewed_random_tensor((30,) * 5, 2000, 1.1, random_state=2)
        gc.collect()
        gc.disable()
        try:
            before = sys.getrefcount(tensor)
            greedy_tree(tensor)
            assert sys.getrefcount(tensor) == before
        finally:
            gc.enable()

    def test_order_one_rejected(self):
        from repro.core.coo import CooTensor

        with pytest.raises(ValueError):
            greedy_tree(CooTensor.empty((5,)))

    def test_greedy_not_worse_than_star(self, tensor6d):
        """Greedy tree must beat the star in predicted flops (it memoizes)."""
        from repro.model.cost import cost_report

        counter = DistinctCounter(tensor6d)
        g = greedy_tree(tensor6d, counter=counter)
        g_cost = cost_report(g, counter.node_nnz(g), 16)
        s = S.star(6)
        s_cost = cost_report(s, counter.node_nnz(s), 16)
        assert g_cost.flops_per_iteration < s_cost.flops_per_iteration

    def test_greedy_competitive_with_exhaustive(self, tensor6d):
        """Order 6: greedy within 25% of the exhaustive-search optimum."""
        from repro.model.cost import cost_report

        counter = DistinctCounter(tensor6d)
        g = greedy_tree(tensor6d, counter=counter)
        g_flops = cost_report(g, counter.node_nnz(g), 16).flops_per_iteration
        best = min(
            cost_report(c, counter.node_nnz(c), 16).flops_per_iteration
            for c in S.enumerate_binary(6)
        )
        assert g_flops <= 1.25 * best


class TestSearchCandidates:
    def test_low_order_superset_of_defaults(self, tensor6d):
        cands = search_candidates(tensor6d)
        sigs = {c.signature() for c in cands}
        default_sigs = {c.signature() for c in S.default_candidates(6)}
        assert default_sigs <= sigs
        # Exactly one extra family: the size-sorted greedy tree.
        assert len(sigs - default_sigs) <= 1

    def test_high_order_includes_greedy(self, tensor10d):
        cands = search_candidates(tensor10d)
        names = [c.name for c in cands]
        assert any(n.startswith("greedy") for n in names)
        # No Catalan explosion at order 10.
        assert len(cands) < 50

    def test_no_duplicate_signatures(self, tensor10d):
        cands = search_candidates(tensor10d)
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))

    def test_planner_uses_search_for_high_order(self, tensor10d):
        report = plan(tensor10d, rank=4)
        assert report.best.feasible
        # Memoization must be predicted to win at order 10.
        assert report.best.strategy.n_intermediates() > 0

    def test_signatures_unique_across_orders(self):
        for order in (3, 4, 6, 9):
            t = skewed_random_tensor((6,) * order, 100, 1.0,
                                     random_state=order)
            sigs = [c.signature() for c in search_candidates(t)]
            assert len(sigs) == len(set(sigs))

    def test_greedy_included_below_exhaustive_limit(self, tensor6d):
        """Order <= limit: the size-sorted greedy tree joins the Catalan
        enumeration instead of being crowded out by it."""
        counter = DistinctCounter(tensor6d)
        g = greedy_tree(tensor6d, counter=counter)
        cands = search_candidates(tensor6d, counter=counter)
        assert g.signature() in {c.signature() for c in cands}
        # The exhaustive family is still there alongside it.
        assert len(cands) > len(S.default_candidates(6)) - 1

    def test_greedy_included_above_exhaustive_limit(self):
        """Order > limit: both greedy orders present, no Catalan blow-up."""
        t = skewed_random_tensor((4, 20, 6, 15, 3, 9, 12, 5, 8), 2500, 1.1,
                                 random_state=7)
        cands = search_candidates(t)
        names = [c.name for c in cands]
        assert "greedy" in names
        assert "greedy-natural" in names
        assert len(cands) < 30

    def test_order3_degenerate(self):
        """Order 3 leaves nothing to memoize: every family collapses to a
        handful of distinct shapes, all of them valid."""
        t = skewed_random_tensor((10, 12, 9), 300, 1.0, random_state=0)
        cands = search_candidates(t)
        sigs = [c.signature() for c in cands]
        assert len(sigs) == len(set(sigs))
        assert cands
        for c in cands:
            assert c.n_modes == 3
            assert sorted(c.mode_order) == [0, 1, 2]

    @given(order=hst.integers(3, 9), seed=hst.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_leaves_cover_all_modes_exactly_once(self, order, seed):
        t = skewed_random_tensor((5,) * order, 80, 1.0, random_state=seed)
        for cand in search_candidates(t):
            leaf_modes = sorted(
                m for node in cand.nodes if node.is_leaf for m in node.modes
            )
            assert leaf_modes == list(range(order))
