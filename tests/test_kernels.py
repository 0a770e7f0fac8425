"""Tests for the fused kernel layer (repro.kernels).

The contract: every registered backend computes the same MTTKRP as the
naive COO baseline, reports identical perf counters, and the ``numpy``
backend is bitwise identical to the ``reference`` (seed) numeric path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.baselines.coo_mttkrp import CooMttkrp
from repro.core import strategy as S
from repro.core.coo import CooTensor
from repro.core.dtypes import AGREEMENT_RTOL
from repro.core.engine import MemoizedMttkrp
from repro.core.symbolic import SymbolicTree
from repro.kernels import (DEFAULT_KERNEL, KernelBackend, WorkspaceArena,
                           autotune_block_rows, available_kernels,
                           clear_tuning_cache, default_block_rows, get_kernel,
                           resolve_block_rows, segment_blocks,
                           unavailable_kernels)
from repro.parallel import ParallelCooMttkrp, ParallelMemoizedMttkrp
from repro.perf import counting

from .helpers import random_coo, random_factors

BACKENDS = available_kernels()


def naive_mttkrp(tensor, factors, mode):
    backend = CooMttkrp(tensor)
    backend.set_factors(factors)
    return backend.mttkrp(mode)


def strategy_for(order: int) -> S.MemoStrategy:
    return S.balanced_binary(order)


# ---------------------------------------------------------------------------
# backend <-> baseline parity (property-based)
# ---------------------------------------------------------------------------

@hst.composite
def tensor_cases(draw):
    """Ragged random tensors of order 3-5 (empty slices arise naturally
    whenever a dimension exceeds the distinct indices drawn)."""
    order = draw(hst.integers(3, 5))
    shape = tuple(draw(hst.integers(2, 7)) for _ in range(order))
    nnz = draw(hst.integers(1, 50))
    rank = draw(hst.sampled_from([1, 8, 17]))
    seed = draw(hst.integers(0, 2**31 - 1))
    return shape, nnz, rank, seed


class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=tensor_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_baseline(self, backend, case):
        shape, nnz, rank, seed = case
        rng = np.random.default_rng(seed)
        tensor = random_coo(rng, shape, nnz)
        factors = random_factors(rng, shape, rank)
        engine = MemoizedMttkrp(
            tensor, strategy_for(len(shape)), factors, kernel=backend
        )
        for mode in range(tensor.ndim):
            np.testing.assert_allclose(
                engine.mttkrp(mode),
                naive_mttkrp(tensor, factors, mode),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rank", [1, 8, 17])
    def test_empty_slice_tensor(self, backend, rank):
        """Slices with no nonzeros must come out exactly zero."""
        idx = np.array([[0, 0, 0, 0], [4, 1, 2, 3], [4, 1, 2, 0]])
        tensor = CooTensor(idx, np.array([1.5, -2.0, 3.0]), (6, 3, 4, 5))
        rng = np.random.default_rng(0)
        factors = random_factors(rng, tensor.shape, rank)
        engine = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        for mode in range(4):
            out = engine.mttkrp(mode)
            np.testing.assert_allclose(
                out, naive_mttkrp(tensor, factors, mode),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
            )
        np.testing.assert_array_equal(engine.mttkrp(0)[1:4], 0.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_tensor(self, backend):
        tensor = CooTensor.empty((3, 4, 5))
        factors = random_factors(np.random.default_rng(0), tensor.shape, 8)
        engine = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        for mode in range(3):
            np.testing.assert_array_equal(engine.mttkrp(mode), 0.0)

    def test_numpy_bitwise_identical_to_reference(self):
        """The default backend reorders passes but not arithmetic: outputs
        must be *bitwise* equal to the seed path, across invalidations."""
        rng = np.random.default_rng(7)
        tensor = random_coo(rng, (20, 31, 17, 24), 800)
        factors = random_factors(rng, tensor.shape, 16)
        strategies = [S.balanced_binary(4), S.star(4),
                      S.from_nested(((0, 2), (1, 3)))]
        for strategy in strategies:
            ref = MemoizedMttkrp(tensor, strategy, factors, kernel="reference")
            new = MemoizedMttkrp(tensor, strategy, factors, kernel="numpy")
            for _ in range(2):
                for mode in ref.mode_order:
                    np.testing.assert_array_equal(
                        ref.mttkrp(mode), new.mttkrp(mode)
                    )
                    U = rng.standard_normal((tensor.shape[mode], 16))
                    ref.update_factor(mode, U)
                    new.update_factor(mode, U)


# ---------------------------------------------------------------------------
# perf-counter parity: the cost-model invariant is backend-independent
# ---------------------------------------------------------------------------

class TestCounterParity:
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_identical_counters_across_backends(self, order):
        rng = np.random.default_rng(order)
        shape = tuple([6] * order)
        tensor = random_coo(rng, shape, 80)
        factors = random_factors(rng, shape, 4)
        snapshots = {}
        for backend in BACKENDS:
            engine = MemoizedMttkrp(
                tensor, strategy_for(order), factors, kernel=backend
            )
            updates = np.random.default_rng(99)  # same updates per backend
            for n in engine.mode_order:  # warm-up to steady state
                engine.mttkrp(n)
                engine.update_factor(
                    n, updates.standard_normal((shape[n], 4))
                )
            with counting() as c:
                for n in engine.mode_order:
                    engine.mttkrp(n)
                    engine.update_factor(
                        n, updates.standard_normal((shape[n], 4))
                    )
            snapshots[backend] = c.snapshot()
        reference = snapshots[BACKENDS[0]]
        for backend, snap in snapshots.items():
            assert snap == reference, f"{backend} counters diverge"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_default_is_csr(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert DEFAULT_KERNEL == "csr"
        assert get_kernel().name == DEFAULT_KERNEL

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert get_kernel().name == "reference"
        engine = MemoizedMttkrp(CooTensor.empty((2, 2, 2)), "star")
        assert engine.kernel.name == "reference"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert get_kernel("numpy").name == "numpy"

    def test_instance_passthrough(self):
        inst = get_kernel("numpy")
        assert get_kernel(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel("no-such-kernel")

    def test_unavailable_backend_falls_back_with_warning(self):
        if "numba" in BACKENDS:
            pytest.skip("numba installed: fallback path not reachable")
        assert "numba" in unavailable_kernels()
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_kernel("numba")
        assert backend.name == DEFAULT_KERNEL

    def test_available_lists_default_first(self):
        assert BACKENDS[0] == DEFAULT_KERNEL
        assert "reference" in BACKENDS

    def test_backend_is_kernel_backend(self):
        for name in BACKENDS:
            assert isinstance(get_kernel(name), KernelBackend)


# ---------------------------------------------------------------------------
# workspace arena
# ---------------------------------------------------------------------------

class TestWorkspaceArena:
    def test_reuses_buffer_across_requests(self):
        arena = WorkspaceArena()
        a = arena.request("prod", 100, 8)
        b = arena.request("prod", 50, 8)
        assert b.base is a.base  # same backing allocation
        assert b.shape == (50, 8)

    def test_grows_when_needed(self):
        arena = WorkspaceArena()
        small = arena.request("prod", 10, 4)
        big = arena.request("prod", 5000, 4)
        assert big.shape == (5000, 4)
        assert big.base is not small.base

    def test_column_change_reallocates(self):
        arena = WorkspaceArena()
        arena.request("prod", 10, 4)
        wide = arena.request("prod", 10, 8)
        assert wide.shape == (10, 8)

    def test_nbytes_and_clear(self):
        arena = WorkspaceArena()
        arena.request("prod", 2048, 8)
        assert arena.nbytes() >= 2048 * 8 * 8
        arena.clear()
        assert arena.nbytes() == 0

    def test_value_matrix_size_class(self):
        from repro.kernels.workspace import value_matrix

        for rows in (0, 1, 31, 89_197, 89_330):
            v = value_matrix(rows, 16)
            assert v.shape == (rows, 16) and v.flags.c_contiguous
            assert v.base is None or v.base.shape[0] <= rows * 33 // 32 + 1
        # sibling nodes a few rows apart share one size class
        a, b = value_matrix(89_197, 16), value_matrix(89_330, 16)
        assert a.base.shape == b.base.shape

    def test_engine_reports_workspace(self):
        rng = np.random.default_rng(0)
        tensor = random_coo(rng, (6, 6, 6, 6), 200)
        engine = MemoizedMttkrp(
            tensor, "bdt", random_factors(rng, tensor.shape, 4)
        )
        engine.mttkrp(0)
        assert engine.workspace_nbytes() >= 0


# ---------------------------------------------------------------------------
# blocking
# ---------------------------------------------------------------------------

class TestBlocking:
    def test_blocks_partition_sources_and_segments(self):
        rng = np.random.default_rng(0)
        targets = np.sort(rng.integers(0, 500, 4000))
        starts = np.flatnonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        ).astype(np.intp)
        blocks = list(segment_blocks(starts, 4000, 256))
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 4000
        for (_lo, hi, _sl, sh, _ls), (lo2, _h2, sl2, _s2, _l2) in zip(
            blocks, blocks[1:]
        ):
            assert hi == lo2 and sh == sl2
        # local starts reproduce the segment structure exactly
        rebuilt = np.concatenate([ls + lo for lo, _, _, _, ls in blocks])
        np.testing.assert_array_equal(rebuilt, starts)

    def test_oversized_segment_taken_whole(self):
        starts = np.array([0, 10_000], dtype=np.intp)
        blocks = list(segment_blocks(starts, 10_050, 256))
        assert blocks[0][:2] == (0, 10_000)
        assert blocks[1][:2] == (10_000, 10_050)

    def test_zero_block_rows_is_unblocked(self):
        starts = np.arange(0, 100, 10, dtype=np.intp)
        blocks = list(segment_blocks(starts, 100, 0))
        assert len(blocks) == 1
        assert blocks[0][:4] == (0, 100, 0, 10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "12345")
        assert resolve_block_rows(16) == 12345
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "0")
        assert resolve_block_rows(16) == 0

    def test_default_heuristic_sane(self):
        for rank in (1, 8, 16, 64, 256):
            rows = default_block_rows(rank)
            assert 1024 <= rows <= 1 << 18

    def test_autotune_returns_candidate_and_caches(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BLOCK", raising=False)
        clear_tuning_cache()
        chosen = autotune_block_rows(
            4, candidates=(1024, 8192), sample_rows=20_000, repeats=1
        )
        assert chosen in (0, 1024, 8192)
        assert resolve_block_rows(4) == chosen
        clear_tuning_cache()

    def test_blocked_equals_unblocked_bitwise(self, monkeypatch):
        rng = np.random.default_rng(3)
        tensor = random_coo(rng, (15, 12, 18, 9), 3000)
        factors = random_factors(rng, tensor.shape, 8)
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "0")
        unblocked = MemoizedMttkrp(tensor, "bdt", factors).mttkrp(2)
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "64")
        blocked = MemoizedMttkrp(tensor, "bdt", factors).mttkrp(2)
        np.testing.assert_array_equal(unblocked, blocked)


# ---------------------------------------------------------------------------
# parallel engine through the kernel layer + context managers
# ---------------------------------------------------------------------------

class TestParallelKernels:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_rebuild_matches_sequential(self, backend):
        rng = np.random.default_rng(5)
        tensor = random_coo(rng, (12, 14, 10, 11), 4000)
        factors = random_factors(rng, tensor.shape, 8)
        sequential = MemoizedMttkrp(tensor, "bdt", factors, kernel=backend)
        with ParallelMemoizedMttkrp(
            tensor, "bdt", factors, n_workers=3, min_chunk_rows=4,
            kernel=backend,
        ) as par:
            for mode in sequential.mode_order:
                np.testing.assert_allclose(
                    par.mttkrp(mode), sequential.mttkrp(mode),
                    rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
                )

    def test_context_manager_closes_owned_pool(self):
        tensor = random_coo(np.random.default_rng(0), (5, 5, 5), 50)
        with ParallelMemoizedMttkrp(tensor, "star", n_workers=2) as eng:
            assert eng.pool._executor is not None
        assert eng.pool._executor is None

    def test_context_manager_leaves_shared_pool_open(self):
        from repro.parallel import WorkerPool

        tensor = random_coo(np.random.default_rng(0), (5, 5, 5), 50)
        with WorkerPool(2) as pool:
            with ParallelMemoizedMttkrp(tensor, "star", pool=pool) as eng:
                pass
            assert pool._executor is not None

    def test_parallel_coo_context_manager(self):
        rng = np.random.default_rng(1)
        tensor = random_coo(rng, (6, 7, 8), 200)
        factors = random_factors(rng, tensor.shape, 4)
        with ParallelCooMttkrp(tensor, n_workers=2) as backend:
            backend.set_factors(factors)
            np.testing.assert_allclose(
                backend.mttkrp(0), naive_mttkrp(tensor, factors, 0),
                rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL,
            )
        assert backend.pool._executor is None


# ---------------------------------------------------------------------------
# kernel index caching on the symbolic tree
# ---------------------------------------------------------------------------

class TestKernelIndexCache:
    def test_cached_and_shared_across_engines(self):
        rng = np.random.default_rng(2)
        tensor = random_coo(rng, (8, 8, 8, 8), 300)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        factors = random_factors(rng, tensor.shape, 4)
        e1 = MemoizedMttkrp(tensor, S.balanced_binary(4), factors, symbolic=sym)
        e2 = MemoizedMttkrp(tensor, S.balanced_binary(4), factors, symbolic=sym)
        e1.mttkrp(0)
        e2.mttkrp(0)
        leaf = sym.strategy.leaf_id(0)
        assert sym.kernel_index(leaf) is sym.kernel_index(leaf)
        assert sym.kernel_index(sym.strategy.root_id) is None

    def test_eager_build_and_accounting(self):
        rng = np.random.default_rng(3)
        tensor = random_coo(rng, (8, 8, 8), 200)
        sym = SymbolicTree(tensor, S.balanced_binary(3))
        assert sym.kernel_index_nbytes() == 0
        sym.build_kernel_indices()
        assert sym.kernel_index_nbytes() > 0
        # excluded from the model-checked symbolic index bytes
        from repro.model.cost import symbolic_index_bytes

        assert symbolic_index_bytes(
            sym.strategy, sym.node_nnz()
        ) == sym.index_nbytes()

    def test_gather_arrays_are_flat_and_permuted(self):
        rng = np.random.default_rng(4)
        tensor = random_coo(rng, (9, 7, 8, 6), 250)
        sym = SymbolicTree(tensor, S.balanced_binary(4))
        for node in sym.strategy.nodes:
            if node.is_root:
                continue
            ki = sym.kernel_index(node.id)
            plan = sym.nodes[node.id].plan
            parent_index = sym.nodes[node.parent].index
            for g, d_col in zip(
                ki.gather, sym.nodes[node.id].delta_parent_cols
            ):
                assert g.flags.c_contiguous
                expected = parent_index[:, d_col][plan.perm]
                np.testing.assert_array_equal(g, expected)


# ---------------------------------------------------------------------------
# csr backend: segmented sums as CSR products
# ---------------------------------------------------------------------------

def _sweeps(engines, tensor, rank, rng, n_sweeps=2):
    """Yield every engine's MTTKRP per mode over ``n_sweeps`` ALS sweeps,
    installing the same factor update in each engine after each mode."""
    order = engines[0].mode_order
    for _ in range(n_sweeps):
        for mode in order:
            yield [e.mttkrp(mode) for e in engines]
            U = rng.standard_normal((tensor.shape[mode], rank))
            for e in engines:
                e.update_factor(mode, U)


class TestCsrKernel:
    STRATEGIES = [S.balanced_binary(4), S.star(4),
                  S.from_nested(((0, 2), (1, 3)))]

    def test_matches_reference_across_invalidations(self):
        rng = np.random.default_rng(7)
        tensor = random_coo(rng, (20, 31, 17, 24), 800)
        factors = random_factors(rng, tensor.shape, 16)
        for strategy in self.STRATEGIES:
            ref = MemoizedMttkrp(tensor, strategy, factors, kernel="reference")
            csr = MemoizedMttkrp(tensor, strategy, factors, kernel="csr")
            for expected, got in _sweeps([ref, csr], tensor, 16, rng):
                np.testing.assert_allclose(got, expected, rtol=AGREEMENT_RTOL,
                                           atol=AGREEMENT_RTOL)

    def test_chunks_bitwise_equal_whole_node(self):
        """SpMM rows are independent: any segment-aligned split of a node
        gives bitwise the whole-node rebuild."""
        rng = np.random.default_rng(11)
        tensor = random_coo(rng, (12, 14, 10, 11), 4000)
        factors = random_factors(rng, tensor.shape, 8)
        engine = MemoizedMttkrp(tensor, "bdt", factors, kernel="csr")
        kernel = engine.kernel
        for node in engine.strategy.nodes:
            if node.is_root:
                continue
            engine._ensure_node(node.parent)
            ctx = engine._rebuild_context(node.id)
            whole = kernel.rebuild(ctx)
            for n_chunks in (2, 3, 7):
                out = np.full_like(whole, np.nan)
                for src, seg in ctx.sym.plan.chunks(n_chunks):
                    kernel.rebuild_chunk(ctx, src, seg, out)
                np.testing.assert_array_equal(out, whole)
            strided = np.empty((whole.shape[0], 2 * whole.shape[1]))[:, ::2]
            src, seg = ctx.sym.plan.chunks(1)[0]
            with pytest.raises(ValueError, match="C-contiguous"):
                kernel.rebuild_chunk(ctx, src, seg, strided)

    def test_parallel_engine_bitwise_equal_sequential(self):
        rng = np.random.default_rng(5)
        tensor = random_coo(rng, (12, 14, 10, 11), 4000)
        factors = random_factors(rng, tensor.shape, 8)
        sequential = MemoizedMttkrp(tensor, "bdt", factors, kernel="csr")
        with ParallelMemoizedMttkrp(
            tensor, "bdt", factors, n_workers=3, min_chunk_rows=4,
            kernel="csr",
        ) as par:
            for seq_out, par_out in _sweeps([sequential, par], tensor, 8, rng):
                np.testing.assert_array_equal(par_out, seq_out)

    def test_segment_larger_than_block_and_unblocked(self, monkeypatch):
        """One slice holds most nonzeros, so its leaf segment alone exceeds
        the block size; blocked, unblocked and reference runs agree."""
        rng = np.random.default_rng(13)
        idx = np.column_stack([rng.integers(0, s, 3000)
                               for s in (9, 10, 11, 12)])
        idx[:2000, 0] = 4
        tensor = CooTensor(idx, rng.standard_normal(3000), (9, 10, 11, 12))
        factors = random_factors(rng, tensor.shape, 8)
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "64")
        blocked = MemoizedMttkrp(tensor, "star", factors, kernel="csr")
        ki = blocked.symbolic.kernel_index(blocked.strategy.leaf_id(0))
        largest = max(hi - lo for lo, hi, *_ in ki.blocks_for(64))
        assert largest > 64
        assert ki.csr_operands(0)[0].shape[0] >= largest
        monkeypatch.setenv("REPRO_KERNEL_BLOCK", "0")
        unblocked = MemoizedMttkrp(tensor, "star", factors, kernel="csr")
        ref = MemoizedMttkrp(tensor, "star", factors, kernel="reference")
        for mode in range(tensor.ndim):
            got = blocked.mttkrp(mode)
            np.testing.assert_array_equal(got, unblocked.mttkrp(mode))
            np.testing.assert_allclose(got, ref.mttkrp(mode),
                                       rtol=AGREEMENT_RTOL, atol=AGREEMENT_RTOL)

    def test_static_state_built_before_first_rebuild(self):
        """``set_factors`` builds every non-root node's kernel index, block
        list and CSR operands; the rebuilds then allocate none of them."""
        rng = np.random.default_rng(17)
        tensor = random_coo(rng, (9, 7, 8, 6, 5), 1500)
        sym = SymbolicTree(tensor, S.balanced_binary(5))
        engine = MemoizedMttkrp(tensor, sym.strategy, symbolic=sym,
                                kernel="csr")
        assert sym.kernel_index_nbytes() == 0
        engine.set_factors(random_factors(rng, tensor.shape, 8))
        block_rows = resolve_block_rows(8, engine.kernel)
        for node in sym.strategy.nodes:
            if node.is_root:
                continue
            ki = sym._kernel_indices[node.id]
            assert block_rows in ki._blocks
            assert ki.identity or ki._csr is not None
        before = sym.kernel_index_nbytes()
        for _ in _sweeps([engine], tensor, 8, rng):
            pass
        assert sym.kernel_index_nbytes() == before

    def test_index_nbytes_counts_cached_arrays(self):
        rng = np.random.default_rng(19)
        tensor = random_coo(rng, (9, 7, 8, 6), 600)
        engine = MemoizedMttkrp(tensor, "bdt",
                                random_factors(rng, tensor.shape, 4),
                                kernel="csr")
        for node in engine.strategy.nodes:
            if node.is_root:
                continue
            ki = engine.symbolic.kernel_index(node.id)
            ki.perm_or_identity()
            arrays = [ki.starts, *ki.gather, ki.perm, ki._perm_full,
                      *(ki._csr or ())]
            arrays += [b[4] for bl in ki._blocks.values() for b in bl]
            assert ki.nbytes() == sum(a.nbytes for a in arrays
                                      if a is not None)
        # the nodes share one ones/cols pair, counted once for the tree
        sym = engine.symbolic
        pairs = {id(ki._csr): ki._csr for ki in sym._kernel_indices.values()
                 if ki._csr is not None}
        assert len(pairs) == 1
        ones, cols = next(iter(pairs.values()))
        n_holders = sum(ki._csr is not None
                        for ki in sym._kernel_indices.values())
        assert sym.kernel_index_nbytes() == (
            sum(ki.nbytes() for ki in sym._kernel_indices.values())
            - (n_holders - 1) * (ones.nbytes + cols.nbytes)
        )

    def test_autotune_times_the_resolved_backend(self, monkeypatch):
        from repro.kernels import CsrKernel, NumpyKernel

        calls = {"csr": 0, "numpy": 0}

        def counted(name, original):
            def reduce_block(self, *args):
                calls[name] += 1
                return original(self, *args)
            return reduce_block

        monkeypatch.setattr(CsrKernel, "_reduce_block",
                            counted("csr", CsrKernel._reduce_block))
        monkeypatch.setattr(NumpyKernel, "_reduce_block",
                            counted("numpy", NumpyKernel._reduce_block))
        monkeypatch.delenv("REPRO_KERNEL_BLOCK", raising=False)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        clear_tuning_cache()
        chosen = autotune_block_rows(4, candidates=(1024,),
                                     sample_rows=5000, repeats=1)
        assert calls["csr"] > 0
        # NumpyKernel._reduce_block is the csr class's base, never reached
        assert calls["numpy"] == 0
        assert resolve_block_rows(4, get_kernel("csr")) == chosen
        clear_tuning_cache()

    def test_unavailable_without_scipy_product(self):
        """Without ``csr_matvecs`` the csr backend registers as unavailable
        and ``numpy`` is the default, with no warning on plain resolution."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import scipy.sparse._sparsetools as st; del st.csr_matvecs\n"
            "import repro.kernels as k\n"
            "assert k.DEFAULT_KERNEL == 'numpy', k.DEFAULT_KERNEL\n"
            "assert 'csr' in k.unavailable_kernels()\n"
            "assert 'csr' not in k.available_kernels()\n"
            "assert k.get_kernel().name == 'numpy'\n"
        )
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("REPRO_KERNEL", None)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
