"""Strong-scaling simulator: predicted parallel time from the cost model.

Python threading introduces overheads a C/OpenMP implementation does not
have, so alongside the *measured* thread-pool scaling the benchmarks report a
deterministic model-based projection: per-worker compute from the cost
model's flop/word totals divided under the actual partition's load balance,
plus a bandwidth-saturation term and a per-sync overhead.  This reproduces
the *shape* of the paper's multicore scaling (near-linear until
bandwidth-bound) independent of interpreter effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.coo import CooTensor
from ..model.cost import DEFAULT_MACHINE, CostReport, MachineModel
from ..kernels.alto import contiguous_chunks


@dataclass(frozen=True)
class ScalingParams:
    """Hardware model for the scaling simulator.

    Attributes
    ----------
    bandwidth_workers: worker count at which memory bandwidth saturates —
        beyond it, the memory-bound share of the work stops scaling.
    sync_seconds: per-synchronization overhead (one sync per MTTKRP).
    memory_bound_fraction: share of the work limited by bandwidth rather
        than compute throughput.
    """

    bandwidth_workers: int = 8
    sync_seconds: float = 5e-5
    memory_bound_fraction: float = 0.6


def load_imbalance(tensor: CooTensor, n_workers: int) -> float:
    """max/mean chunk work for the equal-count contiguous partition.

    Equal nonzero counts balance MTTKRP flops exactly, so imbalance here is
    1.0 unless chunks are degenerate (more workers than nonzeros).
    """
    chunks = contiguous_chunks(tensor.nnz, n_workers)
    sizes = np.array([hi - lo for lo, hi in chunks], dtype=float)
    mean = sizes.mean()
    return float(sizes.max() / mean) if mean > 0 else 1.0


def simulate_parallel_time(
    cost: CostReport,
    n_workers: int,
    *,
    machine: MachineModel = DEFAULT_MACHINE,
    params: ScalingParams = ScalingParams(),
    imbalance: float = 1.0,
) -> float:
    """Predicted seconds for one CP-ALS iteration on ``n_workers`` workers."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    serial = machine.seconds(
        cost.flops_per_iteration, cost.words_per_iteration
    )
    compute_share = serial * (1.0 - params.memory_bound_fraction)
    memory_share = serial * params.memory_bound_fraction
    effective_mem_workers = min(n_workers, params.bandwidth_workers)
    n_syncs = cost.strategy.n_modes  # one reduction barrier per MTTKRP
    return (
        imbalance * compute_share / n_workers
        + imbalance * memory_share / effective_mem_workers
        + n_syncs * params.sync_seconds * np.log2(max(n_workers, 2))
    )


def simulate_speedup_curve(
    cost: CostReport,
    worker_counts,
    *,
    machine: MachineModel = DEFAULT_MACHINE,
    params: ScalingParams = ScalingParams(),
    imbalance: float = 1.0,
) -> dict[int, float]:
    """Speedup vs 1 worker for each count in ``worker_counts``."""
    base = simulate_parallel_time(
        cost, 1, machine=machine, params=params, imbalance=imbalance
    )
    return {
        int(p): base / simulate_parallel_time(
            cost, int(p), machine=machine, params=params, imbalance=imbalance
        )
        for p in worker_counts
    }
