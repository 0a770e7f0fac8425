"""Shared-memory multicore runtime: pools, the sharded COO engine,
scaling models."""

from ..kernels.alto import contiguous_chunks
from .engine import ParallelMemoizedMttkrp
from .pool import PoolBase, WorkerPool, default_workers, resolve_worker_count
from .procpool import (AltoCooMttkrp, ParallelCooMttkrp, ProcessMttkrp,
                       ProcessPool, ShardedCooMttkrp)
from .shm import SharedArrayGroup, SharedArraySpec
from .simulate import (ScalingParams, load_imbalance, simulate_parallel_time,
                       simulate_speedup_curve)

__all__ = [
    "ParallelMemoizedMttkrp",
    "contiguous_chunks",
    "AltoCooMttkrp",
    "ParallelCooMttkrp",
    "PoolBase",
    "ProcessMttkrp",
    "ProcessPool",
    "SharedArrayGroup",
    "SharedArraySpec",
    "ShardedCooMttkrp",
    "WorkerPool",
    "default_workers",
    "resolve_worker_count",
    "ScalingParams",
    "load_imbalance",
    "simulate_parallel_time",
    "simulate_speedup_curve",
]
