"""The benchmark's workloads: generated inputs and the engine each one uses.

Every workload starts from a registry spec's shape, nonzero count and skew
(or the order-4 acceptance tensor), generated with the run's seed.  The
library receives only the generated coordinate and value arrays, in a
seed-shuffled row order, so ingestion sorts them as it would a user's file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model import planner
from repro.model.cost import recommend_execution
from repro.synth.datasets import get_spec
from repro.synth.skewed import skewed_random_tensor

#: CP rank of every workload.
RANK = 16


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, ...]
    nnz: int
    skew: tuple[float, ...]
    #: ``cp_als`` strategy (``"auto"`` runs the planner).
    strategy: str
    #: ALS iterations per solve (``tol=0``: every solve runs them all).
    n_iter: int
    #: worker count handed to the execution-tier choice; None = sequential.
    workers: int | None
    why: str


def _registry(name: str) -> tuple[tuple[int, ...], int, tuple[float, ...]]:
    spec = get_spec(name)
    return spec.shape, spec.nnz, spec.skew


_DELICIOUS = _registry("delicious")
_SKEW8D = _registry("skew8d")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "delicious-auto", *_DELICIOUS, strategy="auto", n_iter=20,
        workers=None,
        why="order-4 E3 headline analog, planner picks the tree, sequential: "
            "mixed layers, in-cache values; the single-threaded baseline "
            "for delicious-w2",
    ),
    Workload(
        "delicious-w2", *_DELICIOUS, strategy="auto", n_iter=8, workers=2,
        why="same tensor on the engine `repro decompose --tier auto "
            "--workers 2` builds via recommend_execution: the only workload "
            "that runs parallel/",
    ),
    Workload(
        "accept4d-bdt", (800,) * 4, 1_200_000, (1.1,) * 4, strategy="bdt",
        n_iter=12, workers=None,
        why="order-4 acceptance tensor, fixed bdt tree so the planner is "
            "idle: kernel-bound iterations with out-of-cache root products",
    ),
    Workload(
        "skew8d-auto", *_SKEW8D, strategy="auto", n_iter=12, workers=None,
        why="order-8 Zipf tensor, planner picks: planning-heavy set-up and "
            "the deepest tree, the paper's higher-order case",
    ),
)}


def make_inputs(wl: Workload, seed: int):
    """``(idx, vals, shape)`` for ``wl`` from ``seed``, rows shuffled."""
    tensor = skewed_random_tensor(wl.shape, wl.nnz, wl.skew,
                                  random_state=seed)
    order = np.random.default_rng([seed, 1]).permutation(tensor.nnz)
    return (np.ascontiguousarray(tensor.idx[order]),
            np.ascontiguousarray(tensor.vals[order]), tensor.shape)


def tier_engine(tensor, workers: int, span):
    """The MTTKRP engine ``repro decompose --tier auto --workers N`` builds.

    Mirrors the CLI's decision: ``recommend_execution`` picks the tier and
    layout; the process tier gets a :class:`ProcessMttkrp`, the thread tier
    with the ALTO layout an :class:`AltoCooMttkrp`, else the parallel
    memoized engine on the planner's tree.  ``span`` wraps construction.
    """
    from repro.parallel.engine import ParallelMemoizedMttkrp
    from repro.parallel.pool import resolve_worker_count
    from repro.parallel.procpool import AltoCooMttkrp, ProcessMttkrp

    rec = recommend_execution(tensor.shape, tensor.nnz, RANK,
                              resolve_worker_count(workers))
    with span("parallel.engine_build"):
        if rec.tier == "process":
            return ProcessMttkrp(tensor, workers, layout=rec.layout)
        if rec.layout == "alto":
            return AltoCooMttkrp(tensor, workers)
        strategy = planner.plan(tensor, RANK).best.strategy
        return ParallelMemoizedMttkrp(tensor, strategy, n_workers=workers)
