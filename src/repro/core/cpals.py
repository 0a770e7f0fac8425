"""CP-ALS: alternating least squares for the CP decomposition.

The driver is backend-agnostic: any object providing ``set_factors`` /
``update_factor`` / ``mttkrp`` / ``mode_order`` can supply the MTTKRP, so the
same loop runs the memoized engine (any strategy), the planner-selected
engine, and the baseline implementations — which is what makes the paper's
comparisons apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..linalg.gram import GramCache
from ..linalg.innerprod import innerprod_from_mttkrp
from ..linalg.norms import normalize_columns
from ..linalg.solve import solve_normal_equations
from ..obs import seam as _seam
from ..obs import trace as _obs
from .coo import CooTensor
from .dtypes import VALUE_DTYPE
from .engine import MemoizedMttkrp
from .kruskal import KruskalTensor
from .validate import check_factor_matrices, check_positive_int, check_random_state


@dataclass
class CPResult:
    """Outcome of a CP-ALS run.

    Attributes
    ----------
    ktensor: the fitted model (weights pushed out of the factors).
    fits: per-iteration fit values ``1 - ||X - model|| / ||X||``.
    n_iterations: iterations executed.
    converged: whether the fit-change tolerance was met.
    strategy_name: memoization strategy used (or backend description).
    planner_report: the planner's ranked candidate list when
        ``strategy='auto'`` was requested, else None.
    timings: wall-clock breakdown: ``setup`` (symbolic phase + planning),
        ``per_iteration`` (mean seconds), ``total``.
    drift_readings, memory_readings, attribution_readings,
    health_readings: per-iteration readings of the drift watchdog
        (:class:`~repro.obs.watchdog.DriftReading`), memory tracker
        (:class:`~repro.obs.memory.MemReading`), cost attribution
        (:class:`~repro.obs.attribution.AttributionReading`) and health
        collector (:class:`~repro.obs.health.HealthReading`); each is None
        unless that instrument ran (see :mod:`repro.obs.seam`).
    """

    ktensor: KruskalTensor
    fits: list[float]
    n_iterations: int
    converged: bool
    strategy_name: str
    planner_report: object | None = None
    timings: dict = field(default_factory=dict)
    drift_readings: list | None = None
    memory_readings: list | None = None
    attribution_readings: list | None = None
    health_readings: list | None = None

    @property
    def fit(self) -> float:
        return self.fits[-1] if self.fits else float("nan")


def initialize_factors(
    tensor: CooTensor,
    rank: int,
    init: str | Sequence[np.ndarray] = "random",
    random_state=None,
) -> list[np.ndarray]:
    """Initial factor matrices for CP-ALS.

    ``init='random'`` draws uniform(0, 1) entries (the usual choice for
    sparse count data); ``init='hosvd'`` uses leading left singular vectors
    of each matricization, padded with random columns when the mode is
    smaller than the rank; a list of arrays is validated and copied.
    """
    rng = check_random_state(random_state)
    if isinstance(init, str):
        name = init.lower()
        if name == "random":
            return [
                rng.random((dim, rank), dtype=VALUE_DTYPE)
                for dim in tensor.shape
            ]
        if name == "hosvd":
            return _hosvd_init(tensor, rank, rng)
        raise ValueError(f"unknown init: {init!r}")
    factors = [np.array(U, dtype=VALUE_DTYPE, copy=True) for U in init]
    check_factor_matrices(factors, tensor.shape, rank)
    return factors


def _hosvd_init(tensor: CooTensor, rank: int, rng) -> list[np.ndarray]:
    from scipy.sparse.linalg import svds

    factors = []
    for n, dim in enumerate(tensor.shape):
        k = min(rank, dim - 1, max(tensor.nnz - 1, 0))
        U = rng.random((dim, rank), dtype=VALUE_DTYPE)
        if k >= 1:
            try:
                mat = tensor.matricize(n)
                u, _, _ = svds(mat.astype(np.float64), k=k)
                U[:, :k] = np.abs(u[:, ::-1])  # descending singular values
            except (OverflowError, ValueError, MemoryError):
                pass  # fall back to the random columns
        factors.append(U)
    return factors


def cp_als(
    tensor: CooTensor,
    rank: int,
    *,
    strategy="auto",
    n_iter_max: int = 50,
    tol: float = 1e-8,
    init: str | Sequence[np.ndarray] = "random",
    random_state=None,
    memory_budget: int | None = None,
    engine_factory: Callable[[CooTensor], object] | None = None,
    callback: Callable[[int, float, KruskalTensor], None] | None = None,
    watchdog=None,
    run_ctx=None,
) -> CPResult:
    """Fit a rank-``R`` CP decomposition with alternating least squares.

    Parameters
    ----------
    tensor: sparse input tensor.
    rank: number of CP components.
    strategy:
        MTTKRP memoization strategy — ``'auto'`` runs the model-driven
        planner (the paper's headline mode); otherwise a strategy name,
        nested tuple, or :class:`~repro.core.strategy.MemoStrategy`.
        Ignored when ``engine_factory`` is given.
    n_iter_max: iteration cap.
    tol: convergence threshold on the fit change per iteration; ``0``
        disables early stopping.
    init: ``'random'``, ``'hosvd'``, or explicit factor matrices.
    random_state: seed or Generator for the initialization.
    memory_budget:
        byte cap on memoized intermediates handed to the planner when
        ``strategy='auto'``.
    engine_factory:
        escape hatch for benchmarking: a callable returning an MTTKRP
        backend for the tensor.
    callback: invoked as ``callback(iteration, fit, model)`` per iteration;
        returning a truthy value stops the run after that iteration
        (without marking it converged) — the hook
        :func:`repro.algos.restarts.cp_als_restarts` uses for its
        ``early_stop`` hopeless-restart cutoff.
    watchdog:
        a :class:`~repro.obs.watchdog.DriftWatchdog` comparing the model's
        predicted per-iteration cost against measured counters and wall
        time.  When None and tracing is enabled
        (:func:`repro.obs.enabled`), one is built automatically from the
        engine's symbolic tree; when tracing is off and none is passed,
        the watchdog machinery is skipped entirely.
    run_ctx:
        a :class:`~repro.obs.runctx.RunContext` scoping this run's
        telemetry.  When None, the run joins the ambient context if one is
        active (a caller's ``runctx.using`` block), else it creates and
        registers an ambient context of its own — so every run has a
        ``run_id``, appears on ``/runz``, and stamps its events, while
        single-run behavior on the global instruments is unchanged.  Pass
        :meth:`RunContext.scoped() <repro.obs.runctx.RunContext.scoped>`
        to give the run fully isolated tracer/events/metrics/memory
        (required for concurrent runs with zero telemetry cross-talk).
    """
    check_positive_int(rank, "rank")
    check_positive_int(n_iter_max, "n_iter_max")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if tensor.ndim < 2:
        raise ValueError("CP-ALS requires an order >= 2 tensor")

    with _seam.run_scope(run_ctx, shape=list(tensor.shape), nnz=tensor.nnz,
                         rank=rank) as ctx:
        return _cp_als_run(
            tensor, rank, strategy=strategy, n_iter_max=n_iter_max, tol=tol,
            init=init, random_state=random_state,
            memory_budget=memory_budget, engine_factory=engine_factory,
            callback=callback, watchdog=watchdog, ctx=ctx,
        )


def _cp_als_run(tensor: CooTensor, rank: int, *, strategy, n_iter_max,
                tol, init, random_state, memory_budget, engine_factory,
                callback, watchdog, ctx) -> CPResult:
    """The ALS loop proper, running inside the active run context ``ctx``."""
    factors = initialize_factors(tensor, rank, init, random_state)
    norm_x = tensor.norm()

    planner_report = None
    t0 = time.perf_counter()
    if engine_factory is not None:
        engine = engine_factory(tensor)
        strategy_name = getattr(engine, "name", type(engine).__name__)
    else:
        if isinstance(strategy, str) and strategy.lower() == "auto":
            from ..model.planner import plan

            planner_report = plan(tensor, rank, memory_budget=memory_budget)
            chosen = planner_report.best.strategy
        else:
            chosen = strategy
        engine = MemoizedMttkrp(tensor, chosen)
        strategy_name = engine.strategy.name
    engine.set_factors(factors)
    setup_time = time.perf_counter() - t0
    ctx.meta.setdefault("strategy", strategy_name)
    observer = _seam.run_observer(
        tensor, rank, engine, memoized=isinstance(engine, MemoizedMttkrp),
        watchdog=watchdog, strategy_name=strategy_name,
        n_iter_max=n_iter_max, tol=tol,
    )

    mode_order = tuple(engine.mode_order)
    grams = GramCache(engine.factors)
    weights = np.ones(rank, dtype=VALUE_DTYPE)
    fits: list[float] = []
    converged = False
    iter_times: list[float] = []

    def run_modes(iteration: int) -> np.ndarray:
        nonlocal weights
        M_last: np.ndarray | None = None
        for n in mode_order:
            if observer is not None:
                observer.mode(iteration, n)
            M = engine.mttkrp(n)
            with _obs.span("factor_solve", mode=n):
                H = grams.combined(skip=n)
                U = solve_normal_equations(M, H)
                # First iteration: 2-norm normalization settles scale;
                # later iterations use max-norm so weights track
                # convergence smoothly (the Tensor Toolbox convention).
                U, norms = normalize_columns(
                    U, order=2 if iteration == 0 else "max"
                )
                norms = np.where(norms > 0, norms, 1.0)
                weights = norms
                if observer is not None:
                    observer.solved(n, H, engine.factors[n], U)
                engine.update_factor(n, U)
                grams.update(n, U)
            M_last = M
        assert M_last is not None
        return M_last

    try:
        for iteration in range(n_iter_max):
            it0 = time.perf_counter()
            if observer is not None:
                observer.begin(iteration)
            with _obs.span("als_iteration", iteration=iteration):
                if observer is None:
                    M_last = run_modes(iteration)
                else:
                    M_last = observer.measure(run_modes, iteration)
            it_seconds = time.perf_counter() - it0
            iter_times.append(it_seconds)

            last = mode_order[-1]
            fit = _compute_fit(
                norm_x, weights, engine.factors, grams, M_last, last
            )
            fits.append(fit)
            if observer is not None:
                observer.end(iteration, fit=fit, fits=fits,
                             seconds=it_seconds, grams=grams)
            if callback is not None:
                # A truthy return requests early termination (used by
                # cp_als_restarts' hopeless-restart cutoff).
                if callback(iteration, fit,
                            KruskalTensor(weights, engine.factors)):
                    break
            if tol > 0 and iteration > 0 and abs(fits[-1] - fits[-2]) < tol:
                converged = True
                break
    finally:
        if observer is not None:
            observer.close()

    ktensor = KruskalTensor(weights, engine.factors).normalize()
    total = setup_time + float(np.sum(iter_times))
    readings = {}
    if observer is not None:
        observer.stop(n_iterations=len(fits), converged=converged,
                      fit=fits[-1] if fits else None, total_seconds=total)
        readings = observer.results()
    return CPResult(
        ktensor=ktensor,
        fits=fits,
        n_iterations=len(fits),
        converged=converged,
        strategy_name=strategy_name,
        planner_report=planner_report,
        timings={
            "setup": setup_time,
            "per_iteration": float(np.mean(iter_times)) if iter_times else 0.0,
            "total": total,
        },
        **readings,
    )


def _compute_fit(
    norm_x: float,
    weights: np.ndarray,
    factors: Sequence[np.ndarray],
    grams: GramCache,
    M_last: np.ndarray,
    last_mode: int,
) -> float:
    """Fit from the final MTTKRP of the iteration (no extra tensor pass)."""
    H_all = grams.combined()
    norm_model_sq = float(weights @ H_all @ weights)
    inner = innerprod_from_mttkrp(M_last, factors[last_mode], weights)
    err_sq = max(norm_x**2 + norm_model_sq - 2.0 * inner, 0.0)
    if norm_x == 0.0:
        return 1.0 if norm_model_sq == 0.0 else float("-inf")
    return 1.0 - float(np.sqrt(err_sq)) / norm_x
