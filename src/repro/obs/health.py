"""Numerical-health telemetry: conditioning, factor deltas, swamps/stalls.

The rest of the observability stack watches the *performance* predictions
of the cost model; this module watches the *numerics* of CP-ALS itself.
The normal-equation matrices ``H^(n)`` are frequently ill-conditioned near
convergence (see :mod:`repro.linalg.solve`), the Cholesky→pseudoinverse
fallback used to fire silently, and swamps — long plateaus caused by
near-collinear rank-one components cancelling each other — burn iterations
without any visible signal.  The :class:`HealthCollector` closes that gap
with four cheap per-iteration readings:

* **Gram conditioning** — an ``R x R`` ``eigh`` on the Hadamard Gram the
  solver already holds gives the per-mode condition number ``κ(H^(n))``
  and the count of eigenvalues the :data:`~repro.linalg.solve.PINV_RCOND`
  cutoff would truncate.
* **Factor deltas** — per-mode relative change ``‖ΔU‖_F / ‖U‖_F`` via
  :class:`FactorDeltaTracker`, a public API kept deliberately standalone:
  Ma & Solomonik's pairwise-perturbation scheme gates its approximate
  updates on exactly this quantity (ROADMAP item 4).
* **Congruence / swamp detection** — the maximum cross-mode column
  congruence of the rank-one components (product over modes of the
  normalized factor Grams).  Values near 1 are the classic signature of
  degenerate two-component cancellation.
* **Fit trajectory** — :class:`FitTrajectory` classifies the trailing fit
  series as ``converging`` / ``stalled`` / ``swamped`` with a trailing
  convergence-rate estimate (the decay ratio of successive fit
  increments).

Collection is off by default (:data:`SWITCH`: ``REPRO_TRACE`` or
``REPRO_HEALTH``) and **bitwise-neutral**: every reading is computed
from freshly derived arrays, never by mutating or reordering the numeric
path, so factor outputs are bit-identical with telemetry on or off (a
tested invariant).

Readings land on :attr:`repro.core.cpals.CPResult.health_readings`,
stream as extended ``repro-events/v1`` iteration fields, persist as a
versioned ``repro-health/v1`` artifact (``health.json``,
:func:`write_health`), and feed the drift watchdog's numerical band, the
``repro report`` health section, the dashboard panel, and the
``repro_health_*`` gauge family.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..linalg.solve import PINV_RCOND
from .metrics import registry as _metrics
from .switch import RunPlugin, Switch, env_flag

__all__ = [
    "HEALTH_SCHEMA", "TRAJECTORY_CODES",
    "HealthReading", "FactorDeltaTracker", "FitTrajectory",
    "HealthCollector",
    "rel_delta", "gram_conditioning", "congruence_from_grams",
    "congruence_from_factors",
    "enabled", "enable", "disable", "get_collector", "collecting",
    "set_site", "clear_site", "current_site", "record_fallback",
    "health_artifact", "validate_health_artifact", "write_health",
    "format_health",
]

#: schema tag of the ``health.json`` artifact (bump on layout change).
HEALTH_SCHEMA = "repro-health/v1"

#: fit-trajectory labels, and the numeric codes the gauge family uses.
TRAJECTORY_WARMUP = "warmup"
TRAJECTORY_CONVERGING = "converging"
TRAJECTORY_STALLED = "stalled"
TRAJECTORY_SWAMPED = "swamped"
TRAJECTORY_CODES = {
    TRAJECTORY_WARMUP: 0,
    TRAJECTORY_CONVERGING: 1,
    TRAJECTORY_STALLED: 2,
    TRAJECTORY_SWAMPED: 3,
}


def _finite(value) -> float | None:
    """JSON-safe float: None for non-finite / non-numeric values."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return float(value)
    return None


@dataclass
class HealthReading:
    """One ALS iteration's numerical-health snapshot."""

    iteration: int
    #: per-mode condition number ``κ(H^(n))`` (``inf`` when singular).
    condition_numbers: list[float]
    #: per-mode count of eigenvalues under the ``rcond`` truncation cutoff.
    truncated_eigenvalues: list[int]
    #: per-mode relative factor change ``‖ΔU‖_F / ‖U‖_F``.
    factor_deltas: list[float]
    #: max cross-mode column congruence over component pairs (0 when R < 2).
    congruence: float
    #: the component pair achieving :attr:`congruence`, or None.
    congruence_pair: tuple[int, int] | None
    #: Cholesky→pinv fallbacks recorded during this iteration's solves.
    pinv_fallbacks: int
    fit: float | None
    fit_delta: float | None
    #: ``warmup`` / ``converging`` / ``stalled`` / ``swamped``.
    trajectory: str
    #: trailing decay ratio of fit increments (None until estimable).
    convergence_rate: float | None

    @property
    def max_condition_number(self) -> float:
        """Worst per-mode condition number (``inf`` when any is singular)."""
        return max(self.condition_numbers, default=float("nan"))

    @property
    def worst_mode(self) -> int | None:
        """Mode with the largest condition number, None without readings."""
        if not self.condition_numbers:
            return None
        return int(np.argmax(self.condition_numbers))

    @property
    def n_truncated(self) -> int:
        """Total truncated eigenvalues across modes this iteration."""
        return int(sum(self.truncated_eigenvalues))

    @property
    def max_factor_delta(self) -> float:
        return max(self.factor_deltas, default=float("nan"))

    def to_dict(self) -> dict:
        """JSON-friendly form (non-finite floats become None)."""
        return {
            "iteration": self.iteration,
            "condition_numbers": [_finite(c) for c in self.condition_numbers],
            "truncated_eigenvalues": [int(t)
                                      for t in self.truncated_eigenvalues],
            "factor_deltas": [_finite(d) for d in self.factor_deltas],
            "congruence": _finite(self.congruence),
            "congruence_pair": (list(self.congruence_pair)
                                if self.congruence_pair is not None else None),
            "pinv_fallbacks": int(self.pinv_fallbacks),
            "fit": _finite(self.fit),
            "fit_delta": _finite(self.fit_delta),
            "trajectory": self.trajectory,
            "convergence_rate": _finite(self.convergence_rate),
        }


# ---------------------------------------------------------------------------
# primitive readings
# ---------------------------------------------------------------------------

def rel_delta(U: np.ndarray, previous: np.ndarray | None) -> float:
    """Relative Frobenius change ``‖U - previous‖_F / ‖previous‖_F``.

    ``inf`` with no baseline (first observation, shape change, or a zero
    baseline with a nonzero update) — the "everything changed" convention
    a pairwise-perturbation gate wants for forcing a full update.
    """
    U = np.asarray(U)
    if previous is None or np.shape(previous) != U.shape:
        return float("inf")
    denom = float(np.linalg.norm(previous))
    num = float(np.linalg.norm(U - previous))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def gram_conditioning(H: np.ndarray,
                      rcond: float = PINV_RCOND) -> tuple[float, int]:
    """``(condition number, truncated eigenvalue count)`` of a PSD ``H``.

    The truncation count uses the same symmetrized ``eigh`` + relative
    cutoff as :func:`repro.linalg.solve.psd_pinv`, so it counts exactly
    the eigenvalues the pseudoinverse fallback would zero out.  ``H`` is
    read, never modified.
    """
    w = np.linalg.eigvalsh((np.asarray(H) + np.asarray(H).T) * 0.5)
    w_max = max(float(w[-1]), 0.0)
    cutoff = rcond * w_max
    n_truncated = int(w.size - np.count_nonzero(w > cutoff))
    w_min = float(w[0])
    if w_min <= 0.0 or w_max == 0.0:
        return float("inf"), n_truncated
    return w_max / w_min, n_truncated


def congruence_from_grams(grams) -> tuple[float, tuple[int, int] | None]:
    """Max cross-mode column congruence from per-mode factor Grams.

    For components ``r != s`` the congruence is the product over modes of
    ``G[r, s] / sqrt(G[r, r] G[s, s])`` — the cosine between the
    vectorized rank-one terms.  ``|congruence| -> 1`` flags the degenerate
    two-component cancellation behind CP swamps.  Returns
    ``(max |congruence|, (r, s))``; ``(0.0, None)`` for rank < 2.
    """
    C: np.ndarray | None = None
    for G in grams:
        G = np.asarray(G)
        d = np.sqrt(np.clip(np.diag(G), 0.0, None))
        denom = np.outer(d, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = np.where(denom > 0.0, G / denom, 0.0)
        C = normalized if C is None else C * normalized
    if C is None or C.shape[0] < 2:
        return 0.0, None
    off = np.abs(C)
    np.fill_diagonal(off, 0.0)
    r, s = np.unravel_index(int(np.argmax(off)), off.shape)
    return float(off[r, s]), (int(min(r, s)), int(max(r, s)))


def congruence_from_factors(factors) -> tuple[float, tuple[int, int] | None]:
    """:func:`congruence_from_grams` computed from raw factor matrices."""
    return congruence_from_grams(
        np.asarray(U).T @ np.asarray(U) for U in factors
    )


class FactorDeltaTracker:
    """Per-mode relative factor change between updates.

    A deliberately standalone public API: pairwise-perturbation CP-ALS
    (ROADMAP item 4) gates approximate MTTKRP updates on exactly this
    per-mode ``‖ΔU‖_F / ‖U‖_F`` signal, keeping its *own* snapshot of the
    last fully-updated factor.  Two usage styles:

    * ``update(mode, U)`` — compare against (and refresh) the tracker's
      stored snapshot: the pairwise-perturbation style.
    * ``update(mode, U, previous=U_old)`` — compare against a
      caller-supplied baseline without retaining any snapshot: the
      zero-copy style the :class:`HealthCollector` uses inside ``cp_als``.

    The first observation of a mode reports ``inf`` ("everything
    changed"), matching :func:`rel_delta`.
    """

    def __init__(self, n_modes: int = 0):
        self._prev: list[np.ndarray | None] = []
        self._deltas: list[float] = []
        self._ensure(n_modes - 1)

    def _ensure(self, mode: int) -> None:
        while len(self._prev) <= mode:
            self._prev.append(None)
            self._deltas.append(float("inf"))

    @property
    def n_modes(self) -> int:
        return len(self._prev)

    def update(self, mode: int, U: np.ndarray, *,
               previous: np.ndarray | None = None) -> float:
        """Record mode ``mode``'s new factor; returns the relative change.

        With ``previous`` given, the comparison baseline is the caller's
        and no snapshot is stored (the caller owns history); otherwise
        the stored snapshot is compared against and replaced by a copy of
        ``U``.
        """
        self._ensure(mode)
        U = np.asarray(U)
        if previous is not None:
            delta = rel_delta(U, np.asarray(previous))
        else:
            delta = rel_delta(U, self._prev[mode])
            self._prev[mode] = np.array(U, copy=True)
        self._deltas[mode] = delta
        return delta

    def peek(self, mode: int, U: np.ndarray) -> float:
        """The relative change ``U`` *would* record, without recording."""
        if mode >= len(self._prev):
            return float("inf")
        return rel_delta(U, self._prev[mode])

    def delta(self, mode: int) -> float:
        """Last recorded relative change of ``mode`` (``inf`` if never)."""
        if mode >= len(self._deltas):
            return float("inf")
        return self._deltas[mode]

    def deltas(self) -> list[float]:
        """All per-mode last deltas."""
        return list(self._deltas)

    def reset(self) -> None:
        self._prev = [None] * len(self._prev)
        self._deltas = [float("inf")] * len(self._deltas)


class FitTrajectory:
    """Classify the trailing fit series: converging / stalled / swamped.

    Per observation the classifier sees the new fit plus (optionally) the
    current component congruence and returns ``(label, rate)``:

    * ``warmup`` — fewer than three fits seen: nothing to say yet.
    * ``converging`` — recent fit increments are above ``stall_tol``
      without the swamp signature.
    * ``stalled`` — every increment in the trailing ``window`` is below
      ``stall_tol`` (the fit has flat-lined) with components not
      degenerate.
    * ``swamped`` — the congruence is at/above ``swamp_congruence``
      (near-collinear rank-one components) *and* progress is effectively
      gone: either stalled outright or decaying with a trailing rate at or
      above ``swamp_rate`` — the slow crawl that distinguishes a swamp
      from honest convergence.

    ``rate`` is the trailing convergence-rate estimate: the median ratio
    of successive absolute fit increments over the window (≈ the linear
    convergence factor ρ; None until two increments exist).
    """

    def __init__(self, *, window: int = 5, stall_tol: float = 1e-6,
                 swamp_congruence: float = 0.97,
                 swamp_rate: float = 0.95):
        self.window = max(int(window), 2)
        self.stall_tol = float(stall_tol)
        self.swamp_congruence = float(swamp_congruence)
        self.swamp_rate = float(swamp_rate)
        self._fits: list[float] = []
        self.label: str = TRAJECTORY_WARMUP
        self.rate: float | None = None

    def observe(self, fit: float,
                congruence: float | None = None) -> tuple[str, float | None]:
        """Fold one fit (and optional congruence) into the classification."""
        self._fits.append(float(fit))
        deltas = [b - a for a, b in zip(self._fits[:-1], self._fits[1:])]
        trailing = deltas[-self.window:]
        self.rate = self._trailing_rate(trailing)
        if len(self._fits) < 3:
            self.label = TRAJECTORY_WARMUP
            return self.label, self.rate
        stalled = all(abs(d) < self.stall_tol for d in trailing)
        degenerate = (congruence is not None
                      and congruence >= self.swamp_congruence)
        slow = self.rate is not None and self.rate >= self.swamp_rate
        if degenerate and (stalled or slow):
            self.label = TRAJECTORY_SWAMPED
        elif stalled:
            self.label = TRAJECTORY_STALLED
        else:
            self.label = TRAJECTORY_CONVERGING
        return self.label, self.rate

    @staticmethod
    def _trailing_rate(deltas: list[float]) -> float | None:
        ratios = [
            abs(b) / abs(a)
            for a, b in zip(deltas[:-1], deltas[1:])
            if abs(a) > 0.0
        ]
        if not ratios:
            return None
        ordered = sorted(ratios)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def reset(self) -> None:
        self._fits.clear()
        self.label = TRAJECTORY_WARMUP
        self.rate = None


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------

class HealthCollector:
    """Per-iteration numerical-health readings for a CP-ALS run.

    Driven by :func:`repro.core.cpals.cp_als` exactly like the memory
    tracker: ``start_run`` once, ``begin_iteration`` /
    per-mode ``observe_mode`` / ``observe_iteration`` per ALS iteration.
    All state mutation happens under one lock (solver fallbacks can be
    reported from pool threads); all inputs are *read*, never modified,
    so collection is bitwise-neutral to the factors.

    Readings accumulate in :attr:`readings` across runs (like
    ``MemTracker.readings``); per-run isolation comes from scoped run
    contexts (``RunContext.scoped(health=True)``).
    """

    def __init__(self, *, window: int = 5, stall_tol: float = 1e-6,
                 swamp_congruence: float = 0.97,
                 rcond: float = PINV_RCOND):
        self._lock = threading.Lock()
        self.window = int(window)
        self.stall_tol = float(stall_tol)
        self.swamp_congruence = float(swamp_congruence)
        self.rcond = float(rcond)
        self.readings: list[HealthReading] = []
        self.delta_tracker = FactorDeltaTracker()
        self.trajectory = FitTrajectory(
            window=window, stall_tol=stall_tol,
            swamp_congruence=swamp_congruence,
        )
        self.total_pinv_fallbacks = 0
        self.total_truncated_eigenvalues = 0
        #: (iteration, mode) sites of recorded fallbacks (bounded).
        self.fallback_sites: list[tuple[int | None, int | None]] = []
        self._n_modes = 0
        self._mode_condition: dict[int, float] = {}
        self._mode_truncated: dict[int, int] = {}
        self._mode_delta: dict[int, float] = {}
        self._iter_fallbacks = 0

    @property
    def has_data(self) -> bool:
        return bool(self.readings)

    # -- run / iteration lifecycle -------------------------------------
    def start_run(self, n_modes: int, rank: int | None = None) -> None:
        """Reset per-run state (trajectory, deltas) for a fresh run."""
        with self._lock:
            self._n_modes = int(n_modes)
            self.delta_tracker = FactorDeltaTracker(n_modes)
            self.trajectory.reset()
            self._clear_scratch_locked()

    def begin_iteration(self, iteration: int) -> None:
        """Open one ALS iteration's collection window."""
        with self._lock:
            self._clear_scratch_locked()

    def _clear_scratch_locked(self) -> None:
        self._mode_condition.clear()
        self._mode_truncated.clear()
        self._mode_delta.clear()
        self._iter_fallbacks = 0

    def observe_mode(self, mode: int, H: np.ndarray,
                     U_prev: np.ndarray, U_new: np.ndarray) -> None:
        """One mode's solve: Gram conditioning + factor delta.

        ``H`` is the Hadamard Gram the solver just used (already
        materialized by :class:`~repro.linalg.gram.GramCache`, so the only
        added cost is one ``R x R`` ``eigh``); ``U_prev`` / ``U_new`` are
        the factor before and after the update (post-normalization).
        """
        cond, n_truncated = gram_conditioning(H, self.rcond)
        delta = self.delta_tracker.update(mode, U_new, previous=U_prev)
        with self._lock:
            self._n_modes = max(self._n_modes, mode + 1)
            self._mode_condition[mode] = cond
            self._mode_truncated[mode] = n_truncated
            self._mode_delta[mode] = delta
            self.total_truncated_eigenvalues += n_truncated

    def record_fallback(self, n_truncated: int, *,
                        mode: int | None = None,
                        iteration: int | None = None) -> None:
        """A Cholesky→pinv fallback fired (reported by the solver)."""
        with self._lock:
            self._iter_fallbacks += 1
            self.total_pinv_fallbacks += 1
            if len(self.fallback_sites) < 4096:
                self.fallback_sites.append((iteration, mode))
        _metrics.incr("health.pinv_fallbacks")

    def observe_iteration(self, iteration: int, *, grams=None,
                          fit: float | None = None) -> HealthReading:
        """Close the iteration into a :class:`HealthReading`.

        ``grams`` is an indexable of per-mode factor Grams (a
        :class:`~repro.linalg.gram.GramCache` works directly) for the
        congruence reading; ``fit`` feeds the trajectory classifier.
        Publishes the ``health.*`` gauges the live ``/metrics`` endpoint
        renders as ``repro_health_*``.
        """
        congruence, pair = 0.0, None
        if grams is not None:
            congruence, pair = congruence_from_grams(
                grams[i] for i in range(len(grams))
            )
        if fit is not None:
            label, rate = self.trajectory.observe(fit, congruence)
        else:
            label, rate = self.trajectory.label, self.trajectory.rate
        with self._lock:
            n_modes = max(
                self._n_modes,
                max(self._mode_condition, default=-1) + 1,
            )
            reading = HealthReading(
                iteration=int(iteration),
                condition_numbers=[
                    self._mode_condition.get(m, float("nan"))
                    for m in range(n_modes)
                ],
                truncated_eigenvalues=[
                    self._mode_truncated.get(m, 0) for m in range(n_modes)
                ],
                factor_deltas=[
                    self._mode_delta.get(m, float("nan"))
                    for m in range(n_modes)
                ],
                congruence=congruence,
                congruence_pair=pair,
                pinv_fallbacks=self._iter_fallbacks,
                fit=fit,
                fit_delta=(
                    self.trajectory._fits[-1] - self.trajectory._fits[-2]
                    if len(self.trajectory._fits) > 1 else None
                ),
                trajectory=label,
                convergence_rate=rate,
            )
            self.readings.append(reading)
            self._clear_scratch_locked()
        max_cond = reading.max_condition_number
        if math.isfinite(max_cond):
            _metrics.set_gauge("health.max_condition_number", max_cond)
        max_delta = reading.max_factor_delta
        if math.isfinite(max_delta):
            _metrics.set_gauge("health.max_factor_delta", max_delta)
        _metrics.set_gauge("health.congruence", reading.congruence)
        _metrics.set_gauge("health.truncated_eigenvalues",
                           reading.n_truncated)
        _metrics.set_gauge("health.trajectory_code",
                           TRAJECTORY_CODES.get(label, -1))
        return reading

    # -- reads ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly summary plus the full per-iteration series."""
        with self._lock:
            return {
                "rcond": self.rcond,
                "total_pinv_fallbacks": self.total_pinv_fallbacks,
                "total_truncated_eigenvalues":
                    self.total_truncated_eigenvalues,
                "fallback_sites": [list(site)
                                   for site in self.fallback_sites],
                "n_readings": len(self.readings),
                "readings": [r.to_dict() for r in self.readings],
            }

    def reset(self) -> None:
        with self._lock:
            self.readings.clear()
            self.delta_tracker = FactorDeltaTracker()
            self.trajectory.reset()
            self.total_pinv_fallbacks = 0
            self.total_truncated_eigenvalues = 0
            self.fallback_sites.clear()
            self._n_modes = 0
            self._clear_scratch_locked()

    def __repr__(self) -> str:
        return (
            f"HealthCollector(readings={len(self.readings)}, "
            f"fallbacks={self.total_pinv_fallbacks}, "
            f"trajectory={self.trajectory.label!r})"
        )


# ---------------------------------------------------------------------------
# module switch + solver site attribution
# ---------------------------------------------------------------------------

_collector = HealthCollector()
#: the health collector's switch.  REPRO_TRACE turns on the whole stack;
#: REPRO_HEALTH enables just the numerical-health side.
SWITCH = Switch("health", _collector, pin="health_enabled", slot="health",
                on=env_flag("REPRO_TRACE", "REPRO_HEALTH"),
                clear=_collector.reset)
enabled, enable, disable = SWITCH.enabled, SWITCH.enable, SWITCH.disable
get_collector = SWITCH.get

#: the in-flight (iteration, mode) a normal-equation solve belongs to —
#: set by the cp_als loop so the solver's fallback telemetry can name its
#: trigger site; (None, None) outside an instrumented run.
_site: contextvars.ContextVar[tuple[int | None, int | None]] = \
    contextvars.ContextVar("repro_health_site", default=(None, None))


#: ``with collecting() as hc: ...`` collects for a block, then restores.
collecting = SWITCH.block


class HealthPlugin(RunPlugin):
    """Numerical-health readings for one cp_als run, one per iteration."""

    name = "health"
    result_field = "health_readings"
    tracks_site = True

    @classmethod
    def attach(cls, run):
        collector = SWITCH.active()
        if collector is None:
            return None
        collector.start_run(n_modes=run.tensor.ndim, rank=run.rank)
        return cls(collector)

    def begin(self, iteration: int) -> None:
        self.instrument.begin_iteration(iteration)

    def solved(self, mode, H, U_prev, U_new) -> None:
        # Read-only: conditioning of the Gram just solved and the
        # relative change against the outgoing factor.
        self.instrument.observe_mode(mode, H, U_prev, U_new)

    def end(self, it) -> HealthReading:
        return self.instrument.observe_iteration(it.iteration, grams=it.grams,
                                                 fit=it.fit)

    def fields(self, reading: HealthReading) -> dict:
        fields: dict = {}
        if math.isfinite(reading.max_condition_number):
            fields["health_max_condition"] = reading.max_condition_number
        if math.isfinite(reading.max_factor_delta):
            fields["health_max_factor_delta"] = reading.max_factor_delta
        fields["health_congruence"] = reading.congruence
        fields["health_trajectory"] = reading.trajectory
        if reading.n_truncated:
            fields["health_truncated_eigenvalues"] = reading.n_truncated
        if reading.pinv_fallbacks:
            fields["health_pinv_fallbacks"] = reading.pinv_fallbacks
        return fields


def set_site(iteration: int | None, mode: int | None) -> None:
    """Mark the (iteration, mode) the next normal-equation solve serves."""
    _site.set((iteration, mode))


def clear_site() -> None:
    _site.set((None, None))


def current_site() -> tuple[int | None, int | None]:
    """The in-flight (iteration, mode) solve site, or (None, None)."""
    return _site.get()


def record_fallback(n_truncated: int) -> None:
    """Solver hook: count a Cholesky→pinv fallback on the active collector,
    attributed to the in-flight solve site (no-op when collection is off)."""
    collector = SWITCH.active()
    if collector is None:
        return
    iteration, mode = _site.get()
    collector.record_fallback(n_truncated, mode=mode, iteration=iteration)


# ---------------------------------------------------------------------------
# the repro-health/v1 artifact
# ---------------------------------------------------------------------------

def health_artifact(readings, *, run_id: str | None = None,
                    rank: int | None = None,
                    strategy: str | None = None,
                    rcond: float = PINV_RCOND) -> dict:
    """Wrap per-iteration readings as a ``repro-health/v1`` document."""
    rows = [
        r.to_dict() if isinstance(r, HealthReading) else dict(r)
        for r in readings
    ]
    conds = [
        c for row in rows for c in row.get("condition_numbers", [])
        if isinstance(c, (int, float))
    ]
    return {
        "schema": HEALTH_SCHEMA,
        "run_id": run_id,
        "rank": rank,
        "strategy": strategy,
        "rcond": float(rcond),
        "n_iterations": len(rows),
        "total_pinv_fallbacks": sum(
            int(row.get("pinv_fallbacks", 0)) for row in rows
        ),
        "total_truncated_eigenvalues": sum(
            sum(int(t) for t in row.get("truncated_eigenvalues", []))
            for row in rows
        ),
        "max_condition_number": max(conds) if conds else None,
        "final_trajectory": rows[-1].get("trajectory") if rows else None,
        "readings": rows,
    }


def validate_health_artifact(doc) -> list[str]:
    """Schema/consistency problems (empty list = valid).

    Beyond the envelope tag this checks the invariants consumers lean on:
    iterations strictly increasing, per-mode lists of one consistent
    length, condition numbers ``>= 1`` (or None for singular systems),
    congruence in ``[0, 1]`` (plus rounding slack), known trajectory
    labels, and run-level totals matching the per-iteration sums.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["health artifact must be a JSON object"]
    if doc.get("schema") != HEALTH_SCHEMA:
        errors.append(f"schema {doc.get('schema')!r} != {HEALTH_SCHEMA!r}")
    rcond = doc.get("rcond")
    if not isinstance(rcond, (int, float)) or not rcond > 0:
        errors.append(f"rcond must be > 0, got {rcond!r}")
    readings = doc.get("readings")
    if not isinstance(readings, list):
        return errors + ["readings must be a list"]
    if doc.get("n_iterations") != len(readings):
        errors.append(f"n_iterations={doc.get('n_iterations')} != "
                      f"len(readings)={len(readings)}")
    last_iteration = None
    n_modes = None
    fallback_sum = 0
    truncated_sum = 0
    for i, row in enumerate(readings):
        where = f"readings[{i}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        iteration = row.get("iteration")
        if not isinstance(iteration, int) or iteration < 0:
            errors.append(f"{where}: iteration must be a non-negative int")
        elif last_iteration is not None and iteration <= last_iteration:
            errors.append(f"{where}: iteration {iteration} not increasing "
                          f"(previous {last_iteration})")
        else:
            last_iteration = iteration
        conds = row.get("condition_numbers")
        truncs = row.get("truncated_eigenvalues")
        deltas = row.get("factor_deltas")
        for name, val in (("condition_numbers", conds),
                          ("truncated_eigenvalues", truncs),
                          ("factor_deltas", deltas)):
            if not isinstance(val, list):
                errors.append(f"{where}: {name} must be a list")
        if not all(isinstance(v, list) for v in (conds, truncs, deltas)):
            continue
        if not len(conds) == len(truncs) == len(deltas):
            errors.append(f"{where}: per-mode lists disagree on length")
        if n_modes is None:
            n_modes = len(conds)
        elif len(conds) != n_modes:
            errors.append(f"{where}: {len(conds)} modes, expected {n_modes}")
        for c in conds:
            if c is not None and (not isinstance(c, (int, float))
                                  or c < 1.0 - 1e-9):
                errors.append(f"{where}: condition number {c!r} < 1")
        for t in truncs:
            if not isinstance(t, int) or t < 0:
                errors.append(f"{where}: truncated count {t!r} invalid")
        congruence = row.get("congruence")
        if congruence is not None and (
                not isinstance(congruence, (int, float))
                or not -1e-9 <= congruence <= 1.0 + 1e-6):
            errors.append(f"{where}: congruence {congruence!r} outside "
                          "[0, 1]")
        trajectory = row.get("trajectory")
        if trajectory not in TRAJECTORY_CODES:
            errors.append(f"{where}: unknown trajectory {trajectory!r}")
        fallbacks = row.get("pinv_fallbacks", 0)
        if not isinstance(fallbacks, int) or fallbacks < 0:
            errors.append(f"{where}: pinv_fallbacks {fallbacks!r} invalid")
        else:
            fallback_sum += fallbacks
        truncated_sum += sum(t for t in truncs if isinstance(t, int))
    if doc.get("total_pinv_fallbacks") != fallback_sum:
        errors.append(f"total_pinv_fallbacks="
                      f"{doc.get('total_pinv_fallbacks')} != per-iteration "
                      f"sum {fallback_sum}")
    if doc.get("total_truncated_eigenvalues") != truncated_sum:
        errors.append(f"total_truncated_eigenvalues="
                      f"{doc.get('total_truncated_eigenvalues')} != "
                      f"per-iteration sum {truncated_sum}")
    return errors


def write_health(trace_dir: str, readings=None, *,
                 run_id: str | None = None, rank: int | None = None,
                 strategy: str | None = None,
                 rcond: float | None = None) -> str:
    """Persist ``health.json`` into ``trace_dir`` (validated before write).

    ``readings`` defaults to the active collector's accumulated series.
    """
    collector = None
    if readings is None:
        collector = get_collector()
        readings = collector.readings
    doc = health_artifact(
        readings, run_id=run_id, rank=rank, strategy=strategy,
        rcond=(rcond if rcond is not None
               else (collector.rcond if collector is not None
                     else PINV_RCOND)),
    )
    problems = validate_health_artifact(doc)
    if problems:
        raise ValueError(
            f"refusing to write invalid health artifact: {problems[0]}"
        )
    from .artifacts import dump_json

    return dump_json(trace_dir, "health.json", doc)


def format_health(doc: dict, *, max_rows: int = 12) -> str:
    """Human-readable table of a ``repro-health/v1`` document.

    Shows the last ``max_rows`` iterations (the interesting end of the
    trajectory) plus a run-level summary line.
    """
    from ..model.report import format_table

    readings = doc.get("readings", [])
    shown = readings[-max_rows:]
    rows = []
    for row in shown:
        conds = [c for c in row.get("condition_numbers", [])
                 if isinstance(c, (int, float))]
        deltas = [d for d in row.get("factor_deltas", [])
                  if isinstance(d, (int, float))]
        rows.append([
            row.get("iteration"),
            f"{max(conds):.3e}" if conds else "singular",
            sum(int(t) for t in row.get("truncated_eigenvalues", [])),
            f"{max(deltas):.3e}" if deltas else "-",
            (f"{row['congruence']:.4f}"
             if isinstance(row.get("congruence"), (int, float)) else "-"),
            row.get("pinv_fallbacks", 0),
            row.get("trajectory", "?"),
        ])
    table = format_table(
        ["iter", "max κ(H)", "trunc", "max ‖ΔU‖/‖U‖", "congruence",
         "pinv", "trajectory"],
        rows,
    )
    skipped = len(readings) - len(shown)
    head = f"(… {skipped} earlier iterations)\n" if skipped > 0 else ""
    summary = (
        f"{doc.get('n_iterations', 0)} iterations, "
        f"{doc.get('total_pinv_fallbacks', 0)} pinv fallbacks, "
        f"{doc.get('total_truncated_eigenvalues', 0)} truncated "
        f"eigenvalues, final trajectory: "
        f"{doc.get('final_trajectory') or 'n/a'}"
    )
    return head + table + "\n" + summary



# ---------------------------------------------------------------------------
# trace-directory artifact hooks
# ---------------------------------------------------------------------------

def write_artifact(trace_dir: str, session):
    """``repro trace``: ``health.json`` when the run recorded readings."""
    collector = get_collector()
    if not collector.has_data:
        return None
    path = write_health(trace_dir, run_id=session.run_id)
    last = collector.readings[-1]
    max_cond = last.max_condition_number
    note = (f"\nhealth: {len(collector.readings)} iteration readings, "
            f"final trajectory {last.trajectory!r}, max κ(H) "
            + (f"{max_cond:.3e}" if math.isfinite(max_cond) else "singular")
            + f", congruence {last.congruence:.4f}, "
            f"{collector.total_pinv_fallbacks} pinv fallbacks")
    return [path], note


def report_section(arts, args) -> str:
    """``repro report``: the health summary; pre-health trace dirs
    degrade to an explicit note rather than an error."""
    doc = arts.load("health")
    if doc is None:
        return ("\nno numerical-health readings (pre-health trace dir; "
                "re-run 'repro trace <cmd>' or set REPRO_HEALTH=1 to "
                "record them)")
    return f"\nnumerical health from {arts.path('health')}:\n" + \
        format_health(doc)


def replay(doc, arts) -> dict:
    """``repro serve``: the final iteration's conditioning / congruence
    state plus run totals, as the ``health.*`` gauges a live run sets."""
    gauges = {}
    readings = doc.get("readings", [])
    if readings:
        last = readings[-1]
        conds = [c for c in last.get("condition_numbers", [])
                 if c is not None]
        if conds:
            gauges["health.max_condition_number"] = max(conds)
        deltas = [d for d in last.get("factor_deltas", []) if d is not None]
        if deltas:
            gauges["health.max_factor_delta"] = max(deltas)
        if last.get("congruence") is not None:
            gauges["health.congruence"] = float(last["congruence"])
        code = TRAJECTORY_CODES.get(last.get("trajectory"))
        if code is not None:
            gauges["health.trajectory_code"] = code
    gauges["health.total_pinv_fallbacks"] = int(
        doc.get("total_pinv_fallbacks", 0))
    gauges["health.total_truncated_eigenvalues"] = int(
        doc.get("total_truncated_eigenvalues", 0))
    for name, value in gauges.items():
        _metrics.set_gauge(name, value)
    return {"gauges": len(gauges)}
