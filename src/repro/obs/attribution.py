"""Cost attribution: measured per-node / per-mode work, aligned to the model.

The drift watchdog (:mod:`repro.obs.watchdog`) compares one *aggregate*
number per iteration against the cost model; when it fires, nothing says
*which* tree node or mode diverged.  This module closes that gap: the
engines report every node rebuild (flops/words from the shared
:func:`repro.core.engine.contraction_work` convention, plus wall seconds)
and every MTTKRP scatter to an :class:`AttributionRecorder`,
which aggregates them into per-tree-node and per-mode totals inside
per-ALS-iteration windows — aligned node-for-node with the model's
:func:`repro.model.cost.node_cost_terms` prediction when a strategy is
registered.

Because measured flops are recorded with the exact values the perf
counters receive, a window's per-node flop totals sum to the iteration's
counter totals and, on any backend, each node's measured/predicted flop
ratio is exactly 1.0 while the symbolic tree matches what the engine
executes — deviations localize a real bug or a stale model to one node.

Attribution is off by default (:data:`SWITCH`: ``REPRO_ATTRIBUTION``;
``repro trace`` and ``repro explain --measure`` turn it on).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .metrics import registry as _metrics
from .switch import RunPlugin, Switch, env_flag

__all__ = [
    "ATTRIBUTION_SCHEMA", "AttributionReading", "AttributionRecorder",
    "enabled", "enable", "disable", "recording", "get_recorder",
    "attribution_from_spans", "format_attribution",
]

ATTRIBUTION_SCHEMA = "repro-attr/v1"

#: measured per-node accumulator layout: [flops, words, seconds, rebuilds,
#: scatter_words] (plain lists keep the hot-path increment allocation-free).
_F, _W, _S, _R, _SC = range(5)
#: per-mode accumulator layout: [flops, words, seconds, mttkrps].
_MF, _MW, _MS, _MN = range(4)


@dataclass
class AttributionReading:
    """One ALS iteration's measured per-node / per-mode breakdown.

    ``nodes`` maps node id to ``{"flops", "words", "seconds", "rebuilds",
    "scatter_words"}``; ``modes`` maps mode to ``{"flops", "words",
    "seconds", "mttkrps"}``.  When the recorder has a registered strategy,
    ``node_rows`` / ``mode_rows`` carry the measured-vs-predicted
    comparison (one dict per non-root node / per mode, ratios included)
    and :meth:`blame` localizes a drift metric to its worst offender.
    """

    iteration: int
    nodes: dict[int, dict[str, float]]
    modes: dict[int, dict[str, float]]
    node_rows: list[dict] = field(default_factory=list)
    mode_rows: list[dict] = field(default_factory=list)

    @property
    def flops(self) -> int:
        return int(sum(n["flops"] for n in self.nodes.values()))

    @property
    def words(self) -> int:
        return int(sum(n["words"] for n in self.nodes.values()))

    @property
    def seconds(self) -> float:
        return float(sum(m["seconds"] for m in self.modes.values()))

    def max_node_err(self, metric: str = "flops") -> float | None:
        """Largest per-node ``|measured/predicted - 1|`` (None unaligned)."""
        errs = [
            abs(row[f"{metric}_ratio"] - 1.0)
            for row in self.node_rows
            if row.get(f"{metric}_ratio") is not None
        ]
        return max(errs) if errs else None

    def blame(self, metric: str) -> dict | None:
        """The node most responsible for a drift on ``metric``.

        For the exact work metrics (``flops`` / ``words``) the offender is
        the node with the largest measured/predicted ratio error.  For
        ``time`` — where no per-node prediction in seconds exists without
        machine constants — it is the node whose share of measured wall
        time most exceeds its share of predicted flops, in percentage
        points.  Returns the comparison row augmented with ``why``, or
        None when there is nothing aligned to blame.
        """
        if not self.node_rows:
            return None
        if metric in ("flops", "words"):
            key = f"{metric}_ratio"
            rows = [r for r in self.node_rows if r.get(key) is not None]
            if not rows:
                return None
            worst = max(rows, key=lambda r: abs(r[key] - 1.0))
            if worst[key] == 1.0:
                return None
            return {**worst, "why": (
                f"measured/predicted {metric} {worst[key]:.3f}"
            )}
        total_pred = sum(r["predicted_flops"] for r in self.node_rows)
        total_sec = sum(r["seconds"] for r in self.node_rows)
        if total_pred <= 0 or total_sec <= 0:
            return None

        def excess(row: dict) -> float:
            return (row["seconds"] / total_sec
                    - row["predicted_flops"] / total_pred)

        worst = max(self.node_rows, key=excess)
        return {**worst, "why": (
            f"time share {worst['seconds'] / total_sec:.0%} vs predicted "
            f"work share {worst['predicted_flops'] / total_pred:.0%}"
        )}

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "flops": self.flops,
            "words": self.words,
            "seconds": self.seconds,
            "max_node_flops_err": self.max_node_err("flops"),
            "nodes": {str(k): v for k, v in sorted(self.nodes.items())},
            "modes": {str(k): v for k, v in sorted(self.modes.items())},
        }


class AttributionRecorder:
    """Aggregator of engine-reported rebuild/scatter events.

    Engines call :meth:`begin_mode` / :meth:`on_rebuild` / :meth:`end_mode`
    (guarded by :func:`enabled`); drivers call :meth:`register` once per
    run to align measurements with the model's per-node prediction, then
    :meth:`begin_window` / :meth:`observe_iteration` around each ALS
    iteration.  All mutation happens under one lock, so parallel-engine
    rebuilds and a live scrape thread cannot tear the totals.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self._nodes: dict[int, list] = {}
            self._modes: dict[int, list] = {}
            self._mode: int | None = None
            self._mode_t0 = 0.0
            self._window_nodes: dict[int, tuple] = {}
            self._window_modes: dict[int, tuple] = {}
            self.readings: list[AttributionReading] = []
            self.strategy_name: str | None = None
            self.rank: int | None = None
            self._pred_nodes: dict[int, dict] = {}
            self._pred_modes: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # engine-facing hooks (hot path; every caller is behind enabled())
    # ------------------------------------------------------------------
    def begin_mode(self, mode: int) -> None:
        with self._lock:
            self._mode = mode
            self._mode_t0 = time.perf_counter()

    def on_rebuild(self, node_id: int, flops: int, words: int,
                   seconds: float) -> None:
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                node = self._nodes[node_id] = [0, 0, 0.0, 0, 0]
            node[_F] += flops
            node[_W] += words
            node[_S] += seconds
            node[_R] += 1
            if self._mode is not None:
                m = self._modes.get(self._mode)
                if m is None:
                    m = self._modes[self._mode] = [0, 0, 0.0, 0]
                m[_MF] += flops
                m[_MW] += words

    def end_mode(self, mode: int, leaf_id: int, scatter_words: int) -> None:
        with self._lock:
            seconds = time.perf_counter() - self._mode_t0
            m = self._modes.get(mode)
            if m is None:
                m = self._modes[mode] = [0, 0, 0.0, 0]
            m[_MW] += scatter_words
            m[_MS] += seconds
            m[_MN] += 1
            node = self._nodes.get(leaf_id)
            if node is None:
                node = self._nodes[leaf_id] = [0, 0, 0.0, 0, 0]
            node[_W] += scatter_words
            node[_SC] += scatter_words
            self._mode = None

    # ------------------------------------------------------------------
    # driver-facing API
    # ------------------------------------------------------------------
    def register(self, strategy, node_nnz, rank: int) -> None:
        """Align this recorder with one run's strategy + model prediction.

        Computes the per-node / per-mode predicted cost terms
        (:func:`repro.model.cost.node_cost_terms`) and resets measured
        state, so subsequent windows compare node-for-node against the
        model.  Imported lazily: the model package depends on the engine
        this module instruments.
        """
        from ..model.cost import node_cost_terms, per_mode_cost

        terms = node_cost_terms(strategy, node_nnz, rank)
        modes = per_mode_cost(strategy, node_nnz, rank)
        self.reset()
        with self._lock:
            self.strategy_name = strategy.name
            self.rank = int(rank)
            self._pred_nodes = {
                t.node_id: {
                    "modes": t.modes, "rebuild_mode": t.rebuild_mode,
                    "nnz": t.nnz, "flops": t.flops, "words": t.words,
                }
                for t in terms if t.parent is not None
            }
            self._pred_modes = {int(m): dict(v) for m, v in modes.items()}

    def begin_window(self) -> None:
        with self._lock:
            self._window_nodes = {
                k: tuple(v) for k, v in self._nodes.items()
            }
            self._window_modes = {
                k: tuple(v) for k, v in self._modes.items()
            }

    def observe_iteration(self, iteration: int) -> AttributionReading:
        """Close the window: the iteration's per-node/per-mode breakdown.

        When a strategy is registered, the reading carries comparison rows
        and the per-mode prediction-error gauges
        (``attr.mode<m>.flops_ratio``, ``attr.max_node_flops_err``) are
        published to the metrics registry — and from there to
        ``/metrics``.
        """
        with self._lock:
            nodes = {}
            for nid, tot in self._nodes.items():
                base = self._window_nodes.get(nid, (0, 0, 0.0, 0, 0))
                delta = [tot[i] - base[i] for i in range(5)]
                if delta[_R] or delta[_W]:
                    nodes[nid] = {
                        "flops": delta[_F], "words": delta[_W],
                        "seconds": delta[_S], "rebuilds": delta[_R],
                        "scatter_words": delta[_SC],
                    }
            modes = {}
            for mode, tot in self._modes.items():
                base = self._window_modes.get(mode, (0, 0, 0.0, 0))
                delta = [tot[i] - base[i] for i in range(4)]
                if delta[_MN] or delta[_MF]:
                    modes[mode] = {
                        "flops": delta[_MF], "words": delta[_MW],
                        "seconds": delta[_MS], "mttkrps": delta[_MN],
                    }
        reading = AttributionReading(iteration=iteration, nodes=nodes,
                                     modes=modes)
        if self._pred_nodes:
            reading.node_rows = self._compare_nodes(nodes)
            reading.mode_rows = self._compare_modes(modes)
            for row in reading.mode_rows:
                if row["flops_ratio"] is not None:
                    _metrics.set_gauge(
                        f"attr.mode{row['mode']}.flops_ratio",
                        row["flops_ratio"],
                    )
            err = reading.max_node_err("flops")
            if err is not None:
                _metrics.set_gauge("attr.max_node_flops_err", err)
        self.readings.append(reading)
        return reading

    def _compare_nodes(self, measured: dict[int, dict]) -> list[dict]:
        rows = []
        for nid, pred in sorted(self._pred_nodes.items()):
            m = measured.get(nid, {"flops": 0, "words": 0, "seconds": 0.0,
                                   "rebuilds": 0, "scatter_words": 0})
            rows.append({
                "node": nid,
                "modes": list(pred["modes"]),
                "rebuild_mode": pred["rebuild_mode"],
                "nnz": pred["nnz"],
                "predicted_flops": pred["flops"],
                "measured_flops": int(m["flops"]),
                "flops_ratio": _ratio(m["flops"], pred["flops"]),
                "predicted_words": pred["words"],
                "measured_words": int(m["words"]),
                "words_ratio": _ratio(m["words"], pred["words"]),
                "seconds": float(m["seconds"]),
                "rebuilds": int(m["rebuilds"]),
            })
        return rows

    def _compare_modes(self, measured: dict[int, dict]) -> list[dict]:
        rows = []
        for mode, pred in sorted(self._pred_modes.items()):
            m = measured.get(mode, {"flops": 0, "words": 0, "seconds": 0.0,
                                    "mttkrps": 0})
            rows.append({
                "mode": mode,
                "predicted_flops": pred["flops"],
                "measured_flops": int(m["flops"]),
                "flops_ratio": _ratio(m["flops"], pred["flops"]),
                "predicted_words": pred["words"],
                "measured_words": int(m["words"]),
                "words_ratio": _ratio(m["words"], pred["words"]),
                "seconds": float(m["seconds"]),
                "mttkrps": int(m["mttkrps"]),
            })
        return rows

    def compare(self, reading: AttributionReading | None = None) -> list[dict]:
        """Measured-vs-predicted per-node rows (aligned by node id).

        Uses ``reading``'s window when given (the steady-state view);
        otherwise compares cumulative totals per observed window.
        """
        if reading is not None:
            if reading.node_rows:
                return reading.node_rows
            return self._compare_nodes(reading.nodes)
        n = max(len(self.readings), 1)
        with self._lock:
            cumulative = {
                nid: {"flops": tot[_F] / n, "words": tot[_W] / n,
                      "seconds": tot[_S] / n, "rebuilds": tot[_R] / n,
                      "scatter_words": tot[_SC] / n}
                for nid, tot in self._nodes.items()
            }
        return self._compare_nodes(cumulative)

    @property
    def has_data(self) -> bool:
        return bool(self._nodes)

    def snapshot(self) -> dict:
        """JSON-ready ``repro-attr/v1`` document (for ``attribution.json``)."""
        last = self.readings[-1] if self.readings else None
        modes_rows = (
            last.mode_rows if last is not None and last.mode_rows
            else self._compare_modes(last.modes) if last is not None
            else []
        )
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "strategy": self.strategy_name,
            "rank": self.rank,
            "n_iterations": len(self.readings),
            "nodes": self.compare(last),
            "modes": modes_rows,
            "iterations": [
                {"iteration": r.iteration, "flops": r.flops,
                 "seconds": r.seconds,
                 "max_node_flops_err": r.max_node_err("flops")}
                for r in self.readings
            ],
        }


def _ratio(measured: float, predicted: float) -> float | None:
    if predicted <= 0:
        return None
    return measured / predicted


def attribution_from_spans(spans) -> dict | None:
    """Post-hoc per-node / per-mode *time* attribution from a saved trace.

    ``node_rebuild`` spans carry node id and duration, ``mttkrp`` spans
    carry mode and duration — enough to reconstruct where wall time went
    even when the recorder was not live.  Work counts need the recorder
    (the spans do not repeat flop terms).  Returns None when the trace has
    no rebuild spans.
    """
    nodes: dict[int, dict] = {}
    modes: dict[int, dict] = {}
    for rec in spans:
        if rec.t1 is None:
            continue
        if rec.kind == "node_rebuild" and "node" in rec.attrs:
            row = nodes.setdefault(
                int(rec.attrs["node"]),
                {"seconds": 0.0, "rebuilds": 0,
                 "nnz": int(rec.attrs.get("nnz", 0))},
            )
            row["seconds"] += rec.duration
            row["rebuilds"] += 1
        elif rec.kind == "mttkrp" and "mode" in rec.attrs:
            row = modes.setdefault(
                int(rec.attrs["mode"]), {"seconds": 0.0, "mttkrps": 0}
            )
            row["seconds"] += rec.duration
            row["mttkrps"] += 1
    if not nodes:
        return None
    return {
        "nodes": [{"node": k, **v} for k, v in sorted(nodes.items())],
        "modes": [{"mode": k, **v} for k, v in sorted(modes.items())],
    }


def format_attribution(doc: dict) -> str:
    """Render an attribution snapshot as measured-vs-predicted tables."""
    from ..model.report import format_table

    parts = []
    node_rows = doc.get("nodes") or []
    if node_rows and "predicted_flops" in node_rows[0]:
        rows = [
            [r["node"],
             ",".join(map(str, r.get("modes", []))),
             "-" if r.get("rebuild_mode") is None else r["rebuild_mode"],
             int(r["predicted_flops"]), int(r["measured_flops"]),
             "-" if r["flops_ratio"] is None else round(r["flops_ratio"], 4),
             round(r["seconds"] * 1e3, 3), int(r["rebuilds"])]
            for r in node_rows
        ]
        parts.append(format_table(
            ["node", "modes", "built in", "pred flops", "meas flops",
             "ratio", "ms", "rebuilds"],
            rows,
            title=(f"per-node cost attribution "
                   f"(strategy {doc.get('strategy')}, "
                   f"{doc.get('n_iterations', 0)} iterations)"),
        ))
    elif node_rows:
        rows = [
            [r["node"], r.get("nnz", 0),
             round(r["seconds"] * 1e3, 3), int(r["rebuilds"])]
            for r in node_rows
        ]
        parts.append(format_table(
            ["node", "nnz", "ms", "rebuilds"], rows,
            title="per-node time attribution (from spans)",
        ))
    mode_rows = doc.get("modes") or []
    if mode_rows and "predicted_flops" in mode_rows[0]:
        rows = [
            [r["mode"], int(r["predicted_flops"]), int(r["measured_flops"]),
             "-" if r["flops_ratio"] is None else round(r["flops_ratio"], 4),
             round(r["seconds"] * 1e3, 3)]
            for r in mode_rows
        ]
        parts.append(format_table(
            ["mode", "pred flops", "meas flops", "ratio", "ms"], rows,
            title="per-mode cost attribution",
        ))
    elif mode_rows:
        rows = [
            [r["mode"], round(r["seconds"] * 1e3, 3), int(r["mttkrps"])]
            for r in mode_rows
        ]
        parts.append(format_table(
            ["mode", "ms", "mttkrps"], rows,
            title="per-mode time attribution (from spans)",
        ))
    return "\n\n".join(parts)


_recorder = AttributionRecorder()
#: the attribution recorder's switch: ``REPRO_ATTRIBUTION``, pinned by
#: ``RunContext.attr_enabled`` (scoped runs keep a private recorder).
SWITCH = Switch("attribution", _recorder, pin="attr_enabled",
                slot="attribution", on=env_flag("REPRO_ATTRIBUTION"),
                clear=_recorder.reset)
enabled, enable, disable = SWITCH.enabled, SWITCH.enable, SWITCH.disable
get_recorder = SWITCH.get


#: ``with recording() as rec: ...`` records a block, then restores.
recording = SWITCH.block


class AttributionPlugin(RunPlugin):
    """Per-iteration :class:`AttributionReading` windows for one run,
    aligned with the model's prediction for the run's strategy."""

    name = "attribution"
    result_field = "attribution_readings"

    @classmethod
    def attach(cls, run):
        recorder = SWITCH.active()
        if recorder is None or not run.memoized:
            return None
        recorder.register(run.engine.strategy,
                          run.engine.symbolic.node_nnz(), run.rank)
        return cls(recorder)

    def begin(self, iteration: int) -> None:
        self.instrument.begin_window()

    def end(self, it) -> AttributionReading:
        return self.instrument.observe_iteration(it.iteration)


def write_artifact(trace_dir: str, session):
    """``repro trace``: the recorder's ``repro-attr/v1`` document."""
    from .artifacts import dump_json

    recorder = get_recorder()
    if not recorder.has_data:
        return None
    path = dump_json(trace_dir, "attribution.json", recorder.snapshot())
    return [path], None


def report_section(arts, args) -> str | None:
    """``repro report``: the recorded attribution, else the time
    attribution the spans alone support (per-node / per-mode seconds)."""
    doc = arts.load("attribution")
    header = f"\ncost attribution from {arts.path('attribution')}:\n"
    if doc is None:
        spans = arts.load("spans")
        doc = attribution_from_spans(spans) if spans is not None else None
        header = "\n"
    rendered = format_attribution(doc) if doc is not None else ""
    return header + rendered if rendered else None


def replay(doc, arts) -> dict:
    """``repro serve``: the ``attr.*`` prediction-error gauges."""
    gauges = 0
    for row in doc.get("modes", []):
        if row.get("flops_ratio") is not None:
            _metrics.set_gauge(f"attr.mode{row['mode']}.flops_ratio",
                               row["flops_ratio"])
            gauges += 1
    errors = [abs(row["flops_ratio"] - 1.0) for row in doc.get("nodes", [])
              if row.get("flops_ratio") is not None]
    if errors:
        _metrics.set_gauge("attr.max_node_flops_err", max(errors))
        gauges += 1
    return {"gauges": gauges}
