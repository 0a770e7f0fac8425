"""Roofline telemetry: achieved throughput vs the machine's ceilings.

The cost model predicts flops and words; the tracer measures seconds.
This module joins the two against the host's *measured* ceilings
(:mod:`repro.model.calibrate`): every kernel configuration that left
spans in a trace gets an achieved GFLOP/s and GB/s, expressed as a
fraction of the calibrated compute and bandwidth rooflines — the number
that says whether a slow config is leaving the machine idle or is
already pinned against memory bandwidth (in which case more workers
cannot help, only traffic reductions can — the ALTO argument).

Three attribution sources, least to most exact:

* ``node_rebuild`` spans joined to the strategy's per-node model terms
  (:func:`repro.model.cost.node_cost_terms`) — the memoized tree
  engines, thread tier;
* worker-interior ``kernel`` spans from the process tier
  (``backend="process-<layout>"`` with per-shard ``mode``/``nnz``
  attrs) priced by :func:`repro.model.cost.coo_mode_work` — covers both
  the raw COO and ALTO layouts;
* the cost-attribution recorder's *measured* per-mode flop/word
  counters (``repro-attr/v1``), which need no model join at all.

Everything degrades gracefully: with no ``repro-machine/v1`` artifact
the report still lists achieved GB/s, marked ``uncalibrated`` instead
of a roofline fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.dtypes import VALUE_ITEMSIZE

__all__ = [
    "ROOFLINE_SCHEMA", "ConfigThroughput", "RooflineReport",
    "tree_node_terms", "throughput_from_spans",
    "throughput_from_attribution", "roofline_report",
    "report_from_trace_dir", "publish_roofline_gauges", "report_line",
]

#: payload schema tag for roofline-report artifacts (bump on change).
ROOFLINE_SCHEMA = "repro-roofline/v1"


@dataclass
class ConfigThroughput:
    """Achieved throughput of one kernel configuration.

    ``bytes_moved`` is the *model's* traffic term for the spans' work
    (measured counters where the attribution recorder ran), so ``gbs``
    is achieved effective bandwidth: model bytes over measured seconds.
    Fractions are ``None`` until a calibrated roofline scales them.
    """

    config: str
    spans: int
    seconds: float
    flops: float
    bytes_moved: float
    source: str
    bandwidth_fraction: float | None = None
    compute_fraction: float | None = None

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0

    @property
    def gbs(self) -> float:
        return (self.bytes_moved / self.seconds / 1e9
                if self.seconds > 0 else 0.0)

    @property
    def bound(self) -> str:
        """Which roofline this config sits closer to."""
        if self.bandwidth_fraction is None or self.compute_fraction is None:
            return "unknown"
        return ("memory" if self.bandwidth_fraction >= self.compute_fraction
                else "compute")

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "spans": self.spans,
            "seconds": self.seconds,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "gflops": self.gflops,
            "gbs": self.gbs,
            "bandwidth_fraction": self.bandwidth_fraction,
            "compute_fraction": self.compute_fraction,
            "bound": self.bound,
            "source": self.source,
        }


@dataclass
class RooflineReport:
    """Roofline ceilings + per-config achieved throughput + guidance."""

    roofline: object | None  # MachineRoofline (model layer) or None
    configs: list[ConfigThroughput] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def calibrated(self) -> bool:
        return self.roofline is not None

    def best(self) -> ConfigThroughput | None:
        """The config closest to the bandwidth roofline (or fastest GB/s)."""
        if not self.configs:
            return None
        return max(self.configs,
                   key=lambda c: (c.bandwidth_fraction
                                  if c.bandwidth_fraction is not None
                                  else c.gbs))

    def guidance(self) -> list[str]:
        """Saturation advice per config, the planner's phrasing."""
        if not self.calibrated:
            return []
        sat = self.roofline.saturation_workers
        lines = []
        for c in self.configs:
            if c.bandwidth_fraction is None:
                continue
            pct = c.bandwidth_fraction * 100.0
            if c.bound == "memory" and c.bandwidth_fraction >= 0.5:
                lines.append(
                    f"{c.config} achieves {pct:.0f}% of the bandwidth "
                    f"roofline; >{sat} workers cannot help — only traffic "
                    f"reductions can"
                )
            else:
                lines.append(
                    f"{c.config} achieves {pct:.0f}% of the bandwidth "
                    f"roofline ({c.compute_fraction * 100.0:.0f}% of "
                    f"compute) — headroom remains below the "
                    f"{sat}-worker saturation point"
                )
        return lines

    def to_dict(self) -> dict:
        """JSON-ready ``repro-roofline/v1`` payload."""
        return {
            "schema": ROOFLINE_SCHEMA,
            "calibrated": self.calibrated,
            "machine": (self.roofline.to_dict()
                        if self.calibrated else None),
            "configs": [c.to_dict() for c in self.configs],
            "guidance": self.guidance(),
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        from ..model.report import format_table

        parts = []
        if self.calibrated:
            parts.append(self.roofline.summary())
        else:
            parts.append("roofline: uncalibrated — run 'repro roofline' to "
                         "measure this host's ceilings")
        if self.configs:
            rows = []
            for c in self.configs:
                rows.append([
                    c.config, c.spans, round(c.seconds * 1e3, 3),
                    round(c.gflops, 3), round(c.gbs, 3),
                    ("-" if c.bandwidth_fraction is None
                     else f"{c.bandwidth_fraction * 100.0:.1f}%"),
                    ("-" if c.compute_fraction is None
                     else f"{c.compute_fraction * 100.0:.1f}%"),
                    c.bound, c.source,
                ])
            parts.append(format_table(
                ["config", "spans", "ms", "GFLOP/s", "GB/s", "% bw roof",
                 "% comp roof", "bound", "source"],
                rows, title="achieved throughput per kernel config",
            ))
        for line in self.guidance():
            parts.append(f"  -> {line}")
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n\n".join(parts)


def tree_node_terms(strategy, node_nnz, rank: int) -> dict[int, dict]:
    """Per-node model terms shaped for the span join.

    Scatter words are excluded: ``node_rebuild`` spans cover the
    contraction only (the leaf scatter happens inside the enclosing
    ``mttkrp`` span), and the join must price exactly the work the span
    timed.
    """
    from ..model.cost import node_cost_terms

    return {
        t.node_id: {"flops": float(t.flops),
                    "words": float(t.words - t.scatter_words)}
        for t in node_cost_terms(strategy, node_nnz, rank)
    }


def throughput_from_spans(
    spans,
    *,
    shape=None,
    rank: int | None = None,
    node_terms: dict[int, dict] | None = None,
    params=None,
) -> list[ConfigThroughput]:
    """Join finished span seconds with model flop/byte terms.

    ``node_terms`` (from :func:`tree_node_terms`) enables the tree-engine
    join; ``shape``+``rank`` enable the process-tier per-shard join.
    Spans whose join inputs are missing are skipped, never guessed.
    """
    from ..model.cost import DEFAULT_EXECUTION, coo_mode_work

    params = params or DEFAULT_EXECUTION
    acc: dict[str, ConfigThroughput] = {}

    def bump(config: str, seconds: float, flops: float, words: float,
             source: str) -> None:
        row = acc.get(config)
        if row is None:
            row = acc[config] = ConfigThroughput(
                config=config, spans=0, seconds=0.0, flops=0.0,
                bytes_moved=0.0, source=source,
            )
        row.spans += 1
        row.seconds += seconds
        row.flops += flops
        row.bytes_moved += words * VALUE_ITEMSIZE

    for rec in spans:
        if rec.t1 is None:
            continue
        if (rec.kind == "node_rebuild" and node_terms is not None
                and "node" in rec.attrs):
            term = node_terms.get(int(rec.attrs["node"]))
            if term is None or term["flops"] <= 0:
                continue  # the root: materialized, never rebuilt
            bump("thread/tree", rec.duration, term["flops"], term["words"],
                 "spans+model")
        elif (rec.kind == "kernel" and shape is not None
                and rank is not None and "mode" in rec.attrs
                and "nnz" in rec.attrs):
            backend = str(rec.attrs.get("backend", ""))
            if backend.startswith("process-"):
                # worker-interior shard spans: nnz is the shard's share,
                # the output term full-size (each shard owns a partial)
                layout = backend.split("-", 1)[1]
                config = f"process/{layout}"
            elif backend in ("alto-coo", "parallel-coo"):
                # thread-tier COO backends: one span per whole-mode MTTKRP
                layout = "alto" if backend == "alto-coo" else "numpy"
                config = f"thread/{backend}"
            else:
                continue
            flops, words = coo_mode_work(
                shape, int(rec.attrs["nnz"]), rank,
                int(rec.attrs["mode"]), layout, params,
            )
            bump(config, rec.duration, flops, words, "spans+model")
    return sorted(acc.values(), key=lambda c: c.config)


def throughput_from_attribution(doc: dict) -> ConfigThroughput | None:
    """Achieved throughput from the recorder's measured per-mode counters.

    No model join: the ``repro-attr/v1`` mode rows carry *measured*
    flops/words next to measured seconds — the most exact source, but
    only the tree engines feed the recorder.
    """
    if not isinstance(doc, dict):
        return None
    modes = doc.get("modes") or []
    seconds = sum(float(m.get("seconds", 0.0)) for m in modes)
    flops = sum(float(m.get("measured_flops", 0)) for m in modes)
    words = sum(float(m.get("measured_words", 0)) for m in modes)
    if seconds <= 0 or (flops <= 0 and words <= 0):
        return None
    label = doc.get("strategy") or "tree"
    return ConfigThroughput(
        config=f"attr/{label}", spans=len(modes), seconds=seconds,
        flops=flops, bytes_moved=words * VALUE_ITEMSIZE,
        source="attribution",
    )


def roofline_report(
    configs,
    roofline=None,
    *,
    load: bool = True,
    notes=(),
) -> RooflineReport:
    """Scale achieved throughput against the calibrated ceilings.

    ``roofline=None`` with ``load=True`` loads the host artifact
    (:func:`repro.model.calibrate.load_roofline` — never measures); a
    missing artifact produces an explicitly uncalibrated report.
    """
    notes = list(notes)
    if roofline is None and load:
        from ..model.calibrate import load_roofline

        roofline = load_roofline()
    if roofline is None:
        notes.append("uncalibrated: no repro-machine/v1 artifact "
                     "(run 'repro roofline')")
    configs = list(configs)
    if roofline is not None:
        for c in configs:
            c.bandwidth_fraction = c.gbs / roofline.peak_bandwidth_gbs
            c.compute_fraction = c.gflops / roofline.peak_gflops
    return RooflineReport(roofline=roofline, configs=configs, notes=notes)


def report_from_trace_dir(trace_dir: str, roofline=None,
                          *, load: bool = True, arts=None) -> RooflineReport:
    """Post-hoc roofline attribution over a saved ``repro trace`` dir.

    Process-tier spans are priced from the ``run_start`` event's
    shape/rank; the attribution artifact (when the recorder ran)
    contributes its measured-counter config.  Old trace dirs missing
    either input simply yield fewer configs — with none at all the
    report still renders the (possibly uncalibrated) ceilings.  ``arts``
    reuses an open :class:`~repro.obs.artifacts.TraceArtifacts` view.
    """
    from .artifacts import TraceArtifacts

    arts = arts or TraceArtifacts(trace_dir)
    notes = []
    if roofline is None:
        # Prefer the calibration the traced run itself snapshotted — a
        # trace copied off another host keeps that host's ceilings.
        from ..model.calibrate import load_roofline

        roofline = load_roofline(arts.path("machine"))
    spans = arts.load("spans")
    if spans is None:
        spans = []
        notes.append(f"no trace.jsonl under {trace_dir}")
    start = next((e for e in arts.load("events") or []
                  if e.get("kind") == "run_start"), {})
    shape = tuple(start.get("shape") or ()) or None
    if shape is None:
        notes.append("no run_start event: process-tier spans not priced")
    configs = throughput_from_spans(spans, shape=shape,
                                    rank=start.get("rank"))
    doc = arts.load("attribution")
    attributed = throughput_from_attribution(doc) if doc else None
    if attributed is not None:
        configs.append(attributed)
    return roofline_report(configs, roofline, load=load, notes=notes)


def publish_roofline_gauges(roofline, configs=()) -> None:
    """Expose ceilings and achieved fractions on ``/metrics``.

    Gauge names are stable OpenMetrics families after the registry's
    dot-to-underscore mapping: ``repro_roofline_peak_bandwidth_gbs``,
    ``repro_roofline_fraction_<config>``, ...
    """
    from .metrics import registry

    if roofline is not None:
        registry.set_gauge("roofline.peak_bandwidth_gbs",
                           roofline.peak_bandwidth_gbs)
        registry.set_gauge("roofline.peak_gather_gbs",
                           roofline.peak_gather_gbs)
        registry.set_gauge("roofline.peak_gflops", roofline.peak_gflops)
        registry.set_gauge("roofline.saturation_workers",
                           float(roofline.saturation_workers))
        for point in roofline.bandwidth_points:
            registry.set_gauge(f"roofline.triad_gbs.t{point.threads}",
                               point.triad_gbs)
    for c in configs:
        key = c.config.replace("/", ".").replace("-", "_")
        registry.set_gauge(f"roofline.achieved_gbs.{key}", c.gbs)
        if c.bandwidth_fraction is not None:
            registry.set_gauge(f"roofline.fraction.{key}",
                               c.bandwidth_fraction)


def report_line(report: RooflineReport) -> str:
    """The one-line summary ``repro report`` prints."""
    if not report.calibrated:
        return "roofline: uncalibrated (run 'repro roofline')"
    best = report.best()
    if best is None:
        return (f"roofline: calibrated "
                f"({report.roofline.peak_bandwidth_gbs:.2f} GB/s, "
                f"{report.roofline.peak_gflops:.2f} GFLOP/s) — no "
                f"attributable kernel spans in this trace")
    return (f"roofline: best {best.config} at {best.gbs:.2f} GB/s = "
            f"{best.bandwidth_fraction * 100.0:.0f}% of the "
            f"{report.roofline.peak_bandwidth_gbs:.2f} GB/s ceiling "
            f"({best.gflops:.2f} GFLOP/s, {best.bound}-bound)")


# ---------------------------------------------------------------------------
# the machine.json artifact
# ---------------------------------------------------------------------------

def write_artifact(trace_dir: str, session):
    """``repro trace``: snapshot the host calibration (load-only, never
    measures) so the trace dir is self-contained for later attribution."""
    from ..model.calibrate import load_roofline, machine_artifact
    from .artifacts import dump_json

    roofline = load_roofline()
    if roofline is None:
        return None
    return [dump_json(trace_dir, "machine.json",
                      machine_artifact(roofline))], None


def report_section(arts, args) -> str:
    """``repro report``: the one-line achieved-throughput summary; trace
    dirs recorded before calibration existed report "uncalibrated"."""
    return "\n" + report_line(report_from_trace_dir(arts.trace_dir,
                                                     arts=arts))


def replay(doc, arts) -> dict | None:
    """``repro serve``: the recorded ceilings plus the achieved fractions
    recomputed from the replayed spans, as ``roofline.*`` gauges."""
    report = report_from_trace_dir(arts.trace_dir, load=False, arts=arts)
    if not report.calibrated:
        return None
    publish_roofline_gauges(report.roofline, report.configs)
    return {"gauges": 4 + len(report.roofline.bandwidth_points)}
