"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, and a text tree.

The Chrome format loads directly in ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): each span becomes one complete (``"ph": "X"``)
event with microsecond timestamps, and per-thread metadata events name the
engine thread and pool workers.  :func:`validate_chrome_trace` checks a
document against the exporter's own schema — the CI trace job and the
round-trip tests both use it, so a malformed export fails loudly rather
than silently producing a trace the viewer rejects.

JSONL (:func:`write_jsonl` / :func:`read_jsonl`) is the lossless format:
one span per line, exactly :meth:`SpanRecord.to_dict`, suitable for
``repro report`` and offline analysis.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from .trace import SpanRecord, Tracer, get_tracer

__all__ = [
    "to_chrome_trace", "write_chrome_trace", "write_jsonl", "read_jsonl",
    "tree_summary", "kind_table", "validate_chrome_trace",
    "validate_span_tree",
]

#: schema tag stamped into exported Chrome traces (bump on layout change).
CHROME_SCHEMA = "repro-trace/v1"


def _span_name(rec: SpanRecord) -> str:
    """Display name: the kind plus its most distinguishing attribute."""
    for key in ("mode", "node", "iteration", "index"):
        if key in rec.attrs:
            return f"{rec.kind}[{key}={rec.attrs[key]}]"
    return rec.kind


def to_chrome_trace(
    spans: Sequence[SpanRecord] | None = None,
    tracer: Tracer | None = None,
    mem_samples: Sequence | None = None,
) -> dict:
    """Spans as a Chrome ``trace_event`` JSON object (dict, not string).

    ``mem_samples`` (e.g. ``repro.obs.memory.get_tracker().samples``) adds
    a counter track (``"ph": "C"``) of total live memoized-value bytes, so
    the memory profile renders as a graph under the span timeline in
    ``chrome://tracing`` / Perfetto.
    """
    tracer = tracer or get_tracer()
    if spans is None:
        spans = tracer.finished()
    pid = os.getpid()
    # Small stable per-thread display ids: engine thread first-seen = 1.
    tid_map: dict[int, int] = {}
    events: list[dict] = []
    for rec in spans:
        tid = tid_map.setdefault(rec.tid, len(tid_map) + 1)
        events.append({
            "name": _span_name(rec),
            "cat": rec.kind,
            "ph": "X",
            "ts": rec.t0 * 1e6,
            "dur": rec.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"kind": rec.kind, "id": rec.id,
                     "parent": rec.parent, **rec.attrs},
        })
    for os_tid, tid in tid_map.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": tid,
            "args": {"name": "engine" if tid == 1 else f"worker-{tid - 1}"},
        })
    for sample in mem_samples or ():
        events.append({
            "name": "memoized_value_bytes",
            "ph": "C",
            "ts": sample.t * 1e6,
            "pid": pid,
            "tid": 0,
            "args": {"live_bytes": sample.live_bytes},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": CHROME_SCHEMA,
            "wall_epoch": tracer.wall_epoch,
            "span_count": len(spans),
        },
    }


def write_chrome_trace(path: str, spans: Sequence[SpanRecord] | None = None,
                       tracer: Tracer | None = None,
                       mem_samples: Sequence | None = None) -> dict:
    """Write the Chrome trace JSON to ``path``; returns the document."""
    doc = to_chrome_trace(spans, tracer, mem_samples)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: object) -> list[str]:
    """Errors (empty = valid) for a Chrome trace produced by this exporter.

    Checks the structural contract the viewers rely on — required keys,
    event phases, non-negative microsecond times — plus this exporter's own
    invariants (schema tag, ``args.kind`` on every span event).
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents must be a list")
        events = []
    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != CHROME_SCHEMA:
        errors.append(f"otherData.schema must be {CHROME_SCHEMA!r}")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                errors.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: counter event needs args")
        for key in ("ts", "dur"):
            if key in ev and (
                not isinstance(ev[key], (int, float)) or ev[key] < 0
            ):
                errors.append(f"{where}: {key} must be a number >= 0")
        if ph == "X":
            if "dur" not in ev:
                errors.append(f"{where}: complete event missing 'dur'")
            args = ev.get("args")
            if not isinstance(args, dict) or "kind" not in args:
                errors.append(f"{where}: span event needs args.kind")
    return errors


def validate_span_tree(spans: Sequence[SpanRecord] | None = None, *,
                       epsilon: float = 1e-3) -> list[str]:
    """Structural errors (empty = valid) for a batch of span records.

    The self-check the merged (cross-process) trace must pass: unique span
    ids, parent links that resolve within the batch, ``t0 <= t1`` on every
    closed span, and children contained in their parent's window.  The
    containment check allows ``epsilon`` seconds of slack — worker spans
    are aligned onto the parent clock through two wall-clock epochs, so
    sub-millisecond skew between ``time.time`` and ``perf_counter`` deltas
    is expected; structural breakage (a child outside its parent by more
    than the skew budget) is not.
    """
    if spans is None:
        spans = get_tracer().finished()
    errors: list[str] = []
    by_id: dict[int, SpanRecord] = {}
    for rec in spans:
        if rec.id in by_id:
            errors.append(f"span id {rec.id} duplicated")
        by_id[rec.id] = rec
    for rec in spans:
        where = f"span {rec.id} ({rec.kind})"
        if rec.t1 is not None and rec.t1 < rec.t0:
            errors.append(f"{where}: t1 {rec.t1} < t0 {rec.t0}")
        if rec.parent is None:
            continue
        parent = by_id.get(rec.parent)
        if parent is None:
            errors.append(f"{where}: parent {rec.parent} not in batch")
            continue
        if parent.t0 - rec.t0 > epsilon:
            errors.append(
                f"{where}: starts {parent.t0 - rec.t0:.6f}s before "
                f"parent {parent.id} ({parent.kind})"
            )
        if (rec.t1 is not None and parent.t1 is not None
                and rec.t1 - parent.t1 > epsilon):
            errors.append(
                f"{where}: ends {rec.t1 - parent.t1:.6f}s after "
                f"parent {parent.id} ({parent.kind})"
            )
    return errors


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def write_jsonl(path: str, spans: Sequence[SpanRecord] | None = None) -> int:
    """One span per line (lossless); returns the number written."""
    if spans is None:
        spans = get_tracer().finished()
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec.to_dict()) + "\n")
    return len(spans)


def read_jsonl(path: str) -> list[SpanRecord]:
    """Parse a JSONL trace back into :class:`SpanRecord` objects."""
    spans: list[SpanRecord] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(SpanRecord.from_dict(json.loads(line)))
    return spans


# ---------------------------------------------------------------------------
# human-readable summaries
# ---------------------------------------------------------------------------

def tree_summary(spans: Iterable[SpanRecord] | None = None, *,
                 max_children: int = 12) -> str:
    """Indented span tree with durations, roots in start order.

    Sibling lists longer than ``max_children`` are elided in the middle —
    a 50-iteration ALS run stays readable while first/last iterations (the
    usual outliers: cold caches, convergence) remain visible.
    """
    if spans is None:
        spans = get_tracer().finished()
    spans = sorted(spans, key=lambda r: r.t0)
    by_parent: dict[int | None, list[SpanRecord]] = {}
    ids = {rec.id for rec in spans}
    for rec in spans:
        parent = rec.parent if rec.parent in ids else None
        by_parent.setdefault(parent, []).append(rec)

    lines: list[str] = []

    def walk(rec: SpanRecord, depth: int) -> None:
        attrs = " ".join(
            f"{k}={v}" for k, v in rec.attrs.items() if k != "kind"
        )
        lines.append(
            f"{'  ' * depth}{rec.kind:<14s} {rec.duration * 1e3:9.3f} ms"
            + (f"  {attrs}" if attrs else "")
        )
        children = by_parent.get(rec.id, [])
        if len(children) > max_children:
            head = children[: max_children // 2]
            tail = children[-(max_children - len(head)):]
            for child in head:
                walk(child, depth + 1)
            lines.append(
                f"{'  ' * (depth + 1)}... {len(children) - len(head) - len(tail)} "
                "more siblings elided ..."
            )
            children = tail
        else:
            head = []
        for child in children:
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def kind_table(spans: Iterable[SpanRecord] | None = None) -> str:
    """Per-kind aggregate table: count, total, mean, min, max."""
    if spans is None:
        spans = get_tracer().finished()
    agg: dict[str, list[float]] = {}
    for rec in spans:
        agg.setdefault(rec.kind, []).append(rec.duration)
    lines = [
        f"{'kind':<16s} {'count':>7s} {'total ms':>10s} {'mean ms':>9s} "
        f"{'min ms':>9s} {'max ms':>9s}"
    ]
    for kind in sorted(agg, key=lambda k: -sum(agg[k])):
        durs = agg[kind]
        lines.append(
            f"{kind:<16s} {len(durs):>7d} {sum(durs) * 1e3:>10.2f} "
            f"{sum(durs) / len(durs) * 1e3:>9.3f} {min(durs) * 1e3:>9.3f} "
            f"{max(durs) * 1e3:>9.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the span artifact (trace.jsonl + trace.chrome.json + trace_summary.txt)
# ---------------------------------------------------------------------------

def write_artifact(trace_dir: str, session):
    """``repro trace``: the span log, its Chrome rendering and summary."""
    from .memory import get_tracker

    spans = get_tracer().finished()
    chrome = os.path.join(trace_dir, "trace.chrome.json")
    jsonl = os.path.join(trace_dir, "trace.jsonl")
    summary = os.path.join(trace_dir, "trace_summary.txt")
    write_chrome_trace(chrome, spans, mem_samples=get_tracker().samples)
    write_jsonl(jsonl, spans)
    table = kind_table(spans)
    with open(summary, "w") as fh:
        fh.write(tree_summary(spans) + "\n\n" + table + "\n")
    note = (f"\n-- traced {len(spans)} spans in {session.elapsed:.2f}s "
            f"({session.run_id})\n{table}")
    return [f"{chrome} (open in chrome://tracing or "
            "https://ui.perfetto.dev)", jsonl, summary], note


def report_section(arts, args) -> str | None:
    """``repro report``: span kinds, the span tree and pool utilization."""
    from .utilization import format_utilization, utilization_from_spans

    spans = arts.load("spans")
    if spans is None:
        return None
    text = (f"{len(spans)} spans from {arts.path('spans')}\n\n"
            f"{kind_table(spans)}\n\n"
            f"{tree_summary(spans, max_children=args.max_children)}")
    util = utilization_from_spans(spans)
    if util is not None:
        text += "\n\n" + format_utilization(util)
    return text


def replay(spans, arts) -> dict:
    """``repro serve``: span histograms plus the pool utilization gauges."""
    from .metrics import registry
    from .utilization import utilization_from_spans

    for rec in spans:
        if rec.t1 is not None:
            registry.observe_span(rec.kind, rec.duration)
    util = utilization_from_spans(spans)
    if util is not None:
        registry.set_gauge("pool.imbalance", util.mean_imbalance)
        registry.set_gauge("pool.busy_seconds", util.busy_seconds)
        registry.set_gauge("pool.n_workers", len(util.workers))
    return {"spans": len(spans)}
