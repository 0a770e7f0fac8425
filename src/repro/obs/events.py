"""Structured run-event log: JSON-lines telemetry for *live* observation.

The tracer answers "where did the time go" after a run exits; this module
answers "what is the run doing *right now*".  Instrumented call sites
(:func:`repro.core.cpals.cp_als`, the engines' node rebuilds, the drift
watchdog) emit small structured events — run start/stop, one ``iteration``
event per ALS iteration carrying fit/delta/drift/memory readings, node
rebuilds, warnings — into a process-global :class:`EventLog`:

* a bounded **ring buffer** (the last ``maxlen`` events, cheap to snapshot)
  that feeds the ``/runz`` endpoint of :mod:`repro.obs.serve` and
  ``repro tail``;
* an optional **file sink**: one JSON object per line (schema
  ``repro-events/v1``), append-only and flushed per event so
  ``repro tail --follow <events.jsonl>`` and log shippers see events as
  they happen, not at exit.

Events are off by default (:data:`SWITCH`: ``REPRO_EVENTS=1`` for the
ring buffer, ``REPRO_EVENTS=/path/events.jsonl`` to add that sink).

The log also folds ``run_start`` / ``iteration`` / ``run_stop`` events
into a :class:`RunState` — current iteration, fit, trailing per-iteration
rate and the ETA derived from it — which is what ``/runz`` serves.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from contextlib import contextmanager

from .switch import RunPlugin, Switch, current_run, env_value

__all__ = [
    "EVENTS_SCHEMA", "EVENT_KINDS", "EventLog", "RunState",
    "enabled", "enable", "disable", "emit", "get_log", "logging_events",
    "read_events", "validate_events", "format_event",
]

#: schema tag stamped on every event line (bump on layout change).
EVENTS_SCHEMA = "repro-events/v1"

#: event kinds the instrumented stack emits, with their required fields
#: (beyond the envelope ``schema``/``seq``/``t``/``kind``).
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "run_start": ("shape", "nnz", "rank", "strategy", "n_iter_max"),
    "iteration": ("iteration", "fit", "seconds"),
    "run_stop": ("n_iterations", "converged", "fit", "total_seconds"),
    "node_rebuild": ("node", "nnz", "seconds"),
    "warning": ("message",),
}


class RunState:
    """Live view of the most recent CP-ALS run, folded from events.

    ``eta_seconds`` extrapolates from the trailing per-iteration rate
    (mean of the last few ``iteration`` events) to the iteration cap —
    an upper bound, since convergence may stop the run earlier.
    """

    _TRAILING = 8

    def __init__(self):
        self.lock = threading.Lock()
        self._reset_locked()

    def reset(self) -> None:
        with self.lock:
            self._reset_locked()

    def observe(self, event: dict) -> None:
        kind = event.get("kind")
        with self.lock:
            if kind == "run_start":
                self._reset_locked()
                self.active = True
                self.started_at = event.get("t")
                self.shape = event.get("shape")
                self.nnz = event.get("nnz")
                self.rank = event.get("rank")
                self.strategy = event.get("strategy")
                self.n_iter_max = event.get("n_iter_max")
            elif kind == "iteration":
                self.iteration = event.get("iteration")
                self.fit = event.get("fit")
                self.delta = event.get("delta")
                seconds = event.get("seconds")
                if isinstance(seconds, (int, float)):
                    self._iter_seconds.append(float(seconds))
            elif kind == "run_stop":
                self.active = False
                self.finished_at = event.get("t")
                self.converged = event.get("converged")
                self.fit = event.get("fit", self.fit)

    def _reset_locked(self) -> None:
        """Reset run fields without re-taking the (held) lock."""
        self.active = False
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.shape: list[int] | None = None
        self.nnz: int | None = None
        self.rank: int | None = None
        self.strategy: str | None = None
        self.n_iter_max: int | None = None
        self.iteration: int | None = None
        self.fit: float | None = None
        self.delta: float | None = None
        self.converged: bool | None = None
        self._iter_seconds: collections.deque[float] = collections.deque(
            maxlen=self._TRAILING
        )

    def rate_seconds_per_iteration(self) -> float | None:
        """Trailing mean seconds per ALS iteration (None before the first)."""
        with self.lock:
            if not self._iter_seconds:
                return None
            return sum(self._iter_seconds) / len(self._iter_seconds)

    def eta_seconds(self) -> float | None:
        """Projected seconds to the iteration cap (None when unknown/done)."""
        rate = self.rate_seconds_per_iteration()
        with self.lock:
            if (not self.active or rate is None
                    or self.n_iter_max is None or self.iteration is None):
                return None
            remaining = self.n_iter_max - self.iteration - 1
            return max(remaining, 0) * rate

    def to_dict(self) -> dict:
        rate = self.rate_seconds_per_iteration()
        eta = self.eta_seconds()
        with self.lock:
            return {
                "active": self.active,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "shape": self.shape,
                "nnz": self.nnz,
                "rank": self.rank,
                "strategy": self.strategy,
                "n_iter_max": self.n_iter_max,
                "iteration": self.iteration,
                "fit": self.fit,
                "delta": self.delta,
                "converged": self.converged,
                "seconds_per_iteration": rate,
                "eta_seconds": eta,
            }


class EventLog:
    """Ring buffer + optional JSONL file sink for structured events.

    Thread-safe: engines emit from pool workers while the HTTP exporter
    snapshots concurrently.  The sink is flushed per event (events are
    rare — per iteration / per rebuild — so the syscall cost is noise
    next to the numeric work they describe).
    """

    def __init__(self, maxlen: int = 4096, sink_path: str | None = None):
        self._lock = threading.Lock()
        self._ring: collections.deque[dict] = collections.deque(maxlen=maxlen)
        self._seq = 0
        self._sink = None
        self._sink_path: str | None = None
        self.n_dropped = 0
        self.run = RunState()
        if sink_path:
            self.open_sink(sink_path)

    # -- sink management -----------------------------------------------
    def open_sink(self, path: str) -> None:
        """Append events to ``path`` (JSONL) from now on."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._sink = open(path, "a")
            self._sink_path = path

    def close_sink(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None
                self._sink_path = None

    @property
    def sink_path(self) -> str | None:
        return self._sink_path

    # -- emit / read ---------------------------------------------------
    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the stamped event dict."""
        event = {"schema": EVENTS_SCHEMA, "kind": kind, "t": time.time()}
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._ring) == self._ring.maxlen:
                self.n_dropped += 1
            self._ring.append(event)
            if self._sink is not None:
                self._sink.write(json.dumps(event) + "\n")
                self._sink.flush()
            # Fold into the run state while still holding the log lock, so
            # the RunState sees events in exactly the seq order the ring
            # recorded them.  (Folding outside the lock let two concurrent
            # emitters race run_start past a later iteration event.)
            # RunState.lock nests inside EventLog._lock, never the reverse.
            self.run.observe(event)
        return event

    def tail(self, n: int | None = None) -> list[dict]:
        """The last ``n`` events (all buffered events when ``n`` is None)."""
        with self._lock:
            events = list(self._ring)
        return events if n is None else events[-n:]

    def write_jsonl(self, path: str) -> int:
        """Dump the buffered events to ``path``; returns the count written.

        Complements the live sink: ``repro trace`` uses this to leave an
        ``events.jsonl`` artifact even when no sink was configured.
        """
        events = self.tail()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        return len(events)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self.n_dropped = 0
        self.run.reset()

    def replay(self, events) -> int:
        """Feed previously recorded events back into ring + run state.

        Used by ``repro serve`` (artifact mode) to reconstruct ``/runz``
        from an ``events.jsonl`` written by an earlier process.  Events
        keep their original stamps; the sink is not re-written.
        """
        n = 0
        for event in events:
            with self._lock:
                self._ring.append(event)
                self._seq = max(self._seq, int(event.get("seq", 0)))
                self.run.observe(event)
            n += 1
        return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


_on, _sink_path = env_value("REPRO_EVENTS")
_log = EventLog(sink_path=_sink_path)
#: the event log's switch: ``REPRO_EVENTS=1`` turns on the ring buffer,
#: ``REPRO_EVENTS=<path>`` also opens that file as the sink.
SWITCH = Switch("events", _log, pin="events_enabled", slot="events",
                on=_on, clear=_log.clear)
del _on, _sink_path
enabled, disable, get_log = SWITCH.enabled, SWITCH.disable, SWITCH.get


def enable(*, clear: bool = False, sink_path: str | None = None) -> None:
    """Turn event logging on; optionally reset state / open a file sink."""
    if sink_path is not None:
        _log.open_sink(sink_path)
    SWITCH.enable(clear=clear)


def emit(kind: str, **fields) -> dict | None:
    """Emit an event if logging is enabled (None otherwise).

    When a run context is active the event lands in *its* log and is
    stamped with the context's ``run_id``, so interleaved runs stay
    separable in a shared sink and on ``/runz``.
    """
    if not SWITCH.enabled():
        return None
    ctx = current_run()
    if ctx is not None and ctx.run_id is not None:
        fields.setdefault("run_id", ctx.run_id)
    return SWITCH.get().emit(kind, **fields)


@contextmanager
def logging_events(*, clear: bool = True, sink_path: str | None = None):
    """Enable events for a block (with an optional file sink), restoring
    the prior state after; yields the global log."""
    if sink_path is not None:
        _log.open_sink(sink_path)
    try:
        with SWITCH.block(clear=clear) as log:
            yield log
    finally:
        if sink_path is not None:
            _log.close_sink()


class EventsPlugin(RunPlugin):
    """Streams a run as ``run_start`` / ``iteration`` / ``run_stop``
    events; the iteration event carries every plug-in's fields, so the
    run observer calls this plug-in last."""

    name = "events"
    tracks_site = True

    @classmethod
    def attach(cls, run):
        return cls() if SWITCH.enabled() else None

    def start(self, run) -> None:
        emit("run_start", shape=list(run.tensor.shape), nnz=run.tensor.nnz,
             rank=run.rank, strategy=run.strategy_name,
             n_iter_max=run.n_iter_max, tol=run.tol)

    def end(self, it):
        emit("iteration", **it.fields)

    def stop(self, **summary) -> None:
        emit("run_stop", **summary)


# ---------------------------------------------------------------------------
# file I/O + validation
# ---------------------------------------------------------------------------

def read_events(path: str) -> list[dict]:
    """Parse an ``events.jsonl`` file back into event dicts."""
    events: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def validate_events(events) -> list[str]:
    """Schema errors (empty = valid) for a sequence of event dicts.

    Checks the ``repro-events/v1`` envelope (schema tag, monotonically
    increasing ``seq``, numeric ``t``, known-or-namespaced ``kind``) and
    the per-kind required fields of :data:`EVENT_KINDS`.
    """
    errors: list[str] = []
    last_seq = 0
    for i, event in enumerate(events):
        where = f"events[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        if event.get("schema") != EVENTS_SCHEMA:
            errors.append(f"{where}: schema must be {EVENTS_SCHEMA!r}, "
                          f"got {event.get('schema')!r}")
        kind = event.get("kind")
        if not isinstance(kind, str) or not kind:
            errors.append(f"{where}: missing kind")
            continue
        if not isinstance(event.get("t"), (int, float)):
            errors.append(f"{where}: t must be a number")
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= 0:
            errors.append(f"{where}: seq must be a positive integer")
        elif seq <= last_seq:
            errors.append(f"{where}: seq {seq} not increasing "
                          f"(previous {last_seq})")
        else:
            last_seq = seq
        required = EVENT_KINDS.get(kind)
        if required is not None:
            for field in required:
                if field not in event:
                    errors.append(f"{where}: {kind!r} event missing "
                                  f"{field!r}")
    return errors


def format_event(event: dict) -> str:
    """One-line human rendering for ``repro tail``."""
    kind = event.get("kind", "?")
    t = event.get("t")
    stamp = (time.strftime("%H:%M:%S", time.localtime(t))
             if isinstance(t, (int, float)) else "--:--:--")
    skip = {"schema", "kind", "t", "seq"}
    parts = []
    for key, value in event.items():
        if key in skip or value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return f"{stamp} {kind:<13s} {' '.join(parts)}"


def write_artifact(trace_dir: str, session):
    """``repro trace``: the buffered events as ``events.jsonl``."""
    path = os.path.join(trace_dir, "events.jsonl")
    get_log().write_jsonl(path)
    return [path], None


def report_section(arts, args) -> str | None:
    """``repro report``: the last five events."""
    events = arts.load("events")
    if events is None:
        return None
    return (f"\n{len(events)} events from {arts.path('events')} (last 5):"
            + "".join("\n  " + format_event(e) for e in events[-5:]))


def replay(events, arts) -> dict:
    """``repro serve``: feed the events back into the log (``/runz``)."""
    return {"events": get_log().replay(events)}
