"""Sampling wall-clock stack profiler, joined to the span tracer.

The span tree (PR 2) says which *phase* spent each microsecond; the cost
attribution (PR 5) says which *tree node*; nothing so far says which
*Python frames* inside a span actually burn the time.  This module adds
the standard missing piece of a production telemetry stack: a background
sampler thread polls :func:`sys._current_frames` at a configurable rate
and folds every captured stack into ``(lane, span path, frame stack)``
buckets, where the span path comes from the tracer's live per-thread span
stack (a :func:`repro.obs.trace.set_span_observer` hook fed by the same
contextvar machinery spans already use).  Every sample is therefore
attributed to the run, the innermost open span, and the code — enough to
render a flamegraph per span kind.

The profiler is off by default (:data:`SWITCH`: ``REPRO_PROFILE``, or
``repro profile <cmd>``); when off, the only cost is one ``None`` check
per span enter/exit.  ``REPRO_PROFILE_HZ`` overrides the sampling rate.

Both execution tiers are covered:

* **thread tier** — worker threads are sampled directly (one sampler
  sees every thread in the process); :class:`repro.parallel.pool.WorkerPool`
  labels its threads ``worker-<lane>`` so folded stacks carry the same
  lane ids as the ``pool_task`` spans.
* **process tier** — the parent's sampler cannot see worker processes,
  so ``ProcessPool._timed_call`` (the PR 7 capture path) runs a scoped
  sampler inside each worker: the task's
  :class:`~repro.obs.runctx.RunContext` owns a private
  :class:`ProfileStore`, the worker sampler runs for the task's duration,
  and the folded snapshot rides back with the spans.  The parent merges
  it via :meth:`ProfileStore.merge_child` under a ``pid-<pid>`` lane with
  the span paths prefixed ``pool_task`` — worker-interior stacks appear
  exactly where the merged worker spans do.

Samples carry an explicit *weight* (the sampling period in seconds), so
sampled seconds stay correct even if the rate changes mid-run; the folded
counts stay integers for flamegraph.pl / speedscope interop.  Persist
with :func:`write_profile` (``profile.json``, schema ``repro-profile/v1``
with a :func:`validate_profile_artifact` self-check, plus
``profile.folded`` collapsed-stack text).

Scoped run contexts (:meth:`repro.obs.runctx.RunContext.scoped` with
``profile=True``) each own a private store: two concurrent profiled runs
fold zero samples into each other's stores, because the span observer
resolves the store *at span-enter time* from the run context that opened
the span.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
import time

from . import trace as _trace
from .switch import Switch, env_flag

__all__ = [
    "PROFILE_SCHEMA", "DEFAULT_HZ", "ProfileStore", "default_hz",
    "enabled", "enable", "disable", "profiling", "get_store", "active_hz",
    "retain_sampler", "release_sampler", "label_thread",
    "bind_thread", "unbind_thread",
    "folded_lines", "profile_artifact", "validate_profile_artifact",
    "write_profile", "hotspots", "format_hotspots",
]

PROFILE_SCHEMA = "repro-profile/v1"

#: default sampling rate (Hz).  97 is prime on purpose: a round 100 Hz
#: phase-locks with 10 ms-periodic work and over/under-samples it; a
#: prime rate decorrelates (the same reason Linux perf defaults to 99).
DEFAULT_HZ = 97

#: frames deeper than this are truncated root-side (leaf frames are the
#: interesting end of a stack for hotspot attribution).
MAX_STACK_DEPTH = 64

_log = logging.getLogger("repro.obs.profiler")


def default_hz() -> float:
    """``REPRO_PROFILE_HZ`` override (validated), else :data:`DEFAULT_HZ`."""
    raw = (os.environ.get("REPRO_PROFILE_HZ") or "").strip()
    if not raw:
        return float(DEFAULT_HZ)
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_PROFILE_HZ must be a positive number, got {raw!r}"
        ) from None
    if not value > 0:
        raise ValueError(f"REPRO_PROFILE_HZ must be > 0, got {value}")
    return value


#: stdlib modules whose leaf frame means "parked, not working": a thread
#: blocked in a lock/select/queue is spending wall time but no CPU, and
#: folding those stacks in would drown real hotspots in idle pool workers
#: and server threads.  Checked against the *leaf* frame only, so user
#: code that happens to call into these still attributes its own frames.
_IDLE_MODULES = frozenset({
    "threading", "selectors", "queue", "socket", "socketserver", "ssl",
    "time", "subprocess", "concurrent.futures.thread",
    "concurrent.futures.process", "multiprocessing.connection",
    "multiprocessing.queues", "multiprocessing.synchronize",
})


def _sanitize(name: str) -> str:
    """Folded-format-safe segment: no separators (';', ' ') or newlines."""
    return (str(name).replace(";", ",").replace(" ", "_")
            .replace("\n", "_"))


def _frame_name(frame) -> str:
    code = frame.f_code
    mod = frame.f_globals.get("__name__") or os.path.splitext(
        os.path.basename(code.co_filename))[0]
    return f"{mod}.{code.co_name}"


def _walk(frame, limit: int = MAX_STACK_DEPTH) -> tuple:
    """Leaf frame -> root-first tuple of ``module.function`` names."""
    out = []
    f = frame
    while f is not None and len(out) < limit:
        out.append(_frame_name(f))
        f = f.f_back
    out.reverse()
    return tuple(out)


def _is_idle(frame) -> bool:
    return frame.f_globals.get("__name__") in _IDLE_MODULES


class ProfileStore:
    """Thread-safe folded-sample accumulator.

    Keys are ``(lane, span path, frame stack)``; each bucket accumulates
    an integer sample count (for collapsed-stack text) and weighted
    seconds (count x sampling period at capture time, so seconds survive
    rate changes).  Per-span-kind self/total tables are maintained
    incrementally: *self* credits the innermost open span, *total* every
    distinct kind on the open-span path.
    """

    def __init__(self, hz: float | None = None):
        self.hz = float(hz) if hz else default_hz()
        self.wall_epoch = time.time()
        self._lock = threading.Lock()
        #: (lane, spans, frames) -> [count, seconds]
        self._folded: dict[tuple, list] = {}
        #: kind -> [count, seconds]
        self._span_self: dict[str, list] = {}
        self._span_total: dict[str, list] = {}
        self.n_samples = 0
        self.sampled_seconds = 0.0

    def add(self, lane: str, span_path: tuple, frames: tuple,
            weight: float, count: int = 1) -> None:
        with self._lock:
            self._add_locked(lane, span_path, frames, weight, count)

    def _add_locked(self, lane, span_path, frames, weight, count):
        slot = self._folded.setdefault(
            (lane, tuple(span_path), tuple(frames)), [0, 0.0]
        )
        slot[0] += count
        slot[1] += weight
        self.n_samples += count
        self.sampled_seconds += weight
        if span_path:
            leaf = self._span_self.setdefault(span_path[-1], [0, 0.0])
            leaf[0] += count
            leaf[1] += weight
            for kind in set(span_path):
                tot = self._span_total.setdefault(kind, [0, 0.0])
                tot[0] += count
                tot[1] += weight

    def merge_child(self, snapshot: dict, *, lane: str | None = None,
                    span_prefix: tuple = ("pool_task",)) -> int:
        """Fold a worker process's :meth:`snapshot` into this store.

        ``lane`` overrides the worker-local lane labels (pass
        ``pid-<pid>`` so each worker process gets its own lane) and
        ``span_prefix`` re-roots the worker's span paths — by default
        under ``pool_task``, mirroring how
        :func:`repro.obs.trace.merge_subprocess_spans` re-parents the
        worker's spans.  Returns the number of samples merged.
        """
        merged = 0
        with self._lock:
            for entry in snapshot.get("folded", []):
                count = int(entry.get("count", 0))
                if count < 1:
                    continue
                self._add_locked(
                    lane if lane is not None else entry.get("lane", "?"),
                    tuple(span_prefix) + tuple(entry.get("spans", ())),
                    tuple(entry.get("frames", ())),
                    float(entry.get("seconds", 0.0)),
                    count,
                )
                merged += count
        return merged

    def clear(self) -> None:
        with self._lock:
            self._folded.clear()
            self._span_self.clear()
            self._span_total.clear()
            self.n_samples = 0
            self.sampled_seconds = 0.0
            self.wall_epoch = time.time()

    def snapshot(self) -> dict:
        """JSON-friendly copy: folded entries (most samples first) plus
        the per-span-kind sample tables."""
        with self._lock:
            folded = [
                {"lane": lane, "spans": list(spans), "frames": list(frames),
                 "count": count, "seconds": seconds}
                for (lane, spans, frames), (count, seconds)
                in self._folded.items()
            ]
            span_samples = {
                kind: {
                    "self_samples": self._span_self.get(kind, [0, 0.0])[0],
                    "self_seconds": self._span_self.get(kind, [0, 0.0])[1],
                    "total_samples": total[0],
                    "total_seconds": total[1],
                }
                for kind, total in self._span_total.items()
            }
            n_samples = self.n_samples
            sampled_seconds = self.sampled_seconds
        folded.sort(key=lambda e: (-e["count"], e["lane"], e["frames"]))
        return {
            "hz": self.hz,
            "wall_epoch": self.wall_epoch,
            "n_samples": n_samples,
            "sampled_seconds": sampled_seconds,
            "folded": folded,
            "span_samples": span_samples,
        }

    def __len__(self) -> int:
        with self._lock:
            return self.n_samples


class _SpanObserver:
    """Live per-thread span stacks, maintained by trace enter/exit hooks.

    The tracer's contextvar span stack cannot be read from the sampler
    thread, so this observer mirrors it into a plain dict keyed by OS
    thread id.  The destination :class:`ProfileStore` is resolved at
    span-*enter* time from the run context that opened the span — two
    concurrent scoped runs therefore route their samples to their own
    stores with zero cross-talk, whatever thread the sampler runs on.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: tid -> list of (span id, kind, store) innermost-last
        self._stacks: dict[int, list] = {}

    def push(self, rec) -> None:
        # The run context's store (None when it pinned profiling off),
        # else the global store while enabled.
        store = SWITCH.active()
        with self._lock:
            self._stacks.setdefault(rec.tid, []).append(
                (rec.id, rec.kind, store)
            )

    def pop(self, rec) -> None:
        with self._lock:
            stack = self._stacks.get(rec.tid)
            if not stack:
                return
            if stack[-1][0] == rec.id:
                stack.pop()
            else:
                # Observer installed mid-span, or exits out of order:
                # drop by id, never by position.
                stack[:] = [e for e in stack if e[0] != rec.id]
            if not stack:
                del self._stacks[rec.tid]

    def snapshot(self) -> dict:
        """tid -> (store of the innermost span, tuple of open span kinds)."""
        with self._lock:
            return {
                tid: (stack[-1][2], tuple(kind for _, kind, _s in stack))
                for tid, stack in self._stacks.items()
                if stack
            }

    def clear(self) -> None:
        with self._lock:
            self._stacks.clear()


class _Sampler(threading.Thread):
    """Daemon thread: one :func:`sys._current_frames` sweep per period."""

    def __init__(self, hz: float):
        super().__init__(name="repro-profiler", daemon=True)
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._stop_event = threading.Event()

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=2.0)

    def run(self) -> None:
        # Weight each sweep by the *measured* period, not the nominal
        # one: after Event.wait returns the sampler still queues for the
        # GIL behind the threads it is sampling, so the effective period
        # under load runs well past 1/hz and nominal weights would
        # undercount sampled seconds by the same factor.  Capped so one
        # pathological stall cannot dump its whole gap on a single stack.
        last = time.perf_counter()
        cap = 10.0 * self.interval
        while not self._stop_event.wait(self.interval):
            now = time.perf_counter()
            weight = min(now - last, cap)
            last = now
            try:
                _sample_once(self.ident, weight)
            except Exception:  # never take the host process down
                _log.warning("sample sweep failed", exc_info=True)


def _sample_once(own_ident, weight: float) -> None:
    frames = sys._current_frames()
    spans_by_tid = _observer.snapshot()
    main_ident = threading.main_thread().ident
    thread_names = {t.ident: t.name for t in threading.enumerate()}
    for tid, frame in frames.items():
        if tid == own_ident:
            continue
        entry = spans_by_tid.get(tid)
        if entry is not None:
            store, span_path = entry
        else:
            # No open span on this thread: a thread-level binding (a
            # profiled run context activated on it) wins over the
            # module-global store.  Explicit None checks — an empty
            # ProfileStore is falsy (``__len__`` is the sample count).
            store = _bound.get(tid)
            if store is None and SWITCH.on:
                store = SWITCH.instance
            span_path = ()
        if store is None or _is_idle(frame):
            continue
        stack = _walk(frame)
        if not stack:
            continue
        lane = _labels.get(tid)
        if lane is None:
            lane = ("main" if tid == main_ident
                    else thread_names.get(tid) or f"thread-{tid}")
        store.add(lane, span_path, stack, weight)


# -- module lifecycle -------------------------------------------------------

_lock = threading.RLock()
_observer = _SpanObserver()
_sampler: _Sampler | None = None
_retain_count = 0
#: tid -> explicit lane label (worker pools register their threads here).
_labels: dict[int, str] = {}
#: tid -> store for samples taken *outside* any span on that thread
#: (installed by :func:`repro.obs.runctx.using` for profiled contexts,
#: e.g. the process-tier worker thread running a task's scoped context).
_bound: dict[int, "ProfileStore"] = {}


def _after_fork_in_child() -> None:
    """Reset profiler state inherited across ``fork``.

    A forked worker inherits a dead sampler thread, the parent's live
    span stacks (under the *same* thread ident — the child's main thread
    keeps the forking thread's id, so a stale entry would silently route
    every worker sample into a discarded copy of the parent's store),
    and possibly mid-acquire locks.  Start from a clean slate; the
    child's own ``enable()`` / scoped-context retain rebuilds what it
    needs.
    """
    global _lock, _observer, _sampler, _retain_count
    _lock = threading.RLock()
    _observer = _SpanObserver()
    _sampler = None
    _retain_count = 0
    SWITCH.instance = None
    _labels.clear()
    _bound.clear()
    _trace.set_span_observer(None)


os.register_at_fork(after_in_child=_after_fork_in_child)


def active_hz() -> float | None:
    """The running sampler's rate, or None when no sampler is alive."""
    with _lock:
        if _sampler is not None and _sampler.is_alive():
            return _sampler.hz
    return None


def bind_thread(store: ProfileStore | None) -> tuple:
    """Route this thread's *outside-any-span* samples to ``store``.

    Span-interior samples already resolve their store through the span
    observer; this covers the gaps between spans (and runs with tracing
    off entirely).  Returns a token for :func:`unbind_thread`; bindings
    nest (the token restores the previous binding).
    """
    tid = threading.get_ident()
    prev = _bound.get(tid)
    if store is None:
        _bound.pop(tid, None)
    else:
        _bound[tid] = store
    return (tid, prev)


def unbind_thread(token: tuple) -> None:
    tid, prev = token
    if prev is None:
        _bound.pop(tid, None)
    else:
        _bound[tid] = prev


def label_thread(tid: int, label: str) -> None:
    """Pin a lane label for an OS thread id (e.g. ``worker-0``).

    Cheap enough to call unconditionally from pool worker registration —
    one dict store per thread, not per task.
    """
    _labels[tid] = str(label)


def _start_locked(hz: float) -> None:
    global _sampler
    if _sampler is not None and _sampler.is_alive():
        return
    # A forked child inherits a dead sampler object; always re-arm the
    # observer hook too (idempotent either way).
    _trace.set_span_observer(_observer)
    _sampler = _Sampler(hz)
    _sampler.start()


def _stop_locked() -> None:
    global _sampler
    sampler, _sampler = _sampler, None
    _trace.set_span_observer(None)
    _observer.clear()
    if sampler is not None:
        sampler.stop()


def retain_sampler(hz: float | None = None) -> None:
    """Keep the sampler running while a scoped profiled run is active.

    Refcounted: :func:`repro.obs.runctx.using` retains on entry and
    releases on exit, so the single process-wide sampler thread runs
    exactly while someone wants samples.  An already-running sampler
    keeps its rate (stores weight samples by the true period, so seconds
    stay correct regardless).
    """
    global _retain_count
    with _lock:
        _retain_count += 1
        _start_locked(hz or default_hz())


def release_sampler() -> None:
    global _retain_count
    with _lock:
        _retain_count = max(_retain_count - 1, 0)
        if _retain_count == 0 and not SWITCH.on:
            _stop_locked()


class _ProfilerSwitch(Switch):
    """The profiler's switch: enabling also runs the sampler thread, and
    the global store is created on first enable (``None`` before)."""

    def enable(self, *, clear: bool = False, hz: float | None = None) -> None:
        """Turn sampling on; ``clear=True`` starts a fresh store, else a
        re-enable keeps accumulating into the existing one."""
        with _lock:
            if self.instance is None or clear:
                self.instance = ProfileStore(hz=hz)
            elif hz:
                self.instance.hz = float(hz)
            self.on = True
            _start_locked(hz or self.instance.hz)

    def disable(self) -> None:
        """Stop sampling (unless scoped runs still hold the sampler);
        collected samples are kept for export."""
        with _lock:
            self.on = False
            if _retain_count == 0:
                _stop_locked()


SWITCH = _ProfilerSwitch("profiler", None, pin="profile_enabled",
                         slot="profiler", on=env_flag("REPRO_PROFILE"))
enabled, disable, get_store = SWITCH.enabled, SWITCH.disable, SWITCH.get


def enable(hz: float | None = None, *, clear: bool = False) -> None:
    SWITCH.enable(clear=clear, hz=hz)


def profiling(hz: float | None = None, *, clear: bool = True):
    """Enable sampling for a block, restoring the previous state after::

        with profiler.profiling(hz=199) as store:
            engine.mttkrp(0)
        print(store.snapshot()["n_samples"])
    """
    return SWITCH.block(clear=clear, hz=hz)


# -- artifact ---------------------------------------------------------------

def folded_lines(snapshot_or_doc: dict) -> list[str]:
    """Collapsed-stack text lines (flamegraph.pl / speedscope format).

    ``lane;span:<kind>;...;module.function;... <count>`` — span-path
    segments are prefixed ``span:`` so the rendered flamegraph visually
    separates the tracer's phases from the Python frames below them.
    """
    lines = []
    for entry in snapshot_or_doc.get("folded", []):
        path = [_sanitize(entry.get("lane", "?"))]
        path.extend(f"span:{_sanitize(s)}" for s in entry.get("spans", ()))
        path.extend(_sanitize(f) for f in entry.get("frames", ()))
        lines.append(";".join(path) + f" {int(entry['count'])}")
    return lines


def profile_artifact(snapshot: dict, *, run_id: str | None = None,
                     command: str | None = None,
                     duration_seconds: float | None = None) -> dict:
    """Wrap a :meth:`ProfileStore.snapshot` as a ``repro-profile/v1`` doc."""
    spans = [
        {"kind": kind,
         "self_samples": int(row["self_samples"]),
         "self_seconds": float(row["self_seconds"]),
         "total_samples": int(row["total_samples"]),
         "total_seconds": float(row["total_seconds"])}
        for kind, row in snapshot.get("span_samples", {}).items()
    ]
    spans.sort(key=lambda r: (-r["self_seconds"], r["kind"]))
    return {
        "schema": PROFILE_SCHEMA,
        "hz": float(snapshot.get("hz") or 0.0),
        "n_samples": int(snapshot.get("n_samples", 0)),
        "sampled_seconds": float(snapshot.get("sampled_seconds", 0.0)),
        "duration_seconds": duration_seconds,
        "wall_epoch": snapshot.get("wall_epoch"),
        "run_id": run_id,
        "command": command,
        "lanes": sorted({e.get("lane", "?")
                         for e in snapshot.get("folded", [])}),
        "spans": spans,
        "folded": snapshot.get("folded", []),
    }


def validate_profile_artifact(doc: dict) -> list[str]:
    """Schema/consistency problems (empty list = valid).

    Beyond the envelope tag this checks the invariants every consumer
    leans on: folded counts sum to ``n_samples``, folded seconds sum to
    ``sampled_seconds``, per-span self never exceeds total, and every
    folded segment survives the collapsed-stack text format.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["profile artifact must be a JSON object"]
    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(
            f"schema {doc.get('schema')!r} != {PROFILE_SCHEMA!r}"
        )
    hz = doc.get("hz")
    if not isinstance(hz, (int, float)) or not hz > 0:
        errors.append(f"hz must be > 0, got {hz!r}")
    folded = doc.get("folded")
    if not isinstance(folded, list):
        return errors + ["folded must be a list"]
    count_sum = 0
    seconds_sum = 0.0
    for i, entry in enumerate(folded):
        where = f"folded[{i}]"
        count = entry.get("count")
        if not isinstance(count, int) or count < 1:
            errors.append(f"{where}: count must be a positive int")
            continue
        count_sum += count
        seconds_sum += float(entry.get("seconds", 0.0))
        if not entry.get("frames"):
            errors.append(f"{where}: empty frame stack")
        for seg in list(entry.get("spans", ())) + list(
                entry.get("frames", ())):
            if ";" in str(seg) or " " in str(seg) or "\n" in str(seg):
                errors.append(f"{where}: segment {seg!r} breaks the "
                              "folded-stack format")
    if count_sum != int(doc.get("n_samples", -1)):
        errors.append(f"n_samples={doc.get('n_samples')} != folded count "
                      f"sum {count_sum}")
    declared = float(doc.get("sampled_seconds", 0.0))
    if abs(declared - seconds_sum) > max(1e-6, 1e-6 * abs(seconds_sum)):
        errors.append(f"sampled_seconds={declared} != folded seconds "
                      f"sum {seconds_sum}")
    for row in doc.get("spans", []):
        kind = row.get("kind")
        if row.get("self_samples", 0) > row.get("total_samples", 0):
            errors.append(f"span {kind!r}: self_samples > total_samples")
        if row.get("self_seconds", 0.0) > row.get("total_seconds", 0.0) \
                + 1e-9:
            errors.append(f"span {kind!r}: self_seconds > total_seconds")
    return errors


def write_profile(trace_dir: str, snapshot: dict | None = None, *,
                  run_id: str | None = None, command: str | None = None,
                  duration_seconds: float | None = None) -> tuple[str, str]:
    """Persist ``profile.json`` + ``profile.folded`` into ``trace_dir``.

    The artifact is self-checked with :func:`validate_profile_artifact`
    before anything touches disk; returns ``(json path, folded path)``.
    """
    if snapshot is None:
        store = get_store()
        if store is None:
            raise ValueError(
                "no profile samples to write (enable the profiler first)"
            )
        snapshot = store.snapshot()
    doc = profile_artifact(snapshot, run_id=run_id, command=command,
                           duration_seconds=duration_seconds)
    problems = validate_profile_artifact(doc)
    if problems:
        raise ValueError(f"refusing to write invalid profile artifact: "
                         f"{problems[0]}")
    from .artifacts import dump_json

    json_path = dump_json(trace_dir, "profile.json", doc)
    folded_path = os.path.join(trace_dir, "profile.folded")
    with open(folded_path, "w") as fh:
        for line in folded_lines(doc):
            fh.write(line + "\n")
    return json_path, folded_path


# -- hotspot reporting ------------------------------------------------------

def hotspots(doc: dict, top: int = 10) -> list[dict]:
    """Per-frame self/total seconds from the folded entries.

    *self* credits the leaf frame of each stack; *total* credits every
    distinct frame on the stack (a frame appearing twice through
    recursion is counted once per sample).
    """
    self_acc: dict[str, list] = {}
    total_acc: dict[str, list] = {}
    grand_total = 0.0
    for entry in doc.get("folded", []):
        frames = tuple(entry.get("frames", ()))
        if not frames:
            continue
        count = int(entry.get("count", 0))
        seconds = float(entry.get("seconds", 0.0))
        grand_total += seconds
        leaf = self_acc.setdefault(frames[-1], [0, 0.0])
        leaf[0] += count
        leaf[1] += seconds
        for frame in set(frames):
            tot = total_acc.setdefault(frame, [0, 0.0])
            tot[0] += count
            tot[1] += seconds
    rows = [
        {"frame": frame,
         "self_samples": self_acc.get(frame, [0, 0.0])[0],
         "self_seconds": self_acc.get(frame, [0, 0.0])[1],
         "total_seconds": total[1],
         "self_fraction": (self_acc.get(frame, [0, 0.0])[1] / grand_total
                           if grand_total else 0.0)}
        for frame, total in total_acc.items()
    ]
    rows.sort(key=lambda r: (-r["self_seconds"], -r["total_seconds"],
                             r["frame"]))
    return rows[:top]


def format_hotspots(doc: dict, top: int = 10) -> str:
    """Fixed-width "top hotspots" table (what ends ``repro report``)."""
    rows = hotspots(doc, top=top)
    if not rows:
        return "(no samples)"
    width = max([len(r["frame"]) for r in rows] + [len("frame")])
    header = (f"{'frame':<{width}}  {'self s':>8}  {'self %':>6}  "
              f"{'total s':>8}  {'samples':>7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['frame']:<{width}}  {r['self_seconds']:>8.3f}  "
            f"{r['self_fraction'] * 100:>5.1f}%  "
            f"{r['total_seconds']:>8.3f}  {r['self_samples']:>7d}"
        )
    return "\n".join(lines)


# -- trace-directory artifact hooks -----------------------------------------

def write_artifact(trace_dir: str, session):
    """``repro trace``: ``profile.json`` + ``profile.folded`` when the
    session profiled."""
    if not session.profiled:
        return None
    snapshot = get_store().snapshot()
    meta = dict(run_id=session.run_id, command=session.command,
                duration_seconds=session.elapsed)
    doc = profile_artifact(snapshot, **meta)
    path, _folded = write_profile(trace_dir, snapshot, **meta)
    note = (f"\nprofile: {doc['n_samples']} samples @ {doc['hz']:g} Hz "
            f"({doc['sampled_seconds']:.2f}s sampled, lanes: "
            f"{', '.join(doc['lanes']) or 'none'})")
    hot = format_hotspots(doc, top=5)
    if hot != "(no samples)":
        note += "\n" + hot
    return [f"{path} (+ profile.folded for flamegraph.pl/speedscope)"], note


def report_section(arts, args) -> str:
    """``repro report``: top hotspots; pre-profiler trace dirs degrade to
    an explicit note, not an error."""
    doc = arts.load("profile")
    if doc is None:
        return ("\nno profile captured (run 'repro profile <cmd>' or "
                "'repro trace --profile' to record one)")
    return (f"\nsampling profile: {doc.get('n_samples', 0)} samples @ "
            f"{doc.get('hz', 0):g} Hz — top hotspots:\n"
            + format_hotspots(doc))


def replay(doc, arts) -> dict:
    """``repro serve``: sample totals plus per-span-kind self seconds for
    the hottest kinds."""
    from .metrics import registry

    registry.set_gauge("profile.n_samples", int(doc.get("n_samples", 0)))
    registry.set_gauge("profile.hz", float(doc.get("hz", 0.0)))
    registry.set_gauge("profile.sampled_seconds",
                       float(doc.get("sampled_seconds", 0.0)))
    rows = doc.get("spans", [])[:8]
    for row in rows:
        registry.set_gauge(f"profile.span.{row['kind']}.self_seconds",
                           float(row.get("self_seconds", 0.0)))
    return {"gauges": 3 + len(rows)}
