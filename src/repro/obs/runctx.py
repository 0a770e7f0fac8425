"""Run-scoped telemetry contexts and the registry of concurrent runs.

A :class:`RunContext` bundles a ``run_id`` with, optionally, a private
instance of every instrument and a pinned on/off flag for each.  The
active context rides a :mod:`contextvars` variable that every
instrument's :class:`~repro.obs.switch.Switch` consults, so the call
sites (engines, pools, kernels) never see which instruments they reach.

Two flavors:

* :meth:`RunContext.ambient` — no instruments of its own; everything
  still lands in the global singletons, but events are stamped with the
  ``run_id`` and the run shows up on ``/runz``.  This is what a bare
  ``cp_als`` call gets, and it behaves byte-for-byte like the pre-context
  stack.
* :meth:`RunContext.scoped` — fresh private instruments with explicit
  enable flags.  Two scoped runs in one process (threads or interleaved)
  keep fully separated spans/events/metrics/memory with zero cross-talk,
  and ``/metrics`` labels each run's families with its ``run_id``.

The process-wide :data:`run_registry` tracks every context that has been
activated (finished runs are kept, bounded, for post-hoc inspection);
``repro serve`` renders it on ``/runz``.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid
from contextlib import contextmanager

from . import attribution as _attr_mod
from . import events as _events_mod
from . import health as _health_mod
from . import memory as _memory_mod
from . import profiler as _profiler_mod
from . import trace as _trace_mod
from .metrics import MetricsRegistry
from .switch import SWITCHES, _current, current_run

__all__ = [
    "RunContext", "RunRegistry", "run_registry", "new_run_id",
    "current", "using",
]


def new_run_id() -> str:
    """A short unique run identifier (``run-<8 hex chars>``)."""
    return f"run-{uuid.uuid4().hex[:8]}"


class RunContext:
    """One run's identity plus (optionally) its own telemetry instruments.

    Each registered :class:`~repro.obs.switch.Switch` contributes two
    keyword fields: its slot (a private instrument, e.g. ``tracer``) and
    its pin (an on/off override, e.g. ``trace_enabled``).  Fields left
    ``None`` defer to the global instrument and switch; ``metrics`` is a
    private :class:`MetricsRegistry`.  Pins are fixed at construction.
    :meth:`ambient` leaves everything deferred; :meth:`scoped` pins all
    of it.
    """

    __slots__ = ("run_id", "metrics", "created_at", "finished_at", "status",
                 "meta", "pinned_on",
                 *(name for switch in SWITCHES.values()
                   for name in (switch.slot, switch.pin)))

    def __init__(self, run_id: str | None = None, *, metrics=None,
                 meta: dict | None = None, **instruments):
        self.run_id = run_id or new_run_id()
        self.metrics = metrics
        for switch in SWITCHES.values():
            setattr(self, switch.slot, instruments.pop(switch.slot, None))
            setattr(self, switch.pin, instruments.pop(switch.pin, None))
        if instruments:
            raise TypeError(f"unknown RunContext fields: "
                            f"{sorted(instruments)}")
        #: whether any pin is on (read by :func:`repro.obs.switch.quiet`).
        self.pinned_on = any(getattr(self, switch.pin)
                             for switch in SWITCHES.values())
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.status = "created"
        self.meta = dict(meta or {})

    # -- constructors --------------------------------------------------
    @classmethod
    def ambient(cls, run_id: str | None = None, **meta) -> "RunContext":
        """A context that aliases the global singletons (legacy behavior
        plus a run_id stamp on events and a ``/runz`` entry)."""
        return cls(run_id, meta=meta)

    @classmethod
    def scoped(cls, run_id: str | None = None, *,
               trace: bool = False, events: bool = True, mem: bool = False,
               profile: bool = False, health: bool = False,
               profile_hz: float | None = None,
               sink_path: str | None = None, events_maxlen: int = 4096,
               **meta) -> "RunContext":
        """A context with fresh, fully isolated instruments.

        The enable flags are pinned (not deferred), so a scoped run is
        unaffected by — and does not affect — the module-global switches.
        The attribution recorder is private too and pinned off.
        With ``profile=True`` the context owns a private
        :class:`~repro.obs.profiler.ProfileStore`; :func:`using` keeps
        the process-wide sampler thread alive for the activation.
        """
        return cls(
            run_id,
            tracer=_trace_mod.Tracer(),
            events=_events_mod.EventLog(maxlen=events_maxlen,
                                        sink_path=sink_path),
            metrics=MetricsRegistry(),
            memory=_memory_mod.MemTracker(),
            profiler=(_profiler_mod.ProfileStore(hz=profile_hz)
                      if profile else None),
            health=_health_mod.HealthCollector(),
            attribution=_attr_mod.AttributionRecorder(),
            trace_enabled=trace,
            events_enabled=events,
            mem_enabled=mem,
            profile_enabled=profile,
            health_enabled=health,
            attr_enabled=False,
            meta=meta,
        )

    # -- introspection -------------------------------------------------
    @property
    def owns_telemetry(self) -> bool:
        """True for scoped contexts (private instruments), False for
        ambient ones riding the global singletons."""
        return self.metrics is not None

    def describe(self) -> dict:
        """JSON-friendly summary for ``/runz``."""
        out = {
            "run_id": self.run_id,
            "status": self.status,
            "scoped": self.owns_telemetry,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            **{switch.pin: getattr(self, switch.pin)
               for switch in SWITCHES.values()},
            "meta": self.meta,
        }
        if self.events is not None:
            out["n_events"] = len(self.events)
            out["run"] = self.events.run.to_dict()
        if self.tracer is not None:
            out["n_spans"] = len(self.tracer)
        if self.profiler is not None:
            out["n_profile_samples"] = self.profiler.n_samples
        return out

    def __repr__(self) -> str:
        kind = "scoped" if self.owns_telemetry else "ambient"
        return f"RunContext({self.run_id!r}, {kind}, status={self.status!r})"


class RunRegistry:
    """Thread-safe registry of run contexts, past and present.

    Bounded: once more than ``keep_finished`` non-active runs accumulate,
    the oldest finished ones are evicted (active runs are never evicted).
    """

    def __init__(self, keep_finished: int = 64):
        self._lock = threading.Lock()
        self._runs: collections.OrderedDict[str, RunContext] = \
            collections.OrderedDict()
        self.keep_finished = int(keep_finished)

    def register(self, ctx: RunContext) -> RunContext:
        with self._lock:
            self._runs[ctx.run_id] = ctx
            self._runs.move_to_end(ctx.run_id)
            finished = [rid for rid, c in self._runs.items()
                        if c.status != "running"]
            for rid in finished[:max(len(finished) - self.keep_finished, 0)]:
                del self._runs[rid]
        return ctx

    def unregister(self, run_id: str) -> None:
        with self._lock:
            self._runs.pop(run_id, None)

    def get(self, run_id: str) -> RunContext | None:
        with self._lock:
            return self._runs.get(run_id)

    def runs(self) -> list[RunContext]:
        """All registered contexts, oldest first."""
        with self._lock:
            return list(self._runs.values())

    def active(self) -> list[RunContext]:
        return [c for c in self.runs() if c.status == "running"]

    def describe(self) -> list[dict]:
        return [c.describe() for c in self.runs()]

    def clear(self) -> None:
        with self._lock:
            self._runs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)


#: the process-wide registry that ``/runz`` serves.
run_registry = RunRegistry()


def current() -> RunContext | None:
    """The active run context in this execution context, if any."""
    return current_run()


@contextmanager
def using(ctx: RunContext, *, register: bool = True):
    """Activate ``ctx`` for a block (and register it for ``/runz``).

    The context stays in the registry after the block — finished, not
    gone — so a completed run's telemetry remains inspectable until the
    registry evicts it.
    """
    if register:
        run_registry.register(ctx)
    ctx.status = "running"
    profiled = bool(ctx.profile_enabled)
    bind_token = None
    if profiled:
        _profiler_mod.retain_sampler(
            ctx.profiler.hz if ctx.profiler is not None else None
        )
        # Samples on this thread taken outside any span (or with tracing
        # off entirely) still belong to this run's store.
        bind_token = _profiler_mod.bind_thread(ctx.profiler)
    token = _current.set(ctx)
    try:
        yield ctx
    except BaseException:
        ctx.status = "failed"
        raise
    else:
        ctx.status = "finished"
    finally:
        ctx.finished_at = time.time()
        _current.reset(token)
        if profiled:
            if bind_token is not None:
                _profiler_mod.unbind_thread(bind_token)
            _profiler_mod.release_sampler()
