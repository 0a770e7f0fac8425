"""The instrument switch: one on/off model shared by every instrument.

Each instrument (tracer, memory tracker, event log, attribution
recorder, health collector, profiler store) is a :class:`Switch`: a
process-global on/off flag seeded from the environment, a process-global
instance, and two attribute names on :class:`~repro.obs.runctx.RunContext`
— the *pin* (``trace_enabled``, ``mem_enabled``, ...) and the *slot*
(``tracer``, ``memory``, ...).  An active run context whose pin is not
``None`` overrides the global flag, and a non-``None`` slot replaces the
global instance, so scoped runs keep private, separately switched
instruments while the call sites stay the same.

Every switch registers itself in :data:`SWITCHES`.  :class:`RunPlugin`
is an instrument's other half: its hooks into one ``cp_als`` run.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager

__all__ = ["Switch", "SWITCHES", "RunPlugin", "quiet", "truthy",
           "env_flag", "env_value", "current_run"]

#: the active :class:`~repro.obs.runctx.RunContext`, if any.  It reaches
#: pool threads through the context copy each task runs in, and worker
#: processes explicitly, by value (:mod:`repro.parallel.procpool`).
_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_run_context", default=None
)


def current_run():
    """The active run context, or None when on the global instruments."""
    return _current.get()


#: every instrument switch, by name, in registration order.
SWITCHES: dict[str, "Switch"] = {}
#: whether any switch is globally on (kept by ``Switch.on``, under _lock).
_any_on = False
_lock = threading.Lock()


def _after_fork_in_child() -> None:
    global _lock
    _lock = threading.Lock()  # the parent may have forked mid-toggle


os.register_at_fork(after_in_child=_after_fork_in_child)


def quiet() -> bool:
    """True when no instrument can be on here: no switch is globally on
    and the active run context pins none on.  Hot call sites make this
    one check before looking at individual instruments."""
    if _any_on:
        return False
    ctx = _current.get()
    return ctx is None or not ctx.pinned_on


_FALSY = {"", "0", "false", "no", "off"}


def truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in {"1", "true", "yes", "on"}


def env_flag(*names: str) -> bool:
    """True when any of the environment variables ``names`` is truthy."""
    return any(truthy(os.environ.get(name)) for name in names)


def env_value(name: str) -> tuple[bool, str | None]:
    """``(on, value)`` for a flag-or-value variable such as
    ``REPRO_EVENTS``: off when unset or falsy, on without a value when
    truthy, otherwise on with the raw value (e.g. a sink path)."""
    raw = (os.environ.get(name) or "").strip()
    if raw.lower() in _FALSY:
        return False, None
    return True, (None if truthy(raw) else raw)


class Switch:
    """One instrument's on/off flag, global instance and run-context
    pin / slot names; ``clear`` resets the instance on
    ``enable(clear=True)``."""

    def __init__(self, name: str, instance, *, pin: str, slot: str,
                 on: bool = False, clear=None):
        self.name = name
        self.instance = instance
        self.pin = pin
        self.slot = slot
        self._on = False
        self._clear = clear
        SWITCHES[name] = self
        self.on = on

    @property
    def on(self) -> bool:
        """The global flag (a run context's pin may override it)."""
        return self._on

    @on.setter
    def on(self, value: bool) -> None:
        global _any_on
        with _lock:
            self._on = bool(value)
            _any_on = any(switch._on for switch in SWITCHES.values())

    def enabled(self) -> bool:
        """The active run context's pin when set, else the global flag."""
        ctx = _current.get()
        if ctx is not None:
            pinned = getattr(ctx, self.pin)
            if pinned is not None:
                return pinned
        return self.on

    def get(self):
        """The run context's private instrument, else the global one."""
        ctx = _current.get()
        if ctx is not None:
            own = getattr(ctx, self.slot)
            if own is not None:
                return own
        return self.instance

    def active(self):
        """:meth:`get` when :meth:`enabled`, else None."""
        return self.get() if self.enabled() else None

    def enable(self, *, clear: bool = False) -> None:
        """Turn the global flag on; ``clear=True`` resets the instance."""
        if clear and self._clear is not None:
            self._clear()
        self.on = True

    def disable(self) -> None:
        """Turn the global flag off (collected state is kept)."""
        self.on = False

    @contextmanager
    def block(self, *, clear: bool = True, **options):
        """Enable (passing ``options`` on) for a block, restoring the
        previous state after; yields the global instance."""
        was = self.on
        self.enable(clear=clear, **options)
        try:
            yield self.instance
        finally:
            if not was:
                self.disable()

    def __repr__(self) -> str:
        return f"Switch({self.name!r}, on={self.on})"


class RunPlugin:
    """One instrument's part in a ``cp_als`` run; every hook is optional.

    The run observer (:mod:`repro.obs.seam`) builds plug-ins with
    :meth:`attach`, calls :meth:`start` once, then per iteration
    :meth:`begin`, :meth:`solved` for each mode's solve and :meth:`end`
    after the fit, and finally :meth:`stop`.  A reading returned by
    ``end`` is appended to :attr:`readings` (the ``CPResult`` attribute
    :attr:`result_field`), shared with later plug-ins as
    ``it.readings[name]`` and turned into ``iteration`` event fields by
    :meth:`fields`.
    """

    name = ""
    result_field: str | None = None
    #: the solver's fallback telemetry needs the (iteration, mode) site.
    tracks_site = False
    #: ``end`` needs the iteration's own perf counters (``it.counters``).
    counts = False

    def __init__(self, instrument=None):
        #: the instrument this plug-in drives for the run.
        self.instrument = instrument
        self.readings: list = []

    @classmethod
    def attach(cls, run) -> "RunPlugin | None":
        """The plug-in for ``run``, or None when it does not apply."""
        return None

    def start(self, run) -> None:
        pass

    def begin(self, iteration: int) -> None:
        pass

    def solved(self, mode: int, H, U_prev, U_new) -> None:
        pass

    def end(self, it):
        return None

    def fields(self, reading) -> dict:
        return {}

    def stop(self, **summary) -> None:
        pass

    def result(self):
        return self.readings
