"""The telemetry seam: everything the numeric core sees of observability.

Apart from opening trace spans, the ALS loop and the engines never
talk to an instrument directly.  Each call site asks this module for one
object, ``None`` when every instrument it covers is off:

* :func:`run_observer` — one ``cp_als`` run's :class:`RunObserver`, which
  fans the run's lifecycle out to the active
  :class:`~repro.obs.switch.RunPlugin` instances;
* :func:`engine_probe` / :func:`node_tracker` — the engines' rebuild,
  per-mode and node-lifecycle hooks.

:func:`run_scope` picks the run context a ``cp_als`` call runs in, and
:func:`session` turns every instrument on for one wrapped CLI command.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..perf import counters as _perf
from . import attribution, events, health, memory, runctx, trace
from .metrics import registry as _metrics
from .switch import SWITCHES, quiet

__all__ = ["PLUGINS", "RunObserver", "run_observer", "run_scope",
           "engine_probe", "node_tracker", "session"]

#: plug-ins in the order their readings are taken each iteration.  The
#: drift watchdog (when active) follows them, then the event log, whose
#: ``iteration`` event carries every plug-in's fields.
PLUGINS = (memory.MemoryPlugin, attribution.AttributionPlugin,
           health.HealthPlugin)


@dataclass
class Iteration:
    """One finished ALS iteration, as plug-ins see it in ``end``."""

    iteration: int
    fit: float
    seconds: float
    counters: object
    grams: object
    #: the ``iteration`` event's fields, extended by each plug-in.
    fields: dict
    #: earlier plug-ins' readings this iteration, by plug-in name.
    readings: dict = field(default_factory=dict)


class RunObserver:
    """One ``cp_als`` run as its plug-ins see it (``attach(run)`` gets
    the observer), and the fan-out of the run's lifecycle to them."""

    def __init__(self, tensor, rank, engine, *, memoized, cost,
                 strategy_name, n_iter_max, tol):
        self.tensor = tensor
        self.rank = rank
        self.engine = engine
        #: whether ``engine`` is a memoized engine with a symbolic tree.
        self.memoized = memoized
        #: the watchdog's predicted cost report, when one is active.
        self.cost = cost
        self.strategy_name = strategy_name
        self.n_iter_max = n_iter_max
        self.tol = tol
        self.plugins: list = []
        self._counters = None

    def start(self, plugins) -> None:
        self.plugins = plugins
        self.counts = any(p.counts for p in plugins)
        self.track_site = any(p.tracks_site for p in plugins)
        for p in plugins:
            p.start(self)

    def begin(self, iteration: int) -> None:
        for p in self.plugins:
            p.begin(iteration)

    def measure(self, fn, *args):
        """``fn(*args)``, its work counted in a private sink when a
        plug-in wants it (caller-installed counters see the same totals)."""
        if not self.counts:
            return fn(*args)
        outer = _perf.active_counters()
        with _perf.counting() as counters:
            out = fn(*args)
        if outer is not None:
            outer.add(counters)
        self._counters = counters
        return out

    def mode(self, iteration: int, mode: int) -> None:
        """A mode's sub-iteration starts: name the solve site."""
        if self.track_site:
            health.set_site(iteration, mode)

    def solved(self, mode: int, H, U_prev, U_new) -> None:
        for p in self.plugins:
            p.solved(mode, H, U_prev, U_new)

    def end(self, iteration: int, *, fit: float, fits, seconds: float,
            grams) -> None:
        fields = {"iteration": iteration, "fit": fit, "seconds": seconds}
        if len(fits) > 1:
            fields["delta"] = fits[-1] - fits[-2]
        it = Iteration(iteration, fit, seconds, self._counters, grams,
                       fields)
        for p in self.plugins:
            reading = p.end(it)
            if reading is not None:
                p.readings.append(reading)
                it.readings[p.name] = reading
                fields.update(p.fields(reading))

    def stop(self, **summary) -> None:
        for p in self.plugins:
            p.stop(**summary)

    def close(self) -> None:
        if self.track_site:
            health.clear_site()

    def results(self) -> dict:
        """``CPResult`` reading fields supplied by the plug-ins."""
        return {p.result_field: p.result() for p in self.plugins
                if p.result_field is not None}


def run_observer(tensor, rank, engine, *, memoized: bool, watchdog=None,
                 strategy_name: str = "", n_iter_max: int = 0,
                 tol: float = 0.0) -> RunObserver | None:
    """The observer for one run, or None when no instrument wants it.

    With tracing on and a memoized engine, a drift watchdog is built
    from the engine's symbolic tree unless ``watchdog`` is given.
    """
    if watchdog is None and quiet():
        return None
    if watchdog is None and memoized and trace.enabled():
        from ..model.cost import cost_from_symbolic
        from .watchdog import DriftWatchdog

        watchdog = DriftWatchdog(cost_from_symbolic(engine.symbolic, rank))
    observer = RunObserver(
        tensor, rank, engine, memoized=memoized,
        cost=watchdog.cost if watchdog is not None else None,
        strategy_name=strategy_name, n_iter_max=n_iter_max, tol=tol,
    )
    plugins = [p for p in (cls.attach(observer) for cls in PLUGINS)
               if p is not None]
    if watchdog is not None:
        from .watchdog import WatchdogPlugin

        plugins.append(WatchdogPlugin(watchdog))
    log = events.EventsPlugin.attach(observer)
    if log is not None:
        plugins.append(log)
    if not plugins:
        return None
    observer.start(plugins)
    return observer


@contextmanager
def run_scope(run_ctx=None, **meta):
    """The run context a ``cp_als`` call runs in: ``run_ctx`` (else the
    active context, else a fresh ambient one), activated unless it
    already is.  ``meta`` fills the context's missing metadata."""
    ctx = run_ctx if run_ctx is not None else runctx.current()
    if ctx is None:
        ctx = runctx.RunContext.ambient(**meta)
    for key, value in meta.items():
        ctx.meta.setdefault(key, value)
    if runctx.current() is ctx:
        yield ctx
        return
    with runctx.using(ctx):
        yield ctx


# ---------------------------------------------------------------------------
# engine hooks
# ---------------------------------------------------------------------------

#: the memory tracker engines report node stores/frees to, or None.
node_tracker = memory.SWITCH.active


@dataclass(slots=True)
class EngineProbe:
    """The instruments one engine call reports to."""

    traced: bool
    logged: bool
    tracker: object
    recorder: object

    def rebuild(self, node_id, ctx, run, attrs, flops, words):
        """``run(traced)`` as node ``node_id``'s rebuild: in a span when
        tracing, else timed; then its event and attribution."""
        if self.traced:
            with trace.span("node_rebuild", node=node_id, nnz=ctx.sym.nnz,
                            parent_nnz=ctx.parent_sym.nnz, **attrs) as rec:
                result = run(True)
            seconds = rec.duration
        else:
            t0 = time.perf_counter()
            result = run(False)
            seconds = time.perf_counter() - t0
        if self.logged:
            events.emit("node_rebuild", node=node_id, nnz=ctx.sym.nnz,
                        seconds=seconds, **attrs)
        if self.recorder is not None:
            self.recorder.on_rebuild(node_id, flops, words, seconds)
        return result

    @contextmanager
    def mttkrp(self, engine, mode: int):
        """Around one ``engine.mttkrp(mode)``: span, per-mode
        attribution and the engine's memory gauges."""
        if self.recorder is not None:
            self.recorder.begin_mode(mode)
        with trace.span("mttkrp", mode=mode):
            yield
            if self.recorder is not None:
                leaf_id = engine.strategy.leaf_id(mode)
                self.recorder.end_mode(
                    mode, leaf_id,
                    engine.symbolic.nodes[leaf_id].nnz * engine.rank)
            if self.traced:
                engine._publish_memory_gauges()


def engine_probe() -> EngineProbe | None:
    """The engine hooks, or None when tracing, events, memory tracking
    and attribution are all off."""
    if quiet():
        return None
    traced, logged = trace.enabled(), events.enabled()
    tracker, recorder = memory.SWITCH.active(), attribution.SWITCH.active()
    if traced or logged or tracker is not None or recorder is not None:
        return EngineProbe(traced, logged, tracker, recorder)
    return None


# ---------------------------------------------------------------------------
# wrapped CLI commands
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """One wrapped command's telemetry session, as the trace-directory
    writers read it; ``elapsed`` (wall seconds) is set on exit."""

    command: str
    profiled: bool
    elapsed: float = 0.0

    def __post_init__(self):
        self.ctx = runctx.RunContext.ambient(command=self.command)
        self.run_id = self.ctx.run_id


@contextmanager
def session(command: str, *, sample_tracemalloc: bool = False,
            profile: bool = False, profile_hz: float | None = None):
    """Every instrument on (cleared) for one wrapped command, in an
    ambient run context, with the metrics registry counting its work;
    yields the :class:`Session`.

    The profiler joins when ``profile`` is set or it was already on.  On
    exit every switch returns to its previous state, and tracemalloc
    stops if this session started it.
    """
    was = {name: switch.on for name, switch in SWITCHES.items()}
    tracker = memory.get_tracker()
    was_sampling = tracker.sample_tracemalloc
    profile = profile or was["profiler"]
    for name, switch in SWITCHES.items():
        if name == "profiler":
            if profile:
                switch.enable(clear=True, hz=profile_hz)
        else:
            # Keep a pre-existing event log (e.g. a REPRO_EVENTS sink).
            switch.enable(clear=not (name == "events" and was[name]))
    if sample_tracemalloc:
        tracker.sample(True)
    _metrics.reset()
    run = Session(command, profile)
    t0 = time.perf_counter()
    try:
        with _perf.counting(_metrics.counters), runctx.using(run.ctx):
            yield run
    finally:
        for name, switch in SWITCHES.items():
            if not was[name] and switch.on:
                switch.disable()
        tracker.close()
        tracker.sample_tracemalloc = was_sampling
        run.elapsed = time.perf_counter() - t0
