"""Observability: tracing, metrics, run telemetry and model-drift checks.

Zero-dependency instrumentation, off by default and behind one seam:

* :mod:`repro.obs.switch` — every instrument (tracer, memory tracker,
  event log, attribution recorder, health collector, profiler) is a
  :class:`~repro.obs.switch.Switch`: an env-seeded on/off flag and a
  global instance that a run context can pin and replace per run;
* :mod:`repro.obs.seam` — what the numeric core sees: one observer per
  ``cp_als`` run fanning out to each instrument's
  :class:`~repro.obs.switch.RunPlugin`, the engines' probes, and the
  enable/restore session behind ``repro trace`` / ``repro serve``;
* :mod:`repro.obs.artifacts` — the trace-directory artifact registry.

:mod:`~repro.obs.watchdog` and :mod:`~repro.obs.explain` depend on
:mod:`repro.model`, which depends on the engine this package
instruments, so they are imported lazily.  ``docs/observability.md``
describes each instrument and how to add a signal.

Quickstart::

    from repro import obs

    with obs.trace.tracing():
        repro.cp_als(X, rank=16, strategy="auto")
    obs.export.write_chrome_trace("trace.json")
    print(obs.export.tree_summary())
    print(obs.metrics()["spans"]["mttkrp"])

or, from the shell, ``repro trace decompose data.tns --rank 16``.
"""

from __future__ import annotations

import importlib

from . import artifacts, attribution, dashboard, events, export, history
from . import health, memory, profiler, runctx, serve, trace, utilization
from .artifacts import TraceArtifacts
from .attribution import AttributionReading, AttributionRecorder
from .buildinfo import build_info, git_revision, version_string
from .events import EventLog, RunState
from .health import (FactorDeltaTracker, HealthCollector, HealthReading,
                     validate_health_artifact, write_health)
from .history import BenchEntry, BenchHistory, DiffResult, compare
from .memory import MemReading, MemTracker
from .metrics import MetricsRegistry, metrics, registry
from .profiler import ProfileStore, validate_profile_artifact, write_profile
from .runctx import RunContext, RunRegistry, run_registry
from .serve import ObsServer
from .trace import (SpanRecord, Tracer, disable, enable, enabled,
                    get_tracer, span, tracing)
from .utilization import UtilizationReport, utilization_from_spans

__all__ = [
    "export", "trace", "watchdog", "memory", "history", "dashboard",
    "events", "serve", "utilization", "attribution", "explain", "runctx",
    "profiler", "artifacts", "health",
    "TraceArtifacts",
    "ProfileStore", "validate_profile_artifact", "write_profile",
    "HealthCollector", "HealthReading", "FactorDeltaTracker",
    "validate_health_artifact", "write_health",
    "RunContext", "RunRegistry", "run_registry",
    "AttributionReading", "AttributionRecorder",
    "PlanExplanation", "explain_plan", "validate_plan_artifact",
    "SpanRecord", "Tracer", "span", "enabled", "enable", "disable",
    "tracing", "get_tracer",
    "MetricsRegistry", "metrics", "registry",
    "MemReading", "MemTracker",
    "EventLog", "RunState", "ObsServer",
    "UtilizationReport", "utilization_from_spans",
    "BenchEntry", "BenchHistory", "DiffResult", "compare",
    "build_info", "git_revision", "version_string",
    "ModelDriftWarning", "DriftWatchdog",
]

#: submodules imported on first access, with the names they provide.
_LAZY = {
    "watchdog": ("DriftWatchdog", "ModelDriftWarning", "DriftReading"),
    "explain": ("PlanExplanation", "explain_plan", "validate_plan_artifact"),
}


def __getattr__(name):
    # Lazy: repro.obs.watchdog -> repro.model -> repro.core.engine -> here,
    # and explain drives repro.model.planner.  ``import_module`` rather
    # than ``from . import``: the latter's fromlist check would re-enter
    # this hook before the submodule is bound.
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
