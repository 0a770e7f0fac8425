"""The trace-directory artifact registry and its shared loader.

Each file a ``repro trace`` directory can hold is an :class:`Artifact` in
:func:`registry`: its name, file name and schema tag, how it is written
(:func:`write_trace_dir`), loaded (:class:`TraceArtifacts`), reported
(``repro report``) and replayed by ``repro serve``
(:func:`repro.obs.serve.load_trace_dir`).

:class:`TraceArtifacts` applies one policy to every artifact: a missing
file is simply absent (``None`` — old trace dirs predate newer artifacts
by design), a malformed one (unparsable, or the wrong ``schema`` tag) is
skipped with a warning, never an exception.  Loads are lazy and cached.
"""

from __future__ import annotations

import importlib
import json
import logging
import os
from dataclasses import dataclass
from typing import Callable

__all__ = ["Artifact", "TraceArtifacts", "registry", "write_trace_dir"]

_log = logging.getLogger("repro.obs.artifacts")

_MISSING = object()


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def dump_json(trace_dir: str, filename: str, doc) -> str:
    """Write ``doc`` as indented JSON into ``trace_dir``; returns the path."""
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, filename)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


@dataclass(frozen=True)
class Artifact:
    """One trace-directory file and what each tool does with it.

    ``write(trace_dir, session)`` returns ``(paths, console note)`` or
    None; ``report(arts, args)`` the ``repro report`` text or None;
    ``replay(doc, arts)`` the counts it restored from the loaded ``doc``
    (None: nothing to replay).
    """

    name: str
    filename: str
    load: Callable = load_json
    #: required ``schema`` tag of the parsed document (None: unchecked).
    schema: str | None = None
    write: Callable | None = None
    report: Callable | None = None
    replay: Callable | None = None


_REGISTRY: tuple[Artifact, ...] | None = None


def registry() -> tuple[Artifact, ...]:
    """Every trace artifact, spans first, in ``repro report`` order."""
    global _REGISTRY
    if _REGISTRY is None:
        # Built on first use: the roofline and dashboard modules reach
        # into the model and core packages, which import this package.
        from . import (attribution, dashboard, events, export, health,
                       memory, profiler, roofline)

        # The package re-exports a ``metrics()`` function under the same
        # name, so the module comes from the import system directly.
        metrics = importlib.import_module(".metrics", __package__)

        def entry(name, filename, module, load=load_json, schema=None):
            # A subsystem module supplies its hooks by name; each is
            # optional (memory.json has no report section or replay).
            return Artifact(name, filename, load, schema,
                            getattr(module, "write_artifact", None),
                            getattr(module, "report_section", None),
                            getattr(module, "replay", None))

        _REGISTRY = (
            entry("spans", "trace.jsonl", export, export.read_jsonl),
            entry("events", "events.jsonl", events, events.read_events),
            entry("metrics", "metrics.json", metrics),
            entry("memory", "memory.json", memory, dashboard.load_memory_json),
            entry("attribution", "attribution.json", attribution,
                  schema=attribution.ATTRIBUTION_SCHEMA),
            entry("machine", "machine.json", roofline),
            entry("profile", "profile.json", profiler,
                  schema=profiler.PROFILE_SCHEMA),
            entry("health", "health.json", health,
                  schema=health.HEALTH_SCHEMA),
        )
    return _REGISTRY


class TraceArtifacts:
    """Lazy, warn-don't-raise view over one trace directory.

    ``load(name)`` — or the ``name()`` shorthand, e.g. ``arts.health()``
    — returns the parsed artifact or ``None``: missing files silently,
    malformed files with a logged warning and an entry in
    :attr:`skipped` so callers can surface what was dropped.
    """

    def __init__(self, trace_dir: str, files: dict[str, str] | None = None):
        self.trace_dir = trace_dir
        #: (filename, reason) for every artifact skipped as malformed.
        self.skipped: list[tuple[str, str]] = []
        self._cache: dict[str, object] = {}
        self._files = {art.name: art.filename for art in registry()}
        self._files.update(files or {})

    @classmethod
    def at(cls, path: str) -> "TraceArtifacts":
        """A trace directory, or a span file inside one (read in place
        of the registry's ``trace.jsonl``)."""
        if os.path.isdir(path):
            return cls(path)
        primary = registry()[0].name
        return cls(os.path.dirname(path) or ".",
                   {primary: os.path.basename(path)})

    def path(self, name: str) -> str:
        return os.path.join(self.trace_dir, self._files[name])

    def exists(self, name: str) -> bool:
        return os.path.exists(self.path(name))

    @property
    def is_empty(self) -> bool:
        """True when none of the known artifacts exist."""
        return not any(self.exists(name) for name in self._files)

    def load(self, name: str):
        """The parsed artifact ``name`` (None when missing or malformed)."""
        value = self._cache.get(name, _MISSING)
        if value is not _MISSING:
            return value
        art = next(a for a in registry() if a.name == name)
        value = None
        if self.exists(name):
            try:
                value = art.load(self.path(name))
                if art.schema is not None:
                    schema = (value.get("schema")
                              if isinstance(value, dict) else None)
                    if schema != art.schema:
                        raise ValueError(
                            f"schema {schema!r} != {art.schema!r}")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.skipped.append((self._files[name], str(exc)))
                _log.warning("skipping malformed %s in %s: %s",
                             self._files[name], self.trace_dir, exc)
                value = None
        self._cache[name] = value
        return value

    def __getattr__(self, name: str):
        if name.startswith("_") or name not in self._files:
            raise AttributeError(name)
        return lambda: self.load(name)


def write_trace_dir(trace_dir: str, session) -> tuple[list[str], list[str]]:
    """Write every artifact a finished :class:`~repro.obs.seam.Session`
    produced; returns (written paths as listed, console notes)."""
    os.makedirs(trace_dir, exist_ok=True)
    labels: list[str] = []
    notes: list[str] = []
    for art in registry():
        out = art.write(trace_dir, session) if art.write else None
        if out is not None:
            labels.extend(out[0])
            if out[1]:
                notes.append(out[1])
    return labels, notes

