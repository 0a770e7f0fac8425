"""In-memory spans around the library's module seams, and the layer ledger.

A traced solve installs a :class:`Probe`: it swaps a handful of module
attributes that ``cp_als`` looks up at call time (the planner, the
distinct counter, the symbolic tree, the engine class, the linalg helpers)
for wrappers that open a span, call the original and close the span.  The
wrappers only read, so a traced solve computes bitwise the same factors as
an untraced one; ``run.py`` checks that on every traced solve.  The library's
own telemetry (``repro.obs``) stays off throughout.

A span is ``[id, parent_id, name, start, end]``.  A span's *self time* is its
duration minus the durations of its direct children (spans nest strictly:
everything here runs on one thread).  The ledger folds self times into
per-layer numbers, per solve for set-up layers and per iteration for the
iteration layers.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.cpals as cpals_mod
import repro.core.engine as engine_mod
import repro.core.symbolic as symbolic_mod
import repro.model.planner as planner_mod
from repro.core.engine import MemoizedMttkrp
from repro.linalg.gram import GramCache
from repro.model.overlap import DistinctCounter
from repro.core.symbolic import SymbolicTree

#: structural spans: their self time is the ledger's unattributed gap.
ROOT = "bench.solve"
CPALS = "core.cpals.run"
ITERATION = "core.cpals.iteration"
#: layers also reported inclusive of their child spans, per iteration.
INCLUSIVE = ("core.engine.mttkrp", "kernels.rebuild", "parallel.mttkrp")
#: layers that run once per solve (the kernel index is built lazily, inside
#: iteration 0), reported inclusive per solve.
ONCE = ("core.coo.build", "core.cpals.init", "model.planner.plan",
        "model.overlap.count", "core.symbolic.build",
        "kernels.indices.build", "parallel.engine_build", "parallel.close")


class SpanLog:
    """Spans of one traced solve, kept in memory and written out when the
    run ends; every solve of a run shares ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._iteration: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {self.spans[sid][2]!r} closed out of order")
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def drop(self, sid: int) -> None:
        """Forget the most recent, closed, childless span ``sid``."""
        if self.spans[-1][0] != sid or self.spans[-1][4] is None:
            raise RuntimeError("only the last closed span can be dropped")
        self.spans.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def begin_iteration(self) -> None:
        """Open the iteration span at the first MTTKRP of an iteration."""
        if self._iteration is None:
            self._iteration = self.open(ITERATION)

    def end_iteration(self) -> None:
        """Close the iteration span; called from the ``cp_als`` callback."""
        if self._iteration is not None:
            self.close(self._iteration)
            self._iteration = None

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }


class Probe:
    """Read-only timing wrappers at module seams, for one traced solve.

    Use as a context manager; every swapped attribute is restored on exit.
    After the solve, :attr:`candidates`, :attr:`distinct_counts`,
    :attr:`index_bytes`, :attr:`live_peak` and :attr:`engines` hold what
    the wrappers observed.
    """

    def __init__(self, log: SpanLog):
        self.log = log
        self.candidates = 0
        self.distinct_counts = 0
        self.index_bytes = 0
        self.live_peak = 0
        self.engines: list = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def patch(self, obj, attr: str, value) -> None:
        had = attr in vars(obj)
        self._saved.append((obj, attr, vars(obj).get(attr), had))
        setattr(obj, attr, value)

    def spanned(self, name: str, fn):
        log = self.log

        def wrapper(*args, **kwargs):
            with log.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Probe":
        log, probe = self.log, self

        def plan(*args, **kwargs):
            with log.span("model.planner.plan"):
                report = original_plan(*args, **kwargs)
            probe.candidates += len(report.scored)
            return report

        original_plan = planner_mod.plan

        class CountingDistinctCounter(DistinctCounter):
            def count(self, modes):
                before = self.cache_size()
                sid = log.open("model.overlap.count")
                try:
                    return super().count(modes)
                finally:
                    log.close(sid)
                    if self.cache_size() == before:
                        log.drop(sid)  # cache hit: no counting pass ran
                    else:
                        probe.distinct_counts += 1

        class SpannedSymbolicTree(SymbolicTree):
            def __init__(self, *args, **kwargs):
                with log.span("core.symbolic.build"):
                    super().__init__(*args, **kwargs)
                probe.index_bytes += self.index_nbytes()

        class SpannedGramCache(GramCache):
            def __init__(self, *args, **kwargs):
                with log.span("linalg.gram"):
                    super().__init__(*args, **kwargs)

            def update(self, *args, **kwargs):
                with log.span("linalg.gram"):
                    return super().update(*args, **kwargs)

            def combined(self, *args, **kwargs):
                with log.span("linalg.gram"):
                    return super().combined(*args, **kwargs)

        class SpannedEngine(MemoizedMttkrp):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe.engines.append(self)
                kernel = self.kernel
                if "rebuild" not in vars(kernel):
                    probe.patch(kernel, "rebuild",
                                probe.spanned("kernels.rebuild", kernel.rebuild))

            def mttkrp(self, mode):
                log.begin_iteration()
                with log.span("core.engine.mttkrp"):
                    out = super().mttkrp(mode)
                probe.live_peak = max(probe.live_peak, self.live_value_bytes())
                return out

        self.patch(planner_mod, "plan", plan)
        self.patch(planner_mod, "DistinctCounter", CountingDistinctCounter)
        self.patch(engine_mod, "SymbolicTree", SpannedSymbolicTree)
        self.patch(symbolic_mod, "build_node_index",
                   self.spanned("kernels.indices.build",
                                symbolic_mod.build_node_index))
        self.patch(cpals_mod, "MemoizedMttkrp", SpannedEngine)
        self.patch(cpals_mod, "GramCache", SpannedGramCache)
        for attr, name in (("initialize_factors", "core.cpals.init"),
                           ("solve_normal_equations", "linalg.solve"),
                           ("normalize_columns", "linalg.normalize"),
                           ("innerprod_from_mttkrp", "linalg.fit")):
            self.patch(cpals_mod, attr,
                       self.spanned(name, getattr(cpals_mod, attr)))
        return self

    def wrap_parallel_engine(self, engine) -> None:
        """Spans around a tier engine built by the benchmark itself."""
        log = self.log
        mttkrp = engine.mttkrp

        def spanned_mttkrp(mode):
            log.begin_iteration()
            with log.span("parallel.mttkrp"):
                return mttkrp(mode)

        self.patch(engine, "mttkrp", spanned_mttkrp)
        self.patch(engine, "set_factors",
                   self.spanned("parallel.engine_build", engine.set_factors))

    def __exit__(self, *exc) -> None:
        while self._saved:
            obj, attr, old, had = self._saved.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


# ---------------------------------------------------------------------------
# the ledger: spans -> per-layer numbers
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Self time of every span (duration minus its direct children's)."""
    own = [s[4] - s[3] for s in spans]
    for sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own


def solve_ledger(spans: list[list]) -> dict:
    """Fold one traced solve's spans (one :data:`ROOT` span) into layers.

    Returns ``wall``; ``gap``, the root and ``cp_als`` glue covered by no
    layer span, as a share of ``wall``; ``once``, inclusive seconds of the
    layers that run once per solve (wherever they ran); and ``iterations``,
    one dict per iteration span of per-layer self seconds, with the
    iteration's own self time as ``core.cpals.other`` and inclusive MTTKRP
    and kernel seconds under ``<layer>.inclusive``.
    """
    own = self_times(spans)
    iteration_of: list[int | None] = []
    for sid, parent, name, _t0, _t1 in spans:
        if name == ITERATION:
            iteration_of.append(sid)
        else:
            iteration_of.append(iteration_of[parent]
                                if parent is not None else None)
    roots = [s for s in spans if s[2] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, got {len(roots)}")
    wall = roots[0][4] - roots[0][3]
    per_iter: dict[int, dict[str, float]] = {}
    once: dict[str, float] = defaultdict(float)
    gap = 0.0
    for sid, _parent, name, t0, t1 in spans:
        if name in (ROOT, CPALS):
            gap += own[sid]
            continue
        if name in ONCE:
            once[name] += t1 - t0
        it = iteration_of[sid]
        if it is None:
            continue
        bucket = per_iter.setdefault(it, defaultdict(float))
        bucket["core.cpals.other" if name == ITERATION else name] += own[sid]
        if name in INCLUSIVE:
            bucket[name + ".inclusive"] += t1 - t0
    return {
        "wall": wall,
        "gap": gap / wall if wall > 0 else 0.0,
        "once": dict(once),
        "iterations": [dict(per_iter[sid]) for sid in sorted(per_iter)],
    }


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
