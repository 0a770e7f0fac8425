#!/usr/bin/env python3
"""Layer-ledger benchmark: whole ``cp_als`` runs, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload delicious-auto --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One *solve* is what a user waits for: the generated coordinate and value
arrays are handed to ``CooTensor``, then ``cp_als`` runs a fixed number of
iterations (``tol=0``) and any tier engine is closed.  A run generates its
workload's inputs from ``--seed``, then repeats solves for at least
``--seconds`` seconds, and until it holds ``MIN_SOLVES`` solves and
``MIN_SAMPLES`` steady iterations (iterations >= 1, timed callback to
callback).

``--trace 0`` times untraced solves and prints the end-to-end metrics:
``setup_s``, the median over solves of the time from hand-off to the first
callback, minus the run's median steady iteration; ``iter_s.min``, the
fastest steady iteration; and ``peak_rss_mb``, the process's resident
high-water mark before the reference run.  A shared host slows whole
stretches of a run down by up to half, which moves a run's median and tail
iteration by 20-30% from one run to the next; the fastest iteration moves
by about a tenth.  So the median solve and the p50 and p75 iteration are
printed beside the metrics with their sample counts, but do not gate.

``--trace 1`` interleaves untraced and traced solves and prints the
per-layer metrics: a traced solve records spans from this benchmark's own
wrappers around the library's module seams (see ``ledger.py``).  The
library's telemetry (every ``REPRO_*`` variable) is off in both.

Every solve passes the correctness gate or counts as failed: its final fit
is finite, its first ``REF_ITERS`` fits match a ``reference``-kernel run on
the same inputs within ``FIT_RTOL``, and its factors are bitwise identical
to the run's first solve (traced or not).  A traced solve must also close
its layer ledger within ``LEDGER_TOL`` of its wall time, and its exact
counts must repeat across the run's traced solves and across runs of the
same workload, seed and library source (``.perfbench-out/counts.json``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes
``.perfbench-out/<workload>-seed<seed>-trace<t>.json`` with the sample
counts, the environment and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: solves per run, at least (``setup_s`` is their median).
MIN_SOLVES = 3
#: traced solves per ``--trace 1`` run, at least.
MIN_TRACED = 2
#: steady iterations per run, at least: 44 leave >= 10 above the p75.
MIN_SAMPLES = 44
#: iterations of the reference-kernel run each solve's fits are checked on.
REF_ITERS = 2
FIT_RTOL = 1e-8
#: largest share of a traced solve's wall time its layers may leave uncovered.
LEDGER_TOL = 0.05
#: stop starting solves after this long, enough samples or not.
HARD_CAP_S = 130.0

END_TO_END = {
    "setup_s": "s",
    "iter_s.min": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; ``/iter`` values are medians over steady
#: iterations of traced solves, the rest medians over traced solves.
PER_LAYER = {
    "core.coo.build_s": "s",
    "core.cpals.init_s": "s",
    "model.planner.plan_s": "s",
    "model.overlap.count_s": "s",
    "model.planner.candidates": "count",
    "model.overlap.distinct_counts": "count",
    "core.symbolic.build_s": "s",
    "core.symbolic.index_bytes": "B",
    "kernels.indices.build_s": "s",
    "kernels.indices.bytes": "B",
    "core.engine.mttkrp_s": "s/iter",
    "kernels.rebuild_s": "s/iter",
    "core.engine.mttkrp_self_s": "s/iter",
    "core.engine.node_builds": "count/iter",
    "core.engine.flops": "count/iter",
    "core.engine.words": "count/iter",
    "core.engine.live_value_bytes_peak": "B",
    "kernels.bytes_computed": "B/iter",
    "kernels.flops_per_byte": "flop/B",
    "linalg.gram_s": "s/iter",
    "linalg.solve_s": "s/iter",
    "linalg.normalize_s": "s/iter",
    "linalg.fit_s": "s/iter",
    "linalg.pinv_fallbacks": "count",
    "core.cpals.other_s": "s/iter",
    "parallel.engine_build_s": "s",
    "parallel.mttkrp_s": "s/iter",
    "parallel.close_s": "s",
    "trace.overhead": "ratio",
    "trace.ledger_gap": "share",
}

#: counts that must repeat exactly, per workload and seed.
EXACT = ("model.planner.candidates", "model.overlap.distinct_counts",
         "core.engine.node_builds", "core.engine.flops", "core.engine.words",
         "core.engine.live_value_bytes_peak", "linalg.pinv_fallbacks")


def _no_span(name):
    return nullcontext()


class Solve:
    """Timings and outputs of one solve."""

    def __init__(self, wall, first, marks, fits, digest, strategy,
                 mode_order, log=None, probe=None, snaps=None,
                 index_bytes=0):
        self.wall = wall
        #: seconds from hand-off to the first ``cp_als`` callback.
        self.first = first
        self.deltas = [b - a for a, b in zip(marks, marks[1:])]
        self.fits = fits
        self.digest = digest
        self.strategy = strategy
        self.mode_order = mode_order
        self.log = log
        self.probe = probe
        self.snaps = snaps or []
        self.kernel_index_bytes = index_bytes


def run_solve(wl, inputs, seed, *, log=None) -> Solve:
    """Hand ``inputs`` to ``CooTensor``, run ``cp_als``, close engines."""
    from ledger import CPALS, ROOT as ROOT_SPAN, Probe
    from repro.core.coo import CooTensor
    from repro.core.cpals import cp_als
    from repro.core.strategy import resolve_strategy
    from repro.perf import counters as perf
    from workloads import RANK, tier_engine

    idx, vals, shape = inputs
    span = log.span if log is not None else _no_span
    marks: list[float] = []
    snaps: list[dict] = []
    engines: list = []
    counters = None

    def callback(iteration, fit, model):
        marks.append(time.perf_counter())
        if log is not None:
            log.end_iteration()
            snaps.append(counters.snapshot())

    factory = None
    probe_cm = Probe(log) if log is not None else nullcontext()
    with probe_cm as probe:
        if wl.workers is not None:
            def factory(tensor):
                engine = tier_engine(tensor, wl.workers, span)
                engines.append(engine)
                if probe is not None:
                    probe.wrap_parallel_engine(engine)
                return engine

        counting = perf.counting() if log is not None else nullcontext()
        with counting as counters:
            t0 = time.perf_counter()
            with span(ROOT_SPAN):
                with span("core.coo.build"):
                    tensor = CooTensor(idx, vals, shape)
                try:
                    with span(CPALS):
                        result = cp_als(
                            tensor, RANK, strategy=wl.strategy,
                            n_iter_max=wl.n_iter, tol=0,
                            random_state=seed, callback=callback,
                            engine_factory=factory,
                        )
                finally:
                    if engines:
                        with span("parallel.close"):
                            for engine in engines:
                                engine.close()
            wall = time.perf_counter() - t0

    kt = result.ktensor
    digest = hashlib.sha256(kt.weights.tobytes())
    for U in kt.factors:
        digest.update(U.tobytes())
    if engines:
        engine = engines[0]
        strategy = getattr(engine, "strategy", None)
        mode_order = tuple(engine.mode_order)
    else:
        strategy = (result.planner_report.best.strategy
                    if result.planner_report is not None
                    else resolve_strategy(wl.strategy, tensor.ndim))
        mode_order = tuple(strategy.mode_order)
    index_bytes = 0
    if probe is not None:
        index_bytes = sum(e.symbolic.kernel_index_nbytes()
                          for e in probe.engines + engines
                          if hasattr(e, "symbolic"))
    return Solve(wall, marks[0] - t0, marks, list(result.fits),
                 digest.hexdigest(), strategy, mode_order, log=log,
                 probe=probe, snaps=snaps, index_bytes=index_bytes)


def reference_fits(wl, inputs, seed, solve: Solve) -> list[float]:
    """Fits of the first ``REF_ITERS`` iterations on the ``reference``
    kernel, same inputs, initialisation and mode order as ``solve``."""
    from repro.core.coo import CooTensor
    from repro.core.cpals import cp_als
    from repro.core.engine import MemoizedMttkrp
    from repro.core.strategy import resolve_strategy
    from workloads import RANK

    idx, vals, shape = inputs
    tensor = CooTensor(idx, vals, shape)
    strategy = solve.strategy or resolve_strategy("star", tensor.ndim)
    if tuple(strategy.mode_order) != solve.mode_order:
        raise RuntimeError(
            f"no reference strategy with mode order {solve.mode_order}")
    result = cp_als(
        tensor, RANK, n_iter_max=REF_ITERS, tol=0, random_state=seed,
        engine_factory=lambda t: MemoizedMttkrp(t, strategy,
                                                kernel="reference"),
    )
    return list(result.fits)


def steady(solves) -> list[float]:
    """Callback-to-callback seconds of iterations >= 1, pooled."""
    return [d for s in solves for d in s.deltas]


def measure(wl, inputs, seed, seconds, trace):
    """Untraced (and, with ``trace``, interleaved traced) solves."""
    from ledger import SpanLog

    run_id = uuid.uuid4().hex[:12]
    untraced: list[Solve] = []
    traced: list[Solve] = []
    start = time.perf_counter()
    while True:
        if trace:
            # Alternate which of the pair goes first.
            for is_traced in ((False, True) if len(traced) % 2 == 0
                              else (True, False)):
                if is_traced:
                    traced.append(run_solve(wl, inputs, seed,
                                            log=SpanLog(run_id)))
                else:
                    untraced.append(run_solve(wl, inputs, seed))
            enough = len(traced) >= MIN_TRACED
        else:
            untraced.append(run_solve(wl, inputs, seed))
            enough = (len(untraced) >= MIN_SOLVES
                      and len(steady(untraced)) >= MIN_SAMPLES)
        elapsed = time.perf_counter() - start
        if enough and elapsed >= seconds:
            return run_id, untraced, traced
        if elapsed > HARD_CAP_S:
            raise RuntimeError(
                f"{wl.name}: not enough solves after {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(untraced) -> tuple[dict, dict, dict]:
    """End-to-end metric values, their sample counts, and the timings
    printed beside them ``{name: (value, unit, samples)}``."""
    deltas = steady(untraced)
    p50 = statistics.median(deltas)
    p75 = statistics.quantiles(deltas, n=4)[2]
    above = sum(d > p75 for d in deltas)
    if above < 10:
        raise RuntimeError(f"only {above} samples above the p75")
    setups = [s.first - p50 for s in untraced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setups),
        "iter_s.min": min(deltas),
        "peak_rss_mb": rss_mb,
    }
    counts = {
        "setup_s": len(untraced),
        "iter_s.min": len(deltas), "peak_rss_mb": 1,
    }
    beside = {
        "solve_s.p50": (statistics.median(s.wall for s in untraced), "s",
                        len(untraced)),
        "iter_s.p50": (p50, "s", len(deltas)),
        "iter_s.p75": (p75, "s", len(deltas)),
    }
    return values, counts, beside


def iteration_counts(snaps) -> list[tuple]:
    """Per-iteration (node_builds, flops, words) from cumulative snapshots."""
    keys = ("node_builds", "flops", "words")
    out = []
    for prev, cur in zip(snaps, snaps[1:]):
        out.append(tuple(cur.get(k, 0) - prev.get(k, 0) for k in keys))
    return out


def exact_counts(solve: Solve) -> dict:
    """The solve's exact counts; raises if its steady iterations differ."""
    per_iter = iteration_counts(solve.snaps)
    if len(set(per_iter)) > 1:
        raise ValueError(f"per-iteration counts differ: {set(per_iter)}")
    builds, flops, words = per_iter[0] if per_iter else (0, 0, 0)
    return {
        "model.planner.candidates": solve.probe.candidates,
        "model.overlap.distinct_counts": solve.probe.distinct_counts,
        "core.engine.node_builds": builds,
        "core.engine.flops": flops,
        "core.engine.words": words,
        "core.engine.live_value_bytes_peak": solve.probe.live_peak,
        "linalg.pinv_fallbacks": solve.snaps[-1].get("pinv_fallbacks", 0),
    }


def per_layer(untraced, traced, ledgers, counts) -> tuple[dict, dict]:
    """Per-layer metric values and their sample counts."""
    from ledger import median_or_zero
    from repro.core.dtypes import VALUE_ITEMSIZE

    iters = [it for led in ledgers for it in led["iterations"][1:]]

    def per_iter(key):
        return median_or_zero(it.get(key, 0.0) for it in iters)

    def once(key):
        return median_or_zero(led["once"].get(key, 0.0) for led in ledgers)

    # Computed, not measured: the engine's value words times their size,
    # plus one read of every kernel index per iteration.
    words = counts["core.engine.words"]
    index_bytes = traced[0].kernel_index_bytes
    bytes_computed = words * VALUE_ITEMSIZE + index_bytes if words else 0
    values = dict(counts)
    values.update({
        "core.coo.build_s": once("core.coo.build"),
        "core.cpals.init_s": once("core.cpals.init"),
        "model.planner.plan_s": once("model.planner.plan"),
        "model.overlap.count_s": once("model.overlap.count"),
        "core.symbolic.build_s": once("core.symbolic.build"),
        "core.symbolic.index_bytes": traced[0].probe.index_bytes,
        "kernels.indices.build_s": once("kernels.indices.build"),
        "kernels.indices.bytes": index_bytes,
        "core.engine.mttkrp_s": per_iter("core.engine.mttkrp.inclusive"),
        "kernels.rebuild_s": per_iter("kernels.rebuild.inclusive"),
        "core.engine.mttkrp_self_s": per_iter("core.engine.mttkrp"),
        "kernels.bytes_computed": bytes_computed,
        "kernels.flops_per_byte": (counts["core.engine.flops"] / bytes_computed
                                   if bytes_computed else 0.0),
        "linalg.gram_s": per_iter("linalg.gram"),
        "linalg.solve_s": per_iter("linalg.solve"),
        "linalg.normalize_s": per_iter("linalg.normalize"),
        "linalg.fit_s": per_iter("linalg.fit"),
        "core.cpals.other_s": per_iter("core.cpals.other"),
        "parallel.engine_build_s": once("parallel.engine_build"),
        "parallel.mttkrp_s": per_iter("parallel.mttkrp.inclusive"),
        "parallel.close_s": once("parallel.close"),
        "trace.overhead": (statistics.median(s.wall for s in traced)
                           / statistics.median(s.wall for s in untraced)),
        "trace.ledger_gap": max(led["gap"] for led in ledgers),
    })
    n = {name: len(iters) if unit == "s/iter" else len(traced)
         for name, unit in PER_LAYER.items()}
    n["trace.overhead"] = len(traced) + len(untraced)
    return values, n


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the library NumPy loaded, if findable."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(wl) -> dict:
    import numpy as np
    import scipy

    from repro.kernels import get_kernel
    from workloads import RANK

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    l3 = _l3_bytes()
    largest = wl.nnz * RANK * 8
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "kernel_backend": get_kernel(None).name,
        "largest_value_matrix_bytes": largest,
        "value_matrix_vs_l3": (None if l3 is None else
                               "in-cache" if largest <= l3 else
                               "out-of-cache"),
    }


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """Hash of the library source: exact counts are compared per code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(key: str, counts: dict) -> str | None:
    """Compare exact counts with earlier runs of the same workload, seed
    and library source."""
    path = OUT / "counts.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.get(key)
    if seen is not None and seen != counts:
        return f"exact counts changed since an earlier run: {seen} -> {counts}"
    if seen is None:
        ledger[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return None


def gate(untraced, traced, ref, workload, seed):
    """Check every solve: returns the number of failed solves, the failure
    reasons, each traced solve's ledger and the run's exact counts."""
    import numpy as np

    from ledger import solve_ledger

    solves = untraced + traced
    first = solves[0].digest
    failures: dict[int, list[str]] = {id(s): [] for s in solves}
    for s in solves:
        why = failures[id(s)]
        if not np.isfinite(s.fits[-1]):
            why.append(f"final fit {s.fits[-1]} is not finite")
        got = np.array(s.fits[:len(ref)])
        if not np.allclose(got, ref, rtol=FIT_RTOL, atol=0.0):
            why.append(f"fits {got.tolist()} differ from reference {ref}")
        if s.digest != first:
            why.append("factors differ bitwise from the run's first solve")
    ledgers, counts = [], None
    for s in traced:
        why = failures[id(s)]
        led = solve_ledger(s.log.spans)
        ledgers.append(led)
        if led["gap"] > LEDGER_TOL:
            why.append(f"layers leave {led['gap']:.1%} of the wall time "
                       f"uncovered (> {LEDGER_TOL:.0%})")
        try:
            c = exact_counts(s)
        except ValueError as exc:
            why.append(str(exc))
            continue
        if counts is None:
            counts = c
        elif c != counts:
            why.append(f"exact counts {c} differ from {counts}")
    if counts is not None:
        problem = check_counts(
            f"{workload}/seed{seed}/src-{source_digest()}", counts)
        if problem:
            for s in traced:
                failures[id(s)].append(problem)
    reasons = [r for s in solves for r in failures[id(s)]]
    n_failed = sum(bool(failures[id(s)]) for s in solves)
    return n_failed, reasons, ledgers, counts


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _child_pids() -> list[int]:
    """Live direct children of this process (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name may hold spaces: fields start after ")".
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> None:
    """End every process this run started, and wait for each.

    Tier engines join their pool workers on close, but the process tier's
    shared-memory segments start ``multiprocessing``'s resource tracker,
    which would outlive this process by a moment; it is stopped here.
    Anything else still running is terminated.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass

def run_one(args) -> int:
    from workloads import RANK, WORKLOADS, make_inputs

    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed)
    run_id, untraced, traced = measure(wl, inputs, args.seed, args.seconds,
                                       bool(args.trace))
    beside: dict = {}
    if not args.trace:
        # Peak RSS before the reference run.
        values, n, beside = end_to_end(untraced)
    ref = reference_fits(wl, inputs, args.seed, untraced[0])
    n_failed, reasons, ledgers, counts = gate(untraced, traced, ref,
                                              wl.name, args.seed)
    correct = n_failed == 0
    if args.trace:
        if counts is None:
            counts = {name: 0 for name in EXACT}
        values, n = per_layer(untraced, traced, ledgers, counts)
        units = PER_LAYER
    else:
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    attempted = len(untraced) + len(traced)

    env = environment(wl)
    OUT.mkdir(exist_ok=True)
    artifact = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "run_id": run_id,
        "n_iter": wl.n_iter, "rank": RANK, "strategy": getattr(
            untraced[0].strategy, "name", None),
        "environment": env,
        "metrics": {name: {**m, "samples": n[name]}
                    for name, m in metrics.items()},
        "not_gated": {name: {"value": v, "unit": u, "samples": k}
                      for name, (v, u, k) in beside.items()},
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "failures": reasons,
        "spans": [s.log.to_json() for s in traced],
    }
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact))

    print(f"{wl.name} seed={args.seed} trace={args.trace} run={run_id}: "
          f"{len(untraced)} untraced + {len(traced)} traced solves x "
          f"{wl.n_iter} iterations, strategy {artifact['strategy']}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:10s} "
              f"n={n[name]}")
    for name, (value, unit, k) in beside.items():
        print(f"  {name:36s} {value:>14.6g} {unit:10s} n={k} (not gated)")
    for reason in reasons[:10]:
        print(f"  FAILED: {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    status = 0
    print(f"{'workload':16s} {'metric':36s} {'value':>14s} {'unit':10s} n")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        artifact = json.loads(
            (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json")
            .read_text())
        rows = list(artifact["metrics"].items())
        rows += [(f"{k} (not gated)", m)
                 for k, m in artifact["not_gated"].items()]
        for metric, m in rows:
            print(f"{name:16s} {metric:36s} {m['value']:>14.6g} "
                  f"{m['unit']:10s} {m['samples']}")
        print(f"{name:16s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    # The library sees only the generated inputs: no REPRO_* settings
    # (telemetry, kernel, workers, machine model) leak in from outside.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from repro.obs import attribution, events, health, memory, trace

    on = [m.__name__ for m in (attribution, events, health, memory, trace)
          if m.enabled()]
    if on:
        print(f"perfbench: library telemetry is on: {on}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
