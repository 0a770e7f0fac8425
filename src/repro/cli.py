"""Command-line interface: decompose / plan / complete / inspect tensors.

Usage::

    python -m repro decompose data.tns --rank 16 --out factors.npz
    python -m repro plan data.tns --rank 16 --top 8
    python -m repro complete ratings.tns --rank 8 --test-fraction 0.2
    python -m repro info delicious --scale 0.2
    python -m repro datasets
    python -m repro trace --trace-dir out/ decompose data.tns --rank 16
    python -m repro profile --trace-dir out/ decompose data.tns --rank 16
    python -m repro report out/trace.jsonl
    python -m repro serve --port 9464 decompose data.tns --rank 16
    python -m repro tail out/events.jsonl

Tensor inputs are ``.tns``/``.tns.gz`` (FROSTT), ``.npz`` (this library's
cache format), or a registry dataset name (generated on the fly; use
``--scale``).

``repro trace <command> ...`` runs any other subcommand with the span
tracer, memory tracker, and metrics registry enabled and writes
``trace.chrome.json`` (Chrome ``trace_event`` format — load in
``chrome://tracing`` or Perfetto, with a live-bytes counter track),
``trace.jsonl``, ``memory.json``, ``metrics.json``, and a text summary;
``repro profile <command>`` (or ``repro trace --profile``) additionally
runs the sampling stack profiler and writes ``profile.json`` +
``profile.folded`` (span-joined flamegraph data; see
``docs/observability.md``).  ``repro report`` pretty-prints a saved
JSONL trace (including per-worker pool utilization when the trace has
``pool_task`` spans, and the profiler's top-hotspots table when one was
recorded).  ``repro
serve`` exposes an OpenMetrics endpoint (``/metrics`` + ``/healthz`` +
``/runz``) either around a wrapped subcommand or over saved trace
artifacts; ``repro tail`` renders an ``events.jsonl`` structured event
log.  ``repro bench-diff``
compares benchmark history entries against the stored baseline with the
noise-aware comparator (see ``docs/benchmarking.md``) and exits non-zero
on regression; ``repro dashboard`` renders history + memory + trace into
one self-contained HTML file.  ``--log-level`` controls the ``repro.*``
loggers (the drift watchdog logs there), and ``--version`` prints build
info (version, git revision, toolchain).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

import numpy as np

from .core.coo import CooTensor


def load_input(path_or_name: str, scale: float = 1.0) -> CooTensor:
    """Resolve a CLI tensor argument to a CooTensor."""
    from .io.cache import load_npz
    from .io.frostt import read_tns
    from .synth.datasets import dataset_names, load_dataset

    lower = path_or_name.lower()
    if lower.endswith((".tns", ".tns.gz")):
        return read_tns(path_or_name)
    if lower.endswith(".npz"):
        return load_npz(path_or_name)
    if path_or_name in dataset_names():
        return load_dataset(path_or_name, scale=scale)
    if os.path.exists(path_or_name):
        raise ValueError(
            f"unrecognized tensor file extension: {path_or_name!r} "
            "(expected .tns, .tns.gz, or .npz)"
        )
    raise ValueError(
        f"{path_or_name!r} is neither an existing file nor a registry "
        f"dataset; datasets: {', '.join(dataset_names())}"
    )


def _save_model(model, path: str) -> None:
    from .io.model import save_model

    save_model(model, path)


def cmd_info(args) -> int:
    tensor = load_input(args.input, args.scale)
    print(tensor)
    print(f"  shape      : {tensor.shape}")
    print(f"  nnz        : {tensor.nnz:,}")
    print(f"  density    : {tensor.density:.3e}")
    print(f"  fro norm   : {tensor.norm():.6g}")
    print(f"  memory     : {tensor.nbytes() / 1e6:.2f} MB (COO)")
    from .core.stats import mode_skew, pairwise_overlap

    for n in range(tensor.ndim):
        used = int((tensor.slice_nnz(n) > 0).sum())
        skew = mode_skew(tensor, n)
        print(f"  mode {n}: size {tensor.shape[n]:>8,}  used slices "
              f"{used:,}  skew {skew:.2f}")
    if tensor.ndim >= 2 and tensor.nnz:
        overlaps = pairwise_overlap(tensor)
        best_pair = max(overlaps, key=overlaps.get)
        print(f"  max pairwise overlap: {overlaps[best_pair]:.2f} "
              f"(modes {best_pair[0]},{best_pair[1]})")
    return 0


def cmd_datasets(args) -> int:
    from .model.report import format_table
    from .synth.datasets import dataset_names, get_spec

    rows = []
    for name in dataset_names():
        spec = get_spec(name)
        rows.append([
            name,
            spec.order,
            "x".join(map(str, spec.shape)),
            spec.nnz,
            spec.analog_of or "synthetic",
        ])
    print(format_table(
        ["name", "order", "shape (scale=1)", "nnz", "analog of"], rows
    ))
    return 0


def cmd_plan(args) -> int:
    from .model.calibrate import calibrate_machine
    from .model.planner import plan

    tensor = load_input(args.input, args.scale)
    machine = calibrate_machine() if args.calibrate else None
    if args.explain or args.json:
        from .obs.explain import explain_plan
        from .parallel.pool import resolve_worker_count

        expl = explain_plan(
            tensor, args.rank, memory_budget=args.memory_budget,
            machine=machine,
            n_workers=resolve_worker_count(args.workers),
        )
        if args.json:
            import json as _json

            print(_json.dumps(
                expl.to_artifact(input=args.input, scale=args.scale),
                indent=2,
            ))
        else:
            print(expl.summary(top=args.top))
        return 0
    report = plan(
        tensor, args.rank, memory_budget=args.memory_budget, machine=machine
    )
    print(report.summary(top=args.top))
    best = report.best
    print(f"\nselected: {best.strategy.name}  "
          f"spec={best.strategy.to_nested()}")
    return 0


def cmd_explain(args) -> int:
    from .model.calibrate import calibrate_machine
    from .obs.explain import explain_plan, validate_plan_artifact
    from .parallel.pool import resolve_worker_count

    tensor = load_input(args.input, args.scale)
    machine = calibrate_machine() if args.calibrate else None
    expl = explain_plan(
        tensor, args.rank, memory_budget=args.memory_budget, machine=machine,
        n_workers=resolve_worker_count(args.workers),
    )
    measured = None
    if args.measure:
        from .core.cpals import cp_als
        from .obs import attribution as obs_attr

        with obs_attr.recording() as rec:
            cp_als(
                tensor, args.rank, strategy=expl.report.best.strategy,
                n_iter_max=args.iters, tol=0.0, random_state=args.seed,
            )
        measured = rec.snapshot()
    artifact = expl.to_artifact(input=args.input, scale=args.scale)
    if measured is not None:
        artifact["result"]["measured"] = measured
    validate_plan_artifact(artifact)
    import json as _json

    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(artifact, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(_json.dumps(artifact, indent=2))
        return 0
    print(expl.summary(top=args.top))
    if measured is not None:
        from .obs.attribution import format_attribution

        rendered = format_attribution(measured)
        if rendered:
            print()
            print(rendered)
    if args.out:
        print(f"\nwrote {args.out}")
    return 0


def cmd_decompose(args) -> int:
    tensor = load_input(args.input, args.scale)
    if args.nonneg:
        from .algos.ncp import cp_nmu

        result = cp_nmu(
            tensor, args.rank, strategy=args.strategy
            if args.strategy != "auto" else "bdt",
            n_iter_max=args.iters, tol=args.tol, random_state=args.seed,
        )
    else:
        from .core.cpals import cp_als

        tier, layout = args.tier, args.layout
        if tier == "auto" and (layout != "auto" or args.workers is not None):
            # A layout or worker request implies an execution decision:
            # let the model pick the tier for it.
            from .model.cost import recommend_execution
            from .parallel.pool import resolve_worker_count

            rec = recommend_execution(
                tensor.shape, tensor.nnz, args.rank,
                resolve_worker_count(args.workers),
            )
            tier = rec.tier
            if layout == "auto":
                layout = rec.layout
            print(f"model picked tier={tier} layout={layout}")
        closeables: list = []
        engine_factory = None
        if tier == "process":
            from .model.cost import recommend_execution
            from .parallel.pool import resolve_worker_count
            from .parallel.procpool import ProcessMttkrp

            def engine_factory(t, _layout=layout):
                if _layout == "auto":
                    _layout = recommend_execution(
                        t.shape, t.nnz, args.rank,
                        resolve_worker_count(args.workers),
                    ).layout
                engine = ProcessMttkrp(t, args.workers, layout=_layout)
                closeables.append(engine)
                return engine
        elif tier == "thread" and layout == "alto":
            from .parallel.procpool import AltoCooMttkrp

            def engine_factory(t):
                engine = AltoCooMttkrp(t, args.workers)
                closeables.append(engine)
                return engine
        elif args.workers is not None and args.workers > 1:
            # Parallel memoized engine: resolve 'auto' through the planner
            # here, since engine_factory bypasses cp_als's own planning path.
            def engine_factory(t, _w=args.workers):
                from .parallel.engine import ParallelMemoizedMttkrp

                strategy = args.strategy
                if isinstance(strategy, str) and strategy.lower() == "auto":
                    from .model.planner import plan

                    strategy = plan(t, args.rank).best.strategy
                return ParallelMemoizedMttkrp(
                    t, strategy, n_workers=_w,
                    min_chunk_rows=args.min_chunk_rows,
                )

        try:
            result = cp_als(
                tensor, args.rank, strategy=args.strategy,
                n_iter_max=args.iters, tol=args.tol, random_state=args.seed,
                engine_factory=engine_factory,
            )
        finally:
            for engine in closeables:
                engine.close()
    print(f"strategy   : {result.strategy_name}")
    print(f"iterations : {result.n_iterations} (converged={result.converged})")
    print(f"fit        : {result.fit:.6f}")
    if args.out:
        _save_model(result.ktensor, args.out)
        print(f"model written to {args.out}")
    return 0


def cmd_complete(args) -> int:
    from .algos.completion import complete, holdout_split

    tensor = load_input(args.input, args.scale)
    if args.test_fraction > 0:
        train, test_idx, test_vals = holdout_split(
            tensor, args.test_fraction, random_state=args.seed
        )
    else:
        train, test_idx, test_vals = tensor, None, None
    result = complete(
        train, args.rank, n_iter_max=args.iters, tol=args.tol,
        learning_rate=args.learning_rate, random_state=args.seed,
    )
    print(f"strategy    : {result.strategy_name}")
    print(f"epochs      : {result.n_iterations} "
          f"(converged={result.converged})")
    print(f"train RMSE  : {result.rmse:.6g}")
    if test_idx is not None:
        pred = result.predict(test_idx)
        rmse = float(np.sqrt(np.mean((pred - test_vals) ** 2)))
        print(f"test RMSE   : {rmse:.6g} "
              f"({test_idx.shape[0]:,} held-out entries)")
    if args.out:
        _save_model(result.ktensor, args.out)
        print(f"model written to {args.out}")
    return 0


def cmd_trace(args) -> int:
    from .obs.artifacts import write_trace_dir
    from .obs.seam import session

    verb = getattr(args, "verb", "trace")
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest.pop(0)
    if not rest:
        raise ValueError(
            f"{verb}: missing command to run, e.g. "
            f"'repro {verb} decompose data.tns --rank 16'"
        )
    if rest[0] in ("trace", "profile", "report", "bench-diff", "dashboard",
                   "serve", "tail"):
        raise ValueError(f"{verb}: cannot {verb} the {rest[0]!r} command")
    inner = build_parser().parse_args(rest)
    os.makedirs(args.trace_dir, exist_ok=True)
    with session(rest[0], sample_tracemalloc=True,
                 profile=bool(getattr(args, "profile", False)),
                 profile_hz=getattr(args, "profile_hz", None)) as run:
        rc = inner.fn(inner)
    written, notes = write_trace_dir(args.trace_dir, run)
    for note in notes:
        print(note)
    print("\nwrote " + ", ".join(written))
    return rc


def cmd_profile(args) -> int:
    """``repro profile <cmd>``: ``repro trace`` with the sampler forced on."""
    args.profile = True
    args.verb = "profile"
    return cmd_trace(args)


def cmd_report(args) -> int:
    from .obs.artifacts import TraceArtifacts, registry

    arts = TraceArtifacts.at(args.trace)
    primary = registry()[0].name
    if not arts.exists(primary):
        raise FileNotFoundError(f"no trace file at {arts.path(primary)!r} "
                                "(run 'repro trace <command>' first)")
    for art in registry():
        text = art.report(arts, args) if art.report else None
        if text is not None:
            print(text)
    for filename, reason in arts.skipped:
        print(f"warning: skipped malformed {filename}: {reason}",
              file=sys.stderr)
    return 0


def cmd_roofline(args) -> int:
    from .model.calibrate import calibrate_roofline, default_machine_path
    from .obs.roofline import (publish_roofline_gauges, report_from_trace_dir,
                               roofline_report)

    path = args.out or default_machine_path()
    roofline = calibrate_roofline(
        force=args.force, quick=args.quick, path=path,
        max_threads=args.max_threads,
    )
    if args.trace_dir:
        report = report_from_trace_dir(args.trace_dir, roofline)
    else:
        report = roofline_report([], roofline)
    publish_roofline_gauges(report.roofline, report.configs)
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        print(f"\nmachine artifact: {path}")
    return 0


def cmd_bench_diff(args) -> int:
    from .obs.history import BenchHistory, compare, format_diff_table

    history = BenchHistory(args.history).entries()
    if args.current:
        current = BenchHistory(args.current).entries()
    else:
        # No separate run file: the newest run recorded in the history
        # itself is the "current" run, everything before it the baseline.
        if not history:
            print(f"error: no benchmark history at {args.history} — run a "
                  "benchmark first (e.g. 'python benchmarks/"
                  "bench_kernels.py') or pass --history",
                  file=sys.stderr)
            return 2
        last_run = history[-1].run_id
        current = [e for e in history if e.run_id == last_run]
    if not current:
        print("error: no current entries to compare", file=sys.stderr)
        return 2
    results = compare(current, history, rel_band=args.band, k=args.k)
    if args.json:
        import json as _json

        print(_json.dumps([r.to_dict() for r in results], indent=2))
    else:
        print(format_diff_table(results))
    return 1 if any(r.status == "regression" for r in results) else 0


def cmd_serve(args) -> int:
    from .obs.seam import session
    from .obs.serve import ObsServer, load_trace_dir

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest.pop(0)
    if rest and rest[0] in ("trace", "profile", "serve", "tail", "report",
                            "bench-diff", "dashboard"):
        raise ValueError(f"serve: cannot wrap the {rest[0]!r} command")

    try:
        server = ObsServer(port=args.port, host=args.host)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2

    if not rest:
        # Artifact mode: reconstruct metrics/events/run state from a
        # 'repro trace' output directory, then serve it until killed.
        loaded = load_trace_dir(args.trace_dir)
        print(f"loaded {loaded['spans']} spans, {loaded['events']} events, "
              f"{loaded['gauges']} gauges from {args.trace_dir}")
        print(f"serving {server.url}/metrics (also /healthz, /runz); "
              "Ctrl-C to stop")
        server.serve_forever()
        return 0

    # Wrap mode: run another subcommand with telemetry on and the
    # endpoint live for the duration (mirrors 'repro trace' enablement).
    inner = build_parser().parse_args(rest)
    with session(rest[0]) as run:
        server.start()
        print(f"serving {server.url}/metrics (also /healthz, /runz) "
              f"for the duration of the command ({run.run_id})")
        try:
            rc = inner.fn(inner)
        finally:
            server.stop()
    return rc


def cmd_tail(args) -> int:
    from .obs.events import format_event, read_events, validate_events

    path = args.events
    if os.path.isdir(path):
        path = os.path.join(path, "events.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no event log at {path!r} (run with "
                                "REPRO_EVENTS=1 under 'repro trace', or "
                                "point REPRO_EVENTS at a sink path)")
    events = read_events(path)
    problems = validate_events(events)
    shown = events if args.n is None else events[-args.n:]
    for event in shown:
        print(format_event(event))
    if problems:
        print(f"warning: {len(problems)} schema problems "
              f"(first: {problems[0]})", file=sys.stderr)
    if not args.follow:
        return 1 if problems else 0
    # Follow mode: poll for appended lines (the sink flushes per event).
    with open(path) as fh:
        fh.seek(0, os.SEEK_END)
        try:
            while True:
                line = fh.readline()
                if not line:
                    time.sleep(args.interval)
                    continue
                line = line.strip()
                if line:
                    import json as _json

                    print(format_event(_json.loads(line)), flush=True)
        except KeyboardInterrupt:
            return 0


def cmd_dashboard(args) -> int:
    from .obs.dashboard import write_dashboard
    from .obs.export import kind_table, tree_summary
    from .obs.history import BenchHistory, compare

    entries = BenchHistory(args.history).entries()
    diffs = []
    if entries:
        last_run = entries[-1].run_id
        current = [e for e in entries if e.run_id == last_run]
        diffs = compare(current, entries, rel_band=args.band, k=args.k)

    panels: dict = {"memory_readings": []}
    skipped: list[tuple[str, str]] = []
    if args.trace_dir and os.path.isdir(args.trace_dir):
        from .obs.artifacts import TraceArtifacts
        from .obs.roofline import report_from_trace_dir

        arts = TraceArtifacts(args.trace_dir)
        panels = {"memory_readings": arts.memory() or [],
                  "attribution": arts.attribution(),
                  "profile": arts.profile(), "health": arts.health()}
        roofline_report = report_from_trace_dir(args.trace_dir, arts=arts)
        if roofline_report.calibrated or roofline_report.configs:
            panels["roofline"] = roofline_report.to_dict()
        spans = arts.spans()
        if spans is not None:
            from .obs.utilization import utilization_from_spans

            panels.update(
                kind_table_text=kind_table(spans),
                trace_summary=tree_summary(spans),
                utilization=utilization_from_spans(spans),
                pool_tasks=[
                    {"worker": rec.attrs.get("worker", 0), "t0": rec.t0,
                     "t1": rec.t1,
                     "queue_wait": rec.attrs.get("queue_wait", 0.0),
                     "parent": rec.parent}
                    for rec in spans
                    if rec.kind == "pool_task" and rec.t1 is not None
                ],
            )
        skipped = arts.skipped

    out = write_dashboard(args.out, history_entries=entries, diffs=diffs,
                          **panels)
    print(f"wrote {out} ({len(entries)} history entries, "
          f"{len(panels['memory_readings'])} memory readings)")
    for filename, reason in skipped:
        print(f"warning: skipped malformed {filename}: {reason}",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .obs.buildinfo import version_string

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=version_string())
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="configure the 'repro' loggers (default: leave logging as-is)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="tensor file or registry dataset name")
        p.add_argument("--scale", type=float, default=1.0,
                       help="scale for registry datasets")

    p = sub.add_parser("info", help="print tensor statistics")
    add_input(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("datasets", help="list registry datasets")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("plan", help="rank memoization strategies")
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--memory-budget", type=int, default=None,
                   help="cap on memoization memory (bytes)")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--calibrate", action="store_true",
                   help="micro-benchmark this machine first")
    p.add_argument("--json", action="store_true",
                   help="machine-readable repro-plan/v1 artifact in the "
                   "repro-bench/v1 envelope")
    p.add_argument("--explain", action="store_true",
                   help="full decision trace: margins, dominant cost "
                   "terms, the winner's per-node predicted costs")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the execution tier/layout "
                   "decision (default: REPRO_WORKERS, else cpu count)")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "explain",
        help="explain a plan: full candidate search + per-node costs",
        description="Run the planner and keep the whole decision trace: "
        "every candidate with its tree shape, per-node and per-mode "
        "predicted flop/word/byte terms, the winner's margin over each "
        "runner-up and which cost term dominates it.  --measure then runs "
        "CP-ALS on the winner with cost attribution enabled and appends "
        "the measured per-node breakdown (exact flop alignment on the "
        "numpy backend).  --json emits the repro-plan/v1 artifact in the "
        "shared repro-bench/v1 envelope.",
    )
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--memory-budget", type=int, default=None,
                   help="cap on memoization memory (bytes)")
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--calibrate", action="store_true",
                   help="micro-benchmark this machine first")
    p.add_argument("--measure", action="store_true",
                   help="run CP-ALS on the winner and attach the measured "
                   "per-node attribution")
    p.add_argument("--iters", type=int, default=3,
                   help="iterations for --measure (default: 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the artifact JSON instead of tables")
    p.add_argument("--out", default=None,
                   help="also write the artifact JSON to this path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the execution tier/layout "
                   "decision (default: REPRO_WORKERS, else cpu count)")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("decompose", help="CP-ALS / nonnegative CP")
    add_input(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nonneg", action="store_true",
                   help="nonnegative CP via multiplicative updates")
    p.add_argument("--workers", type=int, default=None,
                   help="run CP-ALS on the parallel engine with this many "
                   "pool workers (default: sequential engine)")
    p.add_argument("--min-chunk-rows", type=int, default=None,
                   help="parallel-engine chunking threshold override "
                   "(lower it to force pool fan-out on small tensors)")
    p.add_argument("--tier", choices=("auto", "thread", "process"),
                   default="auto",
                   help="execution tier: worker threads (GIL-released "
                   "kernels) or worker processes with shared-memory "
                   "factors; auto consults the cost model when a layout "
                   "or worker count is requested")
    p.add_argument("--layout", choices=("auto", "numpy", "alto"),
                   default="auto",
                   help="index layout: COO index matrix or ALTO packed "
                   "codes (one uint64 per nonzero); auto picks by "
                   "modeled cost")
    p.add_argument("--out", default=None, help="write factors to .npz")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("complete", help="tensor completion (missing-data CP)")
    add_input(p)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="hold out this fraction for test RMSE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write factors to .npz")
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser(
        "trace", help="run another subcommand with tracing enabled",
        description="Run any other repro subcommand with the span tracer "
        "and metrics registry enabled, then export the trace (Chrome "
        "trace_event JSON + JSONL + text summary + metrics snapshot).",
    )
    p.add_argument("--trace-dir", default="repro-trace",
                   help="directory for trace artifacts (default: "
                   "./repro-trace)")
    p.add_argument("--profile", action="store_true",
                   help="also run the sampling stack profiler and write "
                   "profile.json + profile.folded")
    p.add_argument("--profile-hz", type=float, default=None,
                   help="sampling rate for --profile (default: 97, or "
                   "REPRO_PROFILE_HZ)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the command to trace, e.g. 'decompose data.tns "
                   "--rank 16'")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run another subcommand under the sampling stack profiler",
        description="'repro trace' with the wall-clock sampling profiler "
        "forced on: runs the wrapped subcommand with every instrument "
        "enabled, then writes the usual trace artifacts plus "
        "profile.json (repro-profile/v1: folded stacks joined to the "
        "span tree, per-span sampled seconds) and profile.folded "
        "(collapsed-stack text for flamegraph.pl / speedscope).  Worker "
        "threads appear as worker-<n> lanes; worker processes sample "
        "themselves and merge back as pid-<pid> lanes under their "
        "pool_task spans.",
    )
    p.add_argument("--trace-dir", default="repro-trace",
                   help="directory for trace + profile artifacts "
                   "(default: ./repro-trace)")
    p.add_argument("--hz", type=float, default=None, dest="profile_hz",
                   help="sampling rate (default: 97, or REPRO_PROFILE_HZ; "
                   "raise for short runs, lower for long ones)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the command to profile, e.g. 'decompose data.tns "
                   "--rank 16'")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "serve",
        help="OpenMetrics endpoint: scrape a running or saved run",
        description="Stdlib HTTP exporter with /metrics (OpenMetrics "
        "text), /healthz, and /runz (JSON run snapshot: iteration, fit, "
        "ETA).  With a trailing subcommand, runs it with telemetry "
        "enabled and the endpoint live for the duration ('repro serve "
        "--port 9464 decompose nips --rank 16'); with no subcommand, "
        "reconstructs state from a 'repro trace' artifact directory and "
        "serves it until killed.",
    )
    p.add_argument("--port", type=int, default=9464,
                   help="listen port (default: 9464; 0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--trace-dir", default="repro-trace",
                   help="artifact directory to replay when no subcommand "
                   "is given (default: ./repro-trace)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="optional subcommand to run while serving")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "tail",
        help="render an events.jsonl log as human-readable lines",
        description="Pretty-print a structured event log "
        "(repro-events/v1): one line per event with timestamp, kind, and "
        "fields.  --follow polls for appended events (the sink flushes "
        "per event, so a live run streams).  Exits 1 when the log has "
        "schema problems.",
    )
    p.add_argument("events",
                   help="events.jsonl file (or a trace directory)")
    p.add_argument("-n", type=int, default=None,
                   help="only show the last N events")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep polling for appended events (Ctrl-C stops)")
    p.add_argument("--interval", type=float, default=0.5,
                   help="poll interval for --follow (default: 0.5s)")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser(
        "bench-diff",
        help="compare benchmark history against the stored baseline",
        description="Noise-aware benchmark regression check: per bench id "
        "the current value (min over the run's samples) is compared to the "
        "min of the last k matching baseline entries; a regression is "
        "flagged only outside the relative band.  Exit code 1 on "
        "regression (CI runs this soft-fail).  See docs/benchmarking.md.",
    )
    p.add_argument("current", nargs="?", default=None,
                   help="JSONL file with the current run's entries "
                   "(default: the newest run inside --history)")
    p.add_argument("--history",
                   default=os.path.join("benchmarks", "history",
                                        "history.jsonl"),
                   help="baseline history JSONL (default: "
                   "benchmarks/history/history.jsonl)")
    p.add_argument("--band", type=float, default=0.10,
                   help="relative tolerance band (default: 0.10 = ±10%%)")
    p.add_argument("--k", type=int, default=5,
                   help="baseline = min of the last k matching entries")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(fn=cmd_bench_diff)

    p = sub.add_parser(
        "dashboard",
        help="render history + memory + trace into one HTML file",
        description="Self-contained HTML dashboard: bench history "
        "sparklines with baseline verdicts, the measured-vs-predicted "
        "memory series, and trace summaries.  No JS, inline SVG only — "
        "open the file directly in a browser.",
    )
    p.add_argument("--history",
                   default=os.path.join("benchmarks", "history",
                                        "history.jsonl"),
                   help="bench history JSONL")
    p.add_argument("--trace-dir", default=None,
                   help="a 'repro trace' output directory (memory.json + "
                   "trace.jsonl) to include")
    p.add_argument("--out", default="dashboard.html",
                   help="output HTML path (default: dashboard.html)")
    p.add_argument("--band", type=float, default=0.10)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(fn=cmd_dashboard)

    p = sub.add_parser("report", help="summarize a saved JSONL trace")
    p.add_argument("trace", help="trace.jsonl file (or the trace directory)")
    p.add_argument("--max-children", type=int, default=12,
                   help="sibling spans shown per node before eliding")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "roofline",
        help="measure machine ceilings / attribute achieved throughput",
        description="STREAM-style bandwidth saturation curve + dense "
        "compute ceiling, cached as a repro-machine/v1 artifact that "
        "'repro plan' prices bandwidth scaling from.  With --trace-dir, "
        "joins a saved trace's kernel spans with the cost model's "
        "flop/byte terms to report achieved GB/s and GFLOP/s per kernel "
        "config as roofline fractions.",
    )
    p.add_argument("--quick", action="store_true",
                   help="small measurement sizes (CI smoke; still a valid "
                   "artifact)")
    p.add_argument("--force", action="store_true",
                   help="re-measure even when a cached artifact exists")
    p.add_argument("--max-threads", type=int, default=None,
                   help="cap the bandwidth curve's thread counts")
    p.add_argument("--trace-dir", default=None,
                   help="a 'repro trace' output directory to attribute")
    p.add_argument("--out", default=None,
                   help="artifact path (default: $REPRO_MACHINE or "
                   "~/.cache/repro/repro-machine-v1.json)")
    p.add_argument("--json", action="store_true",
                   help="print the repro-roofline/v1 report as JSON")
    p.set_defaults(fn=cmd_roofline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        )
        logging.getLogger("repro").setLevel(
            getattr(logging, args.log_level.upper())
        )
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
