"""Set-up path benchmark: canonicalize, plan and symbolic build, one sort each.

Times the three set-up layers of a ``cp_als`` run on the E3 registry
tensors (reference sizes), the order-8 ``skew8d`` tensor (a key space
beyond int64) and the order-4 acceptance tensor (800^4, 1.2M nnz):

* ``canonicalize`` — ``CooTensor`` from row-shuffled coordinates;
* ``plan`` — the planner with exact distinct-projection counts;
* ``symbolic`` — ``SymbolicTree`` on the planner's pick (``bdt`` on the
  acceptance tensor, as ``perfbench``'s ``accept4d-bdt`` runs it).

Each layer is also timed on a ``hash`` baseline that groups rows the way
the library did before every grouping shared one stable sort: a hash
``np.unique`` for distinct counts, ``np.unique(return_index,
return_inverse)`` (or ``axis=0`` beyond int64) for grouping, and a second
stable ``argsort`` of the inverse for each node's reduction plan.  The two
variants run interleaved, repeat by repeat, and each (dataset, layer,
variant) is reported as median and IQR; both variants must give the same
result.  Writes ``benchmarks/results/BENCH_setup.{json,txt}`` and appends
one history series per (dataset, layer), ``setup.<dataset>.<layer>.seconds``
(the median of the sort path), to ``benchmarks/history/history.jsonl``::

    PYTHONPATH=src python benchmarks/bench_setup.py [--repeats 5]

``REPRO_BENCH_NO_HISTORY=1`` skips the history append.
"""

import argparse
import json
import os
import time
from unittest import mock

import numpy as np

from repro.core import rowcodes
from repro.core.coo import CooTensor
from repro.core.strategy import balanced_binary
from repro.core.symbolic import SymbolicTree
from repro.model import planner
from repro.synth.datasets import dataset_names, get_spec
from repro.synth.skewed import skewed_random_tensor

RANK = 16
LAYERS = ("canonicalize", "plan", "symbolic")
ACCEPT = ("accept4d", (800,) * 4, 1_200_000, 1.1)


def _workloads() -> list[tuple[str, tuple, int, object]]:
    names = dataset_names(analogs_only=True) + ["skew8d"]
    specs = [(n, get_spec(n)) for n in names]
    return [(n, s.shape, s.nnz, s.skew) for n, s in specs] + [ACCEPT]


# ---------------------------------------------------------------------------
# hash baseline: grouping by np.unique, a second argsort per plan
# ---------------------------------------------------------------------------

def _hash_group(idx, dims):
    if rowcodes.fits_int64(dims):
        _, first, inverse = np.unique(rowcodes.encode_rows(idx, dims),
                                      return_index=True, return_inverse=True)
        return idx[first], inverse
    unique_rows, inverse = np.unique(idx, axis=0, return_inverse=True)
    return unique_rows, inverse.ravel()


def _hash_count(idx, dims):
    if idx.shape[0] == 0:
        return 0
    if idx.shape[1] == 0:
        return 1
    if rowcodes.fits_int64(dims):
        return int(np.unique(rowcodes.encode_rows(idx, dims)).size)
    return int(np.unique(idx, axis=0).shape[0])


def _hash_canonicalize(idx, vals, shape):
    unique_rows, inverse = _hash_group(idx, shape)
    if unique_rows.shape[0] == idx.shape[0]:
        perm = np.empty(idx.shape[0], dtype=np.intp)
        perm[inverse] = np.arange(idx.shape[0])
        return idx[perm], vals[perm]
    return unique_rows, np.bincount(inverse, weights=vals,
                                    minlength=unique_rows.shape[0])


def _hash_symbolic(tensor, strategy):
    """Each node's index and plan arrays, grouped the hash way."""
    index = {strategy.root.id: tensor.idx}
    out = []
    for nid in strategy.topological_order():
        node = strategy.nodes[nid]
        if node.is_root:
            continue
        parent_modes = strategy.nodes[node.parent].modes
        keep = [parent_modes.index(m) for m in node.modes]
        dims = [tensor.shape[m] for m in node.modes]
        unique_rows, inverse = _hash_group(index[node.parent][:, keep], dims)
        index[nid] = np.ascontiguousarray(unique_rows)
        perm = np.argsort(inverse, kind="stable")
        ordered = inverse[perm]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        out.append((index[nid], perm, starts))
    return out


# ---------------------------------------------------------------------------
# one repeat of every layer, both variants
# ---------------------------------------------------------------------------

def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _strategy(name, tensor, report):
    if name == ACCEPT[0]:
        return balanced_binary(tensor.ndim)
    return report.best.strategy


def _run_layers(name, idx, vals, shape, variant) -> tuple[dict, list]:
    """Seconds per layer and the layers' outputs (for the equality check)."""
    seconds = {}
    if variant == "sort":
        seconds["canonicalize"], tensor = _timed(
            lambda: CooTensor(idx, vals, shape))
        canonical = (tensor.idx, tensor.vals)
        seconds["plan"], report = _timed(lambda: planner.plan(tensor, RANK))
        strategy = _strategy(name, tensor, report)
        seconds["symbolic"], tree = _timed(
            lambda: SymbolicTree(tensor, strategy))
        nodes = [(s.index, s.plan.perm, s.plan.starts)
                 for s in tree.nodes if s.plan is not None]
    else:
        seconds["canonicalize"], canonical = _timed(
            lambda: _hash_canonicalize(idx, vals, shape))
        tensor = CooTensor(*canonical, shape, canonical=True, copy=False)
        with mock.patch.object(rowcodes, "count_distinct_rows", _hash_count):
            seconds["plan"], report = _timed(
                lambda: planner.plan(tensor, RANK))
        strategy = _strategy(name, tensor, report)
        seconds["symbolic"], nodes = _timed(
            lambda: _hash_symbolic(tensor, strategy))
    scores = [s.predicted_seconds for s in report.scored]
    return seconds, [canonical, scores, nodes]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def run_setup_bench(repeats: int = 5) -> dict:
    workloads = []
    for name, shape, nnz, skew in _workloads():
        tensor = skewed_random_tensor(shape, nnz, skew, random_state=0)
        order = np.random.default_rng(1).permutation(tensor.nnz)
        workloads.append((name, np.ascontiguousarray(tensor.idx[order]),
                          np.ascontiguousarray(tensor.vals[order]),
                          tensor.shape))
    samples = {(w[0], v): {layer: [] for layer in LAYERS}
               for w in workloads for v in ("sort", "hash")}
    for r in range(repeats):
        for name, idx, vals, shape in workloads:
            outputs = {}
            # alternate which variant runs first, repeat by repeat
            for variant in (("sort", "hash") if r % 2 == 0
                            else ("hash", "sort")):
                seconds, outputs[variant] = _run_layers(
                    name, idx, vals, shape, variant)
                for layer, s in seconds.items():
                    samples[(name, variant)][layer].append(s)
            assert _same(outputs["sort"], outputs["hash"]), (
                f"{name}: sort and hash set-up paths disagree")
        print(f"  repeat {r + 1}/{repeats} done")

    rows = []
    for name, idx, _, shape in workloads:
        for layer in LAYERS:
            row = {"dataset": name, "order": len(shape), "nnz": int(idx.shape[0]),
                   "layer": layer}
            for variant in ("sort", "hash"):
                q1, med, q3 = np.percentile(samples[(name, variant)][layer],
                                            [25, 50, 75])
                row[variant] = {"median_s": float(med), "iqr_s": float(q3 - q1),
                                "samples_s": samples[(name, variant)][layer]}
            row["speedup"] = row["hash"]["median_s"] / row["sort"]["median_s"]
            rows.append(row)
    return {
        "bench_id": "BENCH_setup",
        "numpy": np.__version__,
        "rank": RANK,
        "repeats": repeats,
        "rows": rows,
    }


def main() -> None:
    from repro.obs.buildinfo import artifact_envelope

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    report = run_setup_bench(args.repeats)
    base = os.path.join(results_dir, "BENCH_setup")
    with open(base + ".json", "w") as fh:
        json.dump(artifact_envelope("BENCH_setup", report), fh, indent=2)
        fh.write("\n")
    lines = [
        f"set-up layers, median (IQR) ms over {report['repeats']} interleaved "
        f"repeats, numpy {report['numpy']}",
        f"{'dataset':10s} {'layer':12s} {'sort':>16s} {'hash':>16s} "
        f"{'speedup':>8s}",
    ]
    for row in report["rows"]:
        cells = [f"{row[v]['median_s'] * 1e3:7.1f} ({row[v]['iqr_s'] * 1e3:5.1f})"
                 for v in ("sort", "hash")]
        lines.append(f"{row['dataset']:10s} {row['layer']:12s} "
                     f"{cells[0]:>16s} {cells[1]:>16s} "
                     f"{row['speedup']:7.2f}x")
    with open(base + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {base}.json")

    if not os.environ.get("REPRO_BENCH_NO_HISTORY"):
        from repro.obs.history import BenchHistory

        history = BenchHistory(
            os.path.join(os.path.dirname(__file__), "history",
                         "history.jsonl")
        )
        for row in report["rows"]:
            history.record(f"setup.{row['dataset']}.{row['layer']}.seconds",
                           row["sort"]["median_s"])
        print(f"recorded {len(report['rows'])} timings into {history.path}")


if __name__ == "__main__":
    main()
