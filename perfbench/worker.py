"""One benchmark workload in one process, with BLAS pinned to one thread.

Started by run.py as

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out-dir DIR [--setup-only]

with src/ on PYTHONPATH. It prints one JSON object as its last stdout line.

--setup-only measures set-up alone: importing the package, building the
basis and grid, and one warm-up row that fills the package's caches.

--trace 0 times the closed loop for S seconds with nothing wrapped and
reports rows per second (the lower quartile over work items of the
item's rows over its wall time), set-up time and peak RSS.

--trace 1 runs each item twice, once as is and once with every layer's
public functions wrapped (see spans.py), for S seconds in all, and reports
the per-layer metrics of the traced runs plus the tracing overhead (traced
over untraced wall time, minus 1). Spans are written to DIR as JSONL.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from run import PINNED_ENV

# Items of the timed loop whose reports make up the rerun digest; the loop
# always runs at least this many, however long they take.
DIGEST_ITEMS = 2

LAYERS = ("spherebasis", "graphgeom", "domains", "normalize", "model", "lab",
          "cli")
ROW_SPANS = ("lab.verify", "lab.expansion_oracle")
BYTES_PER_FLOAT = 8

# name -> unit. A '<module>.<function>.<quantity>' name is read off the spans
# of '<module>.<function>': ms_per_row is self time (duration minus child
# spans) per row, calls_per_row and points_per_row are counts per row,
# ms_per_case, ms and s are inclusive time per call, row_share is inclusive
# time over the time of all row spans. '<module>.self_share' is the summed
# self time of the module's spans inside rows over the time of all rows.
# The rest are special.
PER_LAYER = {
    "normalize.normalize.ms_per_row": "ms",
    "normalize.recenter.ms_per_row": "ms",
    "normalize.reproject_after_isometry.calls_per_row": "count",
    "normalize.reproject_after_isometry.ms_per_row": "ms",
    "normalize.match_radius.calls_per_row": "count",
    "model.polar.calls_per_row": "count",
    "domains.barycenter.calls_per_row": "count",
    "domains.barycenter.ms_per_row": "ms",
    "domains.fraenkel_asymmetry.ms_per_row": "ms",
    "domains.symmetric_difference_to_ball.calls_per_row": "count",
    "domains.quermassintegrals.ms_per_row": "ms",
    "spherebasis.evaluate.calls_per_row": "count",
    "spherebasis.evaluate.ms_per_row": "ms",
    "spherebasis.evaluate.points_per_row": "count",
    "spherebasis.evaluate.computed_vandermonde_mb_per_row": "MB",
    "spherebasis.eval_jet_all.calls_per_row": "count",
    "spherebasis.eval_jet_all.ms_per_row": "ms",
    "spherebasis.values_on_grid.calls_per_row": "count",
    "spherebasis.sobolev_norms.ms_per_row": "ms",
    "graphgeom.surface_geometry.calls_per_row": "count",
    "graphgeom.surface_geometry.ms_per_row": "ms",
    "graphgeom.weighted_curvature_integral.calls_per_row": "count",
    "lab.verify.ms_per_row": "ms",
    "lab.equality_function.calls_per_row": "count",
    "lab.equality_function.ms_per_row": "ms",
    "lab.expansion_oracle.ms_per_row": "ms",
    "lab.sweep.ms_per_case": "ms",
    "lab.csv_text.ms": "ms",
    "spherebasis.build_basis.s": "s",
    "spherebasis.build_grid.s": "s",
    "cli.build_basis_grid.s": "s",
    "cli.main.s": "s",
    "cli.pool.busy_frac": "ratio",
    "cli.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
    "normalize.normalize.row_share": "ratio",
    "domains.barycenter.row_share": "ratio",
    "domains.fraenkel_asymmetry.row_share": "ratio",
    "graphgeom.surface_geometry.row_share": "ratio",
    "spherebasis.self_share": "ratio",
    "graphgeom.self_share": "ratio",
    "domains.self_share": "ratio",
    "normalize.self_share": "ratio",
    "model.self_share": "ratio",
    "lab.self_share": "ratio",
}

# polar calls counted only under this parent: the secant residual
# evaluations of ray shooting
POLAR_PARENT = "normalize.reproject_after_isometry"


def per_layer_metrics(stats, setup, rows, n_monomials, threads, cpu_s,
                      wall_s, overhead_frac):
    """Every PER_LAYER metric from the SpanStats of the traced pass.

    Per-call times ('.s') of a layer that ran only during set-up, such as
    the basis and grid builds outside the command line, come from the
    set-up spans. A layer the workload never calls reads 0. busy_frac is
    the summed lab.sweep time over threads x cli.main wall time; cpu_util
    is the process's CPU seconds over wall seconds of the traced runs.
    """
    per_row = 1.0 / rows if rows else 0.0
    row_s = sum(stats.total_s.get(name, 0.0) for name in ROW_SPANS)
    per_row_s = 1.0 / row_s if row_s else 0.0
    out = {}
    for metric, unit in PER_LAYER.items():
        span, _, quantity = metric.rpartition(".")
        if metric == "model.polar.calls_per_row":
            value = stats.calls_under.get((span, POLAR_PARENT), 0) * per_row
        elif metric == "cli.pool.busy_frac":
            main_s = stats.total_s.get("cli.main", 0.0)
            value = (stats.total_s.get("lab.sweep", 0.0) / (threads * main_s)
                     if main_s else 0.0)
        elif metric == "cli.cpu_util":
            value = cpu_s / wall_s if stats.calls.get("cli.main") else 0.0
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        elif quantity == "ms_per_row":
            value = 1e3 * stats.self_s.get(span, 0.0) * per_row
        elif quantity == "calls_per_row":
            value = stats.calls.get(span, 0) * per_row
        elif quantity == "points_per_row":
            value = stats.size.get(span, 0) * per_row
        elif quantity == "computed_vandermonde_mb_per_row":
            value = (stats.size.get(span, 0) * n_monomials * BYTES_PER_FLOAT
                     / 1e6 * per_row)
        elif quantity in ("ms_per_case", "ms"):
            value = 1e3 * stats.mean_s(span)
        elif quantity == "s":
            value = stats.mean_s(span) or setup.mean_s(span)
        elif quantity == "row_share":
            value = stats.total_s.get(span, 0.0) * per_row_s
        elif quantity == "self_share":
            value = per_row_s * sum(t for name, t in stats.row_self_s.items()
                                    if name.startswith(span + "."))
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
        out[metric] = {"value": value, "unit": unit}
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(workload, seed):
    """The run's machine, library and input facts, so that two reports
    are compared only under the same settings."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    grid, basis = workload.grid, workload.basis
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "grid_nodes": grid.node_count,
        "grid_resolution": grid.d_exact,
        "basis_degree": basis.d_max,
        "basis_size": basis.size,
        "monomials": basis.table.size,
    }


def run_item(workload, i):
    """Work item i; an item that raises counts all its rows as failed and
    its traceback goes to stderr."""
    from workloads import Outcome

    try:
        return workload.run(i)
    except Exception:  # a failed row is a result, not a crash
        traceback.print_exc()
        n = workload.rows_per_item
        return Outcome(0, n, n, 0, "")


def timed_loop(workload, seconds):
    """Closed loop from item 0 until `seconds` have passed and at least
    DIGEST_ITEMS items ran; returns (outcomes, per-item seconds)."""
    outcomes, times = [], []
    t0 = time.perf_counter()
    while (len(outcomes) < DIGEST_ITEMS
           or time.perf_counter() - t0 < seconds):
        t = time.perf_counter()
        outcomes.append(run_item(workload, len(outcomes)))
        times.append(time.perf_counter() - t)
    return outcomes, times


def traced_loop(workload, seconds, recorder):
    """Like timed_loop, but runs every item twice, untraced and traced,
    alternating which goes first, so that the two passes see the same
    inputs and the same phases of a shared host.

    Returns (traced outcomes, traced wall s, untraced wall s, traced CPU s).
    """
    outcomes = []
    wall = {False: 0.0, True: 0.0}
    cpu_s = 0.0
    t0 = time.perf_counter()
    while (len(outcomes) < DIGEST_ITEMS
           or time.perf_counter() - t0 < seconds):
        i = len(outcomes)
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                wrap_layers(recorder)
            c, t = time.process_time(), time.perf_counter()
            try:
                out = run_item(workload, i)
            finally:
                recorder.restore()
            wall[traced] += time.perf_counter() - t
            if traced:
                cpu_s += time.process_time() - c
                outcomes.append(out)
    return outcomes, wall[True], wall[False], cpu_s


def totals(outcomes):
    return {k: sum(getattr(o, k) for o in outcomes)
            for k in ("rows", "attempted", "failed", "wrong")}


def digest(outcomes):
    text = "".join(o.report for o in outcomes[:DIGEST_ITEMS])
    return hashlib.sha256(text.encode()).hexdigest()


def wrap_layers(recorder):
    import sfi

    for layer in LAYERS:
        recorder.wrap_module(getattr(sfi, layer), layer)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    unpinned = {k: os.environ.get(k) for k, v in PINNED_ENV.items()
                if os.environ.get(k) != v}
    if unpinned:
        print(f"worker: thread environment not pinned: {unpinned}",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import workloads
    from spans import Recorder, SpanStats

    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    recorder = Recorder(row_names=ROW_SPANS, sizes={
        "spherebasis.evaluate": lambda u, points: len(points)})
    if args.trace:
        wrap_layers(recorder)
    try:
        workload.setup()
        workload.warmup()
    finally:
        recorder.restore()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setup_s,
              "manifest": manifest(workload, args.seed)}
    if not args.trace:
        outcomes, times = timed_loop(workload, args.seconds)
        # A shared host runs whole stretches of items up to a quarter
        # faster or slower; the lower quartile of the per-item rates moves
        # less between runs than their mean or median.
        result["rows_per_s"] = statistics.quantiles(
            [o.rows / t for o, t in zip(outcomes, times)], n=4,
            method="inclusive")[0]
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        result["item_s"] = times
    else:
        n_setup = len(recorder.spans)
        outcomes, traced_s, untraced_s, cpu_s = traced_loop(
            workload, args.seconds, recorder)
        result["per_layer"] = per_layer_metrics(
            SpanStats(recorder.spans[n_setup:]),
            SpanStats(recorder.spans[:n_setup]),
            totals(outcomes)["rows"], workload.basis.table.size,
            workload.threads, cpu_s, traced_s,
            traced_s / untraced_s - 1.0)
        recorder.write_jsonl(Path(args.out_dir)
                             / f"spans-{args.workload}-seed{args.seed}.jsonl")
    result.update(totals(outcomes))
    result["report_sha256"] = digest(outcomes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
