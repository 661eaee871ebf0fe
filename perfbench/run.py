"""Benchmark of sfi: rows per second on three workloads, layers traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-hyperbolic --seed 1 \\
        --seconds 30 --trace 0

--workload is one of sweep-hyperbolic, cli-euclidean-t2, expand, or all.
Each workload runs in a fresh Python process with src/ on PYTHONPATH and
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS pinned to 1
(see worker.py and workloads.py).

--trace 0 prints the end-to-end metrics: rows_per_s (report rows, or
expansion fits, per wall second: the lower quartile over the work items of
the timed loop), setup_s (median over
SETUP_SAMPLES fresh processes of import + basis/grid build + one warm-up
row) and peak_rss_mb (ru_maxrss of the workload process). --trace 1 prints
the per-layer metrics of a traced pass instead.

Every row is checked (see workloads.py). Rows that raised or went missing
are reported as `failed`; rows with a wrong verdict make `correct` false
and the exit code 1. Before the result, stdout carries the run manifest,
the sha256 of the first items' reports (comparable only between runs with
the same manifest) and a readable summary. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Run
records and trace spans are written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-hyperbolic", "cli-euclidean-t2", "expand")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench-out"
# Fresh processes whose set-up times give the setup_s median; the workload
# process itself is one of them.
SETUP_SAMPLES = 3
# Slack over --seconds for a worker to set up, finish its last item and exit.
WORKER_GRACE_S = 90
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root):
    env = dict(os.environ)
    for key in ("SFI_THREADS", "SFI_OUT_DIR", "PYTHONPATH"):
        env.pop(key, None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def call_worker(root, env, args, timeout):
    """Run worker.py with args; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout}s: {args}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def run_workload(root, env, name, seed, seconds, trace):
    """One workload's worker result; with trace 0, setup_samples holds the
    set-up times of SETUP_SAMPLES fresh processes."""
    out_dir = root / OUT_DIR
    common = ["--workload", name, "--seed", str(seed), "--seconds",
              str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            res = call_worker(root, env, [*common, "--setup-only"],
                              SETUP_TIMEOUT_S)
            samples.append(res["setup_s"])
    res = call_worker(root, env, common, seconds + WORKER_GRACE_S)
    samples.append(res["setup_s"])
    res["setup_samples"] = samples
    return res


def end_to_end(res):
    return {"rows_per_s": {"value": res["rows_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(res["setup_samples"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def summary(res, metrics):
    """Readable lines: every metric with its unit, then the row checks."""
    lines = [f"{res['workload']} seed={res['seed']} "
             f"report_sha256={res['report_sha256']}"]
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_row_frac = "
                 f"{res['failed'] / res['attempted']:.6g} ratio")
    lines.append(f"  wrong_verdict_rows = {res['wrong']} count")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "sfi" / "__init__.py").is_file():
        print("run.py: no sfi sources under ./src; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results, metrics = [], {}
    try:
        for name in names:
            res = run_workload(root, env, name, args.seed, args.seconds,
                               args.trace)
            mine = res["per_layer"] if args.trace else end_to_end(res)
            record = root / OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(res, indent=1) + "\n")
            print(json.dumps({"manifest": res["manifest"],
                              "report_sha256": res["report_sha256"]}))
            print("\n".join(summary(res, mine)))
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in mine.items()})
            results.append(res)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    wrong = sum(r["wrong"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = wrong == 0 and failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
