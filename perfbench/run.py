"""Benchmark for the ikt pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/ikt``). The run generates the workload's logs from the seed, then
repeats, one child process at a time, a set-up probe (a fresh process
that imports ikt and loads the training log) and a pass of the workload
(``fit``, ``predict``, ``evaluate --ablation`` and single-row explain
calls) until ``S`` seconds have been measured. Every output is checked.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``). A failed output check makes
``correct`` false and the exit code 1. The run record (versions, sizes,
digests, per-pass times) is printed on the line before and saved under
``perfbench/out/``.

With ``--trace 1`` passes alternate untraced and traced; per-layer
values are medians over the traced passes, and ``trace.overhead_s`` is
the median traced minus the median untraced wall time of the three
commands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import WORKLOADS, Workload, generate

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SETUP = 5
EXPLAIN_CALLS = 30000
# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170
COMMANDS = ("fit", "predict", "evaluate")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child crashed, ...)."""


def _child(root: str, args: list, deadline: float) -> subprocess.CompletedProcess:
    """Run pipeline.py in a fresh interpreter; kill it at ``deadline``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    timeout = max(deadline - time.perf_counter(), 1.0)
    try:
        return subprocess.run([sys.executable, os.path.join(HERE, "pipeline.py"), *args],
                              cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} killed after {timeout:.0f} s") from exc


def time_setup(root: str, train_csv: str, runs: int, deadline: float) -> list:
    """Wall time of fresh processes that import ikt and load + clean the log."""
    out = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = _child(root, ["setup", train_csv], deadline)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"setup process failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = os.path.join(root, "src", "ikt", "__init__.py")
        if os.path.realpath(info["ikt"]) != os.path.realpath(expected):
            raise BenchError(f"imported ikt from {info['ikt']}, not from {expected}")
        out.append({"wall_s": wall, "records": info["records"],
                    "rows_dropped": info["rows_dropped"]})
    return out


def run_pass(root: str, workdir: str, index: int, inputs, seed: int, trace: bool,
             explain_calls: int, deadline: float) -> dict:
    outdir = os.path.join(workdir, f"pass{index}")
    os.makedirs(outdir)
    cfg = {"outdir": outdir, "train": inputs.train, "score": inputs.score,
           "schema": inputs.schema, "trace": trace, "seed": seed,
           "explain_calls": explain_calls,
           "expected_predict_rows": inputs.sizes["score"]["records"]}
    cfg_path = os.path.join(outdir, "config.json")
    result_path = os.path.join(outdir, "result.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    proc = _child(root, ["pass", cfg_path, result_path], deadline)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"pass {index} failed (exit {proc.returncode}):\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(outdir)
    return result


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (nan when empty)."""
    if not sorted_values:
        return math.nan
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return float(sorted_values[rank - 1])


def changed_artifacts(first: dict, other: dict, command: str) -> list:
    """Artifacts of ``command`` whose digest differs between two passes."""
    return [key for key in sorted(set(first) | set(other))
            if key.startswith(command + "/") and first.get(key) != other.get(key)]


def tally(setup: list, passes: list, inputs) -> tuple:
    """(attempted, failed, problems): one operation per set-up process,
    CLI command and explain call; a failed output check fails its
    operation."""
    problems = []
    attempted = failed = 0
    for s in setup:
        attempted += 1
        if s["records"] != inputs.sizes["train"]["records"] or s["rows_dropped"]:
            failed += 1
            problems.append(f"setup kept {s['records']} records, dropped "
                            f"{s['rows_dropped']}; expected "
                            f"{inputs.sizes['train']['records']}, 0")
    for i, p in enumerate(passes):
        for command in COMMANDS:
            attempted += 1
            faults = list(p["failures"][command])
            changed = changed_artifacts(passes[0]["digests"], p["digests"], command)
            if changed:
                faults.append("artifacts differ from pass 0: " + ", ".join(changed))
            if faults:
                failed += 1
                problems.extend(f"pass {i} {command}: {x}" for x in faults)
        attempted += p["explain"]["calls"]
        failed += p["explain"]["failed"]
        if p["explain"]["failed"]:
            problems.append(f"pass {i}: {p['explain']['failed']} explain posteriors "
                            "disagree with predict_many or are not probabilities")
    return attempted, failed, problems


def end_to_end(setup: list, passes: list) -> dict:
    samples = sorted(s for p in passes for s in p["explain"]["samples_ns"])
    quality = passes[0]["quality"]

    def first(name):  # absent only when its check already failed
        return quality.get(name, math.nan)

    return {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "evaluate_s": statistics.median(p["wall_s"]["evaluate"] for p in passes),
        "fit_s": statistics.median(p["wall_s"]["fit"] for p in passes),
        "predict_rows_per_s": statistics.median(p["predict_rows"] / p["wall_s"]["predict"]
                                                for p in passes),
        "explain_p50_us": percentile(samples, 50) / 1e3,
        "explain_mean_us": statistics.fmean(samples) / 1e3 if samples else math.nan,
        "explain_p90_us": percentile(samples, 90) / 1e3,
        "explain_p99_us": percentile(samples, 99) / 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pooled_auc.ikt1": first("pooled_auc.ikt1"),
        "pooled_auc.ikt2": first("pooled_auc.ikt2"),
        "pooled_auc.ikt3": first("pooled_auc.ikt3"),
        "pooled_rmse.ikt3": first("pooled_rmse.ikt3"),
        "predict_auc": first("predict_auc"),
    }


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes if not p["trace"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    wall = [statistics.median(sum(p["wall_s"].values()) for p in group)
            for group in (traced, untraced)]
    out["trace.overhead_s"] = wall[0] - wall[1]
    return out


def declared_metrics(root: str, trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha(root: str):
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: str,
        workdir: str, min_setup: int = MIN_SETUP,
        explain_calls: int = EXPLAIN_CALLS) -> dict:
    """Generate, set up, measure and check one run; returns the run record."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    inputs = generate(workload, seed, os.path.join(workdir, "inputs"))
    # Set-up probes are spread over the run, one before each pass, so that
    # every metric samples the same stretch of the host's speed swings.
    setup, passes, durations = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.extend(time_setup(root, inputs.train, 1, deadline))
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(root, workdir, len(passes), inputs, seed, traced,
                               explain_calls, deadline))
        durations.append(time.perf_counter() - began)
        enough = not trace or len(passes) >= 2
        # stop before a pass that would end past the measuring window
        if enough and (time.perf_counter() - start + statistics.median(durations)
                       > seconds):
            break
    measured = time.perf_counter() - start
    setup.extend(time_setup(root, inputs.train, min_setup - len(setup), deadline))

    attempted, failed, problems = tally(setup, passes, inputs)
    values = per_layer(passes) if trace else end_to_end(setup, passes)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(root, trace).items()}
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "measured_s": measured,
        "git_sha": git_sha(root), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "sizes": inputs.sizes, "passes": len(passes),
        "setup_wall_s": [s["wall_s"] for s in setup],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "explain_samples": sum(len(p["explain"]["samples_ns"]) for p in passes),
        "error_rate": failed / attempted, "problems": problems,
        "digests": passes[0]["digests"],
        "metrics": metrics,
        "not_gated": {k: v for k, v in values.items() if k not in metrics},
    }
    for p in passes:
        if p["trace"]:
            record["shares"] = p["shares"]
            record["spans"] = p["spans"]
            break
    record["result"] = {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": record["metrics"]}
    return record


def render(record: dict) -> list:
    """Printed lines: a metric table, failed checks, the record, the result."""
    result = record["result"]
    lines = [f"{name:<38} {m['value']:>16.6g} {m['unit']}"
             for name, m in record["metrics"].items()]
    lines.extend(f"{name:<38} {value:>16.6g} (not gated)"
                 for name, value in record["not_gated"].items())
    lines.append(f"{'error_rate':<38} {record['error_rate']:>16.6g} ratio "
                 f"({result['failed']}/{result['attempted']})")
    lines.extend(f"FAILED CHECK: {problem}" for problem in record["problems"])
    summary = {k: v for k, v in record.items()
               if k not in ("spans", "result", "metrics", "problems")}
    lines.append("record: " + json.dumps(summary, sort_keys=True))
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the running
    # child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "ikt", "__init__.py")):
        sys.stderr.write(f"error: no ikt source tree at {root}/src/ikt; run from the "
                         "root of a checkout\n")
        return 2
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=os.path.join(HERE, "work"))
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root, workdir)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(render(record)))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
