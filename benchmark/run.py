#!/usr/bin/env python3
"""supercoinv benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload tables --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (worker.py), one job at a time.  With
``--trace 0`` the benchmark takes set-up samples, then runs passes while a
further pass still fits in ``--seconds`` (always at least one), and prints
the end-to-end metrics as medians over them, with times scaled to the
reference machine speed (speed.py).  With ``--trace 1`` it runs pairs of
an untraced and a traced pass while a further pair still fits in
``--seconds``, and prints the per-layer metrics of the traced pass with the
median wall time.  Every job output is checked against the stored reference; a wrong
output makes the run invalid (exit 1).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracer as tracing

WORKER = jobs.BENCH_DIR / "worker.py"
WORK_ROOT = jobs.ROOT / ".bench_work"
# Set-up is sampled this many times per run (passes count as samples).
SETUP_SAMPLES = 7
# The whole run must end well within the 180 s a run is allowed.
RUN_DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args, work: Path, deadline: float, *, trace=0, setup_only=False,
           tag="pass") -> dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--work", str(work), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        code, _, err = jobs.run_process_group(cmd, timeout, cwd=jobs.ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker still running after {timeout:.0f} s")
    if code != 0 or not out.exists():
        raise BenchError(f"worker exited {code}: {err.strip()[-2000:]}")
    report = json.loads(out.read_text())
    out.unlink()
    return report


def _check(passes: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over the passes; reports problems."""
    correct, attempted, failed = True, 0, 0
    for report in passes:
        for job in report["jobs"]:
            attempted += 1
            if job["status"] == "failed":
                failed += 1
                print(f"failed job {job['id']}: {job['detail']}",
                      file=sys.stderr)
            elif job["status"] == "wrong":
                correct = False
                print(f"WRONG OUTPUT {job['id']}: {job['detail']}",
                      file=sys.stderr)
        if report.get("wrappers_left"):
            correct = False
            print(f"tracer left wrappers: {report['wrappers_left']}",
                  file=sys.stderr)
    return correct, attempted, failed


def _scaled(report: dict) -> dict:
    """A pass's times at the reference machine speed (see speed.py).

    A job's time is divided by the slowdown measured around it; the pass's
    wall and CPU time by the job-time weighted mean of those slowdowns.
    """
    jobs_s = [j["s"] for j in report["jobs"]]
    scaled = [j["s"] / j["slowdown"] for j in report["jobs"]]
    slowdown = sum(jobs_s) / sum(scaled)
    return {"wall_s": report["wall_s"] / slowdown,
            "cpu_s": report["cpu_s"] / slowdown,
            "job_p50_s": statistics.median(scaled),
            "slowdown": slowdown}


def _untraced(args, work, deadline) -> tuple[dict, list[dict]]:
    setups = [_spawn(args, work, deadline, setup_only=True, tag=f"setup{i}")
              for i in range(SETUP_SAMPLES - 1)]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_spawn(args, work, deadline))
        if time.monotonic() - start + (time.monotonic() - t) > args.seconds:
            break
    setups += passes
    scaled = [_scaled(p) for p in passes]

    def med(key, reports=scaled):
        return statistics.median(p[key] for p in reports)

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(j["status"] == "failed" for p in passes for j in p["jobs"])
    metrics = {
        "setup_s": statistics.median(p["setup_s"] / p["setup_slowdown"]
                                     for p in setups[-SETUP_SAMPLES:]),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "job_p50_s": med("job_p50_s"),
        "peak_rss_mb": med("peak_rss_mb", passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(f"{args.workload}: seed {args.seed}, {len(passes[0]['jobs'])} jobs "
          f"a pass; pass walls (s): "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; slowdowns: " + " ".join(f"{p['slowdown']:.2f}" for p in scaled))
    print("unscaled medians (s): setup_s "
          f"{med('setup_s', setups[-SETUP_SAMPLES:]):.4f}, wall_s "
          f"{med('wall_s', passes):.4f}, cpu_s {med('cpu_s', passes):.4f}")
    print("job order: " + " ".join(j["id"] for j in passes[0]["jobs"]))
    return metrics, passes


def _traced(args, work, deadline) -> tuple[dict, list[dict]]:
    pairs = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain = _spawn(args, work, deadline, tag="plain")
        traced = _spawn(args, work, deadline, trace=1, tag="traced")
        spans = work / f"spans-{len(pairs)}.jsonl"
        (work / "spans.jsonl").rename(spans)
        pairs.append((plain, traced, spans))
        if time.monotonic() - start + (time.monotonic() - t) > args.seconds:
            break
    ratios = [_scaled(traced)["wall_s"] / _scaled(plain)["wall_s"]
              for plain, traced, _ in pairs]
    # The layer metrics come from one traced pass, the one with the median
    # wall, so that its self times add up to its own wall.
    _, traced, spans = sorted(pairs, key=lambda p: p[1]["wall_s"])[
        (len(pairs) - 1) // 2]
    metrics = tracing.summarize(tracing.read_jsonl(spans), traced["wall_s"])
    shutil.copy(spans, WORK_ROOT / f"trace-{args.workload}.jsonl")
    attempted = len(traced["jobs"])
    failed = sum(j["status"] == "failed" for j in traced["jobs"])
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics["failed_ratio"] = failed / attempted
    metrics["cli.exit_mismatches"] = sum(
        j["kind"] == "cli" and j["status"] == "failed"
        and j["detail"].startswith("exit ") for j in traced["jobs"])
    print(f"{args.workload}: seed {args.seed}, {len(pairs)} pairs of "
          f"untraced and traced passes of {attempted} jobs; overhead "
          "ratios: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"spans of the median traced pass in "
          f"{WORK_ROOT.name}/trace-{args.workload}.jsonl")
    return metrics, [report for pair in pairs for report in pair[:2]]


def run_one(args) -> dict:
    """Run one workload as args say; return the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, passes = _traced(args, work, deadline)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, passes = _untraced(args, work, deadline)
            units = dict(END_TO_END)
        correct, attempted, failed = _check(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every benchmark workload, untraced and traced; metrics prefixed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in jobs.BENCHMARK_WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name,
                                        "trace": trace})
            result = run_one(sub)
            print(f"{name} --trace {trace}: {json.dumps(result)}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=jobs.WORKLOADS + ("all",),
                        help="`all` runs every benchmark workload with and "
                        "without tracing")
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the job order; the job set is fixed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (jobs.SRC / "supercoinv" / "__init__.py").is_file():
        print(f"no supercoinv sources under {jobs.SRC}", file=sys.stderr)
        return 2
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
