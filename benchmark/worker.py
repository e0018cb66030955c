"""One pass over a workload's jobs in a fresh interpreter.

Started by run.py.  Set-up (imports, loading the reference outputs, building
the job list) is timed from ``--t0``, the parent's clock reading just before
it started this process.  The pass then runs every job once, one at a time,
checks each output against its reference and writes a JSON report to
``--out``.  With ``--trace 1`` the tracer's wrappers are installed for the
pass and the spans are written to ``spans.jsonl`` in the work directory.
The machine's slowdown (speed.py) is measured after set-up and after
every job; the pass's wall and CPU times leave out the time spent
measuring it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import jobs
import speed
import tracer as tracing


def _import_program():
    sys.path.insert(0, str(jobs.SRC))
    import supercoinv.cli  # noqa: F401  (imports every layer)

    where = Path(supercoinv.cli.__file__).resolve()
    if jobs.SRC not in where.parents:
        raise ImportError(f"supercoinv imported from {where}, not {jobs.SRC}")


def _usage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0


def run_job(job, refs, cache_dir: Path, spans_dir: Path | None):
    """Run one job; return (status, detail).  status: ok, failed or wrong.

    With spans_dir set, a CLI job's child process writes its spans there.
    """
    try:
        if job["kind"] == "cli":
            trace_file = spans_dir / f"{job['id']}.jsonl" if spans_dir else None
            output = jobs.cli_record(
                job, jobs.run_cli(job, cache_dir, trace_file))
        else:
            output = jobs.run_in_process(job)
    except jobs.JobFailed as exc:
        return "failed", str(exc)
    except Exception:  # a crashing job is counted, the pass goes on
        return "failed", traceback.format_exc(limit=3)
    output = json.loads(json.dumps(output))
    if output != refs[job["id"]]:
        return "wrong", f"output differs from the reference: {output!r:.300}"
    return "ok", ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    _import_program()
    refs = jobs.load_reference(args.workload)
    job_list = jobs.job_list(args.workload, args.seed)
    cache_dir = args.work / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    spans_dir = args.work / "child-spans"
    spans_dir.mkdir(exist_ok=True)
    report = {"setup_s": time.monotonic() - args.t0,
              "setup_slowdown": speed.slowdown("process")}
    if args.setup_only:
        args.out.write_text(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cpu0, _ = _usage()
    start = time.monotonic()
    results = []
    # Wall and CPU time spent measuring the slowdown, left out of the pass.
    calib = {"wall": 0.0, "cpu": 0.0}

    def slowdown(kind):
        cpu, wall = _usage()[0], time.monotonic()
        value = speed.slowdown(kind)
        calib["cpu"] += _usage()[0] - cpu
        calib["wall"] += time.monotonic() - wall
        return value

    # The latest slowdown measured: (yardstick kind, value).
    last = ("process", report["setup_slowdown"])
    try:
        for job in job_list:
            kind = "cli" if job["kind"] == "cli" else "process"
            if last[0] != kind:
                last = (kind, slowdown(kind))
            jobs.clear_program_caches()
            gc.collect()
            t = time.monotonic()
            if tracer:
                tracer.begin_job(job["id"], t)
            status, detail = run_job(job, refs, cache_dir,
                                     spans_dir if tracer else None)
            results.append({"id": job["id"], "kind": job["kind"],
                            "s": time.monotonic() - t, "status": status,
                            "detail": detail})
            after = slowdown(kind)
            results[-1]["slowdown"] = (last[1] + after) / 2
            last = (kind, after)
    finally:
        wall = time.monotonic() - start - calib["wall"]
        if tracer:
            tracer.uninstall()
    cpu1, peak_mb = _usage()
    report.update(wall_s=wall, cpu_s=cpu1 - cpu0 - calib["cpu"],
                  peak_rss_mb=peak_mb, jobs=results)
    if tracer:
        report["wrappers_left"] = tracing.installed_wrappers()
        trace = tracer.dump()
        for path in sorted(spans_dir.glob("*.jsonl")):
            tracing.merge(trace, tracing.read_jsonl(path))
        tracing.write_jsonl(args.work / "spans.jsonl", trace)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
