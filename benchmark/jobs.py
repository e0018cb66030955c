"""Workload definitions, job execution and the reference-output check.

A workload is a fixed list of jobs.  Jobs that must run in order (a cold
cache run followed by its warm rerun) form one unit; the workload seed only
shuffles the units.  In-process jobs call the public Python API; ``cli`` jobs
run the ``supercoinv`` entry point in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
CLI_CHILD = BENCH_DIR / "cli_child.py"

TABLE_BUDGET = 10**9
EXIT_OK = 0
EXIT_INFEASIBLE = 3
# stdout longer than this is stored in the reference as a digest.
STDOUT_INLINE_LIMIT = 2000
CLI_TIMEOUT_S = 150
# The CLI entry point exactly as the installed `supercoinv` script runs it.
CLI_ENTRY = "from supercoinv.cli import entry_point; entry_point()"

# `elim`: S_5 cells of 495 to 715 columns where elimination does most of
# the work; a pass takes 3-4 s.  About half the rows fed to elimination
# give no pivot.
ELIM_CELLS = [(8, 0), (9, 0), (4, 3), (8, 5)]
# D_4 cell budget of the `cli` refusal job: it is refused after ~1 s of work.
REFUSAL_BUDGET = "300000"


def _table(m, p, n):
    return {"id": f"table-G{m}.{p}.{n}", "kind": "table", "group": [m, p, n]}


def _cli(job_id, *argv, exit_code=EXIT_OK):
    return {"id": job_id, "kind": "cli", "argv": list(argv), "exit": exit_code}


def _elim_units():
    return [[{"id": f"cell-{i}-{k}", "kind": "cell", "group": [1, 1, 5],
              "cell": [i, k]}] for i, k in ELIM_CELLS]


def _suite_units():
    # Each suite once, as `supercoinv verify <suite> [--m --p --n]` runs it.
    # The table-based suites share one group (B_3), so each rebuilds the
    # same data; table-calcs takes D_3, which has a golden row.
    b3 = {"m": 2, "p": 1, "n": 3}
    args = {
        "table-calcs": {"m": 2, "p": 2, "n": 3},
        "exactness": b3, "support-b": b3, "support-c": b3, "closure": b3,
        "zabrocki": {"n": 3}, "hilb-alt": {"n": 3},
        "artin": {}, "groebner": {}, "laplacian": {}, "no-dice": {},
        "operator-top": {}, "qseries": {},
    }
    return [[{"id": f"suite-{name}", "kind": "suite", "suite": name,
              "args": args[name]}] for name in sorted(args)]


def _cli_units():
    def grp(m, p, n):
        return ["--m", str(m), "--p", str(p), "--n", str(n)]

    return [
        [_cli("group-info-S6", "group-info", *grp(1, 1, 6))],
        [_cli("group-info-B6", "group-info", *grp(2, 1, 6))],
        [_cli("group-info-D6", "group-info", *grp(2, 2, 6))],
        [_cli("group-info-S3", "group-info", *grp(1, 1, 3))],
        [_cli("group-info-G313", "group-info", *grp(3, 1, 3))],
        [_cli("refuse-D4", "--cell-budget", REFUSAL_BUDGET, "hilbert",
              *grp(2, 2, 4), exit_code=EXIT_INFEASIBLE)],
        # Known defect at the seed: FeasibilityError does not survive the
        # process pool, so this exits 1 instead of 3 and counts as failed.
        [_cli("refuse-S4-threads2", "--threads", "2", "--cell-budget",
              "100000", "hilbert", *grp(1, 1, 4), exit_code=EXIT_INFEASIBLE)],
        [
            _cli("hilbert-D3-latex-cold", "hilbert", *grp(2, 2, 3),
                 "--format", "latex"),
            _cli("hilbert-D3-latex-warm", "hilbert", *grp(2, 2, 3),
                 "--format", "latex"),
            _cli("hilbert-D3-closure-warm", "hilbert", *grp(2, 2, 3),
                 "--closure", "--format", "json"),
        ],
        [
            _cli("groebner-G313-cold", "groebner", *grp(3, 1, 3),
                 "--show-basis"),
            _cli("groebner-G313-warm", "groebner", *grp(3, 1, 3),
                 "--show-basis"),
            _cli("groebner-G313-verify", "groebner", *grp(3, 1, 3),
                 "--verify-paper-basis"),
        ],
        [_cli("artin-G313-count", "artin", *grp(3, 1, 3), "--count")],
        [_cli("artin-D3-enumerate", "artin", *grp(2, 2, 3), "--enumerate")],
        [_cli("harmonics-S3-2-1", "harmonics", *grp(1, 1, 3),
              "--bidegree", "2", "1")],
        [_cli("verify-zabrocki-3", "verify", "zabrocki", "--n", "3")],
    ]


def workload_units(name: str) -> list[list[dict]]:
    """The fixed job units of a workload (seed-independent)."""
    if name == "tables":
        return [[_table(*key)] for key in
                [(1, 1, 4), (2, 1, 3), (3, 3, 3), (2, 2, 3)]]
    if name == "elim":
        return _elim_units()
    if name == "suites":
        return _suite_units()
    if name == "cli":
        return _cli_units()
    if name == "tiny":
        # Small variant for the benchmark's self-tests.
        return [
            [_table(1, 1, 3)],
            [_table(2, 2, 3)],
            [_cli("tiny-artin-B2-count", "artin", "--m", "2", "--n", "2",
                  "--count")],
            [_cli("tiny-hilbert-S3", "hilbert", "--m", "1", "--n", "3",
                  "--q-at", "1")],
        ]
    raise KeyError(f"unknown workload {name!r}")


BENCHMARK_WORKLOADS = ("tables", "elim", "suites", "cli")
WORKLOADS = BENCHMARK_WORKLOADS + ("tiny",)


def job_list(name: str, seed: int) -> list[dict]:
    """Jobs of a workload in the order the seed gives; units stay intact."""
    units = workload_units(name)
    random.Random(seed).shuffle(units)
    return [job for unit in units for job in unit]


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


class JobFailed(Exception):
    """The job raised or exited with a code other than the expected one."""


def stdout_record(text: str):
    if len(text) <= STDOUT_INLINE_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode())}


def clear_program_caches():
    """Empty every functools cache in supercoinv, so a job starts cold.

    Without this a job's time would depend on which job ran before it and
    filled the shared caches (group data, monomial cells).  A cache may sit
    under a tracer wrapper, so the whole ``__wrapped__`` chain is walked;
    the cache itself also has ``__wrapped__``, to the plain function.
    """
    for name, mod in list(sys.modules.items()):
        if name == "supercoinv" or name.startswith("supercoinv."):
            for value in vars(mod).values():
                while value is not None:
                    if callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
                    value = getattr(value, "__wrapped__", None)


def run_in_process(job: dict):
    """Call the public API for one job and return its canonical output."""
    from supercoinv import harmonics, verify
    from supercoinv.groups import build_group

    if job["kind"] == "table":
        gd = build_group(*job["group"])
        sh = harmonics.sh_dim_table(gd, budget=TABLE_BUDGET)
        closure = harmonics.derivative_closure(gd, budget=TABLE_BUDGET)
        return {"sh": sh.to_json_dict()["dims"],
                "closure": closure.to_json_dict()["dims"]}
    if job["kind"] == "cell":
        gd = build_group(*job["group"])
        return {"dim": harmonics.harmonic_cell_dimension(gd, *job["cell"])}
    if job["kind"] == "suite":
        reports = verify.run_suite(job["suite"], **job["args"])
        return [json.loads(r.to_json()) for r in reports]
    raise KeyError(f"unknown job kind {job['kind']!r}")


def cli_record(job: dict, stdout: str) -> dict:
    """Canonical output of a CLI job that exited as expected."""
    return {"exit": job["exit"], "stdout": stdout_record(stdout)}


def run_cli(job: dict, cache_dir: Path, trace_file: Path | None = None) -> str:
    """Run one CLI job in a fresh interpreter; return its stdout.

    With trace_file set, the child installs the tracer before calling
    ``cli.main`` and writes its spans there.
    """
    argv = ["--cache-dir", str(cache_dir)] + job["argv"]
    env = dict(os.environ, PYTHONPATH=str(SRC),
               SUPERCOINV_CACHE=str(cache_dir))
    if trace_file is None:
        cmd = [sys.executable, "-c", CLI_ENTRY] + argv
    else:
        cmd = [sys.executable, str(CLI_CHILD)] + argv
        env["BENCH_TRACE_FILE"] = str(trace_file)
        env["BENCH_JOB"] = job["id"]
        env["BENCH_T0"] = repr(time.monotonic())
    code, out, err = run_process_group(cmd, CLI_TIMEOUT_S, env=env, cwd=ROOT)
    if code != job["exit"]:
        tail = err.strip().splitlines()[-1:] or [""]
        raise JobFailed(f"exit {code}, expected {job['exit']}: {tail[0]}")
    return out


def run_process_group(cmd, timeout, **kwargs):
    """Run cmd in its own session; afterwards stop whatever it left behind.

    Returns (exit code, stdout, stderr).  Every process of the group is
    killed and waited for before this returns, also on timeout.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise
    finally:
        _kill_group(proc.pid)
    return proc.returncode, out, err


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    data = json.loads(reference_path(name).read_text())
    want = {job["id"] for unit in workload_units(name) for job in unit}
    if set(data["jobs"]) != want:
        raise ValueError(f"reference for {name} does not cover its job list")
    return data["jobs"]
