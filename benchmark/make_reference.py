#!/usr/bin/env python3
"""Regenerate the reference outputs in benchmark/reference/.

    python3 benchmark/make_reference.py [--workload NAME ...]

Runs every job of each workload once, in its fixed order, and cross-checks
the results against facts that do not come from the job itself:

* q = 1 rows of every table equal ``verify.GOLDEN_TABLE`` where it has one;
* every k = 0 column equals ``artin.artin_hilbert(m, p, n)``;
* every table gives Hilb(q, -q) = 1;
* every `elim` cell equals the quotient-side count, and its k = 0 and
  k = 5 cells agree with the Artin series and the golden S_5 row;
* every suite verdict is ok and the CLI outputs agree with the golden rows.

A job whose expected exit code is 3 (refusal) is stored with empty stdout,
which is what a refusal prints; a program that does not refuse it is
reported here and counted as a failed job by the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import jobs

sys.path.insert(0, str(jobs.SRC))

from supercoinv import artin, harmonics, verify  # noqa: E402
from supercoinv.groups import GroupSpec, build_group  # noqa: E402
from supercoinv.harmonics import DimTable  # noqa: E402
from supercoinv.qseries import QPoly, format_poly  # noqa: E402


class CrossCheckError(AssertionError):
    pass


def _require(ok: bool, what: str):
    if not ok:
        raise CrossCheckError(what)


def _golden_q1(key, closure: bool):
    row = verify.GOLDEN_TABLE.get(tuple(key))
    if row is None:
        return None
    coeffs = row[1] if closure and row[1] else row[0]
    return {k: c for k, c in enumerate(coeffs) if c}


def check_table(key, dims, what: str, closure: bool):
    table = DimTable.from_json_dict(
        {"group": dict(zip("mpn", key)), "version": 1, "dims": dims})
    golden = _golden_q1(key, closure)
    if golden is not None:
        _require(table.z_coefficients_at_q1() == golden,
                 f"{what}: q = 1 row differs from GOLDEN_TABLE")
    _require(table.column(0) == artin.artin_hilbert(*key),
             f"{what}: k = 0 column differs from the Artin series")
    _require(table.hilbert_qz().z_substitute_signed_power(1) == QPoly.one(),
             f"{what}: Hilb(q, -q) != 1")


def check_elim(outputs: dict):
    gd = build_group(1, 1, 5)
    col0, col5 = {}, {}
    for job in (j for unit in jobs.workload_units("elim") for j in unit):
        i, k = job["cell"]
        dim = outputs[job["id"]]["dim"]
        oracle = harmonics.coinvariant_cell_dimension(gd, i, k, budget=10**9)
        _require(dim == oracle, f"S_5 cell {(i, k)}: {dim} != quotient {oracle}")
        if k == 0:
            col0[i] = dim
        if k == 5:
            col5[i] = dim
    artin_series = artin.artin_hilbert(1, 1, 5)
    _require(all(dim == artin_series.coefficient(i) for i, dim in col0.items()),
             "S_5 k = 0 cells differ from the Artin series")
    _require(5 not in _golden_q1((1, 1, 5), False) and not any(col5.values()),
             "S_5 k = 5 column is not zero")


def check_cli(job, text: str):
    argv = job["argv"]
    if argv[0] == "group-info" and "--format" not in argv:
        info = json.loads(text)
        spec = GroupSpec.create(info["m"], info["p"], info["n"])
        _require(info["order"] == spec.order, f"{job['id']}: group order")
    if argv[0] == "hilbert" and "--format" in argv:
        key = tuple(int(argv[argv.index(f) + 1]) if f in argv else 1
                    for f in ("--m", "--p", "--n"))
        fmt = argv[argv.index("--format") + 1]
        if fmt == "latex":
            row = format_poly(_golden_q1(key, False), var="z")
            _require(f"${row.replace('*', '')}$" in text,
                     f"{job['id']}: golden row missing from the LaTeX table")
        if fmt == "json":
            check_table(key, json.loads(text)["dims"], job["id"],
                        closure="--closure" in argv)
    if "--verify-paper-basis" in argv:
        _require(text.startswith("match"), f"{job['id']}: {text!r}")
    if argv[0] == "verify":
        _require("inconsistent" not in text and "fail" not in text,
                 f"{job['id']}: {text!r}")


def generate(name: str) -> dict:
    units = jobs.workload_units(name)
    order = [job for unit in units for job in unit]
    work = jobs.ROOT / ".bench_work" / f"reference-{name}"
    shutil.rmtree(work, ignore_errors=True)
    cache = work / "cache"
    cache.mkdir(parents=True)
    outputs = {}
    for job in order:
        if job["kind"] == "cli":
            try:
                text = jobs.run_cli(job, cache)
            except jobs.JobFailed as exc:
                _require(job["exit"] == jobs.EXIT_INFEASIBLE, str(exc))
                print(f"  {job['id']}: FAILED ({exc}); stored as a refusal",
                      file=sys.stderr)
                text = ""
            if job["exit"] == jobs.EXIT_INFEASIBLE:
                _require(text == "", f"{job['id']}: refusal stdout")
            else:
                check_cli(job, text)
            out = jobs.cli_record(job, text)
        else:
            out = json.loads(json.dumps(jobs.run_in_process(job)))
            if job["kind"] == "table":
                check_table(job["group"], out["sh"], job["id"], closure=False)
                check_table(job["group"], out["closure"], job["id"],
                            closure=True)
            if job["kind"] == "suite":
                bad = [r for r in out
                       if r["verdict"] not in ("pass", "consistent", "skipped")]
                _require(not bad, f"{job['id']}: {bad}")
                if job["suite"] == "table-calcs":
                    _require(all(r["verdict"] == "pass" for r in out),
                             "table-calcs has a skipped row")
        outputs[job["id"]] = out
        print(f"  {job['id']}: ok", file=sys.stderr)
    if name == "elim":
        check_elim(outputs)
    shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "jobs": outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=jobs.WORKLOADS)
    args = parser.parse_args(argv)
    jobs.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or jobs.WORKLOADS:
        print(f"{name}:", file=sys.stderr)
        data = generate(name)
        path = jobs.reference_path(name)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
