#!/usr/bin/env python3
"""Recompute the two-column Hilbert series table and diff it against the
published values.

By default runs the desk-scale groups (about 1.5 s in total on a 2-core
machine, most of it starting each row's process).  --stretch adds the rows
of S_5, B_4 and D_4 (about 2.5 s in total, S_5 the slowest); --group m p n
runs a single group; --all runs every row of ``verify.GOLDEN_TABLE``, S_6
and B_5 included (minutes), at the cell budget 10^13 unless one is given.
Each row is computed in a fresh child process and ends with the seconds of
its table and of its derivative closure, and that process's peak resident
memory (the getrusage high-water mark, in MB), so no row carries over the
peak of an earlier one.  Exit status 0 iff every computed row matches its
golden row.
"""

import argparse
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supercoinv import dimtable, harmonics
from supercoinv.groups import build_group
from supercoinv.verify import DESK_SCALE_GROUPS, GOLDEN_TABLE, golden_row

STRETCH_GROUPS = [(1, 1, 5), (2, 1, 4), (2, 2, 4)]


def z_string(coeffs):
    from supercoinv.qseries import format_poly

    return format_poly(dict(coeffs), var="z")


def run_group(key, budget):
    """The table and the closure of a group, the seconds each took, and the
    peak resident memory of the process in MB."""
    gd = build_group(*key)
    t0 = time.time()
    table = harmonics.sh_dim_table(gd, budget=budget)
    t1 = time.time()
    closure = harmonics.derivative_closure(gd, budget=budget)
    seconds = t1 - t0, time.time() - t1
    return table, closure, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true",
                        help="include S_5, B_4, D_4 (seconds)")
    parser.add_argument("--group", type=int, nargs=3, metavar=("M", "P", "N"))
    parser.add_argument("--all", action="store_true",
                        help="every golden row, S_6 and B_5 included (minutes)")
    parser.add_argument("--cell-budget", type=int,
                        help="default 10^9, or 10^13 with --all")
    parser.add_argument("--latex", action="store_true",
                        help="also print the LaTeX table")
    args = parser.parse_args()

    budget = args.cell_budget
    if budget is None:
        budget = 10**13 if args.all else 10**9
    if args.group:
        keys = [tuple(args.group)]
    elif args.all:
        keys = list(GOLDEN_TABLE)
    else:
        keys = list(DESK_SCALE_GROUPS)
        if args.stretch:
            keys += STRETCH_GROUPS

    rows = []
    all_ok = True
    for key in keys:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            table, closure, (table_s, closure_s), peak_mb = pool.submit(
                run_group, key, budget).result()
        label = table.group.label()
        sh = table.z_coefficients_at_q1()
        cl = closure.z_coefficients_at_q1()
        rows.append((label, z_string(sh), z_string(cl)))
        golden = golden_row(key)
        if golden is None:
            status = "no golden row"
        else:
            ok = (sh, cl) == golden
            all_ok = all_ok and ok
            status = "ok" if ok else "MISMATCH"
        closure_txt = "(same)" if cl == sh else z_string(cl)
        print(f"{label:>10}  {z_string(sh):<55} {closure_txt:<45} "
              f"[{status}, {table_s:.2f}s + {closure_s:.2f}s, {peak_mb:.1f} MB]")

    if args.latex:
        print()
        print(dimtable.latex_table(rows))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
