"""Machine-speed yardsticks for the untraced passes.

The benchmark runs on shared hosts whose speed drifts: on the 2-core
container where the baseline was taken, the same job took from 1x to 1.8x
its quickest time within a minute, and a 25 s run could sit wholly in a
slow stretch.  So a pass times a fixed yardstick before and after every
job, and divides the job's time by the slowdown measured around it.  The
yardsticks use nothing from supercoinv, so a change to the program moves
the scaled times exactly as it moves the raw ones.

* In-process jobs: a pure-Python kernel that does the kind of work the
  program does (sparse integer rows merged through dicts, multiplied and
  divided by their gcd), run in the pass's own process.
* CLI jobs: a fresh interpreter that imports the standard-library modules
  the CLI imports.  A CLI job is mostly interpreter start and import, in a
  process that may run on another core, and the in-process kernel tracks
  it poorly.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from math import gcd

# Yardstick times at the reference speed (their quickest times on the
# baseline machine).  Scaled times are seconds at that speed.
KERNEL_REF_S = 0.05
SPAWN_REF_S = 0.07
SPAWN = [sys.executable, "-c", "import argparse, dataclasses, fractions, "
         "hashlib, json, pathlib, re, tempfile"]
_ROWS, _COLS, _DENSITY, _MATRICES = 60, 120, 6, 12


def _matrix(seed: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(seed)
    return [sorted({rng.randrange(_COLS): rng.randrange(1, 10)
                    for _ in range(_DENSITY)}.items())
            for _ in range(_ROWS)]


_INPUTS = [_matrix(seed) for seed in range(_MATRICES)]


def _rank(rows) -> int:
    pivots = {}
    for row in rows:
        while row:
            col, value = row[0]
            if col not in pivots:
                pivots[col] = row
                break
            piv = pivots[col]
            merged: dict[int, int] = {}
            for c, v in row:
                merged[c] = merged.get(c, 0) + piv[0][1] * v
            for c, v in piv:
                merged[c] = merged.get(c, 0) - value * v
            row = sorted((c, v) for c, v in merged.items() if v)
            g = 0
            for _, v in row:
                g = gcd(g, v)
            if g > 1:
                row = [(c, v // g) for c, v in row]
    return len(pivots)


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    for rows in _INPUTS:
        _rank(rows)
    return time.perf_counter() - start


def spawn_s() -> float:
    """Seconds a fresh interpreter takes to start and import SPAWN's list."""
    start = time.perf_counter()
    subprocess.run(SPAWN, check=True)
    return time.perf_counter() - start


def slowdown(kind: str) -> float:
    """How much slower than the reference speed jobs of this kind run now."""
    if kind == "cli":
        return spawn_s() / SPAWN_REF_S
    return kernel_s() / KERNEL_REF_S
