"""Command-line surface and the on-disk result cache.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage error,
3 infeasible-size refusal.  Results go to stdout, diagnostics to stderr.

The cache directory is taken from --cache-dir, else the SUPERCOINV_CACHE
environment variable, else ~/.cache/supercoinv.  Entries are JSON files
keyed by (computation kind, m, p, n, engine version) and carry a sha256
checksum; corrupted, malformed or version-mismatched entries are
recomputed, never silently used.  Writers hold a lock file; reads are
lock-free.  hashlib, fcntl and tempfile are imported only by the cache code
that uses them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import ENGINE_VERSION, artin, dimtable, groebner, harmonics, verify
from .groups import GroupSpec, build_group, group_info
from .harmonics import DEFAULT_CELL_BUDGET, DimTable, FeasibilityError
from .qseries import format_poly
from .superpoly import SuperPoly

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class ResultCache:
    """Checksummed JSON cache for dimension tables and Groebner bases."""

    def __init__(self, root: Path, enabled: bool = True):
        self.root = Path(root)
        self.enabled = enabled

    def _path(self, kind: str, spec: GroupSpec) -> Path:
        name = f"{kind}-m{spec.m}-p{spec.p}-n{spec.n}-v{ENGINE_VERSION}.json"
        return self.root / name

    def load(self, kind: str, spec: GroupSpec):
        if not self.enabled:
            return None
        path = self._path(kind, spec)
        try:
            wrapper = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(wrapper, dict):
            return None
        payload = wrapper.get("payload")
        if payload is None or wrapper.get("checksum") != _checksum(payload):
            return None
        return payload

    def store(self, kind: str, spec: GroupSpec, payload):
        if not self.enabled:
            return
        import fcntl
        import tempfile

        self.root.mkdir(parents=True, exist_ok=True)
        wrapper = {"payload": payload, "checksum": _checksum(payload)}
        text = json.dumps(wrapper, sort_keys=True)
        lock_path = self.root / ".lock"
        with open(lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, self._path(kind, spec))
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    def _get(self, kind: str, spec: GroupSpec, decode, compute, encode, fits):
        payload = self.load(kind, spec)
        if payload is not None:
            try:
                value = decode(payload)
                if fits(value):
                    return value
            except (AttributeError, KeyError, TypeError, ValueError):
                pass  # a payload of the wrong shape is a miss, as is another group's
        value = compute()
        self.store(kind, spec, encode(value))
        return value

    def get_dim_table(self, kind: str, spec: GroupSpec, compute) -> DimTable:
        return self._get(kind, spec, DimTable.from_json_dict, compute, DimTable.to_json_dict,
                         lambda table: table.group == spec)

    def get_groebner_basis(self, spec: GroupSpec, compute) -> groebner.GroebnerBasis:
        return self._get("groebner", spec, _decode_basis, compute, lambda gb: {
            "n": gb.n, "generators": gb.to_strings(),
        }, lambda gb: gb.n == spec.n)


def _decode_basis(payload) -> groebner.GroebnerBasis:
    gens = tuple(SuperPoly.parse(text, payload["n"]) for text in payload["generators"])
    if any(thetas for g in gens for _, thetas in g.terms):
        raise ValueError("theta variables in a cached Groebner basis")
    return groebner.GroebnerBasis(payload["n"], gens)


def _checksum(payload) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("SUPERCOINV_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "supercoinv"


def _at_least(least: int):
    """argparse type: an int no smaller than ``least``."""
    def integer(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercoinv",
        description="Exact computations with super coinvariant algebras of "
        "the reflection groups G(m,p,n).",
    )
    parser.add_argument("--cache-dir", help="cache directory (default: "
                        "$SUPERCOINV_CACHE or ~/.cache/supercoinv)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute everything, touch no cache files")
    parser.add_argument("--threads", type=_at_least(1), default=1,
                        help="worker processes for the dimension-table rows; "
                        "slower than 1 on the smallest tables (S_4, D_4)")
    parser.add_argument("--cell-budget", type=_at_least(0), default=DEFAULT_CELL_BUDGET,
                        help="max matrix entries per bidegree cell before "
                        "refusing (default %(default)s)")

    group_args = argparse.ArgumentParser(add_help=False)
    group_args.add_argument("--m", type=int, required=True)
    group_args.add_argument("--p", type=int, default=1)
    group_args.add_argument("--n", type=int, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group-info", parents=[group_args],
                        help="print the explicit data attached to G(m,p,n)")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("artin", parents=[group_args],
                        help="Artin basis of the coinvariant algebra")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--hilbert", action="store_true")
    mode.add_argument("--enumerate", action="store_true",
                      help="one exponent vector per line, lex-sorted")

    sp = sub.add_parser("groebner", parents=[group_args],
                        help="reduced Groebner basis of the coinvariant ideal")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--show-basis", action="store_true")
    mode.add_argument("--verify-paper-basis", action="store_true",
                      help="check that the closed-form generating family is "
                      "already the reduced basis (exit status signals the "
                      "result)")
    mode.add_argument("--standard-monomials", action="store_true")

    sp = sub.add_parser("hilbert", parents=[group_args],
                        help="bi-graded Hilbert series of the super "
                        "coinvariant algebra")
    sp.add_argument("--z-at", type=int, default=None,
                    help="substitute an integer for z")
    sp.add_argument("--q-at", type=int, default=None,
                    help="substitute an integer for q")
    sp.add_argument("--format", choices=["json", "latex", "text"],
                    default="text")
    sp.add_argument("--closure", action="store_true",
                    help="use the derivative closure of the det-isotypic "
                    "forms instead of the harmonics")

    sp = sub.add_parser("harmonics", parents=[group_args],
                        help="print a basis of one bidegree component")
    sp.add_argument("--bidegree", type=int, nargs=2, metavar=("I", "K"),
                    required=True)

    sp = sub.add_parser("verify", help="run a named theorem/conjecture suite")
    sp.add_argument("suite", choices=sorted(verify.SUITES))
    sp.add_argument("--m", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=_at_least(1))
    sp.add_argument("--family", choices=["A", "B"], default="A")
    sp.add_argument("--j", type=_at_least(1))
    sp.add_argument("--N", type=_at_least(1))
    sp.add_argument("--degree", type=_at_least(0))
    sp.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(cache_dir, enabled=not args.no_cache)
    try:
        return _dispatch(args, cache)
    except FeasibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _spec(args) -> GroupSpec:
    return GroupSpec.create(args.m, args.p, args.n)


def _dispatch(args, cache: ResultCache) -> int:
    if args.command == "group-info":
        info = group_info(_spec(args))
        if args.format == "json":
            print(json.dumps(info, sort_keys=True))
        else:
            for key in sorted(info):
                print(f"{key}: {info[key]}")
        return EXIT_OK

    if args.command == "artin":
        spec = _spec(args)
        m, p, n = spec.m, spec.p, spec.n
        if args.count:
            print(artin.artin_count(m, p, n))
        elif args.hilbert:
            print(artin.artin_hilbert(m, p, n))
        else:
            for rows in artin.enumerate_artin(m, p, n):
                print(" ".join(str(a) for a in rows))
        return EXIT_OK

    if args.command == "groebner":
        spec = _spec(args)
        m, p, n = spec.m, spec.p, spec.n
        gb = cache.get_groebner_basis(
            spec, lambda: groebner.buchberger(groebner.groebner_generators(m, p, n))
        )
        if args.show_basis:
            for g in gb.generators:
                print(g.to_string())
            return EXIT_OK
        if args.standard_monomials:
            for exp in groebner.standard_monomials(gb):
                print(" ".join(str(e) for e in exp))
            return EXIT_OK
        if all(verify.closed_form_basis_check((m, p, n), gb)):
            print("match: closed-form family is the reduced Groebner basis")
            return EXIT_OK
        print("mismatch: engine basis differs from the closed-form family")
        return EXIT_CHECK_FAILED

    if args.command == "hilbert":
        return _cmd_hilbert(args, cache)

    if args.command == "harmonics":
        spec = _spec(args)
        gd = build_group(spec.m, spec.p, spec.n)
        i, k = args.bidegree
        sub = harmonics.harmonic_cell(gd, i, k, budget=args.cell_budget)
        for f in sub.vectors(gd.n):
            print(f.to_string())
        return EXIT_OK

    if args.command == "verify":
        reports = verify.run_suite(
            args.suite,
            m=args.m,
            p=args.p,
            n=args.n,
            family=args.family,
            j=args.j,
            N=args.N,
            degree=args.degree,
            budget=args.cell_budget,
            threads=args.threads,
        )
        if args.format == "json":
            for r in reports:
                print(r.to_json())
        else:
            for line in verify.summary_lines(reports):
                print(line)
        return EXIT_OK if all(r.ok for r in reports) else EXIT_CHECK_FAILED

    raise ValueError(f"unhandled command {args.command}")


def _cmd_hilbert(args, cache: ResultCache) -> int:
    # The group is built only when a table is computed, not on a cache hit.
    spec = _spec(args)

    def compute_sh():
        return harmonics.sh_dim_table(build_group(spec.m, spec.p, spec.n),
                                      budget=args.cell_budget, threads=args.threads)

    def compute_closure():
        return harmonics.derivative_closure(build_group(spec.m, spec.p, spec.n),
                                            budget=args.cell_budget)

    if args.format == "latex":
        sh = cache.get_dim_table("sh-dims", spec, compute_sh)
        closure = cache.get_dim_table("closure-dims", spec, compute_closure)
        print(dimtable.latex_table([
            (spec.label(), sh.hilbert_z_string(), closure.hilbert_z_string())
        ]))
        return EXIT_OK

    kind = "closure-dims" if args.closure else "sh-dims"
    table = cache.get_dim_table(kind, spec, compute_closure if args.closure else compute_sh)

    if args.format == "json":
        print(table.to_json())
        return EXIT_OK

    qz = table.hilbert_qz()
    if args.q_at is not None and args.z_at is not None:
        print(qz(args.q_at, args.z_at))
    elif args.q_at is not None:
        print(format_poly(qz.specialize("q", args.q_at), var="z"))
    elif args.z_at is not None:
        print(format_poly(qz.specialize("z", args.z_at), var="q"))
    else:
        print(qz)
    return EXIT_OK


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
