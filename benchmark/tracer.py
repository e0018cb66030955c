"""Span tracer that wraps supercoinv's layers from outside the program.

``Tracer.install()`` swaps the listed public functions and methods for
wrappers in every loaded ``supercoinv`` module that holds them;
``uninstall()`` puts the originals back.  Each wrapper records a span (name,
start, end, parent, job id) in memory.  ``summarize`` turns the spans into
per-layer metrics: self time per layer, inclusive times of named entry
points, and the counts listed in ``PER_LAYER``.

Times come from ``time.monotonic``, one clock for every process on the
machine, so spans written by CLI child processes share the parent's
timeline.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

now = time.monotonic

LAYERS = ("groups", "harmonics", "linalg", "groebner", "artin", "qseries",
          "verify", "cli")
SUITES = ("artin", "closure", "exactness", "groebner", "hilb-alt",
          "laplacian", "no-dice", "operator-top", "qseries", "support-b",
          "support-c", "table-calcs", "zabrocki")

# (module, attribute): functions that get a span named "<module>.<attribute>".
SPAN_FUNCTIONS = [
    ("groups", "build_group"),
    ("harmonics", "sh_dim_table"),
    ("harmonics", "harmonic_cell_dimension"),
    ("harmonics", "coinvariant_cell_dimension"),
    ("harmonics", "harmonic_cells"),
    ("harmonics", "harmonic_cell"),
    ("harmonics", "kernel_intersection"),
    ("harmonics", "derivative_closure"),
    ("harmonics", "det_isotypic_elements"),
    ("harmonics", "det_isotypic_basis"),
    ("harmonics", "exactness_check"),
    ("harmonics", "support_check"),
    ("harmonics", "fitting_structures"),
    ("harmonics", "laplacian_spectrum_check"),
    ("linalg", "rank"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "residual"),
    ("groebner", "buchberger"),
    ("groebner", "standard_monomials"),
    ("artin", "enumerate_artin"),
    ("qseries", "alternating_sum"),
    ("qseries", "zabrocki_hilbert"),
    ("verify", "run_suite"),
    ("cli", "main"),
]
# (module, class, method): methods that get a span "<module>.<Class>.<method>".
SPAN_METHODS = [
    ("cli", "ResultCache", "load"),
    ("cli", "ResultCache", "store"),
]
# (module, class, method, counter): hot methods that are only counted.
COUNTED_METHODS = [
    ("superpoly", "Operator", "apply", "superpoly.apply_calls"),
    ("superpoly", "SuperPoly", "__mul__", "superpoly.mul_calls"),
]
ELIMINATIONS = {"linalg.rank", "linalg.rref", "linalg.nullspace"}

# Inclusive time over the outermost spans of the given names.
INCLUSIVE = {
    "groups.build_s": {"groups.build_group"},
    "harmonics.kernel_s": {"harmonics.harmonic_cell_dimension"},
    "harmonics.oracle_s": {"harmonics.coinvariant_cell_dimension"},
    "harmonics.closure_s": {"harmonics.derivative_closure"},
    "harmonics.basis_s": {"harmonics.harmonic_cells", "harmonics.harmonic_cell"},
    "groebner.buchberger_s": {"groebner.buchberger"},
    "artin.enumerate_s": {"artin.enumerate_artin"},
    "qseries.s": {"qseries.alternating_sum", "qseries.zabrocki_hilbert"},
    "cli.startup_s": {"cli.startup"},
    "cli.cache_load_s": {"cli.ResultCache.load"},
    "cli.cache_store_s": {"cli.ResultCache.store"},
}

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = (
    [("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
     ("failed_ratio", "ratio")]
    + [(f"self_s.{layer}", "s") for layer in LAYERS + ("other",)]
    + [("groups.build_s", "s"), ("groups.builds", "count"),
       ("groups.delta_terms", "count"),
       ("superpoly.apply_calls", "count"), ("superpoly.mul_calls", "count"),
       ("harmonics.cells", "count"), ("harmonics.kernel_s", "s"),
       ("harmonics.assemble_s", "s"), ("harmonics.oracle_s", "s"),
       ("harmonics.closure_s", "s"), ("harmonics.basis_s", "s"),
       ("harmonics.refusals", "count"), ("harmonics.refusal_wasted_s", "s"),
       ("linalg.eliminate_s", "s"), ("linalg.calls", "count"),
       ("linalg.rows_in", "count"), ("linalg.nnz_in", "count"),
       ("linalg.max_cols", "count"), ("linalg.pivot_ratio", "ratio"),
       ("groebner.buchberger_s", "s"), ("groebner.buchberger_calls", "count"),
       ("artin.enumerate_s", "s"), ("qseries.s", "s")]
    + [(f"verify.suite_s.{name}", "s") for name in SUITES]
    + [("verify.table_builds", "count"), ("verify.cells_builds", "count"),
       ("verify.table_reuse_ratio", "ratio"),
       ("cli.startup_s", "s"), ("cli.cache_hits", "count"),
       ("cli.cache_misses", "count"), ("cli.cache_hit_ratio", "ratio"),
       ("cli.cache_load_s", "s"), ("cli.cache_store_s", "s"),
       ("cli.cache_bytes_written", "bytes"), ("cli.exit_mismatches", "count")]
)


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "job", "child",
                 "pull", "attrs")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _module(name: str):
    return importlib.import_module(f"supercoinv.{name}")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counters = {counter: 0 for *_, counter in COUNTED_METHODS}
        self.refusals: list[dict] = []
        self.job = None
        self.job_start = 0.0
        self._stack: list[_Span] = []
        self._swapped: list[tuple[object, str, object]] = []
        self._seen_errors: set[int] = set()
        self._originals: dict[str, object] = {}

    # -- spans --------------------------------------------------------------

    def begin_job(self, job_id: str, start: float):
        self.job = job_id
        self.job_start = start

    def open(self, name: str, start: float | None = None) -> _Span:
        span = _Span()
        span.id = len(self.spans)
        span.parent = self._stack[-1].id if self._stack else None
        span.name = name
        span.start = now() if start is None else start
        span.end = None
        span.job = self.job
        span.child = 0.0
        span.pull = 0.0
        span.attrs = {}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: _Span, error: BaseException | None = None):
        span.end = now()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start
        if error is not None:
            span.attrs["error"] = type(error).__name__
            if (type(error).__name__ == "FeasibilityError"
                    and id(error) not in self._seen_errors):
                self._seen_errors.add(id(error))
                self.refusals.append(
                    {"job": self.job, "wasted_s": span.end - self.job_start})

    def _in_elimination(self) -> bool:
        return any(s.name in ELIMINATIONS for s in self._stack)

    def _pull(self, rows, span: _Span):
        """Yield rows, charging the time spent producing them to span.pull."""
        it = iter(rows)
        while True:
            t0, c0 = now(), span.child
            try:
                row = next(it)
            except StopIteration:
                span.pull += now() - t0 - (span.child - c0)
                return
            span.pull += now() - t0 - (span.child - c0)
            span.attrs["rows"] += 1
            span.attrs["nnz"] += len(row)
            yield row

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_elim = name in ELIMINATIONS and not tracer._in_elimination()
            span = tracer.open(name)
            if outer_elim:
                args, kwargs = tracer._count_rows(span, args, kwargs)
            state = before(span, args, kwargs) if before else None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            if outer_elim:
                span.attrs["pivots"] = _pivots(name, result, span.attrs["cols"])
            if after:
                after(span, args, kwargs, result, state)
            tracer.close(span)
            return result

        wrapper._bench_traced = True
        return wrapper

    def _count_rows(self, span, args, kwargs):
        rows = args[0] if args else kwargs.pop("rows")
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        span.attrs.update(outer=True, rows=0, nnz=0, cols=ncols)
        return (self._pull(rows, span),) + tuple(args[1:]), kwargs

    def _before_groups_build_group(self, span, args, kwargs):
        return self._originals["groups.build_group"].cache_info().misses

    def _after_groups_build_group(self, span, args, kwargs, gd, misses):
        if self._originals["groups.build_group"].cache_info().misses > misses:
            span.attrs["built"] = 1
            span.attrs["delta_terms"] = (len(gd.vandermondian.terms)
                                         + len(gd.covandermondian.terms))

    def _before_harmonics_sh_dim_table(self, span, args, kwargs):
        gd = args[0] if args else kwargs["gd"]
        spec = gd.spec
        span.attrs["group"] = [spec.m, spec.p, spec.n]

    _before_harmonics_harmonic_cells = _before_harmonics_sh_dim_table

    def _before_verify_run_suite(self, span, args, kwargs):
        span.attrs["suite"] = args[0] if args else kwargs["name"]

    def _after_cli_ResultCache_load(self, span, args, kwargs, payload, _):
        cache = args[0]
        if cache.enabled:
            span.attrs["hit"] = int(payload is not None)

    def _after_cli_ResultCache_store(self, span, args, kwargs, _result, _):
        cache, kind, spec = args[:3]
        if cache.enabled:
            span.attrs["bytes"] = cache._path(kind, spec).stat().st_size

    def _counting_wrapper(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper._bench_traced = True
        return wrapper

    def install(self):
        """Swap every listed function and method for its wrapper."""
        import sys

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "supercoinv" or name.startswith("supercoinv.")]
        for mod_name, attr in SPAN_FUNCTIONS:
            orig = getattr(_module(mod_name), attr)
            name = f"{mod_name}.{attr}"
            self._originals[name] = orig
            wrapper = self._span_wrapper(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, key, wrapper)
        for mod_name, cls_name, attr in SPAN_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            name = f"{mod_name}.{cls_name}.{attr}"
            self._swap(cls, attr, self._span_wrapper(name, vars(cls)[attr]))
        for mod_name, cls_name, attr, counter in COUNTED_METHODS:
            cls = getattr(_module(mod_name), cls_name)
            self._swap(cls, attr, self._counting_wrapper(counter,
                                                         vars(cls)[attr]))

    def _swap(self, owner, attr, wrapper):
        self._swapped.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._swapped:
            owner, attr, orig = self._swapped.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": [s.to_dict() for s in self.spans],
                "counters": dict(self.counters),
                "refusals": list(self.refusals)}


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from supercoinv modules."""
    import sys

    found = []
    for name, mod in sorted(sys.modules.items()):
        if name != "supercoinv" and not name.startswith("supercoinv."):
            continue
        for key, value in vars(mod).items():
            if getattr(value, "_bench_traced", False):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if getattr(member, "_bench_traced", False):
                        found.append(f"{name}.{key}.{attr}")
    return found


def _pivots(name: str, result, ncols: int) -> int:
    if name == "linalg.rank":
        return result
    if name == "linalg.rref":
        return len(result)
    return ncols - len(result)  # nullspace: one vector per free column


def merge(into: dict, other: dict):
    """Append another process's dump, renumbering its span ids."""
    offset = len(into["spans"])
    for span in other["spans"]:
        span = dict(span)
        span["id"] += offset
        if span["parent"] is not None:
            span["parent"] += offset
        into["spans"].append(span)
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    into["refusals"].extend(other["refusals"])


def write_jsonl(path, trace: dict):
    with open(path, "w") as fh:
        for span in trace["spans"]:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counters": trace["counters"],
                             "refusals": trace["refusals"]}) + "\n")


def read_jsonl(path) -> dict:
    spans, tail = [], {"counters": {}, "refusals": []}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "counters" in record:
                tail = record
            else:
                spans.append(record)
    return {"spans": spans, "counters": tail["counters"],
            "refusals": tail["refusals"]}


def summarize(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics from a pass's spans; self times add up to wall_s."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def has_ancestor(span, names):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                return True
            parent = by_id[parent]["parent"]
        return False

    out = {name: 0 for name, _ in PER_LAYER}
    self_s = dict.fromkeys(LAYERS, 0.0)
    pivots = 0
    built = set()  # distinct (kind, group) built inside verify suites
    for span in spans:
        dur = span["end"] - span["start"]
        name, attrs = span["name"], span["attrs"]
        self_s[name.split(".")[0]] += dur - span["child"] - span["pull"]
        self_s["harmonics"] += span["pull"]
        out["harmonics.assemble_s"] += span["pull"]
        for metric, names in INCLUSIVE.items():
            if name in names and not has_ancestor(span, names):
                out[metric] += dur
        if name.startswith("linalg."):
            out["linalg.eliminate_s"] += dur - span["child"] - span["pull"]
        if attrs.get("outer"):
            out["linalg.calls"] += 1
            out["linalg.rows_in"] += attrs["rows"]
            out["linalg.nnz_in"] += attrs["nnz"]
            out["linalg.max_cols"] = max(out["linalg.max_cols"], attrs["cols"])
            pivots += attrs["pivots"]
        if name in ("harmonics.harmonic_cell_dimension",
                    "harmonics.harmonic_cell"):
            out["harmonics.cells"] += 1
        if name == "groups.build_group" and attrs.get("built"):
            out["groups.builds"] += 1
            out["groups.delta_terms"] += attrs["delta_terms"]
        if name == "groebner.buchberger":
            out["groebner.buchberger_calls"] += 1
        if name == "verify.run_suite":
            out[f"verify.suite_s.{attrs['suite']}"] += dur
        if (name in ("harmonics.sh_dim_table", "harmonics.harmonic_cells")
                and has_ancestor(span, {"verify.run_suite"})):
            kind = "table" if name.endswith("sh_dim_table") else "cells"
            out[f"verify.{kind}_builds"] += 1
            built.add((kind, tuple(attrs["group"])))
        if "hit" in attrs:
            out["cli.cache_hits" if attrs["hit"] else "cli.cache_misses"] += 1
        out["cli.cache_bytes_written"] += attrs.get("bytes", 0)

    builds = out["verify.table_builds"] + out["verify.cells_builds"]
    lookups = out["cli.cache_hits"] + out["cli.cache_misses"]
    out["linalg.pivot_ratio"] = (pivots / out["linalg.rows_in"]
                                 if out["linalg.rows_in"] else 0.0)
    out["verify.table_reuse_ratio"] = len(built) / builds if builds else 0.0
    out["cli.cache_hit_ratio"] = out["cli.cache_hits"] / lookups if lookups else 0.0
    out["harmonics.refusals"] = len(trace["refusals"])
    out["harmonics.refusal_wasted_s"] = sum(r["wasted_s"]
                                            for r in trace["refusals"])
    out.update(trace["counters"])
    for layer in LAYERS:
        out[f"self_s.{layer}"] = self_s[layer]
    out["self_s.other"] = wall_s - sum(self_s.values())
    out["trace.wall_s"] = wall_s
    return out
