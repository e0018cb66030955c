"""Named theorem/conjecture checks assembled into machine-readable reports.

Each suite runs one named claim about the super coinvariant algebras of
G(m, p, n) and emits CheckReport records: (claim id, parameters, expected,
computed, verdict).  Theorem suites report pass/fail; conjecture suites
report consistent/inconsistent and never assert the conjecture as ground
truth.  All comparisons are exact; "pass"/"consistent" requires equality.

Every suite over groups is one ``check(key, params)`` closure that ``_each``
runs on each case ``_groups`` selects: the group given by m, p, n, or the
suite's default list.  A case outside a claim's scope comes back from its
check as ``skipped`` with the reason; a case the cell budget refuses is
turned into ``skipped`` with the size estimate by ``_each`` alone.

Suites and the claim ids their reports carry:

    table-calcs   golden two-column Hilbert series table (q = 1)
    artin         thm:Artin_mpn  - standard monomials = Artin basis
    groebner      thm:grobner_mpn - closed-form family is the reduced basis
    exactness     thm:exact + cor:Hilb + cor:dif_difdagger
    support-b     thm:B  - bidegree support for G(m, 1, n)
    support-c     thm:C  - total-degree support and top slice
    operator-top  thm:A2 - Ann(Gamma) = I' (top theta-degree closure)
    no-dice       lem:no_dice - strictness witnesses where closure fails
    closure       eq:thm:A / conj:A - derivative closure vs harmonics
    zabrocki      conj:Hilb_type_A / conj:Hilb_type_B column comparison
    hilb-alt      conj:Hilb_alt - Hilb(q, -q^j) vs the alternating sum
    laplacian     lem:power_sum_Laplacian - diagonal spectrum
    qseries       the alternating q-identity at j = 1 (both families)
"""

from __future__ import annotations

import json

from . import artin, checks, groebner, harmonics, qseries
from .groups import GroupSpec, build_group
from .harmonics import DEFAULT_CELL_BUDGET, FeasibilityError
from .qseries import QPoly
from .records import Record

PROVENANCE_PUBLISHED = "published-table"
PROVENANCE_FORMULA = "closed-form"
PROVENANCE_DERIVED = "derived"


class CheckReport(Record):
    claim_id: str
    params: dict
    expected: str
    computed: str
    verdict: str  # pass | fail | consistent | inconsistent | skipped
    provenance: str = ""
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "consistent", "skipped")

    def to_json(self) -> str:
        data = {
            "claim_id": self.claim_id,
            "params": self.params,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
        }
        if self.provenance:
            data["provenance"] = self.provenance
        if self.note:
            data["note"] = self.note
        return json.dumps(data, sort_keys=True)


# Golden q = 1 Hilbert series data: (m, p, n) -> (harmonic z-coefficients
# ascending in the theta-degree, closure coefficients or None for "(same)").
GOLDEN_TABLE: dict[tuple[int, int, int], tuple[list[int], list[int] | None]] = {
    (1, 1, 3): ([6, 6, 1], None),
    (1, 1, 4): ([24, 36, 14, 1], None),
    (1, 1, 5): ([120, 240, 150, 30, 1], None),
    (1, 1, 6): ([720, 1800, 1560, 540, 62, 1], None),
    (2, 1, 4): ([384, 768, 464, 80, 1], None),
    (2, 1, 5): ([3840, 9600, 8160, 2640, 242, 1], None),
    (2, 2, 2): ([4, 4, 1], None),
    (2, 2, 3): ([24, 36, 14, 1], None),
    (2, 2, 4): ([192, 384, 240, 48, 1], [192, 384, 238, 46, 1]),
    (2, 2, 5): ([1920, 4800, 4160, 1440, 162, 1], [1920, 4800, 4140, 1405, 147, 1]),
    (3, 1, 2): ([18, 21, 4], None),
    (4, 1, 2): ([32, 40, 9], None),
    (5, 1, 2): ([50, 65, 16], None),
    (5, 1, 3): ([750, 1350, 665, 64], None),
    (3, 1, 4): ([1944, 4212, 2862, 609, 16], None),
    (4, 1, 4): ([6144, 13824, 9920, 2320, 81], None),
    (4, 2, 4): ([3072, 7104, 5408, 1451, 76], [3072, 6144, 3616, 544, 1]),
    (4, 4, 4): ([1536, 3072, 1920, 416, 33], [1536, 3072, 1822, 286, 1]),
}

# Groups cheap enough for the default budget, used when no group is given.
DESK_SCALE_GROUPS = [
    (1, 1, 3),
    (1, 1, 4),
    (2, 2, 2),
    (2, 2, 3),
    (3, 1, 2),
    (4, 1, 2),
    (5, 1, 2),
]

GRID = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
]


def golden_row(key) -> tuple[dict[int, int], dict[int, int]] | None:
    """The golden (harmonic, closure) z-coefficients of a group at q = 1, as
    {theta-degree: dimension} without zeros; None if the group has no row."""
    if key not in GOLDEN_TABLE:
        return None
    sh, closure = GOLDEN_TABLE[key]
    return tuple({k: c for k, c in enumerate(col) if c} for col in (sh, closure or sh))


class _Context(Record):
    budget: int = DEFAULT_CELL_BUDGET
    threads: int = 1
    _tables: dict = {}
    _cells: dict = {}

    def table(self, key) -> harmonics.DimTable:
        if key not in self._tables:
            gd = build_group(*key)
            self._tables[key] = harmonics.sh_dim_table(
                gd, budget=self.budget, threads=self.threads
            )
        return self._tables[key]

    def cells(self, key):
        if key not in self._cells:
            gd = build_group(*key)
            self._cells[key] = harmonics.harmonic_cells(gd, budget=self.budget)
        return self._cells[key]


def _groups(m, p, n, default, **extra) -> list[tuple[tuple[int, int, int], dict]]:
    """(key, params) of the group m, p, n, or of every default group when no
    group is given; extra entries are added to each params."""
    if m is None and p is None and n is None:
        keys = default
    elif m is None or n is None:
        raise ValueError("both --m and --n are required when selecting a group")
    else:
        keys = [(m, 1 if p is None else p, n)]
    return [(key, {"m": key[0], "p": key[1], "n": key[2], **extra}) for key in keys]


def _fixed_group(suite, m, p, mm=None):
    """ValueError unless the given m and p select G(mm, 1, n), the only
    groups the suite runs; with mm None the suite takes no group."""
    if m not in (None, mm) or p not in (None, 1 if mm else None):
        raise ValueError(f"{suite} does not run the groups of m={m} p={p}")


def _each(claim, cases, check) -> list[CheckReport]:
    """check(key, params) -> CheckReport for every case; a case the cell
    budget refuses is reported skipped with the refusal, under ``claim`` or,
    when it is a function, under ``claim(key)``."""
    reports = []
    for key, params in cases:
        try:
            reports.append(check(key, params))
        except FeasibilityError as exc:
            reports.append(_skip(claim(key) if callable(claim) else claim, params, str(exc)))
    return reports


def _skip(claim, params, reason) -> CheckReport:
    return CheckReport(claim, params, "", "", "skipped", note=reason)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_table_calcs(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        want = golden_row(key)
        if want is None:
            return _skip("tab:calcs", params, "no golden row for this group")
        table = ctx.table(key)
        closure = harmonics.derivative_closure(build_group(*key), budget=ctx.budget)
        got = table.z_coefficients_at_q1(), closure.z_coefficients_at_q1()
        ok = got == want
        return CheckReport(
            "tab:calcs",
            params,
            " | ".join(qseries.format_poly(col, var="z") for col in want),
            " | ".join(qseries.format_poly(col, var="z") for col in got),
            "pass" if ok else "fail",
            provenance=PROVENANCE_PUBLISHED,
            note="" if ok else _first_diff(want, got),
        )

    return _each("tab:calcs", _groups(m, p, n, DESK_SCALE_GROUPS), check)


def _first_diff(want, got) -> str:
    for column, w, g in zip(("harmonic", "closure"), want, got):
        for k in sorted(set(w) | set(g)):
            if w.get(k, 0) != g.get(k, 0):
                return (
                    f"first differing entry: {column} z^{k} expected "
                    f"{w.get(k, 0)}, got {g.get(k, 0)}"
                )
    return ""


def _suite_artin(ctx, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        gb = groebner.buchberger(groebner.groebner_generators(*key))
        std = groebner.standard_monomials(gb)
        art = artin.enumerate_artin(*key)
        count = artin.artin_count(*key)
        same = sorted(std) == sorted(art)
        hilb = artin.artin_hilbert(*key)
        gen = artin.generating_polynomial(art)
        ok = len(art) == count and same and hilb == gen
        return CheckReport(
            "thm:Artin_mpn",
            params,
            f"{count} standard monomials, Hilb = {hilb}",
            f"{len(std)} standard monomials, Hilb = {gen}"
            + ("" if same else "; sets differ"),
            "pass" if ok else "fail",
            provenance=PROVENANCE_FORMULA,
        )

    return _each("thm:Artin_mpn", _groups(m, p, n, GRID), check)


def closed_form_basis_check(key, gb: groebner.GroebnerBasis) -> tuple[bool, bool, bool]:
    """(stable, leading-monomials, reduced) for a lex basis gb of G(m, p, n):
    gb is the closed-form generating family made monic, its leading
    monomials are the predicted ones, and it is reduced."""
    gens = groebner.groebner_generators(*key)
    stable = {tuple(sorted(g.terms.items())) for g in gb.generators} == {
        tuple(sorted(groebner.monic(g).terms.items())) for g in gens
    }
    lm_ok = set(gb.leading_monomials()) == groebner.predicted_leading_monomials(*key)
    return stable, lm_ok, gb.is_reduced()


def _suite_groebner(ctx, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        gb = groebner.buchberger(groebner.groebner_generators(*key))
        stable, lm_ok, reduced_ok = closed_form_basis_check(key, gb)
        return CheckReport(
            "thm:grobner_mpn",
            params,
            "closed-form family is its own reduced basis",
            f"stable={stable} leading-monomials={lm_ok} reduced={reduced_ok}",
            "pass" if stable and lm_ok and reduced_ok else "fail",
            provenance=PROVENANCE_FORMULA,
        )

    return _each("thm:grobner_mpn", _groups(m, p, n, GRID), check)


def _suite_exactness(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        cells = ctx.cells(key)
        rep = checks.exactness_check(build_group(*key), cells)
        return CheckReport(
            "thm:exact",
            params,
            "exact complex, Hodge split, Hilb(q,-q) = 1",
            rep.first_failure or "all balances hold",
            "pass" if rep.passed else "fail",
            provenance=PROVENANCE_DERIVED,
        )

    return _each("thm:exact", _groups(m, p, n, DESK_SCALE_GROUPS), check)


def _suite_support_b(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        spec = GroupSpec.create(*key)
        if spec.p != 1:
            return _skip("thm:B", params, "stated for G(m, 1, n) only")
        cells = ctx.cells(key)
        rep = checks.support_check(build_group(*key), cells)
        region = checks.bidegree_support_region(spec)
        return CheckReport(
            "thm:B",
            params,
            f"{len(region)} nonzero bidegrees from the inequality",
            f"{len(rep.observed_support)} observed"
            + ("" if rep.bidegree_bound_matches else "; sets differ"),
            "pass" if rep.bidegree_bound_matches else "fail",
            provenance=PROVENANCE_FORMULA,
        )

    return _each("thm:B", _groups(m, p, n, DESK_SCALE_GROUPS), check)


def _suite_support_c(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    def check(key, params):
        spec = GroupSpec.create(*key)
        cells = ctx.cells(key)
        gd = build_group(*key)
        rep = checks.support_check(gd, cells)
        if not rep.total_degree_asserted:
            return CheckReport(
                "thm:C",
                params,
                "observed only (p = m is outside the theorem); top slice "
                "must be det-isotypic",
                f"support {sorted(rep.total_degree_support)}; top slice "
                f"dimension {rep.top_slice_dimension}, det-isotypic: "
                f"{rep.top_slice_in_det_isotypic}",
                "pass" if rep.top_slice_in_det_isotypic else "fail",
                provenance=PROVENANCE_DERIVED,
            )
        expected_top = 1 if gd.exterior_d.apply(gd.vandermondian).is_zero() else 2
        ok = (
            rep.total_degree_matches
            and rep.top_slice_is_vandermondian_pair
            and rep.top_slice_dimension == expected_top
        )
        return CheckReport(
            "thm:C",
            params,
            f"total degrees 0..{spec.degree_of_vandermondian}, top slice "
            "= span of Delta and d Delta",
            f"support {sorted(rep.total_degree_support)}, top dimension "
            f"{rep.top_slice_dimension}, span match "
            f"{rep.top_slice_is_vandermondian_pair}",
            "pass" if ok else "fail",
            provenance=PROVENANCE_FORMULA,
        )

    return _each("thm:C", _groups(m, p, n, DESK_SCALE_GROUPS), check)


def _theorem_a_holds(spec: GroupSpec) -> bool:
    """Whether Ann(Gamma) = I' holds: it is a theorem for G(m, 1, n) and real
    groups, and the dihedral / cyclic leftovers are covered by the same
    closed forms."""
    return (
        spec.p == 1
        or spec.is_real
        or spec.n == 1
        or (spec.p == spec.m and spec.n == 2)
    )


def _suite_operator_top(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """thm:A2 via Ann(Gamma) = I'; expected to hold iff G = G(m,1,n) or real."""

    def check(key, params):
        spec = GroupSpec.create(*key)
        if spec.m == 1:
            return _skip(
                "thm:A2",
                params,
                "rank n-1 case: the invariant-partials ideal is the unit "
                "ideal in these coordinates",
            )
        fit = checks.fitting_structures(build_group(*key), budget=ctx.budget)
        expected = _theorem_a_holds(spec)
        ok = fit.ann_gamma_equals_iprime == expected and fit.top_harmonics_match
        return CheckReport(
            "thm:A2",
            params,
            f"Ann(Gamma) = I' expected {expected} "
            "(holds iff G(m,1,n) or real); top harmonics = H' always",
            f"Ann(Gamma) = I': {fit.ann_gamma_equals_iprime}; top "
            f"harmonics match: {fit.top_harmonics_match}; top x-degree "
            f"{fit.observed_top_xdeg} (predicted {fit.predicted_top_xdeg})",
            "pass" if ok and fit.top_xdeg_matches else "fail",
            provenance=PROVENANCE_FORMULA,
        )

    default = [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (4, 2, 2)]
    return _each("thm:A2", _groups(m, p, n, default), check)


def _suite_no_dice(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """Strictness witnesses: for the excluded groups the top theta-degree
    harmonics SH^r strictly exceed their det part, the derivative closure
    K[d_x] e of the one det-isotypic element e of theta-degree r; for the
    others the two are equal."""

    def check(key, params):
        spec = GroupSpec.create(*key)
        if spec.m == 1:
            return _skip("lem:no_dice", params, "needs m > 1")
        gd = build_group(*key)
        fit = checks.fitting_structures(gd, budget=ctx.budget)
        sh_total = sum(fit.sh_top_dims.values())
        # the derivative closure of the one det-isotypic form of theta-degree r
        closure = harmonics.derivative_closure(gd, budget=ctx.budget, k=spec.rank)
        det_part = closure.z_coefficients_at_q1()[spec.rank]
        excluded = not _theorem_a_holds(spec)
        strict = sh_total > det_part
        ok = strict == excluded and fit.ann_gamma_equals_iprime != excluded
        return CheckReport(
            "lem:no_dice",
            params,
            f"strict containment expected: {excluded}",
            f"dim SH^r = {sh_total} vs det part {det_part}; "
            f"Ann(Gamma) = I': {fit.ann_gamma_equals_iprime}",
            "pass" if ok else "fail",
            provenance=PROVENANCE_DERIVED,
        )

    return _each("lem:no_dice", _groups(m, p, n, [(4, 2, 2)]), check)


def _suite_closure(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """Derivative-closure dimensions vs harmonic dimensions (conjectured equal
    for G(m, 1, n); known for rank <= 2 with G(m,1,n) or real).  The claim
    of a case follows from p and the rank alone, so a refused case carries
    the claim a computed one would."""

    def claim(key):
        spec = GroupSpec.create(*key)
        if spec.rank <= 2 and (spec.p == 1 or spec.is_real):
            return "thm:A1"
        return "conj:A" if spec.p == 1 else "eq:thm:A"

    def check(key, params):
        table = ctx.table(key)
        closure = harmonics.derivative_closure(build_group(*key), budget=ctx.budget)
        equal = table.entries == closure.entries
        contained = all(
            closure.dim(i, k) <= table.dim(i, k) for (i, k) in closure.entries
        )
        claim_id = claim(key)
        if claim_id == "thm:A1":
            verdict = "pass" if equal and contained else "fail"
        elif claim_id == "conj:A":
            verdict = "consistent" if equal and contained else "inconsistent"
        else:
            verdict = "consistent" if contained else "inconsistent"
        return CheckReport(
            claim_id,
            params,
            "closure dims <= harmonic dims"
            if claim_id == "eq:thm:A"
            else "closure dims = harmonic dims",
            f"equal={equal} contained={contained}",
            verdict,
            provenance=PROVENANCE_DERIVED,
        )

    return _each(claim, _groups(m, p, n, DESK_SCALE_GROUPS), check)


def _suite_zabrocki(ctx: _Context, m=None, p=None, n=None, family="A", **_) -> list[CheckReport]:
    claim = "conj:Hilb_type_A" if family == "A" else "conj:Hilb_type_B"
    mm, ns = (1, [2, 3, 4]) if family == "A" else (2, [2, 3])
    _fixed_group("zabrocki", m, p, mm)

    def check(key, params):
        spec = GroupSpec.create(*key)
        table = ctx.table(key)
        top = spec.n - 1 if family == "A" else spec.n
        diffs = []
        cols = []
        for k in range(top + 1):
            predicted = qseries.zabrocki_hilbert(spec.n, k, family)
            got = table.column(k)
            cols.append(f"k={k}: {got}")
            if predicted != got:
                diffs.append(f"k={k}: predicted {predicted}, computed {got}")
        return CheckReport(
            claim,
            params,
            "every theta-degree column matches the q-Stirling product",
            "; ".join(diffs) if diffs else "; ".join(cols),
            "inconsistent" if diffs else "consistent",
            provenance=PROVENANCE_FORMULA,
        )

    cases = [
        c for nn in (ns if n is None else [n]) for c in _groups(mm, 1, nn, (), family=family)
    ]
    return _each(claim, cases, check)


def _suite_hilb_alt(ctx: _Context, m=None, p=None, n=None, j=None, **_) -> list[CheckReport]:
    _fixed_group("hilb-alt", m, p, 1)

    def check(key, params):
        lhs = ctx.table(key).hilbert_qz().z_substitute_signed_power(params["j"])
        rhs = qseries.alternating_sum(key[2], "A", params["j"])
        return CheckReport(
            "conj:Hilb_alt",
            params,
            str(rhs),
            str(lhs),
            "consistent" if lhs == rhs else "inconsistent",
            provenance=PROVENANCE_FORMULA,
        )

    cases = [
        c
        for nn in ([2, 3, 4] if n is None else [n])
        for jj in (range(1, nn) if j is None else [j])
        for c in _groups(1, 1, nn, (), j=jj)
    ]
    return _each("conj:Hilb_alt", cases, check)


def _suite_laplacian(ctx, m=None, p=None, N=None, n=None, degree=None, **_) -> list[CheckReport]:
    _fixed_group("laplacian", m, p)
    reports = []
    bound = 6 if degree is None else degree
    for NN in [1, 2, 3] if N is None else [N]:
        for nn in [1, 2, 3] if n is None else [n]:
            ok = checks.laplacian_spectrum_check(NN, nn, bound)
            reports.append(
                CheckReport(
                    "lem:power_sum_Laplacian",
                    {"N": NN, "n": nn, "degree": bound},
                    "diagonal action with falling-factorial eigenvalues",
                    "verified" if ok else "counterexample found",
                    "pass" if ok else "fail",
                    provenance=PROVENANCE_FORMULA,
                )
            )
    return reports


def _suite_qseries(ctx, m=None, p=None, n=None, **_) -> list[CheckReport]:
    _fixed_group("qseries", m, p)
    reports = []
    for family in ("A", "B"):
        for nn in range(1, 9) if n is None else [n]:
            got = qseries.alternating_sum(nn, family, 1)
            ok = got == QPoly.one()
            reports.append(
                CheckReport(
                    f"qseries-alt-{family}",
                    {"n": nn, "family": family},
                    "1",
                    str(got),
                    "pass" if ok else "fail",
                    provenance=PROVENANCE_FORMULA,
                )
            )
    return reports


SUITES = {
    "table-calcs": _suite_table_calcs,
    "artin": _suite_artin,
    "groebner": _suite_groebner,
    "exactness": _suite_exactness,
    "support-b": _suite_support_b,
    "support-c": _suite_support_c,
    "operator-top": _suite_operator_top,
    "no-dice": _suite_no_dice,
    "closure": _suite_closure,
    "zabrocki": _suite_zabrocki,
    "hilb-alt": _suite_hilb_alt,
    "laplacian": _suite_laplacian,
    "qseries": _suite_qseries,
}


def run_suite(
    name: str,
    m: int | None = None,
    p: int | None = None,
    n: int | None = None,
    family: str = "A",
    j: int | None = None,
    N: int | None = None,
    degree: int | None = None,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> list[CheckReport]:
    """Run a named suite; deterministic for fixed inputs.  Only None means an
    option is not given.  ValueError, before any case is run, for a group the
    suite does not run or a selection with no case."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    ctx = _Context(budget=budget, threads=threads)
    reports = SUITES[name](ctx, m=m, p=p, n=n, family=family, j=j, N=N, degree=degree)
    if not reports:
        raise ValueError(f"{name}: the options select no case")
    return reports


def summary_lines(reports: list[CheckReport]) -> list[str]:
    lines = []
    for r in reports:
        ptxt = ",".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"[{r.verdict:>12}] {r.claim_id} ({ptxt}) {r.note}".rstrip())
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    lines.append(
        "summary: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    )
    return lines
