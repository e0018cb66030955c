"""Named theorem/conjecture checks assembled into machine-readable reports.

Each suite runs one named claim about the super coinvariant algebras of
G(m, p, n) and emits CheckReport records: (claim id, parameters, expected,
computed, verdict).  Theorem suites report pass/fail; conjecture suites
report consistent/inconsistent and never assert the conjecture as ground
truth.  All comparisons are exact; "pass"/"consistent" requires equality.

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

from . import artin, groebner, harmonics, qseries
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


def _zpoly_str(coeffs_by_k) -> str:
    if isinstance(coeffs_by_k, dict):
        data = coeffs_by_k
    else:
        data = {k: c for k, c in enumerate(coeffs_by_k)}
    return qseries.format_poly(data, var="z")


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


def _group_keys(m, p, n, default) -> list[tuple[int, int, int]]:
    if m is None and p is None and n is None:
        return list(default)
    if m is None or n is None:
        raise ValueError("both --m and --n are required when selecting a group")
    return [(m, 1 if p is None else p, n)]


def _skip(claim, params, reason) -> CheckReport:
    return CheckReport(claim, params, "", "", "skipped", note=reason)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_table_calcs(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, DESK_SCALE_GROUPS):
        if key not in GOLDEN_TABLE:
            reports.append(
                _skip("tab:calcs", _params(key), "no golden row for this group")
            )
            continue
        sh_gold, closure_gold = GOLDEN_TABLE[key]
        closure_gold = closure_gold or sh_gold
        params = _params(key)
        try:
            table = ctx.table(key)
            gd = build_group(*key)
            closure = harmonics.derivative_closure(gd, budget=ctx.budget)
        except FeasibilityError as exc:
            reports.append(_skip("tab:calcs", params, str(exc)))
            continue
        got_sh = table.z_coefficients_at_q1()
        got_cl = closure.z_coefficients_at_q1()
        want_sh = {k: c for k, c in enumerate(sh_gold) if c}
        want_cl = {k: c for k, c in enumerate(closure_gold) if c}
        ok = got_sh == want_sh and got_cl == want_cl
        reports.append(
            CheckReport(
                "tab:calcs",
                params,
                f"{_zpoly_str(want_sh)} | {_zpoly_str(want_cl)}",
                f"{_zpoly_str(got_sh)} | {_zpoly_str(got_cl)}",
                "pass" if ok else "fail",
                provenance=PROVENANCE_PUBLISHED,
                note="" if ok else _first_diff(want_sh, got_sh, want_cl, got_cl),
            )
        )
    return reports


def _first_diff(want_sh, got_sh, want_cl=None, got_cl=None) -> str:
    for k in sorted(set(want_sh) | set(got_sh)):
        if want_sh.get(k, 0) != got_sh.get(k, 0):
            return (
                f"first differing entry: harmonic z^{k} expected "
                f"{want_sh.get(k, 0)}, got {got_sh.get(k, 0)}"
            )
    if want_cl is not None:
        for k in sorted(set(want_cl) | set(got_cl)):
            if want_cl.get(k, 0) != got_cl.get(k, 0):
                return (
                    f"first differing entry: closure z^{k} expected "
                    f"{want_cl.get(k, 0)}, got {got_cl.get(k, 0)}"
                )
    return ""


def _suite_artin(ctx, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, GRID):
        mm, pp, nn = key
        gb = groebner.buchberger(groebner.groebner_generators(mm, pp, nn))
        std = groebner.standard_monomials(gb)
        art = artin.enumerate_artin(mm, pp, nn)
        count_ok = len(art) == artin.artin_count(mm, pp, nn)
        same = sorted(std) == sorted(art)
        hilb = artin.artin_hilbert(mm, pp, nn)
        gen = artin.generating_polynomial(art)
        ok = count_ok and same and hilb == gen
        reports.append(
            CheckReport(
                "thm:Artin_mpn",
                _params(key),
                f"{artin.artin_count(mm, pp, nn)} standard monomials, "
                f"Hilb = {hilb}",
                f"{len(std)} standard monomials, Hilb = {gen}"
                + ("" if same else "; sets differ"),
                "pass" if ok else "fail",
                provenance=PROVENANCE_FORMULA,
            )
        )
    return reports


def closed_form_basis_check(key, gb: groebner.GroebnerBasis) -> tuple[bool, bool, bool]:
    """(stable, leading-monomials, reduced) for a lex basis gb of G(m, p, n):
    gb is the closed-form generating family made monic, its leading
    monomials are the predicted ones, and it is reduced."""
    gens = groebner.groebner_generators(*key)
    stable = {tuple(sorted(g.terms.items())) for g in gb.generators} == {
        tuple(sorted(g.monic().terms.items())) for g in gens
    }
    lm_ok = set(gb.leading_monomials()) == groebner.predicted_leading_monomials(*key)
    return stable, lm_ok, gb.is_reduced()


def _suite_groebner(ctx, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, GRID):
        gb = groebner.buchberger(groebner.groebner_generators(*key))
        stable, lm_ok, reduced_ok = closed_form_basis_check(key, gb)
        ok = stable and lm_ok and reduced_ok
        reports.append(
            CheckReport(
                "thm:grobner_mpn",
                _params(key),
                "closed-form family is its own reduced basis",
                f"stable={stable} leading-monomials={lm_ok} reduced={reduced_ok}",
                "pass" if ok else "fail",
                provenance=PROVENANCE_FORMULA,
            )
        )
    return reports


def _suite_exactness(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, DESK_SCALE_GROUPS):
        params = _params(key)
        try:
            cells = ctx.cells(key)
            rep = harmonics.exactness_check(build_group(*key), cells)
        except FeasibilityError as exc:
            reports.append(_skip("thm:exact", params, str(exc)))
            continue
        reports.append(
            CheckReport(
                "thm:exact",
                params,
                "exact complex, Hodge split, Hilb(q,-q) = 1",
                rep.first_failure or "all balances hold",
                "pass" if rep.passed else "fail",
                provenance=PROVENANCE_DERIVED,
            )
        )
    return reports


def _suite_support_b(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, DESK_SCALE_GROUPS):
        params = _params(key)
        spec = GroupSpec.create(*key)
        if spec.p != 1:
            reports.append(_skip("thm:B", params, "stated for G(m, 1, n) only"))
            continue
        try:
            cells = ctx.cells(key)
            rep = harmonics.support_check(build_group(*key), cells)
        except FeasibilityError as exc:
            reports.append(_skip("thm:B", params, str(exc)))
            continue
        region = harmonics.bidegree_support_region(spec)
        reports.append(
            CheckReport(
                "thm:B",
                params,
                f"{len(region)} nonzero bidegrees from the inequality",
                f"{len(rep.observed_support)} observed"
                + ("" if rep.bidegree_bound_matches else "; sets differ"),
                "pass" if rep.bidegree_bound_matches else "fail",
                provenance=PROVENANCE_FORMULA,
            )
        )
    return reports


def _suite_support_c(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    reports = []
    for key in _group_keys(m, p, n, DESK_SCALE_GROUPS + [(2, 2, 2)]):
        params = _params(key)
        spec = GroupSpec.create(*key)
        try:
            cells = ctx.cells(key)
            rep = harmonics.support_check(build_group(*key), cells)
        except FeasibilityError as exc:
            reports.append(_skip("thm:C", params, str(exc)))
            continue
        if not rep.total_degree_asserted:
            verdict = "pass" if rep.top_slice_in_det_isotypic else "fail"
            reports.append(
                CheckReport(
                    "thm:C",
                    params,
                    "observed only (p = m is outside the theorem); top slice "
                    "must be det-isotypic",
                    f"support {sorted(rep.total_degree_support)}; top slice "
                    f"dimension {rep.top_slice_dimension}, det-isotypic: "
                    f"{rep.top_slice_in_det_isotypic}",
                    verdict,
                    provenance=PROVENANCE_DERIVED,
                )
            )
            continue
        gd = build_group(*key)
        expected_top = 1 if gd.exterior_d.apply(gd.vandermondian).is_zero() else 2
        ok = (
            rep.total_degree_matches
            and rep.top_slice_is_vandermondian_pair
            and rep.top_slice_dimension == expected_top
        )
        reports.append(
            CheckReport(
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
        )
    return reports


def _suite_operator_top(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """thm:A2 via Ann(Gamma) = I'; expected to hold iff G = G(m,1,n) or real."""
    reports = []
    for key in _group_keys(m, p, n, [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2), (4, 2, 2)]):
        params = _params(key)
        spec = GroupSpec.create(*key)
        if spec.m == 1:
            reports.append(
                _skip(
                    "thm:A2",
                    params,
                    "rank n-1 case: the invariant-partials ideal is the unit "
                    "ideal in these coordinates",
                )
            )
            continue
        try:
            fit = harmonics.fitting_structures(build_group(*key), budget=ctx.budget)
        except FeasibilityError as exc:
            reports.append(_skip("thm:A2", params, str(exc)))
            continue
        # Ann(Gamma) = I' holds exactly off the excluded list: it is a theorem
        # for G(m, 1, n) and real groups, and the dihedral / cyclic leftovers
        # are covered by the same closed forms.
        expected = (
            spec.p == 1
            or spec.is_real
            or spec.n == 1
            or (spec.p == spec.m and spec.n == 2)
        )
        ok = fit.ann_gamma_equals_iprime == expected and fit.top_harmonics_match
        reports.append(
            CheckReport(
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
        )
    return reports


def _suite_no_dice(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """Strictness witnesses: for the excluded groups the top theta-degree
    harmonics strictly exceed their det-isotypic part."""
    reports = []
    for key in _group_keys(m, p, n, [(4, 2, 2)]):
        params = _params(key)
        spec = GroupSpec.create(*key)
        if spec.m == 1:
            reports.append(_skip("lem:no_dice", params, "needs m > 1"))
            continue
        try:
            fit = harmonics.fitting_structures(build_group(*key), budget=ctx.budget)
        except FeasibilityError as exc:
            reports.append(_skip("lem:no_dice", params, str(exc)))
            continue
        sh_total = sum(fit.sh_top_dims.values())
        det_part = 1  # exactly one det-isotypic element at theta-degree r
        excluded = not (
            spec.p == 1
            or spec.is_real
            or (spec.p == spec.m and spec.n == 2)
            or spec.n == 1
        )
        strict = sh_total > det_part
        ok = strict == excluded and fit.ann_gamma_equals_iprime == (not excluded)
        reports.append(
            CheckReport(
                "lem:no_dice",
                params,
                f"strict containment expected: {excluded}",
                f"dim SH^r = {sh_total} vs det part {det_part}; "
                f"Ann(Gamma) = I': {fit.ann_gamma_equals_iprime}",
                "pass" if ok else "fail",
                provenance=PROVENANCE_DERIVED,
            )
        )
    return reports


def _suite_closure(ctx: _Context, m=None, p=None, n=None, **_) -> list[CheckReport]:
    """Derivative-closure dimensions vs harmonic dimensions (conjectured equal
    for G(m, 1, n); known for rank <= 2 with G(m,1,n) or real)."""
    reports = []
    for key in _group_keys(m, p, n, DESK_SCALE_GROUPS):
        params = _params(key)
        spec = GroupSpec.create(*key)
        try:
            table = ctx.table(key)
            closure = harmonics.derivative_closure(build_group(*key), budget=ctx.budget)
        except FeasibilityError as exc:
            reports.append(_skip("eq:thm:A", params, str(exc)))
            continue
        equal = table.entries == closure.entries
        contained = all(
            closure.dim(i, k) <= table.dim(i, k) for (i, k) in closure.entries
        )
        theorem_scope = spec.rank <= 2 and (spec.p == 1 or spec.is_real)
        if theorem_scope:
            verdict = "pass" if equal and contained else "fail"
            claim = "thm:A1"
        else:
            verdict = "consistent" if contained else "inconsistent"
            if spec.p == 1:
                verdict = (
                    "consistent" if equal and contained else "inconsistent"
                )
            claim = "conj:A" if spec.p == 1 else "eq:thm:A"
        reports.append(
            CheckReport(
                claim,
                params,
                "closure dims = harmonic dims"
                if (theorem_scope or spec.p == 1)
                else "closure dims <= harmonic dims",
                f"equal={equal} contained={contained}",
                verdict,
                provenance=PROVENANCE_DERIVED,
            )
        )
    return reports


def _suite_zabrocki(ctx: _Context, m=None, p=None, n=None, family="A", **_) -> list[CheckReport]:
    reports = []
    if family == "A":
        keys = [(1, 1, n)] if n else [(1, 1, 2), (1, 1, 3), (1, 1, 4)]
    else:
        keys = [(2, 1, n)] if n else [(2, 1, 2), (2, 1, 3)]
    claim = "conj:Hilb_type_A" if family == "A" else "conj:Hilb_type_B"
    for key in keys:
        params = {**_params(key), "family": family}
        spec = GroupSpec.create(*key)
        try:
            table = ctx.table(key)
        except FeasibilityError as exc:
            reports.append(_skip(claim, params, str(exc)))
            continue
        top = spec.n - 1 if family == "A" else spec.n
        ok = True
        diffs = []
        cols = []
        for k in range(top + 1):
            predicted = qseries.zabrocki_hilbert(spec.n, k, family)
            got = table.column(k)
            cols.append(f"k={k}: {got}")
            if predicted != got:
                ok = False
                diffs.append(f"k={k}: predicted {predicted}, computed {got}")
        reports.append(
            CheckReport(
                claim,
                params,
                "every theta-degree column matches the q-Stirling product",
                "; ".join(diffs) if diffs else "; ".join(cols),
                "consistent" if ok else "inconsistent",
                provenance=PROVENANCE_FORMULA,
            )
        )
    return reports


def _suite_hilb_alt(ctx: _Context, m=None, p=None, n=None, j=None, **_) -> list[CheckReport]:
    reports = []
    ns = [n] if n else [2, 3, 4]
    for nn in ns:
        js = [j] if j else list(range(1, nn))
        for jj in js:
            params = {"m": 1, "p": 1, "n": nn, "j": jj}
            try:
                table = ctx.table((1, 1, nn))
            except FeasibilityError as exc:
                reports.append(_skip("conj:Hilb_alt", params, str(exc)))
                continue
            lhs = table.hilbert_qz().z_substitute_signed_power(jj)
            rhs = qseries.alternating_sum(nn, "A", jj)
            reports.append(
                CheckReport(
                    "conj:Hilb_alt",
                    params,
                    str(rhs),
                    str(lhs),
                    "consistent" if lhs == rhs else "inconsistent",
                    provenance=PROVENANCE_FORMULA,
                )
            )
    return reports


def _suite_laplacian(ctx, N=None, n=None, degree=None, **_) -> list[CheckReport]:
    reports = []
    Ns = [N] if N else [1, 2, 3]
    ns = [n] if n else [1, 2, 3]
    bound = degree if degree else 6
    for NN in Ns:
        for nn in ns:
            ok = harmonics.laplacian_spectrum_check(NN, nn, bound)
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


def _suite_qseries(ctx, n=None, **_) -> list[CheckReport]:
    reports = []
    ns = [n] if n else list(range(1, 9))
    for family in ("A", "B"):
        for nn in ns:
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


def _params(key) -> dict:
    return {"m": key[0], "p": key[1], "n": key[2]}


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
    """Run a named suite; deterministic for fixed inputs."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    ctx = _Context(budget=budget, threads=threads)
    return SUITES[name](ctx, m=m, p=p, n=n, family=family, j=j, N=N, degree=degree)


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
