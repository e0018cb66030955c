"""Named check suites: determinism, verdict semantics, golden comparisons."""

import json
from collections import Counter
from pathlib import Path

import pytest

from supercoinv import groebner, harmonics
from supercoinv.groups import GroupSpec, build_group
from supercoinv.superpoly import SuperPoly
from supercoinv.verify import (
    GOLDEN_TABLE,
    GRID,
    SUITES,
    CheckReport,
    _theorem_a_holds,
    closed_form_basis_check,
    run_suite,
    summary_lines,
)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_table_calcs_s3_passes():
    reports = run_suite("table-calcs", m=1, p=1, n=3)
    assert len(reports) == 1
    assert reports[0].verdict == "pass"
    assert "z^2 + 6*z + 6" in reports[0].computed
    assert reports[0].provenance == "published-table"


def test_table_calcs_skips_unknown_group():
    reports = run_suite("table-calcs", m=3, p=3, n=2)
    assert reports[0].verdict == "skipped"


def test_infeasible_group_is_skipped_not_failed():
    reports = run_suite("table-calcs", m=2, p=2, n=4)
    assert reports[0].verdict == "skipped"
    assert "budget" in reports[0].note


def test_no_dice_witness():
    reports = run_suite("no-dice")
    assert [r.verdict for r in reports] == ["pass"]
    assert "dim SH^r = 6 vs det part 1" in reports[0].computed


# (dim SH^r, dim of the closure K[d_x] e of the det-isotypic form e of
# theta-degree r); G(3,1,4) (16, 16) and G(4,1,4) (81, 81) take seconds
# each and run in the CI step on the stretch groups
NO_DICE = {
    (2, 1, 1): (1, 1), (2, 1, 2): (1, 1), (2, 1, 3): (1, 1), (2, 1, 4): (1, 1),
    (2, 2, 2): (1, 1), (2, 2, 3): (1, 1), (2, 2, 4): (1, 1),
    (3, 1, 1): (2, 2), (3, 1, 2): (4, 4), (3, 1, 3): (8, 8),
    (3, 3, 2): (1, 1), (3, 3, 3): (4, 1), (3, 3, 4): (11, 1),
    (4, 1, 1): (3, 3), (4, 1, 2): (9, 9), (4, 1, 3): (27, 27), (4, 2, 1): (1, 1),
    (4, 2, 2): (6, 1), (4, 2, 3): (23, 1), (4, 2, 4): (76, 1),
    (4, 4, 2): (1, 1), (4, 4, 3): (7, 1), (4, 4, 4): (33, 1),
    (5, 1, 2): (16, 16), (5, 1, 3): (64, 64), (6, 1, 2): (25, 25),
    (6, 2, 2): (17, 4), (6, 3, 2): (10, 1), (6, 6, 2): (1, 1),
}


def test_no_dice_covers_the_grid():
    grid = {key for key in GRID if GroupSpec.create(*key).m > 1}
    assert grid - set(NO_DICE) == {(3, 1, 4), (4, 1, 4)}


@pytest.mark.parametrize("key, dims", sorted(NO_DICE.items()))
def test_no_dice_strict_exactly_where_theorem_a_fails(key, dims):
    # for G(m,1,n) with m >= 3 the harmonics SH^r are the closure of the
    # det-isotypic form, not that one form alone, so a strict containment
    # is a witness only for the groups that Theorem A excludes
    (rep,) = run_suite("no-dice", *key, budget=10**13)
    assert rep.computed.startswith(f"dim SH^r = {dims[0]} vs det part {dims[1]}; ")
    assert (dims[0] > dims[1]) != _theorem_a_holds(GroupSpec.create(*key))
    assert rep.verdict == "pass"


def test_zabrocki_example_columns():
    reports = run_suite("zabrocki", n=2)
    (rep,) = reports
    assert rep.verdict == "consistent"
    assert "k=0: q + 1" in rep.computed
    assert "k=1: 1" in rep.computed


def test_zabrocki_family_b():
    reports = run_suite("zabrocki", n=2, family="B")
    assert all(r.verdict == "consistent" for r in reports)


def test_conjecture_suites_use_consistent_verdict():
    for r in run_suite("hilb-alt", n=3):
        assert r.verdict in ("consistent", "inconsistent", "skipped")
        assert r.verdict == "consistent"


def test_theorem_suites_use_pass_verdict():
    for r in run_suite("exactness", m=1, p=1, n=3):
        assert r.verdict == "pass"


def test_laplacian_suite():
    reports = run_suite("laplacian", N=2, n=2, degree=4)
    assert [r.verdict for r in reports] == ["pass"]


def test_qseries_suite_all_families():
    reports = run_suite("qseries", n=4)
    assert {r.verdict for r in reports} == {"pass"}
    assert {r.params["family"] for r in reports} == {"A", "B"}


def test_determinism_byte_identical():
    a = [r.to_json() for r in run_suite("artin", m=2, p=2, n=2)]
    b = [r.to_json() for r in run_suite("artin", m=2, p=2, n=2)]
    assert a == b


def test_determinism_of_dimension_suites():
    a = [r.to_json() for r in run_suite("table-calcs", m=2, p=2, n=2)]
    b = [r.to_json() for r in run_suite("table-calcs", m=2, p=2, n=2)]
    assert a == b
    c = [r.to_json() for r in run_suite("exactness", m=1, p=1, n=3)]
    d = [r.to_json() for r in run_suite("exactness", m=1, p=1, n=3)]
    assert c == d


def test_support_suites():
    for r in run_suite("support-b", m=2, p=1, n=2):
        assert r.verdict == "pass"
    for r in run_suite("support-c", m=2, p=1, n=2):
        assert r.verdict == "pass"
    # p = m case is reported, not asserted beyond det-isotypy
    for r in run_suite("support-c", m=2, p=2, n=2):
        assert r.verdict == "pass"
        assert "observed only" in r.expected


def test_closure_suite_scopes():
    reports = {tuple(r.params.values()): r for r in run_suite("closure")}
    s3 = reports[(1, 1, 3)]
    assert s3.claim_id == "thm:A1" and s3.verdict == "pass"
    s4 = reports[(1, 1, 4)]
    assert s4.claim_id == "conj:A" and s4.verdict == "consistent"


@pytest.mark.parametrize(
    "key, budget, claim",
    [((1, 1, 4), 1000, "conj:A"), ((2, 1, 2), 1, "thm:A1"), ((2, 2, 3), 1, "eq:thm:A")],
)
def test_refused_closure_case_keeps_its_claim(key, budget, claim):
    # the claim follows from p and the rank, not from whether the case fits
    m, p, n = key
    (computed,) = run_suite("closure", m=m, p=p, n=n)
    (refused,) = run_suite("closure", m=m, p=p, n=n, budget=budget)
    assert refused.verdict == "skipped" and "budget" in refused.note
    assert refused.claim_id == computed.claim_id == claim


def test_pinned_reports_have_no_duplicate_case():
    # the pinned output of scripts/run_all_checks.py --json reports each
    # (claim, params) pair once
    lines = (Path(__file__).parent / "data" / "all_checks.jsonl").read_text().splitlines()
    cases = Counter(
        (r["claim_id"], json.dumps(r["params"], sort_keys=True)) for r in map(json.loads, lines)
    )
    assert [case for case, count in cases.items() if count > 1] == []


def test_summary_lines_counts():
    reports = [
        CheckReport("a", {}, "x", "x", "pass"),
        CheckReport("b", {}, "x", "y", "fail"),
    ]
    lines = summary_lines(reports)
    assert lines[-1] == "summary: 1 fail, 1 pass"


def test_golden_table_is_self_consistent():
    # closure column never exceeds the harmonic column entrywise
    for key, (sh, closure) in GOLDEN_TABLE.items():
        if closure is None:
            continue
        assert len(closure) == len(sh)
        assert all(c <= s for c, s in zip(closure, sh))


def test_all_suites_are_callable():
    assert set(SUITES) == {
        "table-calcs",
        "artin",
        "groebner",
        "exactness",
        "support-b",
        "support-c",
        "operator-top",
        "no-dice",
        "closure",
        "zabrocki",
        "hilb-alt",
        "laplacian",
        "qseries",
    }


def test_closed_form_basis_check():
    gb = groebner.buchberger(groebner.groebner_generators(1, 1, 2))
    assert closed_form_basis_check((1, 1, 2), gb) == (True, True, True)
    x = SuperPoly.x
    # x1 x2^2 is divisible by the leading monomial x2^2 of another element.
    padded = groebner.GroebnerBasis(2, gb.generators + (x(2, 1) * x(2, 2, 2),))
    assert closed_form_basis_check((1, 1, 2), padded) == (False, False, False)
    # Same leading monomials, but x1 + x2^2 is not reduced by x2^2.
    tail = groebner.GroebnerBasis(2, (x(2, 2, 2), x(2, 1) + x(2, 2, 2)))
    assert closed_form_basis_check((1, 1, 2), tail) == (False, True, False)


def test_det_isotypic_elements_built_once_per_group(monkeypatch):
    # these four suites all read the det-isotypic elements of their groups
    builds = []
    real = harmonics._build_det_isotypic_elements
    monkeypatch.setattr(harmonics, "_build_det_isotypic_elements",
                        lambda gd: builds.append(gd.spec) or real(gd))
    build_group.cache_clear()
    for name in ("table-calcs", "support-b", "support-c", "closure"):
        run_suite(name)
    assert builds and len(builds) == len(set(builds))
