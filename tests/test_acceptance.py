"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Every criterion prints one PASS line on success (pytest -s shows them); any
failure is a hard assert.  The desk-scale group set is

    S_3, S_4, D_2, D_3, G(3,1,2), G(4,1,2), G(5,1,2)

and D_4 is attempted only where the cell budget admits it, exactly as the
criteria prescribe.  The stretch rows S_5 and B_4 and the S_5 Zabrocki columns
run at budget 10^9 (S_5 cells are computed in the reduced presentation).
Set SUPERCOINV_SLOW=1 to also run the raised-budget D_4 row.
"""

import os
from itertools import combinations
from math import comb

import pytest

from supercoinv import artin, checks, groebner, harmonics, qseries
from supercoinv.groups import build_group
from supercoinv.harmonics import (
    DEFAULT_CELL_BUDGET,
    FeasibilityError,
    cell_monomials,
)
from supercoinv.qseries import QPoly
from supercoinv.superpoly import Operator, SuperPoly, pairing

SLOW = os.environ.get("SUPERCOINV_SLOW") == "1"

CRITERION_GROUPS = {
    (1, 1, 3): [6, 6, 1],
    (1, 1, 4): [24, 36, 14, 1],
    (2, 2, 2): [4, 4, 1],
    (2, 2, 3): [24, 36, 14, 1],
    (3, 1, 2): [18, 21, 4],
    (4, 1, 2): [32, 40, 9],
    (5, 1, 2): [50, 65, 16],
}

GRID = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
]

_tables = {}
_cells = {}


def table_for(key, budget=DEFAULT_CELL_BUDGET):
    if (key, budget) not in _tables:
        _tables[key, budget] = harmonics.sh_dim_table(build_group(*key), budget=budget)
    return _tables[key, budget]


def cells_for(key):
    if key not in _cells:
        _cells[key] = harmonics.harmonic_cells(build_group(*key))
    return _cells[key]


def _as_dict(coeffs):
    return {k: c for k, c in enumerate(coeffs) if c}


def test_criterion_1_hilbert_table_column_1():
    for key, golden in sorted(CRITERION_GROUPS.items()):
        table = table_for(key)
        assert table.z_coefficients_at_q1() == _as_dict(golden), key
    print("\nACCEPTANCE 1 PASS: Hilb(SR_G; 1, z) matches the published table "
          f"for {len(CRITERION_GROUPS)} groups")


def test_criterion_1_stretch_set():
    s5 = table_for((1, 1, 5), budget=10**9)
    assert s5.z_coefficients_at_q1() == _as_dict([120, 240, 150, 30, 1])
    b4 = table_for((2, 1, 4), budget=10**9)
    assert b4.z_coefficients_at_q1() == _as_dict([384, 768, 464, 80, 1])
    print("\nACCEPTANCE 1 (stretch) PASS: S_5 and B_4 rows match")


def test_criterion_2_derivative_closure_column_2():
    for key in sorted(CRITERION_GROUPS):
        gd = build_group(*key)
        closure = harmonics.derivative_closure(gd)
        assert closure.entries == table_for(key).entries, key

    # D_4 under the default budget: the prescribed fallback is to mark the
    # row skipped and use the G(4,2,2) strict-inequality witness instead.
    d4_ran = False
    try:
        d4 = harmonics.sh_dim_table(build_group(2, 2, 4), budget=DEFAULT_CELL_BUDGET)
        d4_closure = harmonics.derivative_closure(
            build_group(2, 2, 4), budget=DEFAULT_CELL_BUDGET
        )
        d4_ran = True
    except FeasibilityError:
        fit = checks.fitting_structures(build_group(4, 2, 2))
        sh_top = sum(fit.sh_top_dims.values())
        assert sh_top == 6
        assert not fit.ann_gamma_equals_iprime
    if d4_ran:
        assert d4.z_coefficients_at_q1() == _as_dict([192, 384, 240, 48, 1])
        assert d4_closure.z_coefficients_at_q1() == _as_dict(
            [192, 384, 238, 46, 1]
        )
    if SLOW and not d4_ran:
        d4 = harmonics.sh_dim_table(build_group(2, 2, 4), budget=10**8)
        d4_closure = harmonics.derivative_closure(build_group(2, 2, 4), budget=10**8)
        assert d4.z_coefficients_at_q1() == _as_dict([192, 384, 240, 48, 1])
        assert d4_closure.z_coefficients_at_q1() == _as_dict(
            [192, 384, 238, 46, 1]
        )
    d4_note = (
        "computed" if d4_ran or SLOW
        else "skipped by budget; G(4,2,2) witness verified"
    )
    print(f"\nACCEPTANCE 2 PASS: derivative closure matches the table (D_4 {d4_note})")


def test_criterion_3_groebner_artin_agreement():
    for key in GRID:
        m, p, n = key
        gens = groebner.groebner_generators(m, p, n)
        gb = groebner.buchberger(gens)
        # inter-reduction stability
        assert {tuple(sorted(g.terms.items())) for g in gb.generators} == {
            tuple(sorted(groebner.monic(g).terms.items())) for g in gens
        }, key
        # leading monomials in closed form
        assert set(gb.leading_monomials()) == groebner.predicted_leading_monomials(
            m, p, n
        ), key
        # standard monomials = Artin basis, with the product-formula series
        std = groebner.standard_monomials(gb)
        assert std == artin.enumerate_artin(m, p, n), key
        assert len(std) == artin.artin_count(m, p, n), key
        assert artin.generating_polynomial(std) == artin.artin_hilbert(m, p, n), key
    print(f"\nACCEPTANCE 3 PASS: Groebner/Artin agreement on {len(GRID)} groups")


def test_criterion_4_exactness():
    for key in sorted(CRITERION_GROUPS):
        gd = build_group(*key)
        rep = checks.exactness_check(gd, cells_for(key))
        assert rep.passed, (key, rep.first_failure)
        alt = table_for(key).hilbert_qz().z_substitute_signed_power(1)
        assert alt == QPoly.one(), key
    print("\nACCEPTANCE 4 PASS: d-complex exact, Hodge split, "
          "Hilb(q,-q) = 1 for all criterion groups")


def test_criterion_5_conjectured_hilbert_series():
    for n in (2, 3, 4):
        table = table_for((1, 1, n))
        for k in range(n):
            assert table.column(k) == qseries.zabrocki_hilbert(n, k, "A"), (n, k)
    for n in (2, 3):
        table = table_for((2, 1, n))
        for k in range(n + 1):
            assert table.column(k) == qseries.zabrocki_hilbert(n, k, "B"), (n, k)
    table = table_for((1, 1, 5), budget=10**9)
    for k in range(5):
        assert table.column(k) == qseries.zabrocki_hilbert(5, k, "A")
    for n in range(1, 9):
        assert qseries.alternating_sum(n, "A", 1) == QPoly.one()
        assert qseries.alternating_sum(n, "B", 1) == QPoly.one()
    print("\nACCEPTANCE 5 PASS: q-Stirling product columns match "
          "(A: n<=5, B: n<=3); alternating sums = 1 "
          "for n <= 8")


def test_criterion_6_support_theorems():
    for key in sorted(CRITERION_GROUPS):
        gd = build_group(*key)
        rep = checks.support_check(gd, cells_for(key))
        if gd.spec.p == 1:
            assert rep.bidegree_bound_applies and rep.bidegree_bound_matches, key
        assert rep.total_degree_matches, key
        if gd.spec.p != gd.spec.m or gd.spec.p == 1:
            assert rep.top_slice_dimension == 2, key
            assert rep.top_slice_is_vandermondian_pair, key
    # the one exceptional top slice
    rep = checks.support_check(build_group(2, 2, 2), cells_for((2, 2, 2)))
    assert rep.top_slice_dimension == 4
    assert rep.top_slice_in_det_isotypic
    print("\nACCEPTANCE 6 PASS: bidegree and total-degree supports, "
          "top slices = span{Delta, d Delta}; G(2,2,2) 4-dimensional "
          "det-isotypic top slice")


def _monomials_by_bidegree(n, max_total):
    out = {}
    for k in range(n + 1):
        for i in range(max_total - k + 1):
            cell = [
                SuperPoly.monomial(n, alpha, thetas)
                for (alpha, thetas) in cell_monomials(n, i, k)
            ]
            if cell:
                out[(i, k)] = cell
    return out


def test_criterion_7_property_suites():
    # superpoly adjointness / positivity / anticommutativity on bounded cells
    n = 3
    cells = _monomials_by_bidegree(n, 6)
    gd = build_group(2, 2, 3)
    ops = [Operator.x_partial(n, i) for i in range(1, n + 1)]
    ops += [Operator.theta_partial(n, i) for i in range(1, n + 1)]
    ops.append(Operator.exterior_derivative(n))
    ops.extend(gd.ext_derivatives)
    for op in ops:
        adj = op.adjoint()
        dx, dk = op.bidegree_shift()
        for (i, k), mons in cells.items():
            target = cells.get((i + dx, k + dk), [])
            for f in mons:
                for g in target:
                    assert pairing(op.apply(f), g) == pairing(f, adj.apply(g))

    for f_cell in [(2, 1), (1, 2)]:
        for g_cell in [(1, 1), (2, 2)]:
            for f in cells[f_cell]:
                for g in cells[g_cell]:
                    assert pairing(f, f) > 0
                    sign = (-1) ** (f_cell[1] * g_cell[1])
                    assert f * g == sign * (g * f)

    # Laplacian eigenvalue formula
    for N in (1, 2, 3):
        for nn in (1, 2, 3):
            assert checks.laplacian_spectrum_check(N, nn, 6), (N, nn)

    # p-contraction fibers all have cardinality p
    for m, p, nn in GRID:
        fibers = {}
        for rows in artin.enumerate_type_m1(m, nn):
            img = artin.p_contract(rows, m, p)
            fibers[img] = fibers.get(img, 0) + 1
        assert set(fibers.values()) == {p}, (m, p, nn)
        # hook criterion equivalence
        hook_free = sorted(
            rows
            for rows in artin.enumerate_type_m1(m, nn)
            if artin.is_hook_free(rows, m, p)
        )
        assert hook_free == sorted(fibers) == artin.enumerate_artin(m, p, nn)
    print("\nACCEPTANCE 7 PASS: operator adjointness/positivity/"
          "anticommutativity, Laplacian spectra (N<=3, n<=3, deg<=6), "
          "p-contraction fibers, hook criterion")
