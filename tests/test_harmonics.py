"""Harmonic spaces: dimensions, det-isotypic parts, exactness, supports."""

import multiprocessing
import os
import pickle
import random
import re
from fractions import Fraction
from math import comb, prod
from operator import sub
from pathlib import Path

import pytest

from supercoinv import checks, dimtable, groebner, groups, harmonics, linalg, superpoly
from supercoinv.checks import (
    bidegree_support_region,
    exactness_check,
    fitting_structures,
    laplacian_spectrum_check,
    support_check,
)
from supercoinv.groups import GroupSpec, build_group
from supercoinv.harmonics import (
    DimTable,
    FeasibilityError,
    IntegrityError,
    Subspace,
    cell_monomials,
    derivative_closure,
    det_isotypic_basis,
    det_isotypic_elements,
    harmonic_cell,
    harmonic_cells,
    kernel_intersection,
    sh_dim_table,
)
from supercoinv.qseries import QPoly, clear_denominators, q_integer
from supercoinv.superpoly import (
    Operator,
    SuperPoly,
    partial_operator,
    x_monomials,
)
from supercoinv.verify import GOLDEN_TABLE, GRID, golden_row
from helpers import (
    _reference_operator_entries,
    _x_derivative,
    check_against_products,
    eliminated_harmonics,
    full_cell_dimension,
    full_cell_kernel,
    full_cell_theta_rows,
    lower_row,
    matrix_theta_products,
    poly_to_vector,
    reference_derivative_sources,
    reference_classical_harmonics,
    reference_det_isotypic_elements,
    reference_gamma_map_rank,
    reference_reduced_images,
    reference_x_lowering,
    reduced_rows,
    x_lowering,
    x_walk_closure,
)
from test_linalg import reference_rank

SLOW = os.environ.get("SUPERCOINV_SLOW") == "1"
slow = pytest.mark.skipif(not SLOW, reason="set SUPERCOINV_SLOW=1")


@pytest.fixture(scope="module")
def s3_table():
    return sh_dim_table(build_group(1, 1, 3))


@pytest.fixture(scope="module")
def d2_cells():
    return harmonic_cells(build_group(2, 2, 2))


class TestKernelIntersection:
    def test_constants_always_survive(self):
        gd = build_group(2, 1, 2)
        sub = harmonic_cell(gd, 0, 0)
        assert sub.dimension == 1

    def test_s2_full_table(self):
        table = sh_dim_table(build_group(1, 1, 2))
        assert table.entries == {(0, 0): 1, (1, 0): 1, (0, 1): 1}

    def test_d2_top_bidegrees(self, d2_cells):
        assert d2_cells[(2, 0)].dimension == 1
        assert d2_cells[(1, 1)].dimension == 2
        assert d2_cells[(0, 2)].dimension == 1

    def test_raw_kernel_intersection_interface(self):
        gd = build_group(1, 1, 2)
        sub = kernel_intersection(gd, 1, 0)
        assert sub.dimension == 1
        (vec,) = sub.vectors(2)
        assert vec.scalar_ratio(SuperPoly.x(2, 1) - SuperPoly.x(2, 2)) is not None
        assert sub == harmonic_cell(gd, 1, 0)

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (2, 5)])
    def test_empty_bidegree_is_the_zero_subspace(self, cell):
        # no monomial has a negative degree or more than n thetas: the cell
        # is zero, as harmonic_cell_dimension says, whatever the budget
        gd = build_group(2, 2, 2)
        assert harmonics.harmonic_cell_dimension(gd, *cell) == 0
        sub = harmonic_cell(gd, *cell, budget=0)
        assert sub == Subspace((), ()) and not sub and sub.vectors(gd.n) == []


def _applied_entries(ops, n, i, k):
    """The entry map of ops on the (i, k) cell read off ``checks._apply_rows``
    on the unit rows: {(operator index, target monomial): {source column:
    int}}."""
    entries = {}
    units = [[(col, 1)] for col in range(harmonics.cell_dimension(n, i, k))]
    for oi, op in enumerate(ops):
        target, images = checks._apply_rows(n, op, i, k, units)
        for col, image in enumerate(images):
            for tcol, v in image:
                entries.setdefault((oi, cell_monomials(n, *target)[tcol]), {})[col] = v
    return entries


def _kernel_rows(ops, n, i, k):
    """The program's content-reduced equation rows of ops on a cell."""
    return reduced_rows(_applied_entries(ops, n, i, k))


def _reference_operator_rows(ops, n, i, k):
    """Kernel-side rows through Operator.apply on unit monomials."""
    rows = {}
    for oi, op in enumerate(ops):
        for col, mon in enumerate(cell_monomials(n, i, k)):
            image = op.apply(SuperPoly(n, {mon: Fraction(1)}))
            for tmon, c in image.terms.items():
                rows.setdefault((oi, tmon), {})[col] = c
    return [linalg.to_int_row(rows[key]) for key in sorted(rows)]


def _nonzero_entries(ops, n, i, k):
    """``_reference_operator_entries`` without zero entries or empty rows."""
    entries = {key: {col: v for col, v in row.items() if v}
               for key, row in _reference_operator_entries(ops, n, i, k).items()}
    return {key: row for key, row in entries.items() if row}


def _reference_ideal_rows(gens, n, i, k):
    """Ideal-side rows through SuperPoly products mu * g."""
    index = {mon: c for c, mon in enumerate(cell_monomials(n, i, k))}
    out = []
    for g in gens:
        gi, gk = g.bidegree()
        for mu in cell_monomials(n, i - gi, k - gk):
            prod = SuperPoly(n, {mu: Fraction(1)}) * g
            if prod:
                out.append(linalg.to_int_row(poly_to_vector(prod, index)))
    return out


class TestIntegerAssembly:
    """The integer row assembler against the rational-arithmetic semantics."""

    @pytest.mark.parametrize(
        "key", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 3, 2), (4, 2, 2)]
    )
    def test_rows_equal_rational_reference_on_every_cell(self, key):
        gd = build_group(*key)
        n = gd.n
        ops, gens = gd.harmonic_generator_operators(), gd.ideal_generators()
        for i, k in harmonics._cell_range(gd):
            kernel_rows = list(_kernel_rows(ops, n, i, k))
            assert kernel_rows == _reference_operator_rows(ops, n, i, k), (i, k)
            ideal_rows = list(harmonics._ideal_rows(gens, n, i, k))
            assert ideal_rows == _reference_ideal_rows(gens, n, i, k), (i, k)

    def test_rational_generators_give_the_reference_rows(self):
        gd = build_group(2, 1, 2)
        n = gd.n
        plain_ops, plain_gens = gd.harmonic_generator_operators(), gd.ideal_generators()
        scaled_ops = [op * Fraction(2, 3) for op in plain_ops]
        ops = scaled_ops + [
            gd.exterior_d * Fraction(1, 5),
            gd.exterior_d_adjoint * Fraction(-7, 2),
        ]
        gens = [g * Fraction(3, 7) for g in plain_gens]
        for i, k in harmonics._cell_range(gd):
            rows = list(_kernel_rows(ops, n, i, k))
            assert rows == _reference_operator_rows(ops, n, i, k), (i, k)
            # A positive scalar leaves every content-reduced row unchanged.
            assert list(_kernel_rows(scaled_ops, n, i, k)) == list(
                _kernel_rows(plain_ops, n, i, k)
            )
            ideal_rows = list(harmonics._ideal_rows(gens, n, i, k))
            assert ideal_rows == _reference_ideal_rows(gens, n, i, k), (i, k)
            assert ideal_rows == list(harmonics._ideal_rows(plain_gens, n, i, k))


class TestOperatorEntries:
    """The operators applied to the unit rows of a cell give the entry map of
    the loop over every source monomial."""

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 3, 3)])
    def test_every_cell_of_the_x_presentation(self, key):
        gd = build_group(*key)
        ops = gd.harmonic_generator_operators()
        for i, k in harmonics._cell_range(gd):
            got = _applied_entries(ops, gd.n, i, k)
            assert got == _nonzero_entries(ops, gd.n, i, k), (i, k)

    def test_every_cell_of_the_reduced_s4(self):
        gd = build_group(1, 1, 4)
        pres = gd.cell_presentation()
        ops = pres.harmonic_generator_operators()
        for i, k in harmonics._cell_range(gd):
            got = _applied_entries(ops, pres.n, i, k)
            assert got == _nonzero_entries(ops, pres.n, i, k), (i, k)

    @pytest.mark.parametrize("N", [1, 2])
    def test_laplacian_and_exterior_derivatives(self, N):
        # d^dagger d + d d^dagger has multiplication terms in x and theta
        d = Operator.power_exterior_derivative(3, N)
        ops = [d.adjoint() @ d + d @ d.adjoint(), d, d.adjoint()]
        for k in range(4):
            for i in range(5):
                got = _applied_entries(ops, 3, i, k)
                assert got == _nonzero_entries(ops, 3, i, k), (i, k)

    def test_inhomogeneous_operator_is_refused_before_any_row(self):
        def rows():
            raise AssertionError("a row was read")
            yield

        op = Operator.x_partial(3, 1) + Operator.x_partial(3, 2, 2)
        with pytest.raises(ValueError, match="not bi-homogeneous"):
            checks._apply_rows(3, op, 4, 1, rows())


class TestReducedPresentation:
    """Type A cells computed in n - 1 variables after x_n, theta_n -> -sum."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shape(self, n):
        gd = build_group(1, 1, n)
        pres = gd.cell_presentation()
        assert pres is gd.cell_presentation()
        assert (pres.n, pres.spec) == (n - 1, gd.spec)
        gens = pres.ideal_generators()
        assert [g.bidegree() for g in gens] == (
            [(d, 0) for d in range(2, n + 1)] + [(d - 1, 1) for d in range(2, n + 1)]
        )
        assert all(c.denominator == 1 for g in gens for c in g.terms.values())
        assert len(pres.harmonic_generator_operators()) == 2 * n - 2

    @pytest.mark.parametrize("key", [(1, 1, 1), (2, 1, 3), (2, 2, 3), (3, 3, 2)])
    def test_other_groups_keep_their_presentation(self, key):
        gd = build_group(*key)
        assert gd.cell_presentation() is gd

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_images_equal_the_superpoly_substitution(self, n):
        # same terms, values and order: the order fixes the cell rows' order
        gd = build_group.__wrapped__(1, 1, n)
        want = [g for g in reference_reduced_images(gd) if g]
        got = gd.cell_presentation().ideal_generators()
        assert [list(g.terms.items()) for g in got] == [
            list(g.terms.items()) for g in want
        ]
        assert all(type(c) is Fraction for g in got for c in g.terms.values())

    def test_images_of_f2_by_hand(self):
        # x_3 -> -(y_1 + y_2), theta_3 -> -(eta_1 + eta_2)
        gens = build_group(1, 1, 3).cell_presentation().ideal_generators()
        assert gens[0] == SuperPoly.parse("2*x1^2 + 2*x1*x2 + 2*x2^2", 2)
        assert gens[2] == SuperPoly.parse("4*x1*t1 + 2*x1*t2 + 2*x2*t1 + 4*x2*t2", 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_cell_equals_the_x_side_oracle(self, n):
        gd = build_group(1, 1, n)
        for i, k in harmonics._cell_range(gd):
            assert harmonics.harmonic_cell_dimension(gd, i, k) == (
                harmonics.coinvariant_cell_dimension(gd, i, k)
            ), (i, k)

    def test_s5_z_row_is_golden(self):
        table = sh_dim_table(build_group(1, 1, 5), budget=10**9)
        z = table.z_coefficients_at_q1()
        assert [z[k] for k in sorted(z)] == GOLDEN_TABLE[(1, 1, 5)][0]

    def test_s5_benchmark_cells(self):
        gd = build_group(1, 1, 5)
        dims = {cell: harmonics.harmonic_cell_dimension(gd, *cell, budget=10**9)
                for cell in [(8, 0), (9, 0), (4, 3), (8, 5)]}
        assert dims == {(8, 0): 9, (9, 0): 4, (4, 3): 1, (8, 5): 0}

    def test_budget_is_that_of_the_x_presentation(self):
        # reduced cell (8, 5) of S_5 has no columns; the x-cell is refused
        gd = build_group(1, 1, 5)
        estimate = harmonics._estimate_kernel_entries(gd, 8, 5)
        with pytest.raises(FeasibilityError) as err:
            harmonics.harmonic_cell_dimension(gd, 8, 5, budget=estimate - 1)
        assert err.value.estimate == estimate
        assert harmonics.harmonic_cell_dimension(gd, 8, 5, budget=estimate) == 0

    def test_wrong_theta_image_is_caught(self, monkeypatch):
        # theta_n -> +sum eta does not kill d f_1
        def plus_theta(n, top):
            x_powers, theta_image = real(n, top)
            return x_powers, {j: -c for j, c in theta_image.items()}

        real = groups._last_variable_images
        monkeypatch.setattr(groups, "_last_variable_images", plus_theta)
        with pytest.raises(IntegrityError, match=r"S_3: .*generators \[0\] to zero"):
            sh_dim_table(build_group.__wrapped__(1, 1, 3))

    def test_pickled_group_carries_the_presentation(self, monkeypatch):
        gd = build_group.__wrapped__(1, 1, 4)
        table = sh_dim_table(gd)
        copy = pickle.loads(pickle.dumps(gd))

        def rebuilt(gd):
            raise AssertionError("presentation rebuilt")

        monkeypatch.setattr(groups, "reduce_type_a", rebuilt)
        assert copy.cell_presentation().ideal_generators() == (
            gd.cell_presentation().ideal_generators()
        )
        assert sh_dim_table(copy).entries == table.entries


class TestDimTables:
    def test_s3_golden_row(self, s3_table):
        assert s3_table.hilbert_z_string() == "z^2 + 6*z + 6"

    def test_s3_full_bidegree_table(self, s3_table):
        assert s3_table.entries == {
            (0, 0): 1,
            (1, 0): 2,
            (2, 0): 2,
            (3, 0): 1,
            (0, 1): 2,
            (1, 1): 3,
            (2, 1): 1,
            (0, 2): 1,
        }

    def test_classical_column_is_invariant_degree_product(self):
        # theta-degree 0 gives the classical coinvariant Hilbert series
        # prod_i [d_i]_q
        for key in [(1, 1, 3), (2, 2, 2), (3, 1, 2), (2, 1, 3)]:
            gd = build_group(*key)
            table = sh_dim_table(gd)
            expected = QPoly.one()
            for d in gd.spec.degrees:
                expected = expected * q_integer(d)
            assert table.column(0) == expected

    def test_total_dimension_with_volume_forms(self, s3_table):
        # theta-degree-0 slice alone carries |G| dimensions
        assert sum(v for (i, k), v in s3_table.entries.items() if k == 0) == 6

    def test_json_round_trip(self, s3_table):
        again = DimTable.from_json(s3_table.to_json())
        assert again.entries == s3_table.entries
        assert again.group == s3_table.group

    def test_json_schema_fields(self, s3_table):
        import json

        data = json.loads(s3_table.to_json())
        assert data["group"] == {"m": 1, "p": 1, "n": 3}
        assert data["version"] == 1
        assert [0, 0, 1] in data["dims"]

    def test_latex_emitter(self):
        text = dimtable.latex_table([("S_3", "z^2 + 6*z + 6", "z^2 + 6*z + 6")])
        assert "(same)" in text
        assert text.startswith(r"\begin{tabular}")


class TestBudget:
    def test_small_budget_refused_with_estimate(self):
        gd = build_group(1, 1, 3)
        with pytest.raises(FeasibilityError) as err:
            sh_dim_table(gd, budget=10)
        assert err.value.estimate > 10
        assert err.value.budget == 10

    def test_refusal_survives_pickling(self):
        err = FeasibilityError(GroupSpec(1, 1, 4), (3, 1), 123, 100)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is FeasibilityError
        assert (back.group, back.bidegree, back.estimate, back.budget) == (
            GroupSpec(1, 1, 4), (3, 1), 123, 100
        )
        assert str(back) == str(err)

    def test_default_budget_refuses_d4(self):
        gd = build_group(2, 2, 4)
        with pytest.raises(FeasibilityError):
            sh_dim_table(gd)

    @pytest.mark.parametrize("budget, bidegree, estimate", [
        (harmonics.DEFAULT_CELL_BUDGET, (12, 2), 21556080),
        (300000, (12, 0), 318500),
    ])
    def test_refusal_comes_before_any_elimination(
        self, monkeypatch, budget, bidegree, estimate
    ):
        # the first over-budget cell in computation order is named, as when
        # the budget was checked one cell at a time, but no cell is computed
        calls = []
        for name in ("rank", "rref", "nullspace"):
            monkeypatch.setattr(
                linalg, name, lambda *a, _name=name, **kw: calls.append(_name)
            )
        gd = build_group(2, 2, 4)
        for build in (
            lambda: sh_dim_table(gd, budget=budget),
            lambda: sh_dim_table(gd, budget=budget, threads=2),
            lambda: harmonic_cells(gd, budget=budget),
        ):
            with pytest.raises(FeasibilityError) as err:
                build()
            assert (err.value.group, err.value.bidegree) == (gd.spec, bidegree)
            assert (err.value.estimate, err.value.budget) == (estimate, budget)
        assert calls == []

    def test_refused_threads_run_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("the worker pool started before the budget check")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(FeasibilityError):
            sh_dim_table(build_group(1, 1, 4), budget=100000, threads=2)


class TestBudgetEstimate:
    @pytest.mark.parametrize(
        "key", [(1, 1, 1), (1, 1, 4), (2, 1, 3), (2, 2, 4), (3, 3, 3), (4, 2, 3)]
    )
    def test_equals_the_shape_of_both_cell_matrices(self, key):
        # rows: one per operator and target monomial, or per generator and
        # multiplier monomial
        gd = build_group(*key)
        n = gd.n
        shifts = [op.bidegree_shift() for op in gd.harmonic_generator_operators()]
        degrees = [g.bidegree() for g in gd.ideal_generators()]
        for i in range(-1, gd.spec.degree_of_vandermondian + 3):
            for k in range(-1, n + 2):
                cols = harmonics.cell_dimension(n, i, k)
                kernel = sum(harmonics.cell_dimension(n, i + dx, k + dk) for dx, dk in shifts)
                ideal = sum(harmonics.cell_dimension(n, i - gi, k - gk) for gi, gk in degrees)
                estimate = harmonics._estimate_kernel_entries(gd, i, k)
                assert estimate == kernel * cols == ideal * cols, (i, k)


def _with_ext_derivative(gd, i, op):
    """A fresh GroupData of gd's group with ext derivative d_(i + 1) replaced."""
    ops = list(gd.ext_derivatives)
    ops[i] = op
    return groups.GroupData(gd.spec, gd.basic_invariants, gd.vandermondian,
                            gd.covandermondian, ops)


class TestDetIsotypic:
    @pytest.mark.parametrize("key", [(1, 1, 4), (2, 1, 3), (3, 3, 3)])
    def test_elements_are_the_operator_products_one_apply_each(self, monkeypatch, key):
        gd = build_group.__wrapped__(*key)
        r, gens = gd.spec.rank, gd.harmonic_generator_operators()
        # the h of G D + D G that no f_j is proportional to, per d_i
        fs = gd.basic_invariants
        kept = [sum(1 for h in row.values() if h and all(h.scalar_ratio(f) is None for f in fs))
                for row in harmonics._anticommutators(gd)]
        calls = []
        real_apply = Operator.apply
        monkeypatch.setattr(
            Operator, "apply", lambda op, f: calls.append(op) or real_apply(op, f)
        )
        elems = det_isotypic_elements(gd)
        # one d-apply per nonempty subset, 2n applies on Delta, and one per
        # kept h of d_(min S) on each element e_S
        subsets = [s for s in elems if s]
        assert len(calls) == len(subsets) + len(gens) + sum(kept[s[0] - 1] for s in subsets)
        assert len(calls) == {(1, 1, 4): 19, (2, 1, 3): 17, (3, 3, 3): 20}[key]
        assert len(calls) < 2**r - 1 + 2**r * len(gens)
        monkeypatch.undo()
        for subset, elem in elems.items():
            want = gd.vandermondian
            for idx in reversed(subset):
                want = gd.ext_derivatives[idx - 1].apply(want)
            assert elem == want, subset

    def test_inhomogeneous_element_is_an_integrity_error(self):
        # d_1 of S_3 with theta_1 d/dx_1 raised to theta_1 (d/dx_1)^2
        gd = build_group(1, 1, 3)
        terms = dict(gd.ext_derivatives[0].terms)
        mulx, mt, derx, dt = key = min(terms)
        terms[mulx, mt, (derx[0] + 1, *derx[1:]), dt] = terms.pop(key)
        bad = _with_ext_derivative(gd, 0, Operator(gd.n, terms))
        match = r"subset \(1,\) of S_3 has bidegrees \[\(1, 1\), \(2, 1\)\], expected \(2, 1\)"
        with pytest.raises(IntegrityError, match=match):
            det_isotypic_elements(bad)

    def test_vanished_element_is_an_integrity_error(self):
        bad = _with_ext_derivative(build_group(1, 1, 3), 1, Operator(3))
        with pytest.raises(IntegrityError, match=r"subset \(2,\) of S_3 has bidegrees \[\]"):
            det_isotypic_elements(bad)

    @pytest.mark.parametrize("term", [
        (((1, 0, 0), (1,), (0, 0, 0), ()), "x-multiplication"),
        (((0, 0, 0), (1, 2), (1, 0, 0), ()), "two thetas"),
        (((0, 0, 0), (1,), (0, 0, 0), (2,)), "theta-derivative"),
    ], ids=lambda term: term[1])
    def test_ext_derivative_of_another_shape_is_refused(self, term):
        gd = build_group(1, 1, 3)
        op = gd.ext_derivatives[1] + Operator(gd.n, {term[0]: 1})
        with pytest.raises(IntegrityError, match="S_3: d_2 is not theta_l times x-derivatives"):
            det_isotypic_elements(_with_ext_derivative(gd, 1, op))

    def test_built_once_per_group_and_left_out_of_the_pickle(self, monkeypatch):
        builds = []
        real = harmonics._build_det_isotypic_elements
        monkeypatch.setattr(harmonics, "_build_det_isotypic_elements",
                            lambda gd: builds.append(gd.spec) or real(gd))
        gd = build_group.__wrapped__(2, 1, 3)
        gd.harmonic_generator_operators()
        before = pickle.dumps(gd)
        derivative_closure(gd)
        det_isotypic_basis(gd)
        support_check(gd)
        assert builds == [gd.spec]
        assert pickle.dumps(gd) == before
        assert pickle.loads(before)._det_elements is None

    def test_k0_is_vandermondian(self):
        gd = build_group(2, 2, 3)
        elems = det_isotypic_elements(gd)
        assert elems[()] == gd.vandermondian

    def test_counts_and_bidegrees(self):
        for key in [(1, 1, 3), (2, 1, 2), (2, 2, 3), (3, 1, 2)]:
            gd = build_group(*key)
            spec = gd.spec
            by_k = det_isotypic_basis(gd)
            total = sum(s.dimension for s in by_k.values())
            assert total == 2**spec.rank
            for k, sub in by_k.items():
                assert sub.dimension == comb(spec.rank, k)

    def test_g222_explicit_elements(self):
        n = 2
        gd = build_group(2, 2, 2)
        elems = det_isotypic_elements(gd)
        x1, x2 = SuperPoly.x(n, 1), SuperPoly.x(n, 2)
        t1, t2 = SuperPoly.theta(n, 1), SuperPoly.theta(n, 2)
        expected = {
            (): x1 * x1 - x2 * x2,
            (1,): x1 * t1 - x2 * t2,
            (2,): x2 * t1 - x1 * t2,
            (1, 2): t1 * t2,
        }
        for subset, target in expected.items():
            assert elems[subset].scalar_ratio(target) is not None

    def test_top_element_for_g_m_1_n(self):
        # with all operators applied, the leftover is (x_1...x_n)^(m-2) volume
        for m, n in [(3, 2), (4, 2), (3, 3)]:
            gd = build_group(m, 1, n)
            elems = det_isotypic_elements(gd)
            top = elems[tuple(range(1, n + 1))]
            expected = SuperPoly.monomial(n, (m - 2,) * n, tuple(range(1, n + 1)))
            assert top.scalar_ratio(expected) is not None


def _reference_derivative_closure(gd, budget=harmonics.DEFAULT_CELL_BUDGET):
    """Every nonzero d^beta e of every det-isotypic element e, one rank per
    cell; each cell is refused when cols x (number of them) is over budget."""
    n = gd.n
    by_cell = {}
    for subset, elem in sorted(det_isotypic_elements(gd).items()):
        i0, k = elem.bidegree()
        terms = clear_denominators(elem.terms)[1]
        for drop in range(i0 + 1):
            for beta in x_monomials(n, drop):
                de = _x_derivative(terms, beta)
                if de:
                    by_cell.setdefault((i0 - drop, k), []).append(de)
    table = DimTable(gd.spec)
    for (i, k), derivatives in sorted(by_cell.items()):
        cols = harmonics.cell_dimension(n, i, k)
        if cols * len(derivatives) > budget:
            raise FeasibilityError(gd.spec, (i, k), cols * len(derivatives), budget)
        index = harmonics._cell_index(n, i, k)
        rows = (
            harmonics._reduced_row((index[mon], c) for mon, c in de)
            for de in derivatives
        )
        table.set(i, k, reference_rank(rows, cols))
    return table


class TestXLowering:
    """The per-degree d/dx_j tables and the row lowering of the x-side
    derivative-span walk (``helpers.x_derivative_ranks``), the reference of
    the walk in standard coordinates, against exponent subtraction
    (``helpers._x_derivative``)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_is_exponent_subtraction(self, n):
        for i in range(7):
            lower = list(x_monomials(n, i - 1))
            table = x_lowering(n, i)
            assert len(table) == n
            for j, entries in enumerate(table):
                assert len(entries) == len(x_monomials(n, i))
                for a, entry in zip(x_monomials(n, i), entries):
                    if a[j]:
                        beta = tuple(int(l == j) for l in range(n))
                        want = tuple(map(sub, a, beta))
                        assert entry == (lower.index(want), a[j])
                    else:
                        assert entry is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lowered_rows_equal_the_reference_derivative(self, n):
        rng = random.Random(n)
        for i in range(1, 5):
            for k in range(n + 1):
                source = cell_monomials(n, i, k)
                target = harmonics._cell_index(n, i - 1, k)
                width = comb(n, k)
                for _ in range(5):
                    cols = sorted(rng.sample(range(len(source)), min(len(source), 6)))
                    row = [(c, rng.choice([-1, 1]) * rng.randint(1, 9)) for c in cols]
                    terms = [(source[c], v) for c, v in row]
                    for j, lowering in enumerate(x_lowering(n, i)):
                        beta = tuple(int(l == j) for l in range(n))
                        want = harmonics._reduced_row(
                            (target[mon], c) for mon, c in _x_derivative(terms, beta)
                        )
                        assert lower_row(row, lowering, width) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_equals_the_tuple_reference(self, n):
        for i in range(9):
            assert x_lowering(n, i) == reference_x_lowering(n, i)


class TestDerivativeSources:
    """The per-degree tables of ``_derivative_sources``, read off monomial
    codes, against the exponent-tuple reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_equal_the_tuple_reference(self, n):
        for i in range(9):
            for b in range(i + 1):
                for beta in x_monomials(n, b):
                    assert harmonics._derivative_sources(n, i, beta) == \
                        reference_derivative_sources(n, i, beta), (i, beta)

    def test_a_degree_past_the_field_raises_before_building(self):
        width = 1 << superpoly.CODE_BITS - 1
        before = superpoly.x_codes.cache_info().currsize
        with pytest.raises(ValueError):
            harmonics._derivative_sources(2, width, (1, 0))
        with pytest.raises(ValueError):
            x_lowering(2, width)
        assert superpoly.x_codes.cache_info().currsize == before
        assert harmonics._degree_tables(2, width) == {}


CLOSURE_GROUPS = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 4)
] + [(1, 1, 4), (2, 2, 4)]


class TestDerivativeClosure:
    @pytest.mark.parametrize("key", CLOSURE_GROUPS)
    def test_equals_the_all_derivatives_reference(self, key):
        gd = build_group(*key)
        got = derivative_closure(gd, budget=10**8)
        assert got.entries == _reference_derivative_closure(gd, 10**8).entries

    @pytest.mark.parametrize("key, budget", [
        ((2, 1, 3), 1), ((2, 1, 3), 10), ((2, 1, 3), 100), ((2, 1, 3), 1000),
        ((2, 2, 3), 1), ((2, 2, 3), 10), ((2, 2, 3), 100), ((2, 2, 3), 200),
        ((1, 1, 4), 1), ((1, 1, 4), 100), ((1, 1, 4), 1000), ((1, 1, 4), 1359),
        ((3, 1, 3), 1), ((3, 1, 3), 10), ((3, 1, 3), 1000), ((3, 1, 3), 3000),
        ((3, 1, 3), 5000),
    ])
    def test_refusal_comes_before_any_elimination(self, monkeypatch, key, budget):
        gd = build_group(*key)
        with pytest.raises(FeasibilityError) as want:
            _reference_derivative_closure(gd, budget)
        adds = []
        real_add = linalg.IntEliminator.add
        monkeypatch.setattr(
            linalg.IntEliminator, "add", lambda el, row: adds.append(row) or real_add(el, row)
        )
        with pytest.raises(FeasibilityError) as got:
            derivative_closure(gd, budget=budget)
        assert adds == []
        assert (got.value.group, got.value.bidegree) == (gd.spec, want.value.bidegree)
        assert (got.value.estimate, got.value.budget) == (want.value.estimate, budget)

    @pytest.mark.parametrize("key", [(1, 1, 5), (2, 1, 4), (2, 2, 4)])
    def test_full_table_is_pinned(self, key):
        # the bi-graded tables of the all-derivatives route, one JSON line each
        path = Path(__file__).parent / "data" / "closure_tables.jsonl"
        pinned = [DimTable.from_json(line) for line in path.read_text().splitlines()]
        (want,) = [t for t in pinned if t.group == GroupSpec.create(*key)]
        assert derivative_closure(build_group(*key), budget=10**9).entries == want.entries

    def test_matches_harmonics_for_s3(self, s3_table):
        closure = derivative_closure(build_group(1, 1, 3))
        assert closure.entries == s3_table.entries

    def test_k0_column_is_all_harmonics(self):
        # every classical harmonic is a derivative of the Vandermondian
        for key in [(1, 1, 3), (2, 2, 2), (3, 1, 2)]:
            gd = build_group(*key)
            closure = derivative_closure(gd)
            table = sh_dim_table(gd)
            assert closure.column(0) == table.column(0)

    def test_closure_contained_in_harmonics(self):
        for key in [(1, 1, 3), (2, 2, 2), (4, 2, 2)]:
            gd = build_group(*key)
            closure = derivative_closure(gd)
            table = sh_dim_table(gd)
            for (i, k), v in closure.entries.items():
                assert v <= table.dim(i, k)


class TestStandardWalk:
    """The derivative-span walk in standard coordinates
    (``harmonics._derivative_ranks``) against the x-side walk over whole
    cells (``helpers.x_walk_closure``), and its normal-form tables."""

    GROUPS = [key if key != (4, 1, 4) else pytest.param(key, marks=slow)
              for key in GRID] + [(1, 1, 5)]

    @pytest.mark.parametrize("key", GROUPS, ids=lambda key: "-".join(map(str, key)))
    def test_closure_equals_the_x_walk(self, key):
        gd = build_group(*key)
        assert derivative_closure(gd, budget=10**13).entries == x_walk_closure(gd)

    @pytest.mark.parametrize("key", [(1, 1, 3), (1, 1, 4), (2, 1, 3), (2, 2, 4), (3, 1, 3)])
    def test_theta_degree_0_stops_at_dim_h(self, monkeypatch, key):
        # by Steinberg every H_i is a derivative span of Delta, so each level
        # of the theta-degree-0 walk reaches its dim H_i columns, and no row
        # is pulled, or differentiated, after that
        gd = build_group(*key)
        spec, delta = gd.spec, gd.vandermondian
        adds, derivatives = [], []
        real_add, real_derivative = linalg.IntEliminator.add, harmonics._standard_derivative
        monkeypatch.setattr(linalg.IntEliminator, "add",
                            lambda el, row: adds.append(el.rank < el.ncols) or real_add(el, row))
        monkeypatch.setattr(harmonics, "_standard_derivative",
                            lambda *args: derivatives.append(1) or real_derivative(*args))
        ranks = harmonics._derivative_ranks(gd.cell_presentation(), 0,
                                            {spec.degree_of_vandermondian: [delta]})
        chevalley = prod(map(q_integer, spec.degrees), start=QPoly.one())
        assert ranks == {i: chevalley.coefficient(i) for i in ranks}
        assert all(adds) and len(adds) == len(derivatives) + 1

    def test_a_table_and_a_closure_build_each_normal_form_table_once(self, monkeypatch):
        built = []
        real = groebner._normal_forms
        groebner._held.cache_clear()
        monkeypatch.setattr(groebner, "_normal_forms",
                            lambda basis, n, d: built.append((tuple(basis), n, d)) or
                            real(basis, n, d))
        for key in [(1, 1, 4), (2, 1, 3), (3, 3, 3)]:
            gd = build_group(*key)
            sh_dim_table(gd)
            before = len(built)
            derivative_closure(gd)
            assert len(built) == before, key
        assert len(built) == len(set(built))

    def test_two_groups_never_share_a_table(self):
        # equal bases share a table, and a basis built after another one was
        # freed gets its own; in one process the closures keep the pinned
        # columns of the p > 1 groups of rank 4 in any order
        d = 4
        first = groebner.closed_form_basis.__wrapped__(2, 2, 3, 3)
        want = groebner._normal_forms(first, 3, d)
        assert groebner.normal_forms(first, 3, d) == want
        assert groebner.normal_forms(list(first), 3, d) is groebner.normal_forms(first, 3, d)
        del first
        second = groebner.closed_form_basis.__wrapped__(2, 1, 3, 3)
        assert groebner.normal_forms(second, 3, d) == groebner._normal_forms(second, 3, d) != want
        for key in [(2, 2, 4), (4, 2, 4), (4, 4, 4), (2, 2, 4), (4, 4, 4)]:
            closure = derivative_closure(build_group(*key), budget=10**13)
            assert closure.z_coefficients_at_q1() == golden_row(key)[1], key

    def test_a_degree_past_the_field_raises_before_any_table(self, monkeypatch):
        width = 1 << superpoly.CODE_BITS - 1
        before = superpoly.x_codes.cache_info().currsize
        basis = groebner.closed_form_basis(2, 1, 2, 2)
        with pytest.raises(ValueError):
            groebner.normal_forms(basis, 2, width)
        levels = {}
        with pytest.raises(ValueError):
            harmonics._standard_level(build_group(2, 1, 2), levels, width)
        assert levels == {} and width not in groebner._held(basis, 2)
        assert superpoly.x_codes.cache_info().currsize == before

    def test_a_standard_count_off_chevalley_is_refused(self, monkeypatch):
        # the last variable appended to the basis removes every standard
        # monomial that holds it, the one of the top x-degree 9 among them
        real = groebner.closed_form_basis.__wrapped__

        def extended(m, p, n, variables):
            last = SuperPoly.monomial(variables, (0,) * (variables - 1) + (1,))
            return (*real(m, p, n, variables), last)

        gd = build_group(2, 1, 3)
        det_isotypic_elements(gd)
        monkeypatch.setattr(groebner, "closed_form_basis", extended)
        with pytest.raises(IntegrityError, match=r"^B_3: x-degree 9 has 0 standard monomials, not 1 "):
            derivative_closure(gd)

    def test_gamma_must_be_harmonic(self, monkeypatch):
        # Gamma seeds the walk in standard coordinates
        real = checks.partial_operator

        class Raised:
            def __init__(self, f):
                self.op = real(f)

            def apply(self, f):
                gamma = self.op.apply(f)
                return gamma + SuperPoly.monomial(f.n, (gamma.bidegree()[0],) + (0,) * (f.n - 1))

        monkeypatch.setattr(checks, "partial_operator", Raised)
        with pytest.raises(IntegrityError, match="Gamma of G\\(4,1,2\\) is not harmonic"):
            fitting_structures(build_group(4, 1, 2))


class TestExactness:
    @pytest.mark.parametrize("key", [(1, 1, 2), (1, 1, 3), (2, 2, 2), (3, 1, 2)])
    def test_complex_is_exact(self, key):
        gd = build_group(*key)
        rep = exactness_check(gd)
        assert rep.passed, rep.first_failure

    def test_s2_alternating_series_by_hand(self):
        table = sh_dim_table(build_group(1, 1, 2))
        alt = table.hilbert_qz().z_substitute_signed_power(1)
        assert alt == QPoly.one()

    def test_each_target_cell_is_tested_once(self, monkeypatch):
        # the images are tested with the certified operators: only d and d*
        # are applied to rows, on the way to the cells or after, and every
        # target cell of d and d* is tested once, in cell order
        gd = build_group(2, 1, 3)
        applied, tested = [], []
        real_apply, real_harmonic = checks._apply_rows, checks._harmonic

        def apply_rows(n, op, i, k, rows):
            applied.append(op)
            return real_apply(n, op, i, k, rows)

        def harmonic(gd, target, vectors):
            tested.append(target)
            return real_harmonic(gd, target, vectors)

        monkeypatch.setattr(checks, "_apply_rows", apply_rows)
        monkeypatch.setattr(checks, "_harmonic", harmonic)
        cells = harmonic_cells(gd)
        assert exactness_check(gd, cells).passed
        assert applied and all(
            op in (gd.exterior_d, gd.exterior_d_adjoint) for op in applied
        )
        targets = {
            (i + dx, k + dk)
            for (i, k), sub in cells.items() if sub.dimension
            for dx, dk in [(-1, 1), (1, -1)]
        }
        assert tested == sorted(targets)


class TestLaplacian:
    def test_power_one_gives_total_degree(self):
        d = Operator.exterior_derivative(2)
        lap = d.adjoint() @ d + d @ d.adjoint()
        f = SuperPoly.monomial(2, (2, 1), (1,))
        assert lap.apply(f) == 4 * f

    def test_n1_power2_mixed_monomial(self):
        d = Operator.power_exterior_derivative(1, 2)
        lap = d.adjoint() @ d + d @ d.adjoint()
        f = SuperPoly.monomial(1, (1,), (1,))
        assert lap.apply(f) == 6 * f

    def test_kernel_membership(self):
        d = Operator.power_exterior_derivative(2, 2)
        lap = d.adjoint() @ d + d @ d.adjoint()
        assert lap.apply(SuperPoly.x(2, 1)).is_zero()
        assert not lap.apply(SuperPoly.x(2, 1, 2)).is_zero()

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_spectrum_formula(self, N):
        assert laplacian_spectrum_check(N, 2, 5)

    @staticmethod
    def _patch_d(monkeypatch, change):
        real = Operator.power_exterior_derivative
        monkeypatch.setattr(
            Operator,
            "power_exterior_derivative",
            classmethod(lambda cls, n, power: change(real(n, power), n, power)),
        )

    @pytest.mark.parametrize("N", [1, 2])
    def test_off_diagonal_term_is_caught(self, monkeypatch, N):
        # theta_1 d_{x_2}^N in d puts x_1^N d_{x_2}^N terms into the Laplacian.
        self._patch_d(
            monkeypatch,
            lambda d, n, power: d + Operator.term(n, multheta=(1,), derx=(0, power)),
        )
        assert not laplacian_spectrum_check(N, 2, 4)

    def test_one_off_diagonal_entry_is_caught(self, monkeypatch):
        real = checks._apply_rows

        def skewed(n, op, i, k, rows):
            target, images = real(n, op, i, k, rows)
            if (i, k) == (2, 1):
                # The image of column 0 gains an entry at column 1; every
                # other entry stays as it is.
                images[0] = images[0] + [(1, 1)]
            return target, images

        assert laplacian_spectrum_check(2, 2, 3)
        monkeypatch.setattr(checks, "_apply_rows", skewed)
        assert not laplacian_spectrum_check(2, 2, 3)

    @pytest.mark.parametrize("factor", [2, Fraction(1, 2), -1])
    def test_wrong_eigenvalue_is_caught(self, monkeypatch, factor):
        # factor * d scales every eigenvalue by factor^2; -1 leaves them.
        self._patch_d(monkeypatch, lambda d, n, power: factor * d)
        assert laplacian_spectrum_check(2, 2, 4) == (factor**2 == 1)


def _image_rank(gd, op, cells, source):
    """Rank of op on the harmonic cell at source and whether the image stays
    inside the harmonics, as ``exactness_check`` reads them: ``_images``,
    then ``_harmonic`` on the images."""
    sub = cells.get(source)
    if not sub:
        return 0, True
    target, vectors = checks._images(gd, op, sub, source)
    return len(vectors), checks._harmonic(gd, target, vectors)


def _reference_image_rank(gd, op, cells, source):
    """The polynomial route: apply op to each basis vector, then every
    generator operator to each nonzero image."""
    n = gd.n
    sub = cells.get(source)
    if sub is None or sub.dimension == 0:
        return 0, True
    dx, dk = op.bidegree_shift()
    index = {mon: c for c, mon in enumerate(cell_monomials(n, source[0] + dx, source[1] + dk))}
    vectors = []
    inside = True
    for f in sub.vectors(n):
        img = op.apply(f)
        if img.is_zero():
            continue
        if any(g.apply(img) for g in gd.harmonic_generator_operators()):
            inside = False
        vectors.append(linalg.to_int_row(poly_to_vector(img, index)))
    return reference_rank(vectors, len(index)), inside


def _matrix_images(gd, op, sub, source):
    """``checks._images`` through the whole-cell matrix of op
    (``_reference_operator_entries``), read by column and multiplied into
    the basis vectors: the route before op was applied to the rows."""
    dx, dk = op.bidegree_shift()
    index = harmonics._cell_index(gd.n, source[0] + dx, source[1] + dk)
    columns = {}
    for (_, mon), row in _reference_operator_entries([op], gd.n, *source).items():
        for col, v in row.items():
            columns.setdefault(col, []).append((index[mon], v))
    el, vectors = linalg.IntEliminator(len(index)), []
    for row in sub.basis:
        image = {}
        for col, b in linalg.to_int_row(row):
            for t, v in columns.get(col, ()):
                image[t] = image.get(t, 0) + v * b
        image = linalg.to_int_row(image)
        if image and el.rank < el.ncols and el.add(image):
            vectors.append(image)
    return (source[0] + dx, source[1] + dk), vectors


class TestImageRank:
    @pytest.mark.parametrize(
        "key", [key for key in GRID if key[2] <= 3] + [(1, 1, 4), (2, 2, 4), (2, 1, 4)],
        ids=lambda key: "-".join(map(str, key)),
    )
    def test_images_equal_the_matrix_route(self, key):
        gd = build_group(*key)
        cells = harmonic_cells(gd, budget=10**9)
        for source, sub in cells.items():
            for op in (gd.exterior_d, gd.exterior_d_adjoint):
                got = checks._images(gd, op, sub, source)
                assert got == _matrix_images(gd, op, sub, source), source

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 1, 2), (4, 2, 2)])
    def test_equals_the_polynomial_route_on_every_cell(self, key):
        gd = build_group(*key)
        cells = harmonic_cells(gd)
        for source in cells:
            for op in (gd.exterior_d, gd.exterior_d_adjoint):
                got = _image_rank(gd, op, cells, source)
                assert got == _reference_image_rank(gd, op, cells, source), source

    def test_non_harmonic_image_is_reported(self):
        gd = build_group(1, 1, 3)
        ambient = cell_monomials(3, 1, 0)
        # d x_1 = theta_1, which d_{theta_1 + theta_2 + theta_3} does not kill.
        x1 = ambient.index(((1, 0, 0), ()))
        cells = {(1, 0): Subspace.from_vectors(ambient, [{x1: Fraction(1)}])}
        for route in (_image_rank, _reference_image_rank):
            assert route(gd, gd.exterior_d, cells, (1, 0)) == (1, False)
        assert not exactness_check(gd, cells).images_harmonic_ok

    def test_image_outside_the_f_j_kernel_is_reported(self):
        gd = build_group(1, 1, 3)
        ambient = cell_monomials(3, 0, 1)
        # d* theta_1 = x_1, which every d f_j operator kills and
        # d_{x_1 + x_2 + x_3} does not
        theta1 = ambient.index(((0, 0, 0), (1,)))
        cells = {(0, 1): Subspace.from_vectors(ambient, [{theta1: Fraction(1)}])}
        for route in (_image_rank, _reference_image_rank):
            assert route(gd, gd.exterior_d_adjoint, cells, (0, 1)) == (1, False)
        assert not exactness_check(gd, cells).images_harmonic_ok

    def test_harmonic_cells_map_inside(self, d2_cells):
        gd = build_group(2, 2, 2)
        for source in d2_cells:
            assert _image_rank(gd, gd.exterior_d, d2_cells, source)[1]


class TestFitting:
    def test_g422_structure(self):
        fit = fitting_structures(build_group(4, 2, 2))
        assert fit.hprime_dims == {0: 1, 1: 2, 2: 3}
        assert fit.sh_top_dims == {0: 1, 1: 2, 2: 3}
        assert fit.top_harmonics_match
        assert not fit.ann_gamma_equals_iprime
        gens = {g.to_string() for g in fit.iprime_generators}
        assert gens == {"4*x1^3", "4*x2^3", "2*x1^2*x2", "2*x1*x2^2"}
        assert fit.gamma.bidegree() == (0, 0)

    def test_real_groups_have_constant_gamma(self):
        for key in [(2, 1, 2), (2, 2, 3)]:
            fit = fitting_structures(build_group(*key))
            assert fit.gamma.bidegree() == (0, 0)
            assert fit.observed_top_xdeg == 0 == fit.predicted_top_xdeg
            assert fit.ann_gamma_equals_iprime

    def test_g_m_1_n_gamma_and_top_degree(self):
        for m, n in [(3, 2), (4, 2)]:
            fit = fitting_structures(build_group(m, 1, n))
            expected = SuperPoly.monomial(n, (m - 2,) * n)
            assert fit.gamma.scalar_ratio(expected) is not None
            assert fit.observed_top_xdeg == n * (m - 2) == fit.predicted_top_xdeg

    def test_rejects_symmetric_group(self):
        with pytest.raises(ValueError):
            fitting_structures(build_group(1, 1, 3))

    @pytest.mark.parametrize(
        "key", [(3, 3, 2), (3, 3, 3), (4, 4, 2), (4, 4, 3), (4, 2, 2), (4, 2, 3)]
    )
    def test_top_xdeg_closed_form_on_quotient_families(self, key):
        # for m/p = 1 the top monomial avoids every (n-1)-variable product,
        # so the maximum is (n-2)(m-2); for m/p >= 2 it is
        # m/p - 2 + (n-1)(m-2)
        fit = fitting_structures(build_group(*key))
        assert fit.observed_top_xdeg == fit.predicted_top_xdeg
        assert fit.top_harmonics_match

    @pytest.mark.parametrize("key", [key for key in GRID if GroupSpec.create(*key).m > 1])
    def test_ann_gamma_ranks_equal_the_reference(self, key):
        # the rank of mu -> d_{x^mu} Gamma on the degree-d monomials is the
        # dimension of the derivative span of Gamma in x-degree deg Gamma - d
        gd = build_group(*key)
        n, degrees = gd.n, range(gd.spec.degree_of_vandermondian + 1)
        fit = fitting_structures(gd, budget=10**13)
        gdeg = fit.gamma.bidegree()[0]
        spans = harmonics._derivative_ranks(gd, 0, {gdeg: [fit.gamma]})
        want = [reference_gamma_map_rank(fit.gamma, x_monomials(n, d), n, d) for d in degrees]
        assert [spans.get(gdeg - d, 0) for d in degrees] == want
        assert fit.ann_gamma_equals_iprime == (want == [fit.hprime_dims.get(d, 0) for d in degrees])

    @pytest.mark.parametrize("budget, bidegree", [
        (None, (9, 3)), (10, (2, "x")), (100, (4, "x")), (1000, (7, "x")),
    ])
    def test_refusal_comes_before_any_elimination(self, monkeypatch, budget, bidegree):
        # B_3: the I' budget of every x-degree and the budget of every top-row
        # cell are checked before the first row is eliminated
        gd = build_group(2, 1, 3)
        top = harmonics._estimate_kernel_entries(gd, 9, 3)
        budget = top - 1 if budget is None else budget
        adds = []
        real_add = linalg.IntEliminator.add
        monkeypatch.setattr(
            linalg.IntEliminator, "add", lambda el, row: adds.append(row) or real_add(el, row)
        )
        with pytest.raises(FeasibilityError) as err:
            fitting_structures(gd, budget=budget)
        assert adds == []
        i, k = bidegree
        estimate = top if k == 3 else harmonics.cell_dimension(3, i, 0) ** 2
        assert (err.value.bidegree, err.value.estimate, err.value.budget) == (
            bidegree, estimate, budget)


class TestSupport:
    def test_s3_region(self):
        gd = build_group(1, 1, 3)
        rep = support_check(gd)
        expected = {
            (i, k)
            for k in range(4)
            for i in range(4)
            if i + k + k * (k - 1) // 2 <= 3
        }
        assert bidegree_support_region(gd.spec) == expected
        assert rep.bidegree_bound_matches

    def test_b2_region(self):
        gd = build_group(2, 1, 2)
        rep = support_check(gd)
        assert rep.bidegree_bound_matches
        # i + k + 2 C(k,2) <= 4
        assert (4, 0) in rep.observed_support
        assert (2, 2) not in rep.observed_support

    @pytest.mark.parametrize("key", [(1, 1, 3), (3, 1, 2), (2, 1, 2)])
    def test_top_slice_is_delta_pair(self, key):
        rep = support_check(build_group(*key))
        assert rep.total_degree_matches
        assert rep.top_slice_dimension == 2
        assert rep.top_slice_is_vandermondian_pair

    def test_g222_exceptional_top_slice(self, d2_cells):
        rep = support_check(build_group(2, 2, 2), d2_cells)
        assert rep.top_slice_dimension == 4
        assert not rep.top_slice_is_vandermondian_pair
        assert rep.top_slice_in_det_isotypic
        assert rep.total_degree_matches


class TestSubspace:
    def test_membership(self):
        gd = build_group(1, 1, 2)
        sub = harmonic_cell(gd, 1, 0)
        index = {mon: c for c, mon in enumerate(sub.ambient)}
        diff = SuperPoly.x(2, 1) - SuperPoly.x(2, 2)
        total = SuperPoly.x(2, 1) + SuperPoly.x(2, 2)
        assert not linalg.residual(sub.basis, poly_to_vector(diff, index))
        assert linalg.residual(sub.basis, poly_to_vector(total, index))

    def test_canonical_equality(self):
        ambient = cell_monomials(2, 1, 0)
        index = {mon: c for c, mon in enumerate(ambient)}
        diff = SuperPoly.x(2, 1) - SuperPoly.x(2, 2)
        a = Subspace.from_vectors(ambient, [poly_to_vector(diff, index)])
        b = Subspace.from_vectors(
            ambient, [poly_to_vector(-3 * diff, index), poly_to_vector(diff, index)]
        )
        assert a == b


class TestParallel:
    def test_parallel_map_agrees(self, s3_table):
        gd = build_group(1, 1, 3)
        table = sh_dim_table(gd, threads=2)
        assert table.entries == s3_table.entries

    def test_pool_starts_no_more_workers_than_rows(self, monkeypatch, s3_table):
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        table = sh_dim_table(build_group(1, 1, 3), threads=200)
        assert table.entries == s3_table.entries
        # the rows of x-degree 0..3
        assert started == [4]


class TestDualRoutes:
    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 2, 2), (3, 1, 2), (4, 2, 2)])
    def test_kernel_and_quotient_dimensions_agree(self, key):
        # the two independent routes to every cell dimension
        gd = build_group(*key)
        dmax = gd.spec.degree_of_vandermondian
        for k in range(gd.n + 1):
            for i in range(dmax + 1):
                lhs = harmonics.harmonic_cell_dimension(gd, i, k)
                rhs = harmonics.coinvariant_cell_dimension(gd, i, k)
                assert lhs == rhs, (key, i, k)

    def test_elimination_paths_agree_through_pipeline(self):
        # every D_3 cell: the kernel-side and the ideal-side matrices have the
        # rank the rational reference eliminator finds, and the table holds
        # the kernel-side count
        gd = build_group(2, 2, 3)
        n = gd.n
        ops, gens = gd.harmonic_generator_operators(), gd.ideal_generators()
        table = sh_dim_table(gd)
        for i, k in harmonics._cell_range(gd):
            cols = harmonics.cell_dimension(n, i, k)
            kernel_rows = list(_kernel_rows(ops, n, i, k))
            ideal_rows = list(harmonics._ideal_rows(gens, n, i, k))
            kernel_rank = reference_rank(kernel_rows, cols)
            assert linalg.rank(kernel_rows, cols) == kernel_rank, (i, k)
            assert linalg.rank(ideal_rows, cols) == reference_rank(ideal_rows, cols), (i, k)
            assert table.dim(i, k) == cols - kernel_rank, (i, k)

    @pytest.mark.parametrize("key", [(1, 1, 4), (2, 1, 3), (3, 3, 3), (4, 2, 2)])
    def test_classical_column_total_is_group_order(self, key):
        table = sh_dim_table(build_group(*key))
        classical = sum(v for (i, k), v in table.entries.items() if k == 0)
        assert classical == table.group.order


# z-coefficient rows (theta-degree 0, 1, ...) of the groups that have no
# GOLDEN_TABLE row; each is also checked cell by cell against the
# quotient-side count below.
EXTRA_ROWS = {
    (2, 1, 3): [48, 72, 26, 1],
    (3, 3, 3): [54, 81, 32, 4],
    (4, 2, 2): [16, 21, 6],
    (4, 4, 2): [8, 8, 1],
}


class TestIntegrity:
    """The certificates of the generator operators against the generators
    (each f_j operator and each x-only piece of a d f_j on its own (d, 0)
    cell), and the entrywise check of a whole cell matrix against the ideal
    products that the tests keep as a reference (``helpers``)."""

    @staticmethod
    def _corrupt(monkeypatch, gd, j, op):
        ops = list(gd.harmonic_generator_operators())
        ops[j] = op
        monkeypatch.setattr(gd, "_generator_ops", ops)

    # Each entry point that reads the generator operators, given the group
    # and its cells computed before the corruption; (6, 1) is a cell on
    # which every B_3 operator has entries.
    ENTRY_POINTS = {
        "sh_dim_table": lambda gd, cells: sh_dim_table(gd),
        "harmonic_cells": lambda gd, cells: harmonic_cells(gd),
        "harmonic_cell": lambda gd, cells: harmonic_cell(gd, 6, 1),
        "exactness_check": exactness_check,
    }
    # the sh_dim_table cases keep their ids, the operator index alone
    CASES = [
        pytest.param(j, entry, id=str(j) if entry == "sh_dim_table" else f"{entry}-{j}")
        for entry in ENTRY_POINTS for j in range(6)
    ]

    @pytest.mark.parametrize("j, entry", CASES)
    def test_negated_operator_is_caught(self, monkeypatch, j, entry):
        # the kernel, so the rank comparison, cannot see a sign flip
        gd = build_group(2, 1, 3)
        cells = harmonic_cells(gd)
        self._corrupt(monkeypatch, gd, j, -gd.harmonic_generator_operators()[j])
        with pytest.raises(IntegrityError, match=r"B_3 bidegree \(\d+,\d+\).*column"):
            self.ENTRY_POINTS[entry](gd, cells)

    @pytest.mark.parametrize("j, entry", CASES)
    def test_one_doubled_term_is_caught(self, monkeypatch, j, entry):
        gd = build_group(2, 1, 3)
        cells = harmonic_cells(gd)
        op = gd.harmonic_generator_operators()[j]
        key = min(op.terms)
        bad = Operator(op.n, {**op.terms, key: 2 * op.terms[key]})
        self._corrupt(monkeypatch, gd, j, bad)
        with pytest.raises(IntegrityError, match=r"B_3 bidegree \(\d+,\d+\).*column"):
            self.ENTRY_POINTS[entry](gd, cells)

    @staticmethod
    def _entries(gd, i, k):
        return _reference_operator_entries(gd.harmonic_generator_operators(), gd.n, i, k)

    def test_extra_entry_in_a_row_is_caught(self):
        gd = build_group(2, 1, 3)
        entries = self._entries(gd, 4, 1)
        key, row = min(entries.items())
        free = min(set(range(harmonics.cell_dimension(3, 4, 1))) - set(row))
        row[free] = 1
        with pytest.raises(IntegrityError, match=rf"column {free}:"):
            check_against_products(gd, entries, 4, 1)

    def test_row_outside_the_generator_bidegree_is_caught(self):
        gd = build_group(2, 1, 3)
        entries = self._entries(gd, 4, 1)
        check_against_products(gd, entries, 4, 1)
        # operator 0 (d_{f_1}, bidegree (2, 0)) cannot reach an x-degree-1 target
        entries[(0, ((1, 0, 0), (1,)))] = {0: 0}
        check_against_products(gd, entries, 4, 1)
        entries[(0, ((1, 0, 0), (1,)))] = {0: 0, 5: 3}
        with pytest.raises(IntegrityError, match=r"operator 0 .*column 5:"):
            check_against_products(gd, entries, 4, 1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers rebuild the group; only forked ones see the corruption",
    )
    def test_corruption_is_caught_in_workers(self, monkeypatch):
        gd = build_group(2, 1, 3)
        self._corrupt(monkeypatch, gd, 3, -gd.harmonic_generator_operators()[3])
        with pytest.raises(IntegrityError):
            sh_dim_table(gd, threads=2)

    @pytest.mark.parametrize(
        "key", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 3, 3), (4, 2, 2), (4, 4, 2)]
    )
    def test_tables_match_golden_rows_and_quotient_counts(self, key):
        gd = build_group(*key)
        table = sh_dim_table(gd)
        row = GOLDEN_TABLE[key][0] if key in GOLDEN_TABLE else EXTRA_ROWS[key]
        z = table.z_coefficients_at_q1()
        assert [z.get(k, 0) for k in range(len(row))] == row
        assert max(z) == len(row) - 1
        for i, k in harmonics._cell_range(gd):
            assert table.dim(i, k) == harmonics.coinvariant_cell_dimension(gd, i, k)


def _reference_dims(gd):
    """harmonic_cell_dimension on every cell of the table range."""
    return {
        (i, k): harmonics.harmonic_cell_dimension(gd, i, k)
        for i, k in harmonics._cell_range(gd)
    }


DOWN_SET_GROUPS = sorted(
    {GroupSpec.create(m, p, n) for m in range(1, 5) for p in range(1, m + 1)
     if m % p == 0 for n in range(1, 4)} | {GroupSpec.create(1, 1, 4)},
    key=lambda spec: (spec.m, spec.p, spec.n),
)


def _corrupted(gd, rng):
    """gd with one term of one ext derivative corrupted: its coefficient
    doubled or negated, or one x-exponent of its derivative raised."""
    i = rng.randrange(len(gd.ext_derivatives))
    terms = dict(gd.ext_derivatives[i].terms)
    key = rng.choice(sorted(terms))
    how = rng.choice(("double", "flip", "raise"))
    if how == "raise":
        mulx, mt, derx, dt = key
        j = rng.randrange(gd.n)
        raised = (mulx, mt, tuple(e + (v == j) for v, e in enumerate(derx)), dt)
        terms[raised] = terms.get(raised, 0) + terms.pop(key)
    else:
        terms[key] *= 2 if how == "double" else -1
    return _with_ext_derivative(gd, i, Operator(gd.n, terms)), (i + 1, key, how)


def _verdict(build, gd):
    try:
        return build(gd)
    except IntegrityError:
        return "refused"


class TestDetCertificate:
    """The anticommutator certificate of the det-isotypic elements against
    the algebra it rests on and the 2n-apply check it replaced."""

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS + [GroupSpec.create(2, 1, 4), GroupSpec.create(2, 2, 4)],
        ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}",
    )
    def test_anticommutator_identity(self, spec):
        gd = build_group(spec.m, spec.p, spec.n)
        gens, ops = gd.ideal_generators(), gd.harmonic_generator_operators()
        table = list(harmonics._anticommutators(gd))
        assert len(table) == len(gd.ext_derivatives)
        for d, row in zip(gd.ext_derivatives, table):
            assert sorted(row) == [j for j, g in enumerate(gens) if g.bidegree()[1]]
            for j, op in enumerate(ops):
                if j in row:
                    assert op @ d + d @ op == partial_operator(row[j]), j
                else:
                    assert op @ d == d @ op, j

    @pytest.mark.parametrize(
        "key", [(1, 1, 3), (1, 1, 4), (2, 1, 3), (3, 3, 3), (2, 2, 3), (3, 1, 3), (4, 2, 3)]
    )
    def test_same_verdict_as_the_2n_apply_check(self, key):
        gd = build_group(*key)
        rng = random.Random(f"det-certificate {key}")
        verdicts = []
        for _ in range(15):
            bad, what = _corrupted(gd, rng)
            want = _verdict(reference_det_isotypic_elements, bad)
            assert _verdict(harmonics._build_det_isotypic_elements, bad) == want, what
            verdicts.append(want == "refused")
        assert any(verdicts)

    @pytest.mark.parametrize(
        "key", [(1, 1, 5), (2, 1, 4), pytest.param((2, 1, 5), marks=slow),
                pytest.param((1, 1, 6), marks=slow)]
    )
    def test_certificate_and_reference_agree_on_stock_data(self, key):
        gd = build_group(*key)
        assert harmonics._build_det_isotypic_elements(gd) == reference_det_isotypic_elements(gd)


class TestDownSet:
    """Cells next to a computed zero are recorded as zero without work."""

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}"
    )
    def test_pruned_table_equals_every_cell_computed(self, monkeypatch, spec):
        gd = build_group(spec.m, spec.p, spec.n)
        reference = _reference_dims(gd)
        # the support is a down-set: a zero cell has zero upper neighbours
        for (i, k), dim in reference.items():
            if dim == 0:
                assert reference.get((i + 1, k), 0) == 0, (i, k)
                assert reference.get((i, k + 1), 0) == 0, (i, k)
        computed = []
        real = harmonics.harmonic_cell_dimension

        def counted(gd, i, k, budget=harmonics.DEFAULT_CELL_BUDGET):
            computed.append((i, k))
            return real(gd, i, k, budget)

        monkeypatch.setattr(harmonics, "harmonic_cell_dimension", counted)
        monkeypatch.setattr(checks, "harmonic_cell_dimension", counted)
        table = sh_dim_table(gd)
        assert {key: table.dim(*key) for key in reference} == reference
        # exactly the cells whose neighbours are not zero were computed
        skipped = {
            (i, k) for i, k in reference
            if reference.get((i - 1, k)) == 0 or reference.get((i, k - 1)) == 0
        }
        assert sorted(computed) == sorted(set(reference) - skipped)
        # the bases walk the same cells
        bases = []
        real_basis = harmonics.harmonic_cell

        def counted_basis(gd, i, k, budget=harmonics.DEFAULT_CELL_BUDGET):
            bases.append((i, k))
            return real_basis(gd, i, k, budget)

        monkeypatch.setattr(harmonics, "harmonic_cell", counted_basis)
        harmonic_cells(gd)
        assert sorted(bases) == sorted(set(reference) - skipped)
        # the top row of fitting_structures sees only its i-neighbours
        if spec.m > 1:
            computed.clear()
            fitting_structures(gd)
            top = [
                (i, k) for i, k in reference
                if k == spec.n and reference.get((i - 1, k)) != 0
            ]
            assert sorted(computed) == sorted(top)

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 3, 3)])
    def test_harmonic_cells_equal_every_cell_computed(self, key):
        gd = build_group(*key)
        cells = harmonic_cells(gd)
        reference = {(i, k): harmonic_cell(gd, i, k) for i, k in harmonics._cell_range(gd)}
        assert list(cells) == list(reference)
        for cell, sub in reference.items():
            assert cells[cell] == sub, cell

    @pytest.mark.parametrize("key", [(1, 1, 4), (2, 1, 3)])
    def test_threads_give_the_serial_table(self, key):
        gd = build_group(*key)
        assert sh_dim_table(gd, threads=2).entries == sh_dim_table(gd).entries

    WALKS = [("table", key) for key in [(1, 1, 4), (2, 1, 3), (3, 3, 3), (2, 2, 3)]] + [
        ("top", (2, 1, 3)), ("top", (4, 2, 2))]

    @staticmethod
    def _walk_cells(gd, walk):
        cells = list(harmonics._cell_range(gd))
        return cells if walk == "table" else [(i, k) for i, k in cells if k == gd.n]

    @staticmethod
    def _wave_cells(cells, dims):
        """The cells that a walk in waves of equal i + k computes: a cell
        next to a zero of an earlier wave, at (i - 1, k) or (i, k - 1), is
        skipped and counts as zero."""
        zeros, computed = set(), set()
        for s in sorted({i + k for i, k in cells}):
            for i, k in [cell for cell in cells if sum(cell) == s]:
                if (i - 1, k) in zeros or (i, k - 1) in zeros:
                    zeros.add((i, k))
                    continue
                computed.add((i, k))
                if not dims[i, k]:
                    zeros.add((i, k))
        return computed

    @pytest.mark.parametrize("walk, key", WALKS)
    def test_serial_walk_computes_the_wave_walk_cells(self, walk, key):
        gd = build_group(*key)
        cells = self._walk_cells(gd, walk)
        dims = {(i, k): harmonics.harmonic_cell_dimension(gd, i, k) for i, k in cells}
        computed = []

        def compute(gd, i, k, budget):
            computed.append((i, k))
            return harmonics.harmonic_cell_dimension(gd, i, k, budget)

        found = harmonics._walk(gd, cells, harmonics.DEFAULT_CELL_BUDGET, compute)
        assert len(computed) == len(set(computed))
        assert set(computed) == set(found) == self._wave_cells(cells, dims)
        assert list(found) == [cell for cell in cells if cell in found]
        assert found == {cell: dims[cell] for cell in found}

    @pytest.mark.parametrize("walk, key", WALKS)
    def test_eager_rows_add_only_zero_cells(self, walk, key):
        # a mapper that takes every row before it computes one, as
        # Executor.map does, stops each row only at its own first zero
        gd = build_group(*key)
        cells = self._walk_cells(gd, walk)
        args = gd, cells, harmonics.DEFAULT_CELL_BUDGET, harmonics.harmonic_cell_dimension
        serial = harmonics._walk(*args)
        eager = harmonics._walk(*args, lambda *a: list(map(*a)))
        assert {cell: eager[cell] for cell in serial} == serial
        assert not any(eager[cell] for cell in eager.keys() - serial.keys())
        zero_rows = [i for (i, _), value in eager.items() if not value]
        assert len(zero_rows) == len(set(zero_rows))

    def test_row_holder_is_reset_after_a_row_raises(self, monkeypatch):
        # H_2 of B_3 loses a vector, so row 2 raises at its first cell
        real_rows, held = groebner.apolar_rows, []

        def rows(basis, n, degree):
            held.append(harmonics._row_data)
            return real_rows(basis, n, degree)[degree == 2:]

        monkeypatch.setattr(groebner, "apolar_rows", rows)
        with pytest.raises(IntegrityError, match=r"B_3: theta-degree 0 row"):
            sh_dim_table(build_group(2, 1, 3))
        assert len(held) == 3 and None not in held
        assert harmonics._row_data is None

    @pytest.mark.parametrize("key", [(4, 2, 2), (2, 1, 3), (3, 1, 3)])
    def test_fitting_top_row_equals_every_cell_computed(self, key):
        gd = build_group(*key)
        n, dmax = gd.n, gd.spec.degree_of_vandermondian
        reference = {}
        for i in range(dmax + 1):
            dim = harmonics.harmonic_cell_dimension(gd, i, n)
            if dim:
                reference[i] = dim
        assert fitting_structures(gd).sh_top_dims == reference

    def test_fitting_top_row_refuses_a_skipped_cell(self):
        # the top row of B_3 is zero from x-degree 1 on, but the budget of
        # every cell of the row is still checked
        gd = build_group(2, 1, 3)
        dmax = gd.spec.degree_of_vandermondian
        estimate = harmonics._estimate_kernel_entries(gd, dmax, 3)
        with pytest.raises(FeasibilityError) as err:
            checks.fitting_structures(gd, budget=estimate - 1)
        assert err.value.bidegree == (dmax, 3)

    @staticmethod
    def _rank_off_at_2_0(monkeypatch):
        # the k = 0 cell (2, 0) alone reads H_2 with one vector too few: its
        # first closed-form harmonic is lost
        real_cell, real_rows = harmonics.harmonic_cell_dimension, groebner.apolar_rows

        def cell(gd, i, k, budget=harmonics.DEFAULT_CELL_BUDGET):
            if (i, k) != (2, 0):
                return real_cell(gd, i, k, budget)
            with monkeypatch.context() as patch:
                patch.setattr(groebner, "apolar_rows",
                              lambda basis, n, degree: real_rows(basis, n, degree)[1:])
                return real_cell(gd, i, k, budget)

        monkeypatch.setattr(harmonics, "harmonic_cell_dimension", cell)

    def test_chevalley_row_catches_a_wrong_rank(self, monkeypatch):
        # S_3 cells are computed in the reduced presentation
        self._rank_off_at_2_0(monkeypatch)
        with pytest.raises(IntegrityError, match=r"S_3: theta-degree 0 row"):
            sh_dim_table(build_group(1, 1, 3))

    def test_chevalley_row_catches_a_wrong_rank_in_x(self, monkeypatch):
        # B_3 cells are computed in the x-presentation
        self._rank_off_at_2_0(monkeypatch)
        with pytest.raises(IntegrityError, match=r"B_3: theta-degree 0 row"):
            sh_dim_table(build_group(2, 1, 3))


class TestClassicalHarmonics:
    """H_i read off the closed-form Groebner basis
    (``harmonics._classical_harmonics``), pinned to the nullspace of the
    checked (i, 0) cell (``helpers.eliminated_harmonics``), and its
    certificate."""

    GROUPS = DOWN_SET_GROUPS + [
        GroupSpec.create(*key) for key in [(1, 1, 5), (2, 1, 4), (2, 2, 4)]
    ]

    @pytest.mark.parametrize("spec", GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}")
    def test_rows_span_the_eliminated_kernel(self, spec):
        # both presentations of S_n; the rows are even the very nullspace
        # rows, so the theta-degree >= 1 matrices built on them are unchanged
        gd = build_group(spec.m, spec.p, spec.n)
        reduced = gd.cell_presentation()
        for pres in [gd] if reduced is gd else [gd, reduced]:
            for i in range(spec.degree_of_vandermondian + 2):
                ambient = harmonics.cell_monomials(pres.n, i, 0)
                rows = harmonics._classical_harmonics(pres, i)
                reference = eliminated_harmonics(pres, i)
                assert Subspace.from_vectors(ambient, rows) == (
                    Subspace.from_vectors(ambient, reference)
                ), (pres.n, i)
                assert rows == reference, (pres.n, i)

    # label, key, and the degree-1 row count with one standard monomial lost
    CERTIFIED = {"B_3": ((2, 1, 3), 2), "S_3": ((1, 1, 3), 1), "D_3": ((2, 2, 3), 2)}

    @pytest.mark.parametrize("label", CERTIFIED)
    def test_wrong_coefficient_in_the_basis_is_caught(self, monkeypatch, label):
        # doubling a trailing coefficient of the first basis element changes
        # the normal forms, and the certificate of the basis refuses it
        real = groebner.closed_form_basis.__wrapped__

        def skewed(m, p, n, variables):
            gens = list(real(m, p, n, variables))
            terms = dict(gens[0].terms)
            low = min(terms)
            terms[low] *= 2
            gens[0] = SuperPoly(variables, terms)
            return gens

        monkeypatch.setattr(groebner, "closed_form_basis", skewed)
        key, _ = self.CERTIFIED[label]
        message = rf"^{label}: the closed-form basis is not certified: "
        with pytest.raises(IntegrityError, match=message):
            sh_dim_table(build_group(*key))

    @pytest.mark.parametrize("label", CERTIFIED)
    def test_dropped_standard_monomial_is_caught(self, monkeypatch, label):
        # the last variable appended to the basis makes it non-standard: the
        # degree-1 rows stay harmonic and independent but are one too few
        real = groebner.closed_form_basis.__wrapped__

        def extended(m, p, n, variables):
            last = SuperPoly.monomial(variables, (0,) * (variables - 1) + (1,))
            return (*real(m, p, n, variables), last)

        monkeypatch.setattr(groebner, "closed_form_basis", extended)
        key, count = self.CERTIFIED[label]
        message = rf"^{label}: theta-degree 0 row has {count} at q\^1"
        with pytest.raises(IntegrityError, match=message):
            harmonics.harmonic_cell_dimension(build_group(*key), 1, 0)


class TestBasisCertificate:
    """The certificate of the closed-form Groebner basis
    (``harmonics._certify``) against the f_j sweep over every H_i row that
    it replaced (``helpers.reference_classical_harmonics``), and its
    refusals."""

    # GRID holds B_4, D_4 and G(4,1,4)
    GROUPS = [key if key != (4, 1, 4) else pytest.param(key, marks=slow) for key in GRID] + [
        (1, 1, 5), pytest.param((2, 2, 5), marks=slow)]

    @pytest.mark.parametrize("key", GROUPS, ids=lambda key: "-".join(map(str, key)))
    def test_rows_pass_the_f_j_sweep(self, key):
        # every certified f_j operator kills every row, and the rows are the
        # sweep's, in both presentations of S_n
        gd = build_group(*key)
        reduced = gd.cell_presentation()
        for pres in [gd] if reduced is gd else [gd, reduced]:
            for i in range(gd.spec.degree_of_vandermondian + 2):
                rows = harmonics._classical_harmonics(pres, i)
                assert rows == reference_classical_harmonics(pres, i), (pres.n, i)

    def test_one_certificate_per_basis(self, monkeypatch):
        # a table and the cell bases of B_3 certify its basis once, and H_i
        # applies no operator
        gd = build_group(2, 1, 3)
        harmonics._certify.cache_clear()
        sh_dim_table(gd)
        harmonic_cells(gd)
        assert harmonics._certify.cache_info().misses == 1
        images = []
        monkeypatch.setattr(harmonics, "_x_images", lambda *args: images.append(args) or [])
        for i in range(gd.spec.degree_of_vandermondian + 1):
            harmonics._classical_harmonics(gd, i)
        assert images == []

    @staticmethod
    def _refused(monkeypatch, key, edit, message):
        # edit(basis) replaces the closed-form basis; the H_0 row is refused
        real = groebner.closed_form_basis.__wrapped__
        monkeypatch.setattr(groebner, "closed_form_basis",
                            lambda m, p, n, variables: edit(list(real(m, p, n, variables))))
        harmonics._certify.cache_clear()
        pres = build_group(*key).cell_presentation()
        want = f"{pres.spec.label()}: the closed-form basis is not certified: {message}"
        with pytest.raises(IntegrityError, match=f"^{re.escape(want)}$"):
            harmonics._classical_harmonics(pres, 0)

    @staticmethod
    def _doubled(basis, j, mon):
        terms = dict(basis[j].terms)
        terms[mon] *= 2
        basis[j] = SuperPoly(basis[j].n, terms)
        return basis

    @pytest.mark.parametrize("key", [(2, 1, 3), (1, 1, 3), (2, 2, 3)])
    def test_a_non_monic_element_is_refused_before_any_table(self, monkeypatch, key):
        built = []
        monkeypatch.setattr(groebner, "_normal_forms", lambda *args: built.append(args))
        self._refused(monkeypatch, key, lambda basis: self._doubled(basis, 0, max(basis[0].terms)),
                      "element 0 is not monic, homogeneous and integral")
        assert built == []

    @pytest.mark.parametrize("key", [(2, 1, 3), (2, 2, 3)])
    def test_a_non_integral_element_is_refused(self, monkeypatch, key):
        # a coefficient 1/2 that the tables would truncate
        def halved(basis):
            terms = dict(basis[1].terms)
            terms[min(terms)] = Fraction(1, 2)
            basis[1] = SuperPoly(basis[1].n, terms)
            return basis

        self._refused(monkeypatch, key, halved, "element 1 is not monic, homogeneous and integral")

    def test_an_inhomogeneous_element_is_refused(self, monkeypatch):
        def raised(basis):
            basis[0] = basis[0] + SuperPoly.monomial(3, (0, 0, 1))
            return basis

        self._refused(monkeypatch, (2, 1, 3), raised,
                      "element 0 is not monic, homogeneous and integral")

    @pytest.mark.parametrize("key", [(2, 2, 3), (3, 3, 3)])
    def test_an_s_pair_that_does_not_reduce_to_0_is_refused(self, monkeypatch, key):
        # S(g_0, g_2) = x_2 x_3 g_0 - x_1^(m-1) g_2 is the element g_3 =
        # x_2^(m+1) x_3 + x_2 x_3^(m+1); with the tail of g_3 doubled it no
        # longer reduces to 0
        self._refused(monkeypatch, key, lambda basis: self._doubled(basis, 3, min(basis[3].terms)),
                      "the S-polynomial of elements 0 and 2 does not reduce to 0")

    @pytest.mark.parametrize("key", [(2, 1, 3), (1, 1, 3), (2, 2, 3)])
    def test_a_generator_outside_the_ideal_is_refused(self, monkeypatch, key):
        # g_0 cut to its leading monomial: still a Groebner basis with the
        # same standard monomials, so every count is Chevalley's, but of an
        # ideal that misses the first theta-free generator
        def cut(basis):
            basis[0] = SuperPoly(basis[0].n, {max(basis[0].terms): 1})
            return basis

        self._refused(monkeypatch, key, cut, "ideal generator 0 does not reduce to 0")


class TestThetaCells:
    """Cells of theta-degree k >= 1 solved on H_i (x) Lambda^k, pinned to the
    whole-cell route (``helpers.full_cell_dimension``, ``full_cell_kernel``)."""

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}"
    )
    def test_dimensions_equal_the_full_cell(self, spec):
        gd = build_group(spec.m, spec.p, spec.n)
        budget = harmonics.DEFAULT_CELL_BUDGET
        for i, k in harmonics._cell_range(gd):
            assert harmonics.harmonic_cell_dimension(gd, i, k) == (
                full_cell_dimension(gd, i, k, budget)
            ), (i, k)

    def test_reduced_s4_kernels_equal_the_full_cell(self):
        gd = build_group(1, 1, 4)
        pres = gd.cell_presentation()
        for i, k in harmonics._cell_range(gd):
            assert kernel_intersection(pres, i, k) == full_cell_kernel(pres, i, k), (i, k)

    def test_s5_benchmark_cells_equal_the_full_cell(self):
        gd = build_group(1, 1, 5)
        for cell in [(8, 0), (9, 0), (4, 3), (8, 5)]:
            assert harmonics.harmonic_cell_dimension(gd, *cell, budget=10**9) == (
                full_cell_dimension(gd, *cell, 10**9)
            ), cell

    @pytest.mark.parametrize(
        "spec", [spec for spec in DOWN_SET_GROUPS if spec.n <= 3],
        ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}",
    )
    def test_subspaces_equal_the_full_cell(self, spec):
        gd = build_group(spec.m, spec.p, spec.n)
        cells = harmonic_cells(gd)
        for cell, sub in cells.items():
            reference = full_cell_kernel(gd, *cell)
            assert sub == reference, cell
            assert harmonic_cell(gd, *cell) == reference, cell

    @pytest.mark.parametrize("j", range(3))
    @pytest.mark.parametrize("entry", ["harmonic_cell", "harmonic_cell_dimension"])
    def test_stale_kernel_is_not_reused(self, monkeypatch, j, entry):
        # H_6 of B_3 was found by the walks and calls before f_j was
        # corrupted; a later call computes and checks its own, which checks
        # the f_j operators on the (d_j, 0) cells first
        gd = build_group(2, 1, 3)
        harmonic_cells(gd)
        sh_dim_table(gd)
        harmonic_cell(gd, 6, 1)
        harmonics.harmonic_cell_dimension(gd, 6, 1)
        ops = list(gd.harmonic_generator_operators())
        ops[j] = -ops[j]
        monkeypatch.setattr(gd, "_generator_ops", ops)
        d_j = gd.spec.degrees[j]
        with pytest.raises(IntegrityError, match=rf"B_3 bidegree \({d_j},0\).*column"):
            getattr(harmonics, entry)(gd, 6, 1)

    @pytest.mark.parametrize("entry", ["harmonic_cell", "harmonic_cell_dimension"])
    def test_x_only_operator_acting_on_theta_is_caught(self, monkeypatch, entry):
        # a theta-derivative term has no entries on the (i, 0) cell, so only
        # the check that the f_j operators are x-derivatives alone can see
        # it; it runs before H_i is read, so also on the (i, 0) cells
        gd = build_group(2, 1, 3)
        ops = list(gd.harmonic_generator_operators())
        ops[0] = ops[0] + Operator.term(3, derx=(2, 0, 0), dertheta=(1,))
        monkeypatch.setattr(gd, "_generator_ops", ops)
        for k in (0, 1):
            with pytest.raises(IntegrityError, match=r"B_3: an f_j operator acts on theta"):
                getattr(harmonics, entry)(gd, 6, k)

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}"
    )
    def test_rows_equal_the_full_cell_route(self, spec):
        # the same content-reduced rows in the same order, in both
        # presentations of S_n
        gd = build_group(spec.m, spec.p, spec.n)
        reduced = gd.cell_presentation()
        for pres in [gd] if reduced is gd else [gd, reduced]:
            for i, k in harmonics._cell_range(gd):
                if k == 0 or harmonics.cell_dimension(pres.n, i, k) == 0:
                    continue
                classical, products = harmonics._degree_data(pres, i, k)
                rows = list(harmonics._theta_rows(pres.n, k, products))
                assert rows == full_cell_theta_rows(pres, i, k, classical), (i, k)

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}"
    )
    def test_products_equal_the_matrix_route(self, spec):
        # the certified pieces applied to H_i directly give the products of
        # their (i, 0) operator matrices, in both presentations of S_n
        gd = build_group(spec.m, spec.p, spec.n)
        reduced = gd.cell_presentation()
        for pres in [gd] if reduced is gd else [gd, reduced]:
            for i in range(spec.degree_of_vandermondian + 1):
                classical = harmonics._classical_harmonics(pres, i)
                assert classical, (pres.n, i)
                assert harmonics._theta_products(pres, i, classical) == (
                    matrix_theta_products(pres, i, classical)
                ), (pres.n, i)

    @staticmethod
    def _record_assemblies(monkeypatch, log, gens):
        real_cell, real_products = harmonics._classical_harmonics, harmonics._theta_products
        real_apply = checks._apply_rows

        def record(line):
            with open(log, "a") as out:
                out.write(line + "\n")

        def cell(pres, i):
            record(f"cell {i}")
            return real_cell(pres, i)

        def products(pres, i, classical):
            record(f"pieces {i}")
            return real_products(pres, i, classical)

        def apply_rows(n, op, i, k, rows):
            # a generator operator on a whole cell (compared by value: the
            # workers hold unpickled copies)
            if op in gens:
                record(f"whole {i} {k}")
            return real_apply(n, op, i, k, rows)

        monkeypatch.setattr(harmonics, "_classical_harmonics", cell)
        monkeypatch.setattr(harmonics, "_theta_products", products)
        monkeypatch.setattr(checks, "_apply_rows", apply_rows)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers rebuild the module; only forked ones see the recorder",
    )
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("key", [(1, 1, 4), (2, 1, 3)])
    def test_each_classical_cell_is_computed_once(self, monkeypatch, tmp_path, key, threads):
        gd = build_group(*key)
        reference = sh_dim_table(gd)
        log = tmp_path / "assemblies"
        self._record_assemblies(
            monkeypatch, log, gd.cell_presentation().harmonic_generator_operators()
        )
        assert sh_dim_table(gd, threads=threads).entries == reference.entries
        seen = log.read_text().splitlines()
        assert len(seen) == len(set(seen))
        cells = [int(line.split()[1]) for line in seen if line.startswith("cell")]
        pieces = [int(line.split()[1]) for line in seen if line.startswith("pieces")]
        whole = [tuple(map(int, line.split()[1:])) for line in seen if line.startswith("whole")]
        # H_i of the (i, 0) cells the down-set leaves open, and no whole
        # k >= 1 cell
        open_rows = {
            i for i, k in harmonics._cell_range(gd)
            if k == 0 and (i == 0 or reference.dim(i - 1, 0))
        }
        assert set(cells) == open_rows
        assert all(k == 0 for _, k in whole)
        # the d f_j pieces of each x-degree that has a computed k >= 1 cell,
        # assembled once per walk
        n = gd.cell_presentation().n
        theta_rows = {
            i for i, k in harmonics._cell_range(gd)
            if 1 <= k <= n and (i == 0 or reference.dim(i - 1, k))
            and reference.dim(i, k - 1)
        }
        assert set(pieces) == theta_rows


def _negate_theta_1(op):
    return Operator(op.n, {key: -c if key[3] == (1,) else c for key, c in op.terms.items()})


def _move_a_term_to_theta_2(op):
    key = min(key for key in op.terms if key[3] == (1,))
    terms = dict(op.terms)
    moved = (*key[:3], (2,))
    terms[moved] = terms.get(moved, 0) + terms.pop(key)
    return Operator(op.n, terms)


def _add_a_theta_multiplication(op):
    _, _, derx, _ = min(op.terms)
    return op + Operator.term(op.n, multheta=(1,), derx=derx, dertheta=(1, 2))


class TestThetaPieces:
    """Corruptions of one d f_j operator that leave its (i, 0) cells alone,
    caught at a cell of theta-degree k >= 1 by the split of the d f_j by
    theta-index (``harmonics._theta_pieces``, ``_theta_products``)."""

    # group label, key, and an x-degree i with H_i != 0 on whose (i, 0)
    # cell every d f_j piece has entries
    GROUPS = {"B_3": ((2, 1, 3), 6), "S_4": ((1, 1, 4), 3)}
    CORRUPTIONS = {
        "negate-theta-1": _negate_theta_1,
        "move-to-theta-2": _move_a_term_to_theta_2,
        "multiply-by-theta": _add_a_theta_multiplication,
    }
    # entry point, the cell function it walks, and whether it reads the
    # x-presentation (bases) or ``cell_presentation`` (dimensions, which for
    # S_4 is the reduced one)
    ENTRY_POINTS = {
        "sh_dim_table": (lambda gd, i: sh_dim_table(gd), "harmonic_cell_dimension", False),
        "harmonic_cells": (lambda gd, i: harmonic_cells(gd), "harmonic_cell", True),
        "harmonic_cell_dimension": (
            lambda gd, i: harmonics.harmonic_cell_dimension(gd, i, 1),
            "harmonic_cell_dimension", False,
        ),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    @pytest.mark.parametrize("label", GROUPS)
    def test_corrupted_piece_is_caught_at_a_theta_cell(
        self, monkeypatch, label, corruption, entry
    ):
        key, i = self.GROUPS[label]
        run, cell, in_x = self.ENTRY_POINTS[entry]
        gd = build_group(*key)
        pres = gd if in_x else gd.cell_presentation()
        theta_gens = [j for j, g in enumerate(pres.ideal_generators()) if g.bidegree()[1]]
        assert theta_gens
        for j in theta_gens:
            ops = list(pres.harmonic_generator_operators())
            ops[j] = self.CORRUPTIONS[corruption](ops[j])
            with monkeypatch.context() as patch:
                patch.setattr(pres, "_generator_ops", ops)
                # the (i, 0) cell does not read the d f_j
                assert getattr(harmonics, cell)(gd, i, 0)
                with pytest.raises(IntegrityError, match=rf"^{label}"):
                    run(gd, i)

    @pytest.mark.parametrize("label", GROUPS)
    def test_doubled_piece_coefficient_is_caught_on_its_own_cell(self, monkeypatch, label):
        # one coefficient of one theta_l piece of one d f_j doubled: the
        # certificate of the pieces names the piece and its (d_j - 1, 0)
        # cell, before any theta-degree >= 1 matrix is eliminated; bases read
        # the x-presentation, tables the reduced one of S_4
        key, _ = self.GROUPS[label]
        gd = build_group(*key)
        reduced = gd.cell_presentation()
        eliminated = []
        real_rows = harmonics._theta_rows
        monkeypatch.setattr(harmonics, "_theta_rows",
                            lambda *args: eliminated.append(args[1]) or real_rows(*args))
        for pres, run in [(gd, harmonic_cells), (reduced, sh_dim_table)]:
            ops = pres.harmonic_generator_operators()
            for j, g in enumerate(pres.ideal_generators()):
                d, k = g.bidegree()
                if not k:
                    continue
                for (l,) in sorted({dt for *_, dt in ops[j].terms}):
                    term = min(t for t in ops[j].terms if t[3] == (l,))
                    bad = list(ops)
                    bad[j] = Operator(pres.n, {**ops[j].terms, term: 2 * ops[j].terms[term]})
                    with monkeypatch.context() as patch:
                        patch.setattr(pres, "_generator_ops", bad)
                        message = (rf"^{label} bidegree \({d},0\): the theta_{l} piece "
                                   rf"of a d f_j operator .*column x\^.* \(operator {j}\)$")
                        with pytest.raises(IntegrityError, match=message):
                            run(gd)
                    assert eliminated == [], (pres.n, j, l)


class TestHarmonicPredicate:
    """``checks._harmonic``, which tests the exactness images with the
    certified operators, against every generator operator applied to the
    vector as a polynomial."""

    @pytest.mark.parametrize(
        "spec", DOWN_SET_GROUPS, ids=lambda spec: f"{spec.m}-{spec.p}-{spec.n}"
    )
    def test_equals_the_polynomial_route_on_every_cell(self, spec):
        # the harmonic basis of each cell, and each basis vector (a unit
        # vector where the cell has none) with one entry moved
        gd = build_group(spec.m, spec.p, spec.n)
        ops = gd.harmonic_generator_operators()
        rng = random.Random(f"harmonic predicate {spec.m} {spec.p} {spec.n}")
        verdicts = set()
        for cell, sub in harmonic_cells(gd).items():
            ambient = cell_monomials(gd.n, *cell)
            basis = [linalg.to_int_row(row) for row in sub.basis]
            moved = []
            for vec in basis or [[]]:
                entries = dict(vec)
                col = rng.randrange(len(ambient))
                entries[col] = entries.get(col, 0) + rng.choice([-2, -1, 1, 2])
                moved.append(linalg.to_int_row(entries))
            expected = []
            for vec in basis + moved:
                poly = SuperPoly(gd.n, {ambient[c]: Fraction(v) for c, v in vec})
                expected.append(not any(op.apply(poly) for op in ops))
                assert checks._harmonic(gd, cell, [vec]) == expected[-1], (cell, vec)
            assert all(expected[:len(basis)])
            assert checks._harmonic(gd, cell, basis + moved) == all(expected), cell
            verdicts.update(expected)
        assert verdicts == {True, False}


@pytest.mark.parametrize("key", [(2, 1, 3), (1, 1, 4)])
def test_table_walk_builds_no_operator_matrix(monkeypatch, key):
    # the f_j and the d f_j pieces are certified once on their own cells
    # and applied to H_i: no x-degree of a table assembles an operator
    # matrix, not even while the certificates are made
    gd = build_group(*key)
    calls = []
    real = checks._apply_rows
    monkeypatch.setattr(checks, "_apply_rows",
                        lambda *args: calls.append(args[2:4]) or real(*args))
    harmonics._f_operators.cache_clear()
    harmonics._theta_pieces.cache_clear()
    z = sh_dim_table(gd).z_coefficients_at_q1()
    assert calls == []
    row = GOLDEN_TABLE[key][0] if key in GOLDEN_TABLE else EXTRA_ROWS[key]
    assert [z.get(k, 0) for k in range(len(row))] == row


def test_f_operators_are_checked_once_per_presentation():
    # a table and the bases of B_3 read H_i at every x-degree; the f_j
    # operators are checked once and kept for the same generators
    gd = build_group(2, 1, 3)
    harmonics._f_operators.cache_clear()
    sh_dim_table(gd)
    harmonic_cells(gd)
    info = harmonics._f_operators.cache_info()
    assert (info.misses, info.hits > 1) == (1, True)


def test_theta_pieces_are_split_once_per_presentation():
    # a table and the bases of B_3 read the pieces at every x-degree with a
    # theta cell; the split is made once and kept for the same generators
    gd = build_group(2, 1, 3)
    harmonics._theta_pieces.cache_clear()
    sh_dim_table(gd)
    harmonic_cells(gd)
    info = harmonics._theta_pieces.cache_info()
    assert (info.misses, info.hits > 1) == (1, True)
