"""Buchberger engine and the closed-form coinvariant-ideal bases."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from supercoinv import artin, groebner
from supercoinv.groebner import (
    GroebnerBasis,
    QuotientNotFiniteError,
    buchberger,
    complete_homogeneous,
    groebner_generators,
    leading_monomial,
    monic,
    normal_form,
    predicted_leading_monomials,
    standard_monomials,
)
from supercoinv.groups import GroupSpec
from supercoinv.superpoly import CODE_BITS, SuperPoly, pairing, x_codes, x_monomials
from helpers import reference_apolar_rows

GRID = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
]


class TestCompleteHomogeneous:
    def test_h0(self):
        assert complete_homogeneous(0, range(1, 4), 3) == SuperPoly.one(3)

    def test_h2_two_vars(self):
        got = complete_homogeneous(2, (1, 2), 2)
        expected = (
            SuperPoly.monomial(2, (2, 0))
            + SuperPoly.monomial(2, (1, 1))
            + SuperPoly.monomial(2, (0, 2))
        )
        assert got == expected

    def test_h1_squares(self):
        got = complete_homogeneous(1, (1, 2), 2, power=2)
        assert got == SuperPoly.monomial(2, (2, 0)) + SuperPoly.monomial(2, (0, 2))


class TestGenerators:
    def test_s2(self):
        gens = groebner_generators(1, 1, 2)
        assert [g.to_string() for g in gens] == ["x1 + x2", "x2^2"]

    def test_d2(self):
        gens = groebner_generators(2, 2, 2)
        assert [g.to_string() for g in gens] == ["x1^2 + x2^2", "x1*x2", "x2^3"]

    def test_leading_monomials_p1(self):
        for m, n in [(1, 3), (2, 3), (3, 2)]:
            gens = groebner_generators(m, 1, n)
            lms = {leading_monomial(g) for g in gens}
            expected = set()
            for j in range(1, n + 1):
                e = [0] * n
                e[j - 1] = j * m
                expected.add(tuple(e))
            assert lms == expected == predicted_leading_monomials(m, 1, n)


class TestBuchberger:
    def test_one_reduction_by_hand(self):
        # S-poly of (x1 + x2, x1 x2) is x2^2
        gens = [
            SuperPoly(2, {((1, 0), ()): Fraction(1), ((0, 1), ()): Fraction(1)}),
            SuperPoly(2, {((1, 1), ()): Fraction(1)}),
        ]
        gb = buchberger(gens)
        assert gb.to_strings() == ["x2^2", "x1 + x2"]
        assert gb.is_reduced()

    def test_single_monomial(self):
        gb = buchberger([SuperPoly.monomial(2, (2, 1), coeff=5)])
        assert gb.to_strings() == ["x1^2*x2"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            buchberger([SuperPoly.zero(2)])

    @pytest.mark.parametrize("key", GRID)
    def test_closed_form_family_is_stable(self, key):
        m, p, n = key
        gens = groebner_generators(m, p, n)
        gb = buchberger(gens)
        assert gb.is_reduced()
        assert {tuple(sorted(g.terms.items())) for g in gb.generators} == {
            tuple(sorted(monic(g).terms.items())) for g in gens
        }
        assert set(gb.leading_monomials()) == predicted_leading_monomials(m, p, n)


def _invariants(m, p, n):
    """The basic invariants of G(m, p, n), which generate the same ideal as
    the closed-form family but are not a lex Groebner basis for n > 1."""
    def power_sum(k):
        return sum((SuperPoly.x(n, j, k) for j in range(1, n + 1)), SuperPoly.zero(n))

    if m == 1:
        return [power_sum(i) for i in range(1, n + 1)]
    last = power_sum(m * n) if p == 1 else SuperPoly.monomial(n, (m // p,) * n)
    return [power_sum(m * i) for i in range(1, n)] + [last]


def _reorderings(gens):
    return [gens[::-1]] + [gens[r:] + gens[:r] for r in range(1, len(gens))]


MIXED_LEADING_MONOMIALS = [
    SuperPoly.x(3, 1, 3),
    SuperPoly.x(3, 1) * SuperPoly.x(3, 2),
    SuperPoly.x(3, 2, 2) * SuperPoly.x(3, 3),
    SuperPoly.x(3, 2, 4),
    SuperPoly.x(3, 3, 2),
]


class TestBuchbergerOrder:
    """The reduced basis is unique, so neither the generator order nor the
    order in which tied S-pairs are processed can change it."""

    @pytest.mark.parametrize("key", GRID)
    def test_reordered_generators_give_the_same_basis(self, key):
        gb = buchberger(groebner_generators(*key))
        for gens in (groebner_generators(*key), _invariants(*key)):
            for reordered in _reorderings(gens):
                assert buchberger(reordered) == gb

    def test_mixed_leading_monomials(self):
        gb = buchberger(MIXED_LEADING_MONOMIALS)
        for reordered in _reorderings(MIXED_LEADING_MONOMIALS):
            assert buchberger(reordered) == gb

    @pytest.mark.parametrize("key", GRID)
    def test_normal_form_gets_the_kept_leading_monomials(self, monkeypatch, key):
        # for the S-pair reductions and for the inter-reduction alike
        real = groebner.normal_form
        calls = []

        def checked(f, basis, lms=None):
            assert lms == [leading_monomial(g) for g in basis]
            calls.append(len(basis))
            return real(f, basis, lms)

        monkeypatch.setattr(groebner, "normal_form", checked)
        for gens in (groebner_generators(*key), _invariants(*key)):
            buchberger(gens)
        assert calls or key[2] == 1  # one generator: nothing to reduce


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        gb = buchberger(groebner_generators(1, 1, 2))
        assert normal_form(SuperPoly.x(2, 1, 2), gb).is_zero()

    def test_standard_monomial_is_fixed(self):
        gb = buchberger(groebner_generators(1, 1, 2))
        f = SuperPoly.x(2, 2)
        assert normal_form(f, gb) == f

    def test_linear_and_idempotent(self):
        gb = buchberger(groebner_generators(2, 2, 2))
        f = SuperPoly(2, {((3, 1), ()): Fraction(2), ((1, 0), ()): Fraction(1)})
        g = SuperPoly(2, {((0, 4), ()): Fraction(1), ((2, 2), ()): Fraction(-5)})
        nf = lambda h: normal_form(h, gb)
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(nf(f)) == nf(f)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            st.integers(min_value=-5, max_value=5).filter(bool),
            min_size=1,
            max_size=4,
        ),
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            st.integers(min_value=-5, max_value=5).filter(bool),
            min_size=1,
            max_size=3,
        ),
    )
    def test_product_consistency(self, fd, gd):
        gb = buchberger(groebner_generators(2, 1, 2))
        f = SuperPoly(2, {(k, ()): Fraction(v) for k, v in fd.items()})
        g = SuperPoly(2, {(k, ()): Fraction(v) for k, v in gd.items()})
        assert normal_form(f * g, gb) == normal_form(normal_form(f, gb) * g, gb)


class TestStandardMonomials:
    def test_s2(self):
        gb = buchberger(groebner_generators(1, 1, 2))
        assert standard_monomials(gb) == [(0, 0), (0, 1)]

    def test_d2(self):
        gb = buchberger(groebner_generators(2, 2, 2))
        assert standard_monomials(gb) == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_infinite_quotient_detected(self):
        gb = buchberger([SuperPoly.x(2, 1)])
        with pytest.raises(QuotientNotFiniteError):
            standard_monomials(gb)
        assert standard_monomials(gb, degree_bound=2) == [
            (0, 0),
            (0, 1),
            (0, 2),
        ]

    @pytest.mark.parametrize("key", GRID)
    def test_standard_monomials_are_artin_basis(self, key):
        m, p, n = key
        gb = buchberger(groebner_generators(m, p, n))
        std = standard_monomials(gb)
        assert std == artin.enumerate_artin(m, p, n)
        assert len(std) == artin.artin_count(m, p, n)


class TestApolarRows:
    """The forms that ``groebner.apolar_rows`` reads off the closed-form
    bases, against the rational division of ``normal_form``."""

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 3, 2)])
    def test_rows_are_orthogonal_to_the_ideal(self, key):
        m, p, n = key
        gens = groebner_generators(m, p, n)
        std = standard_monomials(buchberger(gens))
        top = max(map(sum, std))
        for d in range(top + 2):
            mons = x_monomials(n, d)
            rows = groebner.apolar_rows(gens, n, d)
            assert len(rows) == sum(1 for s in std if sum(s) == d), d
            forms = [SuperPoly(n, {(mons[c], ()): v for c, v in row}) for row in rows]
            for a in mons:
                x_a = SuperPoly.monomial(n, a)
                in_ideal = x_a - normal_form(x_a, gens)
                assert all(pairing(in_ideal, h) == 0 for h in forms), (d, a)

    @pytest.mark.parametrize("key, variables", [(key, key[2]) for key in GRID] + [
        ((1, 1, n), n - 1) for n in range(2, 7)])
    def test_rows_equal_the_tuple_reference(self, key, variables):
        # every GRID group in x, and S_2..S_6 in their reduced presentation
        basis = groebner.closed_form_basis(*key, variables)
        for d in range(GroupSpec.create(*key).degree_of_vandermondian + 2):
            assert groebner.apolar_rows(basis, variables, d) == \
                reference_apolar_rows(basis, variables, d), d

    def test_a_degree_past_the_field_raises_before_building(self):
        basis = groebner.closed_form_basis(1, 1, 2, 2)
        before = x_codes.cache_info().currsize
        with pytest.raises(ValueError):
            groebner.apolar_rows(basis, 2, 1 << CODE_BITS - 1)
        assert x_codes.cache_info().currsize == before


def _brute_force_standard(gb, degree_bound=None):
    """Every exponent vector in a box no standard monomial leaves, kept when
    no leading monomial divides it."""
    lms = gb.leading_monomials()
    if degree_bound is None:
        side = max(max(lm) for lm in lms)
    else:
        side = degree_bound + 1
    return sorted(
        e
        for e in product(range(side), repeat=gb.n)
        if (degree_bound is None or sum(e) <= degree_bound)
        and not any(all(a <= b for a, b in zip(lm, e)) for lm in lms)
    )


class TestStandardMonomialsBruteForce:
    @pytest.mark.parametrize("key", GRID)
    @pytest.mark.parametrize("degree_bound", [None, 0, 3, 7])
    def test_grid(self, key, degree_bound):
        gb = buchberger(groebner_generators(*key))
        assert standard_monomials(gb, degree_bound) == _brute_force_standard(
            gb, degree_bound
        )

    def test_mixed_leading_monomials(self):
        gb = buchberger(MIXED_LEADING_MONOMIALS)
        assert not all(sum(1 for e in lm if e) == 1 for lm in gb.leading_monomials())
        for bound in (None, 2, 5):
            assert standard_monomials(gb, bound) == _brute_force_standard(gb, bound)

    def test_missing_pure_power_still_raises(self):
        x = SuperPoly.x
        gb = buchberger([x(2, 1, 2), x(2, 1) * x(2, 2)])
        with pytest.raises(QuotientNotFiniteError):
            standard_monomials(gb)
        for bound in (0, 1, 4):
            assert standard_monomials(gb, bound) == _brute_force_standard(gb, bound)

    def test_unit_ideal(self):
        gb = buchberger([SuperPoly.one(2)])
        with pytest.raises(QuotientNotFiniteError):
            standard_monomials(gb)
        assert standard_monomials(gb, 3) == []


@st.composite
def monomial_ideals(draw):
    """A basis of monomials in 1-4 variables, not necessarily minimal: pure
    powers, mixed monomials and the unit (0, ..., 0), some of them outside
    the box the pure powers bound, and some variables with no pure power."""
    n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    pure_powers = st.builds(
        lambda i, d: tuple(d if j == i else 0 for j in range(n)),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=5),
    )
    lms = draw(st.lists(st.one_of(exps, pure_powers), min_size=1, max_size=7))
    return GroebnerBasis(n, tuple(SuperPoly.monomial(n, e) for e in lms))


class TestStandardMonomialsRandomIdeals:
    @settings(max_examples=300, deadline=None)
    @given(monomial_ideals())
    def test_against_brute_force(self, gb):
        lms = gb.leading_monomials()
        finite = all(any(lm[i] and sum(lm) == lm[i] for lm in lms) for i in range(gb.n))
        if finite:
            assert standard_monomials(gb) == _brute_force_standard(gb)
        else:
            with pytest.raises(QuotientNotFiniteError):
                standard_monomials(gb)
        for bound in (0, 1, 3, 6):
            assert standard_monomials(gb, bound) == _brute_force_standard(gb, bound)


class TestIdealContainments:
    @pytest.mark.parametrize("key", GRID)
    def test_power_sums_and_product_reduce_to_zero(self, key):
        m, p, n = key
        gb = buchberger(groebner_generators(m, p, n))
        for i in range(1, n):
            ps = SuperPoly.zero(n)
            for j in range(1, n + 1):
                ps = ps + SuperPoly.x(n, j, m * i)
            assert normal_form(ps, gb).is_zero()
        prod = SuperPoly.monomial(n, (m // p,) * n)
        assert normal_form(prod, gb).is_zero()

    def test_prefix_power_sum_also_member(self):
        # the full power sum of top degree for p = 1
        for m, n in [(1, 3), (2, 2)]:
            gb = buchberger(groebner_generators(m, 1, n))
            ps = SuperPoly.zero(n)
            for j in range(1, n + 1):
                ps = ps + SuperPoly.x(n, j, m * n)
            assert normal_form(ps, gb).is_zero()
