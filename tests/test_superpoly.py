"""Koszul-sign arithmetic, the operator calculus, and its adjoint structure."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from supercoinv import superpoly
from supercoinv.superpoly import (
    Operator,
    SuperPoly,
    falling_factorial,
    merge_thetas,
    pairing,
    partial_operator,
    theta_interior,
)


def xs(n, i, p=1):
    return SuperPoly.x(n, i, p)


def th(n, i):
    return SuperPoly.theta(n, i)


class TestMultiplication:
    def test_theta_swap_gives_sign(self):
        n = 2
        assert th(n, 2) * th(n, 1) == -(th(n, 1) * th(n, 2))

    def test_theta_squares_to_zero(self):
        assert (th(2, 1) * th(2, 1)).is_zero()

    def test_ordered_product(self):
        n = 2
        f = xs(n, 1) * th(n, 1) * xs(n, 2) * th(n, 2)
        assert f == SuperPoly.monomial(n, (1, 1), (1, 2))

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(ValueError):
            xs(2, 1) * xs(3, 1)


class TestThetaDerivative:
    def test_first_index(self):
        n = 2
        assert Operator.theta_partial(n, 1).apply(th(n, 1) * th(n, 2)) == th(n, 2)

    def test_second_index_sign(self):
        n = 2
        assert Operator.theta_partial(n, 2).apply(th(n, 1) * th(n, 2)) == -th(n, 1)

    def test_absent_index(self):
        n = 3
        assert Operator.theta_partial(n, 3).apply(th(n, 1) * th(n, 2)).is_zero()


class TestPartialOperator:
    def test_pure_x(self):
        n = 1
        op = partial_operator(xs(n, 1, 2))
        assert op.apply(SuperPoly.x(n, 1, 4)) == 12 * SuperPoly.x(n, 1, 2)

    def test_theta_reversal_gives_positive_square(self):
        n = 2
        om = th(n, 1) * th(n, 2)
        assert partial_operator(om).apply(om) == SuperPoly.one(n)

    def test_mixed_monomial_square_is_positive(self):
        n = 2
        om = xs(n, 1) * th(n, 1)
        assert partial_operator(om).apply(om) == SuperPoly.one(n)


class TestPairing:
    def test_x_squared(self):
        assert pairing(xs(1, 1, 2), xs(1, 1, 2)) == 2

    def test_distinct_monomials_orthogonal(self):
        n = 2
        assert pairing(xs(n, 1) * th(n, 1), xs(n, 2) * th(n, 2)) == 0

    def test_theta_pair(self):
        n = 2
        assert pairing(th(n, 1) * th(n, 2), th(n, 1) * th(n, 2)) == 1

    def test_agrees_with_operator_route(self):
        n = 2
        f = xs(n, 1, 2) * th(n, 2) - 3 * xs(n, 2) * th(n, 1)
        g = xs(n, 1, 2) * th(n, 2) + Fraction(1, 2) * xs(n, 2) * th(n, 1)
        direct = pairing(f, g)
        via_op = partial_operator(g).apply(f).constant_term()
        assert direct == via_op


class TestApply:
    def test_exterior_derivative_basic(self):
        d = Operator.exterior_derivative(1)
        assert d.apply(xs(1, 1, 2)) == 2 * xs(1, 1) * th(1, 1)

    def test_codifferential_on_theta(self):
        ddag = Operator.exterior_derivative(2).adjoint()
        assert ddag.apply(th(2, 1)) == xs(2, 1)

    def test_d_squared_zero(self):
        n = 3
        d = Operator.exterior_derivative(n)
        for mon in [
            SuperPoly.monomial(n, (2, 1, 0), (2,)),
            SuperPoly.monomial(n, (1, 1, 1), ()),
            SuperPoly.monomial(n, (0, 3, 2), (1, 3)),
        ]:
            assert d.apply(d.apply(mon)).is_zero()
        assert (d @ d).is_zero()

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("power", [0, 1, 3])
    def test_exterior_derivatives_are_theta_weighted_sums(self, n, power):
        # sum_j (d/dx_j)^power theta_j term by term, in the order j = 1..n
        terms = {
            ((0,) * n, (j,), tuple(power * (l == j) for l in range(1, n + 1)), ()): 1
            for j in range(1, n + 1)
        }
        d = Operator.power_exterior_derivative(n, power)
        assert list(d.terms.items()) == list(terms.items())
        if power == 1:
            assert list(Operator.exterior_derivative(n).terms.items()) == list(
                terms.items()
            )


class TestAdjoint:
    def test_x_partial_adjoint_is_multiplication(self):
        n = 2
        op = Operator.x_partial(n, 1)
        adj = op.adjoint()
        f = xs(n, 2, 3)
        assert adj.apply(f) == xs(n, 1) * f

    def test_exterior_adjoint_structure(self):
        n = 3
        d = Operator.exterior_derivative(n)
        expected = Operator.zero(n)
        for j in range(1, n + 1):
            exp = [0] * n
            exp[j - 1] = 1
            expected = expected + Operator.term(n, mulx=exp, dertheta=(j,))
        assert d.adjoint() == expected

    def test_involution(self):
        n = 2
        op = Operator.term(n, 3, mulx=(1, 0), multheta=(2,), derx=(0, 2), dertheta=(1,))
        assert op.adjoint().adjoint() == op


def monomials_up_to(n, xdeg, include_theta=True):
    """All canonical monomials with x-degree <= xdeg."""
    from supercoinv.superpoly import x_monomials

    out = []
    theta_sets = (
        [t for k in range(n + 1) for t in combinations(range(1, n + 1), k)]
        if include_theta
        else [()]
    )
    for d in range(xdeg + 1):
        for alpha in x_monomials(n, d):
            for thetas in theta_sets:
                out.append(SuperPoly.monomial(n, alpha, thetas))
    return out


def probe_operators(n):
    ops = [Operator.x_partial(n, i) for i in range(1, n + 1)]
    ops += [Operator.theta_partial(n, i) for i in range(1, n + 1)]
    ops.append(Operator.exterior_derivative(n))
    ops.append(Operator.power_exterior_derivative(n, 2))
    return ops


class TestAdjointness:
    def test_pairing_adjointness_on_monomials(self):
        n = 2
        monos = monomials_up_to(n, 3)
        for op in probe_operators(n):
            adj = op.adjoint()
            for f in monos:
                for g in monos:
                    assert pairing(op.apply(f), g) == pairing(f, adj.apply(g))


class TestOperatorRelations:
    def test_theta_partials_anticommute(self):
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = Operator.theta_partial(n, i) @ Operator.theta_partial(n, j)
                b = Operator.theta_partial(n, j) @ Operator.theta_partial(n, i)
                if i == j:
                    assert a.is_zero()
                else:
                    assert a == -1 * b

    def test_x_and_theta_partials_commute(self):
        n = 2
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = Operator.x_partial(n, i) @ Operator.theta_partial(n, j)
                b = Operator.theta_partial(n, j) @ Operator.x_partial(n, i)
                assert a == b

    def test_canonical_commutator(self):
        # d/dx x - x d/dx = 1
        n = 1
        a = Operator.x_partial(n, 1) @ Operator.x_multiplication(n, 1)
        b = Operator.x_multiplication(n, 1) @ Operator.x_partial(n, 1)
        assert a - b == Operator.identity(n)

    def test_theta_anticommutator(self):
        # d/dtheta_i theta_j + theta_j d/dtheta_i = delta_ij
        n = 2
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a = Operator.theta_partial(n, i) @ Operator.theta_multiplication(n, j)
                b = Operator.theta_multiplication(n, j) @ Operator.theta_partial(n, i)
                s = a + b
                if i == j:
                    assert s == Operator.identity(n)
                else:
                    assert s.is_zero()


# Hypothesis strategies for random small operators and polynomials (n = 2).
N = 2


def _exp_vecs():
    return st.tuples(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
    )


def _theta_tuples():
    return st.sampled_from([(), (1,), (2,), (1, 2)])


op_terms = st.tuples(
    st.integers(min_value=-3, max_value=3).filter(bool),
    _exp_vecs(),
    _theta_tuples(),
    _exp_vecs(),
    _theta_tuples(),
)


@st.composite
def operators(draw):
    terms = draw(st.lists(op_terms, min_size=1, max_size=3))
    out = Operator.zero(N)
    for c, mulx, multheta, derx, dertheta in terms:
        out = out + Operator.term(
            N, c, mulx=mulx, multheta=multheta, derx=derx, dertheta=dertheta
        )
    return out


@st.composite
def polys(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-4, max_value=4).filter(bool),
                _exp_vecs(),
                _theta_tuples(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    out = SuperPoly.zero(N)
    for c, alpha, thetas in terms:
        out = out + SuperPoly.monomial(N, alpha, thetas, c)
    return out


@settings(max_examples=150, deadline=None)
@given(operators(), operators(), polys())
def test_composition_agrees_with_sequential_application(a, b, f):
    assert (a @ b).apply(f) == a.apply(b.apply(f))


@settings(max_examples=150, deadline=None)
@given(polys())
def test_pairing_positive_definite(f):
    v = pairing(f, f)
    if f.is_zero():
        assert v == 0
    else:
        assert v > 0


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_multiplication_anticommutativity(a, b):
    # theta-homogeneous pieces of degrees j, k satisfy ab = (-1)^{jk} ba
    for ja in range(N + 1):
        ah = SuperPoly(N, {key: c for key, c in a.terms.items() if len(key[1]) == ja})
        if ah.is_zero():
            continue
        for jb in range(N + 1):
            bh = SuperPoly(N, {key: c for key, c in b.terms.items() if len(key[1]) == jb})
            if bh.is_zero():
                continue
            assert ah * bh == (-1) ** (ja * jb) * (bh * ah)


@settings(max_examples=120, deadline=None)
@given(polys(), polys())
def test_leibniz_rule_for_exterior_derivative(f, g):
    d = Operator.exterior_derivative(N)
    for k in range(N + 1):
        fk = SuperPoly(N, {key: c for key, c in f.terms.items() if len(key[1]) == k})
        if fk.is_zero():
            continue
        lhs = d.apply(fk * g)
        rhs = d.apply(fk) * g + (-1) ** k * (fk * d.apply(g))
        assert lhs == rhs


def _fraction_apply(op: Operator, f: SuperPoly) -> SuperPoly:
    """Reference evaluation: one term pair at a time in Fraction arithmetic."""
    out = {}
    for (mulx, multheta, derx, dertheta), oc in op.terms.items():
        for (xexp, thetas), c in f.terms.items():
            coeff = oc * c
            newx = list(xexp)
            dead = False
            for j, b in enumerate(derx):
                if b:
                    a = newx[j]
                    if a < b:
                        dead = True
                        break
                    coeff *= falling_factorial(a, b)
                    newx[j] = a - b
            if dead or not coeff:
                continue
            word = thetas
            sign = 1
            for t in dertheta:
                hit = theta_interior(t, word)
                if hit is None:
                    dead = True
                    break
                s, word = hit
                sign *= s
            if dead:
                continue
            merged = merge_thetas(multheta, word)
            if merged is None:
                continue
            s2, word = merged
            for j, b in enumerate(mulx):
                if b:
                    newx[j] += b
            key = (tuple(newx), word)
            val = out.get(key, Fraction(0)) + coeff * sign * s2
            if val:
                out[key] = val
            else:
                del out[key]
    res = SuperPoly.__new__(SuperPoly)
    res.n, res.terms = op.n, out
    return res


rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def rational_operators(draw):
    terms = draw(
        st.lists(
            st.tuples(rationals, _exp_vecs(), _theta_tuples(), _exp_vecs(), _theta_tuples()),
            max_size=4,
        )
    )
    out = Operator.zero(N)
    for c, mulx, multheta, derx, dertheta in terms:
        out = out + Operator.term(
            N, c, mulx=mulx, multheta=multheta, derx=derx, dertheta=dertheta
        )
    return out


@st.composite
def rational_polys(draw):
    terms = draw(st.lists(st.tuples(rationals, _exp_vecs(), _theta_tuples()), max_size=5))
    out = SuperPoly.zero(N)
    for c, alpha, thetas in terms:
        out = out + SuperPoly.monomial(N, alpha, thetas, c)
    return out


@settings(max_examples=300, deadline=None)
@given(rational_operators(), rational_polys())
def test_integer_apply_equals_the_fraction_reference(op, f):
    got = op.apply(f)
    want = _fraction_apply(op, f)
    # Same keys in the same order, and the same Fraction values.
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


def test_integer_apply_acts_once_per_theta_word(monkeypatch):
    # 18 terms of f share 3 theta words: the 3 operator terms act 9 times
    words = [(1,), (2,), (1, 3)]
    f = SuperPoly(3, {
        ((a, b, 2 - a - b), w): Fraction(a + 2 * b + j + 1, 1 + b)
        for j, w in enumerate(words) for a in range(3) for b in range(3 - a)
    })
    op = (
        Operator.term(3, Fraction(1, 2), derx=(1, 0, 0), multheta=(2,))
        + Operator.term(3, 3, dertheta=(1,), mulx=(0, 1, 0))
        + Operator.term(3, Fraction(-2, 3), multheta=(3,))
    )
    calls = []
    real = superpoly.theta_action
    monkeypatch.setattr(
        superpoly, "theta_action", lambda *a: calls.append(a) or real(*a)
    )
    got = op.apply(f)
    assert len(f.terms) == 18 and len(calls) == 9
    assert list(got.terms.items()) == list(_fraction_apply(op, f).terms.items())


def test_integer_apply_divides_each_term_once():
    op = Operator.term(2, Fraction(1, 6), derx=(1, 0)) + Operator.term(
        2, Fraction(3, 4), multheta=(2,)
    )
    f = SuperPoly(2, {((2, 0), ()): Fraction(2, 3), ((0, 1), (1,)): Fraction(-5, 2)})
    got = op.apply(f)
    assert got.terms == _fraction_apply(op, f).terms
    assert got.terms[((1, 0), ())] == Fraction(2, 9)
    assert got.terms[((0, 1), (1, 2))] == Fraction(15, 8)


class TestSerialization:
    def test_spec_format(self):
        f = SuperPoly(
            4,
            {
                ((2, 0, 1, 0), (2, 4)): Fraction(3),
                ((0, 0, 0, 0), (1,)): Fraction(-1, 2),
            },
        )
        assert f.to_string() == "3*x1^2*x3*t2*t4 - 1/2*t1"
        assert SuperPoly.parse(f.to_string(), 4) == f

    def test_zero(self):
        assert SuperPoly.zero(2).to_string() == "0"
        assert SuperPoly.parse("0", 2).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(polys())
    def test_round_trip(self, f):
        assert SuperPoly.parse(f.to_string(), N) == f

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            SuperPoly.parse("x5", 2)


class TestMonomialCodes:
    """The packed monomial codes of ``x_codes`` and their guard-bit
    divisibility test, against the exponent tuples."""

    @staticmethod
    def decode(n, code):
        mask = (1 << superpoly.CODE_BITS) - 1
        return tuple(code >> superpoly.CODE_BITS * j & mask for j in range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_codes_round_trip_to_x_monomials(self, n):
        for d in range(-1, 9):
            codes = superpoly.x_codes(n, d)
            mons = superpoly.x_monomials(n, d)
            assert list(codes.values()) == list(range(len(mons)))
            assert [self.decode(n, c) for c in codes] == list(mons)
            assert list(codes) == [superpoly.monomial_code(a) for a in mons]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factorials_are_those_of_the_exponents(self, n):
        for d in range(-1, 9):
            assert superpoly.x_factorials(n, d) == tuple(
                prod(map(factorial, a)) for a in superpoly.x_monomials(n, d))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_guard_bit_test_is_divisibility(self, n):
        from supercoinv.groebner import _divides

        mons = [a for d in range(7) for a in superpoly.x_monomials(n, d)]
        guard = superpoly.code_guard(n)
        codes = [superpoly.monomial_code(a) for a in mons]
        for b, cb in zip(mons, codes):
            for a, ca in zip(mons, codes):
                assert (((ca | guard) - cb) & guard == guard) == _divides(b, a), (b, a)

    def test_guard_bit_test_at_the_field_limit(self):
        top = (1 << superpoly.CODE_BITS - 1) - 1
        guard, code = superpoly.code_guard(3), superpoly.monomial_code
        for b, a in [((top, 0, top), (top, 1, top)), ((top, 1, 0), (top, 0, top)),
                     ((0, 0, 1), (top, top, 0)), ((1, 0, 0), (0, top, top))]:
            divides = all(x <= y for x, y in zip(b, a))
            assert (((code(a) | guard) - code(b)) & guard == guard) == divides

    def test_an_exponent_past_the_field_raises_before_building(self):
        width = 1 << superpoly.CODE_BITS - 1
        before = superpoly.x_codes.cache_info().currsize
        with pytest.raises(ValueError):
            superpoly.x_codes(2, width)
        assert superpoly.x_codes.cache_info().currsize == before
        for a in [(width,), (0, width), (-1, 2)]:
            with pytest.raises(ValueError):
                superpoly.monomial_code(a)
        assert superpoly.monomial_code((width - 1, 1)) == width - 1 + (1 << superpoly.CODE_BITS)
