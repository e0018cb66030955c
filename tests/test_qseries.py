"""q-integer, q-factorial, and q-Stirling arithmetic."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from supercoinv.qseries import (
    QPoly,
    QZPoly,
    alternating_sum,
    q_factorial,
    q_integer,
    q_stirling_a,
    q_stirling_b,
    zabrocki_hilbert,
)


def set_partition_count(n, k):
    """Stirling numbers of the second kind by direct set-partition counting."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def place(i, blocks):
        nonlocal count
        if i == n:
            if len(blocks) == k:
                count += 1
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            place(i + 1, blocks)
            blocks.pop()

    place(0, [])
    return count


def test_q_integer_examples():
    assert q_integer(0) == QPoly.zero()
    assert q_integer(1) == QPoly.one()
    assert q_integer(3) == QPoly({0: 1, 1: 1, 2: 1})


def test_q_integer_rejects_negative():
    with pytest.raises(ValueError):
        q_integer(-1)


def test_stirling_a_small_values():
    assert q_stirling_a(2, 1) == QPoly.one()
    assert q_stirling_a(3, 2) == QPoly({0: 2, 1: 1})
    for n in range(1, 9):
        assert q_stirling_a(n, n) == QPoly.one()
        assert q_stirling_a(n, 0) == QPoly.zero()
        assert q_stirling_a(n, n + 1) == QPoly.zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_stirling_a_at_q1_counts_set_partitions(n):
    for k in range(0, n + 2):
        assert q_stirling_a(n, k)(1) == set_partition_count(n, k)


def test_stirling_b_small_values():
    assert q_stirling_b(0, 0) == QPoly.one()
    assert q_stirling_b(1, 1) == QPoly.one()
    assert q_stirling_b(2, 1) == QPoly({0: 2, 1: 1, 2: 1})


def test_stirling_b_at_q1_recursion_oracle():
    # q=1 collapse satisfies T(n,k) = T(n-1,k-1) + (2k+1) T(n-1,k).
    vals = {(0, 0): 1}
    for n in range(1, 9):
        for k in range(0, n + 1):
            vals[(n, k)] = vals.get((n - 1, k - 1), 0) + (2 * k + 1) * vals.get(
                (n - 1, k), 0
            )
    for n, k in product(range(0, 9), range(0, 9)):
        assert q_stirling_b(n, k)(1) == vals.get((n, k), 0)


def test_zabrocki_examples():
    # [2]_q! * Stir_q(3, 2) = (1+q)(2+q)
    assert zabrocki_hilbert(3, 1, "A") == QPoly({0: 2, 1: 3, 2: 1})
    assert zabrocki_hilbert(2, 0, "A") == QPoly({0: 1, 1: 1})
    # k = 0 at q = 1 is n!
    fact = 1
    for n in range(1, 7):
        fact *= n
        assert zabrocki_hilbert(n, 0, "A")(1) == fact
    # family B, n = 2, k = 0 is the classical [2]_q [4]_q
    assert zabrocki_hilbert(2, 0, "B") == q_integer(2) * q_integer(4)
    # out of range
    assert zabrocki_hilbert(3, 3, "A") == QPoly.zero()
    assert zabrocki_hilbert(3, 4, "B") == QPoly.zero()


def test_zabrocki_rejects_bad_family():
    with pytest.raises(ValueError):
        zabrocki_hilbert(2, 0, "C")


@pytest.mark.parametrize("family", ["A", "B"])
@pytest.mark.parametrize("n", range(1, 9))
def test_alternating_sum_is_one_at_j1(family, n):
    assert alternating_sum(n, family, 1) == QPoly.one()


def test_alternating_sum_j2_frozen_value():
    # Expansion of sum_k (-q^2)^k [3-k]_q! Stir_q(3, 3-k):
    #   (1+q)(1+q+q^2) - q^2 (1+q)(2+q) + q^4 = 1 + 2q - 2q^3.
    assert alternating_sum(3, "A", 2) == QPoly({0: 1, 1: 2, 3: -2})


def test_alternating_sum_j2_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q")

    def qint(k):
        return sum(q**i for i in range(k))

    def stir(n, k):
        if n == 1:
            return sympy.Integer(1 if k == 1 else 0)
        if k <= 0 or k > n:
            return sympy.Integer(0)
        return stir(n - 1, k - 1) + qint(k) * stir(n - 1, k)

    def qfact(k):
        out = sympy.Integer(1)
        for i in range(1, k + 1):
            out *= qint(i)
        return out

    for n in range(2, 6):
        for j in range(1, 4):
            expected = sympy.expand(
                sum(
                    (-(q**j)) ** k * qfact(n - k) * stir(n, n - k)
                    for k in range(n)
                )
            )
            got = alternating_sum(n, "A", j)
            assert sympy.expand(
                sum(c * q**e for e, c in got.coeffs.items()) - expected
            ) == 0


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(QPoly)


@given(small_polys, small_polys, st.integers(min_value=-3, max_value=3))
def test_qpoly_ring_laws(a, b, v):
    assert (a + b)(v) == a(v) + b(v)
    assert (a * b)(v) == a(v) * b(v)
    assert (a - b) + b == a


@given(small_polys, st.integers(min_value=1, max_value=3))
def test_qpoly_stretch_is_substitution(a, r):
    assert a.stretch(r)(2) == a(2**r)


def test_qzpoly_specializations():
    # q^2 z + 3 q - z^2
    f = QZPoly({(2, 1): 1, (1, 0): 3, (0, 2): -1})
    assert f.z_substitute_signed_power(1) == QPoly({3: -1, 1: 3, 2: -1})
    assert f.specialize("q", 1) == {1: 1, 0: 3, 2: -1}
    assert f.specialize("z", 2) == {2: 2, 1: 3, 0: -4}
    assert f(2, 3) == 4 * 3 + 6 - 9
