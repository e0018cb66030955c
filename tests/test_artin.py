"""p-contraction, hook criterion, and the monomial bases A(m, p, n)."""

import pytest

from supercoinv import artin
from supercoinv.qseries import QPoly, q_factorial, q_integer

from helpers import Diagram

GRID = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
]


class TestPContraction:
    def test_worked_example(self):
        # contracting (1,4,3,15,6) for m=4 by p=2: pivot row 3, partial cell
        # in row 3 dropped, rows 4 and 5 keep their overhang past column 4
        assert artin.p_contract((1, 4, 3, 15, 6), 4, 2) == (1, 4, 1, 13, 4)

    def test_p1_is_identity(self):
        for rows in artin.enumerate_type_m1(3, 3):
            assert artin.p_contract(rows, 3, 1) == rows

    def test_small_hand_case(self):
        assert artin.p_contract((1, 3), 2, 2) == (0, 2)

    def test_rejects_invalid_diagram(self):
        with pytest.raises(ValueError):
            artin.p_contract((5, 0), 2, 2)

    @pytest.mark.parametrize("key", [k for k in GRID if k[0] <= 4 and k[2] <= 4])
    def test_fibers_have_cardinality_p(self, key):
        m, p, n = key
        fibers: dict[tuple, int] = {}
        for rows in artin.enumerate_type_m1(m, n):
            img = artin.p_contract(rows, m, p)
            fibers[img] = fibers.get(img, 0) + 1
        assert set(fibers.values()) == {p}
        assert sorted(fibers) == artin.enumerate_artin(m, p, n)


class TestEnumeration:
    def test_dihedral_family(self):
        for m in (2, 3, 4):
            expected = sorted(
                [(a, 0) for a in range(m)] + [(0, b) for b in range(1, m + 1)]
            )
            assert artin.enumerate_artin(m, m, 2) == expected

    def test_b2_is_a_box(self):
        assert artin.enumerate_artin(2, 1, 2) == sorted(
            (a, b) for a in range(2) for b in range(4)
        )

    def test_cardinality(self):
        assert len(artin.enumerate_artin(4, 2, 3)) == 192
        for key in GRID:
            m, p, n = key
            assert len(artin.enumerate_artin(m, p, n)) == artin.artin_count(m, p, n)

    @pytest.mark.parametrize("key", GRID)
    def test_recursion_agrees(self, key):
        m, p, n = key
        assert artin.enumerate_artin_recursive(m, p, n) == artin.enumerate_artin(
            m, p, n
        )


class TestHookCriterion:
    def test_full_rectangle_contains_first_hook(self):
        m, p, n = 4, 2, 3
        rect = tuple(m // p for _ in range(n))
        assert not artin.is_hook_free(rect, m, p)

    def test_zero_diagram(self):
        assert artin.is_hook_free((0, 0, 0), 4, 2)

    @pytest.mark.parametrize("key", GRID)
    def test_equivalence_with_pivot_condition(self, key):
        m, p, n = key
        from_hooks = sorted(
            rows
            for rows in artin.enumerate_type_m1(m, n)
            if artin.is_hook_free(rows, m, p)
        )
        assert from_hooks == artin.enumerate_artin(m, p, n)


class TestHilbert:
    def test_dihedral(self):
        for m in (2, 3, 5):
            assert artin.artin_hilbert(m, m, 2) == q_integer(m) * q_integer(2)

    def test_symmetric_group_is_q_factorial(self):
        for n in range(1, 6):
            assert artin.artin_hilbert(1, 1, n) == q_factorial(n)

    def test_b2_expansion(self):
        assert artin.artin_hilbert(2, 1, 2) == QPoly({0: 1, 1: 2, 2: 2, 3: 2, 4: 1})

    @pytest.mark.parametrize("key", GRID)
    def test_matches_generating_polynomial(self, key):
        m, p, n = key
        gen = artin.generating_polynomial(artin.enumerate_artin(m, p, n))
        assert artin.artin_hilbert(m, p, n) == gen


class TestDiagram:
    def test_validity(self):
        assert Diagram((1, 3), 2, 1).is_valid()
        assert not Diagram((3, 0), 2, 1).is_valid()
        assert Diagram((0, 2), 2, 2).is_valid()
        assert not Diagram((1, 1), 2, 2).is_valid()

    def test_total(self):
        assert Diagram((1, 4, 1, 13, 4), 4, 2).total == 23
