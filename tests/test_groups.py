"""Explicit G(m, p, n) data: invariants, Vandermondians, operators, matrices."""

from itertools import combinations
from math import comb

import pytest

from supercoinv import groups
from supercoinv.groups import GroupSpec, build_group
from supercoinv.superpoly import SuperPoly
from helpers import (
    UnsupportedGroupError,
    act_signed_permutation,
    element_determinant,
    group_elements,
    group_matrices,
    validate_covandermondian,
    validate_jacobian,
)

GRID = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(1, 5)
]


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupSpec.create(4, 3, 2)
        with pytest.raises(ValueError):
            GroupSpec.create(0, 1, 2)

    def test_cyclic_normalization(self):
        spec = GroupSpec.create(6, 2, 1)
        assert (spec.m, spec.p, spec.n) == (3, 1, 1)

    def test_orders(self):
        assert GroupSpec.create(1, 1, 4).order == 24
        assert GroupSpec.create(2, 1, 3).order == 48
        assert GroupSpec.create(4, 2, 3).order == 192

    def test_rank(self):
        assert GroupSpec.create(1, 1, 4).rank == 3
        assert GroupSpec.create(2, 2, 4).rank == 4

    def test_labels(self):
        assert GroupSpec.create(1, 1, 3).label() == "S_3"
        assert GroupSpec.create(2, 1, 3).label() == "B_3"
        assert GroupSpec.create(2, 2, 4).label() == "D_4"
        assert GroupSpec.create(3, 3, 2).label() == "G(3,3,2)"


class TestBuildGroup:
    def test_s3_vandermondian(self):
        gd = build_group(1, 1, 3)
        n = 3
        expected = (
            (SuperPoly.x(n, 2) - SuperPoly.x(n, 1))
            * (SuperPoly.x(n, 3) - SuperPoly.x(n, 1))
            * (SuperPoly.x(n, 3) - SuperPoly.x(n, 2))
        )
        assert gd.vandermondian == expected
        assert gd.spec.degree_of_vandermondian == 3

    def test_b2_vandermondian(self):
        gd = build_group(2, 1, 2)
        n = 2
        expected = (
            SuperPoly.x(n, 2, 2) - SuperPoly.x(n, 1, 2)
        ) * SuperPoly.x(n, 1) * SuperPoly.x(n, 2)
        assert gd.vandermondian == expected
        assert gd.spec.degree_of_vandermondian == 4

    def test_d2_vandermondian_and_coexponents(self):
        gd = build_group(2, 2, 2)
        assert gd.vandermondian == SuperPoly.x(2, 2, 2) - SuperPoly.x(2, 1, 2)
        assert gd.spec.coexponents == (1, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_permutation_expansion_is_the_product(self, n, m):
        product = SuperPoly.one(n)
        for i, j in combinations(range(1, n + 1), 2):
            product = product * (SuperPoly.x(n, j, m) - SuperPoly.x(n, i, m))
        delta = groups._vandermonde_in_powers(n, m)
        assert delta.terms == product.terms
        assert delta.to_string() == product.to_string()

    @pytest.mark.parametrize("key", GRID)
    def test_delta_pair_is_the_determinant_times_a_monomial(self, key):
        spec = GroupSpec.create(*key)
        m, p, n = spec.m, spec.p, spec.n
        gd = build_group(*key)
        det = groups._vandermonde_in_powers(n, m)
        co_power = 0 if m == 1 or p == m else 1
        for f, power in ((gd.vandermondian, m // p - 1), (gd.covandermondian, co_power)):
            product = det * SuperPoly.monomial(n, (power,) * n)
            assert list(f.terms.items()) == list(product.terms.items())

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            build_group(4, 3, 2)

    def test_first_operator_is_exterior_derivative(self):
        for key in [(1, 1, 3), (2, 1, 2), (3, 3, 3)]:
            gd = build_group(*key)
            assert gd.ext_derivatives[0] == gd.exterior_d


class TestValidators:
    def test_jacobian_s2_by_hand(self):
        # det [[1, 1], [2x1, 2x2]] = 2(x2 - x1)
        assert validate_jacobian(build_group(1, 1, 2))

    def test_jacobian_b2(self):
        assert validate_jacobian(build_group(2, 1, 2))

    def test_jacobian_negative_control(self):
        gd = build_group(2, 1, 2)
        corrupted = type(gd)(
            gd.spec,
            [gd.basic_invariants[0], SuperPoly.x(2, 1, 4)],
            gd.vandermondian,
            gd.covandermondian,
            gd.ext_derivatives,
        )
        assert not validate_jacobian(corrupted)

    def test_covandermondian_d2(self):
        assert validate_covandermondian(build_group(2, 2, 2))

    def test_covandermondian_g312(self):
        assert validate_covandermondian(build_group(3, 1, 2))

    def test_covandermondian_negative_control(self):
        gd = build_group(2, 2, 2)
        bad_ops = [gd.ext_derivatives[0], gd.ext_derivatives[0]]
        corrupted = type(gd)(
            gd.spec,
            gd.basic_invariants,
            gd.vandermondian,
            gd.covandermondian,
            bad_ops,
        )
        assert not validate_covandermondian(corrupted)

    @pytest.mark.parametrize("key", GRID)
    def test_validators_pass_on_grid(self, key):
        gd = build_group(*key)
        assert validate_jacobian(gd)
        assert validate_covandermondian(gd)


class TestNumericInvariants:
    @pytest.mark.parametrize("key", GRID)
    def test_degree_bookkeeping(self, key):
        spec = build_group(*key).spec
        assert spec.degree_of_vandermondian == sum(spec.exponents)
        assert sum(spec.coexponents) == spec.hyperplane_count
        assert spec.degree_of_covandermondian == spec.hyperplane_count

    @pytest.mark.parametrize("key", GRID)
    def test_operator_bidegree_shifts(self, key):
        gd = build_group(*key)
        for op, e in zip(gd.ext_derivatives, gd.spec.coexponents):
            assert op.bidegree_shift() == (-e, 1)


class TestGroupMatrices:
    def test_counts(self):
        assert len(group_matrices(GroupSpec.create(1, 1, 2))) == 2
        assert len(group_matrices(GroupSpec.create(2, 1, 2))) == 8
        mats = group_matrices(GroupSpec.create(2, 2, 2))
        assert len(mats) == 4
        for mat in mats:
            negatives = sum(1 for row in mat for v in row if v == -1)
            assert negatives % 2 == 0

    def test_m3_unsupported(self):
        with pytest.raises(UnsupportedGroupError):
            group_matrices(GroupSpec.create(3, 1, 2))

    @pytest.mark.parametrize("key", [(1, 1, 3), (2, 1, 2), (2, 1, 3), (2, 2, 3)])
    def test_invariance_and_det_transformation(self, key):
        gd = build_group(*key)
        spec = gd.spec
        for perm, signs in group_elements(spec):
            det = element_determinant(perm, signs)
            for f in gd.basic_invariants:
                assert act_signed_permutation(f, perm, signs) == f
            assert act_signed_permutation(gd.vandermondian, perm, signs) == (
                det * gd.vandermondian
            )
            assert act_signed_permutation(gd.covandermondian, perm, signs) == (
                det * gd.covandermondian
            )

    @pytest.mark.parametrize("key", [(2, 1, 2), (2, 2, 3)])
    def test_det_isotypic_elements_transform_by_det(self, key):
        from supercoinv.harmonics import det_isotypic_elements

        gd = build_group(*key)
        elems = det_isotypic_elements(gd)
        for perm, signs in group_elements(gd.spec):
            det = element_determinant(perm, signs)
            for omega in elems.values():
                assert act_signed_permutation(omega, perm, signs) == det * omega
