"""Construction of the reflection groups G(m, p, n).

G(m, p, n), for p | m, is the group of n x n monomial matrices whose nonzero
entries are m-th roots of unity with the product of the entries an (m/p)-th
root of unity.  This module builds the standard explicit data attached to
such a group over Q:

* basic invariants f_1..f_n (power sums in x^m, plus (x_1...x_n)^{m/p});
* the Vandermondian Delta = prod_{i<j}(x_j^m - x_i^m) (x_1...x_n)^{m/p-1}
  and the co-Vandermondian Delta*;
* the generalized exterior derivatives d_1..d_r and their co-exponents;
* for S_n (n >= 2), the reduced presentation Q[y, eta]/I' in n - 1 variables
  that the harmonic dimensions are computed in (``GroupData.cell_presentation``).

Cyclic groups are normalized: (m, p, 1) is built as (m/p, 1, 1).

Scalar normalizations follow the literal closed forms (integer coefficients,
no constants); downstream checks only ever compare spans or proportionality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod
from operator import add

from .qseries import clear_denominators
from .records import Value
from .superpoly import Operator, SuperPoly, merge_thetas, partial_operator
from .superpoly import unchecked, x_monomials, x_shift


class IntegrityError(RuntimeError):
    """Two independent computations of the same data disagreed."""


class GroupSpec(Value):
    """Validated parameter triple (m, p, n) with derived numeric invariants."""

    m: int
    p: int
    n: int

    def __init__(self, m: int, p: int, n: int):
        if m < 1 or p < 1 or n < 1:
            raise ValueError("m, p, n must be positive")
        if m % p:
            raise ValueError(f"p={p} does not divide m={m}")
        super().__init__(m, p, n)

    @staticmethod
    def create(m: int, p: int, n: int) -> "GroupSpec":
        """Validate and normalize; cyclic (m, p, 1) becomes (m/p, 1, 1)."""
        spec = GroupSpec(m, p, n)
        return GroupSpec(m // p, 1, 1) if n == 1 and p > 1 else spec

    @property
    def order(self) -> int:
        return self.m**self.n * factorial(self.n) // self.p

    @property
    def rank(self) -> int:
        """Dimension of V module the fixed space; n except n-1 for S_n."""
        return self.n - 1 if self.m == 1 else self.n

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants f_1..f_n."""
        if self.m == 1:
            return tuple(range(1, self.n + 1))
        head = tuple(self.m * i for i in range(1, self.n))
        last = self.n * self.m // self.p
        return head + (last,)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.degrees)

    @property
    def coexponents(self) -> tuple[int, ...]:
        """Co-exponents e*_1..e*_r, aligned with the operators d_1..d_r."""
        m, p, n = self.m, self.p, self.n
        if m == 1:
            return tuple(range(1, n))
        head = tuple((i - 1) * m + 1 for i in range(1, n + 1))
        if p == m:
            return head[: n - 1] + ((n - 1) * (m - 1),)
        return head

    @property
    def degree_of_vandermondian(self) -> int:
        return self.m * comb(self.n, 2) + self.n * (self.m // self.p - 1)

    @property
    def degree_of_covandermondian(self) -> int:
        m, p, n = self.m, self.p, self.n
        if m == 1 or p == m:
            return m * comb(n, 2)
        return m * comb(n, 2) + n

    @property
    def hyperplane_count(self) -> int:
        """Reflecting hyperplanes counted directly: m*C(n,2) of the form
        a x_i = x_j, plus the n coordinate hyperplanes when m/p > 1."""
        return self.m * comb(self.n, 2) + (self.n if self.m // self.p > 1 else 0)

    @property
    def is_real(self) -> bool:
        return self.m <= 2

    def label(self) -> str:
        m, p, n = self.m, self.p, self.n
        if m == 1:
            return f"S_{n}"
        if (m, p) == (2, 1):
            return f"B_{n}"
        if (m, p) == (2, 2):
            return f"D_{n}"
        return f"G({m},{p},{n})"


class GroupData:
    """All explicit polynomial/operator data attached to a GroupSpec."""

    # Kept by harmonics.det_isotypic_elements; not pickled (see __getstate__).
    _det_elements: dict | None = None

    def __init__(
        self,
        spec: GroupSpec,
        basic_invariants: list[SuperPoly],
        vandermondian: SuperPoly,
        covandermondian: SuperPoly,
        ext_derivatives: list[Operator],
    ):
        self.spec = spec
        self.basic_invariants = basic_invariants
        self.vandermondian = vandermondian
        self.covandermondian = covandermondian
        self.ext_derivatives = ext_derivatives
        self.exterior_d = Operator.exterior_derivative(spec.n)
        self.exterior_d_adjoint = self.exterior_d.adjoint()
        self._generators: list[SuperPoly] | None = None
        self._generator_ops: list[Operator] | None = None
        self._reduced: ReducedPresentation | None = None

    @property
    def n(self) -> int:
        return self.spec.n

    def ideal_generators(self) -> list[SuperPoly]:
        """f_1..f_n, d f_1..d f_n: generators of the super coinvariant ideal."""
        if self._generators is None:
            d = self.exterior_d
            self._generators = list(self.basic_invariants) + [
                d.apply(f) for f in self.basic_invariants
            ]
        return self._generators

    def harmonic_generator_operators(self) -> list[Operator]:
        """The differentiation operators whose common kernel is the harmonics."""
        if self._generator_ops is None:
            self._generator_ops = [partial_operator(g) for g in self.ideal_generators()]
        return self._generator_ops

    def cell_presentation(self) -> GroupData | ReducedPresentation:
        """The presentation whose cells give the harmonic dimensions.

        For S_n with n >= 2 this is the reduced presentation in n - 1
        variables, built on first use and kept (a pickled GroupData carries
        it); for every other group it is the group data itself.
        """
        if self.spec.m != 1 or self.n < 2:
            return self
        if self._reduced is None:
            self._reduced = reduce_type_a(self)
        return self._reduced

    def __getstate__(self):
        # The presentation is built before pickling, so that the workers of a
        # process pool receive it instead of each building its own.
        self.cell_presentation()
        return {k: v for k, v in self.__dict__.items() if k != "_det_elements"}


class ReducedPresentation:
    """Q[y, eta]/I' for S_n: the linear generators quotiented out first.

    The super coinvariant ideal of S_n contains f_1 = e_1 = x_1 + ... + x_n
    and d f_1 = theta_1 + ... + theta_n.  Substituting
        x_n -> -(y_1 + ... + y_{n-1}),  theta_n -> -(eta_1 + ... + eta_{n-1})
    (and x_j -> y_j, theta_j -> eta_j for j < n) is onto with kernel
    (f_1, d f_1), so Q[x, theta]/I and Q[y, eta]/I' agree in every bidegree,
    where I' is generated by the images of f_2..f_n, d f_2..d f_n (integer
    coefficients).  This is the reduction to the reflection representation.
    It has what the cell matrices read of a GroupData: ``spec`` (for
    messages), ``n`` (here the n - 1 variables), ``ideal_generators()`` and
    ``harmonic_generator_operators()``.
    """

    def __init__(self, spec: GroupSpec, generators: list[SuperPoly]):
        self.spec = spec
        self.n = spec.n - 1
        self._generators = generators
        self._generator_ops = [partial_operator(g) for g in generators]

    def ideal_generators(self) -> list[SuperPoly]:
        return self._generators

    def harmonic_generator_operators(self) -> list[Operator]:
        return self._generator_ops


def _last_variable_images(n: int, top: int) -> tuple[list[dict], dict]:
    """Images of x_n^0..x_n^top and of theta_n in n - 1 variables, where x_n
    and theta_n go to minus the sum of the other variables: one
    {y-exponent: int} per power (signed multinomials), and {eta index: int}."""
    x_powers = [
        {a: (-1) ** e * factorial(e) // prod(map(factorial, a))
         for a in x_monomials(n - 1, e)}
        for e in range(top + 1)
    ]
    return x_powers, dict.fromkeys(range(1, n), -1)


def _substitute_last(f: SuperPoly, x_powers: list, theta_image: dict) -> SuperPoly:
    """f with x_n^e -> x_powers[e] and theta_n -> theta_image, in n - 1
    variables, summed in integers and divided once by the lcm of f's
    denominators.

    theta_n is the last factor of a canonical theta word, so it is replaced
    by multiplying theta_image on the right."""
    n = f.n
    den, terms = clear_denominators(f.terms)
    out: dict = {}
    for (xexp, thetas), c in terms:
        words = [(thetas, c)]
        if thetas and thetas[-1] == n:
            hits = ((merge_thetas(thetas[:-1], (j,)), b) for j, b in theta_image.items())
            words = [(hit[1], hit[0] * b * c) for hit, b in hits if hit]
        for yexp, a in x_powers[xexp[-1]].items():
            yexp = tuple(map(add, xexp[:-1], yexp))
            for word, b in words:
                out[yexp, word] = out.get((yexp, word), 0) + a * b
    return unchecked(SuperPoly, n - 1, {k: Fraction(v, den) for k, v in out.items() if v})


def reduce_type_a(gd: GroupData) -> ReducedPresentation:
    """The reduced presentation of S_n, from the substituted generators.

    Certified at run time: exactly f_1 and d f_1 must map to zero, otherwise
    IntegrityError (the substitution would not be the quotient by them).
    """
    spec, n = gd.spec, gd.n
    gens = gd.ideal_generators()
    top = max(xexp[-1] for g in gens for xexp, _ in g.terms)
    x_powers, theta_image = _last_variable_images(n, top)
    images = [_substitute_last(g, x_powers, theta_image) for g in gens]
    vanished = [j for j, g in enumerate(images) if g.is_zero()]
    if vanished != [0, n]:
        raise IntegrityError(
            f"{spec.label()}: the substitution x_n, theta_n -> -(sum of the "
            f"others) maps generators {vanished} to zero, not exactly f_1 and "
            f"d f_1 ({[0, n]})"
        )
    return ReducedPresentation(spec, [g for g in images if g])


def _vandermonde_in_powers(n: int, m: int) -> SuperPoly:
    """prod_{1 <= i < j <= n} (x_j^m - x_i^m), expanded as the determinant
    det(x_j^{m(i-1)}): one signed term per permutation, no cancellation."""
    terms = {}
    for perm in permutations(range(n)):
        xexp = [0] * n
        for i, j in enumerate(perm):
            xexp[j] = m * i
        terms[(tuple(xexp), ())] = Fraction(_perm_sign(perm))
    return unchecked(SuperPoly, n, terms)


def _power_sum(n: int, k: int) -> SuperPoly:
    powers = (tuple(k * (i == j) for i in range(n)) for j in range(n))
    return unchecked(SuperPoly, n, {(x, ()): Fraction(1) for x in powers})


@lru_cache(maxsize=None)
def build_group(m: int, p: int, n: int) -> GroupData:
    """Construct the full GroupData for G(m, p, n)."""
    spec = GroupSpec.create(m, p, n)
    m, p, n = spec.m, spec.p, spec.n

    if m == 1:
        invariants = [_power_sum(n, i) for i in range(1, n + 1)]
    else:
        invariants = [_power_sum(n, m * i) for i in range(1, n)]
        if p == 1:
            invariants.append(_power_sum(n, m * n))
        else:
            invariants.append(SuperPoly.monomial(n, (m // p,) * n))

    vdm = _vandermonde_in_powers(n, m)
    vmd = x_shift(vdm, (m // p - 1,) * n)
    co_power = 0 if m == 1 or p == m else 1
    if co_power == m // p - 1:  # S_n, D_n, B_n
        covmd = vmd
    else:
        covmd = x_shift(vdm, (co_power,) * n)

    if m == 1:
        ops = [Operator.power_exterior_derivative(n, i) for i in range(1, n)]
    else:
        ops = [
            Operator.power_exterior_derivative(n, (i - 1) * m + 1)
            for i in range(1, n)
        ]
        if p == m and n >= 2:
            exps = []
            for j in range(n):
                exp = [m - 1] * n
                exp[j] = 0
                exps.append(tuple(exp))
            ops.append(Operator.theta_weighted_derivative(n, exps))
        else:
            ops.append(Operator.power_exterior_derivative(n, (n - 1) * m + 1))

    return GroupData(spec, invariants, vmd, covmd, ops)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def group_info(spec: GroupSpec) -> dict:
    """Summary of the explicit data, JSON-serializable."""
    gd = build_group(spec.m, spec.p, spec.n)
    return {
        "m": spec.m,
        "p": spec.p,
        "n": spec.n,
        "label": spec.label(),
        "order": spec.order,
        "rank": spec.rank,
        "degrees": list(spec.degrees),
        "exponents": list(spec.exponents),
        "coexponents": list(spec.coexponents),
        "degree_of_vandermondian": spec.degree_of_vandermondian,
        "degree_of_covandermondian": spec.degree_of_covandermondian,
        "basic_invariants": [f.to_string() for f in gd.basic_invariants],
        "vandermondian": gd.vandermondian.to_string(),
        "covandermondian": gd.covandermondian.to_string(),
    }
