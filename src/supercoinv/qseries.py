"""Exact q-combinatorics: integer polynomials in q and q-Stirling numbers.

Everything here is exact integer arithmetic.  `QPoly` is a sparse univariate
polynomial in q, `QZPoly` its bivariate (q, z) cousin used for bi-graded
Hilbert series.  On top of those we provide the q-integers
[k]_q = 1 + q + ... + q^{k-1}, q-factorials, the type A and type B
q-Stirling numbers of the second kind

    Stir_q(n, k)   = Stir_q(n-1, k-1)   + [k]_q    * Stir_q(n-1, k),
    Stir^B_q(n, k) = Stir^B_q(n-1, k-1) + [2k+1]_q * Stir^B_q(n-1, k),

with base cases Stir_q(1, k) = [k == 1] and Stir^B_q(0, k) = [k == 0], and
the conjectured Hilbert series of the theta-degree-k slice of the super
coinvariant algebra built from them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

# Exact scalar type used throughout the package.  Always reduced, positive
# denominator, never a float.
Rational = Fraction


def format_terms(terms) -> str:
    """Render (coefficient, [factor]) pairs as e.g. ``z^2 - 6*z + 6``: the
    magnitude is a factor unless it is 1 and others exist; zero coefficients
    are left out, and no term reads ``0``."""
    parts = []
    for c, factors in terms:
        if c:
            if abs(c) != 1 or not factors:
                factors = [str(abs(c)), *factors]
            parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def add_terms(a: dict, b: dict) -> dict:
    """The term map a + b of two term maps without zero values, zero sums
    dropped: the sum of `QPoly`, `SuperPoly` and `Operator`."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def clear_denominators(terms: dict) -> tuple[int, list]:
    """(den, [(key, int)]): den is the lcm of the denominators of a term map
    with rational values, and each value times den is an integer, its
    numerator times den // its denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()]


def power(base, k: int, one):
    """base ** k by repeated squaring, from the unit ``one``."""
    if k < 0:
        raise ValueError("negative power")
    while k:
        if k & 1:
            one = one * base
        base = base * base
        k >>= 1
    return one


def format_power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}^{e}"


def format_poly(coeffs: dict[int, int], var: str = "q") -> str:
    """Render {exponent: coefficient} as e.g. ``z^2 + 6*z + 6``."""
    return format_terms((coeffs[e], [format_power(var, e)] if e else [])
                        for e in sorted(coeffs, reverse=True))


class QPoly:
    """Sparse polynomial in q with integer coefficients.

    Instances are treated as immutable; no zero coefficients are stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    if e < 0:
                        raise ValueError("negative exponent in QPoly")
                    data[int(e)] = int(c)
        self.coeffs = data

    @staticmethod
    def _of(coeffs: dict[int, int]) -> "QPoly":
        """A QPoly over coeffs already free of zeros, without the checks."""
        res = QPoly.__new__(QPoly)
        res.coeffs = coeffs
        return res

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def q(cls, exp: int = 1, coeff: int = 1) -> "QPoly":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        return QPoly._of(add_terms(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "QPoly":
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, int):
            if other == 0:
                return QPoly()
            return QPoly._of({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QPoly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QPoly":
        return power(self, k, QPoly.one())

    def stretch(self, r: int) -> "QPoly":
        """Substitute q -> q^r."""
        if r < 1:
            raise ValueError("stretch factor must be positive")
        return QPoly._of({e * r: c for e, c in self.coeffs.items()})

    def __call__(self, value: int) -> int:
        return sum(c * value**e for e, c in self.coeffs.items())

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def __repr__(self):
        return f"QPoly({format_poly(self.coeffs)})"

    def __str__(self):
        return format_poly(self.coeffs)


class QZPoly:
    """Sparse polynomial in q and z with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        data: dict[tuple[int, int], int] = {}
        if coeffs:
            for (qe, ze), c in coeffs.items():
                if c:
                    data[(int(qe), int(ze))] = int(c)
        self.coeffs = data

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({(0, 0): other} if other else {})
        if isinstance(other, QPoly):
            return self.coeffs == {(e, 0): c for e, c in other.coeffs.items()}
        if not isinstance(other, QZPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def z_substitute_signed_power(self, j: int, sign: int = -1) -> QPoly:
        """Substitute z -> sign * q^j, collapsing to a polynomial in q."""
        out: dict[int, int] = {}
        for (qe, ze), c in self.coeffs.items():
            out[qe + j * ze] = out.get(qe + j * ze, 0) + c * sign**ze
        return QPoly(out)

    def specialize(self, var: str, value: int) -> dict[int, int]:
        """Set var ("q" or "z") to an integer; returns {exponent of the other
        variable: coefficient}, without zeros."""
        at = 0 if var == "q" else 1
        out: dict[int, int] = {}
        for key, c in self.coeffs.items():
            e = key[1 - at]
            out[e] = out.get(e, 0) + c * value ** key[at]
        return {e: c for e, c in out.items() if c}

    def __call__(self, q: int, z: int) -> int:
        return sum(c * q**qe * z**ze for (qe, ze), c in self.coeffs.items())

    def __str__(self):
        return format_terms(
            (c, [format_power(v, e) for v, e in (("q", qe), ("z", ze)) if e])
            for (qe, ze), c in sorted(self.coeffs.items(), reverse=True)
        )

    __repr__ = __str__


def q_integer(k: int) -> QPoly:
    """[k]_q = 1 + q + ... + q^{k-1}; the empty sum for k = 0."""
    if k < 0:
        raise ValueError("q_integer needs k >= 0")
    return QPoly({e: 1 for e in range(k)})


def q_factorial(k: int) -> QPoly:
    """[k]_q! = [1]_q [2]_q ... [k]_q."""
    out = QPoly.one()
    for i in range(1, k + 1):
        out = out * q_integer(i)
    return out


@lru_cache(maxsize=None)
def q_stirling_a(n: int, k: int) -> QPoly:
    """Type A q-Stirling number of the second kind, Stir_q(n, k)."""
    if n < 1:
        raise ValueError("q_stirling_a needs n >= 1")
    if k <= 0 or k > n:
        return QPoly.zero()
    if n == 1:
        return QPoly.one() if k == 1 else QPoly.zero()
    return q_stirling_a(n - 1, k - 1) + q_integer(k) * q_stirling_a(n - 1, k)


@lru_cache(maxsize=None)
def q_stirling_b(n: int, k: int) -> QPoly:
    """Type B q-Stirling number of the second kind, Stir^B_q(n, k)."""
    if n < 0:
        raise ValueError("q_stirling_b needs n >= 0")
    if k < 0 or k > n:
        return QPoly.zero()
    if n == 0:
        return QPoly.one() if k == 0 else QPoly.zero()
    return q_stirling_b(n - 1, k - 1) + q_integer(2 * k + 1) * q_stirling_b(n - 1, k)


def _check_family(family: str) -> str:
    if family not in ("A", "B"):
        raise ValueError(f"family must be 'A' or 'B', got {family!r}")
    return family


def zabrocki_hilbert(n: int, k: int, family: str = "A") -> QPoly:
    """Conjectured Hilbert series of the k-form slice of the super coinvariants.

    Family A (symmetric group S_n, 0 <= k <= n-1):
        [n-k]_q! * Stir_q(n, n-k)
    Family B (hyperoctahedral group B_n, 0 <= k <= n):
        [n-k]_{q^2}! * [2]_q^{n-k} * Stir^B_q(n, n-k)

    Out-of-range k yields the zero polynomial.
    """
    _check_family(family)
    if n < 1:
        raise ValueError("zabrocki_hilbert needs n >= 1")
    if family == "A":
        if not 0 <= k <= n - 1:
            return QPoly.zero()
        return q_factorial(n - k) * q_stirling_a(n, n - k)
    if not 0 <= k <= n:
        return QPoly.zero()
    return (
        q_factorial(n - k).stretch(2)
        * q_integer(2) ** (n - k)
        * q_stirling_b(n, n - k)
    )


def alternating_sum(n: int, family: str = "A", j: int = 1) -> QPoly:
    """Sum_k (-q^j)^k * zabrocki_hilbert(n, k, family).

    For j = 1 this collapses to the constant 1 in both families.
    """
    _check_family(family)
    if n < 1 or j < 1:
        raise ValueError("alternating_sum needs n >= 1 and j >= 1")
    top = n - 1 if family == "A" else n
    out = QPoly.zero()
    for k in range(top + 1):
        sign_term = QPoly({j * k: (-1) ** k})
        out = out + sign_term * zabrocki_hilbert(n, k, family)
    return out
