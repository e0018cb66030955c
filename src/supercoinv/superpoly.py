"""Sparse exact arithmetic in Q[x_1..x_n, theta_1..theta_n] and its operators.

The theta variables anticommute (theta_i theta_j = -theta_j theta_i, so
theta_i^2 = 0) and commute with the x's.  Monomials are kept in the canonical
form x^alpha theta_{i_1}...theta_{i_k} with i_1 < ... < i_k; every sign
produced by reordering is accounted for at multiplication or differentiation
time (Koszul signs).

`Operator` is a normal-ordered algebra of differential operators: each term
multiplies by an x-monomial and a theta-monomial AFTER differentiating by an
x-monomial and a theta-monomial.  Conventions (all verified by the adjointness
and composition property tests):

* theta-derivative of a single variable is the interior product,
  d/dtheta_i (theta_{i_1}...theta_{i_k}) = (-1)^(l-1) * (drop theta_{i_l})
  when i = i_l, else 0;
* a term's theta-derivative tuple (i_1 < ... < i_k) acts by applying
  d/dtheta_{i_1} first, then d/dtheta_{i_2}, and so on (the reversed
  composition that makes the pairing positive definite);
* a term's theta-multiplication tuple (j_1 < ... < j_l) multiplies on the
  left by theta_{j_1}...theta_{j_l}.

With these conventions the adjoint of a term swaps its multiplication and
derivative data with no extra sign.

Serialization: `to_string` / `parse` use the stable text form
``3*x1^2*x3*t2*t4 - 1/2*t1``: terms sorted in reverse lexicographic order of
(x-exponent vector, theta index tuple), variables named x1..xn and t1..tn.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, sub

from .qseries import add_terms, clear_denominators, format_power, format_terms, power

XExp = tuple[int, ...]
Thetas = tuple[int, ...]
Monomial = tuple[XExp, Thetas]


def falling_factorial(a: int, k: int) -> int:
    """a (a-1) ... (a-k+1)."""
    out = 1
    for i in range(k):
        out *= a - i
    return out


@lru_cache(maxsize=None)
def x_monomials(n: int, d: int) -> tuple[XExp, ...]:
    """Exponent vectors of the degree-d monomials in n variables, in
    decreasing lexicographic order."""
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in x_monomials(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


CODE_BITS = 16  # bits per exponent field of a monomial code; the top one is its guard bit
_CODE_MAX = (1 << CODE_BITS - 1) - 1


def monomial_code(a) -> int:
    """x^a packed into one int, sum_j a_j 2^(16 j): exponent a_j fills the
    low 15 bits of field j and leaves its guard bit clear, so adding or
    subtracting codes adds or subtracts exponent vectors.  ValueError if an
    exponent does not fit its field; no code wraps silently."""
    if not all(0 <= e <= _CODE_MAX for e in a):
        raise ValueError(f"exponents {a} do not fit {CODE_BITS - 1}-bit fields")
    return sum(e << CODE_BITS * j for j, e in enumerate(a))


def code_guard(n: int) -> int:
    """The guard bits of n fields: x^b divides x^a, b <= a entrywise, iff
    ((code(a) | guard) - code(b)) & guard == guard, since a field with
    a_j < b_j borrows its guard bit and no other field."""
    return monomial_code((1,) * n) << CODE_BITS - 1


@lru_cache(maxsize=None)
def x_codes(n: int, d: int) -> dict[int, int]:
    """{monomial code of x^a: position of x^a in ``x_monomials(n, d)``}, in
    that order.  ValueError before anything is built if d does not fit a
    field."""
    if d > _CODE_MAX:
        raise ValueError(f"degree {d} does not fit {CODE_BITS - 1}-bit fields")
    if d < 0:
        return {}
    if n == 1:
        return {d: 0}
    codes = (first + (rest << CODE_BITS)
             for first in range(d, -1, -1) for rest in x_codes(n - 1, d - first))
    return {c: col for col, c in enumerate(codes)}


@lru_cache(maxsize=None)
def x_factorials(n: int, d: int) -> tuple[int, ...]:
    """a! = prod_j a_j! of every x^a in ``x_monomials(n, d)``, in order; equal
    values share one int (a degree has few distinct ones)."""
    if d < 0:
        return ()
    if n == 1:
        return (factorial(d),)
    seen = {}
    facts = (factorial(first) * f
             for first in range(d, -1, -1) for f in x_factorials(n - 1, d - first))
    return tuple(seen.setdefault(v, v) for v in facts)


def merge_thetas(a: Thetas, b: Thetas) -> tuple[int, Thetas] | None:
    """Sign and sorted union for theta_a * theta_b; None if an index repeats."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return None
    # Count inversions between the two increasing sequences.
    inv = 0
    j = 0
    for ai in a:
        while j < len(b) and b[j] < ai:
            j += 1
        inv += j
    merged = tuple(sorted(a + b))
    return (-1 if inv & 1 else 1), merged


def theta_interior(i: int, thetas: Thetas) -> tuple[int, Thetas] | None:
    """Interior product d/dtheta_i on a canonical theta word; None kills the term."""
    try:
        pos = thetas.index(i)
    except ValueError:
        return None
    sign = -1 if pos & 1 else 1
    return sign, thetas[:pos] + thetas[pos + 1 :]


def theta_action(
    multheta: Thetas, dertheta: Thetas, word: Thetas
) -> tuple[int, Thetas] | None:
    """(sign, word) of the theta part of an operator term on a theta word, or
    None when the term kills it (derivatives first, smallest index first,
    then multiplication on the left)."""
    sign = 1
    for t in dertheta:
        hit = theta_interior(t, word)
        if hit is None:
            return None
        s, word = hit
        sign *= s
    merged = merge_thetas(multheta, word)
    if merged is None:
        return None
    return sign * merged[0], merged[1]


def unchecked(cls, n: int, terms: dict):
    """A SuperPoly or Operator over n variables whose terms are already
    canonical, without the constructor's checks."""
    res = cls.__new__(cls)
    res.n, res.terms = n, terms
    return res


class SuperPoly:
    """Element of Q[x_1..x_n, theta_1..theta_n], sparse and immutable."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, Fraction] | None = None):
        self.n = n
        data: dict[Monomial, Fraction] = {}
        if terms:
            for (xexp, thetas), c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                xexp = tuple(int(e) for e in xexp)
                thetas = tuple(int(t) for t in thetas)
                if len(xexp) != n:
                    raise ValueError("x-exponent vector has wrong length")
                if any(e < 0 for e in xexp):
                    raise ValueError("negative x-exponent")
                if list(thetas) != sorted(set(thetas)) or any(
                    not 1 <= t <= n for t in thetas
                ):
                    raise ValueError("theta indices must be strictly increasing in [1, n]")
                data[(xexp, thetas)] = data.get((xexp, thetas), Fraction(0)) + c
        self.terms = {k: v for k, v in data.items() if v}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SuperPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "SuperPoly":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c) -> "SuperPoly":
        return cls(n, {((0,) * n, ()): Fraction(c)})

    @classmethod
    def x(cls, n: int, i: int, power: int = 1) -> "SuperPoly":
        exp = [0] * n
        exp[i - 1] = power
        return cls(n, {(tuple(exp), ()): Fraction(1)})

    @classmethod
    def theta(cls, n: int, i: int) -> "SuperPoly":
        return cls(n, {((0,) * n, (i,)): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, xexp, thetas=(), coeff=1) -> "SuperPoly":
        return cls(n, {(tuple(xexp), tuple(thetas)): Fraction(coeff)})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.n, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        # equal polys have equal monomials; a Fraction hashes in Python code
        return hash((self.n, frozenset(self.terms)))

    def bidegree(self) -> tuple[int, int] | None:
        """(x-degree, theta-degree) of a bi-homogeneous element; None if zero."""
        degs = {(sum(x), len(t)) for x, t in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("not bi-homogeneous")
        return degs.pop()

    def constant_term(self) -> Fraction:
        return self.terms.get(((0,) * self.n, ()), Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "SuperPoly"):
        if self.n != other.n:
            raise ValueError("mismatched variable counts")

    def __add__(self, other) -> "SuperPoly":
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.n, other)
        self._check(other)
        return unchecked(SuperPoly, self.n, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "SuperPoly":
        return unchecked(SuperPoly, self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other) -> "SuperPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            terms = {k: v * c for k, v in self.terms.items()} if c else {}
            return unchecked(SuperPoly, self.n, terms)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for (x1, t1), c1 in self.terms.items():
            for (x2, t2), c2 in other.terms.items():
                merged = merge_thetas(t1, t2)
                if merged is None:
                    continue
                sign, thetas = merged
                xexp = tuple(a + b for a, b in zip(x1, x2))
                out[xexp, thetas] = out.get((xexp, thetas), 0) + sign * c1 * c2
        return unchecked(SuperPoly, self.n, {k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SuperPoly":
        return power(self, k, SuperPoly.one(self.n))

    def scalar_ratio(self, other: "SuperPoly") -> Fraction | None:
        """c with self == c * other, or None (zero polys never match nonzero)."""
        self._check(other)
        if self.is_zero() and other.is_zero():
            return Fraction(1)
        if self.is_zero() or other.is_zero():
            return None
        if set(self.terms) != set(other.terms):
            return None
        items = iter(self.terms.items())
        key, val = next(items)
        ratio = val / other.terms[key]
        for key, val in items:
            if val != ratio * other.terms[key]:
                return None
        return ratio

    # -- serialization ---------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_string(self) -> str:
        return format_terms(
            (c, [format_power(f"x{j + 1}", e) for j, e in enumerate(xexp) if e]
             + [f"t{t}" for t in thetas])
            for (xexp, thetas), c in self.sorted_terms()
        )

    __str__ = to_string

    def __repr__(self):
        return f"SuperPoly({self.n}, {self.to_string()})"

    @classmethod
    def parse(cls, text: str, n: int) -> "SuperPoly":
        """Inverse of to_string (also accepts unnormalized whitespace/signs)."""
        s = text.strip()
        if s in ("0", "-0", "+0"):
            return cls.zero(n)
        s = s.replace("-", "+-")
        chunks = [c.strip() for c in s.split("+") if c.strip()]
        terms: dict[Monomial, Fraction] = {}
        for chunk in chunks:
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:].strip()
            coeff = Fraction(1)
            xexp = [0] * n
            thetas: list[int] = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    continue
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if m:
                    idx, e = int(m.group(1)), int(m.group(2) or 1)
                    if not 1 <= idx <= n:
                        raise ValueError(f"variable x{idx} out of range")
                    xexp[idx - 1] += e
                    continue
                m = re.fullmatch(r"t(\d+)", factor)
                if m:
                    idx = int(m.group(1))
                    if not 1 <= idx <= n:
                        raise ValueError(f"variable t{idx} out of range")
                    thetas.append(idx)
                    continue
                m = re.fullmatch(r"(\d+)(?:/(\d+))?", factor)
                if m:
                    coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
                    continue
                raise ValueError(f"cannot parse factor {factor!r}")
            if neg:
                coeff = -coeff
            if sorted(thetas) != sorted(set(thetas)):
                coeff = Fraction(0)
            key = (tuple(xexp), tuple(sorted(thetas)))
            if coeff:
                terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(n, terms)


# ---------------------------------------------------------------------------
# Normal-ordered operator algebra
# ---------------------------------------------------------------------------

# Operator term key: (mulx, multheta, derx, dertheta).
OpKey = tuple[XExp, Thetas, XExp, Thetas]


@lru_cache(maxsize=None)
def _normalize_theta_word(word: tuple) -> tuple[tuple[tuple[Thetas, Thetas], int], ...]:
    """Normal-order a composition word of theta symbols.

    word is a tuple of ('m', i) / ('d', i) read left to right as operator
    composition (the rightmost symbol acts first).  Returns ((B, C), coeff)
    pairs with B the ascending multiplication tuple and C the ascending
    derivative tuple of a normal-ordered term.
    Rules: dd and mm anticommute, and d_i m_j = delta_ij - m_j d_i.
    """
    for t in range(len(word) - 1):
        (k1, i1), (k2, i2) = word[t], word[t + 1]
        if k1 == "d" and k2 == "m":
            pre, post = word[:t], word[t + 2 :]
            results: dict[tuple, int] = {}
            swapped = pre + (("m", i2), ("d", i1)) + post
            results[swapped] = -1
            if i1 == i2:
                results[pre + post] = results.get(pre + post, 0) + 1
            out: dict[tuple[Thetas, Thetas], int] = {}
            for w, c in results.items():
                for key, c2 in _normalize_theta_word(w):
                    out[key] = out.get(key, 0) + c * c2
            return tuple(sorted((k, v) for k, v in out.items() if v))
        if k1 == k2 == "m":
            if i1 == i2:
                return ()
            if i1 > i2:
                sw = word[:t] + (("m", i2), ("m", i1)) + word[t + 2 :]
                return tuple(
                    (key, -c) for key, c in _normalize_theta_word(sw)
                )
        if k1 == k2 == "d":
            if i1 == i2:
                return ()
            if i1 < i2:  # derivative segment must be descending left-to-right
                sw = word[:t] + (("d", i2), ("d", i1)) + word[t + 2 :]
                return tuple(
                    (key, -c) for key, c in _normalize_theta_word(sw)
                )
    mul = tuple(i for k, i in word if k == "m")
    der = tuple(reversed([i for k, i in word if k == "d"]))
    return (((mul, der), 1),)


def _theta_word(multheta: Thetas, dertheta: Thetas) -> tuple:
    """Word for the normal-ordered theta part M(multheta) D(dertheta)."""
    return tuple(("m", i) for i in multheta) + tuple(
        ("d", i) for i in reversed(dertheta)
    )


class Operator:
    """Normal-ordered sum of (multiply by monomials) o (derive by monomials)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[OpKey, Fraction] | None = None):
        self.n = n
        data: dict[OpKey, Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    data[key] = data.get(key, Fraction(0)) + c
        self.terms = {k: v for k, v in data.items() if v}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Operator":
        return cls(n)

    @classmethod
    def identity(cls, n: int) -> "Operator":
        z = (0,) * n
        return cls(n, {(z, (), z, ()): Fraction(1)})

    @classmethod
    def term(cls, n, coeff=1, mulx=None, multheta=(), derx=None, dertheta=()) -> "Operator":
        z = (0,) * n
        mulx = z if mulx is None else tuple(mulx)
        derx = z if derx is None else tuple(derx)
        return cls(n, {(mulx, tuple(multheta), derx, tuple(dertheta)): Fraction(coeff)})

    @classmethod
    def x_partial(cls, n: int, i: int, power: int = 1) -> "Operator":
        exp = [0] * n
        exp[i - 1] = power
        return cls.term(n, derx=exp)

    @classmethod
    def theta_partial(cls, n: int, i: int) -> "Operator":
        return cls.term(n, dertheta=(i,))

    @classmethod
    def x_multiplication(cls, n: int, i: int, power: int = 1) -> "Operator":
        exp = [0] * n
        exp[i - 1] = power
        return cls.term(n, mulx=exp)

    @classmethod
    def theta_multiplication(cls, n: int, i: int) -> "Operator":
        return cls.term(n, multheta=(i,))

    @classmethod
    def exterior_derivative(cls, n: int) -> "Operator":
        """d = sum_j (d/dx_j) theta_j."""
        return cls.power_exterior_derivative(n, 1)

    @classmethod
    def power_exterior_derivative(cls, n: int, power: int) -> "Operator":
        """sum_j (d/dx_j)^power theta_j; power 0 gives sum_j theta_j."""
        return cls.theta_weighted_derivative(
            n, [[power if l == j else 0 for l in range(n)] for j in range(n)]
        )

    @classmethod
    def theta_weighted_derivative(cls, n: int, exps_by_theta) -> "Operator":
        """sum_j d_{x^{exps_by_theta[j]}} theta_j for a list of exponent vectors."""
        out = cls.zero(n)
        for j, exp in enumerate(exps_by_theta, start=1):
            out = out + cls.term(n, multheta=(j,), derx=exp)
        return out

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Operator") -> "Operator":
        if self.n != other.n:
            raise ValueError("mismatched variable counts")
        return unchecked(Operator, self.n, add_terms(self.terms, other.terms))

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1) * other

    def __mul__(self, c) -> "Operator":
        c = Fraction(c)
        terms = {k: v * c for k, v in self.terms.items()} if c else {}
        return unchecked(Operator, self.n, terms)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return self * -1

    def apply(self, f: SuperPoly) -> SuperPoly:
        """Evaluate on a polynomial: derivatives first, then multiplications.

        Computed in integers, with the operator and the polynomial each
        scaled by the lcm of its denominators; every output coefficient is
        divided back once.  Each operator term acts once on each distinct
        theta word of f."""
        if f.n != self.n:
            raise ValueError("mismatched variable counts")
        oden, oterms = clear_denominators(self.terms)
        fden, fterms = clear_denominators(f.terms)
        words = {thetas for (_, thetas), _ in fterms}
        out: dict[Monomial, int] = {}
        for (mulx, multheta, derx, dertheta), oc in oterms:
            xders = [(j, b) for j, b in enumerate(derx) if b]
            acts = {w: theta_action(multheta, dertheta, w) for w in words}
            for (xexp, thetas), c in fterms:
                act = acts[thetas]
                if act is None or any(xexp[j] < b for j, b in xders):
                    continue
                c *= act[0] * oc
                for j, b in xders:
                    c *= falling_factorial(xexp[j], b)
                key = (tuple(map(add, map(sub, xexp, derx), mulx)), act[1])
                out[key] = out.get(key, 0) + c
        den = oden * fden
        return unchecked(SuperPoly, self.n, {k: Fraction(v, den) for k, v in out.items() if v})

    __call__ = apply

    def adjoint(self) -> "Operator":
        """Adjoint for the differentiation pairing: swap mul and der data."""
        return unchecked(Operator, self.n, {
            (derx, dertheta, mulx, multheta): c
            for (mulx, multheta, derx, dertheta), c in self.terms.items()
        })

    def __matmul__(self, other: "Operator") -> "Operator":
        """Composition self o other, re-normal-ordered."""
        if self.n != other.n:
            raise ValueError("mismatched variable counts")
        n = self.n
        out: dict[OpKey, Fraction] = {}
        for (a1, b1, d1, c1), coef1 in self.terms.items():
            for (a2, b2, d2, c2), coef2 in other.terms.items():
                base = coef1 * coef2
                # Push D_x(d1) through M_x(a2) variable by variable:
                # d^a x^b = sum_g C(a,g) b-falling-g x^(b-g) d^(a-g).
                xparts: list[tuple[Fraction, list[int], list[int]]] = [
                    (base, list(a2), list(d1))
                ]
                for v in range(n):
                    a, b = d1[v], a2[v]
                    if a == 0 or b == 0:
                        continue
                    expanded = []
                    for coeff, mul, der in xparts:
                        for g in range(0, min(a, b) + 1):
                            w = comb(a, g) * falling_factorial(b, g)
                            m2, r2 = list(mul), list(der)
                            m2[v] = b - g
                            r2[v] = a - g
                            expanded.append((coeff * w, m2, r2))
                    xparts = expanded
                theta_terms = _normalize_theta_word(
                    _theta_word(b1, c1) + _theta_word(b2, c2)
                )
                if not theta_terms:
                    continue
                for coeff, mul_mid, der_mid in xparts:
                    mulx = tuple(x + y for x, y in zip(a1, mul_mid))
                    derx = tuple(x + y for x, y in zip(der_mid, d2))
                    for (bt, ct), tsign in theta_terms:
                        key = (mulx, bt, derx, ct)
                        out[key] = out.get(key, 0) + coeff * tsign
        return unchecked(Operator, self.n, {k: v for k, v in out.items() if v})

    def bidegree_shift(self) -> tuple[int, int] | None:
        """(x-degree shift, theta-degree shift) if uniform across terms."""
        shifts = {
            (sum(mulx) - sum(derx), len(multheta) - len(dertheta))
            for (mulx, multheta, derx, dertheta) in self.terms
        }
        if not shifts:
            return None
        if len(shifts) > 1:
            raise ValueError("operator is not bi-homogeneous")
        return shifts.pop()

    def __repr__(self):
        return f"Operator({self.n}, {len(self.terms)} terms)"


def x_shift(f: SuperPoly, exp, coeff=1) -> SuperPoly:
    """coeff * x^exp * f, by adding exp to every x-exponent; f itself when
    that is f."""
    if coeff == 1 and not any(exp):
        return f
    return unchecked(SuperPoly, f.n, {
        (tuple(map(add, e, exp)), t): c * coeff for (e, t), c in f.terms.items()
    })


def partial_operator(omega: SuperPoly) -> Operator:
    """The differentiation operator attached to omega.

    For omega = sum c x^alpha theta_{i_1}...theta_{i_k} this is
    sum c d_x^alpha d_theta(i_k)...d_theta(i_1): x's become x-derivatives,
    thetas become interior products applied in reversed order.  (The
    coefficient conjugation is the identity over Q.)
    """
    z = (0,) * omega.n
    return unchecked(Operator, omega.n, {
        (z, (), xexp, thetas): c for (xexp, thetas), c in omega.terms.items()
    })


def pairing(f: SuperPoly, omega: SuperPoly) -> Fraction:
    """Positive-definite pairing: constant coefficient of (d_omega f)."""
    if f.n != omega.n:
        raise ValueError("mismatched variable counts")
    # Distinct canonical monomials are orthogonal and (x^a theta_I, x^a theta_I)
    # is a!, so the pairing is diagonal; this is the constant coefficient of
    # partial_operator(omega).apply(f) without building the intermediate.
    total = Fraction(0)
    for key, oc in omega.terms.items():
        c = f.terms.get(key)
        if c is None:
            continue
        prod = 1
        for e in key[0]:
            prod *= falling_factorial(e, e)
        total += oc * c * prod
    return total
