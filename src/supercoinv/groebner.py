"""Lex-order Buchberger engine over Q for ordinary (commuting) polynomials.

Term order is fixed: lexicographic with x_1 > x_2 > ... > x_n, i.e. plain
tuple comparison on exponent vectors.  The engine is deterministic: S-pairs
are processed by minimal lcm total degree, ties broken lexicographically on
the lcm and then by pair index, and the final basis is inter-reduced, monic,
and sorted by leading monomial.

The closed-form generating families for the coinvariant ideals of G(m, p, n)
live here too (`groebner_generators`): complete homogeneous pieces
h_j(x_j^m, ..., x_n^m), plus h_{j-1}(x_j^m, ..., x_n^m) (x_j...x_n)^{m/p}
when p > 1.  These are already reduced Groebner bases; the engine is used to
confirm that, and their standard monomials reproduce the Artin bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .records import Value
from .superpoly import unchecked

Exp = tuple[int, ...]


class QuotientNotFiniteError(ValueError):
    """The leading-term ideal misses a pure power of some variable."""


class CommPoly:
    """Sparse polynomial in Q[x_1..x_n] with tuple exponent keys."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Exp, Fraction] | None = None):
        self.n = n
        data: dict[Exp, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                e = tuple(int(v) for v in e)
                if len(e) != n or any(v < 0 for v in e):
                    raise ValueError("bad exponent vector")
                data[e] = data.get(e, Fraction(0)) + c
        self.terms = {k: v for k, v in data.items() if v}

    @classmethod
    def zero(cls, n: int) -> "CommPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "CommPoly":
        return cls(n, {(0,) * n: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exp, coeff=1) -> "CommPoly":
        return cls(n, {tuple(exp): Fraction(coeff)})

    @classmethod
    def x(cls, n: int, i: int, power: int = 1) -> "CommPoly":
        exp = [0] * n
        exp[i - 1] = power
        return cls.monomial(n, exp)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CommPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "CommPoly") -> "CommPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return unchecked(CommPoly, self.n, out)

    def __neg__(self) -> "CommPoly":
        return unchecked(CommPoly, self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return self + (-other)

    def __mul__(self, other) -> "CommPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            terms = {e: v * c for e, v in self.terms.items()} if c else {}
            return unchecked(CommPoly, self.n, terms)
        out: dict[Exp, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return unchecked(CommPoly, self.n, out)

    __rmul__ = __mul__

    def term_mul(self, exp: Exp, coeff: Fraction) -> "CommPoly":
        return unchecked(CommPoly, self.n, {
            tuple(a + b for a, b in zip(e, exp)): c * coeff
            for e, c in self.terms.items()
        })

    def leading_monomial(self) -> Exp:
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[max(self.terms)]

    def monic(self) -> "CommPoly":
        if not self.terms:
            return self
        inv = 1 / self.leading_coefficient()
        return unchecked(CommPoly, self.n, {e: c * inv for e, c in self.terms.items()})

    def to_string(self) -> str:
        from .superpoly import SuperPoly

        return SuperPoly(self.n, {(e, ()): c for e, c in self.terms.items()}).to_string()

    __str__ = to_string

    def __repr__(self):
        return f"CommPoly({self.n}, {self.to_string()})"

    @classmethod
    def parse(cls, text: str, n: int) -> "CommPoly":
        from .superpoly import SuperPoly

        sp = SuperPoly.parse(text, n)
        if any(thetas for (_, thetas) in sp.terms):
            raise ValueError("theta variables not allowed in CommPoly")
        return cls(n, {xexp: c for (xexp, _), c in sp.terms.items()})


def _divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exp, b: Exp) -> Exp:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: CommPoly, basis, lms=None) -> CommPoly:
    """Remainder of multivariate division by the (monic) basis polynomials.

    No monomial of the result is divisible by any basis leading monomial; the
    map is linear in f and idempotent.  ``lms``, the basis's leading
    monomials in order, spares recomputing them.
    """
    gens = basis.generators if isinstance(basis, GroebnerBasis) else basis
    if lms is None:
        lms = [g.leading_monomial() for g in gens]
    work = dict(f.terms)
    remainder: dict[Exp, Fraction] = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for lm, g in zip(lms, gens):
            if _divides(lm, e):
                shift = tuple(a - b for a, b in zip(e, lm))
                factor = c / g.terms[lm]
                for ge, gc in g.terms.items():
                    key = tuple(a + b for a, b in zip(ge, shift))
                    if key == e:
                        continue
                    s = work.get(key, Fraction(0)) - factor * gc
                    if s:
                        work[key] = s
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[e] = remainder.get(e, Fraction(0)) + c
    return unchecked(CommPoly, f.n, remainder)


def s_polynomial(f: CommPoly, g: CommPoly) -> CommPoly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _lcm(lf, lg)
    mf = tuple(a - b for a, b in zip(lcm, lf))
    mg = tuple(a - b for a, b in zip(lcm, lg))
    return f.term_mul(mf, 1 / f.leading_coefficient()) - g.term_mul(
        mg, 1 / g.leading_coefficient()
    )


class GroebnerBasis(Value):
    """Reduced lex Groebner basis: monic, mutually reduced, sorted by LM."""

    n: int
    generators: tuple[CommPoly, ...]

    def leading_monomials(self) -> list[Exp]:
        return [g.leading_monomial() for g in self.generators]

    def is_reduced(self) -> bool:
        lms = self.leading_monomials()
        for i, g in enumerate(self.generators):
            if g.leading_coefficient() != 1:
                return False
            for e in g.terms:
                if any(j != i and _divides(lms[j], e) for j in range(len(lms))):
                    return False
        return True

    def to_strings(self) -> list[str]:
        return [g.to_string() for g in self.generators]


def buchberger(gens) -> GroebnerBasis:
    """Deterministic Buchberger with the product and chain criteria."""
    import heapq

    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("empty generating set")
    n = basis[0].n
    lms = [g.leading_monomial() for g in basis]

    def pair(i, j):
        lcm = _lcm(lms[i], lms[j])
        return (sum(lcm), lcm, i, j)

    pairs = [pair(i, j) for i, j in combinations(range(len(basis)), 2)]
    heapq.heapify(pairs)
    done: set[tuple[int, int]] = set()
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        done.add((i, j))
        # Product criterion: coprime leading monomials reduce to zero.
        if all(a + b == c for a, b, c in zip(lms[i], lms[j], lcm)):
            continue
        # Chain criterion: some k with lm_k | lcm and both mixed pairs done.
        if any(
            k != i and k != j and _divides(lm, lcm)
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k, lm in enumerate(lms)
        ):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis, lms)
        if not r.is_zero():
            basis.append(r.monic())
            lms.append(r.leading_monomial())
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(pairs, pair(k, new))

    # Inter-reduce to the unique reduced basis.  The basis stays a Groebner
    # basis, so an element reduces to zero exactly when another leading
    # monomial divides its own, and otherwise keeps its leading monomial.
    changed = True
    while changed and len(basis) > 1:
        changed = False
        for i in range(len(basis)):
            r = normal_form(basis[i], basis[:i] + basis[i + 1 :], lms[:i] + lms[i + 1 :])
            if r.is_zero():
                basis.pop(i)
                lms.pop(i)
                changed = True
                break
            r = r.monic()
            if r != basis[i]:
                basis[i] = r
                changed = True
                break
    order = sorted(range(len(basis)), key=lms.__getitem__)
    return GroebnerBasis(n, tuple(basis[i] for i in order))


def complete_homogeneous(degree: int, variables, n: int, power: int = 1) -> CommPoly:
    """h_degree over the given 1-indexed variables, each raised to `power`.

    h_j(x_{v1}^power, ..., x_{vk}^power): the sum over multisets of size j.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    variables = list(variables)
    terms: dict[Exp, Fraction] = {}
    for combo in combinations_with_replacement(variables, degree):
        exp = [0] * n
        for v in combo:
            exp[v - 1] += power
        terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + 1
    return CommPoly(n, terms)


def groebner_generators(m: int, p: int, n: int) -> list[CommPoly]:
    """Closed-form reduced Groebner basis of the G(m, p, n) coinvariant ideal.

    p = 1:  h_j(x_j^m, ..., x_n^m) for j in [n].
    p > 1:  h_j(x_j^m, ..., x_n^m) for j in [n-1], together with
            h_{j-1}(x_j^m, ..., x_n^m) (x_j ... x_n)^{m/p} for j in [n].
    """
    if m % p:
        raise ValueError("p must divide m")
    gens = []
    if p == 1:
        for j in range(1, n + 1):
            gens.append(complete_homogeneous(j, range(j, n + 1), n, power=m))
        return gens
    for j in range(1, n):
        gens.append(complete_homogeneous(j, range(j, n + 1), n, power=m))
    mp = m // p
    for j in range(1, n + 1):
        tail = [0] * n
        for v in range(j, n + 1):
            tail[v - 1] = mp
        gens.append(
            complete_homogeneous(j - 1, range(j, n + 1), n, power=m)
            * CommPoly.monomial(n, tail)
        )
    return gens


def predicted_leading_monomials(m: int, p: int, n: int) -> set[Exp]:
    """Leading monomials of groebner_generators under lex, in closed form."""
    out: set[Exp] = set()
    if p == 1:
        for j in range(1, n + 1):
            exp = [0] * n
            exp[j - 1] = j * m
            out.add(tuple(exp))
        return out
    mp = m // p
    for j in range(1, n):
        exp = [0] * n
        exp[j - 1] = j * m
        out.add(tuple(exp))
    for j in range(1, n + 1):
        exp = [0] * n
        exp[j - 1] = (j - 1) * m + mp
        for v in range(j + 1, n + 1):
            exp[v - 1] = mp
        out.add(tuple(exp))
    return out


def standard_monomials(gb: GroebnerBasis, degree_bound: int | None = None) -> list[Exp]:
    """Monomials outside the leading-term ideal, lex-sorted.

    Without a degree bound the quotient must be finite-dimensional (the
    leading-term ideal must contain a pure power of every variable), else
    QuotientNotFiniteError is raised.
    """
    n = gb.n
    caps = [None] * n
    # The pure powers only bound the box; every other leading monomial
    # (none for p = 1) removes the sub-box of the points it divides.
    others = []
    for lm in gb.leading_monomials():
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or lm[i] < caps[i]:
                caps[i] = lm[i]
        else:
            others.append(lm)
    if degree_bound is None:
        missing = [i + 1 for i, c in enumerate(caps) if c is None]
        if missing:
            raise QuotientNotFiniteError(
                f"no pure power of x{missing[0]} among the leading monomials"
            )
        ranges = [range(c) for c in caps]
    else:
        ranges = [
            range(min(c, degree_bound + 1) if c is not None else degree_bound + 1)
            for c in caps
        ]
    covered = set()
    for lm in others:
        covered.update(product(*(range(e, len(r)) for e, r in zip(lm, ranges))))
    return [
        exp
        for exp in product(*ranges)
        if exp not in covered and (degree_bound is None or sum(exp) <= degree_bound)
    ]
