"""Lex-order Buchberger engine over Q on theta-free SuperPolys.

Every polynomial here is a `SuperPoly` whose terms are all (exponent, ()).

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

One normal-form table per degree (`normal_forms`) has two readers: the
classical harmonics, read off it without elimination (`apolar_rows`) from
a basis that `harmonics` certifies once on these tables (Buchberger's
criterion, and every theta-free generator of the group reducing to 0),
and the derivative closure of `harmonics`, which differentiates harmonic
forms in the coordinates of the standard monomials.  It is built once per
degree of the latest basis and keyed by packed monomial codes
(`superpoly.x_codes`, sum_j a_j 2^(16 j) with a guard bit atop each field):
a leading monomial divides x^a when no field of (code(a) | guard) - code(lm)
borrows its guard bit, and a tail term e of the reducer shifts x^a by the
signed code difference code(e) - code(lm).
Buchberger and `normal_form` keep exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import factorial
from operator import sub

from .linalg import _content_reduce
from .records import Value
from .superpoly import SuperPoly, code_guard, monomial_code, unchecked, x_codes, x_factorials
from .superpoly import x_shift

Exp = tuple[int, ...]


class QuotientNotFiniteError(ValueError):
    """The leading-term ideal misses a pure power of some variable."""


def leading_monomial(f: SuperPoly) -> Exp:
    """The lex-largest x-exponent of a nonzero theta-free polynomial."""
    return max(f.terms)[0]


def monic(f: SuperPoly) -> SuperPoly:
    """f divided by its leading coefficient; zero stays zero."""
    if not f.terms:
        return f
    inv = 1 / f.terms[max(f.terms)]
    return unchecked(SuperPoly, f.n, {k: c * inv for k, c in f.terms.items()})


def _divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exp, b: Exp) -> Exp:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: SuperPoly, basis, lms=None) -> SuperPoly:
    """Remainder of multivariate division by the (monic) basis polynomials.

    No monomial of the result is divisible by any basis leading monomial; the
    map is linear in f and idempotent.  ``lms``, the basis's leading
    monomials in order, spares recomputing them.
    """
    gens = basis.generators if isinstance(basis, GroebnerBasis) else basis
    if lms is None:
        lms = [leading_monomial(g) for g in gens]
    work = {e: c for (e, _), c in f.terms.items()}
    remainder = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for lm, g in zip(lms, gens):
            if _divides(lm, e):
                shift = tuple(a - b for a, b in zip(e, lm))
                factor = c / g.terms[(lm, ())]
                for (ge, _), gc in g.terms.items():
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
            remainder[(e, ())] = c  # e leaves work for good: later keys are smaller
    return unchecked(SuperPoly, f.n, remainder)


def s_polynomial(f: SuperPoly, g: SuperPoly) -> SuperPoly:
    lf, lg = leading_monomial(f), leading_monomial(g)
    lcm = _lcm(lf, lg)
    return x_shift(f, tuple(map(sub, lcm, lf)), 1 / f.terms[(lf, ())]) - x_shift(
        g, tuple(map(sub, lcm, lg)), 1 / g.terms[(lg, ())]
    )


class GroebnerBasis(Value):
    """Reduced lex Groebner basis: monic, mutually reduced, sorted by LM."""

    n: int
    generators: tuple[SuperPoly, ...]

    def leading_monomials(self) -> list[Exp]:
        return [leading_monomial(g) for g in self.generators]

    def is_reduced(self) -> bool:
        lms = self.leading_monomials()
        for i, g in enumerate(self.generators):
            if g.terms[(lms[i], ())] != 1:
                return False
            for e, _ in g.terms:
                if any(j != i and _divides(lms[j], e) for j in range(len(lms))):
                    return False
        return True

    def to_strings(self) -> list[str]:
        return [g.to_string() for g in self.generators]


def buchberger(gens) -> GroebnerBasis:
    """Deterministic Buchberger with the product and chain criteria."""
    import heapq

    basis = [monic(g) for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("empty generating set")
    n = basis[0].n
    lms = [leading_monomial(g) for g in basis]

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
            basis.append(monic(r))
            lms.append(leading_monomial(r))
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
            r = monic(r)
            if r != basis[i]:
                basis[i] = r
                changed = True
                break
    order = sorted(range(len(basis)), key=lms.__getitem__)
    return GroebnerBasis(n, tuple(basis[i] for i in order))


def complete_homogeneous(degree: int, variables, n: int, power: int = 1) -> SuperPoly:
    """h_degree over the given 1-indexed variables, each raised to `power`.

    h_j(x_{v1}^power, ..., x_{vk}^power): the sum over multisets of size j.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    variables = list(variables)
    terms: dict = {}
    for combo in combinations_with_replacement(variables, degree):
        exp = [0] * n
        for v in combo:
            exp[v - 1] += power
        key = (tuple(exp), ())
        terms[key] = terms.get(key, 0) + 1
    return SuperPoly(n, terms)


def groebner_generators(m: int, p: int, n: int) -> list[SuperPoly]:
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
        tail = (0,) * (j - 1) + (mp,) * (n - j + 1)
        gens.append(x_shift(complete_homogeneous(j - 1, range(j, n + 1), n, power=m), tail))
    return gens


@lru_cache(maxsize=1)
def closed_form_basis(m: int, p: int, n: int, variables: int) -> tuple[SuperPoly, ...]:
    """``groebner_generators(m, p, n)`` in n variables; for S_n in the n - 1
    of its reduced presentation (x_n -> -(y_1 + ... + y_{n-1})), the lex
    basis h_j(y_{j-1}, ..., y_{n-1}), j = 2..n, of the image I' of the ideal:
    h_1(x_1, ..., x_n) and h_j(x_{j-1}, ..., x_{n-1}) are a lex basis of the
    (symmetric) ideal for x_n > x_1 > ... > x_{n-1}, and h_1 eliminates x_n.
    Kept for the latest group and presentation.
    """
    gens = groebner_generators(m, p, n)
    if variables == n:
        return tuple(gens)
    return tuple(unchecked(SuperPoly, variables, {(e[1:], t): c for (e, t), c in g.terms.items()})
                 for g in gens[1:])


@lru_cache(maxsize=1)
def _held(basis: tuple, n: int) -> dict:
    """{degree: ``normal_forms``} of the latest basis, compared by value,
    filled on first use."""
    return {}


def normal_forms(basis, n: int, degree: int) -> tuple[dict, list[int]]:
    """(nf, standard) of the degree for a monic, homogeneous, integer lex
    Groebner basis in n variables: nf maps code(a) (``superpoly.x_codes``)
    of every x^a of the degree to NF(x^a) as pairs (code(s), int) over the
    standard monomials x^s, and standard lists their codes in
    ``x_monomials`` order.  Built in increasing lex order: a non-standard
    x^a is reduced once, by the first basis element whose leading monomial
    divides it, to lex-smaller monomials of the degree.  Keyed by monomial
    code: lm divides a iff ((a | guard) - lm) & guard == guard
    (``superpoly.code_guard``), and the tail term e of the reducer sends x^a
    to the code a + (code(e) - lm).  Each degree is built once and kept
    while the basis, compared by value, is the latest one asked for; both
    ``apolar_rows`` and the derivative closure of ``harmonics`` read it.
    A degree that does not fit a code field raises before anything is built.
    """
    held = _held(tuple(basis), n)
    if degree not in held:
        held[degree] = _normal_forms(basis, n, degree)
    return held[degree]


def _normal_forms(basis, n: int, degree: int) -> tuple[dict, list[int]]:
    position, guard = x_codes(n, degree), code_guard(n)
    steps = []
    for g in basis:
        lm = leading_monomial(g)
        code = monomial_code(lm)
        steps.append((code, [(monomial_code(e) - code, -int(c))
                             for (e, _), c in g.terms.items() if e != lm]))
    nf, standard = {}, []
    for a in reversed(position):
        for lm, tail in steps:
            if ((a | guard) - lm) & guard == guard:
                out = {}
                for shift, c in tail:
                    for s, v in nf[a + shift]:
                        out[s] = out.get(s, 0) + c * v
                nf[a] = tuple((s, v) for s, v in out.items() if v)
                break
        else:
            nf[a] = ((a, 1),)
            standard.append(a)
    return nf, standard[::-1]


def apolar_rows(basis, n: int, degree: int) -> list[list[tuple[int, int]]]:
    """One content-reduced integer row over ``x_monomials(n, degree)`` per
    standard monomial x^s of the degree, in order, for a monic, homogeneous,
    integer lex Groebner basis of an ideal I: the form
        h^(s) = sum_a NF(x^a)_s degree!/a! x^a,
    read off the degree's normal-form table (``normal_forms``).
    Under the pairing <x^a, x^b> = a! [a = b], <x^a, h^(s)> = degree!
    NF(x^a)_s, so <g, h^(s)> = degree! NF(g)_s: each h^(s) is orthogonal to
    I, on which the normal form of a Groebner basis vanishes
    (``harmonics._certify`` certifies that the closed-form basis is one and
    that its ideal contains the group's).  A standard x^s has NF(x^s) = x^s
    and every normal form lies on the standard columns, so each row's only
    standard column is its own: the rows are unitriangular there, hence
    independent, by construction.
    """
    nf, standard = normal_forms(basis, n, degree)
    position, facts, top = x_codes(n, degree), x_factorials(n, degree), factorial(degree)
    forms = {s: {} for s in standard}
    for a, row in nf.items():
        col = position[a]
        weight = top // facts[col]
        for s, v in row:
            forms[s][col] = v * weight
    return [_content_reduce(sorted(form.items())) for form in forms.values()]


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
