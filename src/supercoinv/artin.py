"""Sub-staircase diagrams, p-contraction, and the monomial bases A(m, p, n).

A diagram is an exponent vector (a_1, ..., a_n); row i has a_i cells.  Type
G(m, 1, n) diagrams satisfy a_i < i*m.  The type G(m, p, n) diagrams are the
p-contraction images of those, equivalently the vectors admitting a pivot j
with

    a_i < i*m        for i < j,
    a_j < m/p,
    m/p <= a_i < m/p + (i-1)*m   for i > j,

and equivalently (hook criterion) the type G(m, 1, n) diagrams containing no
hook: a_j >= m/p + (j-1)*m together with a_i >= m/p for all i > j.

p-contraction compiles to arithmetic on the exponent vector: with i* the
largest index where a_{i*} < m, every row l >= i* keeps its cells beyond
column m and has its first min(a_l, m) cells replaced by floor(min(a_l, m)/p).
"""

from __future__ import annotations

from itertools import product
from math import factorial

from .qseries import QPoly, q_integer


def is_substaircase(rows, m: int) -> bool:
    """Type G(m, 1, n) condition: a_i < i*m for all i."""
    return all(0 <= a < (i + 1) * m for i, a in enumerate(rows))


def p_contract(rows, m: int, p: int) -> tuple[int, ...]:
    """Contract the lower-left width-m rectangle horizontally by a factor p."""
    if m % p:
        raise ValueError("p must divide m")
    rows = tuple(rows)
    if not is_substaircase(rows, m):
        raise ValueError(f"{rows} is not a sub-staircase diagram for m={m}")
    if p == 1:
        return rows
    pivot = max(i for i, a in enumerate(rows) if a < m)
    out = list(rows)
    for i in range(pivot, len(rows)):
        inside = min(out[i], m)
        out[i] = inside // p + max(out[i] - m, 0)
    return tuple(out)


def is_hook_free(rows, m: int, p: int) -> bool:
    """True iff no hook diagram fits inside; characterizes p-contraction images."""
    mp = m // p
    n = len(rows)
    for j in range(1, n + 1):
        if rows[j - 1] >= mp + (j - 1) * m and all(
            rows[i - 1] >= mp for i in range(j + 1, n + 1)
        ):
            return False
    return True


def enumerate_type_m1(m: int, n: int):
    """All type G(m, 1, n) exponent vectors, lexicographically."""
    return product(*(range(i * m) for i in range(1, n + 1)))


def enumerate_artin(m: int, p: int, n: int) -> list[tuple[int, ...]]:
    """All type G(m, p, n) exponent vectors, lex-sorted.

    Enumerates the disjoint pivot decomposition directly; the cardinality is
    m^n n!/p.
    """
    if m % p:
        raise ValueError("p must divide m")
    mp = m // p
    out = []
    for j in range(1, n + 1):
        ranges = []
        for i in range(1, n + 1):
            if i < j:
                ranges.append(range(i * m))
            elif i == j:
                ranges.append(range(mp))
            else:
                ranges.append(range(mp, mp + (i - 1) * m))
        out.extend(product(*ranges))
    out.sort()
    return out


def enumerate_artin_recursive(m: int, p: int, n: int) -> list[tuple[int, ...]]:
    """Alternate construction via the last-row recursion; used as a cross-check.

    A(m,p,n) = {a : a_i < i*m for i < n, a_n < m/p}
               |_| union over j in [m/p, (n-1)m + m/p) of x_n^j A(m,p,n-1).
    """
    if m % p:
        raise ValueError("p must divide m")
    mp = m // p
    if n == 1:
        return [(a,) for a in range(mp)]
    out = []
    for head in product(*(range(i * m) for i in range(1, n))):
        for last in range(mp):
            out.append(head + (last,))
    smaller = enumerate_artin_recursive(m, p, n - 1)
    for j in range(mp, (n - 1) * m + mp):
        for head in smaller:
            out.append(head + (j,))
    out.sort()
    return out


def artin_count(m: int, p: int, n: int) -> int:
    return m**n * factorial(n) // p


def artin_hilbert(m: int, p: int, n: int) -> QPoly:
    """[m]_q [2m]_q ... [(n-1)m]_q [n m/p]_q, the degree generating function."""
    if m % p:
        raise ValueError("p must divide m")
    out = QPoly.one()
    for i in range(1, n):
        out = out * q_integer(i * m)
    return out * q_integer(n * m // p)


def generating_polynomial(diagrams) -> QPoly:
    """Sum of q^{|d|} over an iterable of exponent vectors."""
    coeffs: dict[int, int] = {}
    for rows in diagrams:
        d = sum(rows)
        coeffs[d] = coeffs.get(d, 0) + 1
    return QPoly(coeffs)
