"""Bidegree-by-bidegree exact computation of super harmonic spaces.

The super harmonics of G are the differential forms annihilated by every
derivative operator attached to the coinvariant ideal; since that ideal is
generated by the basic invariants f_i together with their exterior
derivatives d f_i, the bidegree-(i, k) harmonic space is the common kernel of
the 2n operators  d_{f_i}, d_{d f_i}  restricted to the (i, k) monomial cell.
The (i, 0) cell holds the rows of the f_i alone; its kernel, the classical
harmonics H_i, takes no elimination: it is read off the paper's closed-form
Groebner basis, one form per standard monomial (``groebner.apolar_rows``),
from a basis certified once (``_certify``) and with Chevalley's count
(``_classical_harmonics``).  The f_i have no theta, so on an
(i, k) cell their rows are those of the (i, 0) cell times the identity on
the theta words, and the cell is solved on H_i (x) Lambda^k: only the d f_i
rows are eliminated there, on dim H_i * C(n, k) columns, and bases are
lifted back through the H_i basis.

Everything is exact rational linear algebra on sparse integer matrices.  Cell
matrices are assembled directly as content-reduced integer rows: the
generators have integer coefficients (rational ones are first scaled by the
lcm of their denominators, which leaves every reduced row unchanged), and
each entry is a falling factorial times a Koszul sign, read from per-degree
tables (``_derivative_sources``).  The tables hold no exponent tuples: each
x-monomial of a degree has one packed integer code (``superpoly.x_codes``,
sum_j a_j 2^(16 j)), so the position of x^(rest + beta) is one dict lookup
of code(rest) + code(beta), and the falling factorials prod_j
perm(a_j, beta_j) are a! / rest! from one factorial table per degree
(``superpoly.x_factorials``).  The rows are streamed into the
incremental Gauss-Jordan eliminator of ``linalg``, which stops pulling rows
once the rank reaches the cell dimension; ranks, reduced echelon bases and
nullspaces all come from that one path.

The generator operators are certified one way, before any use
(``_certified``): an f_i operator is x-derivatives of one degree d, and so
is each piece of d_{d f_i} = sum_l (d f_i / d x_l)(d) d/dtheta_l split by
theta-index (``_theta_pieces``, which refuses any other shape), so each is
fixed by its row on its own (d, 0) cell, which must be the ideal product
1 * g up to the diagonal scaling of the pairing.  They are certified once
per presentation; the d f_i pieces are applied to H_i (``_x_images``,
``_theta_products``), and a cell (i, k >= 1) builds its rows from those
products and the contractions d/dtheta_l theta_I = +-theta_J, whose signs
are checked once per k against theta_J theta_l (``_contractions``).  Every
cell's operator and ideal matrices then agree up to diagonal scaling, so
they have the same rank and the harmonic count equals the quotient-side
count.  This proves equal ranks, not that the one elimination is right (the
reference-rank tests and the golden table rows cover that).
``checks.exactness_check`` tests its images with the same certified
operators.  ``coinvariant_cell_dimension`` keeps the full quotient-side
route.

H_i itself is certified without any operator.  The closed-form basis G is
certified once per basis and presentation (``_certify``): its elements are
monic, homogeneous and integral; by Buchberger's criterion, the S-polynomial
of every pair whose leading monomials are not coprime reduces to 0 in the
normal-form table of its degree; and every theta-free generator reduces to
0.  Each degree's table is then the normal form modulo (G), which contains
I, so every apolar row h^(s) pairs with g in I_i as i! NF(g)_s = 0 and is
harmonic; the rows are independent, and as many as Chevalley's prod_i
[d_i]_q counts, so they span H_i (and (G)_i = I_i).

For S_n (n >= 2) the dimension cells are computed in the reduced presentation
of ``GroupData.cell_presentation``: the ideal contains f_1 = x_1 + ... + x_n
and d f_1 = theta_1 + ... + theta_n, and substituting x_n -> -(y_1 + ... +
y_{n-1}), theta_n -> -(eta_1 + ... + eta_{n-1}) identifies the quotient with
Q[y, eta]/I' in every bidegree, so a cell has C(i+n-2, n-2) C(n-1, k) columns
instead of C(i+n-1, n-1) C(n, k).  The pairing argument and the
certificates hold in any polynomial ring, so they run unchanged there, and
H_i is read off the image of the closed-form basis; the budget estimates
stay those of the x-presentation.  Bases (``harmonic_cell``,
``harmonic_cells``, ``kernel_intersection``, exactness, support) stay in x,
because they are the harmonics themselves.

The support of the harmonics is a down-set: SH is closed under every d/dx_j
and d/dtheta_j, so a zero at (i', k') certifies SH^{i,k} = 0 for i >= i',
k >= k'.  One walker, ``_walk``, serves the whole-table entry points
(``sh_dim_table``, ``harmonic_cells``, the top row of
``checks.fitting_structures``): it goes one x-degree at a time, in
increasing i, and computes a row's cells in increasing k up to its first
zero, or up to the smallest k of a zero in an earlier row; the cells past
it are recorded as zero without being built.  H_i and the d f_i products on
it are needed by row i alone, so they are held for the length of that row
(``_walk_row``) and never beyond it.  Cells whose matrices would exceed the
cell budget (rows x columns entries) are refused with a size estimate; the
walker checks every cell, skipped or not, before it computes the first one.

The det-isotypic elements e_S = d_{i_1}...d_{i_k} Delta are certified
harmonic by one identity, not by 2n operator applications each: an ext
derivative D = sum c theta_l d_x^gamma and a d f_j operator G = sum_l
g_l(d_x) d/dtheta_l satisfy G D + D G = h(d_x), h = sum c x^gamma g_l, and D
commutes with the f_j operators, so e_S = D e' is harmonic iff every h(d_x)
kills the harmonic e'.  Operators of other shapes are refused.

Their derivative closure is walked one x-degree at a time, top down
(``_derivative_ranks``): only the rows found independent one x-degree higher
are differentiated, by one x_j at a time, and a level stops once its rank
fills its columns.  Seeded with Gamma alone, the same walk gives the
Ann(Gamma) ranks of ``checks.fitting_structures``.  It runs in the standard
coordinates of the cell presentation: a harmonic v of x-degree i is kept as
u_s = s! v_s over the standard monomials x^s of the closed-form Groebner
basis (for S_n the x_n-free ones), which fixes v, and d/dx_j is the
transpose of multiplication by x_j on Q[x]/I, read off the normal forms
that H_i is read off (``groebner.normal_forms``, one table per degree with
two readers, of a basis certified once for both).  A row has dim H_i *
C(n, k) columns, not those of the whole cell, and the tables are built once
per x-degree for every theta-degree (``_standard_level``); each degree's
standard count must be Chevalley's.

The named checks (exactness, the Laplacian spectrum, the Fitting apparatus,
support) live in ``checks`` and are importable from here too.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from itertools import chain, combinations, product, repeat
from operator import add

from . import groebner, linalg
from .dimtable import DimTable
from .groups import GroupData, GroupSpec, IntegrityError, ReducedPresentation
from .qseries import QPoly, clear_denominators, q_integer
from .records import Value
from .superpoly import (
    CODE_BITS,
    Monomial,
    SuperPoly,
    merge_thetas,
    monomial_code,
    partial_operator,
    theta_action,
    unchecked,
    x_codes,
    x_factorials,
    x_monomials,
)

DEFAULT_CELL_BUDGET = 2 * 10**7


class FeasibilityError(RuntimeError):
    """A cell was refused because it exceeds the cell budget."""

    def __init__(self, group: GroupSpec, bidegree, estimate: int, budget: int):
        self.group = group
        self.bidegree = bidegree
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"bidegree {bidegree} of {group.label()} needs ~{estimate} matrix "
            f"entries, over the cell budget {budget}"
        )

    def __reduce__(self):
        # Worker processes send the error back pickled; rebuild it from the
        # constructor arguments rather than from the formatted message.
        return (type(self), (self.group, self.bidegree, self.estimate, self.budget))


class Subspace(Value):
    """Subspace of a bidegree cell, held by its canonical basis.

    ambient: the ordered monomial basis of the cell; basis: the IntRows of
    ``linalg.rref``, each the primitive integer multiple, with a positive
    pivot, of a row of the reduced row echelon form.  That form is
    canonical, so equality of subspaces is equality of this data.
    """

    ambient: tuple[Monomial, ...]
    basis: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __bool__(self) -> bool:  # the zero subspace is falsy, like dimension 0
        return bool(self.basis)

    def vectors(self, n: int) -> list[SuperPoly]:
        """The reduced row echelon rows: each basis row over its pivot."""
        return [SuperPoly(n, {self.ambient[c]: Fraction(v, row[0][1]) for c, v in row})
                for row in self.basis]

    @staticmethod
    def from_vectors(ambient, vectors) -> "Subspace":
        rows = linalg.rref(vectors, len(ambient))
        return Subspace(tuple(ambient), tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Monomial cells
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cell_monomials(n: int, i: int, k: int) -> tuple[Monomial, ...]:
    """Ordered monomial basis of the bidegree-(i, k) cell."""
    if i < 0 or k < 0 or k > n:
        return ()
    thetas = list(combinations(range(1, n + 1), k))
    return tuple((x, t) for x in x_monomials(n, i) for t in thetas)


def cell_dimension(n: int, i: int, k: int) -> int:
    if i < 0 or k < 0 or k > n:
        return 0
    return comb(i + n - 1, n - 1) * comb(n, k)


# ---------------------------------------------------------------------------
# Integer row assembly
# ---------------------------------------------------------------------------


def _reduced_row(entries) -> linalg.IntRow:
    """Content-reduced IntRow from (column, int) pairs with distinct columns."""
    return linalg._content_reduce(sorted((col, v) for col, v in entries if v))


def _poly_row(f: SuperPoly, index: dict[Monomial, int]) -> linalg.IntRow:
    """Content-reduced IntRow of f over the monomial columns of index."""
    return _reduced_row((index[mon], c) for mon, c in clear_denominators(f.terms)[1])


def _cell_index(n: int, i: int, k: int) -> dict[Monomial, int]:
    return {mon: col for col, mon in enumerate(cell_monomials(n, i, k))}


@lru_cache(maxsize=1)
def _degree_tables(n: int, i: int) -> dict:
    """The ``_derivative_sources`` tables of x-degree i, filled on first use
    by the d f_j pieces applied to H_i; only the latest x-degree is kept,
    which a walk visits in one row, so it builds each degree's tables once."""
    return {}


def _derivative_sources(n: int, i: int, beta) -> tuple[tuple[int, ...], ...]:
    """(positions, weights), aligned with ``x_monomials(n, i - |beta|)``: for
    each x^rest there, the position of x^a = x^beta * x^rest among the
    degree-i x-monomials, one lookup of code(rest) + code(beta) in
    ``x_codes``, and the factor a! / rest! = prod_j perm(a_j, beta_j) that
    d_x^beta multiplies x^a by, read from ``x_factorials``."""
    tables = _degree_tables(n, i)
    if beta not in tables:
        positions, b, rest = x_codes(n, i), monomial_code(beta), i - sum(beta)
        xis = tuple(positions[c + b] for c in x_codes(n, rest))
        facts = x_factorials(n, i)
        tables[beta] = xis, tuple(facts[xi] // f for xi, f in zip(xis, x_factorials(n, rest)))
    return tables[beta]


def _ideal_rows(gens, n: int, i: int, k: int):
    """Rows of the products mu * g that span the ideal's part of the (i, k) cell.

    Generator-major, then mu over the cell of the complementary bidegree in
    cell order; zero products are skipped and each row is content-reduced.
    """
    index = _cell_index(n, i, k)
    for g in gens:
        gi, gk = g.bidegree()
        terms = clear_denominators(g.terms)[1]
        for mx, mt in cell_monomials(n, i - gi, k - gk):
            row = []
            for (gx, gt), c in terms:
                merged = merge_thetas(mt, gt)
                if merged is not None:
                    sign, word = merged
                    row.append((index[tuple(map(add, mx, gx)), word], sign * c))
            if row:
                yield _reduced_row(row)


# ---------------------------------------------------------------------------
# Kernel / quotient computations per cell
# ---------------------------------------------------------------------------


def _estimate_kernel_entries(gd: GroupData, i: int, k: int) -> int:
    """rows x cols of the (i, k) operator matrix, read off the degrees d_j.

    d_{f_j} and d_{d f_j} lower the bidegree by that of f_j, (d_j, 0), and of
    d f_j, (d_j - 1, 1); the ideal-side matrix, products mu * g of the same
    generators, has the same shape, so this one estimate serves both sides.
    """
    n = gd.n
    rows = sum(
        cell_dimension(n, i - d, k) + cell_dimension(n, i - d + 1, k - 1)
        for d in gd.spec.degrees
    )
    return rows * cell_dimension(n, i, k)


def check_cell_budget(gd: GroupData, i: int, k: int, budget: int):
    est = _estimate_kernel_entries(gd, i, k)
    if est > budget:
        raise FeasibilityError(gd.spec, (i, k), est, budget)


def harmonic_cell_dimension(
    gd: GroupData, i: int, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> int:
    """dim of the bidegree-(i, k) harmonic space.

    Computed in ``gd.cell_presentation()`` (for S_n the reduced presentation
    in n - 1 variables, whose (i, k) part has the same dimension): dim H_i
    (``_classical_harmonics``, certified) for k = 0, else the corank of
    ``_theta_rows``, built from the certified pieces (``_theta_products``).
    The budget is always that of the x-presentation, so refusals do not
    depend on the route.
    """
    if cell_dimension(gd.n, i, k) == 0:
        return 0
    check_cell_budget(gd, i, k, budget)
    pres = gd.cell_presentation()
    if cell_dimension(pres.n, i, k) == 0:
        return 0
    classical, products = _degree_data(pres, i, k)
    if k == 0:
        return len(classical)
    cols = len(classical) * comb(pres.n, k)
    return cols - linalg.rank(_theta_rows(pres.n, k, products), cols)


# The x-degree data of ``_degree_data`` for the row that ``_walk_row`` is
# computing, set for the length of its call and reset when it returns or
# raises; None outside a walk.
_row_data: dict | None = None


def _degree_data(pres: GroupData | ReducedPresentation, i: int, k: int):
    """(H_i, products): H_i from ``_classical_harmonics``; for k >= 1 and
    H_i != 0, products are ``_theta_products`` on it, else None.  Inside a
    walk both are taken from, or left for, the later cells of the row."""
    held = {} if _row_data is None else _row_data
    data = held.get(i)
    if data is None:
        data = held[i] = _classical_harmonics(pres, i), None
    if k and data[0] and data[1] is None:
        data = held[i] = data[0], _theta_products(pres, i, data[0])
    return data


def _classical_harmonics(pres: GroupData | ReducedPresentation, i: int) -> list:
    """H_i as content-reduced integer rows over the degree-i x-monomials, one
    per standard monomial of the paper's closed-form Groebner basis, in order
    (``groebner.apolar_rows``, whose rows are independent by construction).

    Certified, or IntegrityError: the basis is certified once
    (``_certified_basis``), so the normal-form table of degree i vanishes on
    I_i and every row, pairing with g in I_i as i! NF(g)_s = 0, is harmonic;
    and the rows are as many as the q^i coefficient of Chevalley's
    prod_j [d_j]_q (of the certified f_j, ``_f_operators``), dim H_i, so
    they span H_i.
    """
    spec, n = pres.spec, pres.n
    _, chevalley = _f_operators(spec, tuple(pres.ideal_generators()),
                                tuple(pres.harmonic_generator_operators()))
    rows = groebner.apolar_rows(_certified_basis(pres), n, i)
    if len(rows) != chevalley.coefficient(i):
        raise IntegrityError(
            f"{spec.label()}: theta-degree 0 row has {len(rows)} at q^{i}, not "
            f"{chevalley.coefficient(i)} as prod [d]_q over the degrees {spec.degrees}"
        )
    return rows


def _certified_basis(pres: GroupData | ReducedPresentation) -> tuple:
    """``groebner.closed_form_basis`` of ``pres``, certified (``_certify``)."""
    spec, n = pres.spec, pres.n
    basis = tuple(groebner.closed_form_basis(spec.m, spec.p, spec.n, n))
    _certify(spec, n, basis, tuple(pres.ideal_generators()))
    return basis


@lru_cache(maxsize=1)
def _certify(spec: GroupSpec, n: int, basis: tuple, generators: tuple) -> None:
    """Certifies once, for the latest basis and generators compared by value,
    that each degree's table of ``groebner.normal_forms`` is the normal form
    modulo the ideal (G) of ``basis`` and that (G) contains the ideal I of
    the theta-free ``generators``; else IntegrityError.
    (a) Every element is monic, homogeneous, theta-free and integral, so the
        tables are built without rounding and x^a - NF(x^a) is a sum of
        x^b g with x^b lm(g) <= x^a.
    (b) Buchberger's criterion: the S-polynomial of every pair whose leading
        monomials are not coprime (the product criterion spares the others;
        for p = 1 that is every pair) reduces to 0 in the table of the
        degree of their lcm; S - NF(S) is then a sum of x^b g with
        x^b lm(g) < lcm, so G is a Groebner basis and NF is unique.
    (c) Every theta-free generator reduces to 0 in its degree's table.
    Then NF vanishes on (G)_i, which holds I_i, in every degree i."""
    refuse, lms = f"{spec.label()}: the closed-form basis is not certified: ", []
    for j, g in enumerate(basis):
        lm = max(g.terms)  # (exponent, theta word)
        if g.terms[lm] != 1 or any(sum(e) != sum(lm[0]) or t or c.denominator != 1
                                   for (e, t), c in g.terms.items()):
            raise IntegrityError(f"{refuse}element {j} is not monic, homogeneous and integral")
        lms.append(lm[0])
    for (a, la), (b, lb) in combinations(enumerate(lms), 2):
        lcm = tuple(map(max, la, lb))
        if lcm != tuple(map(add, la, lb)) and _nonzero_normal_form(
                basis, n, sum(lcm), groebner.s_polynomial(basis[a], basis[b])):
            raise IntegrityError(f"{refuse}the S-polynomial of elements {a} and {b} does "
                                 "not reduce to 0")
    for j, f in enumerate(generators):
        d, k = f.bidegree()
        if not k and _nonzero_normal_form(basis, n, d, f):
            raise IntegrityError(f"{refuse}ideal generator {j} does not reduce to 0")


def _nonzero_normal_form(basis: tuple, n: int, d: int, f: SuperPoly) -> bool:
    """Whether f, theta-free of degree d, has a nonzero normal form in the
    degree's table of ``groebner.normal_forms``."""
    nf, out = groebner.normal_forms(basis, n, d)[0], Counter()
    for (e, _), c in clear_denominators(f.terms)[1]:
        for s, v in nf[monomial_code(e)]:
            out[s] += c * v
    return any(out.values())


def _x_images(n: int, i: int, rows, operators):
    """(operator index, x^t, [(h, value)]): the IntRows ``rows`` under each
    operator at every x-monomial x^t that some row reaches, zero values left
    out.  An operator is a sum of x-only pieces (offset, terms (beta, c)) of
    one degree; a piece reads the rows at offset plus the positions of the
    degree-i x-monomials, so a row may hold several such blocks.  Read off
    ``_derivative_sources`` one target at a time, with no operator matrix
    held: one more than doubled the peak memory of S_6's theta-degree 0
    column."""
    by_x = {}
    for h, vec in enumerate(rows):
        for xi, b in vec:
            by_x.setdefault(xi, []).append((h, b))
    for oi, pieces in enumerate(operators):
        sources = [(off, c, *_derivative_sources(n, i, beta))
                   for off, terms in pieces for beta, c in terms]
        for r, tx in enumerate(x_monomials(n, i - sum(pieces[0][1][0][0]))):
            acc = {}
            for off, c, xis, weights in sources:
                hits = by_x.get(off + xis[r])
                if hits:
                    cw = c * weights[r]
                    for h, b in hits:
                        acc[h] = acc.get(h, 0) + cw * b
            if acc:
                yield oi, tx, sorted((h, v) for h, v in acc.items() if v)


def _certified(spec: GroupSpec, what: str, oi: int, d: int, gen: dict, op: dict) -> list:
    """The terms (beta, c) of the operator ``op`` of generator ``oi``,
    certified against the generator's terms ``gen`` (both term maps), or
    IntegrityError.

    Under the pairing <x^a theta_I, x^a theta_I> = a!, for a generator g and
    monomials mu, nu
        coeff_nu(mu g) nu_x! = eps coeff_mu(d_g nu) mu_x!,
    eps = (-1)^(theta-degree of g * theta-degree of mu), so the operator-side
    and ideal-side matrices of a cell agree up to diagonal scaling.  ``op``
    must be x-derivatives of degree d alone, so it is fixed by its (d, 0)
    cell, where this reads: its coefficient of d^beta, times beta!, is that
    of x^beta in 1 * gen, times beta!, so the integers of ``clear_denominators``
    must agree."""
    terms = {dx: c for (mx, mt, dx, dt), c in clear_denominators(op)[1]
             if not (any(mx) or mt or dt or sum(dx) != d)}
    if len(terms) != len(op):
        raise IntegrityError(f"{spec.label()}: {what} acts on theta or is not x-derivatives "
                             f"of its degree alone (operator {oi})")
    wrong = terms.items() ^ {gx: c for (gx, _), c in clear_denominators(gen)[1]}.items()
    if wrong:
        raise IntegrityError(f"{spec.label()} bidegree ({d},0): {what} disagrees with the "
                             f"ideal product at column x^{min(wrong)[0]} (operator {oi})")
    return list(terms.items())


@lru_cache(maxsize=1)
def _f_operators(spec: GroupSpec, generators: tuple, operators: tuple):
    """The f_j operators (of the theta-free generators) as ``_x_images``
    reads them, [(0, terms (beta, c))], certified once for the latest
    generators and operators on their own (d_j, 0) cells (``_certified``),
    then applied by ``checks``; also Chevalley's prod_j [d_j]_q of the group."""
    ops = [[(0, _certified(spec, "an f_j operator", oi, g.bidegree()[0], g.terms, op.terms))]
           for oi, (g, op) in enumerate(zip(generators, operators)) if not g.bidegree()[1]]
    return ops, _chevalley(spec.degrees)


@lru_cache(maxsize=None)
def _chevalley(degrees: tuple[int, ...]) -> QPoly:
    """Chevalley's prod_j [d_j]_q: dim H_i is its q^i coefficient."""
    return prod(map(q_integer, degrees), start=QPoly.one())


@lru_cache(maxsize=1)
def _theta_pieces(spec: GroupSpec, generators: tuple, operators: tuple):
    """Every d f_j operator split by theta-index into x-only pieces, each
    certified once for the latest generators and operators on its own
    (d_j - 1, 0) cell (``_certified``), then applied to every H_i:
    (generator index, l, the terms (beta, c) of (d f_j / d x_l)(d_x)), in
    increasing l.  The pieces keep the integers of the whole generator and
    operator, so they give the content-reduced rows of the whole.  Raises
    IntegrityError unless every d f_j term has one theta, every term of its
    operator one d/dtheta_l, and both carry the same theta-indices."""
    out = []
    for oi, (g, op) in enumerate(zip(generators, operators)):
        d, k = g.bidegree()
        if not k:
            continue
        gens, ops = {}, {}
        for (gx, gt), c in clear_denominators(g.terms)[1]:
            gens.setdefault(gt, {})[gx, ()] = c
        for (mx, mt, dx, dt), c in clear_denominators(op.terms)[1]:
            ops.setdefault(dt, {})[mx, mt, dx, ()] = c
        if k != 1 or gens.keys() != ops.keys():
            raise IntegrityError(f"{spec.label()}: operator {oi} is not its generator's "
                                 "x-derivatives times one d/dtheta_l each")
        for (l,) in sorted(gens):
            what = f"the theta_{l} piece of a d f_j operator"
            out.append((oi, l, _certified(spec, what, oi, d, gens[l,], ops[l,])))
    return out


def _theta_products(pres: GroupData | ReducedPresentation, i: int, classical):
    """The certified d f_j pieces (``_theta_pieces``) applied to the H_i
    basis ``classical`` (``_x_images``): {(generator index, target
    x-monomial): {l: [(h, value)]}}, h the index of an H_i vector.  No
    operator matrix is built or checked here."""
    n, out = pres.n, {}
    pieces = _theta_pieces(pres.spec, tuple(pres.ideal_generators()),
                           tuple(pres.harmonic_generator_operators()))
    for p, tx, acc in _x_images(n, i, classical, [[(0, terms)] for *_, terms in pieces]):
        if acc:
            oi, l, _ = pieces[p]
            out.setdefault((oi, tx), {})[l] = acc
    return out


@lru_cache(maxsize=None)
def _contractions(n: int, k: int) -> tuple:
    """(theta word J of degree k - 1, [(l, sign, t)]) for every J in order:
    d/dtheta_l theta_I = sign theta_J, I the word of column t of degree k.

    Each sign is checked against the product theta_J theta_l =
    eps sign theta_I, eps = (-1)^(k - 1) of the pairing, so that with the
    x-only check of the pieces the entries of the d f_j on the (i, k) cell
    equal the ideal products up to the same diagonal scaling."""
    eps = -1 if (k - 1) & 1 else 1
    out = {t: [] for _, t in cell_monomials(n, 0, k - 1)}
    for t, (_, word) in enumerate(cell_monomials(n, 0, k)):
        for l in word:
            sign, short = theta_action((), (l,), word)
            if merge_thetas(short, (l,)) != (eps * sign, word):
                raise IntegrityError(
                    f"d/dtheta_{l} on theta word {word} disagrees with the product"
                )
            out[short].append((l, sign, t))
    return tuple((short, tuple(hits)) for short, hits in out.items())


def _theta_rows(n: int, k: int, products):
    """Content-reduced rows of the d f_j on H_i (x) Lambda^k, where the forms
    of the cell killed by every f_j lie, built from ``_theta_products`` by
    ``_contractions``.  Column h * C(n, k) + t is vector h of H_i times theta
    word t; the rows come in (generator, target monomial) order.  With no
    columns, none is pulled."""
    width = comb(n, k)
    contractions = _contractions(n, k)
    for key in sorted(products):
        by_l = products[key]
        for _, hits in contractions:
            row = [(h * width + t, sign * v)
                   for l, sign, t in hits for h, v in by_l.get(l, ())]
            if row:
                yield linalg._content_reduce(sorted(row))


def coinvariant_cell_dimension(
    gd: GroupData, i: int, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> int:
    """Quotient-side oracle: ambient dim minus rank of the ideal's cell span."""
    n = gd.n
    cols = cell_dimension(n, i, k)
    if cols == 0:
        return 0
    check_cell_budget(gd, i, k, budget)
    rows = _ideal_rows(gd.ideal_generators(), n, i, k)
    return cols - linalg.rank(rows, cols)


def kernel_intersection(
    pres: GroupData | ReducedPresentation, i: int, k: int
) -> Subspace:
    """Reduced-echelon basis of the (i, k) harmonics of a presentation: H_i
    for k = 0, else the kernel of ``_theta_rows`` taken back to the cell."""
    classical, products = _degree_data(pres, i, k)
    vectors = classical
    if k:
        width = comb(pres.n, k)
        vectors = []
        for vec in linalg.nullspace(_theta_rows(pres.n, k, products), len(classical) * width):
            lifted = {}
            for col, a in vec:
                h, t = divmod(col, width)
                for xi, b in classical[h]:
                    lifted[xi * width + t] = lifted.get(xi * width + t, 0) + a * b
            vectors.append(lifted)
    return Subspace.from_vectors(cell_monomials(pres.n, i, k), vectors)


def harmonic_cell(gd: GroupData, i: int, k: int, budget: int = DEFAULT_CELL_BUDGET) -> Subspace:
    if cell_dimension(gd.n, i, k) == 0:
        return Subspace((), ())
    check_cell_budget(gd, i, k, budget)
    return kernel_intersection(gd, i, k)


def _cell_range(gd: GroupData):
    dmax = gd.spec.degree_of_vandermondian
    for k in range(gd.n + 1):
        for i in range(dmax + 1):
            yield i, k


def _walk(gd: GroupData, cells, budget: int, compute, mapper=map) -> dict:
    """``compute(gd, i, k, budget)`` on every cell the down-set leaves open.

    SH is closed under every d/dx_j and d/dtheta_j (each commutes, up to
    sign, with g(d) for every g in the ideal), and in characteristic 0 a
    nonzero form of x-degree i > 0 (theta-degree k > 0) has a nonzero
    d/dx_j (d/dtheta_j), so SH^{i',k'} = 0 forces SH^{i,k} = 0 for every
    i >= i', k >= k'.  Every cell's budget, skipped or not, is checked
    before the first one is computed.  The cells are then grouped into rows
    of one x-degree, handed in increasing i to one ``mapper`` call
    (``pool_map`` or the builtin ``map``) of ``_walk_row``, which stops a
    row at its first zero.  A row's ks are cut, as it is handed out, below
    the smallest k of a zero found in an earlier row: the builtin ``map``
    asks for row i only after row i - 1 has returned, so a serial walk
    computes no cell past a zero of an earlier row; a pool collects every
    row at once, so its rows stop only at their own zeros, and the extra
    cells it computes are zeros.  A computed value is zero when it is falsy
    (a dimension 0, the zero Subspace).  Returns the computed values in the
    order of ``cells``; the skipped cells, all zero, are left out.
    """
    for i, k in cells:
        check_cell_budget(gd, i, k, budget)
    rows = {}
    for i, k in sorted(cells):
        rows.setdefault(i, []).append(k)
    stop, found = gd.n + 1, {}

    def handed():
        for ks in rows.values():
            yield [k for k in ks if k < stop]

    results = mapper(_walk_row, repeat(compute), repeat(gd), rows, handed(), repeat(budget))
    for i, values in zip(rows, results):
        for k, value in values.items():
            found[i, k] = value
            if not value:
                stop = min(stop, k)
    return {cell: found[cell] for cell in cells if cell in found}


def _walk_row(compute, gd: GroupData, i: int, ks, budget: int) -> dict:
    """{k: ``compute(gd, i, k, budget)``} for the ks in increasing order, up
    to the first zero.  ``_degree_data`` keeps the x-degree data of the row
    (H_i, and the d f_j products on it) for the length of this call, so each
    is computed once per row."""
    global _row_data
    _row_data, values = {}, {}
    try:
        for k in ks:
            values[k] = compute(gd, i, k, budget)
            if not values[k]:
                break
        return values
    finally:
        _row_data = None


def sh_dim_table(
    gd: GroupData,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> DimTable:
    """Harmonic dimensions for all i <= deg Delta, k <= n, integrity-checked.

    Dimensions above deg Delta vanish (the classical coinvariant algebra is
    zero there and the cells are quotients of its tensor layers), so they are
    recorded as zero without computation.  The cells are computed (in
    ``gd.cell_presentation()``, see ``harmonic_cell_dimension``) by
    ``_walk``, one x-degree row at a time, through the builtin ``map`` or,
    for threads > 1, through ``pool_map`` on min(threads, number of rows)
    worker processes, which start after every budget check, so a refusal
    starts none; every computed cell is certified (each H_i has the count
    of Chevalley's prod_i [d_i]_q).
    """
    def pool_map(fn, *iterables):
        from concurrent.futures import ProcessPoolExecutor

        tasks = list(zip(*iterables))
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            return list(pool.map(fn, *zip(*tasks)))

    dims = _walk(gd, list(_cell_range(gd)), budget, harmonic_cell_dimension,
                 pool_map if threads > 1 else map)
    table = DimTable(gd.spec)
    for (i, k), dim in dims.items():
        table.set(i, k, dim)
    return table


def harmonic_cells(
    gd: GroupData, budget: int = DEFAULT_CELL_BUDGET
) -> dict[tuple[int, int], Subspace]:
    """Subspace bases for every cell with i <= deg Delta, k <= n.

    Walked by ``_walk``: every cell's budget is checked before the first
    basis is computed, and a cell that the down-set makes zero is an empty
    subspace; every other basis is a computed kernel.
    """
    cells = list(_cell_range(gd))
    found = _walk(gd, cells, budget, harmonic_cell)
    return {
        cell: found[cell] if cell in found else Subspace(cell_monomials(gd.n, *cell), ())
        for cell in cells
    }


# ---------------------------------------------------------------------------
# det-isotypic basis and derivative closure
# ---------------------------------------------------------------------------


def det_isotypic_elements(gd: GroupData) -> dict[tuple[int, ...], SuperPoly]:
    """d_{i_1}...d_{i_k} Delta for every subset i_1 < ... < i_k of [r].

    e_S = D e' for D = d_{min S} and e' = e_{S - min S}, visited by
    increasing size.  Each element must be nonzero, bi-homogeneous of
    bidegree (deg Delta - sum of the chosen co-exponents, k) and harmonic,
    else IntegrityError.  Delta is checked by all 2n generator operators.
    For e_S: with D = sum_t c_t theta_(l_t) d_x^(gamma_t), every d f_j
    operator G = sum_l g_l(d_x) d/dtheta_l and every f_j operator F
    x-derivatives alone (other shapes are refused), d/dtheta_l theta_l' +
    theta_l' d/dtheta_l = delta_(l l') gives G D + D G = h(d_x), h =
    sum_t c_t x^(gamma_t) g_(l_t) (``_anticommutators``), and F D = D F.
    With e' harmonic, F e_S = D F e' = 0 and G e_S = h(d_x) e', so e_S is
    harmonic iff every h(d_x) kills e'.  An h that is zero or proportional
    to an f_j does; the others are applied.  Built once per GroupData and
    kept on it; callers must not modify the result.
    """
    if gd._det_elements is None:
        gd._det_elements = _build_det_isotypic_elements(gd)
    return gd._det_elements


def _anticommutators(gd: GroupData):
    """Yields {j: h} per ext derivative D in order: G D + D G = h(d_x) for
    the d f_j operator G, h theta-free and scaled by the lcms of D's and G's
    denominators.  Certifies the f_j operators and d f_j pieces first."""
    args = gd.spec, tuple(gd.ideal_generators()), tuple(gd.harmonic_generator_operators())
    _f_operators(*args)
    pieces = _theta_pieces(*args)
    for i, op in enumerate(gd.ext_derivatives, 1):
        if any(any(mx) or len(mt) != 1 or dt for mx, mt, _, dt in op.terms):
            raise IntegrityError(f"{gd.spec.label()}: d_{i} is not theta_l times x-derivatives")
        row, terms = {oi: Counter() for oi, _, _ in pieces}, clear_denominators(op.terms)[1]
        for oi, l, piece in pieces:
            for (_, mt, gamma, _), c in terms:
                for beta, b in piece if mt == (l,) else ():
                    row[oi][tuple(map(add, gamma, beta)), ()] += c * b
        yield {oi: unchecked(SuperPoly, gd.n, {m: Fraction(v) for m, v in h.items() if v})
               for oi, h in row.items()}


def _build_det_isotypic_elements(gd: GroupData) -> dict[tuple[int, ...], SuperPoly]:
    spec, out = gd.spec, {}
    # the h of each D that no f_j is proportional to
    kept = [[partial_operator(h) for h in row.values()
             if h and not any(map(h.scalar_ratio, gd.basic_invariants))]
            for row in _anticommutators(gd)]
    for k in range(spec.rank + 1):
        for subset in combinations(range(1, spec.rank + 1), k):
            # Delta is checked by all 2n operators, e_S = D e' by the kept h on e'
            checked = out[subset[1:]] if subset else gd.vandermondian
            elem = gd.ext_derivatives[subset[0] - 1].apply(checked) if subset else checked
            checks = kept[subset[0] - 1] if subset else gd.harmonic_generator_operators()
            what = f"det-isotypic element for subset {subset} of {spec.label()}"
            expected = (spec.degree_of_vandermondian
                        - sum(spec.coexponents[i - 1] for i in subset), k)
            # none if it vanished, several if it is not bi-homogeneous
            degrees = sorted({(sum(x), len(t)) for x, t in elem.terms})
            if degrees != [expected]:
                raise IntegrityError(f"{what} has bidegrees {degrees}, expected {expected}")
            if any(op.apply(checked) for op in checks):
                raise IntegrityError(f"{what} is not harmonic")
            out[subset] = elem
    return out


def det_isotypic_basis(gd: GroupData) -> dict[int, Subspace]:
    """Span of the det-isotypic elements, grouped by theta-degree.

    The 2^r elements must be independent, C(r, k) at each theta-degree k.
    """
    elements = det_isotypic_elements(gd)
    spec = gd.spec
    by_k: dict[int, list[SuperPoly]] = {}
    for subset, elem in sorted(elements.items()):
        by_k.setdefault(len(subset), []).append(elem)
    out: dict[int, Subspace] = {}
    total = 0
    for k, elems in sorted(by_k.items()):
        mons = sorted({mon for e in elems for mon in e.terms}, reverse=True)
        index = {mon: c for c, mon in enumerate(mons)}
        sub = Subspace.from_vectors(tuple(mons), [_poly_row(e, index) for e in elems])
        if sub.dimension != len(elems):
            raise IntegrityError(
                f"det-isotypic elements of {spec.label()} at theta-degree {k} "
                f"are dependent ({sub.dimension} < {len(elems)})"
            )
        total += sub.dimension
        out[k] = sub
    if total != 2**spec.rank:
        raise IntegrityError(
            f"det-isotypic space of {spec.label()} has dimension {total}, "
            f"expected {2 ** spec.rank}"
        )
    return out


def derivative_closure(gd: GroupData, budget: int = DEFAULT_CELL_BUDGET,
                       k: int | None = None) -> DimTable:
    """Bidegree dimensions of the span of all x-derivatives of the
    det-isotypic elements; of those of theta-degree k alone if k is given.

    d^beta = d/dx_j d^(beta - e_j), so the span W_{i,k} of the derivatives
    of bidegree (i, k) is spanned by the elements of that bidegree and
    d/dx_j W_{i+1,k}: ``_derivative_ranks`` walks each theta-degree down
    from its top x-degree, seeded with its elements, in the standard
    coordinates of ``gd.cell_presentation()``; the walks share one table
    per x-degree.  Every walked cell's budget is checked first, in x: cols
    x (number of nonzero d^beta e in the cell), which are the beta under
    some distinct x-exponent of e (d^beta is injective on the monomials it
    does not kill).
    """
    n = gd.n
    seeds = {}  # theta-degree -> x-degree -> elements
    counts: Counter[tuple[int, int]] = Counter()
    for _, elem in sorted(det_isotypic_elements(gd).items()):
        i0, ek = elem.bidegree()
        if k is not None and ek != k:
            continue
        seeds.setdefault(ek, {}).setdefault(i0, []).append(elem)
        xexps = {xexp for xexp, _ in elem.terms}
        boxes = (product(*(range(a + 1) for a in xexp)) for xexp in xexps)
        counts.update((i0 - sum(beta), ek) for beta in set(chain.from_iterable(boxes)))
    for (i, ek), count in sorted(counts.items()):
        estimate = cell_dimension(n, i, ek) * count
        if estimate > budget:
            raise FeasibilityError(gd.spec, (i, ek), estimate, budget)
    table, levels = DimTable(gd.spec), {}
    for ek, level in sorted(seeds.items()):
        for i, rank in _derivative_ranks(gd.cell_presentation(), ek, level, levels).items():
            table.set(i, ek, rank)
    return table


def _standard_level(pres: GroupData | ReducedPresentation, levels: dict, i: int):
    """({code(s): h}, lowering) of x-degree i, kept in ``levels``: h indexes
    the standard monomials x^s of the closed-form basis of ``pres`` in
    ``x_monomials`` order, and lowering[j][h] lists the (h', NF(x^(s' +
    e_j))_s) over the standard x^s' of degree i - 1, the transpose of
    multiplication by x_j on Q[x]/I.  The normal forms are those of
    ``groebner.normal_forms``, of the certified basis (``_certified_basis``).
    IntegrityError unless the standard monomials are as many as the q^i
    coefficient of Chevalley's prod_j [d_j]_q."""
    if i not in levels:
        spec, n = pres.spec, pres.n
        basis = _certified_basis(pres)
        nf, standard = groebner.normal_forms(basis, n, i)
        want = _chevalley(spec.degrees).coefficient(i)
        if len(standard) != want:
            raise IntegrityError(f"{spec.label()}: x-degree {i} has {len(standard)} standard "
                                 f"monomials, not {want} as prod [d]_q over {spec.degrees}")
        index = {s: h for h, s in enumerate(standard)}
        lowering = [[[] for _ in standard] for _ in range(n)]
        for target, below in enumerate(groebner.normal_forms(basis, n, i - 1)[1] if i else ()):
            for j, table in enumerate(lowering):
                for s, v in nf[below + (1 << CODE_BITS * j)]:
                    table[index[s]].append((target, v))
        levels[i] = index, lowering
    return levels[i]


def _standard_derivative(row: linalg.IntRow, table, width: int) -> linalg.IntRow:
    """d/dx_j of a row over the columns h * width + theta-word, through the
    entry for j of its x-degree's ``_standard_level``; content-reduced."""
    out = {}
    for col, v in row:
        h, t = divmod(col, width)
        for target, c in table[h]:
            key = target * width + t
            out[key] = out.get(key, 0) + c * v
    return linalg._content_reduce(sorted((key, v) for key, v in out.items() if v))


def _derivative_ranks(pres: GroupData | ReducedPresentation, k: int, seeds,
                      levels: dict | None = None) -> dict[int, int]:
    """{i: dim W_i} for i from the top x-degree of ``seeds`` down to 0.

    ``seeds`` maps an x-degree to harmonic forms of that x-degree and
    theta-degree k, in the n variables of the group.  A harmonic v of
    x-degree i is fixed by u_s = s! v_s over the standard monomials x^s of
    ``pres`` (for S_n the x_n-free ones): x^a - NF(x^a) lies in the ideal,
    for the table is the normal form modulo (G) and I = (G) in the degrees
    of Chevalley's count (``_certified_basis``, read by ``_standard_level``),
    so a! v_a = sum_s NF(x^a)_s u_s; slice by theta-word, this holds on
    H_i (x) Lambda^k too.  There d/dx_j is u'_s' = sum_s NF(x^(s' + e_j))_s
    u_s for j < ``pres.n`` (``_standard_level``); for S_n, d/dx_n = -sum_j
    d/dx_j on harmonics adds nothing.  W_i, the span of the x-derivatives
    of x-degree i of the seeds, is spanned by the seeds of x-degree i and
    d/dx_j W_{i+1}, so only the rows that raised the rank of W_{i+1} are
    differentiated, and a level pulls no row once its rank is its dim H_i
    C(n, k) columns.  ``levels`` holds the tables of one closure's walks."""
    levels = {} if levels is None else levels
    n = next(iter(seeds.values()))[0].n
    width, words = comb(n, k), {t: c for c, (_, t) in enumerate(cell_monomials(n, 0, k))}
    basis, ranks, lowering = [], {}, []
    for i in range(max(seeds), -1, -1):
        index, below = _standard_level(pres, levels, i)
        cols = len(index) * width
        above, basis = basis, []
        rows = chain((_standard_row(f, index, words, width) for f in seeds.get(i, ())),
                     (_standard_derivative(row, table, width)
                      for table in lowering for row in above))
        el = linalg.IntEliminator(cols)
        for row in rows:
            if el.add(row):
                basis.append(row)
                if el.rank == cols:
                    break
        ranks[i], lowering = el.rank, below
    return ranks


def _standard_row(f: SuperPoly, index: dict, words: dict, width: int) -> linalg.IntRow:
    """The content-reduced row of u = s! f[x^s theta_t] at the columns
    index[code(s)] * width + words[t]; only the standard x^s are read, by
    their exponents in f's n variables, decoded from the codes."""
    mask = (1 << CODE_BITS) - 1
    hs = {tuple(s >> CODE_BITS * j & mask for j in range(f.n)): h for s, h in index.items()}
    return _reduced_row((hs[x] * width + words[t], c * prod(map(factorial, x)))
                        for (x, t), c in clear_denominators(f.terms)[1] if x in hs)


# The named checks live in ``checks``, which reads the cell engine above.
from .checks import (  # noqa: E402
    exactness_check,
    fitting_structures,
    laplacian_spectrum_check,
    support_check,
)
