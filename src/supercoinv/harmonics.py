"""Bidegree-by-bidegree exact computation of super harmonic spaces.

The super harmonics of G are the differential forms annihilated by every
derivative operator attached to the coinvariant ideal; since that ideal is
generated by the basic invariants f_i together with their exterior
derivatives d f_i, the bidegree-(i, k) harmonic space is the common kernel of
the 2n operators  d_{f_i}, d_{d f_i}  restricted to the (i, k) monomial cell.
The (i, 0) cell holds the rows of the f_i alone; its kernel is the classical
harmonics H_i.  The f_i have no theta, so on an (i, k) cell their rows are
those of the (i, 0) cell times the identity on the theta words, and the cell
is solved on H_i (x) Lambda^k: only the d f_i rows are eliminated there, on
dim H_i * C(n, k) columns, and bases are lifted back through the H_i basis.

Everything is exact rational linear algebra on sparse integer matrices.  Cell
matrices are assembled directly as content-reduced integer rows: the
generators have integer coefficients (rational ones are first scaled by the
lcm of their denominators, which leaves every reduced row unchanged), and
each entry is a falling factorial times a Koszul sign.  The rows are streamed
into the incremental Gauss-Jordan eliminator of ``linalg``, which stops
pulling rows once the rank reaches the cell dimension; ranks, reduced
echelon bases and nullspaces all come from that one path.  The generator
operators become a cell matrix only in ``_cell_entries``, which checks every
entry against the ideal products mu * g (the f_i entries in the (i, 0) cell,
the d f_i entries in the (i, k) cell), so dimensions, bases and exactness
targets all pass the same check: under the pairing <x^a theta_I, x^a
theta_I> = a! the two matrices agree up to diagonal scaling, so they have
the same rank and the harmonic count equals the quotient-side count; a
mismatch raises IntegrityError.  The check proves equal ranks, not that the
one elimination is right (the reference-rank tests and the golden table rows
cover that), but every table's theta-degree 0 row must equal Chevalley's
prod_i [d_i]_q.  ``coinvariant_cell_dimension`` keeps the full quotient-side
route.

For S_n (n >= 2) the dimension cells are computed in the reduced presentation
of ``GroupData.cell_presentation``: the ideal contains f_1 = x_1 + ... + x_n
and d f_1 = theta_1 + ... + theta_n, and substituting x_n -> -(y_1 + ... +
y_{n-1}), theta_n -> -(eta_1 + ... + eta_{n-1}) identifies the quotient with
Q[y, eta]/I' in every bidegree, so a cell has C(i+n-2, n-2) C(n-1, k) columns
instead of C(i+n-1, n-1) C(n, k).  The pairing argument and the entrywise
check hold in any polynomial ring, so they run unchanged there; the budget
estimates stay those of the x-presentation.  Bases (``harmonic_cell``,
``harmonic_cells``, ``kernel_intersection``, exactness, support) stay in x,
because they are the harmonics themselves.

The support of the harmonics is a down-set: SH is closed under every d/dx_j
and d/dtheta_j, so a zero at (i-1, k) or (i, k-1) certifies SH^{i,k} = 0.
One walker, ``_walk``, serves the whole-table entry points (``sh_dim_table``,
``harmonic_cells``, the top row of ``fitting_structures``): it records such
cells as zero without building them, and hands the H_i of each (i, 0) cell
to the cells (i, k) of the same walk, never beyond it.  Cells whose matrices
would exceed the cell budget (rows x columns entries) are refused with a size
estimate; the walker checks every cell, skipped or not, before it computes
the first one.

The derivative closure of the det-isotypic elements d_{i_1}...d_{i_k} Delta
is computed one x-degree at a time, top down: only the rows found
independent one x-degree higher are differentiated, by one x_j at a time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import ExitStack
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from itertools import chain, combinations, product, repeat
from operator import add, sub

from . import linalg
from .dimtable import DimTable
from .groups import GroupData, GroupSpec, IntegrityError, ReducedPresentation
from .qseries import QPoly, QZPoly, q_integer
from .records import Record, Value
from .superpoly import (
    Monomial,
    Operator,
    SuperPoly,
    falling_factorial,
    merge_thetas,
    partial_operator,
    theta_action,
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
    """Subspace of a bidegree cell in reduced row echelon form.

    ambient: the ordered monomial basis of the cell; basis: RREF rows as
    sparse {column: Fraction} maps.  RREF is canonical, so equality of
    subspaces is equality of this data.
    """

    ambient: tuple[Monomial, ...]
    basis: tuple[tuple[tuple[int, Fraction], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __bool__(self) -> bool:  # the zero subspace is falsy, like dimension 0
        return bool(self.basis)

    def vectors(self, n: int) -> list[SuperPoly]:
        return [SuperPoly(n, {self.ambient[c]: v for c, v in row}) for row in self.basis]

    def contains(self, f: SuperPoly) -> bool:
        index = {mon: i for i, mon in enumerate(self.ambient)}
        if any(mon not in index for mon in f.terms):
            return False
        vec = {index[mon]: c for mon, c in f.terms.items()}
        return not linalg.residual([dict(row) for row in self.basis], vec)

    @staticmethod
    def from_vectors(ambient, vectors) -> "Subspace":
        rows = linalg.rref(vectors, len(ambient))
        frozen = tuple(tuple(sorted(r.items())) for r in rows)
        return Subspace(tuple(ambient), frozen)


def latex_table(rows: list[tuple[str, str, str]]) -> str:
    """Two-column Hilbert series table (q = 1 specialization in z).

    rows: (group label, harmonic series, derivative-closure series); the
    closure column prints "(same)" when it equals the harmonic one.
    """
    lines = [
        r"\begin{tabular}{c|c|c}",
        r"$G$ & $\mathrm{Hilb}(\mathcal{SH}_G; 1, z)$ & "
        r"$\mathrm{Hilb}(K[\partial_{x_1},\ldots,\partial_{x_n}]"
        r"\mathcal{SH}_G^{\det}; 1, z)$ \\",
        r"\toprule",
    ]
    for idx, (label, sh, closure) in enumerate(rows):
        if idx:
            lines.append(r"\midrule")
        sh_tex = sh.replace("*", "")
        closure_cell = "(same)" if closure == sh else f"${closure.replace('*', '')}$"
        lines.append(f"${label}$ & ${sh_tex}$ & {closure_cell} \\\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


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


def _integer_terms(terms: dict) -> list:
    """(key, int) pairs proportional to a term map with rational values.

    The factor is the lcm of the denominators, a positive scalar, so every
    content-reduced row assembled from the result is the same as from the
    rational terms.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()]


def _reduced_row(entries) -> linalg.IntRow:
    """Content-reduced IntRow from (column, int) pairs with distinct columns."""
    return linalg._content_reduce(sorted((col, v) for col, v in entries if v))


def _poly_row(f: SuperPoly, index: dict[Monomial, int]) -> linalg.IntRow:
    """Content-reduced IntRow of f over the monomial columns of index."""
    return _reduced_row((index[mon], c) for mon, c in _integer_terms(f.terms))


def _x_derivative(terms, beta) -> list[tuple[Monomial, int]]:
    """d_x^beta of integer terms ((xexp, thetas), c); zero terms dropped."""
    out = []
    for (xexp, thetas), c in terms:
        for a, b in zip(xexp, beta):
            if b:
                c *= falling_factorial(a, b)
        if c:
            out.append(((tuple(map(sub, xexp, beta)), thetas), c))
    return out


def _cell_index(n: int, i: int, k: int) -> dict[Monomial, int]:
    return {mon: col for col, mon in enumerate(cell_monomials(n, i, k))}


@lru_cache(maxsize=None)
def _x_positions(n: int, i: int) -> dict[tuple[int, ...], int]:
    return {xexp: xi for xi, xexp in enumerate(x_monomials(n, i))}


def _operator_entries(ops, n: int, i: int, k: int):
    """Entries of the stacked operators on the (i, k) cell, unreduced.

    Maps (operator index, target monomial) to {source column: int}; the
    integers are those of the operators scaled by the lcm of their
    denominators.  An operator given as None is left out (the others keep
    their list index).  A term with x-derivative derx kills every x-monomial
    that x^derx does not divide, so it visits only the sources
    x^derx * x^rest, rest of degree i - |derx|.
    """
    words = [t for _, t in cell_monomials(n, 0, k)]
    width = len(words)
    positions = _x_positions(n, i)
    rows: dict[tuple[int, Monomial], dict[int, int]] = {}
    for oi, op in enumerate(ops):
        if op is None:
            continue
        for (mulx, multheta, derx, dertheta), c in _integer_terms(op.terms):
            acts = (theta_action(multheta, dertheta, w) for w in words)
            actions = [(ti, act) for ti, act in enumerate(acts) if act is not None]
            if not actions:
                continue
            xders = [(j, b) for j, b in enumerate(derx) if b]
            for rest in x_monomials(n, i - sum(derx)):
                xexp = tuple(map(add, rest, derx))
                v = c
                for j, b in xders:
                    v *= falling_factorial(xexp[j], b)
                base = positions[xexp] * width
                tx = tuple(map(add, rest, mulx))
                for ti, (sign, tw) in actions:
                    row = rows.setdefault((oi, (tx, tw)), {})
                    row[base + ti] = row.get(base + ti, 0) + sign * v
    return rows


def _reduced_rows(entries):
    """Content-reduced rows of an entry map in key order, zero rows skipped."""
    for key in sorted(entries):
        row = _reduced_row(entries[key].items())
        if row:
            yield row


def _x_factorial(xexp) -> int:
    return prod(map(factorial, xexp))


def _check_against_products(
    pres: GroupData | ReducedPresentation, entries, i: int, k: int,
    theta_only: bool = False,
):
    """Prove entrywise that the operator-side matrix of the (i, k) cell is
    the ideal-side one up to diagonal scaling, or raise IntegrityError.

    ``pres`` is a presentation (``GroupData.cell_presentation``, or a
    GroupData): its ``n`` variables, ideal generators and their operators.
    ``entries`` is ``_operator_entries`` of the harmonic generator operators
    (with ``theta_only``, of the d f_j alone: a row of an f_j is then extra).
    Under the pairing <x^a theta_I, x^a theta_I> = a!, for a generator g and
    monomials mu, nu
        coeff_nu(mu g) nu_x! = eps coeff_mu(d_g nu) mu_x!,
    where eps = (-1)^(theta-degree of g * theta-degree of mu): -1 exactly when
    g is a d f_i and mu has odd theta-degree.  Each side has one term per
    entry, so the generator terms are walked once, every product entry is
    compared and the counts of nonzero entries must agree.  The two matrices
    then have the same rank, so the kernel count is also the quotient count.
    """
    n = pres.n
    words = [t for _, t in cell_monomials(n, 0, k)]
    word_index = {w: ti for ti, w in enumerate(words)}
    # column offset and x-factorial of every target x-monomial
    x_data = {
        x: (xi * len(words), _x_factorial(x)) for xi, x in enumerate(x_monomials(n, i))
    }
    degrees = {}
    walked = 0  # rows of ``entries`` met; each (oi, mu) is met at most once
    for oi, g in enumerate(pres.ideal_generators()):
        gi, gk = g.bidegree()
        if theta_only and not gk:
            continue
        degrees[oi] = gi, gk
        terms = _integer_terms(g.terms)
        # For each theta word of mu: (term, sign, theta offset) of every term
        # whose product with it is nonzero.
        merges = []
        for mt in (t for _, t in cell_monomials(n, 0, k - gk)):
            hits = []
            for tj, ((_, gt), _) in enumerate(terms):
                merged = merge_thetas(mt, gt)
                if merged is not None:
                    hits.append((tj, merged[0], word_index[merged[1]]))
            merges.append((mt, hits))
        for mx in x_monomials(n, i - gi) if merges else ():
            products = []
            for (gx, _), c in terms:
                base, nu_fact = x_data[tuple(map(add, mx, gx))]
                products.append((base, c * nu_fact))
            mu_fact = _x_factorial(mx)
            for mt, hits in merges:
                mu = (mx, mt)
                row = entries.get((oi, mu), {})
                scale = -mu_fact if gk * len(mt) & 1 else mu_fact
                for tj, sign, ti in hits:
                    base, value = products[tj]
                    if sign * value != scale * row.get(base + ti, 0):
                        _integrity_failure(pres, i, k, (oi, mu), base + ti)
                if row:
                    walked += 1
                    if len(row) != len(hits):
                        cols = [products[tj][0] + ti for tj, _, ti in hits]
                        _check_no_other_entry(pres, i, k, (oi, mu), row, cols)
    if walked != len(entries):
        # Some row lies outside the bidegree (i - gi, k - gk) walked above.
        for key in sorted(entries):
            oi, (mx, mt) = key
            if degrees.get(oi) != (i - sum(mx), k - len(mt)):
                _check_no_other_entry(pres, i, k, key, entries[key], ())


def _check_no_other_entry(
    pres: GroupData | ReducedPresentation, i: int, k: int, key, row, cols
):
    extra = [col for col, v in row.items() if v and col not in cols]
    if extra:
        _integrity_failure(pres, i, k, key, min(extra))


def _integrity_failure(pres: GroupData | ReducedPresentation, i: int, k: int, key, col):
    oi, mu = key
    raise IntegrityError(
        f"{pres.spec.label()} bidegree ({i},{k}): operator {oi} at target {mu}, "
        f"column {col}: entry disagrees with the ideal product"
    )


def _ideal_rows(gens, n: int, i: int, k: int):
    """Rows of the products mu * g that span the ideal's part of the (i, k) cell.

    Generator-major, then mu over the cell of the complementary bidegree in
    cell order; zero products are skipped and each row is content-reduced.
    """
    index = _cell_index(n, i, k)
    for g in gens:
        gi, gk = g.bidegree()
        terms = _integer_terms(g.terms)
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
    for k = 0, else the corank of ``_theta_rows``.  Every eliminated entry is
    first checked against the ideal products (``_cell_entries``).  The budget
    is always that of the x-presentation, so refusals do not depend on the
    route.
    """
    if cell_dimension(gd.n, i, k) == 0:
        return 0
    check_cell_budget(gd, i, k, budget)
    pres = gd.cell_presentation()
    if cell_dimension(pres.n, i, k) == 0:
        return 0
    classical = _classical_harmonics(pres, i)
    if k == 0:
        return len(classical)
    cols = len(classical) * comb(pres.n, k)
    return cols - linalg.rank(_theta_rows(pres, i, k, classical), cols)


def _cell_entries(
    pres: GroupData | ReducedPresentation, i: int, k: int, theta_only: bool = False
):
    """``_operator_entries`` of the presentation's generator operators on the
    (i, k) cell, every entry checked against the ideal products: the one
    generator cell matrix, read by dimensions, bases and exactness targets.

    With ``theta_only``, of the d f_j alone.  The f_j rows are then those of
    the (i, 0) cell times the identity on the theta words, because f_j (its
    bidegree is checked) and d_{f_j} (checked here) have no theta.
    """
    ops = pres.harmonic_generator_operators()
    if theta_only:
        gens = pres.ideal_generators()
        if any(mt or dt for g, op in zip(gens, ops) if not g.bidegree()[1]
               for _, mt, _, dt in op.terms):
            raise IntegrityError(f"{pres.spec.label()}: an f_j operator acts on theta")
        ops = [op if g.bidegree()[1] else None for g, op in zip(gens, ops)]
    entries = _operator_entries(ops, pres.n, i, k)
    _check_against_products(pres, entries, i, k, theta_only)
    return entries


# H_i held by ``_walk_cell`` for one cell call and reset when it returns or
# raises; None outside a walk.  Walks run cells one at a time per process.
_walk_classical: dict | None = None


def _classical_harmonics(pres: GroupData | ReducedPresentation, i: int):
    """H_i, the kernel of the (checked) f_j rows that make up the (i, 0)
    cell, as integer rows over the degree-i x-monomials; inside a walk it is
    taken from, or left for, ``_walk_cell``."""
    held = _walk_classical
    if held is not None and i in held:
        return held[i]
    rows = _reduced_rows(_cell_entries(pres, i, 0))
    kernel = linalg.nullspace(rows, cell_dimension(pres.n, i, 0))
    if held is not None:
        held[i] = kernel
    return kernel


def _theta_rows(pres: GroupData | ReducedPresentation, i: int, k: int, classical):
    """Content-reduced rows of the d f_j on H_i (x) Lambda^k, where the forms
    of the cell killed by every f_j lie.  Column h * C(n, k) + t is vector h
    of ``classical`` times theta word t.  The first pull assembles and checks
    every entry; with no columns, none is pulled."""
    entries = _cell_entries(pres, i, k, theta_only=True)
    width = comb(pres.n, k)
    by_x = {}
    for h, vec in enumerate(classical):
        for xi, b in vec:
            by_x.setdefault(xi, []).append((h * width, b))
    for key in sorted(entries):
        out = {}
        for col, v in entries[key].items():
            xi, t = divmod(col, width)
            for base, b in by_x.get(xi, ()):
                out[base + t] = out.get(base + t, 0) + v * b
        row = _reduced_row(out.items())
        if row:
            yield row


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
    vectors = classical = _classical_harmonics(pres, i)
    if k:
        width = comb(pres.n, k)
        vectors = []
        for vec in linalg.nullspace(_theta_rows(pres, i, k, classical), len(classical) * width):
            lifted = {}
            for col, a in vec:
                h, t = divmod(col, width)
                for xi, b in classical[h]:
                    lifted[xi * width + t] = lifted.get(xi * width + t, 0) + a * b
            vectors.append(lifted)
    return Subspace.from_vectors(cell_monomials(pres.n, i, k), vectors)


def harmonic_cell(gd: GroupData, i: int, k: int, budget: int = DEFAULT_CELL_BUDGET) -> Subspace:
    check_cell_budget(gd, i, k, budget)
    return kernel_intersection(gd, i, k)


def _cell_range(gd: GroupData):
    dmax = gd.spec.degree_of_vandermondian
    for k in range(gd.n + 1):
        for i in range(dmax + 1):
            yield i, k


def _implied_zero(zeros, i: int, k: int) -> bool:
    """Whether a zero neighbour certifies SH^{i,k} = 0.

    ``zeros`` holds the cells known to be zero so far.  SH is closed under
    every d/dx_j and d/dtheta_j (each commutes, up to sign, with g(d) for
    every g in the ideal), and in characteristic 0 a nonzero form of
    x-degree i > 0 (theta-degree k > 0) has a nonzero d/dx_j (d/dtheta_j),
    so SH^{i-1,k} = 0 or SH^{i,k-1} = 0 forces SH^{i,k} = 0.
    """
    return (i - 1, k) in zeros or (i, k - 1) in zeros


def _walk(gd: GroupData, cells, budget: int, compute, mapper=map) -> dict:
    """``compute(gd, i, k, budget)`` on every cell the down-set leaves open.

    Every cell's budget, skipped or not, is checked before the first one is
    computed.  The cells are then walked in waves of equal i + k, each wave
    through one ``mapper`` call (``pool.map`` or the builtin ``map``) of
    ``_walk_cell``, which hands the H_i of each (i, 0) cell to the later
    cells (i, k); a cell next to a zero of the previous wave is zero by
    ``_implied_zero`` and is skipped.  A computed value is zero when it is
    falsy (a dimension 0, the zero Subspace).  Returns the computed values in
    the order of ``cells``; the skipped cells, all zero, are left out.
    """
    for i, k in cells:
        check_cell_budget(gd, i, k, budget)
    found, zeros, classical = {}, set(), {}
    for s in sorted({i + k for i, k in cells}):
        wave = [(i, k) for i, k in cells if i + k == s]
        zeros.update([cell for cell in wave if _implied_zero(zeros, *cell)])
        todo = [cell for cell in wave if cell not in zeros]
        results = mapper(
            _walk_cell, repeat(compute), repeat(gd), [i for i, _ in todo],
            [k for _, k in todo], repeat(budget), [classical.get(i) for i, _ in todo],
        )
        for (i, k), (value, kernel) in zip(todo, results):
            found[i, k] = value
            if kernel is not None:
                classical[i] = kernel
            if not value:
                zeros.add((i, k))
    return {cell: found[cell] for cell in cells if cell in found}


def _walk_cell(compute, gd: GroupData, i: int, k: int, budget: int, classical):
    """``compute(gd, i, k, budget)`` given the H_i of the walk's (i, 0) cell,
    or None; returns the value and, for an (i, 0) cell, the H_i it found
    (which comes back from a worker process with the value)."""
    global _walk_classical
    held = _walk_classical = {} if classical is None else {i: classical}
    try:
        return compute(gd, i, k, budget), None if k else held.get(i)
    finally:
        _walk_classical = None


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
    ``_walk``, each wave through ``pool.map`` over ``threads`` worker
    processes (the pool starts on the first wave, so a refusal starts
    none) or through the builtin ``map``; every computed cell is checked
    entrywise, and the theta-degree 0 row must equal Chevalley's
    prod_i [d_i]_q.
    """
    pool = None

    def pool_map(*args):
        nonlocal pool
        if pool is None:  # the first wave, after _walk has checked every budget
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=threads))
        return pool.map(*args)

    with ExitStack() as stack:
        dims = _walk(gd, list(_cell_range(gd)), budget, harmonic_cell_dimension,
                     pool_map if threads > 1 else map)
    spec = gd.spec
    table = DimTable(spec)
    for (i, k), dim in dims.items():
        table.set(i, k, dim)
    chevalley = prod(map(q_integer, spec.degrees), start=QPoly.one())
    if table.column(0) != chevalley:
        raise IntegrityError(
            f"{spec.label()}: theta-degree 0 row {table.column(0)} is not "
            f"prod [d]_q = {chevalley} over the degrees {spec.degrees}"
        )
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

    Each element is verified to be nonzero, of the predicted bidegree
    (deg Delta - sum of the chosen co-exponents, k), and annihilated by all
    ideal generator operators; any failure raises IntegrityError since it
    would signal wrong operator data.  The element of a subset S is d_{min S}
    applied to the element of S minus its smallest index.  Built once per
    GroupData and kept on it; callers must not modify the result.
    """
    if gd._det_elements is None:
        gd._det_elements = _build_det_isotypic_elements(gd)
    return gd._det_elements


def _build_det_isotypic_elements(gd: GroupData) -> dict[tuple[int, ...], SuperPoly]:
    spec = gd.spec
    r = spec.rank
    coexp = spec.coexponents
    gens = gd.harmonic_generator_operators()
    out: dict[tuple[int, ...], SuperPoly] = {}
    for k in range(r + 1):
        for subset in combinations(range(1, r + 1), k):
            elem = gd.vandermondian
            if subset:
                elem = gd.ext_derivatives[subset[0] - 1].apply(out[subset[1:]])
            if elem.is_zero():
                raise IntegrityError(
                    f"det-isotypic element for subset {subset} of "
                    f"{spec.label()} vanished"
                )
            expected = (
                spec.degree_of_vandermondian - sum(coexp[i - 1] for i in subset),
                k,
            )
            if elem.bidegree() != expected:
                raise IntegrityError(
                    f"det-isotypic element for subset {subset} of {spec.label()} "
                    f"has bidegree {elem.bidegree()}, expected {expected}"
                )
            for op in gens:
                if not op.apply(elem).is_zero():
                    raise IntegrityError(
                        f"det-isotypic element for subset {subset} of "
                        f"{spec.label()} is not harmonic"
                    )
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


def derivative_closure(gd: GroupData, budget: int = DEFAULT_CELL_BUDGET) -> DimTable:
    """Bidegree dimensions of the span of all x-derivatives of the
    det-isotypic elements.

    d^beta = d/dx_j d^(beta - e_j), so the span W_{i,k} of the derivatives
    of bidegree (i, k) is spanned by the elements of that bidegree and
    d/dx_j W_{i+1,k}, j = 1..n.  Each theta-degree is walked down from its top
    x-degree; the rows that raise a cell's rank are a basis of W_{i,k}, and
    only they are differentiated for the next cell.  Every cell's budget is
    checked first: cols x (number of nonzero d^beta e in the cell), which
    are the beta under some x-exponent of e (d^beta is injective on the
    monomials it does not kill).
    """
    n = gd.n
    seeds: dict[tuple[int, int], list[list[tuple[Monomial, int]]]] = {}
    counts: Counter[tuple[int, int]] = Counter()
    for _, elem in sorted(det_isotypic_elements(gd).items()):
        i0, k = elem.bidegree()
        seeds.setdefault((i0, k), []).append(_integer_terms(elem.terms))
        boxes = (product(*(range(a + 1) for a in xexp)) for xexp, _ in elem.terms)
        counts.update((i0 - sum(beta), k) for beta in set(chain.from_iterable(boxes)))
    for (i, k), count in sorted(counts.items()):
        estimate = cell_dimension(n, i, k) * count
        if estimate > budget:
            raise FeasibilityError(gd.spec, (i, k), estimate, budget)
    units = [tuple(int(j == l) for l in range(n)) for j in range(n)]
    table = DimTable(gd.spec)
    for k in sorted({k for _, k in seeds}):
        basis: list[list[tuple[Monomial, int]]] = []
        for i in range(max(i for i, kk in seeds if kk == k), -1, -1):
            rows = seeds.get((i, k), []) + [
                _x_derivative(terms, unit) for terms in basis for unit in units
            ]
            index = _cell_index(n, i, k)
            el = linalg.IntEliminator(len(index))
            basis = []
            for terms in rows:
                if terms and el.add(_reduced_row((index[mon], c) for mon, c in terms)):
                    basis.append(terms)
            table.set(i, k, el.rank)
    return table


# ---------------------------------------------------------------------------
# Exactness of the exterior-derivative complex
# ---------------------------------------------------------------------------


class ExactnessReport(Record):
    group: GroupSpec
    rank_balance_ok: bool
    hodge_ok: bool
    images_harmonic_ok: bool
    alternating_hilbert_is_one: bool
    first_failure: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.rank_balance_ok
            and self.hodge_ok
            and self.images_harmonic_ok
            and self.alternating_hilbert_is_one
        )


def _image_rank(
    gd: GroupData,
    op: Operator,
    cells: dict[tuple[int, int], Subspace],
    source: tuple[int, int],
    targets: dict | None = None,
) -> tuple[int, bool]:
    """Rank of op on the harmonic cell at `source`; also whether the image
    stays inside the harmonics (the generators' target-cell matrix must
    annihilate it).  Both are read off integer cell matrices; ``targets``
    keeps the generators' matrix of each target cell across calls."""
    n = gd.n
    sub = cells.get(source)
    if sub is None or sub.dimension == 0:
        return 0, True
    dx, dk = op.bidegree_shift()
    target = (source[0] + dx, source[1] + dk)
    index = _cell_index(n, *target)
    op_columns = _columns(_operator_entries([op], n, *source), index)
    if targets is None:
        targets = {}
    if target not in targets:
        targets[target] = _columns(_cell_entries(gd, *target))
    gen_columns = targets[target]
    vectors = []
    inside = True
    for row in sub.basis:
        img = _times_columns(op_columns, linalg.to_int_row(row))
        if not img:
            continue
        if _times_columns(gen_columns, img.items()):
            inside = False
        vectors.append(linalg.to_int_row(img))
    return linalg.rank(vectors, len(index)), inside


def _columns(entries, index=None) -> dict[int, list]:
    """An entry map by source column: [(row key, or target column, value)]."""
    out: dict[int, list] = {}
    for key, row in entries.items():
        r = key if index is None else index[key[1]]
        for col, v in row.items():
            out.setdefault(col, []).append((r, v))
    return out


def _times_columns(columns, vec) -> dict:
    """``_columns`` matrix times a (column, value) vector, zeros dropped."""
    out: dict = {}
    for col, a in vec:
        for r, v in columns.get(col, ()):
            out[r] = out.get(r, 0) + a * v
    return {r: v for r, v in out.items() if v}


def exactness_check(
    gd: GroupData,
    cells: dict[tuple[int, int], Subspace] | None = None,
    budget: int = DEFAULT_CELL_BUDGET,
) -> ExactnessReport:
    """Rank-nullity balance of d on the harmonics, the Hodge splitting
    dim SH^{i,k} = dim d SH^{i+1,k-1} + dim d* SH^{i-1,k+1}, and the
    alternating Hilbert identity Hilb(q, -q) = 1."""
    if cells is None:
        cells = harmonic_cells(gd, budget)
    spec = gd.spec
    d = gd.exterior_d
    ddag = gd.exterior_d_adjoint
    dims = {key: sub.dimension for key, sub in cells.items()}

    rank_d: dict[tuple[int, int], int] = {}
    rank_ddag: dict[tuple[int, int], int] = {}
    images_ok = True
    targets: dict = {}
    for key, sub in sorted(cells.items()):
        if sub.dimension == 0:
            continue
        rank_d[key], ok1 = _image_rank(gd, d, cells, key, targets)
        rank_ddag[key], ok2 = _image_rank(gd, ddag, cells, key, targets)
        images_ok = images_ok and ok1 and ok2

    first_failure = ""
    balance_ok = True
    hodge_ok = True
    for (i, k), dim in sorted(dims.items()):
        ker = dim - rank_d.get((i, k), 0)
        if k == 0:
            expected_ker = 1 if i == 0 else 0
        else:
            expected_ker = rank_d.get((i + 1, k - 1), 0)
        if ker != expected_ker:
            balance_ok = False
            if not first_failure:
                first_failure = (
                    f"bidegree ({i},{k}): kernel of d has dimension {ker}, "
                    f"expected {expected_ker}"
                )
        if dim and (i, k) != (0, 0):
            hodge = rank_d.get((i + 1, k - 1), 0) + rank_ddag.get((i - 1, k + 1), 0)
            if dim != hodge:
                hodge_ok = False
                if not first_failure:
                    first_failure = (
                        f"bidegree ({i},{k}): dimension {dim} != "
                        f"d-image + d*-image {hodge}"
                    )

    alt = QZPoly({key: v for key, v in dims.items() if v}).z_substitute_signed_power(1)
    alt_ok = alt == QPoly.one()
    if not alt_ok and not first_failure:
        first_failure = f"Hilb(q,-q) = {alt}, expected 1"
    return ExactnessReport(
        spec, balance_ok, hodge_ok, images_ok, alt_ok, first_failure
    )


# ---------------------------------------------------------------------------
# Power-sum Laplacian spectrum
# ---------------------------------------------------------------------------


def laplacian_spectrum_check(N: int, n: int, degree_bound: int) -> bool:
    """The Laplacian of d = sum_j d_{x_j^N} theta_j is diagonal on monomials.

    On x^alpha theta_I the eigenvalue is
        sum_{j not in I} ff(alpha_j, N) + sum_{j in I} ff(alpha_j + N, N)
    with ff the falling factorial; the kernel is exactly the x^alpha with all
    alpha_j < N and I empty.  Verified on every monomial with x-degree up to
    degree_bound: the integer cell matrices of the Laplacian must be
    diagonal with these eigenvalues.
    """
    d = Operator.power_exterior_derivative(n, N)
    lap = d.adjoint() @ d + d @ d.adjoint()
    # The cell matrix holds lap scaled by the lcm of its denominators.
    den = lcm(*(c.denominator for c in lap.terms.values()))
    for k in range(n + 1):
        for i in range(degree_bound + 1):
            diagonal = {}
            for col, mon in enumerate(cell_monomials(n, i, k)):
                alpha, thetas = mon
                eig = sum(
                    falling_factorial(alpha[j] + N, N)
                    if (j + 1) in thetas
                    else falling_factorial(alpha[j], N)
                    for j in range(n)
                )
                if (eig == 0) != (not thetas and all(a < N for a in alpha)):
                    return False
                if eig:
                    diagonal[(0, mon)] = {col: eig * den}
            matrix = {}
            for key, row in _operator_entries([lap], n, i, k).items():
                row = {col: v for col, v in row.items() if v}
                if row:
                    matrix[key] = row
            if matrix != diagonal:
                return False
    return True


# ---------------------------------------------------------------------------
# Top theta-degree structure (Fitting ideal apparatus)
# ---------------------------------------------------------------------------


class FittingData(Record):
    group: GroupSpec
    iprime_generators: list[SuperPoly]
    gamma: SuperPoly
    hprime_dims: dict[int, int]
    sh_top_dims: dict[int, int]
    top_harmonics_match: bool
    ann_gamma_equals_iprime: bool
    observed_top_xdeg: int
    predicted_top_xdeg: int

    @property
    def top_xdeg_matches(self) -> bool:
        return self.observed_top_xdeg == self.predicted_top_xdeg


def predicted_top_xdeg(spec: GroupSpec) -> int:
    """Closed form for max{i : SH^{i, r} != 0} (cyclic groups normalized).

    Read off the maximal monomial outside I' = <x_i^{m-1},
    x_i^{-1}(x_1...x_n)^{m/p}>: for m/p >= 2 it is
    x_1^{m/p-2}(x_2...x_n)^{m-2}; for m/p = 1 the exponents must avoid the
    (n-1)-variable products entirely, leaving (x_1...x_{n-2})^{m-2}.
    """
    m, p, n = spec.m, spec.p, spec.n
    mp = m // p
    if n == 1:
        return 0 if m <= 2 else m - 2
    if m <= 2:
        return 0
    if mp == 1:
        return (n - 2) * (m - 2)
    return mp - 2 + (n - 1) * (m - 2)


def fitting_structures(gd: GroupData, budget: int = DEFAULT_CELL_BUDGET) -> FittingData:
    """The ideal of invariant partials, its harmonic complement, and the
    double-det harmonic Gamma = d_{Delta*} Delta.

    Requires m > 1 (no invariant vectors, rank n): for S_n the first basic
    invariant has degree 1 and the apparatus degenerates.
    """
    spec = gd.spec
    if spec.m == 1:
        raise ValueError("fitting_structures needs m > 1 (rank n)")
    n = spec.n
    dmax = spec.degree_of_vandermondian

    gens: list[SuperPoly] = []
    seen = set()
    for f in gd.basic_invariants:
        for j in range(n):
            beta = tuple(1 if v == j else 0 for v in range(n))
            g = f.x_derivative(beta)
            if g and g.to_string() not in seen:
                seen.add(g.to_string())
                gens.append(g)

    gamma = partial_operator(gd.covandermondian).apply(gd.vandermondian)
    if gamma.is_zero():
        raise IntegrityError(f"Gamma of {spec.label()} vanished")

    hprime_dims: dict[int, int] = {}
    ann_matches = True
    for d in range(dmax + 1):
        mons = x_monomials(n, d)
        amb = len(mons)
        if amb * amb > budget:
            raise FeasibilityError(spec, (d, "x"), amb * amb, budget)
        iprime_rank = linalg.rank(_ideal_rows(gens, n, d, 0), amb)
        hprime = amb - iprime_rank
        if hprime:
            hprime_dims[d] = hprime
        # Ann(Gamma) in degree d: kernel of mu -> d_{x^mu} Gamma.  Its
        # dimension is amb - rank(psi); equality with I' in this degree
        # means rank(psi) == dim H'.
        psi_rank = _gamma_map_rank(gamma, mons, n, d)
        if amb - psi_rank != iprime_rank:
            ann_matches = False

    # Top theta-degree: only the i-neighbour of a cell lies in the row.
    top = _walk(gd, [(i, n) for i in range(dmax + 1)], budget, harmonic_cell_dimension)
    sh_top_dims = {i: dim for (i, _), dim in top.items() if dim}

    observed_top = max(sh_top_dims, default=0)
    return FittingData(
        group=spec,
        iprime_generators=gens,
        gamma=gamma,
        hprime_dims=hprime_dims,
        sh_top_dims=sh_top_dims,
        top_harmonics_match=(sh_top_dims == hprime_dims),
        ann_gamma_equals_iprime=ann_matches,
        observed_top_xdeg=observed_top,
        predicted_top_xdeg=predicted_top_xdeg(spec),
    )


def _gamma_map_rank(gamma: SuperPoly, mons, n: int, d: int) -> int:
    """Rank of the map (degree-d monomial mu) -> d_{x^mu} Gamma."""
    gdeg = gamma.bidegree()[0]
    if d > gdeg:
        return 0
    target = _cell_index(n, gdeg - d, 0)
    terms = _integer_terms(gamma.terms)
    # Rank of the column family equals rank of the matrix.
    rows = (
        _reduced_row((target[mon], c) for mon, c in _x_derivative(terms, mu))
        for mu in mons
    )
    return linalg.rank(rows, len(target))


# ---------------------------------------------------------------------------
# Support theorems
# ---------------------------------------------------------------------------


class SupportReport(Record):
    group: GroupSpec
    observed_support: set[tuple[int, int]]
    bidegree_bound_applies: bool
    bidegree_bound_matches: bool
    total_degree_support: set[int]
    total_degree_expected: set[int]
    total_degree_asserted: bool
    top_slice_dims: dict[tuple[int, int], int]
    top_slice_dimension: int
    top_slice_is_vandermondian_pair: bool
    top_slice_in_det_isotypic: bool

    @property
    def total_degree_matches(self) -> bool:
        return self.total_degree_support == self.total_degree_expected


def bidegree_support_region(spec: GroupSpec) -> set[tuple[int, int]]:
    """Predicted nonzero bidegrees for G(m, 1, n):
    i + k + m*C(k,2) <= m*C(n,2) + (m-1)n."""
    m, n = spec.m, spec.n
    bound = m * comb(n, 2) + (m - 1) * n
    out = set()
    for k in range(n + 1):
        for i in range(bound + 1):
            if i + k + m * comb(k, 2) <= bound:
                out.add((i, k))
    return out


def support_check(
    gd: GroupData,
    cells: dict[tuple[int, int], Subspace] | None = None,
    budget: int = DEFAULT_CELL_BUDGET,
) -> SupportReport:
    """Observed bidegree/total-degree support against the predicted bounds.

    The bidegree inequality is asserted only for p = 1; the top total-degree
    slice is asserted to be the two-dimensional span of Delta and d Delta
    when p != m or p = 1 (for p = m the observed data is reported, and the
    det-isotypic containment of the top slice is checked instead).
    """
    if cells is None:
        cells = harmonic_cells(gd, budget)
    spec = gd.spec
    n = gd.n
    observed = {key for key, sub in cells.items() if sub.dimension}

    applies = spec.p == 1
    matches = observed == bidegree_support_region(spec) if applies else False

    dmax = spec.degree_of_vandermondian
    total_support = {i + k for (i, k) in observed}
    total_expected = set(range(dmax + 1))

    top_cells = {key: sub for key, sub in cells.items() if sum(key) == dmax}
    top_dims = {key: sub.dimension for key, sub in top_cells.items() if sub.dimension}
    top_total = sum(top_dims.values())

    # Is the top slice exactly K Delta + K dDelta?
    delta = gd.vandermondian
    ddelta = gd.exterior_d.apply(delta)
    pair_ok = True
    for key, sub in sorted(top_cells.items()):
        expected: list[SuperPoly] = []
        if key == (dmax, 0):
            expected = [delta]
        elif key == (dmax - 1, 1) and ddelta:
            expected = [ddelta]
        index = _cell_index(n, *key)
        span = Subspace.from_vectors(
            cell_monomials(n, *key), [_poly_row(f, index) for f in expected]
        )
        if (sub.dimension != span.dimension) or (sub.basis != span.basis):
            pair_ok = False

    det_elems = det_isotypic_elements(gd)
    in_det = True
    for key, sub in sorted(top_cells.items()):
        if sub.dimension == 0:
            continue
        index = _cell_index(n, *key)
        det_here = [
            _poly_row(e, index) for e in det_elems.values() if e.bidegree() == key
        ]
        det_span = Subspace.from_vectors(cell_monomials(n, *key), det_here)
        if sub.basis != det_span.basis:
            in_det = False

    return SupportReport(
        group=spec,
        observed_support=observed,
        bidegree_bound_applies=applies,
        bidegree_bound_matches=matches,
        total_degree_support=total_support,
        total_degree_expected=total_expected,
        total_degree_asserted=(spec.p != spec.m or spec.p == 1),
        top_slice_dims=top_dims,
        top_slice_dimension=top_total,
        top_slice_is_vandermondian_pair=pair_ok,
        top_slice_in_det_isotypic=in_det,
    )
