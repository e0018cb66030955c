"""Checks that only the tests run; the library never calls them.

Saito-type validators of the group data (Jacobian proportional to Delta,
the composed Orlik-Solomon operators proportional to
d_{Delta*} theta_1...theta_n), the group elements of the real groups as
signed permutations and their action on forms, literal span equality
of canonical RREF bases, the entry map of operators on a whole cell that
the whole-cell references below read and that the operators applied to
integer rows (``checks._apply_rows``) are pinned to, the entrywise check of
a whole generator cell matrix against the ideal products that the
certificates of the generator operators replaced, the
SuperPoly substitution that the integer reduced presentation of S_n is
pinned to, the whole-cell harmonic dimension, kernel and d f_j rows on
H_i (x) Lambda^k that the
H_i (x) Lambda^k route and its split of the d f_j by theta-index are
pinned to, the d f_j products on H_i through operator matrices that the
certified pieces applied to H_i directly are pinned to, the det-isotypic
elements checked by all 2n generator operators each that the
anticommutator certificate is pinned to, H_i as the
nullspace of the (i, 0) cell that the closed-form Groebner route to H_i
is pinned to, the f_j sweep over every H_i row that the certificate of
the closed-form basis replaced, the x-derivative by
exponent subtraction that the derivative closure and its lowering tables
are pinned to, the derivative-span walk over whole x-monomial cells (its
d/dx_j tables and row lowering) that the walk in standard-monomial
coordinates is pinned to, the rank of mu -> d_{x^mu} Gamma by one chain of single
lowerings per monomial that the Fitting check's Ann(Gamma) ranks are
pinned to, the exponent-tuple lowering tables, derivative sources and
apolar rows that their monomial-code versions are pinned to, the rational
coefficient vector of a SuperPoly over a cell index, and the Diagram record
with the three-clause pivot condition for G(m, p, n) diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, perm, prod
from operator import add, sub

from supercoinv import groebner, harmonics, linalg
from supercoinv.artin import is_substaircase
from supercoinv.groups import GroupData, GroupSpec, IntegrityError, _perm_sign
from supercoinv.qseries import clear_denominators
from supercoinv.superpoly import (
    CODE_BITS,
    Monomial,
    Operator,
    SuperPoly,
    falling_factorial,
    merge_thetas,
    partial_operator,
    theta_action,
    x_codes,
    x_factorials,
    x_monomials,
)


class UnsupportedGroupError(ValueError):
    """Requested group data needs irrational matrix entries."""


def spans_equal(rref_a, rref_b) -> bool:
    """RREF is canonical, so span equality is literal equality."""
    return rref_a == rref_b


def orlik_solomon_operators(gd: GroupData) -> list[Operator]:
    """All n equivariant derivative operators, including the zero-co-exponent
    one dropped for S_n (it is sum_j theta_j and acts as 0 on harmonics)."""
    if gd.spec.m == 1:
        return [Operator.power_exterior_derivative(gd.n, 0)] + list(
            gd.ext_derivatives
        )
    return list(gd.ext_derivatives)


def validate_jacobian(gd: GroupData) -> bool:
    """Saito criterion: det(d f_i / d x_j) is a nonzero multiple of Delta."""
    n = gd.n
    grid = [
        [x_derivative(f, tuple(1 if v == j else 0 for v in range(n))) for j in range(n)]
        for f in gd.basic_invariants
    ]
    det = SuperPoly.zero(n)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = SuperPoly.one(n)
        for i in range(n):
            prod = prod * grid[i][perm[i]]
            if prod.is_zero():
                break
        det = det + sign * prod
    ratio = det.scalar_ratio(gd.vandermondian)
    return ratio is not None and ratio != 0


def validate_covandermondian(gd: GroupData, probe_cap: int = 600) -> bool:
    """Check d_1 ... d_n = c * (d_{Delta*} theta_1...theta_n) on probes.

    The composition of all n Orlik-Solomon operators applied to a degree
    deg(Delta*) polynomial must agree with d_{Delta*} applied to it, times the
    volume form, with one global nonzero scalar across all probes.  For S_n
    the composition includes the dropped zero-co-exponent operator.
    """
    spec = gd.spec
    n = spec.n
    ops = orlik_solomon_operators(gd)
    deg = spec.degree_of_covandermondian
    co_op = partial_operator(gd.covandermondian)
    volume = tuple(range(1, n + 1))

    probes = list(x_monomials(n, deg))
    if len(probes) > probe_cap:
        step = len(probes) // probe_cap + 1
        sampled = probes[::step]
        sampled.extend(k[0] for k in gd.covandermondian.terms)
        probes = sorted(set(sampled))

    ratio = None
    saw_nonzero = False
    for alpha in probes:
        f = SuperPoly.monomial(n, alpha)
        lhs = f
        for op in reversed(ops):
            lhs = op.apply(lhs)
            if lhs.is_zero():
                break
        rhs_scalar = co_op.apply(f).constant_term()
        if lhs.is_zero() and rhs_scalar == 0:
            continue
        saw_nonzero = True
        lhs_scalar = lhs.terms.get(((0,) * n, volume))
        if lhs_scalar is None or len(lhs.terms) != 1:
            return False
        if rhs_scalar == 0:
            return False
        r = lhs_scalar / rhs_scalar
        if ratio is None:
            ratio = r
        elif ratio != r:
            return False
    return saw_nonzero and ratio is not None and ratio != 0


def group_matrices(spec: GroupSpec) -> list[tuple[tuple[int, ...], ...]]:
    """All elements of G(m, p, n) as integer matrices; only m <= 2 is rational.

    The matrix for (perm, signs) has entry signs[j] in row perm[j], column j.
    """
    if spec.m > 2:
        raise UnsupportedGroupError(
            f"group elements of G({spec.m},{spec.p},{spec.n}) are not rational"
        )
    out = []
    for perm, signs in group_elements(spec):
        mat = [[0] * spec.n for _ in range(spec.n)]
        for j in range(spec.n):
            mat[perm[j] - 1][j] = signs[j]
        out.append(tuple(tuple(row) for row in mat))
    return out


def group_elements(spec: GroupSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(perm, signs) pairs for m <= 2; perm[j-1] is the image of j, 1-indexed."""
    if spec.m > 2:
        raise UnsupportedGroupError(
            f"group elements of G({spec.m},{spec.p},{spec.n}) are not rational"
        )
    n = spec.n
    sign_choices = (
        [(1,) * n]
        if spec.m == 1
        else [s for s in product((1, -1), repeat=n)]
    )
    if spec.m == 2 and spec.p == 2:
        sign_choices = [s for s in sign_choices if s.count(-1) % 2 == 0]
    out = []
    for perm in sorted(permutations(range(1, n + 1))):
        for signs in sign_choices:
            out.append((perm, signs))
    return out


def element_determinant(perm, signs) -> int:
    det = _perm_sign(tuple(p - 1 for p in perm))
    for s in signs:
        det *= s
    return det


def act_signed_permutation(f: SuperPoly, perm, signs) -> SuperPoly:
    """Substitute x_j -> signs[j] x_{perm[j]}, theta_j -> signs[j] theta_{perm[j]}.

    perm and signs are 1-indexed by position (perm[j-1] is the image of j).
    """
    out: dict[Monomial, Fraction] = {}
    for (xexp, thetas), c in f.terms.items():
        coeff = c
        newx = [0] * f.n
        for j, e in enumerate(xexp):
            if e:
                newx[perm[j] - 1] = e
                if signs[j] == -1 and e & 1:
                    coeff = -coeff
        images = []
        for t in thetas:
            if signs[t - 1] == -1:
                coeff = -coeff
            images.append(perm[t - 1])
        # Koszul sign from sorting the images.
        arr = list(images)
        for a in range(len(arr)):
            for b in range(a + 1, len(arr)):
                if arr[a] > arr[b]:
                    coeff = -coeff
        key = (tuple(newx), tuple(sorted(images)))
        s = out.get(key, Fraction(0)) + coeff
        if s:
            out[key] = s
        else:
            del out[key]
    res = SuperPoly.__new__(SuperPoly)
    res.n, res.terms = f.n, out
    return res


def reference_reduced_images(gd: GroupData) -> list[SuperPoly]:
    """Images of all 2n ideal generators of S_n under x_n -> -(y_1 + ... +
    y_{n-1}), theta_n -> -(eta_1 + ... + eta_{n-1}), by SuperPoly products
    and sums, one per term."""
    n = gd.n
    ys, etas = SuperPoly.zero(n - 1), SuperPoly.zero(n - 1)
    for j in range(1, n):
        ys, etas = ys + SuperPoly.x(n - 1, j), etas + SuperPoly.theta(n - 1, j)
    x_image, theta_image = -ys, -etas
    gens = gd.ideal_generators()
    x_powers = [SuperPoly.one(n - 1)]
    for _ in range(max(xexp[-1] for g in gens for xexp, _ in g.terms)):
        x_powers.append(x_powers[-1] * x_image)
    images = []
    for f in gens:
        out = SuperPoly.zero(n - 1)
        for (xexp, thetas), c in f.terms.items():
            has_last = bool(thetas) and thetas[-1] == n
            head = thetas[:-1] if has_last else thetas
            term = SuperPoly(n - 1, {(xexp[:-1], head): c}) * x_powers[xexp[-1]]
            out = out + (term * theta_image if has_last else term)
        images.append(out)
    return images


def x_derivative(f: SuperPoly, beta) -> SuperPoly:
    """prod_j (d/dx_j)^beta_j f by exponent subtraction (``_x_derivative``)."""
    return SuperPoly(f.n, dict(_x_derivative(f.terms.items(), beta)))


def _x_derivative(terms, beta) -> list[tuple[Monomial, int]]:
    """d_x^beta of integer terms ((xexp, thetas), c) by exponent subtraction
    and falling factorials; zero terms dropped."""
    out = []
    for (xexp, thetas), c in terms:
        for a, b in zip(xexp, beta):
            if b:
                c *= falling_factorial(a, b)
        if c:
            out.append(((tuple(map(sub, xexp, beta)), thetas), c))
    return out


def poly_to_vector(f: SuperPoly, index: dict[Monomial, int]) -> dict[int, Fraction]:
    """{column: coefficient} of f over the monomial columns of index."""
    return {index[mon]: c for mon, c in f.terms.items()}


def reduced_rows(entries):
    """Content-reduced rows of an entry map in key order, zero rows skipped."""
    for key in sorted(entries):
        row = harmonics._reduced_row(entries[key].items())
        if row:
            yield row


@lru_cache(maxsize=None)
def x_lowering(n: int, i: int) -> tuple[tuple, ...]:
    """d/dx_j on the degree-i x-monomials, for j = 0..n-1: aligned with
    ``x_monomials(n, i)``, the position of x^(a - e_j) among the
    degree-(i - 1) x-monomials and the weight a_j, or None when a_j = 0.
    Read off the monomial codes: the target's code is code(a) - 2^(16 j),
    and a_j is field j of code(a)."""
    codes, lower, mask = x_codes(n, i), x_codes(n, i - 1), (1 << CODE_BITS) - 1
    return tuple(
        tuple((lower[c - (1 << s)], a) if (a := c >> s & mask) else None for c in codes)
        for s in range(0, CODE_BITS * n, CODE_BITS)
    )


def lower_row(row: linalg.IntRow, lowering, width: int) -> linalg.IntRow:
    """d/dx_j of an IntRow over the columns x-position * width + theta-word of
    one x-degree, through the entry for j of that degree's ``x_lowering``;
    content-reduced.  Subtracting e_j keeps the lex order of the
    x-monomials, so the result is sorted as built."""
    out = []
    for col, v in row:
        xi, t = divmod(col, width)
        hit = lowering[xi]
        if hit:
            out.append((hit[0] * width + t, hit[1] * v))
    return linalg._content_reduce(out)


def x_derivative_ranks(n: int, k: int, seeds) -> dict[int, int]:
    """The derivative-span walk over whole x-monomial cells that the walk in
    standard coordinates (``harmonics._derivative_ranks``) is pinned to:
    {i: dim W_i} for i from the top x-degree of ``seeds`` down to 0, where
    ``seeds`` maps an x-degree to IntRows over that degree's
    theta-degree-k cell, and only the rows that raised the rank of W_{i+1}
    are differentiated, each column through ``x_lowering``."""
    width, basis, ranks = comb(n, k), [], {}
    for i in range(max(seeds), -1, -1):
        rows = seeds.get(i, []) + [
            lower_row(row, lowering, width)
            for row in basis for lowering in x_lowering(n, i + 1)
        ]
        el = linalg.IntEliminator(harmonics.cell_dimension(n, i, k))
        basis = [row for row in rows if row and el.add(row)]
        ranks[i] = el.rank
    return ranks


def x_walk_closure(gd: GroupData) -> dict:
    """The derivative-closure table entries by ``x_derivative_ranks``, one
    walk per theta-degree seeded with the IntRows of its det-isotypic
    elements over their whole cells, with no budget."""
    seeds = {}
    for _, elem in sorted(harmonics.det_isotypic_elements(gd).items()):
        i0, k = elem.bidegree()
        row = harmonics._poly_row(elem, harmonics._cell_index(gd.n, i0, k))
        seeds.setdefault(k, {}).setdefault(i0, []).append(row)
    return {(i, k): rank for k, level in seeds.items()
            for i, rank in x_derivative_ranks(gd.n, k, level).items() if rank}


def reference_x_lowering(n: int, i: int) -> tuple[tuple, ...]:
    """``x_lowering`` by exponent tuples: for each j, aligned with
    ``x_monomials(n, i)``, the position of x^(a - e_j) among the
    degree-(i - 1) x-monomials and the weight a_j, or None when a_j = 0."""
    lower = {xexp: xi for xi, xexp in enumerate(x_monomials(n, i - 1))}
    return tuple(
        tuple((lower[(*a[:j], a[j] - 1, *a[j + 1:])], a[j]) if a[j] else None
              for a in x_monomials(n, i))
        for j in range(n)
    )


def reference_gamma_map_rank(gamma: SuperPoly, mons, n: int, d: int) -> int:
    """Rank of the map (degree-d monomial mu) -> d_{x^mu} Gamma: Gamma's
    (i, 0) row lowered mu_j times by each x_j (``lower_row``)."""
    gdeg = gamma.bidegree()[0]
    if d > gdeg:
        return 0
    top = harmonics._poly_row(gamma, harmonics._cell_index(n, gdeg, 0))

    def derivative(mu):
        row, i = top, gdeg
        for j, b in enumerate(mu):
            for _ in range(b):
                row = lower_row(row, x_lowering(n, i)[j], 1)
                i -= 1
        return row

    # Rank of the column family equals rank of the matrix.
    return linalg.rank(map(derivative, mons), harmonics.cell_dimension(n, gdeg - d, 0))


def reference_derivative_sources(n: int, i: int, beta) -> tuple[tuple[int, ...], ...]:
    """``harmonics._derivative_sources`` by exponent tuples: for each x^rest
    of degree i - |beta|, the position of x^(rest + beta) among the degree-i
    x-monomials and the product of the falling factorials perm(a_j, beta_j)."""
    positions = {xexp: xi for xi, xexp in enumerate(x_monomials(n, i))}
    sources = [tuple(map(add, rest, beta)) for rest in x_monomials(n, i - sum(beta))]
    return (tuple(positions[a] for a in sources),
            tuple(prod(map(perm, a, beta)) for a in sources))


def reference_apolar_rows(basis, n: int, degree: int) -> list[list[tuple[int, int]]]:
    """``groebner.apolar_rows`` by exponent tuples: the normal-form table is
    keyed by exponent vector, divisibility is tested entrywise
    (``groebner._divides``) and each tail term is shifted by adding the
    exponent difference e - lm."""
    position = {a: col for col, a in enumerate(x_monomials(n, degree))}
    steps = []
    for g in basis:
        lm = groebner.leading_monomial(g)
        steps.append((lm, [(tuple(map(sub, e, lm)), -int(c))
                           for (e, _), c in g.terms.items() if e != lm]))
    nf, forms = {}, {}
    for a in reversed(position):
        for lm, tail in steps:
            if groebner._divides(lm, a):
                out = {}
                for shift, c in tail:
                    for s, v in nf[tuple(map(add, a, shift))].items():
                        out[s] = out.get(s, 0) + c * v
                nf[a] = {s: v for s, v in out.items() if v}
                break
        else:
            nf[a] = {position[a]: 1}
            forms[position[a]] = {}
    top = factorial(degree)
    for a, row in nf.items():
        weight = top // prod(map(factorial, a))
        for s, v in row.items():
            forms[s][position[a]] = v * weight
    return [linalg._content_reduce(sorted(forms[s].items())) for s in sorted(forms)]


def _reference_operator_entries(ops, n, i, k):
    """The entry map of the stacked operators on the (i, k) cell, unreduced,
    through a loop over every source x-monomial of the cell for every
    operator term: {(operator index, target monomial): {source column:
    int}}, the integers of the operators scaled by the lcm of their
    denominators.  The whole-cell references below read it; the program
    builds no operator matrix of a cell."""
    words = [t for _, t in harmonics.cell_monomials(n, 0, k)]
    width = len(words)
    rows = {}
    for oi, op in enumerate(ops):
        terms = [
            (mulx, derx, [(j, b) for j, b in enumerate(derx) if b],
             [theta_action(multheta, dertheta, w) for w in words], c)
            for (mulx, multheta, derx, dertheta), c in clear_denominators(op.terms)[1]
        ]
        for xi, xexp in enumerate(x_monomials(n, i)):
            base = xi * width
            for mulx, derx, xders, actions, c in terms:
                for j, b in xders:
                    c *= falling_factorial(xexp[j], b)
                if not c:
                    continue
                tx = tuple(map(add, map(sub, xexp, derx), mulx))
                for ti, act in enumerate(actions):
                    if act is None:
                        continue
                    sign, tw = act
                    row = rows.setdefault((oi, (tx, tw)), {})
                    row[base + ti] = row.get(base + ti, 0) + sign * c
    return rows


def check_against_products(pres, entries, i: int, k: int):
    """Prove entrywise that the operator-side matrix of the (i, k) cell is
    the ideal-side one up to diagonal scaling, or raise IntegrityError.

    ``pres`` is a presentation (``GroupData.cell_presentation``, or a
    GroupData): its ``n`` variables, ideal generators and their operators.
    ``entries`` is ``_reference_operator_entries`` of its operators.  Under
    the pairing <x^a theta_I, x^a theta_I> = a!, for a generator g and
    monomials mu, nu
        coeff_nu(mu g) nu_x! = eps coeff_mu(d_g nu) mu_x!,
    where eps = (-1)^(theta-degree of g * theta-degree of mu): -1 exactly when
    g is a d f_i and mu has odd theta-degree.  Each side has one term per
    entry, so the generator terms are walked once, every product entry is
    compared and the counts of nonzero entries must agree.  The two matrices
    then have the same rank, so the kernel count is also the quotient count.
    The factorials nu_x! and mu_x! are those of ``x_factorials``; only the
    positions of ``harmonics._derivative_sources`` are shared with the
    assembly.
    """
    n = pres.n
    words = [t for _, t in harmonics.cell_monomials(n, 0, k)]
    word_index = {w: ti for ti, w in enumerate(words)}
    width = len(words)
    nu_facts = x_factorials(n, i)
    degrees = {}
    walked = 0  # rows of ``entries`` met; each (oi, mu) is met at most once
    for oi, g in enumerate(pres.ideal_generators()):
        gi, gk = g.bidegree()
        degrees[oi] = gi, gk
        terms = clear_denominators(g.terms)[1]
        # For each theta word of mu: (term, sign, theta offset) of every term
        # whose product with it is nonzero.
        merges = []
        for mt in (t for _, t in harmonics.cell_monomials(n, 0, k - gk)):
            hits = []
            for tj, ((_, gt), _) in enumerate(terms):
                merged = merge_thetas(mt, gt)
                if merged is not None:
                    hits.append((tj, merged[0], word_index[merged[1]]))
            merges.append((mt, hits))
        if not merges:
            continue
        # the position of mu_x * x^gx for every term, by the position of mu_x
        targets = [harmonics._derivative_sources(n, i, gx)[0] for (gx, _), _ in terms]
        mu_facts = x_factorials(n, i - gi)
        for mi, mx in enumerate(x_monomials(n, i - gi)):
            products = []
            for xis, (_, c) in zip(targets, terms):
                xi = xis[mi]
                products.append((xi * width, c * nu_facts[xi]))
            mu_fact = mu_facts[mi]
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


def _check_no_other_entry(pres, i: int, k: int, key, row, cols):
    extra = [col for col, v in row.items() if v and col not in cols]
    if extra:
        _integrity_failure(pres, i, k, key, min(extra))


def _integrity_failure(pres, i: int, k: int, key, col):
    oi, mu = key
    raise IntegrityError(
        f"{pres.spec.label()} bidegree ({i},{k}): operator {oi} at target {mu}, "
        f"column {col}: entry disagrees with the ideal product"
    )


def cell_entries(gd: GroupData, i: int, k: int):
    """``_reference_operator_entries`` of all the generator operators on the
    (i, k) cell, every entry checked against the ideal products
    (``check_against_products``): the whole generator matrix of a cell."""
    entries = _reference_operator_entries(gd.harmonic_generator_operators(), gd.n, i, k)
    check_against_products(gd, entries, i, k)
    return entries


def eliminated_harmonics(pres, i: int) -> list:
    """H_i of a presentation as the nullspace of its checked (i, 0) cell,
    the f_j rows alone: the route before H_i was read off the closed-form
    Groebner basis."""
    rows = reduced_rows(cell_entries(pres, i, 0))
    return linalg.nullspace(rows, harmonics.cell_dimension(pres.n, i, 0))


def reference_classical_harmonics(pres, i: int) -> list:
    """H_i as the closed-form route certified it in every x-degree before
    the basis was certified once (``harmonics._certify``): the apolar rows
    of the closed-form basis, every one killed by every certified f_j
    operator (``harmonics._x_images``) and as many as Chevalley's count,
    else IntegrityError."""
    spec, n = pres.spec, pres.n
    ops, chevalley = harmonics._f_operators(spec, tuple(pres.ideal_generators()),
                                            tuple(pres.harmonic_generator_operators()))
    rows = groebner.apolar_rows(groebner.closed_form_basis(spec.m, spec.p, spec.n, n), n, i)
    if any(acc for _, _, acc in harmonics._x_images(n, i, rows, ops)):
        raise IntegrityError(f"{spec.label()}: an f_j operator does not kill H_{i}")
    if len(rows) != chevalley.coefficient(i):
        raise IntegrityError(f"{spec.label()}: theta-degree 0 row has {len(rows)} at q^{i}")
    return rows


def full_cell_dimension(gd: GroupData, i: int, k: int, budget: int) -> int:
    """dim SH^{i,k} from one elimination of all 2n generator operators on the
    whole (i, k) cell of ``gd.cell_presentation()``, every entry checked: the
    route every cell took before the cells of theta-degree >= 1 were solved
    on H_i (x) Lambda^k."""
    if harmonics.cell_dimension(gd.n, i, k) == 0:
        return 0
    harmonics.check_cell_budget(gd, i, k, budget)
    pres = gd.cell_presentation()
    cols = harmonics.cell_dimension(pres.n, i, k)
    if cols == 0:
        return 0
    rows = reduced_rows(cell_entries(pres, i, k))
    return cols - linalg.rank(rows, cols)


def full_cell_kernel(pres, i: int, k: int) -> harmonics.Subspace:
    """Reduced-echelon basis of the (i, k) harmonics of a presentation: the
    common kernel of all its generator operators on the whole cell."""
    ambient = harmonics.cell_monomials(pres.n, i, k)
    rows = reduced_rows(cell_entries(pres, i, k))
    return harmonics.Subspace.from_vectors(ambient, linalg.nullspace(rows, len(ambient)))


def full_cell_theta_rows(pres, i: int, k: int, classical) -> list:
    """Content-reduced rows of the d f_j on H_i (x) Lambda^k through the
    whole (i, k) cell: every generator operator assembled and checked on all
    C(i+n-1, n-1) C(n, k) columns, the d f_j rows kept in key order and
    projected onto ``classical`` (H_i as integer rows).  Column
    h * C(n, k) + t is vector h of ``classical`` times theta word t; zero
    rows are skipped.  The route before the d f_j were split by theta-index."""
    gens = pres.ideal_generators()
    entries = cell_entries(pres, i, k)
    width = comb(pres.n, k)
    by_x = {}
    for h, vec in enumerate(classical):
        for xi, b in vec:
            by_x.setdefault(xi, []).append((h * width, b))
    rows = []
    for key in sorted(entries):
        if not gens[key[0]].bidegree()[1]:
            continue
        out = {}
        for col, v in entries[key].items():
            xi, t = divmod(col, width)
            for base, b in by_x.get(xi, ()):
                out[base + t] = out.get(base + t, 0) + v * b
        row = harmonics._reduced_row(out.items())
        if row:
            rows.append(row)
    return rows


def matrix_theta_products(pres, i: int, classical) -> dict:
    """The d f_j products on H_i through operator matrices: each d f_j
    operator split by theta-index into x-only Operators (with the integers
    of the whole operator), their entries on the (i, 0) cell
    (``_reference_operator_entries``) dotted with ``classical``, keyed as
    ``harmonics._theta_products``.  The route before the pieces were
    applied to H_i directly."""
    gens = pres.ideal_generators()
    out = {}
    for oi, op in enumerate(pres.harmonic_generator_operators()):
        if not gens[oi].bidegree()[1]:
            continue
        pieces = {}
        for (mx, mt, dx, (l,)), c in clear_denominators(op.terms)[1]:
            pieces.setdefault(l, {})[mx, mt, dx, ()] = c
        ls = sorted(pieces)
        ops = [Operator(pres.n, pieces[l]) for l in ls]
        for (pi, (tx, _)), row in _reference_operator_entries(ops, pres.n, i, 0).items():
            dots = ((h, sum(row.get(xi, 0) * b for xi, b in vec))
                    for h, vec in enumerate(classical))
            acc = [(h, v) for h, v in dots if v]
            if acc:
                out.setdefault((oi, tx), {})[ls[pi]] = acc
    return out


def reference_det_isotypic_elements(gd: GroupData) -> dict:
    """d_{i_1}...d_{i_k} Delta for every subset, each element checked
    nonzero, bi-homogeneous of the predicted bidegree and killed by all 2n
    ideal generator operators, or IntegrityError: the check before the
    anticommutator certificate, one 2n-apply pass per element."""
    spec, r = gd.spec, gd.spec.rank
    out = {}
    for k in range(r + 1):
        for subset in combinations(range(1, r + 1), k):
            elem = gd.vandermondian
            if subset:
                elem = gd.ext_derivatives[subset[0] - 1].apply(out[subset[1:]])
            expected = (spec.degree_of_vandermondian
                        - sum(spec.coexponents[i - 1] for i in subset), k)
            try:
                ok = not elem.is_zero() and elem.bidegree() == expected
            except ValueError:  # not bi-homogeneous
                ok = False
            if not ok or any(op.apply(elem) for op in gd.harmonic_generator_operators()):
                raise IntegrityError(f"det-isotypic element for subset {subset} fails")
            out[subset] = elem
    return out


@dataclass(frozen=True)
class Diagram:
    """Sub-staircase diagram / exponent vector for G(m, p, n)."""

    rows: tuple[int, ...]
    m: int
    p: int

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def total(self) -> int:
        return sum(self.rows)

    def is_valid(self) -> bool:
        if self.p == 1:
            return is_substaircase(self.rows, self.m)
        return satisfies_pivot_condition(self.rows, self.m, self.p)


def satisfies_pivot_condition(rows, m: int, p: int) -> bool:
    """The defining three-clause condition for type G(m, p, n) diagrams."""
    mp = m // p
    n = len(rows)
    for j in range(1, n + 1):
        if rows[j - 1] >= mp:
            continue
        ok = all(0 <= rows[i - 1] < i * m for i in range(1, j)) and all(
            0 <= rows[i - 1] - mp < (i - 1) * m for i in range(j + 1, n + 1)
        )
        if ok:
            return True
    return False
