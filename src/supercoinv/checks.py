"""Named structural checks on the super harmonics, built on the cell engine
of ``harmonics``.

* ``exactness_check``: rank-nullity of the exterior derivative d on the
  harmonic cells, the Hodge splitting and Hilb(q, -q) = 1; the images of d
  and d* are tested with the certified f_j operators and d f_j pieces.
* ``laplacian_spectrum_check``: the Laplacian of the power-sum exterior
  derivative is diagonal on monomials with the predicted eigenvalues.
* ``fitting_structures``: the ideal of invariant partials I', its harmonic
  complement, the double-det harmonic Gamma and the top theta-degree row.
* ``support_check``: the bidegree and total-degree support of the harmonics
  against the predicted bounds, and the top total-degree slice.

The exactness images and the Laplacian check apply one operator straight to
integer rows (``_apply_rows``): the harmonic basis vectors, and the unit
rows of each cell; no operator matrix of a whole cell is built.

They are also importable from ``harmonics``.
"""

from __future__ import annotations

from itertools import groupby
from math import comb
from operator import itemgetter

from . import linalg
from .groups import GroupData, GroupSpec, IntegrityError
from .harmonics import (
    DEFAULT_CELL_BUDGET,
    FeasibilityError,
    Subspace,
    _cell_index,
    _contractions,
    _derivative_ranks,
    _f_operators,
    _ideal_rows,
    _poly_row,
    _theta_pieces,
    _walk,
    _x_images,
    cell_dimension,
    cell_monomials,
    det_isotypic_elements,
    harmonic_cell_dimension,
    harmonic_cells,
)
from .qseries import QPoly, QZPoly, clear_denominators
from .records import Record
from .superpoly import (
    Operator,
    SuperPoly,
    code_guard,
    falling_factorial,
    monomial_code,
    partial_operator,
    theta_action,
    x_codes,
    x_factorials,
)


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


def _apply_rows(n: int, op: Operator, i: int, k: int, rows):
    """(target cell, images): op, scaled by the lcm of its denominators,
    applied to each IntRow of ``rows`` over the (i, k) cell; one IntRow over
    the target cell per row, not content-reduced, empty where op kills the
    row.  A column is x-position * C(n, k) + theta word.

    Read off the monomial codes: a term d_x^beta kills x^a unless x^beta
    divides it (the guard-bit test of ``code_guard``), and then sends it to
    the code code(a) - code(beta) + code(mulx) of the target degree with the
    weight a! / (a - beta)! (``x_factorials``); its theta part acts on each
    word through ``theta_action``.  ValueError before any row is read if op
    is not bi-homogeneous."""
    dx, dk = op.bidegree_shift() or (0, 0)
    target, width = (i + dx, k + dk), comb(n, k)
    words = {w: t for t, (_, w) in enumerate(cell_monomials(n, 0, k + dk))}
    codes, facts, guard = list(x_codes(n, i)), x_factorials(n, i), code_guard(n)
    tcodes, terms = x_codes(n, i + dx), []
    for (mulx, multheta, derx, dertheta), c in clear_denominators(op.terms)[1]:
        b, rest = monomial_code(derx), i - sum(derx)
        rcodes, rfacts, shift = x_codes(n, rest), x_factorials(n, rest), monomial_code(mulx) - b
        xs = [(tcodes[a + shift] * len(words), c * f // rfacts[rcodes[a - b]])
              if ((a | guard) - b) & guard == guard else None for a, f in zip(codes, facts)]
        acts = (theta_action(multheta, dertheta, w) for _, w in cell_monomials(n, 0, k))
        terms.append((xs, [act and (act[0], words[act[1]]) for act in acts]))
    images = []
    for row in rows:
        acc = {}
        for col, v in row:
            xi, t = divmod(col, width)
            for xs, acts in terms:
                hit, act = xs[xi], acts[t]
                if hit and act:
                    key = hit[0] + act[1]
                    acc[key] = acc.get(key, 0) + act[0] * hit[1] * v
        images.append(sorted((col, v) for col, v in acc.items() if v))
    return target, images


def _images(gd: GroupData, op: Operator, sub: Subspace, source: tuple[int, int]):
    """(target cell, IntRows over it): the images under op of the basis of
    the harmonic cell ``sub`` at ``source`` (``_apply_rows``) that raise the
    rank of those before them, so as many as the rank; the others lie in
    their span."""
    target, images = _apply_rows(gd.n, op, *source, sub.basis)
    el = linalg.IntEliminator(cell_dimension(gd.n, *target))
    vectors = [linalg._content_reduce(v) for v in images if v]
    return target, [v for v in vectors if el.rank < el.ncols and el.add(v)]


def _harmonic(gd: GroupData, target: tuple[int, int], vectors) -> bool:
    """Whether every generator operator kills every IntRow of ``vectors``
    over the (i, k) cell ``target``, read off the certified operators alone.

    The f_j operators (``_f_operators``) have no theta, so they must kill
    each x-slice of a vector, its coefficient of one theta word.  A d f_j
    operator is sum_l g_l(d_x) d/dtheta_l with x-only pieces g_l
    (``_theta_pieces``); d/dtheta_l theta_t = sign theta_J
    (``_contractions``), so its image at theta_J is the sum over l of g_l
    applied to sign times the slice of theta_t.  One row per vector and J
    holds those signed slices in block l, where the piece g_l reads them
    (``_x_images``).  Both operator families are certified for gd's
    generators first, so a wrong one raises IntegrityError whatever the
    vectors.
    """
    (i, k), n = target, gd.n
    args = gd.spec, tuple(gd.ideal_generators()), tuple(gd.harmonic_generator_operators())
    ops, _ = _f_operators(*args)
    pieces = _theta_pieces(*args)
    if not vectors:
        return True
    size, width = cell_dimension(n, i, 0), comb(n, k)
    signs = [[] for _ in range(width)]
    for J, (_, hits) in enumerate(_contractions(n, k)):
        for l, sign, t in hits:
            signs[t].append((l * size, sign, J))
    slices, contracted = {}, {}
    for h, vec in enumerate(vectors):
        for col, b in vec:
            xi, t = divmod(col, width)
            slices.setdefault((h, t), []).append((xi, b))
            for off, sign, J in signs[t]:
                contracted.setdefault((h, J), []).append((off + xi, sign * b))
    ops = ops + [[(l * size, terms) for _, l, terms in group]
                 for _, group in groupby(pieces, itemgetter(0))]
    rows = [*slices.values(), *contracted.values()]
    return not any(acc for *_, acc in _x_images(n, i, rows, ops))


def exactness_check(
    gd: GroupData,
    cells: dict[tuple[int, int], Subspace] | None = None,
    budget: int = DEFAULT_CELL_BUDGET,
) -> ExactnessReport:
    """Rank-nullity balance of d on the harmonics, the Hodge splitting
    dim SH^{i,k} = dim d SH^{i+1,k-1} + dim d* SH^{i-1,k+1}, and the
    alternating Hilbert identity Hilb(q, -q) = 1.  The images of d and d*
    are gathered by target cell and each target is tested once
    (``_harmonic``), in cell order."""
    if cells is None:
        cells = harmonic_cells(gd, budget)
    spec = gd.spec
    dims = {key: sub.dimension for key, sub in cells.items()}

    rank_d: dict[tuple[int, int], int] = {}
    rank_ddag: dict[tuple[int, int], int] = {}
    by_target: dict[tuple[int, int], list] = {}
    for key, sub in sorted(cells.items()):
        if not sub:
            continue
        for op, ranks in ((gd.exterior_d, rank_d), (gd.exterior_d_adjoint, rank_ddag)):
            target, vectors = _images(gd, op, sub, key)
            ranks[key] = len(vectors)
            by_target.setdefault(target, []).extend(vectors)
    images_ok = all(_harmonic(gd, *item) for item in sorted(by_target.items()))

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
    degree_bound: the Laplacian, applied to the unit row of each column of a
    cell (``_apply_rows``), must give that column times the eigenvalue.
    """
    d = Operator.power_exterior_derivative(n, N)
    lap = d.adjoint() @ d + d @ d.adjoint()
    # The images are those of lap scaled by the lcm of its denominators.
    den = clear_denominators(lap.terms)[0]
    for k in range(n + 1):
        for i in range(degree_bound + 1):
            expected = []
            for col, (alpha, thetas) in enumerate(cell_monomials(n, i, k)):
                eig = sum(
                    falling_factorial(alpha[j] + N, N)
                    if (j + 1) in thetas
                    else falling_factorial(alpha[j], N)
                    for j in range(n)
                )
                if (eig == 0) != (not thetas and all(a < N for a in alpha)):
                    return False
                expected.append([(col, eig * den)] if eig else [])
            units = [[(col, 1)] for col in range(len(expected))]
            if _apply_rows(n, lap, i, k, units) != ((i, k), expected):
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

    The I' budget of every x-degree and the budget of every cell of the top
    row are checked before any elimination.  The Ann(Gamma) ranks are read
    off one top-down walk of the derivatives of Gamma
    (``harmonics._derivative_ranks``), the walk of the derivative closure,
    in standard coordinates; Gamma is certified harmonic first
    (``_harmonic``), or IntegrityError.

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
        for j in range(1, n + 1):
            g = Operator.x_partial(n, j).apply(f)
            if g and g.to_string() not in seen:
                seen.add(g.to_string())
                gens.append(g)

    gamma = partial_operator(gd.covandermondian).apply(gd.vandermondian)
    if gamma.is_zero():
        raise IntegrityError(f"Gamma of {spec.label()} vanished")

    sizes = [cell_dimension(n, d, 0) for d in range(dmax + 1)]
    for d, amb in enumerate(sizes):
        if amb * amb > budget:
            raise FeasibilityError(spec, (d, "x"), amb * amb, budget)
    # Top theta-degree: only the i-neighbour of a cell lies in the row, and
    # the walk checks the budget of every cell of the row before the first.
    top = _walk(gd, [(i, n) for i in range(dmax + 1)], budget, harmonic_cell_dimension)
    sh_top_dims = {i: dim for (i, _), dim in top.items() if dim}

    hprime_dims = {d: hprime for d, amb in enumerate(sizes)
                   if (hprime := amb - linalg.rank(_ideal_rows(gens, n, d, 0), amb))}
    # Ann(Gamma) in degree d is the kernel of mu -> d_{x^mu} Gamma on the
    # degree-d monomials.  That map's rank is the dimension of the span of
    # the derivatives of Gamma in x-degree deg Gamma - d (0 past deg Gamma),
    # and Ann(Gamma) equals I' in degree d iff the rank is dim H'.
    gdeg = gamma.bidegree()[0]
    if not _harmonic(gd, (gdeg, 0), [_poly_row(gamma, _cell_index(n, gdeg, 0))]):
        raise IntegrityError(f"Gamma of {spec.label()} is not harmonic")
    spans = _derivative_ranks(gd, 0, {gdeg: [gamma]})

    return FittingData(
        group=spec,
        iprime_generators=gens,
        gamma=gamma,
        hprime_dims=hprime_dims,
        sh_top_dims=sh_top_dims,
        top_harmonics_match=(sh_top_dims == hprime_dims),
        ann_gamma_equals_iprime=all(spans.get(gdeg - d, 0) == hprime_dims.get(d, 0)
                                    for d in range(dmax + 1)),
        observed_top_xdeg=max(sh_top_dims, default=0),
        predicted_top_xdeg=predicted_top_xdeg(spec),
    )


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
