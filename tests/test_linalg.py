"""Exact elimination: rank, RREF canonicality, nullspace correctness."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from supercoinv import linalg
from helpers import spans_equal


def dense(rows, ncols):
    out = []
    for r in rows:
        vec = [Fraction(0)] * ncols
        for c, v in (r.items() if isinstance(r, dict) else r):
            vec[c] = Fraction(v)
        out.append(vec)
    return out


def dense_rref(rows, ncols):
    """Textbook dense Gauss-Jordan elimination over Fractions.

    Returns the nonzero rows of the reduced row echelon form as sparse
    {column: Fraction} maps with pivot entries 1, in pivot-column order.
    """
    mat = dense(rows, ncols)
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                for c in range(ncols):
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
    return [{c: v for c, v in enumerate(row) if v} for row in mat[:rank]]


def oracle_rank(rows, ncols):
    return len(dense_rref(rows, ncols))


def dense_nullspace(rows, ncols):
    """Canonical nullspace from dense_rref: one vector per free column f, in
    increasing f, with 1 at f and minus each pivot row's entry at f."""
    rr = dense_rref(rows, ncols)
    pivots = {min(r): r for r in rr}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for c, row in pivots.items():
            if row.get(f):
                vec[c] = -row[f]
        basis.append(vec)
    return basis


class FracEliminator:
    """Sparse rational-arithmetic elimination, first-nonzero (smallest
    column) pivot: an independent reference for the integer eliminator."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        items = vec.items() if isinstance(vec, dict) else vec
        row = {c: Fraction(v) for c, v in items if v}
        while row:
            c = min(row)
            piv = self.pivots.get(c)
            if piv is None:
                inv = 1 / row[c]
                self.pivots[c] = {k: v * inv for k, v in row.items()}
                return True
            factor = row[c]
            for k, v in piv.items():
                s = row.get(k, Fraction(0)) - factor * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        return False


def reference_rank(rows, ncols):
    """Rank by FracEliminator over every row."""
    el = FracEliminator(ncols)
    for r in rows:
        el.add(r)
    return el.rank


def test_known_small_matrix():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1, 2: 1}]
    assert linalg.rank(rows, 3) == 2
    ns = linalg.nullspace(rows, 3)
    assert ns == [[(0, 2), (1, -1), (2, 1)]]
    v = dict(ns[0])
    for r in rows:
        assert sum(Fraction(c) * v.get(k, Fraction(0)) for k, c in r.items()) == 0


def test_rref_is_canonical():
    a = linalg.rref([{0: 2, 1: 4}, {1: 3, 2: 3}], 3)
    b = linalg.rref([{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 3, 1: 9, 2: 3}], 3)
    assert spans_equal(a, b)


def test_rational_inputs_are_cleared():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}]
    assert linalg.rank(rows, 2) == 1
    # the RREF row (1, 2/3) as its primitive integer multiple
    assert linalg.rref(rows, 2) == [[(0, 3), (1, 2)]]


def test_residual_membership():
    rr = linalg.rref([{0: 1, 1: 1}, {2: 1}], 3)
    assert not linalg.residual(rr, {0: Fraction(2), 1: Fraction(2), 2: Fraction(-1)})
    assert linalg.residual(rr, {0: Fraction(1)})


def test_empty_and_degenerate():
    assert linalg.rank([], 5) == 0
    assert linalg.rank([{}], 5) == 0
    assert len(linalg.nullspace([], 3)) == 3
    assert linalg.rank([{0: 7}], 1) == 1


matrices = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-9, max_value=9).filter(bool),
        max_size=6,
    ),
    min_size=0,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_paths_agree_with_each_other_and_oracle(rows):
    ncols = 6
    r_int = linalg.rank([dict(r) for r in rows], ncols)
    r_list = linalg.rank([sorted(r.items()) for r in rows], ncols)
    r_frac_in = linalg.rank(
        [{k: Fraction(v, 3) for k, v in r.items()} for r in rows], ncols
    )
    r_frac = reference_rank(rows, ncols)
    r_oracle = oracle_rank(rows, ncols)
    assert r_int == r_list == r_frac_in == r_frac == r_oracle


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_nullspace_vectors_annihilate_and_count(rows):
    ncols = 6
    ns = linalg.nullspace([dict(r) for r in rows], ncols)
    assert len(ns) == ncols - oracle_rank(rows, ncols)
    for v in map(dict, ns):
        for r in rows:
            assert sum(c * v.get(k, 0) for k, c in r.items()) == 0
    # kernel vectors are independent: stack them and re-rank
    assert linalg.rank(ns, ncols) == len(ns)


@st.composite
def sparse_matrices(draw):
    """Up to 14 rows over up to 10 columns, mostly zeros; some rows are
    integer combinations of earlier ones, so dependencies also come late."""
    ncols = draw(st.integers(min_value=1, max_value=10))
    entry = st.sampled_from([0] * 8 + [-3, -2, -1, 1, 2, 3, 5, -7])
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            x, y = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return ncols, [{c: v for c, v in enumerate(r) if v} for r in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rank_matches_oracle(case):
    ncols, rows = case
    assert linalg.rank(rows, ncols) == oracle_rank(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_reference(case):
    ncols, rows = case
    got = linalg.rref(rows, ncols)
    want = dense_rref(rows, ncols)
    assert len(got) == len(want)
    # each row is content-reduced with a positive pivot, and over its pivot
    # it is the canonical RREF row
    for g, w in zip(got, want):
        pivot = g[0][1]
        assert all(type(v) is int for _, v in g)
        assert pivot > 0 and gcd(*(v for _, v in g)) == 1
        assert [(k, Fraction(v, pivot)) for k, v in g] == sorted(w.items())


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_nullspace_matches_canonical_reference(case):
    ncols, rows = case
    got = linalg.nullspace(rows, ncols)
    want = dense_nullspace(rows, ncols)
    assert len(got) == len(want)
    # each vector is the content-reduced integer multiple of the canonical one
    for g, w in zip(got, want):
        assert all(type(v) is int for _, v in g)
        assert g == linalg.to_int_row(w)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rows_pulled_stop_at_full_rank(case):
    ncols, rows = case
    pulled = 0

    def counting():
        nonlocal pulled
        for r in rows:
            pulled += 1
            yield r

    full = next(
        (j for j in range(len(rows) + 1) if oracle_rank(rows[:j], ncols) == ncols),
        None,
    )
    expected = len(rows) if full is None else full
    for fn in (linalg.rank, linalg.rref, linalg.nullspace):
        pulled = 0
        fn(counting(), ncols)
        assert pulled == expected, fn.__name__


def _cleared_by_products(vec):
    """``to_int_row`` by Fraction products: every value times the lcm of the
    denominators, int(v * den), then content-reduced."""
    items = [(c, v) for c, v in sorted(vec.items()) if v]
    den = lcm(*(Fraction(v).denominator for _, v in items))
    return linalg._content_reduce([(c, int(v * den)) for c, v in items])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.integers(0, 30),
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=40).map(lambda f: f * 3),
              st.integers(-50, 50).map(Fraction)),
    max_size=8,
))
def test_to_int_row_scales_numerators_like_fraction_products(vec):
    assert linalg.to_int_row(vec) == _cleared_by_products(vec)


def test_to_int_row_on_integer_rows():
    rows = [{0: Fraction(-6), 3: Fraction(4), 7: Fraction(10)}, {1: -6, 2: 9}, {4: 0, 5: -3}]
    for vec in rows:
        assert linalg.to_int_row(vec) == _cleared_by_products(vec)
        assert all(type(v) is int for _, v in linalg.to_int_row(vec))
    assert linalg.to_int_row(rows[0]) == [(0, 3), (3, -2), (7, -5)]
