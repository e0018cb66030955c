"""Exact sparse Gauss-Jordan elimination over the rationals.

Rows are sparse vectors in Q^ncols, fed one at a time to a single
incremental, fraction-free Gauss-Jordan eliminator (``IntEliminator``).  It
keeps this invariant after every row: each pivot row is a content-reduced
integer row with a positive pivot entry, and it is zero in every other pivot
column.  The pivot rows are therefore the primitive integer multiples of the
canonical reduced row echelon form of the rows seen so far.

An incoming row is reduced in one pass over its own pivot-column entries;
what is left lies on free columns only.  If it is zero the row is dependent,
otherwise its smallest column becomes a new pivot, and that column is cleared
from exactly the pivot rows that hold it, found through a column -> pivot-rows
index.  ``rref`` returns the pivot rows themselves and ``nullspace`` reads
its basis off them; both give IntRows, which the eliminator takes back
without conversion, and ``residual`` reduces a vector against pivot rows
through it.
Row consumption stops with the row that brings the rank to ncols; every later
row is dependent and is never pulled (with ncols = 0, no row is).
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

from .qseries import clear_denominators

# A sparse integer row: list of (column, value), sorted by column, no zeros.
IntRow = list[tuple[int, int]]


def to_int_row(vec) -> IntRow:
    """Normalize a {col: value} mapping or (col, value) iterable to an IntRow.

    Rational values are cleared to integers by the denominator lcm; the row
    is then content-reduced with positive leading value.
    """
    items = {c: v for c, v in (vec.items() if isinstance(vec, dict) else vec) if v}
    return _content_reduce(sorted(clear_denominators(items)[1]))


def _content_reduce(items: IntRow) -> IntRow:
    g = 0
    for _, v in items:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        items = [(c, v // g) for c, v in items]
    if items and items[0][1] < 0:
        items = [(c, -v) for c, v in items]
    return items


class IntEliminator:
    """Incremental fraction-free Gauss-Jordan elimination.

    ``pivots`` maps each pivot column c to the row's free part {col: value}
    (no pivot column appears in it) and ``lead`` to the pivot entry, so the
    full row is lead[c] at c plus pivots[c]; ``holders`` maps each free column
    to the pivot columns whose rows hold it.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict[int, int]] = {}
        self.lead: dict[int, int] = {}
        self.holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, row: IntRow) -> dict[int, int]:
        """row with every pivot column cleared, scaled by a positive integer.

        Pivot rows are zero in every other pivot column, so one subtraction
        per pivot-column entry of the input suffices; the row is scaled once,
        by the lcm of the factors the pivots need."""
        pivots, lead = self.pivots, self.lead
        work: dict[int, int] = {}
        hits = []
        scale = 1
        for c, a in row:
            if c in pivots:
                b = lead[c]
                g = gcd(a, b)
                b //= g
                hits.append((c, a // g, b))
                if b != 1:
                    scale = lcm(scale, b)
            else:
                work[c] = a
        if scale != 1:
            work = {k: scale * v for k, v in work.items()}
        for c, a, b in hits:
            f = scale // b * a
            for k, v in pivots[c].items():
                if k in work:
                    v = work[k] - f * v
                    if v:
                        work[k] = v
                    else:
                        del work[k]
                else:
                    work[k] = -f * v
        return work

    def add(self, row: IntRow) -> bool:
        """Reduce row against the pivots; register it as a pivot if nonzero."""
        work = self._reduce(row)
        if not work:
            return False
        c = min(work)
        b = work.pop(c)
        g = gcd(b, *work.values())
        if b < 0:
            g = -g
        if g != 1:
            b //= g
            work = {k: v // g for k, v in work.items()}
        pivots, lead, holders = self.pivots, self.lead, self.holders
        cleared = holders.pop(c, ())
        for k in work:
            if k in holders:
                holders[k].add(c)
            else:
                holders[k] = {c}
        for q in cleared:
            # q <- s*q - t*row clears column c from pivot row q.
            qrow = pivots[q]
            a = qrow.pop(c)
            g = gcd(a, b)
            s, t = b // g, a // g
            qb = s * lead[q]
            if s != 1:
                qrow = {k: s * v for k, v in qrow.items()}
            for k, v in work.items():
                if k in qrow:
                    v = qrow[k] - t * v
                    if v:
                        qrow[k] = v
                    else:
                        del qrow[k]
                        holders[k].discard(q)
                else:
                    qrow[k] = -t * v
                    holders[k].add(q)
            g = gcd(qb, *qrow.values())
            if g != 1:
                qb //= g
                qrow = {k: v // g for k, v in qrow.items()}
            pivots[q] = qrow
            lead[q] = qb
        pivots[c] = work
        lead[c] = b
        return True

    def rref(self) -> list[IntRow]:
        """The pivot rows as IntRows, sorted by pivot column: each is the
        primitive integer multiple, with a positive pivot, of its canonical
        RREF row, so they are as canonical as the RREF."""
        return [[(c, self.lead[c]), *sorted(self.pivots[c].items())] for c in sorted(self.pivots)]

    def nullspace(self) -> list[IntRow]:
        """One basis vector per free column f, in increasing f: 1 at f and
        minus the RREF entry at f of each pivot row holding f, as a
        content-reduced IntRow (scaled by the lcm of the holders' leads).
        Every holder's pivot column is below f, so the row is built sorted."""
        basis = []
        for f in range(self.ncols):
            if f in self.pivots:
                continue
            holders = sorted(self.holders.get(f, ()))
            scale = lcm(*(self.lead[c] for c in holders))
            row = [(c, -self.pivots[c][f] * (scale // self.lead[c])) for c in holders]
            row.append((f, scale))
            basis.append(_content_reduce(row))
        return basis


def _eliminate(rows: Iterable, ncols: int) -> IntEliminator:
    """Feed rows until the rank reaches ncols; the rest are not pulled."""
    el = IntEliminator(ncols)
    if ncols:
        for r in rows:
            el.add(r if isinstance(r, list) else to_int_row(r))
            if el.rank == ncols:
                break
    return el


def rank(rows: Iterable, ncols: int) -> int:
    """Rank of the span of the given sparse rows inside Q^ncols."""
    return _eliminate(rows, ncols).rank


def rref(rows: Iterable, ncols: int) -> list[IntRow]:
    """Canonical basis of the row span: the rows of its reduced row echelon
    form, each scaled to a content-reduced IntRow with a positive pivot."""
    return _eliminate(rows, ncols).rref()


def nullspace(rows: Iterable, ncols: int) -> list[IntRow]:
    """Basis of {x in Q^ncols : row . x = 0 for every row}.

    One content-reduced integer vector per free column, in increasing column
    order: the canonical basis read off the RREF, each scaled to integers.
    """
    return _eliminate(rows, ncols).nullspace()


def residual(rref_rows: Iterable[IntRow], vec) -> dict[int, int]:
    """vec, a mapping or (column, value) iterable, reduced against the pivot
    rows of ``rref`` and scaled by a positive integer; empty means
    membership."""
    el = IntEliminator(0)
    for row in rref_rows:
        el.add(row)
    return el._reduce(to_int_row(vec))
