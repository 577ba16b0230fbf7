"""Exact linear algebra over the rationals.

Vectors and matrices are tuples of ``fractions.Fraction`` (or ints), so
ranks, inverses and echelon forms are computed without rounding.
:class:`RowSpace` is the one Gaussian elimination: rows are inserted one
at a time and eliminated fraction-free on Python integers (an integer row
goes in as it is, a row holding a ``Fraction`` is scaled to integers
first), and the canonical reduced row echelon basis is built from them on
demand, so two equal row spaces always have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# An insert of a row holding a Fraction converts it to integers; mapped
# C-level getters keep that cheap for int and Fraction entries alike.
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _cleared(v: list[int], pivots: Iterable[int],
             rows: Iterable[list[int]]) -> list[int]:
    """Integer ``v`` cleared at each pivot p in turn: v <- a*v - c*row with
    a = row[p], c = v[p] divided by their gcd."""
    for p, row in zip(pivots, rows):
        c = v[p]
        if c:
            a = row[p]
            g = gcd(a, c)
            a //= g
            c //= g
            v = [a * s - c * t for s, t in zip(v, row)]
    return v


class RowSpace:
    """Incremental span of rational rows, eliminated fraction-free.

    Rows are stored as integer rows in insertion order, each divided by its
    content and zero at the pivots (first nonzero columns) of the rows
    before it, so eliminating in list order clears every pivot: the residue
    is zero iff a vector lies in the span.  ``rows()`` builds the canonical
    reduced row echelon basis from them on demand; the back-substitution it
    rests on is kept until the span grows.
    """

    def __init__(self, ncols: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        self._reduced: list[tuple[int, list[int]]] | None = None
        for row in rows:
            self.add(row)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivots))

    def _residue(self, vec: Sequence[Fraction]) -> list[int]:
        """``vec`` cleared at every stored pivot.  An integer row is taken
        as it is; a row holding a ``Fraction`` is first scaled by the lcm
        of its denominators, which changes no span."""
        if Fraction not in map(type, vec):
            v = list(vec)
        else:
            den = lcm(*set(map(_denominator, vec)))
            if den == 1:
                v = list(map(_numerator, vec))
            else:
                v = [c.numerator * (den // c.denominator) for c in vec]
        return _cleared(v, self._pivots, self._rows)

    def _back_substituted(self) -> list[tuple[int, list[int]]]:
        """(pivot, integer row) pairs in pivot order, each row zero at every
        other pivot: the reduced row echelon basis before the division by
        its pivot entries.

        The last row inserted is zero at every other pivot; each earlier row
        is cleared at the later pivots by the rows already reduced.  The
        result is computed once per span and shared by later calls.
        """
        if self._reduced is None:
            pivots: list[int] = []
            done: list[list[int]] = []
            for p, row in zip(reversed(self._pivots), reversed(self._rows)):
                done.append(_cleared(row, pivots, done))
                pivots.append(p)
            self._reduced = sorted(zip(pivots, done))
        return self._reduced

    def rows(self) -> Matrix:
        """The reduced row echelon basis, in pivot order."""
        return tuple(tuple(Fraction(c, row[p]) if c else ZERO for c in row)
                     for p, row in self._back_substituted())

    def vanishing_forms(self) -> list[tuple[int, ...]]:
        """Integer linear forms whose common kernel is the span, one per
        non-pivot column q: d*v[q] - sum_p v[p] * row_p[q] * (d // row_p[p])
        over the back-substituted rows, d the lcm of their pivot entries.

        A vector lies in the span iff it is the sum of its pivot entries
        times the reduced basis, that is iff every form vanishes on it.
        """
        reduced = self._back_substituted()
        d = lcm(*(row[p] for p, row in reduced))
        pivots = {p for p, _ in reduced}
        forms = []
        for q in range(self.ncols):
            if q not in pivots:
                form = [0] * self.ncols
                form[q] = d
                for p, row in reduced:
                    if row[q]:
                        form[p] = -row[q] * (d // row[p])
                forms.append(tuple(form))
        return forms

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not any(self._residue(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert ``vec``; returns True iff it enlarged the span."""
        if not any(vec):
            return False
        v = self._residue(vec)
        for pivot, c in enumerate(v):
            if c:
                g = gcd(*v)
                self._rows.append([s // g for s in v] if g > 1 else v)
                self._pivots.append(pivot)
                self._reduced = None
                return True
        return False


def _stored_space(ncols: int, rows, pivots) -> RowSpace:
    """A ``RowSpace`` storing integer ``rows`` on ``pivots`` as ``add`` would."""
    space = RowSpace(ncols)
    space._rows, space._pivots = [list(row) for row in rows], list(pivots)
    return space


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    nonzero = [(j, c) for j, c in enumerate(v) if c]
    out = []
    for row in a:
        s = ZERO
        for j, c in nonzero:
            r = row[j]
            if r:
                s += r * c
        out.append(s)
    return tuple(out)


def row_times_mat(v: Sequence[Fraction],
                  a: Sequence[Sequence[Fraction]]) -> Vector:
    n = len(a[0]) if a else 0
    out = [ZERO] * n
    for i, c in enumerate(v):
        if c:
            row = a[i]
            for j in range(n):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def invert(m: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse, or None if m is singular.

    [m | I] is eliminated fraction-free; m is singular iff a pivot falls in
    the right half, and otherwise the right half of the reduced row echelon
    basis is the inverse.
    """
    n = len(m)
    space = RowSpace(2 * n, (tuple(m[i]) + tuple(int(j == i) for j in range(n))
                             for i in range(n)))
    if space.pivots != tuple(range(n)):
        return None
    return tuple(row[n:] for row in space.rows())
