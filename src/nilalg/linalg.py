"""Exact linear algebra over the rationals.

Everything here works on tuples of ``fractions.Fraction`` so that ranks,
kernels and echelon forms are computed without rounding.  The central tool
is :class:`RowSpace`, an incremental reduced-row-echelon accumulator: rows
are inserted one at a time and the stored basis stays in canonical RREF,
so two equal row spaces always have identical representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vector(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def support(u: Sequence[Fraction]) -> list[int]:
    """Ascending indices of the nonzero entries of ``u``."""
    return [j for j, c in enumerate(u) if c]


def eliminate(rows: Sequence[Sequence[Fraction]], pivots: Sequence[int],
              supports: Sequence[Sequence[int]], vec: Sequence[Fraction]
              ) -> tuple[list[Fraction], list[Fraction]]:
    """(residue, coefficients) of ``vec`` against reduced echelon ``rows``.

    ``supports[r]`` lists the nonzero columns of ``rows[r]``; only those
    entries are touched.  The residue is zero iff ``vec`` lies in the span,
    and then ``vec`` is the combination of the rows with the coefficients.
    """
    v = list(vec)
    coeffs = []
    for row, p, cols in zip(rows, pivots, supports):
        c = v[p]
        coeffs.append(c)
        if c:
            for j in cols:
                v[j] -= c * row[j]
    return v, coeffs


class RowSpace:
    """Incremental reduced-row-echelon span of a set of rational rows.

    Each stored row keeps the ascending list of its nonzero columns, so
    elimination touches only nonzero entries.
    """

    def __init__(self, ncols: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.ncols = ncols
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []
        self._supports: list[list[int]] = []
        for row in rows:
            self.add(row)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def rows(self) -> Matrix:
        return tuple(tuple(r) for r in self._rows)

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Residue of ``vec`` after elimination against the stored basis."""
        return eliminate(self._rows, self._pivots, self._supports, vec)[0]

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return is_zero_vector(self.reduce(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        """Insert ``vec``; returns True iff it enlarged the span."""
        residue = self.reduce(vec)
        cols = support(residue)
        if not cols:
            return False
        pivot = cols[0]
        inv = ONE / residue[pivot]
        v = [ZERO] * self.ncols
        for j in cols:
            v[j] = residue[j] * inv
        # Back-substitute into earlier rows to keep the basis fully reduced.
        for r, row in enumerate(self._rows):
            c = row[pivot]
            if c:
                for j in cols:
                    row[j] -= c * v[j]
                merged = sorted(set(self._supports[r]).union(cols))
                self._supports[r] = [j for j in merged if row[j]]
        at = next((k for k, p in enumerate(self._pivots) if p > pivot),
                  len(self._pivots))
        self._rows.insert(at, v)
        self._pivots.insert(at, pivot)
        self._supports.insert(at, cols)
        return True

    def coordinates(self, vec: Sequence[Fraction]) -> list[Fraction] | None:
        """Coefficients of ``vec`` in the stored basis, or None if outside."""
        residue, coeffs = eliminate(self._rows, self._pivots, self._supports, vec)
        if not is_zero_vector(residue):
            return None
        return coeffs


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


def identity(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def invert(m: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse via Gauss-Jordan on [m | I]; None if singular."""
    n = len(m)
    aug = [list(m[i]) + list(unit_vector(n, i)) for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = ONE / aug[row][col]
        aug[row] = [c * inv for c in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[row])]
        row += 1
    return tuple(tuple(r[n:]) for r in aug)
