"""Algebras given by exact rational structure constants.

An :class:`Algebra` is a finite-dimensional vector space with a bilinear
product determined by a sparse table of basis brackets [e_i, e_j].  No
symmetry of any kind is assumed: Leibniz algebras are not antisymmetric,
so (i, j) and (j, i) are independent keys.  Absent keys mean the product
of those basis elements is zero.

All scalars are ``fractions.Fraction``; equality of vectors and tables and
membership in a subspace are therefore exact.  Algebras and vectors are
immutable, no routine adds to a ``RowSpace`` once it has returned it, and
every operation is a pure function, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import reprlib
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInputError, NotNilpotentError
from .linalg import (
    RowSpace,
    Vector,
    ZERO,
    invert,
    row_times_mat,
    unit_vector,
    zero_vector,
)


# Python's default limit on int <-> str conversion; a larger numerator or
# denominator could not be written back into a report.
MAX_SCALAR_DIGITS = 4300

# The largest dim of an algebra JSON or n of a family spec: a table holds up
# to dim^2 vectors of length dim, built before any later check could fail.
MAX_DIM = 128


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice (``json.loads``
    would keep the last value and drop the others without a word)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InvalidInputError(f"duplicate key {reprlib.repr(key)}")
        out[key] = value
    return out


def load_json(text: str):
    """``json.loads`` raising InvalidInputError on any malformed document.

    ValueError, the base class of JSONDecodeError, also covers an integer
    literal over the int-conversion digit limit; RecursionError covers
    nesting deeper than the interpreter's stack.  A key given twice in one
    object is refused.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"invalid JSON: {exc}") from exc


def parse_scalar(text: str) -> Fraction:
    """Parse a canonical rational string like "-3/2" or "1".

    Exponent notation and numerators or denominators over
    MAX_SCALAR_DIGITS digits are refused before any arithmetic: a
    nine-character "1e9999999" would otherwise build a ten-million-digit
    integer.  A decimal point counts as a digit, since ".5" has the
    two-digit denominator 10.
    """
    shown = reprlib.repr(text)
    if "e" in text.lower():
        raise InvalidInputError(
            f"bad rational scalar {shown}: exponent notation is not accepted")
    if any(sum(ch.isdigit() or ch == "." for ch in part) > MAX_SCALAR_DIGITS
           for part in text.split("/")):
        raise InvalidInputError(
            f"bad rational scalar {shown}: more than {MAX_SCALAR_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational scalar {shown}: {exc}") from exc


def format_scalar(value: Fraction) -> str:
    """Canonical rational string: reduced, positive denominator, no "/1"."""
    return str(Fraction(value))


@dataclass(frozen=True)
class CentralSeries:
    """Terms of the descending central series, terms[0] = whole algebra:
    the ``RowSpace``s ``Algebra.central_series`` built, shared by every
    reader and never added to after it returns."""

    terms: tuple[RowSpace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    @property
    def derived_subalgebra(self) -> RowSpace:
        """L^2 = [L, L]."""
        return self.terms[1]


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra over Q given by a sparse bracket table.

    ``brackets`` is the public dense form {(i, j): [e_i, e_j]}.  It is
    scanned once, at construction: ``_entries`` maps each nonzero [e_i, e_j]
    to its nonzero terms ((k, c), ...), c the coefficient of e_k, in
    ``brackets`` order, and ``_triples`` lists every such (i, j, k), for
    degree checks that need only the support.  Two derived facts are built
    from ``_entries`` on first use and kept: ``integer_index``, which every
    bracket routine reads (D, the least common denominator of the structure
    constants, and the table scaled by D, with i mapped to
    [(j, ((k, D*c), ...))]), and ``central_series``.
    """

    dim: int
    basis_labels: tuple[str, ...]
    brackets: Mapping[tuple[int, int], Vector] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim <= 0:
            raise InvalidInputError("dimension must be positive")
        if len(self.basis_labels) != self.dim:
            raise InvalidInputError("basis_labels length must equal dim")
        if len(set(self.basis_labels)) != self.dim:
            raise InvalidInputError("basis labels must be distinct")
        entries: dict[tuple[int, int], tuple] = {}
        for (i, j), vec in self.brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise InvalidInputError(f"bracket index ({i},{j}) out of range")
            if len(vec) != self.dim:
                raise InvalidInputError(
                    f"bracket ({i},{j}) value has length {len(vec)}, "
                    f"expected {self.dim}")
            terms = tuple((k, c) for k, c in enumerate(vec) if c)
            if terms:
                entries[(i, j)] = terms
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_triples", tuple(
            (i, j, k) for (i, j), terms in entries.items() for k, _ in terms))

    @cached_property
    def integer_index(self) -> tuple[int, dict[int, list]]:
        """(D, index): index[i] lists (j, ((k, D*c), ...)) for each nonzero
        [e_i, e_j], in ``brackets`` order, D the least common denominator of
        the structure constants c, read from ``_entries``.

        On integer vectors the routines below then compute D times the
        bracket, which has the same span and the same support.
        """
        den = lcm(1, *(c.denominator for terms in self._entries.values()
                       for _, c in terms))
        index: dict[int, list] = {}
        for (i, j), terms in self._entries.items():
            index.setdefault(i, []).append(
                (j, tuple((k, c.numerator * (den // c.denominator))
                          for k, c in terms)))
        return den, index

    @cached_property
    def central_series(self) -> CentralSeries:
        """L^1 = L, L^{k+1} = [L^k, L], up to the first zero term.

        Raises NotNilpotentError, on every access, when the dimensions stop
        strictly decreasing before reaching zero.

        The series runs on Python integers: L^{k+1} is spanned by [v, e_j]
        over integer rows v spanning L^k and every j, read from
        ``integer_index`` (the table scaled by D changes no span).  One walk
        of v's nonzeros v_t through the entries [e_t, e_j] gives [v, e_j]
        for every right factor j at once, and these go into one
        ``RowSpace`` in ascending j.  The rows that enlarge it form a basis
        of L^{k+1} and feed the next step, and that ``RowSpace`` is the
        term, so each term is eliminated once; its span is that of its
        ``Fraction`` brackets.
        """
        n = self.dim
        _, index = self.integer_index
        basis = _unit_rows(n)
        terms = [RowSpace(n, basis)]
        while basis:  # basis: integer rows spanning the last term
            space = RowSpace(n)
            image = []
            for v in basis:
                images: dict[int, list[int]] = defaultdict(([0] * n).copy)
                for t, c in enumerate(v):
                    if c:
                        for j, entries in index.get(t, ()):
                            w = images[j]  # [v, e_j]
                            for k, a in entries:
                                w[k] += c * a
                image.extend(w for _, w in sorted(images.items()) if space.add(w))
            if len(image) >= len(basis):
                raise NotNilpotentError(
                    f"descending central sequence stalls at dimension {len(basis)}")
            terms.append(space)
            basis = image
        return CentralSeries(tuple(terms))

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_products(dim: int, labels: Sequence[str],
                      products: Mapping[tuple[int, int],
                                        Iterable[tuple[int, Fraction]]]) -> "Algebra":
        """Build from sparse products {(i, j): [(k, coeff), ...]}; every
        index must lie in [0, dim)."""
        table = {}
        for (i, j), terms in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InvalidInputError(f"bracket index ({i},{j}) out of range")
            vec = [ZERO] * dim
            touched = []
            for k, c in terms:
                if not 0 <= k < dim:
                    raise InvalidInputError(
                        f"bracket ({i},{j}): target index {k} out of range")
                vec[k] += Fraction(c)
                touched.append(k)
            if any(map(vec.__getitem__, touched)):
                table[(i, j)] = tuple(vec)
        return Algebra(dim, tuple(labels), table)

    def label_index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise InvalidInputError(f"unknown basis label {label!r}") from None

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def table_entry(self, i: int, j: int) -> Vector:
        return self.brackets.get((i, j), zero_vector(self.dim))

    def format_vector(self, vec: Sequence[Fraction]) -> str:
        terms = [f"{format_scalar(c)}*{self.basis_labels[k]}"
                 for k, c in enumerate(vec) if c]
        return " + ".join(terms) if terms else "0"


def bracket(alg: Algebra, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    """Bilinear extension [x, y] = sum_i sum_j x_i y_j [e_i, e_j].

    On ``integer_index`` the sparse columns D [e_i, y] applied to x give
    D [x, y], which is then divided by D.
    """
    if len(x) != alg.dim or len(y) != alg.dim:
        raise InvalidInputError(
            f"vector length mismatch: got {len(x)} and {len(y)}, "
            f"algebra has dim {alg.dim}")
    den, index = alg.integer_index
    scaled = right_image(right_columns(index, alg.dim, y), x)
    inv = Fraction(1, den)
    return tuple(c * inv for c in scaled)


# The two basis-vector forms stay as names of their own: the benchmark's
# tracer (bench/tracing.py) counts calls to each by name.
def bracket_basis(alg: Algebra, i: int, vec: Sequence[Fraction]) -> Vector:
    """[e_i, vec]."""
    return bracket(alg, alg.basis_vector(i), vec)


def bracket_vec_basis(alg: Algebra, vec: Sequence[Fraction], j: int) -> Vector:
    """[vec, e_j]."""
    return bracket(alg, vec, alg.basis_vector(j))


@lru_cache(maxsize=16)
def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The integer unit rows e_0, ..., e_{n-1}, built once per n."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def right_columns(index: Mapping[int, list], n: int, x: Sequence[int]
                  ) -> list[list[tuple[int, int]]]:
    """The columns D [e_j, x], j < n, of D R_x on an ``integer_index``
    table, each as its nonzero entries [(k, c), ...] (integer when x is),
    summed over the entries index[j] alone: the one form of R_x, which
    ``right_image`` reads."""
    columns = []
    for j in range(n):
        col: dict[int, int] = {}
        for t, terms in index.get(j, ()):
            c = x[t]
            if c:
                for k, a in terms:
                    col[k] = col.get(k, 0) + c * a
        columns.append([(k, c) for k, c in col.items() if c])
    return columns


def right_image(columns: Sequence[Iterable[tuple[int, int]]],
                v: Sequence[int]) -> list[int]:
    """sum_j v_j columns[j] as a dense row: D [v, x] from the columns
    ``right_columns`` gives for x, and column j itself when v = e_j."""
    out = [0] * len(v)
    for j, c in enumerate(v):
        if c:
            for k, a in columns[j]:
                out[k] += c * a
    return out


@dataclass(frozen=True)
class LeibnizViolation:
    """One basis triple (i, j, k) where the Leibniz identity fails."""

    triple: tuple[int, int, int]
    defect: Vector  # [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]


@dataclass(frozen=True)
class LeibnizReport:
    violations: tuple[LeibnizViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_leibniz(alg: Algebra) -> LeibnizReport:
    """Evaluate [x,[y,z]] = [[x,y],z] - [[x,z],y] on all n^3 basis triples.

    Every product in the defect at (i, j, k), [e_i,[e_j,e_k]] -
    [[e_i,e_j],e_k] + [[e_i,e_k],e_j], is a path through two entries of
    ``integer_index`` that starts at left factor e_i, so the check joins the
    table's support one i at a time, ascending: each entry [e_i, e_j] meets
    the entries [e_p, e_q] with e_j in their support (``by_target``) in the
    first term at (p, q), and each [e_t, e_k] with e_t in its own support in
    the second term at (j, k) and the third at (k, j).  The integer sums per
    pair are D^2 times the defect; the pairs with a nonzero sum, sorted, are
    the violations in (i, j, k) order, with the ``Fraction`` defect, that
    sum over D^2.
    """
    n = alg.dim
    den, index = alg.integer_index
    by_target: dict[int, list[tuple[int, int, int]]] = {}
    for j, row in index.items():
        for k, terms in row:
            for t, a in terms:
                by_target.setdefault(t, []).append((j, k, a))
    violations = []
    for i in sorted(index):
        acc: dict[tuple[int, int], list[int]] = defaultdict(([0] * n).copy)
        for j, left in index[i]:  # D [e_i, e_j] = sum of b e_m over left
            for p, q, a in by_target.get(j, ()):  # [e_i, [e_p, e_q]]
                sums = acc[(p, q)]
                for m, b in left:
                    sums[m] += a * b
            for t, a in left:  # [[e_i, e_j], e_k] from a [e_t, e_k]
                for k, right in index.get(t, ()):
                    minus = acc[(j, k)]  # at (i, j, k)
                    plus = acc[(k, j)]  # [[e_i, e_k], e_j] at (i, k, j)
                    for m, b in right:
                        c = a * b
                        minus[m] -= c
                        plus[m] += c
        for jk in sorted(acc):
            sums = acc[jk]
            if any(sums):
                violations.append(LeibnizViolation(
                    (i,) + jk, tuple(Fraction(c, den * den) for c in sums)))
    return LeibnizReport(tuple(violations))


def is_lie(alg: Algebra) -> bool:
    """True iff the table is antisymmetric with zero squares.

    No nonzero entry in ``_entries`` may be a square [e_i, e_i], and each
    must have its mirror [e_j, e_i] with the negated terms.  Assumes
    check_leibniz passed; antisymmetry on basis pairs then gives [x, x] = 0
    for every x by bilinearity.
    """
    entries = alg._entries
    return all(i != j and entries.get((j, i)) == tuple((k, -c) for k, c in terms)
               for (i, j), terms in entries.items())


def square_ideal(alg: Algebra) -> RowSpace:
    """Two-sided ideal generated by the squares [x, x].

    Seeded by [e_i, e_i] and the polarizations [e_i, e_j] + [e_j, e_i],
    whose span holds [x, v] + [v, x] for all x and v by bilinearity, then
    closed under bracketing with basis elements on the left.  That closes
    it on the right too: [v, x] = ([v, x] + [x, v]) - [x, v].  All rows
    are integer, D times the bracket, read from ``integer_index``: each
    pair's seed goes in by (min, max), and [e_i, v] is ``right_image`` of
    e_i through the columns of v.  The ``RowSpace`` the closure ran in is
    returned as it is.
    """
    n = alg.dim
    _, index = alg.integer_index
    seeds: dict[tuple[int, int], list[int]] = defaultdict(([0] * n).copy)
    for i, row in index.items():
        for j, terms in row:
            seed = seeds[min(i, j), max(i, j)]
            for k, a in terms:
                seed[k] += a
    space = RowSpace(n)
    frontier = [seeds[key] for key in sorted(seeds) if space.add(seeds[key])]
    while frontier:
        columns = right_columns(index, n, frontier.pop())
        for unit in _unit_rows(n):
            left = right_image(columns, unit)  # D [e_i, v]
            if space.add(left):
                frontier.append(left)
    return space


def change_of_basis(alg: Algebra, m: Sequence[Sequence[Fraction]],
                    labels: Sequence[str] | None = None) -> Algebra:
    """Rewrite the table in the basis b_i = sum_j m[i][j] e_j.

    ``m`` must be invertible; the returned algebra is isomorphic to the
    input and round-trips with the inverse matrix.
    """
    n = alg.dim
    if len(m) != n or any(len(row) != n for row in m):
        raise InvalidInputError("change-of-basis matrix has wrong shape")
    minv = invert(m)
    if minv is None:
        raise InvalidInputError("change-of-basis matrix is singular")
    if labels is None:
        labels = tuple(f"b{i + 1}" for i in range(n))
    # Old coordinates u map to new coordinates u * minv (rows are new basis);
    # the kernel gives D [b_i, b_j], so minv takes the factor 1/D.
    den, index = alg.integer_index
    minv = tuple(tuple(c / den for c in row) for row in minv)
    columns = [right_columns(index, n, row) for row in m]
    new_table = {}
    for i in range(n):
        for j in range(n):
            prod = right_image(columns[j], m[i])
            if any(prod):
                new_table[(i, j)] = row_times_mat(prod, minv)
    return Algebra(n, tuple(labels), new_table)


def abelian_algebra(dim: int) -> Algebra:
    """All products zero, on e1, ..., e_dim."""
    return Algebra(dim, tuple(f"e{i + 1}" for i in range(dim)), {})


def chain_algebra(dim: int) -> Algebra:
    """Null-filiform chain [e_i, e_1] = e_{i+1}, 1 <= i <= dim-1."""
    products = {(i, 0): [(i + 1, Fraction(1))] for i in range(dim - 1)}
    return Algebra.from_products(
        dim, tuple(f"e{i + 1}" for i in range(dim)), products)


# -- JSON interface ------------------------------------------------------

def algebra_to_dict(alg: Algebra) -> dict:
    """Canonical JSON-ready form of the algebra table."""
    entries = {f"{i},{j}": [[k, format_scalar(c)] for k, c in terms]
               for (i, j), terms in sorted(alg._entries.items())}
    return {"dim": alg.dim, "basis": list(alg.basis_labels), "brackets": entries}


def algebra_to_json(alg: Algebra) -> str:
    return json.dumps(algebra_to_dict(alg), indent=2, sort_keys=True)


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict):
        raise InvalidInputError("algebra JSON must be an object")
    for key in ("dim", "basis", "brackets"):
        if key not in data:
            raise InvalidInputError(f"algebra JSON missing key {key!r}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise InvalidInputError("'dim' must be a positive integer")
    if dim > MAX_DIM:
        raise InvalidInputError(f"'dim' is {dim}, over the limit of {MAX_DIM}")
    basis = data["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(s, str) for s in basis)):
        raise InvalidInputError("'basis' must be a list of dim strings")
    raw = data["brackets"]
    if not isinstance(raw, dict):
        raise InvalidInputError("'brackets' must be an object")
    products = {}
    for key, terms in raw.items():
        try:
            i, j = map(int, key.split(","))
        except ValueError:
            i = None
        # one spelling per pair: int() would also take " 0", "+0" and "1_0"
        if i is None or key != f"{i},{j}":
            raise InvalidInputError(
                f"brackets key {key!r} is not of the form 'i,j'")
        if not isinstance(terms, list):
            raise InvalidInputError(f"brackets[{key!r}] must be a list")
        parsed = []
        for t in terms:
            if (not isinstance(t, list) or len(t) != 2 or not isinstance(t[0], int)
                    or isinstance(t[0], bool) or not isinstance(t[1], str)):
                raise InvalidInputError(
                    f"brackets[{key!r}] entries must be [index, \"num/den\"]")
            parsed.append((t[0], parse_scalar(t[1])))
        products[(i, j)] = parsed
    return Algebra.from_products(dim, basis, products)


def algebra_from_json(text: str) -> Algebra:
    return algebra_from_dict(load_json(text))
