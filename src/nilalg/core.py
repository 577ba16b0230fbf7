"""Algebras given by exact rational structure constants.

An :class:`Algebra` is a finite-dimensional vector space with a bilinear
product determined by a sparse table of basis brackets [e_i, e_j].  No
symmetry of any kind is assumed: Leibniz algebras are not antisymmetric,
so (i, j) and (j, i) are independent keys.  Absent keys mean the product
of those basis elements is zero.

All scalars are ``fractions.Fraction``; equality of vectors, tables and
subspaces is therefore exact and decidable.  Algebras, vectors and
subspaces are immutable after construction and every operation is a pure
function, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInputError
from .linalg import (
    RowSpace,
    Vector,
    ZERO,
    invert,
    is_zero_vector,
    row_times_mat,
    unit_vector,
    zero_vector,
)


# Python's default limit on int <-> str conversion; a larger numerator or
# denominator could not be written back into a report.
MAX_SCALAR_DIGITS = 4300


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
class Subspace:
    """A subspace stored as its reduced-row-echelon basis.

    The canonical storage makes equality of subspaces syntactic equality
    of the dataclass, so subspaces are usable as dict keys / set members.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        space = RowSpace(ambient_dim, vectors)
        return Subspace(ambient_dim, space.rows(), space.pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return RowSpace(self.ambient_dim, self.basis).contains(vec)

    def is_zero(self) -> bool:
        return not self.basis


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra over Q given by a sparse bracket table.

    ``brackets`` is the public dense form {(i, j): [e_i, e_j]}.  Every
    bracket routine reads ``integer_index``, built on first use: D, the
    least common denominator of the structure constants, and the table
    scaled by D, with i mapped to [(j, ((k, D*c), ...))] listing only the
    nonzero coefficients c of e_k in [e_i, e_j].  ``_triples`` lists every
    (i, j, k) with such a coefficient, for degree checks that need only the
    support.
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
        triples: list[tuple[int, int, int]] = []
        for (i, j), vec in self.brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise InvalidInputError(f"bracket index ({i},{j}) out of range")
            if len(vec) != self.dim:
                raise InvalidInputError(
                    f"bracket ({i},{j}) value has length {len(vec)}, "
                    f"expected {self.dim}")
            triples.extend((i, j, k) for k, c in enumerate(vec) if c)
        object.__setattr__(self, "_triples", tuple(triples))

    @cached_property
    def integer_index(self) -> tuple[int, dict[int, list]]:
        """(D, index): index[i] lists (j, ((k, D*c), ...)) for each nonzero
        [e_i, e_j], in ``brackets`` order, D the least common denominator of
        the structure constants c.

        On integer vectors the routines below then compute D times the
        bracket, which has the same span and the same support.
        """
        den = lcm(1, *(c.denominator for vec in self.brackets.values()
                       for c in vec if c))
        index: dict[int, list] = {}
        for (i, j), vec in self.brackets.items():
            terms = tuple((k, c.numerator * (den // c.denominator))
                          for k, c in enumerate(vec) if c)
            if terms:
                index.setdefault(i, []).append((j, terms))
        return den, index

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_products(dim: int, labels: Sequence[str],
                      products: Mapping[tuple[int, int],
                                        Iterable[tuple[int, Fraction]]]) -> "Algebra":
        """Build from sparse products {(i, j): [(k, coeff), ...]}."""
        table = {}
        for (i, j), terms in products.items():
            vec = [ZERO] * dim
            for k, c in terms:
                vec[k] += Fraction(c)
            if not is_zero_vector(vec):
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
    scaled = right_image(sparse_rows(right_columns(index, alg.dim, y)), x)
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


def right_columns(index: Mapping[int, list], n: int, x: Sequence[int]
                  ) -> list[list[int]]:
    """The columns [e_j, x], j < n, of R_x on an ``integer_index`` table,
    as dense lists: D times the columns, integer when x is."""
    columns = []
    for j in range(n):
        col = [0] * n
        for t, terms in index.get(j, ()):
            c = x[t]
            if c:
                for k, a in terms:
                    col[k] += c * a
        columns.append(col)
    return columns


def sparse_rows(rows: Iterable[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """Each row as its nonzero entries [(k, c), ...], the form ``right_image``
    reads."""
    return [[(k, c) for k, c in enumerate(row) if c] for row in rows]


def right_image(columns: Sequence[Iterable[tuple[int, int]]],
                v: Sequence[int]) -> list[int]:
    """sum_j v_j columns[j] from sparse columns [(k, c), ...]: [v, x] when
    column j holds [e_j, x]."""
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
    algebra_dim: int
    violations: tuple[LeibnizViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self, alg: Algebra) -> str:
        if self.ok:
            return "Leibniz identity holds on all basis triples"
        lines = [f"{len(self.violations)} violating basis triple(s):"]
        for v in self.violations[:10]:
            i, j, k = v.triple
            lines.append(
                f"  ({alg.basis_labels[i]}, {alg.basis_labels[j]}, "
                f"{alg.basis_labels[k]}): defect = {alg.format_vector(v.defect)}")
        return "\n".join(lines)


def check_leibniz(alg: Algebra) -> LeibnizReport:
    """Evaluate [x,[y,z]] = [[x,y],z] - [[x,z],y] on all n^3 basis triples.

    Each term of the defect at (i, j, k) contains one of the table entries
    (j, k), (i, j) or (i, k), so triples where all three are zero have zero
    defect by bilinearity and are skipped; the rest run in (i, j, k) order.
    A triple's defect is accumulated sparsely from the pair view
    (i, j) -> ((k, D*c), ...) of ``integer_index``: each term is a sum of
    products of two structure constants, so the integer sum, added into a
    dict keyed by basis index, is D^2 times the defect.  The dense
    ``Fraction`` defect, that sum over D^2, is built only for a violation.
    """
    n = alg.dim
    den, index = alg.integer_index
    pairs = {(i, j): terms for i, row in index.items() for j, terms in row}
    right_of = [set() for _ in range(n)]  # right_of[i]: j with [e_i, e_j] != 0
    for i, j in pairs:
        right_of[i].add(j)
    violations = []
    for i in range(n):
        for j in range(n):
            ij = pairs.get((i, j), ())  # [e_i, e_j]
            ks = range(n) if ij else sorted(right_of[i] | right_of[j])
            for k in ks:
                acc: dict[int, int] = {}
                for t, a in pairs.get((j, k), ()):  # [e_i, [e_j, e_k]]
                    for m, b in pairs.get((i, t), ()):
                        acc[m] = acc.get(m, 0) + a * b
                for t, a in ij:  # - [[e_i, e_j], e_k]
                    for m, b in pairs.get((t, k), ()):
                        acc[m] = acc.get(m, 0) - a * b
                for t, a in pairs.get((i, k), ()):  # + [[e_i, e_k], e_j]
                    for m, b in pairs.get((t, j), ()):
                        acc[m] = acc.get(m, 0) + a * b
                if any(acc.values()):
                    defect = [ZERO] * n
                    for m, c in acc.items():
                        defect[m] = Fraction(c, den * den)
                    violations.append(LeibnizViolation((i, j, k), tuple(defect)))
    return LeibnizReport(n, tuple(violations))


def is_lie(alg: Algebra) -> bool:
    """True iff the table is antisymmetric with zero squares.

    Assumes check_leibniz passed; antisymmetry on basis pairs then gives
    [x, x] = 0 for every x by bilinearity.
    """
    for i in range(alg.dim):
        if not is_zero_vector(alg.table_entry(i, i)):
            return False
        for j in range(i + 1, alg.dim):
            anti = tuple(a + b for a, b in
                         zip(alg.table_entry(i, j), alg.table_entry(j, i)))
            if not is_zero_vector(anti):
                return False
    return True


def square_ideal(alg: Algebra) -> Subspace:
    """Two-sided ideal generated by the squares [x, x].

    Seeded by [e_i, e_i] and the polarizations [e_i, e_j] + [e_j, e_i],
    whose span holds [x, v] + [v, x] for all x and v by bilinearity, then
    closed under bracketing with basis elements on the left.  That closes
    it on the right too: [v, x] = ([v, x] + [x, v]) - [x, v].  The brackets
    come from ``integer_index`` as D times the bracket, which spans the
    same ideal.
    """
    n = alg.dim
    _, index = alg.integer_index
    space = RowSpace(n)
    frontier = []

    def feed(vec) -> None:
        if space.add(vec):
            frontier.append(tuple(vec))

    for i in range(n):
        feed(alg.table_entry(i, i))
        for j in range(i + 1, n):
            feed(tuple(a + b for a, b in
                       zip(alg.table_entry(i, j), alg.table_entry(j, i))))
    while frontier:
        vec = frontier.pop()
        for left in right_columns(index, n, vec):  # D [e_i, vec]
            feed(left)
    return Subspace(n, space.rows(), space.pivots)


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
    columns = [sparse_rows(right_columns(index, n, row)) for row in m]
    new_table = {}
    for i in range(n):
        for j in range(n):
            prod = right_image(columns[j], m[i])
            if any(prod):
                new_table[(i, j)] = row_times_mat(prod, minv)
    return Algebra(n, tuple(labels), new_table)


def abelian_algebra(dim: int, prefix: str = "e") -> Algebra:
    """All products zero."""
    return Algebra(dim, tuple(f"{prefix}{i + 1}" for i in range(dim)), {})


def chain_algebra(dim: int, prefix: str = "e") -> Algebra:
    """Null-filiform chain [e_i, e_1] = e_{i+1}, 1 <= i <= dim-1."""
    products = {(i, 0): [(i + 1, Fraction(1))] for i in range(dim - 1)}
    return Algebra.from_products(
        dim, tuple(f"{prefix}{i + 1}" for i in range(dim)), products)


# -- JSON interface ------------------------------------------------------

def algebra_to_dict(alg: Algebra) -> dict:
    """Canonical JSON-ready form of the algebra table."""
    entries = {}
    for (i, j) in sorted(alg.brackets):
        vec = alg.brackets[(i, j)]
        terms = [[k, format_scalar(vec[k])] for k in range(alg.dim) if vec[k]]
        if terms:
            entries[f"{i},{j}"] = terms
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
        if not (0 <= i < dim and 0 <= j < dim):
            raise InvalidInputError(f"brackets key {key!r}: index out of range")
        if not isinstance(terms, list):
            raise InvalidInputError(f"brackets[{key!r}] must be a list")
        parsed = []
        for t in terms:
            if (not isinstance(t, list) or len(t) != 2 or not isinstance(t[0], int)
                    or isinstance(t[0], bool) or not isinstance(t[1], str)):
                raise InvalidInputError(
                    f"brackets[{key!r}] entries must be [index, \"num/den\"]")
            k, scalar = t
            if not (0 <= k < dim):
                raise InvalidInputError(
                    f"brackets[{key!r}]: target index {k} out of range")
            parsed.append((k, parse_scalar(scalar)))
        products[(i, j)] = parsed
    return Algebra.from_products(dim, basis, products)


def algebra_from_json(text: str) -> Algebra:
    return algebra_from_dict(load_json(text))
