"""Exact echelon machinery: canonical forms, ranks, inverses."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from nilalg.linalg import RowSpace, invert, unit_vector

from oracles import dense_invert, identity, mat_mul, rank

F = Fraction


def test_rowspace_reduced_echelon_is_canonical():
    rows = [(F(2), F(4), F(0)), (F(1), F(2), F(3))]
    a = RowSpace(3, rows)
    b = RowSpace(3, reversed(rows))
    assert a.rows() == b.rows()
    assert a.pivots == b.pivots == (0, 2)
    assert a.dim == 2


def test_rowspace_membership_and_coordinates():
    space = RowSpace(3, [(F(1), F(0), F(1)), (F(0), F(1), F(1))])
    assert space.contains((F(2), F(3), F(5)))
    assert not space.contains((F(0), F(0), F(1)))


@given(st.permutations(range(4)),
       st.lists(st.fractions(min_value=F(1, 3), max_value=F(5)), min_size=4,
                max_size=4))
def test_span_invariant_under_reorder_and_scale(perm, scales):
    vecs = [(F(1), F(2), F(0), F(1)),
            (F(0), F(1), F(1), F(0)),
            (F(1), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(1))]
    base = RowSpace(4, vecs)
    shuffled = RowSpace(4, [tuple(scales[k] * c for c in vecs[i])
                            for k, i in enumerate(perm)])
    assert base.rows() == shuffled.rows()


def test_rank_and_invert_roundtrip():
    m = ((F(1), F(2)), (F(3), F(5)))
    assert rank(m, 2) == 2
    minv = invert(m)
    assert mat_mul(m, minv) == identity(2)
    singular = ((F(1), F(2)), (F(2), F(4)))
    assert rank(singular, 2) == 1
    assert invert(singular) is None


@st.composite
def square_matrices(draw):
    """An n x n matrix, 1 <= n <= 7, with int and Fraction entries; about
    half are made singular by replacing a row with a combination of the
    others (a zero row when n = 1)."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=n - 1))
        coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=n, max_size=n))
        m[k] = [sum((coeffs[r] * m[r][j] for r in range(n) if r != k), F(0))
                for j in range(n)]
    return tuple(tuple(row) for row in m)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_invert_matches_gauss_jordan(m):
    minv = invert(m)
    assert minv == dense_invert(m)
    if minv is not None:
        assert mat_mul(m, minv) == identity(len(m))


@st.composite
def subspaces_and_vectors(draw):
    """Rational rows spanning a subspace of Q^n (1 <= n <= 7, possibly
    dependent or zero), and integer vectors: combinations of the rows
    scaled to integers, which lie in the span, and random ones."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    coeff = st.integers(min_value=-3, max_value=3)
    vectors = draw(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                     min_size=n, max_size=n), max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        cs = draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
        vec = [sum((c * F(row[j]) for c, row in zip(cs, rows)), F(0))
               for j in range(n)]
        den = lcm(*(c.denominator for c in vec))
        vectors.append([int(c * den) for c in vec])
    return n, rows, vectors


@settings(max_examples=150, deadline=None)
@given(subspaces_and_vectors())
def test_vanishing_forms_decide_membership(case):
    n, rows, vectors = case
    space = RowSpace(n, rows)
    forms = space.vanishing_forms()
    assert len(forms) == n - space.dim
    assert all(type(c) is int for form in forms for c in form)
    for vec in vectors + [list(row) for row in space.rows()]:
        vanish = not any(sum(a * b for a, b in zip(form, vec)) for form in forms)
        assert vanish == space.contains(vec)


@st.composite
def integer_rows(draw):
    """Integer rows in Q^n (1 <= n <= 6, possibly dependent or zero) and
    integer probe vectors."""
    n = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    return n, draw(st.lists(row, max_size=n + 1)), draw(st.lists(row, max_size=3))


def _positive_multiple(a, b) -> bool:
    """True iff the integer vector a is lambda * b for some lambda > 0."""
    k = next(k for k, c in enumerate(b) if c)
    ratio = F(a[k], b[k])
    return ratio > 0 and all(F(s) == ratio * t for s, t in zip(a, b))


@settings(max_examples=150, deadline=None)
@given(integer_rows(),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
def test_integer_rows_match_their_fraction_copies(case, scale):
    # integer rows go in as they are, Fraction rows are scaled to integers
    # first: the same rows as Fractions, or scaled by any nonzero rational,
    # span the same space with the same forms up to a positive factor
    n, rows, probes = case
    ints = RowSpace(n, rows)
    forms = ints.vanishing_forms()
    for copy in (RowSpace(n, [[F(c) for c in row] for row in rows]),
                 RowSpace(n, [[scale * c for c in row] for row in rows])):
        assert copy.rows() == ints.rows()
        assert copy.pivots == ints.pivots
        for vec in probes + rows:
            scaled = [scale * c for c in vec]
            assert copy.contains(vec) == copy.contains(scaled) == ints.contains(vec)
        copied = copy.vanishing_forms()
        assert len(copied) == len(forms)
        assert all(map(_positive_multiple, copied, forms))


def test_unit_vector():
    assert unit_vector(3, 1) == (F(0), F(1), F(0))
