"""Exact echelon machinery: canonical forms, ranks, inverses."""

from fractions import Fraction

from hypothesis import given, strategies as st

from nilalg.linalg import RowSpace, identity, invert, unit_vector

from oracles import mat_mul, rank

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
    coords = space.coordinates((F(2), F(3), F(5)))
    assert coords == [F(2), F(3)]


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


def test_unit_vector():
    assert unit_vector(3, 1) == (F(0), F(1), F(0))
