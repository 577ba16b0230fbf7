"""Bracket evaluation, Leibniz checking, ideals, change of basis, JSON io."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilalg import (
    Algebra,
    FamilySpec,
    InvalidInputError,
    algebra_from_json,
    algebra_to_json,
    bracket,
    change_of_basis,
    characteristic_sequence,
    check_leibniz,
    is_lie,
    lower_central_series,
    make,
    square_ideal,
)
from nilalg.linalg import zero_vector

from oracles import (
    abelian_algebra,
    algebra_to_dict,
    chain_algebra,
    identity,
    random_nilpotent_algebra,
)

F = Fraction

rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)


# -- bracket ---------------------------------------------------------------

def test_bracket_m1_basis_pair(m1_8_4):
    # [e_1, f_1] = f_{p/2 + 1} = f_3
    out = bracket(m1_8_4, m1_8_4.basis_vector(0), m1_8_4.basis_vector(4))
    assert out == m1_8_4.basis_vector(6)


def test_bracket_zero_argument(m5_10_4):
    zero = zero_vector(10)
    assert bracket(m5_10_4, zero, m5_10_4.basis_vector(3)) == zero


def test_bracket_bilinear_expansion_m5(m5_10_4):
    # [y_1 + x_1, y_2] = [y_1, y_2] + [x_1, y_2] = x_6 + z_2
    alg = m5_10_4
    y1 = alg.basis_vector(alg.label_index("y1"))
    x1 = alg.basis_vector(alg.label_index("x1"))
    y2 = alg.basis_vector(alg.label_index("y2"))
    out = bracket(alg, tuple(a + b for a, b in zip(y1, x1)), y2)
    expected = tuple(a + b for a, b in zip(
        alg.basis_vector(alg.label_index("x6")),
        alg.basis_vector(alg.label_index("z2"))))
    assert out == expected


def test_bracket_dimension_mismatch(m1_8_4):
    with pytest.raises(InvalidInputError):
        bracket(m1_8_4, zero_vector(7), zero_vector(8))


@settings(max_examples=40)
@given(a=rationals, b=rationals,
       coords=st.lists(rationals, min_size=30, max_size=30))
def test_bracket_is_bilinear(a, b, coords):
    alg = make(FamilySpec("M5", 10, 4))
    x, y, z = (tuple(coords[k * 10:(k + 1) * 10]) for k in range(3))
    ax_by = tuple(a * u + b * v for u, v in zip(x, y))
    left = bracket(alg, ax_by, z)
    right = tuple(a * u + b * v for u, v in
                  zip(bracket(alg, x, z), bracket(alg, y, z)))
    assert left == right
    # and linear in the second slot
    z_ax_by = bracket(alg, z, ax_by)
    right2 = tuple(a * u + b * v for u, v in
                   zip(bracket(alg, z, x), bracket(alg, z, y)))
    assert z_ax_by == right2


# -- Leibniz identity --------------------------------------------------------

def test_check_leibniz_m1_clean(m1_8_4):
    assert check_leibniz(m1_8_4).ok


def test_check_leibniz_abelian():
    assert check_leibniz(abelian_algebra(5)).ok


def test_check_leibniz_random_triples_oracle(m5_10_4):
    # redundant oracle: basis triples passing implies random triples pass
    import random
    rng = random.Random(7)
    assert check_leibniz(m5_10_4).ok
    for _ in range(100):
        x, y, z = (tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(10)) for _ in range(3))
        lhs = bracket(m5_10_4, x, bracket(m5_10_4, y, z))
        rhs = tuple(a - b for a, b in zip(
            bracket(m5_10_4, bracket(m5_10_4, x, y), z),
            bracket(m5_10_4, bracket(m5_10_4, x, z), y)))
        assert lhs == rhs


def test_check_leibniz_detects_corruption(m1_8_4):
    # [e_1, e_1] := f_1 breaks the identity at (e_1, e_1, e_1)
    table = dict(m1_8_4.brackets)
    table[(0, 0)] = m1_8_4.basis_vector(4)
    corrupted = Algebra(8, m1_8_4.basis_labels, table)
    report = check_leibniz(corrupted)
    assert not report.ok
    assert (0, 0, 0) in {v.triple for v in report.violations}


def test_check_leibniz_e4_corruption_stays_leibniz(m1_8_4):
    # The e_4 corruption keeps the identity: e_4 is as inert as e_2 was.
    table = dict(m1_8_4.brackets)
    table[(0, 0)] = m1_8_4.basis_vector(3)
    assert check_leibniz(Algebra(8, m1_8_4.basis_labels, table)).ok


# -- is_lie and the squares ideal --------------------------------------------

def test_is_lie(l_12_4, m1_8_4):
    assert is_lie(l_12_4)
    assert not is_lie(m1_8_4)
    assert is_lie(abelian_algebra(3))


def test_square_ideal_lie_is_zero(l_12_4):
    assert square_ideal(l_12_4).dim == 0


def test_square_ideal_m1(m1_8_4):
    # generated by [e_1,e_1]=e_2 and the polarization [e_1,f_j]+[f_j,e_1]=f_{2+j}
    ideal = square_ideal(m1_8_4)
    assert ideal.dim == 5
    for label in ("e2", "e3", "e4", "f3", "f4"):
        assert ideal.contains(m1_8_4.basis_vector(m1_8_4.label_index(label)))


def test_square_ideal_m5_contains_x2(m5_10_4):
    ideal = square_ideal(m5_10_4)
    assert ideal.contains(m5_10_4.basis_vector(m5_10_4.label_index("x2")))


def test_is_lie_implies_zero_square_ideal(grid_algebras):
    for spec, alg in grid_algebras.items():
        if is_lie(alg):
            assert square_ideal(alg).dim == 0, spec.name()


# -- change of basis -----------------------------------------------------------

def test_change_of_basis_identity(m1_8_4):
    new = change_of_basis(m1_8_4, identity(8), m1_8_4.basis_labels)
    assert new.brackets == dict(m1_8_4.brackets)


def test_change_of_basis_swap_f_generators(m1_8_4):
    # swapping f_1 and f_2 relabels the two f-products
    perm = [list(row) for row in identity(8)]
    perm[4], perm[5] = perm[5], perm[4]
    new = change_of_basis(m1_8_4, tuple(tuple(r) for r in perm))
    # new basis: b5 = f_2, b6 = f_1; [e_1, b5] = f_4 = b8, [e_1, b6] = f_3 = b7
    assert new.table_entry(0, 4) == new.basis_vector(7)
    assert new.table_entry(0, 5) == new.basis_vector(6)


def test_change_of_basis_chain_scaling():
    # doubling e_1 rescales the chain entries by powers of 2
    alg = chain_algebra(4)
    m = [list(row) for row in identity(4)]
    m[0][0] = F(2)
    new = change_of_basis(alg, tuple(tuple(r) for r in m))
    assert new.table_entry(0, 0) == tuple(F(4) * c for c in new.basis_vector(1))
    assert new.table_entry(1, 0) == tuple(F(2) * c for c in new.basis_vector(2))
    assert new.table_entry(2, 0) == tuple(F(2) * c for c in new.basis_vector(3))


def test_change_of_basis_roundtrip(m5_10_4):
    import random
    from nilalg.linalg import invert
    from oracles import random_invertible
    # roundtrip with the inverse matrix restores the table
    rng = random.Random(3)
    m = random_invertible(rng, 10)
    once = change_of_basis(m5_10_4, m)
    back = change_of_basis(once, invert(m), m5_10_4.basis_labels)
    assert back.brackets == dict(m5_10_4.brackets)


def test_change_of_basis_singular_rejected(m1_8_4):
    singular = tuple(tuple(F(1) for _ in range(8)) for _ in range(8))
    with pytest.raises(InvalidInputError):
        change_of_basis(m1_8_4, singular)


def test_change_of_basis_preserves_invariants(m1_8_4):
    import random
    from oracles import random_invertible
    rng = random.Random(11)
    m = random_invertible(rng, 8)
    moved = change_of_basis(m1_8_4, m)
    assert check_leibniz(moved).ok == check_leibniz(m1_8_4).ok
    assert lower_central_series(moved).dims == lower_central_series(m1_8_4).dims
    assert (characteristic_sequence(moved)
            == characteristic_sequence(m1_8_4))


# -- JSON ---------------------------------------------------------------------

def test_algebra_json_roundtrip_bit_exact(m5_10_4):
    text = algebra_to_json(m5_10_4)
    again = algebra_from_json(text)
    assert again == m5_10_4
    assert algebra_to_json(again) == text


def test_algebra_json_is_the_indented_dump(catalog_16):
    # the text written straight from the table is byte for byte the indented,
    # key-sorted json.dumps of algebra_to_dict: keys such as "10,2" sort
    # before "2,3", labels with quotes, backslashes, control and non-ASCII
    # characters are escaped alike, and an empty table is {}
    rng = random.Random(2026)
    algs = [alg for _, alg in catalog_16]
    algs.append(make(FamilySpec("M5", 128, 4)))
    algs += [random_nilpotent_algebra(rng, rng.randint(1, 12)) for _ in range(300)]
    labels = ('a"b', "c\\d", "\u00e9", "\u2603", "tab\t", "\U0001f600") + tuple(
        f"e{k}" for k in range(6, 12))
    algs.append(Algebra.from_products(12, labels, {
        (10, 2): [(3, F(-3, 2))], (2, 3): [(1, F(1)), (11, F(7, 9))],
        (1, 10): [(0, F(10 ** 40, 3))], (1, 1): [(5, F(-2))]}))
    algs += [abelian_algebra(1), abelian_algebra(3)]
    for alg in algs:
        assert algebra_to_json(alg) == json.dumps(algebra_to_dict(alg), indent=2,
                                                  sort_keys=True), alg.basis_labels
    assert '"brackets": {},' in algebra_to_json(abelian_algebra(3))


def test_algebra_json_refuses_repeated_target():
    # a target index named twice in one bracket has one spelling already,
    # its summed coefficient; Python callers of from_products still sum
    bad = ('{"dim": 2, "basis": ["a", "b"], '
           '"brackets": {"0,0": [[1, "1"], [1, "1"]]}}')
    with pytest.raises(InvalidInputError, match="target index twice"):
        algebra_from_json(bad)
    summed = Algebra.from_products(2, ("a", "b"), {(0, 0): [(1, F(1)), (1, F(1))]})
    assert summed.brackets == {(0, 0): (F(0), F(2))}


def test_algebra_json_rejects_bad_index():
    bad = '{"dim": 2, "basis": ["a", "b"], "brackets": {"5,0": [[0, "1"]]}}'
    with pytest.raises(InvalidInputError):
        algebra_from_json(bad)


@pytest.mark.parametrize("products", [{(0, 1): [(-1, 1)]}, {(0, 1): [(3, 1)]},
                                      {(0, 3): []}])
def test_from_products_rejects_out_of_range_indices(products):
    # a negative target would name a basis vector from the end, k = dim
    # would raise a bare IndexError, and a key with no terms stores nothing
    # for Algebra to check
    with pytest.raises(InvalidInputError, match="out of range"):
        Algebra.from_products(3, ("e1", "e2", "e3"), products)


def test_algebra_json_rejects_bad_scalar():
    # "1e5000" used to parse, then fail when the report formatted it; so did
    # a decimal whose denominator 10^4300 has 4301 digits
    for scalar in ("1/0", "1e5000", "1" * 4301 + "/2", "." + "0" * 4299 + "1"):
        bad = '{"dim": 1, "basis": ["a"], "brackets": {"0,0": [[0, "%s"]]}}' % scalar
        with pytest.raises(InvalidInputError):
            algebra_from_json(bad)
