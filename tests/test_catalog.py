"""Family constructors: classification tables, hypotheses, witnesses."""

import pytest

from nilalg import catalog
from nilalg import (
    FamilySpec,
    InvalidInputError,
    bracket,
    characteristic_sequence,
    check_leibniz,
    generator_roles,
    graded_fingerprint,
    is_lie,
    is_p_filiform,
    list_families,
    make,
    known_witness,
    verify_gradation,
)

from conftest import GRID


def vec_of(alg, label):
    return alg.basis_vector(alg.label_index(label))


# -- make --------------------------------------------------------------------

def test_make_l_bracket_example(l_12_4):
    # [x_1, x_2] = y_1 (r_1 = 3, i = 1)
    assert bracket(l_12_4, vec_of(l_12_4, "x1"), vec_of(l_12_4, "x2")) \
        == vec_of(l_12_4, "y1")
    # antisymmetric counterpart synthesized
    assert bracket(l_12_4, vec_of(l_12_4, "x2"), vec_of(l_12_4, "x1")) \
        == tuple(-c for c in vec_of(l_12_4, "y1"))


def test_make_m4_bracket_example(m4_10_4_0):
    assert bracket(m4_10_4_0, vec_of(m4_10_4_0, "x1"), vec_of(m4_10_4_0, "y1")) \
        == vec_of(m4_10_4_0, "z1")


def test_make_m4_alpha1_divisibility_rejected():
    with pytest.raises(InvalidInputError):
        FamilySpec("M4", 12, 4, (), 1)  # 8 does not divide 12


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.name())
def test_grid_leibniz_clean(spec, grid_algebras):
    assert check_leibniz(grid_algebras[spec]).ok


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.name())
def test_grid_p_filiform(spec, grid_algebras):
    alg = grid_algebras[spec]
    assert is_p_filiform(alg, spec.p)
    expected = (spec.n - spec.p,) + (1,) * spec.p
    assert characteristic_sequence(alg) == expected


@pytest.mark.parametrize("spec", GRID, ids=lambda s: s.name())
def test_grid_lie_verdicts(spec, grid_algebras):
    expected = spec.family in ("L", "Q", "TAU_NP1", "TAU_NP2")
    assert is_lie(grid_algebras[spec]) is expected


# -- hypotheses validation ------------------------------------------------------

# Each entry is the fields of a spec and the hypothesis it violates; the
# spec is refused when it is built, so none of them can reach ``make``.
@pytest.mark.parametrize("spec", [
    (("L", 12, 4, (3, 5, 8)), "all r_j odd"),
    (("L", 12, 4, (3, 5)), "exactly p-1 = 3 parameters r_j (got 2)"),
    (("L", 12, 4, (3, 7, 5)), "r_1 < r_2 < ... strictly increasing"),
    (("L", 10, 4, (3, 5, 7)), "n >= max(3p-1, p+8) = 12"),
    (("Q", 12, 4, (3, 5, 7)), "n-p odd (required by the Q table)"),
    (("TAU_NP1", 13, 4, (3, 5)), "all r_j odd"),  # n-p odd: r_{p-1} even
    (("M1", 8, 3), "p even"),
    (("M3", 8, 4), "p odd"),
    (("M3", 5, -1), "p >= 1"),
    (("M3", 0, -5), "p >= 1"),
    (("M4", 7, 4, (), 0), "n-p >= 4"),
    (("M4", 10, 4, (), 2), "alpha in {0, 1}"),
    (("M5", 10, 4, (3,)), "r parameters apply only to L/Q/tau"),
    (("M4", 12, 4, (), 1), "(n-p) divides n (required by M4(1))"),
])
def test_make_rejects_bad_parameters(spec):
    fields, hypothesis = spec
    with pytest.raises(InvalidInputError) as exc:
        FamilySpec(*fields)
    assert str(exc.value).endswith(f": violated hypothesis: {hypothesis}")


def test_error_names_hypothesis():
    with pytest.raises(InvalidInputError, match="divides"):
        FamilySpec("M4", 12, 4, (), 1)


@pytest.mark.parametrize("spec", [FamilySpec("L", 12, 4, (3, 5, 7)),
                                  FamilySpec("M3", 9, 5),
                                  FamilySpec("M4", 12, 6, (), 1),
                                  FamilySpec("M5", 10, 4)], ids=FamilySpec.name)
def test_built_spec_is_not_validated_again(spec, monkeypatch):
    # the hypotheses are checked once, when the spec is built
    def refuse(_):
        raise AssertionError("spec validated again")
    monkeypatch.setattr(catalog, "_validate", refuse)
    assert make(spec).dim == spec.n
    known_witness(spec)
    generator_roles(spec)


# -- paper witnesses -------------------------------------------------------------

def test_known_witness_m4_0(m4_10_4_0):
    w = known_witness(FamilySpec("M4", 10, 4, (), 0))
    by_label = {m4_10_4_0.basis_labels[i]: d for i, d in w.degrees.items()}
    assert by_label == {"x1": 1, "x2": 2, "x3": 3, "x4": 4, "x5": 5, "x6": 6,
                        "y1": 7, "z1": 8, "y2": 9, "z2": 10}
    assert verify_gradation(m4_10_4_0, w).is_maximum_length


def test_known_witness_m5(m5_10_4):
    w = known_witness(FamilySpec("M5", 10, 4))
    by_label = {m5_10_4.basis_labels[i]: d for i, d in w.degrees.items()}
    assert by_label == {"y1": -1, "z1": 0, "x1": 1, "x2": 2, "x3": 3, "x4": 4,
                        "x5": 5, "x6": 6, "y2": 7, "z2": 8}
    assert verify_gradation(m5_10_4, w).is_maximum_length


def test_known_witness_none_for_negative_families():
    assert known_witness(FamilySpec("L", 12, 4, (3, 5, 7))) is None
    assert known_witness(FamilySpec("M3", 9, 5)) is None
    assert known_witness(FamilySpec("M1", 8, 4)) is None


def test_m4_variants_distinguished_at_12_6():
    # necessary conditions for "pairwise non-isomorphic": fingerprints or
    # witness degree tuples must differ pairwise
    specs = [FamilySpec("M4", 12, 6, (), 0), FamilySpec("M4", 12, 6, (), 1),
             FamilySpec("M5", 12, 6)]
    records = []
    for spec in specs:
        alg = make(spec)
        w = known_witness(spec)
        assert verify_gradation(alg, w).is_maximum_length
        witness_tuple = tuple(w.degrees[i] for i in range(alg.dim))
        records.append((graded_fingerprint(alg), witness_tuple))
    for a in range(len(records)):
        for b in range(a + 1, len(records)):
            assert records[a][0] != records[b][0] \
                or records[a][1] != records[b][1]


# -- misc -------------------------------------------------------------------------

def test_generator_roles_shapes(m3_9_5):
    roles = generator_roles(FamilySpec("M3", 9, 5))
    assert roles.driver == m3_9_5.label_index("e1")
    assert roles.others == tuple(m3_9_5.label_index(f"f{j}") for j in (1, 2, 3))


def test_family_spec_json_roundtrip():
    spec = FamilySpec("L", 12, 4, (3, 5, 7))
    again = FamilySpec.from_dict(spec.to_dict())
    assert again == spec
    assert FamilySpec.from_dict(
        {"family": "M4", "n": 10, "p": 4, "r": None, "alpha": 0}
    ) == FamilySpec("M4", 10, 4, (), 0)


@pytest.mark.parametrize("fields", [
    ("M4", 8, 4, 1),  # alpha meant, passed as r
    ("M4", "8", 4),
    ("M5", True, 4),
    ("M5", 8, 4.0),
    ("L", 12, 4, (3, True, 7)),
    ("M4", 8, 4, (), False),
    ("M4", 8, 4, (), "1"),
])
def test_family_spec_refuses_bad_field_types(fields):
    with pytest.raises(InvalidInputError, match="family spec"):
        make(FamilySpec(*fields))


def test_family_spec_keeps_r_as_tuple():
    spec = FamilySpec("L", 12, 4, [3, 5, 7])
    assert spec == FamilySpec("L", 12, 4, (3, 5, 7))
    assert spec.r == (3, 5, 7) and hash(spec) == hash(FamilySpec("L", 12, 4, (3, 5, 7)))


def test_list_families_covers_enum():
    assert set(list_families()) == {"L", "Q", "TAU_NP1", "TAU_NP2",
                                    "M1", "M2", "M3", "M4", "M5"}
