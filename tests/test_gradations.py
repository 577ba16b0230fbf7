"""Gradation verification, natural gradations, witnesses, and both searches."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilalg import (
    Algebra,
    DegreeAssignment,
    FamilySpec,
    GeneratorRoles,
    DegenerateSampleError,
    InvalidInputError,
    MAXIMUM_LENGTH,
    NO_GRADATION_FOUND,
    abelian_algebra,
    chain_algebra,
    change_of_basis,
    check_leibniz,
    diagonal_search,
    generator_roles,
    graded_fingerprint,
    is_p_filiform,
    lower_central_series,
    m4_1_witness,
    make,
    natural_gradation,
    known_witness,
    two_generator_search,
    verify_gradation,
)
from nilalg.linalg import identity

from oracles import brute_diagonal_search, random_invertible, random_nilpotent_algebra

F = Fraction


# -- verify_gradation -----------------------------------------------------------

def test_verify_m5_known_witness(m5_10_4):
    w = known_witness(FamilySpec("M5", 10, 4))
    report = verify_gradation(m5_10_4, w)
    assert report.is_maximum_length
    assert report.checks.interval == (-1, 8)
    assert report.checks.offset == 0


def test_verify_m4_0_witness(m4_10_4_0):
    w = known_witness(FamilySpec("M4", 10, 4, (), 0))
    assert verify_gradation(m4_10_4_0, w).is_maximum_length


def test_verify_duplicate_degree_fails(m1_8_4):
    degrees = dict(enumerate(range(8)))
    degrees[7] = degrees[6]
    report = verify_gradation(m1_8_4, DegreeAssignment(degrees))
    assert not report.is_maximum_length
    assert report.reason == "degree collision"
    assert not report.checks.distinct


def test_verify_gap_fails():
    alg = abelian_algebra(3)
    report = verify_gradation(alg, DegreeAssignment({0: 0, 1: 1, 2: 5}))
    assert report.reason == "disconnected"


def test_verify_closure_fails():
    alg = chain_algebra(3)
    # degrees distinct and connected but incompatible with [e_2, e_1] = e_3
    report = verify_gradation(alg, DegreeAssignment({0: 1, 1: 2, 2: 0}))
    assert report.reason == "closure"
    assert not report.checks.closure


def test_verify_partial_assignment_rejected(m1_8_4):
    with pytest.raises(InvalidInputError):
        verify_gradation(m1_8_4, DegreeAssignment({0: 1}))


@settings(max_examples=20, deadline=None)
@given(shift=st.integers(min_value=-20, max_value=20))
def test_verify_shift_and_negation_invariance(shift, m5_10_4):
    w = known_witness(FamilySpec("M5", 10, 4))
    assert verify_gradation(m5_10_4, w.shifted(shift)).is_maximum_length
    assert verify_gradation(m5_10_4, w.negated()).is_maximum_length
    assert verify_gradation(
        m5_10_4, w.negated().shifted(shift)).is_maximum_length


# -- natural gradation ------------------------------------------------------------

def test_natural_gradation_m1(m1_8_4):
    assert natural_gradation(m1_8_4).component_dims == (3, 3, 1, 1)


def test_natural_gradation_m3(m3_9_5):
    assert natural_gradation(m3_9_5).component_dims == (4, 3, 1, 1)


def test_natural_gradation_abelian():
    assert natural_gradation(abelian_algebra(5)).component_dims == (5,)


def test_natural_gradation_closure_by_construction(grid_algebras):
    # in gr L, every product lands exactly in the component of summed degree
    for spec, alg in grid_algebras.items():
        nat = natural_gradation(alg)
        degs = nat.degrees
        for (i, j), vec in nat.graded_algebra.brackets.items():
            target = degs[i] + degs[j]
            for k, c in enumerate(vec):
                if c:
                    assert degs[k] == target, spec.name()


def test_graded_fingerprints_match(grid_algebras):
    for spec, alg in grid_algebras.items():
        if spec.family.startswith("M"):
            nat = natural_gradation(alg)
            assert graded_fingerprint(nat.graded_algebra) \
                == graded_fingerprint(alg), spec.name()


def test_fingerprint_separates_m1_from_abelian(m1_8_4):
    assert graded_fingerprint(m1_8_4) != graded_fingerprint(abelian_algebra(8))


# -- the explicit M4(1) witness -------------------------------------------------------

def test_m4_1_witness_12_6_exact_table():
    alg = make(FamilySpec("M4", 12, 6, (), 1))
    w = m4_1_witness(12, 6)
    by_label = {alg.basis_labels[i]: d for i, d in w.degrees.items()}
    assert by_label == {"x1": 2, "x2": 4, "x3": 6, "x4": 8, "x5": 10, "x6": 12,
                        "y1": 1, "y3": 5, "y2": 9, "z1": 3, "z3": 7, "z2": 11}
    assert verify_gradation(alg, w).is_maximum_length


def test_m4_1_witness_16_8_verifies():
    alg = make(FamilySpec("M4", 16, 8, (), 1))
    w = m4_1_witness(16, 8)
    report = verify_gradation(alg, w)
    assert report.is_maximum_length
    assert sorted(w.degrees.values()) == list(range(1, 17))


def test_m4_1_witness_with_larger_step():
    # k_s = 3 at (12, 8): the interleaving blocks with i up to k_s engage
    alg = make(FamilySpec("M4", 12, 8, (), 1))
    assert verify_gradation(alg, m4_1_witness(12, 8)).is_maximum_length


def test_m4_1_witness_rejects_non_divisible():
    with pytest.raises(InvalidInputError):
        m4_1_witness(12, 4)


# -- diagonal search ------------------------------------------------------------------

def test_diagonal_chain4():
    alg = chain_algebra(4)
    report = diagonal_search(alg)
    assert report.is_maximum_length
    # the canonical chain grading e_i -> i is among the witnesses
    assert verify_gradation(
        alg, DegreeAssignment({i: i + 1 for i in range(4)})).is_maximum_length


def test_diagonal_abelian3():
    assert diagonal_search(abelian_algebra(3)).is_maximum_length


def test_diagonal_dimension_guard():
    with pytest.raises(InvalidInputError):
        diagonal_search(abelian_algebra(9))


@st.composite
def diagonal_cases(draw):
    """A random nilpotent table of dim 1-7 (Leibniz or not), an abelian or
    chain algebra, or a small Leibniz catalog algebra, plainly or in a
    random basis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    kind = draw(st.sampled_from(("random", "random", "random", "abelian",
                                 "chain", "catalog")))
    if kind == "random":
        alg = random_nilpotent_algebra(rng, draw(st.integers(min_value=1, max_value=7)))
    elif kind == "abelian":
        alg = abelian_algebra(draw(st.integers(min_value=1, max_value=6)))
    elif kind == "chain":
        alg = chain_algebra(draw(st.integers(min_value=1, max_value=7)))
    else:
        alg = make(draw(st.sampled_from((FamilySpec("M3", 5, 1),
                                         FamilySpec("M3", 6, 1)))))
        if draw(st.booleans()):
            alg = change_of_basis(alg, random_invertible(rng, alg.dim))
    return alg


@settings(max_examples=60, deadline=None)
@given(diagonal_cases())
def test_diagonal_pruned_matches_brute_force(alg):
    # witness, assignments_tried and closure_failures all match the
    # unpruned walk over every permutation
    assert diagonal_search(alg).to_dict() == brute_diagonal_search(alg).to_dict()


def test_diagonal_agrees_with_search_on_m3_like_dim5():
    # dim-5 truncation of the M3 structure: a second chain driver f_2 forces
    # the degree collision d(f_2) = d(e_1) in both searches
    products = {
        (0, 0): [(1, F(1))],  # [e_1, e_1] = e_2
        (0, 2): [(4, F(1))],  # [e_1, f_1] = f_3
        (0, 3): [(1, F(1))],  # [e_1, f_2] = e_2
    }
    alg = Algebra.from_products(5, ("e1", "e2", "f1", "f2", "f3"), products)
    d = diagonal_search(alg)
    t = two_generator_search(alg)
    assert d.verdict == t.verdict == NO_GRADATION_FOUND


# -- two-generator adapted-basis search --------------------------------------------------

def search_with_roles(spec, **kw):
    return two_generator_search(make(spec), roles=generator_roles(spec), **kw)


def test_search_l_negative(l_12_4):
    report = two_generator_search(
        l_12_4, roles=generator_roles(FamilySpec("L", 12, 4, (3, 5, 7))))
    assert report.verdict == NO_GRADATION_FOUND
    reasons = set(report.search["reasons_by_kt"].values())
    assert "degree collision" in reasons
    assert "disconnected" in reasons


def test_search_m3_negative(m3_9_5):
    report = two_generator_search(
        m3_9_5, roles=generator_roles(FamilySpec("M3", 9, 5)))
    assert report.verdict == NO_GRADATION_FOUND
    counts = report.search["reason_counts"]
    assert counts["degree collision"] > 0
    assert counts["disconnected"] > 0


@pytest.mark.parametrize("n", [5, 6])
def test_m3_p1_has_maximum_length_gradation_in_a_special_basis(n):
    # In the basis u = e1 - f1, e2, ..., e_{n-1}, f1 the table is
    # [u, f1] = e2 and [e_i, f1] = e_{i+1}, graded by f1 = 1, u = 2 and
    # e_i = i + 1.  The adapted-basis search draws generic generators, which
    # never give u, so thm34 reports no gradation on these algebras.
    alg = make(FamilySpec("M3", n, 1))
    f1 = alg.label_index("f1")
    matrix = [list(row) for row in identity(n)]
    matrix[0][f1] = F(-1)
    adapted = change_of_basis(alg, matrix, ("u",) + alg.basis_labels[1:])
    degrees = {i: i + 2 for i in range(n - 1)}
    degrees[f1] = 1
    report = verify_gradation(adapted, DegreeAssignment(degrees))
    assert report.is_maximum_length
    assert report.checks.offset == 0
    assert report.checks.interval == (1, n)
    assert check_leibniz(adapted).ok
    assert is_p_filiform(adapted, 1)


def test_search_m4_0_positive(m4_10_4_0):
    report = two_generator_search(
        m4_10_4_0, roles=generator_roles(FamilySpec("M4", 10, 4, (), 0)))
    assert report.verdict == MAXIMUM_LENGTH
    # the plain sample realizes the chain witness V_i = <x_i>
    assert report.search["plain_sample"] is True
    labels = report.search["adapted_basis_labels"]
    degs = {labels[i]: d for i, d in report.witness.degrees.items()}
    for i in range(1, 7):
        assert degs[f"x{i}"] == i


def test_search_m5_finds_known_witness(m5_10_4):
    report = two_generator_search(
        m5_10_4, roles=generator_roles(FamilySpec("M5", 10, 4)))
    assert report.verdict == MAXIMUM_LENGTH
    labels = report.search["adapted_basis_labels"]
    degs = {labels[i]: d for i, d in report.witness.degrees.items()}
    assert degs["y1"] == -1 and degs["z1"] == 0 and degs["y2"] == 7


def test_search_witness_reverifies_in_adapted_basis(m4_10_4_0):
    report = two_generator_search(
        m4_10_4_0, roles=generator_roles(FamilySpec("M4", 10, 4, (), 0)))
    matrix = tuple(tuple(F(s) for s in row)
                   for row in report.search["adapted_basis_matrix"])
    adapted = change_of_basis(m4_10_4_0, matrix,
                              tuple(report.search["adapted_basis_labels"]))
    assert verify_gradation(adapted, report.witness).is_maximum_length


def test_search_negation_of_witness_verifies(m5_10_4):
    report = two_generator_search(
        m5_10_4, roles=generator_roles(FamilySpec("M5", 10, 4)))
    matrix = tuple(tuple(F(s) for s in row)
                   for row in report.search["adapted_basis_matrix"])
    adapted = change_of_basis(m5_10_4, matrix)
    assert verify_gradation(adapted, report.witness.negated()).is_maximum_length


def test_search_single_generator_chain():
    report = two_generator_search(chain_algebra(5))
    assert report.verdict == MAXIMUM_LENGTH


def test_search_builds_adapted_algebra_on_demand(monkeypatch):
    # the plain sample of the chain already closes, so only it is rewritten
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return change_of_basis(*args, **kwargs)

    monkeypatch.setattr("nilalg.gradations.change_of_basis", counting)
    report = two_generator_search(chain_algebra(5))
    assert report.verdict == MAXIMUM_LENGTH
    assert report.search["plain_sample"] is True
    assert len(calls) == 1


def test_search_degenerate_roles_error():
    # a single generator cannot span the abelian plane: every sample is singular
    alg = abelian_algebra(2)
    with pytest.raises(DegenerateSampleError):
        two_generator_search(alg, roles=GeneratorRoles(driver=0, others=()))


def test_search_perfect_algebra_rejected():
    from nilalg import NotNilpotentError
    alg = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(1))]})
    with pytest.raises((NotNilpotentError, InvalidInputError)):
        two_generator_search(alg)


def test_search_agrees_with_diagonal_on_random_algebras():
    rng = random.Random(101)
    checked = 0
    while checked < 12:
        alg = random_nilpotent_algebra(rng, rng.randint(3, 6))
        lower_central_series(alg)  # nilpotent by construction
        d = diagonal_search(alg)
        t = two_generator_search(alg, samples=2)
        assert d.verdict == t.verdict
        checked += 1
