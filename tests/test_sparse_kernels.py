"""The sparse exact kernels agree exactly with the dense reference code.

Every kernel that walks only nonzeros (the bracket routines, change of
basis and the squares ideal over the algebra's integer index, the Lie test
over the nonzero entries and their mirrors, the Leibniz
check as a join of table entries over their shared basis indices, sparse
RREF rows, membership in L^2 against its reduced basis, the integer
adapted-basis closure that skips old x old pairs, and its closure support)
is compared with the dense ``Fraction`` loops in ``oracles`` on small
random nilpotent tables, Leibniz or not, on the same tables with
non-integer structure constants, and on catalog algebras under a random
invertible change of basis; the Leibniz check, and the table views built
at construction, also on tables with no structure at all, self-brackets
and cycles included.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nilalg import (
    Algebra,
    DegreeAssignment,
    FamilySpec,
    bracket,
    change_of_basis,
    check_leibniz,
    generator_roles,
    graded_fingerprint,
    is_lie,
    lower_central_series,
    make,
    natural_gradation,
    right_mult_matrix,
    square_ideal,
    two_generator_search,
    verify_gradation,
)
from nilalg.core import bracket_basis, bracket_vec_basis
from nilalg.gradations import (
    AdaptedBasisSample,
    GeneratorRoles,
    _close_adapted_basis,
    _closure_offset,
    _draw_generators,
)
from nilalg.linalg import RowSpace

from oracles import (
    abelian_algebra,
    algebra_to_dict,
    chain_algebra,
    dense_bracket,
    dense_closure,
    dense_invert,
    dense_is_lie,
    dense_leibniz_violations,
    dense_rref,
    dense_right_mult,
    dense_square_ideal,
    dense_table_views,
    mat_mul,
    random_invertible,
    random_nilpotent_algebra,
    rank,
    rational_generators,
    unit,
)

F = Fraction

SMALL_SPECS = (FamilySpec("M1", 6, 2), FamilySpec("M2", 6, 2),
               FamilySpec("M3", 5, 1), FamilySpec("M5", 8, 4))


@st.composite
def algebras(draw):
    """A random nilpotent table of dim 2-6, or a small catalog algebra in a
    random basis (dense table entries, Leibniz by construction)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    if draw(st.booleans()):
        return random_nilpotent_algebra(rng, draw(st.integers(min_value=2, max_value=6)))
    alg = make(draw(st.sampled_from(SMALL_SPECS)))
    return change_of_basis(alg, random_invertible(rng, alg.dim))


@st.composite
def rational_tables(draw):
    """A random nilpotent table with each structure constant multiplied by
    a non-integer rational, optionally moved to a random basis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    base = random_nilpotent_algebra(rng, draw(st.integers(min_value=2, max_value=7)))
    scales = st.sampled_from((F(2, 3), F(-5, 2), F(7, 4), F(-1, 6), F(9, 5)))
    table = {key: tuple(c * draw(scales) if c else c for c in vec)
             for key, vec in sorted(base.brackets.items())}
    alg = Algebra(base.dim, base.basis_labels, table)
    if draw(st.booleans()):
        alg = change_of_basis(alg, random_invertible(rng, alg.dim))
    return alg


@st.composite
def arbitrary_tables(draw):
    """A table of dim 1-5 with no structure: any entry may hit any basis
    vector, so self-brackets such as [e_i, e_i] = e_i and cycles of
    brackets through a target that is also a factor occur."""
    n = draw(st.integers(min_value=1, max_value=5))
    index = st.integers(min_value=0, max_value=n - 1)
    coeff = st.sampled_from((F(0), F(0), F(1), F(-1), F(2), F(-3, 2)))
    entries = draw(st.dictionaries(st.tuples(index, index),
                                   st.lists(coeff, min_size=n, max_size=n).map(tuple),
                                   max_size=n * n))
    return Algebra(n, tuple(f"e{i + 1}" for i in range(n)),
                   {key: vec for key, vec in entries.items() if any(vec)})


def vectors(n):
    return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    min_size=n, max_size=n).map(tuple)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_brackets_match_dense(alg, data):
    n = alg.dim
    x = data.draw(vectors(n))
    y = data.draw(vectors(n))
    assert bracket(alg, x, y) == dense_bracket(alg, x, y)
    for i in range(n):
        assert bracket_basis(alg, i, y) == dense_bracket(alg, unit(n, i), y)
        assert bracket_vec_basis(alg, x, i) == dense_bracket(alg, x, unit(n, i))


@settings(max_examples=40, deadline=None)
@given(rational_tables(), st.data())
def test_change_of_basis_matches_dense(alg, data):
    # D > 1 and a rational matrix: the table is [b_i, b_j] * m^-1 from the
    # dense bracket and inverse, entered in the same (i, j) order
    n = alg.dim
    m = data.draw(st.lists(vectors(n), min_size=n, max_size=n).map(tuple)
                  .filter(lambda m: dense_invert(m) is not None))
    minv = dense_invert(m)
    expected = {}
    for i in range(n):
        for j in range(n):
            prod = dense_bracket(alg, m[i], m[j])
            if any(prod):
                expected[(i, j)] = mat_mul((prod,), minv)[0]
    moved = change_of_basis(alg, m)
    assert list(moved.brackets.items()) == list(expected.items())


@settings(max_examples=40, deadline=None)
@given(st.one_of(rational_tables(), arbitrary_tables()))
def test_square_ideal_matches_dense_closure(alg):
    # the integer seeds summed per pair {i, j} and the left brackets through
    # the sparse columns span the dense two-sided closure, on tables with
    # self-brackets and cycles too
    assume(not is_lie(alg))
    ideal = square_ideal(alg)
    assert (ideal.rows(), ideal.pivots) == dense_square_ideal(alg)


@settings(max_examples=80, deadline=None)
@given(st.one_of(algebras(), rational_tables(), arbitrary_tables()))
@example(Algebra(3, ("e1", "e2", "e3"), {(0, 1): (0, 0, 2), (1, 0): (0, 0, -2)}))
@example(Algebra.from_products(3, ("e1", "e2", "e3"), {
    (0, 1): [(2, F(1))], (1, 0): [(2, F(-1)), (1, F(1, 2))]}))
@example(Algebra.from_products(2, ("e1", "e2"), {
    (0, 1): [(1, F(2, 3))]}))
@example(Algebra.from_products(2, ("e1", "e2"), {(1, 1): [(0, F(1))]}))
def test_is_lie_matches_dense(alg):
    # the mirror test on the nonzero entries agrees with the all-pairs sum;
    # the examples are antisymmetric (with int constants), a mirror with an
    # extra term, an entry with no mirror and a lone self-bracket
    assert is_lie(alg) == dense_is_lie(alg)


@pytest.mark.parametrize("spec", [FamilySpec("M3", 5, 1), FamilySpec("M4", 8, 4, (), 1),
                                  FamilySpec("L", 12, 4, (3, 5, 7))])
def test_table_readers_use_sparse_views(monkeypatch, spec):
    # is_lie, square_ideal, the natural gradation and the fingerprint read
    # the table through the views built at construction: neither an entry
    # at a time nor ``brackets`` once the scan is done
    alg = make(spec)
    expected = graded_fingerprint(alg)

    def no_entry(self, i, j):
        raise AssertionError(f"table_entry({i}, {j}) read")

    monkeypatch.setattr(Algebra, "table_entry", no_entry)
    alg = make(spec)
    object.__setattr__(alg, "brackets", None)  # read only by the scan
    assert is_lie(alg) == (spec.family == "L")
    assert (square_ideal(alg).dim == 0) == is_lie(alg)
    assert natural_gradation(alg).graded_algebra.dim == alg.dim
    assert graded_fingerprint(alg) == expected


def assert_violations_match_dense(alg):
    violations = check_leibniz(alg).violations
    triples = [v.triple for v in violations]
    assert triples == sorted(triples)
    assert all(type(c) is Fraction for v in violations for c in v.defect)
    assert tuple((v.triple, v.defect) for v in violations) == dense_leibniz_violations(alg)
    return triples


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), rational_tables(), arbitrary_tables()))
@example(Algebra.from_products(2, ("e1", "e2"), {
    (0, 0): [(0, F(1))], (0, 1): [(1, F(2, 3))], (1, 0): [(0, F(-1))]}))
def test_leibniz_violations_match_full_sweep(alg):
    # same triples, in the same order, with the same Fraction defects; the
    # pinned example has [e1, e1] = e1, [e1, e2] in <e2> and [e2, e1] in <e1>
    assert_violations_match_dense(alg)


@settings(max_examples=60, deadline=None)
@given(arbitrary_tables(), st.booleans())
def test_table_views_match_dense_scan(alg, as_ints):
    # the nonzero terms kept by the one scan at construction give the
    # integer index, the support triples and the JSON form; a table built
    # with int entries (2 times the drawn ones) gives them too
    if as_ints:
        alg = Algebra(alg.dim, alg.basis_labels,
                      {key: tuple(int(2 * c) for c in vec)
                       for key, vec in alg.brackets.items()})
    assert (alg.integer_index, alg._triples, algebra_to_dict(alg)) == dense_table_views(alg)


def test_leibniz_sweep_sees_non_leibniz_tables():
    # The random tables above include non-Leibniz ones; pin one so the
    # violation-order comparison is known to run on a nonempty tuple.
    for seed in range(50):
        alg = random_nilpotent_algebra(random.Random(seed), 5)
        expected = dense_leibniz_violations(alg)
        if len(expected) > 1:
            got = check_leibniz(alg).violations
            assert tuple((v.triple, v.defect) for v in got) == expected
            return
    raise AssertionError("no non-Leibniz table among the seeds")


def test_leibniz_exact_cancellation_is_no_violation():
    # [e1, [e1, e1]] = [e1, e2 - e3] = e4 - e4: two contributions to e4
    # that cancel inside one term
    alg = Algebra.from_products(4, ("e1", "e2", "e3", "e4"), {
        (0, 0): [(1, F(1)), (2, F(-1))],
        (0, 1): [(3, F(1))],
        (0, 2): [(3, F(1))]})
    assert assert_violations_match_dense(alg) == []
    # in the chain, [[e_i, e1], e1] enters the defect at (i, 1, 1) twice
    # with opposite signs
    assert assert_violations_match_dense(chain_algebra(5)) == []


def test_leibniz_violations_with_rational_constants():
    # [e1, e1] = e2, [e2, e2] = 2/3 e3, [e3, e1] = -5/2 e4.  At (2, 1, 1)
    # only (j, k) = (1, 1) is an entry and at (2, 1, 2) only (i, k) = (2, 2)
    # is (1-based labels); both triples are violations.
    alg = Algebra.from_products(4, ("e1", "e2", "e3", "e4"), {
        (0, 0): [(1, F(1))],
        (1, 1): [(2, F(2, 3))],
        (2, 0): [(3, F(-5, 2))]})
    triples = assert_violations_match_dense(alg)
    assert (1, 0, 0) in triples and (1, 0, 1) in triples
    defect = dict((v.triple, v.defect) for v in check_leibniz(alg).violations)
    assert defect[(1, 0, 1)] == (0, 0, 0, F(-5, 3))


def test_leibniz_defects_are_fractions_for_integer_tables():
    # a table given with int constants still yields Fraction defects
    alg = Algebra(3, ("e1", "e2", "e3"), {(0, 0): (0, 1, 0), (1, 1): (0, 0, 3)})
    assert (1, 0, 0) in assert_violations_match_dense(alg)


@settings(max_examples=30, deadline=None)
@given(algebras(), st.data())
def test_right_mult_matrix_matches_dense(alg, data):
    x = data.draw(vectors(alg.dim))
    assert right_mult_matrix(alg, x) == dense_right_mult(alg, x)


def mixed_vectors(n):
    """Fraction, int or mixed int/Fraction entries: the sweep feeds ints."""
    ints = st.integers(min_value=-3, max_value=3)
    mixed = st.one_of(ints, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.one_of(vectors(n), *(st.lists(entry, min_size=n, max_size=n).map(tuple)
                                   for entry in (ints, mixed)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(mixed_vectors(n), max_size=7),
                        mixed_vectors(n))))
def test_rowspace_matches_dense_rref(case):
    n, rows, probe = case
    space = RowSpace(n, rows)
    expected_rows, expected_pivots = dense_rref(rows, n)
    assert space.rows() == expected_rows
    assert space.pivots == expected_pivots
    inside = rank(list(rows) + [probe], n) == len(expected_pivots)
    assert space.contains(probe) == inside


@settings(max_examples=30, deadline=None)
@given(algebras(), st.data())
def test_subspace_contains_matches_rank(alg, data):
    n = alg.dim
    l2 = lower_central_series(alg).derived_subalgebra
    basis = l2.rows()
    probe = data.draw(st.one_of(
        vectors(n),
        # a combination of the basis rows, which must test inside
        st.lists(st.integers(-2, 2), min_size=l2.dim, max_size=l2.dim).map(
            lambda cs: tuple(sum((c * row[j] for c, row in zip(cs, basis)), F(0))
                             for j in range(n)))))
    assert l2.contains(probe) == (rank(list(basis) + [probe], n) == l2.dim)


def first_generator_roles(alg):
    l2 = lower_central_series(alg).derived_subalgebra
    gens = [i for i in range(alg.dim) if i not in set(l2.pivots)]
    return GeneratorRoles(driver=gens[0], others=tuple(gens[1:]))


def closed_sample(alg, roles, seed, plain):
    """The closed sample of one draw (index 0 when ``plain``), or None."""
    generators = _draw_generators(alg, roles, random.Random(seed), plain=plain)
    return _close_adapted_basis(alg, 0 if plain else 1, generators, len(roles.others))


@settings(max_examples=30, deadline=None)
@given(algebras(), st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_adapted_closure_matches_all_pairs(alg, seed, plain):
    roles = first_generator_roles(alg)
    sample = closed_sample(alg, roles, seed, plain)
    rational = rational_generators(alg, roles, random.Random(seed), plain)
    expected = dense_closure(alg, rational, len(roles.others))
    if expected is None:
        assert sample is None
    else:
        assert (sample.basis_matrix, sample.forms) == expected


SEARCH_SPECS = (FamilySpec("M3", 5, 1), FamilySpec("M3", 6, 1),
                FamilySpec("M4", 8, 4, (), 1), FamilySpec("M5", 8, 4))


@st.composite
def search_algebras(draw):
    """A random nilpotent table of dim 1-7 (Leibniz or not), a chain or
    abelian algebra, or a catalog algebra the search runs on in a random
    basis; then each structure constant is optionally multiplied by 2/3 or
    -5/2, so that the common denominator D exceeds one."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    kind = draw(st.sampled_from(("random", "chain", "abelian", "catalog")))
    if kind == "random":
        alg = random_nilpotent_algebra(rng, draw(st.integers(min_value=1, max_value=7)))
    elif kind == "catalog":
        alg = make(draw(st.sampled_from(SEARCH_SPECS)))
    else:
        dim = draw(st.integers(min_value=1, max_value=6))
        alg = chain_algebra(dim) if kind == "chain" else abelian_algebra(dim)
    if draw(st.booleans()):
        # constants scaled entry by entry keep the support, hence nilpotency
        table = {key: tuple(c * rng.choice((1, F(2, 3), F(-5, 2))) for c in vec)
                 for key, vec in sorted(alg.brackets.items())}
        alg = Algebra(alg.dim, alg.basis_labels, table)
    if kind == "catalog":
        alg = change_of_basis(alg, random_invertible(rng, alg.dim))
    return alg


@settings(max_examples=60, deadline=None)
@given(search_algebras(), st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_integer_closure_and_support_match_fraction_path(alg, seed, plain):
    # the integer closure gives the Fraction closure's basis and forms, and
    # its support is the adapted algebra's, which only the witness builds,
    # or None when some bracket of adapted vectors has two targets
    roles = first_generator_roles(alg)
    sample = closed_sample(alg, roles, seed, plain)
    rational = rational_generators(alg, roles, random.Random(seed), plain)
    expected = dense_closure(alg, rational, len(roles.others))
    if expected is None:
        assert sample is None
        return
    assert (sample.basis_matrix, sample.forms) == expected
    assert all(type(c) is int for row in sample.rows for c in row)
    adapted = change_of_basis(alg, sample.basis_matrix)
    pairs = [(i, j) for i, j, _ in adapted._triples]
    one_target = len(set(pairs)) == len(pairs)
    assert sample.closure_support == (adapted._triples if one_target else None)


@settings(max_examples=100, deadline=None)
@given(search_algebras(), st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_support_decides_closure_under_distinct_degrees(alg, seed, plain):
    # a shift of a permutation of range(n) is every assignment of distinct
    # interval degrees, and verify_gradation allows any offset: the adapted
    # algebra closes under one exactly when the support does, so a None
    # support (a bracket with two targets) closes under none of them
    assume(alg.dim <= 5)
    sample = closed_sample(alg, first_generator_roles(alg), seed, plain)
    assume(sample is not None)
    support = sample.closure_support
    adapted = change_of_basis(alg, sample.basis_matrix)
    for perm in permutations(range(alg.dim)):
        closes = verify_gradation(adapted, DegreeAssignment(dict(enumerate(perm))))
        assert closes.checks["closure"] == (
            support is not None and _closure_offset(support, perm)[0])


def test_integer_closure_sees_content_and_denominators():
    # one table where a bracket row has content > 1 and D > 1, so neither
    # factor of the row scale is one
    alg = Algebra.from_products(3, ("e1", "e2", "e3"), {
        (0, 1): [(2, F(4, 3))], (1, 0): [(2, F(-2, 3))]})
    assert alg.integer_index[0] == 3
    roles = GeneratorRoles(driver=0, others=(1,))
    sample = closed_sample(alg, roles, 0, True)
    assert sample.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert sample.scales[2] == (4, 3)
    assert sample.basis_matrix[2] == (0, 0, F(4, 3))
    assert sample.closure_support == ((0, 1, 2), (1, 0, 2))


@pytest.mark.parametrize("spec", [FamilySpec("M3", 6, 1), FamilySpec("M5", 8, 4)])
def test_integer_draw_is_six_times_rational_draw(spec):
    # the same RNG calls in the same order, a * (6 // b) in place of a/b;
    # the plain draw is the unit vectors and reads no RNG
    alg = make(spec)
    for roles in (generator_roles(spec), first_generator_roles(alg)):
        for seed in range(20):
            ints, fracs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = _draw_generators(alg, roles, ints, plain=False)
                expected = rational_generators(alg, roles, fracs, plain=False)
                assert got == tuple(tuple(6 * c for c in g) for g in expected)
            assert ints.getstate() == fracs.getstate()
            state = ints.getstate()
            assert (_draw_generators(alg, roles, ints, plain=True)
                    == rational_generators(alg, roles, fracs, plain=True))
            assert ints.getstate() == state == fracs.getstate()


def test_search_refuses_a_support_the_fraction_path_refutes(monkeypatch):
    # an empty support claims that every degree pattern closes; M3(5,1) has
    # no maximum-length gradation, so the rational check must refuse the
    # first pattern that passes the degree-set tests
    monkeypatch.setattr(AdaptedBasisSample, "closure_support",
                        property(lambda self: ()))
    alg = make(FamilySpec("M3", 5, 1))
    with pytest.raises(RuntimeError, match="refutes"):
        two_generator_search(alg, roles=generator_roles(FamilySpec("M3", 5, 1)))
