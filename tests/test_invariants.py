"""Lower central series, nilindex, Jordan profiles, characteristic sequences."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilalg import (
    Algebra,
    FamilySpec,
    InvalidInputError,
    NotNilpotentError,
    change_of_basis,
    char_seq_at,
    characteristic_sequence,
    generator_roles,
    graded_fingerprint,
    is_p_filiform,
    lower_central_series,
    make,
    natural_gradation,
    nilindex,
    nilpotent_block_profile,
    right_mult_matrix,
    square_ideal,
    two_generator_search,
)
from nilalg import invariants, linalg
from nilalg.catalog import FAMILIES
from nilalg.linalg import unit_vector, zero_vector

from oracles import (
    abelian_algebra,
    catalog_specs,
    chain_algebra,
    conjugated_nilpotent,
    dense_rank_ceiling,
    exhaustive_characteristic_sequence,
    fraction_lower_central_series,
    identity,
    jordan_nilpotent,
    lie_family_series_dims,
    random_invertible,
    random_nilpotent_algebra,
    random_partition,
    random_rational_vector,
    rank,
    unit_row_central_series,
)
from test_sparse_kernels import arbitrary_tables, rational_tables

F = Fraction


# -- lower central series -----------------------------------------------------

def test_series_abelian():
    assert lower_central_series(abelian_algebra(6)).dims == (6, 0)


def test_series_m1(m1_8_4):
    assert lower_central_series(m1_8_4).dims == (8, 5, 2, 1, 0)


def test_series_l12_matches_natural_gradation_oracle(l_12_4):
    expected = lie_family_series_dims(12, 4, (3, 5, 7))
    assert expected == (12, 10, 9, 7, 6, 4, 3, 1, 0)
    assert lower_central_series(l_12_4).dims == expected


def test_series_not_nilpotent_rejected():
    # a cached_property caches no exception, so a second access reruns the
    # series and must raise the same error again
    alg = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(1))]})
    for _ in range(2):
        with pytest.raises(NotNilpotentError,
                           match="^descending central sequence stalls at dimension 1$"):
            lower_central_series(alg)


def test_nilindex_examples(m1_8_4):
    assert nilindex(abelian_algebra(4)) == 1
    assert nilindex(m1_8_4) == 4
    for n in (3, 5, 8):
        assert nilindex(chain_algebra(n)) == n


def test_nilindex_equals_series_length_minus_one(grid_algebras):
    for spec, alg in grid_algebras.items():
        dims = lower_central_series(alg).dims
        assert nilindex(alg) == len(dims) - 1, spec.name()


# -- right multiplication operators ---------------------------------------------

def test_right_mult_zero(m1_8_4):
    assert right_mult_matrix(m1_8_4, zero_vector(8)) == \
        tuple(zero_vector(8) for _ in range(8))


def test_right_mult_m4_chain(m4_10_4_0):
    alg = m4_10_4_0
    m = right_mult_matrix(alg, alg.basis_vector(0))  # x = x_1
    for j in range(10):
        col = tuple(m[i][j] for i in range(10))
        if j < 5:  # x_1..x_5 map to the next chain element
            assert col == alg.basis_vector(j + 1)
        else:      # x_6 and all y, z columns vanish
            assert col == zero_vector(10)


def test_right_mult_m3_chain_plus_zeros(m3_9_5):
    alg = m3_9_5
    m = right_mult_matrix(alg, alg.basis_vector(0))  # x = e_1
    for j in range(9):
        col = tuple(m[i][j] for i in range(9))
        if j < 3:
            assert col == alg.basis_vector(j + 1)
        else:
            assert col == zero_vector(9)


def test_right_mult_dimension_mismatch(m1_8_4):
    with pytest.raises(InvalidInputError):
        right_mult_matrix(m1_8_4, zero_vector(5))


# -- Jordan block profiles ---------------------------------------------------

def test_profile_zero_matrix():
    zero3 = tuple(zero_vector(3) for _ in range(3))
    assert nilpotent_block_profile(zero3) == (1, 1, 1)


def test_profile_single_block():
    for k in (1, 2, 5):
        assert nilpotent_block_profile(jordan_nilpotent((k,))) == (k,)


def test_profile_m1_right_mult(m1_8_4):
    m = right_mult_matrix(m1_8_4, m1_8_4.basis_vector(0))
    assert nilpotent_block_profile(m) == (4, 1, 1, 1, 1)


def test_profile_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError, match="rank descent stalls"):
        nilpotent_block_profile(identity(4))
    with pytest.raises(InvalidInputError, match="not square"):
        nilpotent_block_profile(((F(0), F(1)),))


def test_profile_against_constructed_partitions():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randint(1, 8)
        part = random_partition(rng, n)
        assert nilpotent_block_profile(conjugated_nilpotent(rng, part)) == part


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_profile_sums_to_dimension(parts, seed):
    part = tuple(sorted(parts, reverse=True))
    m = conjugated_nilpotent(random.Random(seed), part)
    profile = nilpotent_block_profile(m)
    assert sum(profile) == sum(part)
    assert profile == part


# -- characteristic sequences ---------------------------------------------------

def test_char_seq_at_examples(m1_8_4):
    ab = abelian_algebra(4)
    assert char_seq_at(ab, ab.basis_vector(0)) == (1, 1, 1, 1)
    assert char_seq_at(m1_8_4, m1_8_4.basis_vector(0)) == (4, 1, 1, 1, 1)
    # R_{f_1} sends e_1 to f_3 and kills everything else: one 2-block
    assert char_seq_at(m1_8_4, m1_8_4.basis_vector(4)) \
        == (2, 1, 1, 1, 1, 1, 1)


def test_char_seq_at_rejects_l2_members(m1_8_4):
    with pytest.raises(InvalidInputError):
        char_seq_at(m1_8_4, m1_8_4.basis_vector(1))  # e_2 lies in L^2


@settings(max_examples=20, deadline=None)
@given(c=st.fractions(min_value=F(1, 5), max_value=F(5)),
       negate=st.booleans())
def test_char_seq_at_scaling_invariance(m5_10_4, c, negate):
    if negate:
        c = -c
    x = m5_10_4.basis_vector(0)
    cx = tuple(c * v for v in x)
    assert char_seq_at(m5_10_4, x) == char_seq_at(m5_10_4, cx)


def test_characteristic_sequence_examples(m1_8_4, l_12_4):
    assert characteristic_sequence(abelian_algebra(3)) == (1, 1, 1)
    assert characteristic_sequence(m1_8_4) == (4, 1, 1, 1, 1)
    assert characteristic_sequence(l_12_4) == (8, 1, 1, 1, 1)


def test_characteristic_sequence_skips_pair_sums_in_l2():
    # [e1, e1] = e3.  In the basis b1 = e1, b2 = e2, b3 = e3 - e2, both b2
    # and b3 lie outside L^2 = <e3> but b2 + b3 = e3 lies in it.
    alg = Algebra.from_products(3, ("e1", "e2", "e3"), {(0, 0): [(2, 1)]})
    moved = change_of_basis(alg, ((F(1), F(0), F(0)), (F(0), F(1), F(0)),
                                  (F(0), F(-1), F(1))))
    assert characteristic_sequence(moved) == (2, 1)


def test_characteristic_sequence_rejects_perfect():
    alg = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(1))]})
    with pytest.raises(NotNilpotentError, match="stalls at dimension 1"):
        characteristic_sequence(alg)


def test_characteristic_sequence_rejects_negative_samples(m1_8_4):
    # a negative count would otherwise draw no random vectors without a word
    with pytest.raises(InvalidInputError, match=">= 0"):
        characteristic_sequence(m1_8_4, samples=-4)


def test_characteristic_sequence_sums_to_n(grid_algebras):
    for spec, alg in grid_algebras.items():
        assert sum(characteristic_sequence(alg)) == alg.dim, spec.name()


@st.composite
def char_seq_cases(draw):
    """(algebra, samples, seed): a random nilpotent table of dim 1-8
    (Leibniz or not), an abelian or chain algebra, M3/M4/M5 in a random
    invertible basis, or a Lie-family algebra at n >= 10 in its own basis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    kind = draw(st.sampled_from(("random", "random", "random", "abelian",
                                 "chain", "catalog", "lie")))
    if kind == "random":
        alg = random_nilpotent_algebra(rng, draw(st.integers(min_value=1, max_value=8)))
    elif kind == "abelian":
        alg = abelian_algebra(draw(st.integers(min_value=1, max_value=6)))
    elif kind == "chain":
        alg = chain_algebra(draw(st.integers(min_value=1, max_value=8)))
    elif kind == "catalog":
        alg = make(draw(st.sampled_from((FamilySpec("M3", 6, 1),
                                         FamilySpec("M4", 8, 4, (), 0),
                                         FamilySpec("M4", 8, 4, (), 1),
                                         FamilySpec("M5", 8, 4)))))
        alg = change_of_basis(alg, random_invertible(rng, alg.dim))
    else:
        alg = make(draw(st.sampled_from((FamilySpec("L", 10, 2, (3,)),
                                         FamilySpec("Q", 11, 2, (3,)),
                                         FamilySpec("TAU_NP1", 12, 4, (3, 5)),
                                         FamilySpec("L", 12, 4, (3, 5, 7))))))
    return alg, draw(st.integers(min_value=0, max_value=12)), rng.randrange(10 ** 6)


@settings(max_examples=80, deadline=None)
@given(char_seq_cases())
def test_characteristic_sequence_matches_exhaustive_sweep(case):
    # the rank-pruned sweep returns the same lexicographic maximum as
    # computing C(x) in full on every candidate
    alg, samples, seed = case
    assert (characteristic_sequence(alg, samples=samples, seed=seed)
            == exhaustive_characteristic_sequence(alg, samples=samples, seed=seed))


def test_characteristic_sequence_matches_exhaustive_on_seeded_tables():
    # a fixed sweep over tables where later candidates often beat earlier
    # ones, so a bound that is too low prunes a winner and shows here
    for seed in range(100):
        alg = random_nilpotent_algebra(random.Random(seed), 6 + seed % 3)
        samples = seed % 13
        assert (characteristic_sequence(alg, samples=samples, seed=seed)
                == exhaustive_characteristic_sequence(alg, samples=samples, seed=seed)), seed


@settings(max_examples=40, deadline=None)
@given(char_seq_cases())
def test_pruned_walk_returns_exactly_what_beats_best(case):
    # for every candidate x of the sweep and every best among the hooks of
    # each rank and the other candidates' C, the walk gives C(x) when it
    # beats best and None otherwise, an equal C included
    alg, samples, seed = case
    n = alg.dim
    _, index = alg.integer_index
    forms = lower_central_series(alg).derived_subalgebra.vanishing_forms()
    xs = list(invariants._candidates(n, forms, samples, seed))
    seqs = [char_seq_at(alg, tuple(F(c) for c in x)) for x in xs]
    bests = set(seqs) | {_hook(n, r) for r in range(n)}
    for x, seq in zip(xs, seqs):
        for best in bests:
            assert (invariants._pruned_char_seq(index, n, x, best)
                    == (seq if seq > best else None)), (x, best)


def test_characteristic_sequence_prunes_candidates(monkeypatch):
    # Every rank step of a candidate goes through ``right_image`` with the
    # one set of sparse columns [e_j, x] built for it, from the first step on.
    # The exhaustive sweep takes all 31 candidates of M4(8,4,1) past step
    # one; here the first, e1, attains the rank ceiling and ends the sweep.
    # The series brackets through ``core.right_image``, which the patch of
    # the ``invariants`` binding does not see.
    alg = make(FamilySpec("M4", 8, 4, (), 1))
    reached = []
    right_image = invariants.right_image

    def counting(columns, v):
        if not reached or reached[-1] is not columns:
            reached.append(columns)
        return right_image(columns, v)

    monkeypatch.setattr(invariants, "right_image", counting)
    assert characteristic_sequence(alg) == (4, 1, 1, 1, 1)
    assert len(reached) == 1


NO_DRAW_SPECS = (FamilySpec("M3", 5, 1), FamilySpec("M3", 6, 1),
                 FamilySpec("M4", 8, 4, (), 0), FamilySpec("M4", 8, 4, (), 1),
                 FamilySpec("M5", 8, 4), FamilySpec("M4", 12, 6, (), 1))
LIE_SPEC = FamilySpec("L", 12, 4, (3, 5, 7))


def _hook(n, r):
    return (r + 1,) + (1,) * (n - r - 1)


@settings(max_examples=60, deadline=None)
@given(char_seq_cases())
def test_rank_ceiling_bounds_every_rank(case):
    # r_bar bounds rank R_x for basis vectors and seeded integer vectors x,
    # so no candidate's C(x) exceeds the hook of r_bar + 1
    alg, samples, seed = case
    n = alg.dim
    r_bar = invariants._rank_ceiling(alg)
    assert 0 <= r_bar < n
    rng = random.Random(seed)
    xs = [unit_vector(n, i) for i in range(n)]
    xs += [invariants._random_integer_vector(rng, n) for _ in range(8)]
    for x in xs:
        assert rank(right_mult_matrix(alg, tuple(F(c) for c in x)), n) <= r_bar
    assert (characteristic_sequence(alg, samples=samples, seed=seed)
            <= _hook(n, r_bar))


def test_rank_ceiling_is_basis_independent():
    # U = {y : [y, L] in L^3} and L^3 are intrinsic, so r_bar is too
    rng = random.Random(14)
    algs = [make(spec) for spec in NO_DRAW_SPECS + (LIE_SPEC,)]
    algs += [random_nilpotent_algebra(rng, 4 + seed % 5) for seed in range(20)]
    for alg in algs:
        r_bar = invariants._rank_ceiling(alg)
        for _ in range(2):
            moved = change_of_basis(alg, random_invertible(rng, alg.dim))
            assert invariants._rank_ceiling(moved) == r_bar


def test_rank_ceiling_matches_dense_oracle(catalog_16):
    # r_bar exactly, against dense Fraction rows over every coordinate
    rng = random.Random(33)
    algs = [alg for _, alg in catalog_16]
    algs += [random_nilpotent_algebra(rng, rng.randint(1, 9)) for _ in range(150)]
    for alg in algs:
        assert invariants._rank_ceiling(alg) == dense_rank_ceiling(alg), alg


def _counting_draws(monkeypatch):
    draws = []
    draw = invariants._random_integer_vector

    def counting(rng, n):
        draws.append(n)
        return draw(rng, n)

    monkeypatch.setattr(invariants, "_random_integer_vector", counting)
    return draws


@pytest.mark.parametrize("spec", NO_DRAW_SPECS, ids=FamilySpec.name)
def test_sweep_stops_at_ceiling_without_draws(monkeypatch, spec):
    # the theorems specs and M4(12,6,1): C(L) is the hook of r_bar + 1, and
    # a unit vector attains it, so no random vector is drawn
    alg = make(spec)
    draws = _counting_draws(monkeypatch)
    seq = characteristic_sequence(alg)
    assert draws == []
    assert seq == _hook(alg.dim, invariants._rank_ceiling(alg))
    assert seq == (alg.dim - spec.p,) + (1,) * spec.p


def test_sweep_runs_in_full_below_ceiling(monkeypatch):
    # on the Lie family r_bar = 11 exceeds the generic rank 7, so the sweep
    # never stops early: all 25 draws are made and the result is unchanged
    alg = make(LIE_SPEC)
    assert invariants._rank_ceiling(alg) == 11
    draws = _counting_draws(monkeypatch)
    seq = characteristic_sequence(alg)
    assert len(draws) == invariants.DEFAULT_SAMPLES  # none lands in L^2
    assert seq == exhaustive_characteristic_sequence(alg)
    assert seq == (8, 1, 1, 1, 1)


@pytest.mark.parametrize("samples", (2.5, True, "3", None))
def test_characteristic_sequence_rejects_non_int_samples(m1_8_4, samples):
    with pytest.raises(InvalidInputError, match="samples must be an integer"):
        characteristic_sequence(m1_8_4, samples=samples)


@pytest.mark.parametrize("p", (4.0, True, "4"))
def test_is_p_filiform_rejects_non_int_p(m1_8_4, p):
    with pytest.raises(InvalidInputError, match="p must be an integer"):
        is_p_filiform(m1_8_4, p)


def test_integer_draw_is_twelve_times_rational_draw():
    # the sweep's candidates are the rational draws scaled by 12, taken from
    # the same RNG calls in the same order
    for seed in range(25):
        for n in (1, 2, 5, 8, 13):
            ints, fracs = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert (invariants._random_integer_vector(ints, n)
                        == tuple(12 * c for c in random_rational_vector(fracs, n)))
            assert ints.getstate() == fracs.getstate()


def _to_integers(x):
    den = lcm(*(F(c).denominator for c in x))
    return tuple(int(c * den) for c in x)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_tables(), arbitrary_tables()))
def test_integer_series_matches_fraction_reference(alg):
    # every term has the same reduced basis as the Fraction series gives, or
    # both stall with the same message; the arbitrary tables have
    # self-brackets and cycles, so many of them are not nilpotent
    assert (_terms_or_error(lower_central_series, alg)
            == _terms_or_error(fraction_lower_central_series, alg))


def _terms_or_error(series, alg):
    try:
        return _terms(series(alg))
    except NotNilpotentError as exc:
        return str(exc)


def _terms(series):
    """Each term's reduced basis and pivots: ``CentralSeries`` equality
    would compare the ``RowSpace`` objects by identity."""
    return [(t.rows(), t.pivots) for t in series.terms]


def test_integer_series_matches_fraction_reference_on_catalog():
    families = set()
    for spec, alg in catalog_specs(11):
        assert (_terms(lower_central_series(alg))
                == _terms(fraction_lower_central_series(alg))), spec.name()
        families.add(spec.family)
    assert families == set(FAMILIES)


def _stored_terms(series):
    """Each term's stored rows and pivots, in insertion order, and its
    reduced basis."""
    return [(t._rows, t._pivots, t.rows()) for t in series.terms]


def _repeated_entry_table(rng, n):
    """[e_i, e_j] for random pairs drawn from a pool of three vectors
    supported above max(i, j), so entries repeat and the table is
    nilpotent: each product raises the least index of its factors."""
    pool = [tuple(F(rng.choice((0, 1, -2))) if k >= n - 2 else F(0)
                  for k in range(n)) for _ in range(3)]
    table = {(i, j): rng.choice(pool) for i in range(n - 2) for j in range(n - 2)
             if rng.random() < 0.5}
    return Algebra(n, tuple(f"e{k + 1}" for k in range(n)), table)


def test_series_terms_match_unit_row_walk(catalog_16):
    # the first two terms read off the table store the same rows, pivots
    # and reduced bases as the walk that inserts the unit rows and every
    # image of them, repeats included; the later steps follow unchanged
    rng = random.Random(26)
    algs = [random_nilpotent_algebra(rng, rng.randint(1, 9)) for _ in range(300)]
    repeated = [_repeated_entry_table(rng, rng.randint(3, 8)) for _ in range(60)]
    assert any(len(set(a._entries.values())) < len(a._entries) for a in repeated)
    algs += repeated + [alg for _, alg in catalog_16] + [abelian_algebra(5)]
    for alg in algs:
        assert (_stored_terms(lower_central_series(alg))
                == _stored_terms(unit_row_central_series(alg))), alg
    one = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(1))]})
    for series in (lower_central_series, unit_row_central_series):
        with pytest.raises(NotNilpotentError,
                           match="^descending central sequence stalls at dimension 1$"):
            series(one)


def test_series_terms_are_not_written_by_readers(grid_algebras):
    # every reader shares the algebra's own term RowSpaces, so none may add
    # to them: the same objects keep the same reduced bases throughout
    for spec, alg in grid_algebras.items():
        terms = lower_central_series(alg).terms
        before = _terms(lower_central_series(alg))
        assert is_p_filiform(alg, spec.p), spec.name()
        graded_fingerprint(alg)
        natural_gradation(alg)
        two_generator_search(alg, samples=0, roles=generator_roles(spec))
        assert lower_central_series(alg).terms is terms, spec.name()
        assert _terms(lower_central_series(alg)) == before, spec.name()


def test_series_terms_are_reduced_once():
    # natural_gradation reads rows() of every nonzero term, and
    # characteristic_sequence the vanishing forms of L^2 and L^3; a term's
    # back-substitution, which passes each stored row to linalg._cleared
    # once, runs on its first read only
    alg = make(FamilySpec("M4", 12, 6, (), 1))
    terms = lower_central_series(alg).terms
    stored = {id(row) for term in terms for row in term._rows}
    cleared = Counter()
    real = linalg._cleared

    def counted(v, pivots, rows):
        if id(v) in stored:
            cleared[id(v)] += 1
        return real(v, pivots, rows)

    with mock.patch.object(linalg, "_cleared", counted):
        for _ in range(2):
            natural_gradation(alg)
            characteristic_sequence(alg)
    assert len(terms) > 3
    assert cleared == Counter(stored)


def test_integer_rows_enter_rowspace_unconverted():
    # the series, the characteristic-sequence sweep and square_ideal insert
    # integer rows only, so RowSpace reads no denominator; invert and
    # nilpotent_block_profile still hand it Fraction rows to scale
    alg = make(FamilySpec("M4", 8, 4, (), 1))
    read = []
    real = linalg._denominator

    def counted(c):
        read.append(c)
        return real(c)

    with mock.patch.object(linalg, "_denominator", counted):
        terms = alg.central_series.terms
        assert is_p_filiform(alg, 4)
        assert square_ideal(alg).dim > 0
        assert len(terms) > 3 and read == []
        x = tuple(F(int(i == 0)) for i in range(alg.dim))
        for convert in (lambda: linalg.invert(((F(1), F(1, 2)), (F(0), F(3)))),
                        lambda: nilpotent_block_profile(right_mult_matrix(alg, x))):
            read.clear()
            convert()
            assert read


def test_integer_series_rejects_non_nilpotent_tables():
    # the series stalls at L^1 (dim 1), at L^2 = <e3> (dim 3, [e3, e1] =
    # -5/2 e3) and at L^2 of a 2/3-scaled copy moved to a random basis
    one = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(2, 3))]})
    three = Algebra.from_products(3, ("e1", "e2", "e3"),
                                  {(0, 1): [(2, F(1))], (2, 0): [(2, F(-5, 2))]})
    moved = change_of_basis(three, random_invertible(random.Random(5), 3))
    for alg in (one, three, moved):
        with pytest.raises(NotNilpotentError) as got:
            lower_central_series(alg)
        with pytest.raises(NotNilpotentError) as expected:
            fraction_lower_central_series(alg)
        assert str(got.value) == str(expected.value)


@settings(max_examples=60, deadline=None)
@given(rational_tables(),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=7),
                min_size=7, max_size=7),
       st.integers(min_value=0, max_value=10 ** 6))
def test_integer_walk_matches_fraction_reference(alg, coords, seed):
    # on every candidate of the sweep, and on a random rational x outside
    # L^2, the integer walk without pruning gives C(x) of ``char_seq_at``
    n = alg.dim
    series = lower_central_series(alg)
    _, index = alg.integer_index
    with mock.patch.object(invariants, "_pruned_char_seq",
                           wraps=invariants._pruned_char_seq) as walk:
        characteristic_sequence(alg, samples=4, seed=seed)
    assert walk.call_args_list
    for call in walk.call_args_list:
        x = call.args[2]
        assert (invariants._pruned_char_seq(index, n, x, None)
                == char_seq_at(alg, tuple(F(c) for c in x)))
    x = tuple(coords[:n])
    if not series.derived_subalgebra.contains(x):
        assert (invariants._pruned_char_seq(index, n, _to_integers(x), None)
                == char_seq_at(alg, x))


def test_integer_walk_rejects_non_nilpotent_operator():
    # R_{e_1} maps e_1 to 2/3 e_1 (dim 1) or e_2 to -5/2 e_2 (dim 2), so the
    # ranks of its powers stall above zero, as in the Fraction reference
    one = Algebra.from_products(1, ("e1",), {(0, 0): [(0, F(2, 3))]})
    two = Algebra.from_products(2, ("e1", "e2"), {(1, 0): [(1, F(-5, 2))]})
    for alg, x in ((one, (3,)), (two, (1, 0))):
        with pytest.raises(NotNilpotentError):
            invariants._pruned_char_seq(alg.integer_index[1], alg.dim, x, None)
        with pytest.raises(NotNilpotentError):
            nilpotent_block_profile(right_mult_matrix(alg, tuple(F(c) for c in x)))


def test_is_p_filiform_examples(m5_10_4):
    assert is_p_filiform(m5_10_4, 4)
    assert not is_p_filiform(abelian_algebra(4), 2)
    with pytest.raises(InvalidInputError):
        is_p_filiform(m5_10_4, 10)


def test_chain_algebra_is_null_filiform():
    # the one-sided chain has R_{e_1} a single size-n Jordan block, so
    # C = (n): 0-filiform; (n-1, 1) would need the antisymmetrized table
    alg = chain_algebra(6)
    assert characteristic_sequence(alg) == (6,)
    assert is_p_filiform(alg, 0)
    assert not is_p_filiform(alg, 1)
    lie_chain = Algebra.from_products(
        6, tuple(f"e{i}" for i in range(1, 7)),
        {(i, 0): [(i + 1, F(1))] for i in range(1, 5)}
        | {(0, i): [(i + 1, F(-1))] for i in range(1, 5)})
    assert characteristic_sequence(lie_chain) == (5, 1)
    assert is_p_filiform(lie_chain, 1)
