"""Filtration and operator invariants of nilpotent algebras.

Implements the lower central series L^1 = L, L^{k+1} = [L^k, L], the
nilindex, right-multiplication operators R_x(y) = [y, x], Jordan block
profiles of nilpotent operators, the characteristic sequence C(L) and the
p-filiformity test C(L) = (n-p, 1, ..., 1).

Everything is a pure function over immutable inputs; the one randomized
operation takes its seed as an explicit parameter, so concurrent calls
are deterministic and independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .core import (
    Algebra,
    Subspace,
    right_columns,
    right_image,
    sparse_rows,
)
from .errors import InvalidInputError, NotNilpotentError
from .linalg import RowSpace, Vector, identity, mat_vec, unit_vector

DEFAULT_SEED = 20260
DEFAULT_SAMPLES = 25


@dataclass(frozen=True)
class CentralSeries:
    """Terms of the descending central series, terms[0] = whole algebra."""

    terms: tuple[Subspace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    @property
    def derived_subalgebra(self) -> Subspace:
        """L^2 = [L, L]."""
        return self.terms[1]


@dataclass(frozen=True)
class CharacteristicSequence:
    """Descending block-size sequence; entries sum to the algebra dimension."""

    seq: tuple[int, ...]

    def __lt__(self, other: "CharacteristicSequence") -> bool:
        return self.seq < other.seq


def lower_central_series(alg: Algebra) -> CentralSeries:
    """Compute L^k until the first zero term.

    Raises NotNilpotentError when the dimensions stop strictly decreasing
    before reaching zero.

    The series runs on Python integers: L^{k+1} is spanned by [v, e_j]
    over integer rows v spanning L^k, read from the algebra's
    ``integer_index`` (the table scaled by its common denominator D, which
    changes no span) by right factor.  The rows that enlarge one
    ``RowSpace`` form a basis of L^{k+1} and feed the next step, and the
    term's ``Subspace`` is that same ``RowSpace``'s canonical reduced
    basis, so each term is eliminated once and equals the span of its
    ``Fraction`` brackets.
    """
    n = alg.dim
    _, index = alg.integer_index
    # The index read by right factor: right[j][t] lists [e_t, e_j], so
    # [v, e_j] = right_image(right[j], v).  A right factor e_j that
    # annihilates everything gets no entry.
    right: dict[int, list] = {}
    for t, row in index.items():
        for j, entries in row:
            right.setdefault(j, [()] * n)[t] = entries
    terms = [Subspace(n, identity(n), tuple(range(n)))]
    basis = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    while basis:  # basis: integer rows spanning the last term
        space = RowSpace(n)
        image = []
        for v in basis:
            for cols in right.values():
                w = right_image(cols, v)
                if space.add(w):
                    image.append(w)
        if len(image) >= len(basis):
            raise NotNilpotentError(
                f"descending central sequence stalls at dimension {len(basis)}")
        terms.append(Subspace(n, space.rows(), space.pivots))
        basis = image
    return CentralSeries(tuple(terms))


def nilindex(alg: Algebra) -> int:
    """The s with L^s != 0 and L^{s+1} = 0."""
    series = lower_central_series(alg)
    return len(series.terms) - 1


def right_mult_matrix(alg: Algebra, x) -> tuple[Vector, ...]:
    """Matrix of R_x: column j holds the coordinates of [e_j, x]."""
    if len(x) != alg.dim:
        raise InvalidInputError(
            f"vector length {len(x)} does not match dim {alg.dim}")
    n = alg.dim
    den, index = alg.integer_index
    cols = right_columns(index, n, x)  # D [e_j, x]
    inv = Fraction(1, den)
    return tuple(tuple(cols[j][i] * inv for j in range(n)) for i in range(n))


def _profile_from_ranks(ranks) -> tuple[int, ...]:
    """Jordan block sizes, descending, from the strictly falling ranks
    n = rank(m^0) > rank(m^1) > ... > 0 of a nilpotent operator's powers.

    The number of blocks of size >= k is rank(m^{k-1}) - rank(m^k).
    """
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    profile = []
    for k in range(1, len(at_least) + 1):
        bigger = at_least[k] if k < len(at_least) else 0
        profile.extend([k] * (at_least[k - 1] - bigger))
    profile.sort(reverse=True)
    return tuple(profile)


def nilpotent_block_profile(m) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, sorted descending.

    Block counts come from the kernel-dimension sequence of powers: the
    number of blocks of size >= k equals dim ker(m^k) - dim ker(m^{k-1}).
    Raises InvalidInputError when the rank sequence shows m is not
    nilpotent (rank stalls above zero).
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidInputError("matrix is not square")
    # Iterated images: rank(m^k) = dim of m applied k times to the whole space.
    ranks = [n]
    image = [unit_vector(n, i) for i in range(n)]
    while ranks[-1] > 0:
        space = RowSpace(n)
        for vec in image:
            space.add(mat_vec(m, vec))
        r = space.dim
        if r >= ranks[-1]:
            raise InvalidInputError("matrix is not nilpotent (rank descent stalls)")
        ranks.append(r)
        image = list(space.rows())
    return _profile_from_ranks(ranks)


def char_seq_at(alg: Algebra, x, series: CentralSeries | None = None
                ) -> CharacteristicSequence:
    """C(x): Jordan profile of R_x for x outside L^2."""
    if series is None:
        series = lower_central_series(alg)
    if series.derived_subalgebra.contains(x):
        raise InvalidInputError("x lies in L^2; C(x) requires x outside L^2")
    try:
        profile = nilpotent_block_profile(right_mult_matrix(alg, x))
    except InvalidInputError as exc:
        raise NotNilpotentError(f"R_x is not nilpotent: {exc}") from exc
    return CharacteristicSequence(profile)


def draw_scaled_rationals(rng: random.Random, count: int, top: int, den: int,
                          scale: int) -> list[int]:
    """``count`` entries ``scale`` * a/b, a = rng.randint(-top, top) and
    b = rng.randint(1, den) drawn a then b; ``scale`` must be a multiple of
    every b, so each entry is the integer a * (scale // b).

    Each draw is taken by rejection on ``rng.getrandbits``, exactly as
    CPython's ``randint`` takes it (``_randbelow_with_getrandbits``: the
    bit length of the range size, redrawn until below it), so the entries
    and the generator's final state equal those of the ``randint`` calls.
    """
    getrandbits = rng.getrandbits
    width = 2 * top + 1
    width_bits, den_bits = width.bit_length(), den.bit_length()
    quotients = [scale // b for b in range(1, den + 1)]
    out = []
    for _ in range(count):
        a = getrandbits(width_bits)
        while a >= width:
            a = getrandbits(width_bits)
        b = getrandbits(den_bits)
        while b >= den:
            b = getrandbits(den_bits)
        out.append((a - top) * quotients[b])
    return out


def _random_integer_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    """12 times a random rational vector with entries a/b, -6 <= a <= 6 and
    1 <= b <= 4: the same draws in the same order, with 12 // b in place of
    the denominator."""
    return tuple(draw_scaled_rationals(rng, n, 6, 4, 12))


def characteristic_sequence(alg: Algebra, samples: int = DEFAULT_SAMPLES,
                            seed: int = DEFAULT_SEED,
                            series: CentralSeries | None = None
                            ) -> CharacteristicSequence:
    """Lexicographic maximum of C(x) over a finite test set.

    The test set holds every basis vector outside L^2, every pairwise sum
    of two such basis vectors that also lies outside L^2, and ``samples``
    seeded random rational vectors outside L^2.  The maximum of C(x) is
    attained on a dense open subset of L \\ L^2, so this finite sweep is
    generically exact; formally the result is a lower bound in the
    lexicographic order.

    The sweep runs on Python integers.  C(lambda x) = C(x) for lambda != 0,
    so each random vector is drawn scaled by 12, which clears every
    denominator of its entries; and the table is scaled by the common
    denominator D of its structure constants, which turns R_x^k into
    D^k R_x^k and leaves every rank, hence every C(x), unchanged.  The
    draws come from ``draw_scaled_rationals``, which reproduces the
    ``randint`` stream from ``getrandbits``.  Membership in L^2 is read
    from the integer forms that vanish on it (``RowSpace.vanishing_forms``,
    built once per sweep), so each test is a few dot products; ranks come
    from ``RowSpace``, which eliminates fraction-free on integers, so no
    ``Fraction`` enters the loop.  ``char_seq_at`` and
    ``nilpotent_block_profile`` remain the ``Fraction`` reference for a
    single vector.  ``series``, when given, must be
    ``lower_central_series(alg)``; it is computed otherwise.

    Candidates are visited in that order and each is dropped as soon as it
    cannot beat the best sequence so far.  This is exact: R_x^k(L) lies in
    L^{k+1}, so once the central series reaches zero R_x is nilpotent and
    the ranks of its powers fall strictly.  Of all completions of the ranks
    seen so far, the one falling by one per step is the only one with the
    longest first block, so its profile is the lexicographic maximum; when
    that bound is <= the best so far, C(x) cannot exceed it, and an equal
    sequence never changes the maximum.  The result is therefore the same
    lexicographic maximum that computing C(x) on every candidate gives.
    The bound depends only on the ranks seen so far, so one sweep computes
    it once per rank prefix.
    """
    if samples < 0:
        raise InvalidInputError(f"need samples >= 0, got samples={samples}")
    n = alg.dim
    if series is None:
        series = lower_central_series(alg)
    if series.derived_subalgebra.dim == n:
        raise InvalidInputError("L^2 = L: the algebra has no generators")
    forms = RowSpace(n, series.derived_subalgebra.basis).vanishing_forms()

    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    # a form's value on e_i is its i-th coefficient
    outside = [i for i in range(n) if any(form[i] for form in forms)]
    candidates = [units[i] for i in outside]
    for i, j in combinations(outside, 2):
        if any(form[i] + form[j] for form in forms):
            candidates.append(tuple(x + y for x, y in zip(units[i], units[j])))
    rng = random.Random(seed)
    drawn = 0
    while drawn < samples:
        vec = _random_integer_vector(rng, n)
        if any(sum(map(mul, form, vec)) for form in forms):
            candidates.append(vec)
            drawn += 1
    _, index = alg.integer_index
    bounds: dict[tuple[int, ...], tuple[int, ...]] = {}
    best = None
    for x in candidates:
        seq = _pruned_char_seq(index, n, x, best, bounds)
        if seq is not None:
            best = seq
    return best


def _pruned_char_seq(index, n: int, x, best: CharacteristicSequence | None,
                     bounds: dict | None = None) -> CharacteristicSequence | None:
    """C(x) if it is lexicographically above ``best``, else None.

    ``index`` is the algebra's ``integer_index`` and ``x`` an integer
    vector.  Walks the ranks of R_x^k: image_1 is spanned by the
    columns [e_j, x], image_{k+1} by [v, x] over a basis v of image_k.  The
    walk stops as soon as the lex-max completion of the ranks so far, which
    falls by one per step, gives a profile <= ``best``.  ``bounds`` caches
    that profile by rank prefix across the calls of one sweep.
    """
    if bounds is None:
        bounds = {}
    columns = right_columns(index, n, x)  # the first image's spanning rows
    sparse = None  # the same columns as [(k, c), ...], built at step two
    ranks = (n,)
    vectors = None
    while True:
        bound = bounds.get(ranks)
        if bound is None:
            bound = bounds[ranks] = _profile_from_ranks(
                ranks + tuple(range(ranks[-1] - 1, -1, -1)))
        if best is not None and bound <= best.seq:
            return None
        if ranks[-1] == 0:
            return CharacteristicSequence(bound)
        if vectors is None:
            vectors = columns
        else:
            if sparse is None:
                sparse = sparse_rows(columns)
            vectors = [right_image(sparse, v) for v in vectors]
        # The vectors that enlarge the image form a basis of it, and R_x
        # maps any basis of image_k onto a spanning set of image_{k+1}.
        space = RowSpace(n)
        vectors = [v for v in vectors if space.add(v)]
        if space.dim >= ranks[-1]:
            raise NotNilpotentError(
                "R_x is not nilpotent: matrix is not nilpotent (rank descent stalls)")
        ranks += (space.dim,)


def is_p_filiform(alg: Algebra, p: int, samples: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED,
                  series: CentralSeries | None = None) -> bool:
    """True iff C(L) = (n-p, 1, ..., 1) with exactly p trailing ones.

    ``series`` is passed on to ``characteristic_sequence``.
    """
    if p < 0 or p >= alg.dim:
        raise InvalidInputError(f"need 0 <= p < dim, got p={p}, dim={alg.dim}")
    expected = (alg.dim - p,) + (1,) * p
    return characteristic_sequence(alg, samples=samples, seed=seed,
                                   series=series).seq == expected
