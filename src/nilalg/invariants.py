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
from fractions import Fraction
from itertools import combinations
from operator import mul

from .core import (
    Algebra,
    CentralSeries,
    _unit_rows,
    right_columns,
    right_image,
)
from .errors import InvalidInputError, NotNilpotentError
from .linalg import RowSpace, Vector, mat_vec

DEFAULT_SEED = 20260
DEFAULT_SAMPLES = 25


def lower_central_series(alg: Algebra) -> CentralSeries:
    """Compute L^k until the first zero term: ``alg.central_series``, built
    on the first call for that algebra.

    Raises NotNilpotentError when the dimensions stop strictly decreasing
    before reaching zero.
    """
    return alg.central_series


def nilindex(alg: Algebra) -> int:
    """The s with L^s != 0 and L^{s+1} = 0."""
    return len(lower_central_series(alg).terms) - 1


def right_mult_matrix(alg: Algebra, x) -> tuple[Vector, ...]:
    """Matrix of R_x: column j holds the coordinates of [e_j, x]."""
    if len(x) != alg.dim:
        raise InvalidInputError(
            f"vector length {len(x)} does not match dim {alg.dim}")
    n = alg.dim
    den, index = alg.integer_index
    columns = right_columns(index, n, x)
    cols = [right_image(columns, unit) for unit in _unit_rows(n)]  # D [e_j, x]
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


def _rank_descent(apply, n: int):
    """Yield rank(m), rank(m^2), ..., 0 for the n x n operator m that
    ``apply`` maps a vector through.

    The walk starts from the unit rows; at each step the images of the
    current basis span the next image, and the images that enlarge its
    ``RowSpace`` are its basis for the step after.  Raises
    NotNilpotentError when a rank does not fall, since then m is not
    nilpotent.
    """
    vectors = _unit_rows(n)
    rank = n
    while rank:
        space = RowSpace(n)
        vectors = [v for v in map(apply, vectors) if space.add(v)]
        if space.dim >= rank:
            raise NotNilpotentError(
                f"operator is not nilpotent (rank descent stalls at {rank})")
        rank = space.dim
        yield rank


def nilpotent_block_profile(m) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, sorted descending, from
    the ranks of its powers.

    Raises InvalidInputError when m is not square and NotNilpotentError
    when the rank descent stalls above zero.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise InvalidInputError("matrix is not square")
    return _profile_from_ranks((n, *_rank_descent(lambda v: mat_vec(m, v), n)))


def char_seq_at(alg: Algebra, x) -> tuple[int, ...]:
    """C(x): Jordan profile of R_x for x outside L^2, descending."""
    if lower_central_series(alg).derived_subalgebra.contains(x):
        raise InvalidInputError("x lies in L^2; C(x) requires x outside L^2")
    return nilpotent_block_profile(right_mult_matrix(alg, x))


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
                            seed: int = DEFAULT_SEED) -> tuple[int, ...]:
    """Lexicographic maximum of C(x) over a finite test set: a descending
    tuple of block sizes that sums to the algebra dimension.

    The test set holds every basis vector outside L^2, every pairwise sum
    of two such basis vectors that also lies outside L^2, and ``samples``
    seeded random rational vectors outside L^2, drawn scaled by 12 to
    integers (C(lambda x) = C(x)).  The maximum of C(x) is attained on a
    dense open subset of L \\ L^2, so this finite sweep is generically
    exact; formally the result is a lower bound in the lexicographic order.

    The one bound is the hook of a rank: a nilpotent R_x of rank r has
    n - r Jordan blocks, so C(x) <= (r + 1, 1, ..., 1).  A candidate whose
    first rank gives a hook <= the best so far is dropped after one step
    (``_pruned_char_seq``), and the sweep stops once the best equals the
    hook of r_bar, a bound on rank R_x over every x (``_rank_ceiling``).
    Neither changes the maximum.
    """
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise InvalidInputError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise InvalidInputError(f"need samples >= 0, got samples={samples}")
    n = alg.dim
    forms = lower_central_series(alg).derived_subalgebra.vanishing_forms()
    _, index = alg.integer_index
    ceiling = _hook(n, _rank_ceiling(alg))
    best = None
    for x in _candidates(n, forms, samples, seed):
        seq = _pruned_char_seq(index, n, x, best)
        if seq is not None:
            best = seq
            if best == ceiling:
                break
    return best


def _hook(n: int, r: int) -> tuple[int, ...]:
    """(r + 1, 1, ..., 1): the largest profile of a nilpotent n x n
    operator of rank r, which has n - r Jordan blocks."""
    return (r + 1,) + (1,) * (n - r - 1)


def _candidates(n: int, forms, samples: int, seed: int):
    """The sweep's test set, outside the common kernel L^2 of ``forms``,
    built lazily in order: basis vectors, pairwise sums, seeded draws."""
    units = _unit_rows(n)
    # a form's value on e_i is its i-th coefficient
    outside = [i for i in range(n) if any(form[i] for form in forms)]
    for i in outside:
        yield units[i]
    for i, j in combinations(outside, 2):
        if any(form[i] + form[j] for form in forms):
            yield tuple(x + y for x, y in zip(units[i], units[j]))
    rng = random.Random(seed)
    drawn = 0
    while drawn < samples:
        vec = _random_integer_vector(rng, n)
        if any(sum(map(mul, form, vec)) for form in forms):
            yield vec
            drawn += 1


def _rank_ceiling(alg: Algebra) -> int:
    """r_bar = codim U + dim L^3 >= rank R_x for every x, since R_x maps
    U = {y : [y, L] lies in L^3} into L^3.  codim U is the rank of the rows
    y -> phi([y, e_t]) over every t and every integer form phi vanishing on
    L^3 (0 when the series stops before it).  U contains L^2, so r_bar < n
    on a nilpotent algebra with L^2 != 0, and r_bar = 0 when L^2 = 0."""
    n = alg.dim
    terms = lower_central_series(alg).terms
    forms = (terms[2] if len(terms) > 2 else RowSpace(n)).vanishing_forms()
    _, index = alg.integer_index
    rows: dict[tuple[int, int], list[int]] = {}
    for i, entries in index.items():
        for t, image in entries:  # image: the terms of D [e_i, e_t]
            for f, form in enumerate(forms):
                value = sum(form[k] * c for k, c in image)
                if value:
                    rows.setdefault((t, f), [0] * n)[i] = value
    return RowSpace(n, rows.values()).dim + n - len(forms)


def _pruned_char_seq(index, n: int, x, best: tuple[int, ...] | None
                     ) -> tuple[int, ...] | None:
    """C(x) if it is lexicographically above ``best``, else None.

    ``index`` is the algebra's ``integer_index`` and ``x`` an integer
    vector; R_x is applied through the sparse columns ``right_columns``
    gives for x.  When the hook of rank R_x is <= ``best`` the walk stops
    after its first step.
    """
    columns = right_columns(index, n, x)
    ranks = _rank_descent(lambda v: right_image(columns, v), n)
    first = next(ranks)
    if best is not None and _hook(n, first) <= best:
        return None
    seq = _profile_from_ranks((n, first, *ranks))
    return seq if best is None or seq > best else None


def is_p_filiform(alg: Algebra, p: int, seed: int = DEFAULT_SEED) -> bool:
    """True iff C(L) = (n-p, 1, ..., 1) with exactly p trailing ones."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise InvalidInputError(f"p must be an integer, got {p!r}")
    if p < 0 or p >= alg.dim:
        raise InvalidInputError(f"need 0 <= p < dim, got p={p}, dim={alg.dim}")
    expected = (alg.dim - p,) + (1,) * p
    return characteristic_sequence(alg, seed=seed) == expected
