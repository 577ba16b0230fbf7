"""Independent oracles and generators shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
Jordan profiles come from matrices built out of a known block partition,
nilpotent algebras are built level-by-level so nilpotency holds by
construction, and series dimensions for the Lie families come from the
suffix sums of their known natural-gradation components.

The dense reference kernels (bracket, the n^3 Leibniz sweep, the
all-pairs Lie test, Gauss-Jordan RREF and inverse, the all-pairs
adapted-basis closure of the rational generator draw, the squares ideal
grown to its rank) walk every table
entry and every matrix entry, zero or not.  They read only
``Algebra.brackets`` and plain tuples, never the sparse index or
``RowSpace``, so the library's sparse kernels are checked against them for
exact equality.  The brute-force diagonal search visits every permutation,
so the pruned enumeration is checked against it, counters included; the
exhaustive characteristic-sequence sweep computes C(x) in full on every
candidate, so the rank-pruned sweep is checked against it.  The table views
an ``Algebra`` builds from its one scan of ``brackets`` (the integer index,
the support triples, the JSON form) are checked against a scan of every
coordinate.  The
``Fraction`` lower central series brackets each reduced basis vector of
L^k with every e_j by the dense bracket, so the integer series is checked
against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

from nilalg import (
    Algebra,
    NotNilpotentError,
    char_seq_at,
)
from nilalg.gradations import (
    MAXIMUM_LENGTH,
    NO_GRADATION_FOUND,
    DegreeAssignment,
    GeneratorRoles,
    GradationReport,
    verify_gradation,
)
from nilalg.invariants import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    CentralSeries,
)
from nilalg.linalg import RowSpace, unit_vector

ZERO = Fraction(0)


# -- dense reference kernels --------------------------------------------------

def dense_bracket(alg: Algebra, x, y) -> tuple:
    """[x, y] = sum over every table entry (i, j) of x_i y_j [e_i, e_j]."""
    n = alg.dim
    out = [ZERO] * n
    for (i, j), vec in alg.brackets.items():
        if x[i] and y[j]:
            c = x[i] * y[j]
            for k in range(n):
                out[k] += c * vec[k]
    return tuple(out)


def dense_table_views(alg: Algebra) -> tuple:
    """(integer_index, _triples, algebra_to_dict) of ``alg`` by a scan of
    every coordinate of every ``brackets`` entry, zero or not."""
    n = alg.dim
    den = 1
    for vec in alg.brackets.values():
        for k in range(n):
            den = lcm(den, Fraction(vec[k]).denominator)
    index, triples, entries = {}, [], {}
    for (i, j), vec in alg.brackets.items():
        ks = [k for k in range(n) if vec[k] != 0]
        triples.extend((i, j, k) for k in ks)
        if ks:
            index.setdefault(i, []).append(
                (j, tuple((k, int(vec[k] * den)) for k in ks)))
    for i, j in sorted(alg.brackets):
        vec = alg.brackets[(i, j)]
        terms = [[k, str(Fraction(vec[k]))] for k in range(n) if vec[k] != 0]
        if terms:
            entries[f"{i},{j}"] = terms
    return ((den, index), tuple(triples),
            {"dim": n, "basis": list(alg.basis_labels), "brackets": entries})


def unit(n: int, i: int) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(n))


def identity(n: int) -> tuple:
    return tuple(unit(n, i) for i in range(n))


def dense_leibniz_violations(alg: Algebra) -> tuple:
    """((i, j, k), defect) for every basis triple with a nonzero defect,
    in (i, j, k) order, from the full n^3 sweep."""
    n = alg.dim
    zero = (ZERO,) * n
    table = [[alg.brackets.get((i, j), zero) for j in range(n)] for i in range(n)]

    def left(i, v):  # [e_i, v]
        return tuple(sum((v[t] * table[i][t][k] for t in range(n)), ZERO)
                     for k in range(n))

    def right(v, j):  # [v, e_j]
        return tuple(sum((v[t] * table[t][j][k] for t in range(n)), ZERO)
                     for k in range(n))

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                term1 = left(i, table[j][k])
                term2 = right(table[i][j], k)
                term3 = right(table[i][k], j)
                defect = tuple(a - b + c for a, b, c in zip(term1, term2, term3))
                if any(defect):
                    out.append(((i, j, k), defect))
    return tuple(out)


def dense_is_lie(alg: Algebra) -> bool:
    """Zero squares and antisymmetry, by the sum [e_i, e_j] + [e_j, e_i]
    over every pair i < j, zero entries included."""
    n = alg.dim
    zero = (ZERO,) * n
    for i in range(n):
        if any(alg.brackets.get((i, i), zero)):
            return False
        for j in range(i + 1, n):
            anti = tuple(a + b for a, b in zip(alg.brackets.get((i, j), zero),
                                               alg.brackets.get((j, i), zero)))
            if any(anti):
                return False
    return True


def dense_right_mult(alg: Algebra, x) -> tuple:
    """R_x with column j = [e_j, x]."""
    n = alg.dim
    cols = [dense_bracket(alg, unit(n, j), x) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def dense_square_ideal(alg: Algebra) -> tuple[tuple, tuple]:
    """(rows, pivots) of the reduced row echelon basis of the two-sided
    ideal generated by the squares: the span of every [e_i, e_j] + [e_j, e_i]
    with i <= j (twice [e_i, e_i] when i = j), grown by [e_k, v] and
    [v, e_k] for every basis row v and every k until the rank stops
    growing."""
    n = alg.dim
    units = [unit(n, k) for k in range(n)]
    vecs = [tuple(a + b for a, b in zip(dense_bracket(alg, units[i], units[j]),
                                        dense_bracket(alg, units[j], units[i])))
            for i in range(n) for j in range(i, n)]
    rows, pivots = dense_rref(vecs, n)
    while True:
        grown = list(rows) + [w for v in rows for u in units
                              for w in (dense_bracket(alg, u, v), dense_bracket(alg, v, u))]
        if rank(grown, n) == len(rows):
            return rows, pivots
        rows, pivots = dense_rref(grown, n)


def dense_rref(rows, ncols: int) -> tuple[tuple, tuple]:
    """(nonzero rows, pivots) of the reduced row echelon form, by
    Gauss-Jordan elimination over the whole matrix."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((t for t in range(r, len(m)) if m[t][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [c * inv for c in m[r]]
        for t in range(len(m)):
            if t != r and m[t][col] != 0:
                c = m[t][col]
                m[t] = [a - c * b for a, b in zip(m[t], m[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def dense_invert(m):
    """Inverse by Gauss-Jordan elimination on [m | I]; None if singular."""
    n = len(m)
    aug = [[Fraction(c) for c in m[i]] + [Fraction(int(j == i)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(r[n:]) for r in aug)


def rank(rows, ncols: int) -> int:
    return len(dense_rref(rows, ncols)[1])


def mat_mul(a, b) -> tuple:
    m = len(b[0]) if b else 0
    return tuple(tuple(sum((a_row[t] * b[t][j] for t in range(len(b))), ZERO)
                       for j in range(m))
                 for a_row in a)


def dense_closure(alg: Algebra, generators, unknowns: int):
    """All-pairs bracket closure of the generators, every pass re-bracketing
    every pair; (basis rows, symbolic degree forms), or None when the
    generators are dependent or the closure stalls below full rank."""
    n = alg.dim
    vecs = list(generators)
    forms = [tuple(int(s == t) for s in range(unknowns + 1))
             for t in range(unknowns + 1)]
    if rank(vecs, n) < len(vecs):
        return None
    while len(vecs) < n:
        size = len(vecs)
        for i in range(size):
            for j in range(size):
                if len(vecs) == n:
                    break
                w = dense_bracket(alg, vecs[i], vecs[j])
                if rank(vecs + [w], n) > len(vecs):
                    vecs.append(w)
                    forms.append(tuple(a + b for a, b in zip(forms[i], forms[j])))
        if len(vecs) == size:
            return None
    return tuple(vecs), tuple(forms)


def random_coeff(rng: random.Random) -> Fraction:
    """a/b with -3 <= a <= 3 and 1 <= b <= 3, drawn a then b."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rational_generators(alg: Algebra, roles: GeneratorRoles, rng: random.Random,
                        plain: bool) -> tuple:
    """The adapted-basis search's generator draw on ``Fraction``: unit
    vectors when ``plain``, else each entry off the lead a ``random_coeff``,
    over the same supports in the same order."""
    n = alg.dim
    gens = []
    for pos, lead in enumerate((roles.driver,) + roles.others):
        vec = list(unit(n, lead))
        if not plain:
            if pos == 0 or roles.extra_draw is None:
                support = set(range(n)) - {lead}
            else:
                support = (set(roles.extra_draw) | {roles.driver}
                           | set(roles.others)) - {lead}
            for k in sorted(support):
                vec[k] = random_coeff(rng)
        gens.append(tuple(vec))
    return tuple(gens)


def shifted(w: DegreeAssignment, c: int) -> DegreeAssignment:
    """Every degree plus c."""
    return DegreeAssignment({i: d + c for i, d in w.degrees.items()})


def negated(w: DegreeAssignment) -> DegreeAssignment:
    """Every degree negated."""
    return DegreeAssignment({i: -d for i, d in w.degrees.items()})


def brute_diagonal_search(alg: Algebra) -> GradationReport:
    """``diagonal_search`` without pruning: every base -n..1, every
    permutation in lexicographic order, each checked against every table
    entry."""
    n = alg.dim
    entries = [(i, j, tuple(k for k, c in enumerate(vec) if c))
               for (i, j), vec in sorted(alg.brackets.items())]
    tried = 0
    closure_failures = 0
    for base in range(-n, 2):
        for perm in permutations(range(n)):
            degs = [base + t for t in perm]
            tried += 1
            ok = True
            for i, j, support in entries:
                target = degs[i] + degs[j]
                if any(degs[k] != target for k in support):
                    ok = False
                    break
            if not ok:
                closure_failures += 1
                continue
            witness = DegreeAssignment(dict(enumerate(degs)))
            report = verify_gradation(alg, witness)
            if report.is_maximum_length:
                search = {"strategy": "diagonal", "window": n,
                          "assignments_tried": tried}
                return GradationReport(MAXIMUM_LENGTH, witness=witness,
                                       checks=report.checks, search=search)
    search = {"strategy": "diagonal", "window": n,
              "assignments_tried": tried,
              "closure_failures": closure_failures,
              "note": "exhaustive over injective interval maps in the given basis"}
    return GradationReport(NO_GRADATION_FOUND, search=search)


def fraction_lower_central_series(alg: Algebra) -> CentralSeries:
    """L^{k+1} = span{[v, e_j]} over the reduced ``Fraction`` basis v of
    L^k, by ``dense_bracket``, until the first zero term; raises
    NotNilpotentError when the dimensions stall above zero."""
    n = alg.dim
    whole = RowSpace(n, identity(n))
    terms = [whole]
    current = whole
    while current.dim > 0:
        nxt = RowSpace(n, (dense_bracket(alg, vec, unit(n, j))
                           for vec in current.rows() for j in range(n)))
        if nxt.dim >= current.dim:
            raise NotNilpotentError(
                f"descending central sequence stalls at dimension {current.dim}")
        terms.append(nxt)
        current = nxt
    return CentralSeries(tuple(terms))


def random_rational_vector(rng: random.Random, n: int) -> tuple:
    """Entries a/b with -6 <= a <= 6 and 1 <= b <= 4, drawn a then b: the
    vectors the characteristic-sequence sweep draws, before it scales them
    by 12 to integers."""
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def exhaustive_characteristic_sequence(alg: Algebra, samples: int = DEFAULT_SAMPLES,
                                       seed: int = DEFAULT_SEED) -> tuple[int, ...]:
    """``characteristic_sequence`` without pruning: the same candidates in
    the same order, each given its full C(x) by ``char_seq_at``, with
    membership in L^2 tested by ``RowSpace.contains`` on the ``Fraction``
    series."""
    n = alg.dim
    series = fraction_lower_central_series(alg)
    l2 = series.derived_subalgebra
    candidates = []
    outside = [i for i in range(n) if not l2.contains(unit_vector(n, i))]
    for i in outside:
        candidates.append(unit_vector(n, i))
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            i, j = outside[a], outside[b]
            vec = tuple(x + y for x, y in zip(unit_vector(n, i), unit_vector(n, j)))
            if not l2.contains(vec):
                candidates.append(vec)
    rng = random.Random(seed)
    drawn = 0
    while drawn < samples:
        vec = random_rational_vector(rng, n)
        if l2.contains(vec):
            continue
        candidates.append(vec)
        drawn += 1
    best = None
    for vec in candidates:
        seq = char_seq_at(alg, vec)
        if best is None or best < seq:
            best = seq
    return best


# -- generators -----------------------------------------------------------------


def jordan_nilpotent(partition):
    """Block-diagonal nilpotent matrix with the given block sizes."""
    n = sum(partition)
    m = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for size in partition:
        for t in range(size - 1):
            m[pos + t][pos + t + 1] = Fraction(1)
        pos += size
    return tuple(tuple(row) for row in m)


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return tuple(sorted(parts, reverse=True))


def random_invertible(rng: random.Random, n: int):
    while True:
        m = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                  for _ in range(n))
        if dense_invert(m) is not None:
            return m


def conjugated_nilpotent(rng: random.Random, partition):
    """P J P^-1 for a random invertible P; profile known to be `partition`."""
    j = jordan_nilpotent(partition)
    p = random_invertible(rng, sum(partition))
    return mat_mul(mat_mul(p, j), dense_invert(p))


def random_nilpotent_algebra(rng: random.Random, dim: int) -> Algebra:
    """Sparse 2-generated table, nilpotent by a strict level filtration.

    e_1, e_2 sit at level 1; every later basis vector is the target of a
    product of earlier ones and inherits the summed level, so the lower
    central series must terminate.  Extra products only point at targets
    of at least the summed level.  Not necessarily Leibniz.
    """
    level = {0: 1, 1: 1}
    products: dict[tuple[int, int], list] = {}
    for k in range(2, dim):
        while True:
            a = rng.randrange(k)
            b = rng.randrange(k)
            if (a, b) not in products:
                break
        products[(a, b)] = [(k, Fraction(rng.choice([1, 1, 1, 2, -1])))]
        level[k] = level[a] + level[b]
    for _ in range(rng.randrange(0, dim)):
        a = rng.randrange(dim)
        b = rng.randrange(dim)
        targets = [k for k in range(2, dim) if level[k] >= level[a] + level[b]]
        if not targets or (a, b) in products:
            continue
        products[(a, b)] = [(rng.choice(targets), Fraction(rng.choice([1, -1, 2])))]
    labels = tuple(f"e{i + 1}" for i in range(dim))
    return Algebra.from_products(dim, labels, products)


def lie_family_series_dims(n: int, p: int, r: tuple[int, ...]) -> tuple[int, ...]:
    """Series dims of L/Q/tau from the known natural gradation.

    Component dims are 2 for L_1 = <x_0, x_1>, then 1 for each chain slot
    L_i = <x_i>, plus 1 extra wherever i equals some r_j (L_{r_j} also
    holds y_j); L^k is the span of components k and above.
    """
    comp = [2] + [1 + (i in r) for i in range(2, n - p + 1)]
    dims = [sum(comp[k:]) for k in range(len(comp))] + [0]
    return tuple(dims)
