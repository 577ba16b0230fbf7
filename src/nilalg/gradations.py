"""Z-gradations: verification, natural gradation, and maximum-length search.

A diagonal degree assignment d maps each basis index to an integer and is
a maximum-length gradation witness when (a) every bracket [e_i, e_j] lands
in the component of degree d_i + d_j - c for one uniform integer offset c
(c = 0 for a literal gradation; subtracting c relabels any witness to a
literal one, making verdicts shift- and negation-invariant), (b) the
degrees are all distinct (components of dimension one), (c) the attained
degrees form an integer interval, and (d) that interval has size dim(L).

Two search strategies are provided, each over a fixed window that the
report records.  ``diagonal_search`` exhaustively enumerates injective
interval assignments in the given basis with bases -n..1 (``"window": n``;
small dimensions only), pruning every prefix that already fails closure.
``two_generator_search`` follows the adapted-basis scheme: pick
homogeneous generators (one chain driver of degree 1 plus the remaining
generators with unknown degrees), close them under bracketing while
propagating symbolic degrees, and test every integer value of the unknown
degrees in [-2n, 2n] (``"kt_window": 2n``).  A negative answer means no
gradation was found under that scheme; it is not a formal non-existence
certificate (``SCHEME_NOTE``).

The adapted-basis search runs on Python ints: generators are drawn as
integers, closed on the table scaled by its common denominator, and each
sample's closure support is read from the integer rows.  Scaling vectors
by nonzero rationals changes no span and no support, so every verdict and
reason is that of a ``Fraction`` search.  The ``Fraction`` algebra in the
adapted basis is built only for the sample that closes, and its witness is
reported only once ``verify_gradation`` confirms it there.

Search candidates are examined in a fixed order (lowest unknown tuple
first, samples in build order) and the first witness wins, so results are
independent of any execution interleaving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd
from operator import add, mul

from .core import (
    Algebra,
    change_of_basis,
    is_lie,
    load_json,
    right_columns,
    right_image,
    sparse_rows,
    square_ideal,
)
from .errors import DegenerateSampleError, InvalidInputError
from .invariants import (
    DEFAULT_SEED,
    CentralSeries,
    characteristic_sequence,
    draw_scaled_rationals,
    lower_central_series,
)
from .linalg import RowSpace, Vector, ZERO, integer_inverse, is_zero_vector

MAXIMUM_LENGTH = "maximum_length"
NOT_MAXIMUM_LENGTH = "not_maximum_length"
NO_GRADATION_FOUND = "no_gradation_found"

REASON_COLLISION = "degree collision"
REASON_DISCONNECTED = "disconnected"
REASON_CLOSURE = "closure"

SCHEME_NOTE = (
    "no gradation found under the two-generator adapted-basis scheme "
    "(homogeneous generators of the standard form, chain driver of degree "
    "one by the +/-1 equivalence); this is a generic-sample search, not a "
    "formal non-existence proof")


# -- degree assignments ----------------------------------------------------

@dataclass(frozen=True)
class DegreeAssignment:
    """Total map basis-index -> integer degree (a diagonal gradation candidate)."""

    degrees: dict[int, int]

    def degree_list(self, n: int) -> list[int]:
        if set(self.degrees) != set(range(n)):
            raise InvalidInputError("degree assignment is not total on the basis")
        return [self.degrees[i] for i in range(n)]

    def shifted(self, c: int) -> "DegreeAssignment":
        return DegreeAssignment({i: d + c for i, d in self.degrees.items()})

    def negated(self) -> "DegreeAssignment":
        return DegreeAssignment({i: -d for i, d in self.degrees.items()})

    def to_dict(self, alg: Algebra) -> dict:
        return {"degrees": {alg.basis_labels[i]: self.degrees[i]
                            for i in sorted(self.degrees)}}

    @staticmethod
    def from_dict(data: dict, alg: Algebra) -> "DegreeAssignment":
        if not isinstance(data, dict) or not isinstance(data.get("degrees"), dict):
            raise InvalidInputError(
                "degree assignment JSON must be {\"degrees\": {label: int}}")
        degrees = {}
        for label, deg in data["degrees"].items():
            if not isinstance(deg, int) or isinstance(deg, bool):
                raise InvalidInputError(f"degree of {label!r} must be an integer")
            degrees[alg.label_index(label)] = deg
        if set(degrees) != set(range(alg.dim)):
            raise InvalidInputError("degree assignment must cover every basis label")
        return DegreeAssignment(degrees)

    @staticmethod
    def from_json(text: str, alg: Algebra) -> "DegreeAssignment":
        return DegreeAssignment.from_dict(load_json(text), alg)


# -- gradation verification -------------------------------------------------

@dataclass(frozen=True)
class GradationChecks:
    """Booleans for the four defining properties of a maximum-length gradation.

    Closure is checked up to a uniform integer offset: the assignment
    passes when every nonzero product satisfies deg(target) = d_i + d_j - c
    for one common c.  Subtracting c from every degree turns such a witness
    into a literal gradation with [V_i, V_j] in V_{i+j}, so the verdict is
    invariant under shifting all degrees by a constant (and under negation,
    the k_s = -1 case).  A literal gradation reports offset 0.
    """

    closure: bool
    nonempty: bool
    dim_one: bool
    distinct: bool
    connected: bool
    interval: tuple[int, int] | None
    offset: int | None = None

    def to_dict(self) -> dict:
        return {"closure": self.closure, "nonempty": self.nonempty,
                "dim_one": self.dim_one, "distinct": self.distinct,
                "connected": self.connected,
                "interval": list(self.interval) if self.interval else None,
                "offset": self.offset}


@dataclass(frozen=True)
class GradationReport:
    verdict: str
    witness: DegreeAssignment | None = None
    reason: str | None = None
    checks: GradationChecks | None = None
    search: dict | None = None

    @property
    def is_maximum_length(self) -> bool:
        return self.verdict == MAXIMUM_LENGTH

    def to_dict(self, alg: Algebra | None = None) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None and alg is not None:
            out["witness"] = self.witness.to_dict(alg)
        elif self.witness is not None:
            out["witness"] = {"degrees_by_index": dict(sorted(
                self.witness.degrees.items()))}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.checks is not None:
            out["checked_properties"] = self.checks.to_dict()
        if self.search is not None:
            out["search"] = self.search
        return out


def _closure_offset(triples, degs: list[int]) -> tuple[bool, int | None]:
    """Uniform-offset closure: all products satisfy deg(k) = d_i + d_j - c.

    ``triples`` lists the (i, j, k) with a nonzero coefficient of e_k in
    [e_i, e_j].  Returns (True, c) when a single offset c works for every
    one of them, (True, None) when there are none, and (False, None)
    otherwise.
    """
    offset = None
    for i, j, k in triples:
        this = degs[i] + degs[j] - degs[k]
        if offset is None:
            offset = this
        elif this != offset:
            return False, None
    return True, offset


def _degree_reason(n: int, degs: list[int]) -> str | None:
    """Fast-path reason from the degree multiset alone (closure not examined)."""
    seen = set(degs)
    if len(seen) != n:
        return REASON_COLLISION
    if max(seen) - min(seen) + 1 != n:
        return REASON_DISCONNECTED
    return None


def verify_gradation(alg: Algebra, d: DegreeAssignment) -> GradationReport:
    """Check the maximum-length properties of ``d`` exactly.

    The report carries each property verdict; MaximumLength requires all.
    """
    n = alg.dim
    degs = d.degree_list(n)
    seen = sorted(set(degs))
    lo, hi = seen[0], seen[-1]
    distinct = len(seen) == n
    dim_one = distinct  # one basis vector per attained degree
    connected = (hi - lo + 1) == len(seen)
    nonempty = connected  # no empty component inside the covering interval
    closure, offset = _closure_offset(alg._triples, degs)
    checks = GradationChecks(closure, nonempty, dim_one, distinct, connected,
                             (lo, hi), offset)
    # distinct and connected already give an interval of size n
    if closure and distinct and connected:
        return GradationReport(MAXIMUM_LENGTH, witness=d, checks=checks)
    if not distinct:
        reason = REASON_COLLISION
    elif not connected:
        reason = REASON_DISCONNECTED
    else:
        reason = REASON_CLOSURE
    return GradationReport(NOT_MAXIMUM_LENGTH, witness=d, reason=reason,
                           checks=checks)


# -- natural gradation -------------------------------------------------------

@dataclass(frozen=True)
class NaturalGradation:
    """gr L = sum of L^i / L^{i+1} in a chosen homogeneous complement basis."""

    component_dims: tuple[int, ...]
    degrees: tuple[int, ...]          # degree of each adapted basis vector
    basis_matrix: tuple[Vector, ...]  # rows: adapted basis in original coords
    graded_algebra: Algebra


def natural_gradation(alg: Algebra, series: CentralSeries | None = None
                      ) -> NaturalGradation:
    """Build gr L from the lower central series.

    Complements are chosen deterministically: the representatives of
    L^i / L^{i+1} are the echelon rows of L^i whose pivot column does not
    survive into L^{i+1} (lexicographically earliest pivots).  Brackets of
    representatives are projected onto the component of the summed degree.
    """
    n = alg.dim
    if series is None:
        series = lower_central_series(alg)
    terms = series.terms
    reps: list[Vector] = []
    degrees: list[int] = []
    labels: list[str] = []
    for k in range(len(terms) - 1):
        nxt_pivots = set(terms[k + 1].pivots)
        for row, piv in zip(terms[k].basis, terms[k].pivots):
            if piv not in nxt_pivots:
                reps.append(row)
                degrees.append(k + 1)
                labels.append(alg.basis_labels[piv])
    matrix = tuple(reps)
    table = {}
    for (i, j), coords in change_of_basis(alg, matrix, labels).brackets.items():
        target = degrees[i] + degrees[j]
        projected = tuple(c if degrees[s] == target else ZERO
                          for s, c in enumerate(coords))
        if not is_zero_vector(projected):
            table[(i, j)] = projected
    graded = Algebra(n, tuple(labels), table)
    return NaturalGradation(tuple(degrees.count(k + 1)
                                  for k in range(len(terms) - 1)),
                            tuple(degrees), matrix, graded)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant record; equality is necessary for isomorphism."""

    dim: int
    series_dims: tuple[int, ...]
    char_seq: tuple[int, ...]
    lie: bool
    component_dims: tuple[int, ...]
    square_ideal_dim: int

    def to_dict(self) -> dict:
        return {"dim": self.dim, "series_dims": list(self.series_dims),
                "char_seq": list(self.char_seq), "is_lie": self.lie,
                "component_dims": list(self.component_dims),
                "square_ideal_dim": self.square_ideal_dim}


def graded_fingerprint(alg: Algebra, samples: int = 25,
                       seed: int = DEFAULT_SEED) -> Fingerprint:
    series = lower_central_series(alg)
    nat = natural_gradation(alg, series)
    cs = characteristic_sequence(alg, samples=samples, seed=seed)
    return Fingerprint(alg.dim, series.dims, cs.seq, is_lie(alg),
                       nat.component_dims, square_ideal(alg).dim)


# -- explicit witness for M4(1) ----------------------------------------------

def m4_1_witness(n: int, p: int) -> DegreeAssignment:
    """The explicit degree table for M4(1): x_i in V_{i k}, k = n/(n-p).

    Indices follow the catalog ordering x_1..x_{n-p}, y_1..y_{p/2},
    z_1..z_{p/2}.  Requires p even >= 4, n even, n-p >= 4 and (n-p) | n.
    """
    m = n - p
    if p % 2 != 0 or p < 4:
        raise InvalidInputError("M4(1) witness needs p even >= 4")
    if m < 4:
        raise InvalidInputError("M4(1) witness needs n-p >= 4")
    if n % 2 != 0:
        raise InvalidInputError("M4(1) witness needs n even")
    if n % m != 0:
        raise InvalidInputError("M4(1) witness needs (n-p) | n")
    k = n // m
    half = p // 2
    y = lambda j: m + j - 1
    z = lambda j: m + half + j - 1
    degrees = {i - 1: i * k for i in range(1, m + 1)}
    degrees[y(1)] = 1
    degrees[y(2)] = (m - 1) * k - 1
    degrees[z(1)] = k + 1
    degrees[z(2)] = m * k - 1
    for i in range(3, k + 1):
        degrees[y(i)] = i - 1
        degrees[z(i)] = k + i - 1
    for q in range(1, (m - 4) // 2 + 1):
        for i in range(2, k + 1):
            degrees[y(q * (k - 1) + i)] = 2 * q * k - 1 + i
            degrees[z(q * (k - 1) + i)] = (2 * q + 1) * k - 1 + i
    base = (m - 2) // 2 * (k - 1)
    for i in range(2, k):
        degrees[y(base + i)] = (m - 2) * k - 1 + i
        degrees[z(base + i)] = (m - 1) * k - 1 + i
    if len(degrees) != n:
        raise InvalidInputError("M4(1) witness table did not cover the basis")
    return DegreeAssignment(degrees)


# -- exhaustive diagonal search ----------------------------------------------

def diagonal_search(alg: Algebra) -> GradationReport:
    """Enumerate every injective interval degree map with base -n..1.

    Sound, and complete for gradations diagonal in this basis whose
    degrees lie in [-n, n]; the report records that window as
    ``"window": n``.  Guarded to dim <= 8 (the enumeration is n! per
    interval).

    The enumeration is exhaustive and pruned: bases ascend, and for each
    base the permutations are walked in lexicographic order by assigning
    indices 0, 1, ... depth first.  Each literal-closure check
    deg(e_k) = deg(e_i) + deg(e_j), one per nonzero coefficient of
    [e_i, e_j] on e_k, is tested as soon as index max(i, j, k) is assigned,
    and a failing prefix skips its whole subtree.  ``assignments_tried`` is
    therefore the position in lexicographic order (a pruned subtree counts
    all of its leaves), not a count of the work done.
    """
    n = alg.dim
    if n > 8:
        raise InvalidInputError(
            f"diagonal_search is limited to dim <= 8 (got {n})")
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, j, k in alg._triples:
        checks[max(i, j, k)].append((i, j, k))
    leaves_below = [factorial(n - d - 1) for d in range(n)]
    degs = [0] * n
    tried = 0
    closure_failures = 0

    def closed_leaves(d: int, free: list[int]):
        """Yield once per closed completion of degs[:d], in lexicographic order."""
        nonlocal tried, closure_failures
        for pos, value in enumerate(free):
            degs[d] = value
            if any(degs[i] + degs[j] != degs[k] for i, j, k in checks[d]):
                tried += leaves_below[d]
                closure_failures += leaves_below[d]
            elif d == n - 1:
                tried += 1
                yield
            else:
                yield from closed_leaves(d + 1, free[:pos] + free[pos + 1:])

    # A closed leaf is injective onto n consecutive integers and literally
    # closed, hence maximum length; verify_gradation only supplies checks.
    for base in range(-n, 2):
        for _ in closed_leaves(0, list(range(base, base + n))):
            witness = DegreeAssignment(dict(enumerate(degs)))
            search = {"strategy": "diagonal", "window": n,
                      "assignments_tried": tried}
            return GradationReport(MAXIMUM_LENGTH, witness=witness,
                                   checks=verify_gradation(alg, witness).checks,
                                   search=search)
    search = {"strategy": "diagonal", "window": n,
              "assignments_tried": tried,
              "closure_failures": closure_failures,
              "note": "exhaustive over injective interval maps in the given basis"}
    return GradationReport(NO_GRADATION_FOUND, search=search)


# -- adapted-basis search ------------------------------------------------------

@dataclass(frozen=True)
class GeneratorRoles:
    """Which generators drive the chain and which carry unknown degrees.

    ``extra_draw`` optionally restricts where the non-driver generic
    generators may spread (the standard generator shape draws them over the
    chain part and the other generators only).
    """

    driver: int
    others: tuple[int, ...]
    extra_draw: tuple[int, ...] | None = None


# Generic draws have entries a/b with b in {1, 2, 3}; drawn times
# lcm(1, 2, 3) = 6 they are integers.
DRAW_SCALE = 6


@dataclass
class AdaptedBasisSample:
    """One generic draw of homogeneous generators plus its bracket closure.

    Everything up to a witness runs on Python ints.  ``generators`` and
    ``rows`` are integer vectors, and ``scales[s] = (a, b)`` makes
    a/b * rows[s] the rational adapted basis vector that ``basis_matrix``
    returns, the vector a ``Fraction`` closure would have built.
    ``forms[s] = (a, b_1, ..., b_u)`` gives that vector the degree
    a*k_s + b_1*k_1 + ... + b_u*k_u in the driver degree k_s and the
    unknown degrees k_t.  The closure support (``closure_support``) is
    computed from the integer rows on first use; the algebra in the
    adapted basis is built only to certify a witness.
    """

    sample_index: int
    plain: bool
    generators: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...] | None = None
    scales: tuple[tuple[int, int], ...] | None = None
    forms: tuple[tuple[int, ...], ...] | None = None
    labels: tuple[str, ...] | None = None
    support: tuple[tuple[int, int, int], ...] | None = None

    @property
    def degenerate(self) -> bool:
        return self.rows is None

    @property
    def basis_matrix(self) -> tuple[Vector, ...] | None:
        """The adapted basis as rational rows, or None for a degenerate draw."""
        if self.rows is None:
            return None
        return tuple(tuple(Fraction(a * c, b) for c in row)
                     for (a, b), row in zip(self.scales, self.rows))

    def closure_support(self, alg: Algebra) -> tuple[tuple[int, int, int], ...]:
        """Every (i, j, k) with a nonzero coefficient of b_k in [b_i, b_j],
        in (i, j, k) order: the ``_triples`` of the algebra in the basis
        ``basis_matrix``.

        Scaling the rows by nonzero rationals and the table by its common
        denominator changes no support, so it is read from the integer
        brackets [rows_i, rows_j] times an integer multiple of the inverse
        of the rows.  Computed on first use and cached.
        """
        if self.support is None:
            n = alg.dim
            _, index = alg.integer_index
            inverse = sparse_rows(integer_inverse(self.rows))
            columns = [sparse_rows(right_columns(index, n, x)) for x in self.rows]
            triples = []
            for i, u in enumerate(self.rows):
                for j in range(n):
                    coords = right_image(inverse, right_image(columns[j], u))
                    triples.extend((i, j, k) for k, c in enumerate(coords) if c)
            self.support = tuple(triples)
        return self.support


def _draw_generators(alg: Algebra, roles: GeneratorRoles, rng: random.Random,
                     plain: bool) -> tuple[tuple[int, ...], ...]:
    """Integer generators: unit vectors when ``plain``, else DRAW_SCALE times
    generic rational vectors, entries a/b with -3 <= a <= 3 and 1 <= b <= 3
    drawn a then b, each entry computed as a * (DRAW_SCALE // b) by
    ``draw_scaled_rationals`` (the ``randint`` stream, from ``getrandbits``)."""
    n = alg.dim
    lead_entry = 1 if plain else DRAW_SCALE
    gens = []
    all_indices = set(range(n))
    for pos, lead in enumerate((roles.driver,) + roles.others):
        vec = [0] * n
        vec[lead] = lead_entry
        if not plain:
            if pos == 0 or roles.extra_draw is None:
                support = all_indices - {lead}
            else:
                support = (set(roles.extra_draw) | {roles.driver}
                           | set(roles.others)) - {lead}
            support = sorted(support)
            for k, c in zip(support, draw_scaled_rationals(rng, len(support), 3, 3,
                                                           DRAW_SCALE)):
                vec[k] = c
        gens.append(tuple(vec))
    return tuple(gens)


def _close_adapted_basis(alg: Algebra, sample: AdaptedBasisSample,
                         unknowns: int) -> None:
    """Bracket-close the generators on ints, tracking symbolic degrees.

    Fills rows, scales, forms and labels in place; leaves rows = None when
    the closure does not span (degenerate draw).  Brackets are taken on the
    algebra's ``integer_index``, which gives D times the bracket, and each
    new row is divided by its content g; its scale is that of its factors
    times g / D.  The same vectors up to scale therefore enter in the order
    a ``Fraction`` closure would add them.
    """
    n = alg.dim
    den, index = alg.integer_index
    rows = list(sample.generators)
    scales = [(1, 1 if sample.plain else DRAW_SCALE)] * len(rows)
    forms = [tuple(int(s == t) for s in range(unknowns + 1))
             for t in range(unknowns + 1)]
    space = RowSpace(n)
    for v in rows:
        if not space.add(v):
            return  # generators already dependent
    columns: dict[int, list] = {}  # j -> sparse [e_t, rows[j]], on first use
    # rows[:done] were bracketed pairwise by an earlier full pass; those
    # brackets already lie in the span, so each pass skips old x old pairs.
    done = 0
    while space.dim < n:
        added = False
        size = len(rows)
        for i in range(size):
            u = rows[i]
            for j in range(done if i < done else 0, size):
                cols = columns.get(j)
                if cols is None:
                    cols = columns[j] = sparse_rows(right_columns(index, n, rows[j]))
                w = right_image(cols, u)
                if not space.add(w):
                    continue
                g = gcd(*w)
                rows.append(tuple(c // g for c in w))
                (ai, bi), (aj, bj) = scales[i], scales[j]
                scales.append((ai * aj * g, bi * bj * den))
                forms.append(tuple(map(add, forms[i], forms[j])))
                added = True
                if space.dim == n:
                    break
            if space.dim == n:
                break
        if not added:
            return  # closure stalls below full rank
        done = size
    sample.rows = tuple(rows)
    sample.scales = tuple(scales)
    sample.forms = tuple(forms)
    sample.labels = _adapted_labels(alg, sample.rows)


def _adapted_labels(alg: Algebra, matrix) -> tuple[str, ...]:
    """Reuse an original label when an adapted vector is proportional to it."""
    labels = []
    used = set()
    for idx, row in enumerate(matrix):
        support = [k for k, c in enumerate(row) if c]
        name = None
        if len(support) == 1:
            cand = alg.basis_labels[support[0]]
            if cand not in used:
                name = cand
        if name is None:
            name = f"w{idx + 1}"
            while name in used:
                name += "'"
        used.add(name)
        labels.append(name)
    return tuple(labels)


def two_generator_search(alg: Algebra, samples: int = 3,
                         seed: int = DEFAULT_SEED,
                         roles: GeneratorRoles | None = None,
                         series: CentralSeries | None = None) -> GradationReport:
    """Adapted-basis maximum-length search following the extension scheme.

    The chain driver is normalized to degree k_s = 1 (the k_s = -1 case is
    equivalent under negation of all degrees); every other generator gets
    an unknown integer degree enumerated over [-2n, 2n], which the report
    records as ``"kt_window": 2n``.  Sample 0 uses the plain generators;
    ``samples`` further draws use generic rational coefficients to avoid
    non-generic degeneration.  Witnesses are reported in the adapted basis
    together with the change of basis, lowest unknown tuple first.

    The draws, the closures and every closure check run on Python ints
    (see ``AdaptedBasisSample``).  Only the sample that closes gets its
    rational adapted algebra, and the witness is reported only if
    ``verify_gradation`` confirms it there; ``checks`` come from that
    verification.  ``series``, when given, must be
    ``lower_central_series(alg)``; it is computed otherwise.
    """
    n = alg.dim
    kt_window = 2 * n
    if samples < 0:
        raise InvalidInputError(f"need samples >= 0, got samples={samples}")
    if series is None:
        series = lower_central_series(alg)
    l2 = series.derived_subalgebra
    if l2.dim == n:
        raise InvalidInputError("L^2 = L: the algebra has no generators")
    gen_indices = tuple(i for i in range(n) if i not in set(l2.pivots))
    if roles is None:
        role_choices = [GeneratorRoles(driver=g,
                                       others=tuple(h for h in gen_indices
                                                    if h != g))
                        for g in gen_indices]
    else:
        if roles.driver in roles.others or len(set(roles.others)) != len(roles.others):
            raise InvalidInputError("generator roles overlap")
        role_choices = [roles]
    unknowns = len(role_choices[0].others)
    space_size = (2 * kt_window + 1) ** unknowns
    if space_size > 2_000_000:
        raise InvalidInputError(
            f"degree enumeration would try {space_size} assignments "
            f"({unknowns} unknowns over window {kt_window}), over the "
            "limit of 2000000")

    rng = random.Random(seed)
    built: list[AdaptedBasisSample] = []
    degenerate = 0
    for sample_index in range(samples + 1):
        for choice in role_choices:
            sample = AdaptedBasisSample(
                sample_index=sample_index, plain=(sample_index == 0),
                generators=_draw_generators(alg, choice, rng,
                                            plain=(sample_index == 0)))
            _close_adapted_basis(alg, sample, unknowns)
            if sample.degenerate:
                degenerate += 1
            else:
                built.append(sample)
    if not built:
        raise DegenerateSampleError(
            "every generator sample produced a singular basis change; "
            "re-seed or adjust the generator roles")
    names = ["k_t"] if unknowns == 1 else [f"k_{t + 1}" for t in range(unknowns)]
    header = {"strategy": "two_generator_adapted_basis", "kt_window": kt_window,
              "samples": samples, "seed": seed, "unknowns": names,
              "degenerate_samples": degenerate}

    # Group samples whose symbolic degree forms coincide: the degree-set
    # checks depend only on the forms, closure is per-sample.  Groups keep
    # build order so the plain sample drives the recorded reasons.
    groups: dict[tuple, list[AdaptedBasisSample]] = {}
    for sample in built:
        groups.setdefault(sample.forms, []).append(sample)

    reasons_by_kt: dict[tuple[int, ...], str] = {}
    domain = range(-kt_window, kt_window + 1)
    # With k_s = 1 a form's degree is a + b . kts; the pairs are computed
    # once per group rather than per form per tuple.
    affine = [([(f[0], f[1:]) for f in forms], members)
              for forms, members in groups.items()]
    for kts in product(domain, repeat=unknowns):
        verdict_reason = None
        for pairs, members in affine:
            degs = [const + sum(map(mul, b, kts)) for const, b in pairs]
            reason = _degree_reason(n, degs)
            if reason is not None:
                if verdict_reason is None:
                    verdict_reason = reason
                continue
            for sample in members:
                if _closure_offset(sample.closure_support(alg), degs)[0]:
                    witness = DegreeAssignment(dict(enumerate(degs)))
                    adapted = change_of_basis(alg, sample.basis_matrix, sample.labels)
                    report = verify_gradation(adapted, witness)
                    if not report.is_maximum_length:
                        raise RuntimeError(
                            f"integer closure support of sample "
                            f"{sample.sample_index} accepts degrees {degs}, "
                            "which the rational adapted algebra refutes")
                    search = _search_summary(header, reasons_by_kt)
                    search.update(
                        witness_at=list(kts),
                        sample_index=sample.sample_index,
                        plain_sample=sample.plain,
                        adapted_basis_labels=list(sample.labels),
                        adapted_basis_matrix=_matrix_strings(sample.basis_matrix))
                    return GradationReport(MAXIMUM_LENGTH, witness=witness,
                                           checks=report.checks, search=search)
            if verdict_reason is None:
                verdict_reason = REASON_CLOSURE
        reasons_by_kt[kts] = verdict_reason
    search = _search_summary(header, reasons_by_kt)
    search["note"] = SCHEME_NOTE
    return GradationReport(NO_GRADATION_FOUND, search=search)


def _matrix_strings(matrix: tuple[Vector, ...]) -> list[list[str]]:
    return [[str(Fraction(c)) for c in row] for row in matrix]


def _search_summary(header: dict, reasons_by_kt: dict) -> dict:
    """``header`` plus the failure reasons of the unknown tuples tried.

    ``reasons_by_kt`` is in enumeration order, which is ascending, so each
    reason's exemplar is the lowest tuple that failed for it.
    """
    reason_counts = dict.fromkeys(
        sorted((REASON_CLOSURE, REASON_COLLISION, REASON_DISCONNECTED)), 0)
    exemplars: dict[str, list[int]] = {}
    for kts, reason in reasons_by_kt.items():
        reason_counts[reason] += 1
        exemplars.setdefault(reason, list(kts))
    out = dict(header, reason_counts=reason_counts,
               reason_exemplars=dict(sorted(exemplars.items())))
    items = list(reasons_by_kt.items())
    if len(header["unknowns"]) > 1 and len(items) > 1000:
        out["reasons_by_kt_truncated"] = len(items)
        items = items[:200]
    out["reasons_by_kt"] = {",".join(map(str, k)): r for k, r in items}
    return out
