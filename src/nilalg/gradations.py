"""Z-gradations: verification, natural gradation, and maximum-length search.

A diagonal degree assignment d maps each basis index to an integer and is
a maximum-length gradation witness when (a) every bracket [e_i, e_j] lands
in the component of degree d_i + d_j - c for one uniform integer offset c
(c = 0 for a literal gradation; subtracting c relabels any witness to a
literal one, making verdicts shift- and negation-invariant), (b) the
degrees are all distinct (components of dimension one), (c) the attained
degrees form an integer interval, and (d) that interval has size dim(L).

Two search strategies are provided, each over a fixed window that the
report records.  ``diagonal_search`` solves literal closure in the given
basis once with ``RowSpace`` and walks only the closed injective interval
assignments with bases -n..1 (``"window": n``; small dimensions only).
``two_generator_search`` follows the adapted-basis scheme: pick
homogeneous generators (one chain driver of degree 1 plus the remaining
generators with unknown degrees), close them under bracketing while
propagating symbolic degrees, and test every integer value of the unknown
degrees in [-2n, 2n] (``"kt_window": 2n``).  A negative answer means no
gradation was found under that scheme; it is not a formal non-existence
certificate (``SCHEME_NOTE``).

The adapted-basis search runs on Python ints: generators are drawn as
integers and closed on the table scaled by its common denominator.  Under
distinct degrees each adapted vector spans its own component, so a sample
can close only if every nonzero bracket of two adapted vectors is a
multiple of a single third; its closure support is read from the integer
rows by that proportionality, with no inverse.  Scaling vectors by nonzero
rationals changes no span and no proportionality, so every verdict and
reason is that of a ``Fraction`` search.  Each sample is built whole or not
at all; labels and the ``Fraction`` algebra in the adapted basis are built
only for the sample that closes, and its witness is reported only once
``verify_gradation`` confirms it there.  The reasons the unknown tuples
fail are tallied as they come, so memory does not grow with the tuples tried.

Search candidates are examined in a fixed order (lowest unknown tuple
first, samples in build order) and the first witness wins, so results are
independent of any execution interleaving.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, gcd
from operator import add, mul

from .core import (
    Algebra,
    Record,
    change_of_basis,
    check_object,
    is_lie,
    load_json,
    right_columns,
    right_image,
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
from .linalg import RowSpace, Vector

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

class DegreeAssignment(Record):
    """Total map basis-index -> integer degree (a diagonal gradation candidate)."""

    _fields = ("degrees",)

    def __init__(self, degrees: dict[int, int]):
        self.__dict__["degrees"] = degrees

    def degree_list(self, n: int) -> list[int]:
        if set(self.degrees) != set(range(n)):
            raise InvalidInputError("degree assignment is not total on the basis")
        return [self.degrees[i] for i in range(n)]

    def to_dict(self, labels: tuple[str, ...]) -> dict:
        return {"degrees": {labels[i]: self.degrees[i]
                            for i in sorted(self.degrees)}}

    @staticmethod
    def from_dict(data: dict, alg: Algebra) -> "DegreeAssignment":
        check_object(data, DegreeAssignment._fields, "degree assignment JSON")
        if not isinstance(data.get("degrees"), dict):
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

class GradationReport(Record):
    _fields = ("verdict", "witness", "reason", "checks", "search")

    def __init__(self, verdict: str, witness: DegreeAssignment | None = None,
                 reason: str | None = None, checks: dict | None = None,
                 search: dict | None = None):
        # checks: the report's "checked_properties"
        self.__dict__.update(verdict=verdict, witness=witness, reason=reason,
                             checks=checks, search=search)

    @property
    def is_maximum_length(self) -> bool:
        return self.verdict == MAXIMUM_LENGTH

    def to_dict(self, labels: tuple[str, ...] | None = None) -> dict:
        """The report as JSON data.  The witness is keyed by ``labels`` when
        they are given, otherwise by basis index (``degrees_by_index``)."""
        out: dict = {"verdict": self.verdict}
        if self.witness is not None and labels is not None:
            out["witness"] = self.witness.to_dict(labels)
        elif self.witness is not None:
            out["witness"] = {"degrees_by_index": dict(sorted(
                self.witness.degrees.items()))}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.checks is not None:
            out["checked_properties"] = dict(
                self.checks, interval=list(self.checks["interval"]))
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
    """The reason n degrees fail to be distinct and fill an interval, from
    the degree multiset alone (closure not examined), or None; the
    adapted-basis search tests each degree pattern with it."""
    seen = set(degs)
    if len(seen) != n:
        return REASON_COLLISION
    if max(seen) - min(seen) + 1 != n:
        return REASON_DISCONNECTED
    return None


def verify_gradation(alg: Algebra, d: DegreeAssignment) -> GradationReport:
    """Check the maximum-length properties of ``d`` exactly.

    ``checks`` holds a bool for each defining property (``nonempty`` and
    ``dim_one`` repeat ``connected`` and ``distinct``), the attained
    ``interval`` [lo, hi] and the closure ``offset``; MaximumLength requires
    all.  Closure is checked up to a uniform integer offset: the assignment
    passes when every nonzero product satisfies deg(target) = d_i + d_j - c
    for one common c.  Subtracting c from every degree turns such a witness
    into a literal gradation with [V_i, V_j] in V_{i+j}, so the verdict is
    invariant under shifting all degrees by a constant (and under negation,
    the k_s = -1 case).  A literal gradation reports offset 0.
    """
    n = alg.dim
    degs = d.degree_list(n)
    seen = sorted(set(degs))
    lo, hi = seen[0], seen[-1]
    distinct = len(seen) == n  # one basis vector per attained degree
    connected = hi - lo + 1 == len(seen)  # no empty component inside
    closure, offset = _closure_offset(alg._triples, degs)
    checks = {"closure": closure, "nonempty": connected, "dim_one": distinct,
              "distinct": distinct, "connected": connected,
              "interval": [lo, hi], "offset": offset}
    # distinct and connected already give an interval of size n
    reason = (REASON_COLLISION if not distinct
              else REASON_DISCONNECTED if not connected
              else None if closure else REASON_CLOSURE)
    if reason is None:
        return GradationReport(MAXIMUM_LENGTH, witness=d, checks=checks)
    return GradationReport(NOT_MAXIMUM_LENGTH, witness=d, reason=reason,
                           checks=checks)


# -- natural gradation -------------------------------------------------------

class NaturalGradation(Record):
    """gr L = sum of L^i / L^{i+1} in a chosen homogeneous complement basis;
    ``degrees`` holds the degree of each adapted basis vector."""

    _fields = ("component_dims", "degrees", "graded_algebra")

    def __init__(self, component_dims: tuple[int, ...], degrees: tuple[int, ...],
                 graded_algebra: Algebra):
        self.__dict__.update(component_dims=component_dims, degrees=degrees,
                             graded_algebra=graded_algebra)


def natural_gradation(alg: Algebra, series: CentralSeries | None = None
                      ) -> NaturalGradation:
    """Build gr L from the lower central series.

    Complements are chosen deterministically: the representatives of
    L^i / L^{i+1} are the echelon rows of L^i whose pivot column does not
    survive into L^{i+1} (lexicographically earliest pivots).  Brackets of
    representatives are projected onto the component of the summed degree.
    The series is always ``lower_central_series(alg)``: ``series`` is
    ignored and remains only for callers that pass it positionally.
    """
    n = alg.dim
    terms = lower_central_series(alg).terms
    reps: list[Vector] = []
    degrees: list[int] = []
    labels: list[str] = []
    for k in range(len(terms) - 1):
        nxt_pivots = set(terms[k + 1].pivots)
        for row, piv in zip(terms[k].rows(), terms[k].pivots):
            if piv not in nxt_pivots:
                reps.append(row)
                degrees.append(k + 1)
                labels.append(alg.basis_labels[piv])
    products = {}
    for (i, j), entry in change_of_basis(alg, reps, labels)._entries.items():
        target = degrees[i] + degrees[j]
        projected = [(k, c) for k, c in entry if degrees[k] == target]
        if projected:
            products[(i, j)] = projected
    graded = Algebra.from_products(n, labels, products)
    return NaturalGradation(tuple(degrees.count(k + 1)
                                  for k in range(len(terms) - 1)),
                            tuple(degrees), graded)


def graded_fingerprint(alg: Algebra) -> dict:
    """Isomorphism-invariant record as plain data: dim, central series
    dims, characteristic sequence, whether the algebra is Lie, the natural
    gradation's component dims and dim L^2.  Equality is necessary for
    isomorphism.  The component dims are the drops of the series dims,
    since pivots(L^{k+1}) lie among pivots(L^k)."""
    cs = characteristic_sequence(alg)
    dims = lower_central_series(alg).dims
    return {"dim": alg.dim, "series_dims": list(dims),
            "char_seq": list(cs), "is_lie": is_lie(alg),
            "component_dims": [a - b for a, b in zip(dims, dims[1:])],
            "square_ideal_dim": square_ideal(alg).dim}


# -- exhaustive diagonal search ----------------------------------------------

def diagonal_search(alg: Algebra) -> GradationReport:
    """The first literally closed injective interval degree map with base
    -n..1, in lexicographic order; guarded to dim <= 8.

    Sound, and complete for gradations diagonal in this basis whose degrees
    lie in [-n, n] (``"window": n`` in the report).  Literal closure is the
    linear system d_i + d_j = d_k, one equation per nonzero coefficient of
    [e_i, e_j] on e_k; its solutions are T_B.  A ``RowSpace`` solves it once
    with the columns in reverse index order, so each reduced row pivots on
    its highest index and ``vanishing_forms`` (a basis of T_B) fix each
    pivot degree from the free degrees below it.  Bases ascend, and each
    base's n! permutations are walked in lexicographic order by assigning
    indices 0, 1, ... depth first: a free index takes every unused value, a
    pivot index only its forced value, so every leaf is closed.
    ``assignments_tried`` keeps its meaning, the position of the witness in
    lexicographic order over all (n + 2) * n! leaves, or all of them for a
    negative: it counts positions, not the work done.
    """
    n = alg.dim
    if n > 8:
        raise InvalidInputError(
            f"diagonal_search is limited to dim <= 8 (got {n})")
    # column c stands for index n - 1 - c
    space = RowSpace(n, ([(i == t) + (j == t) - (k == t) for t in reversed(range(n))]
                         for i, j, k in alg._triples))
    free_columns = [c for c in range(n) if c not in space.pivots]
    forms = space.vanishing_forms()  # each is den at its own free column
    den = forms[0][free_columns[0]] if forms else 1
    # den * degs[t] is the sum of w * degs[e] over the pairs (e, w) in forced[t]
    forced: list[list[tuple[int, int]] | None] = [None] * n
    for c in space.pivots:
        forced[n - 1 - c] = [(n - 1 - q, form[c])
                             for q, form in zip(free_columns, forms) if form[c]]
    degs = [0] * n

    def closed(d: int, free: list[int]):
        """Yield once per closed completion of degs[:d], in lexicographic order."""
        if forced[d] is None:
            positions = range(len(free))
        else:
            value, rem = divmod(sum(w * degs[e] for e, w in forced[d]), den)
            positions = (free.index(value),) if not rem and value in free else ()
        for pos in positions:
            degs[d] = free[pos]
            if d == n - 1:
                yield
            else:
                yield from closed(d + 1, free[:pos] + free[pos + 1:])

    # A closed leaf is injective onto n consecutive integers and literally
    # closed, hence maximum length; verify_gradation only supplies checks.
    for base in range(-n, 2):
        for _ in closed(0, list(range(base, base + n))):
            rank = 0  # Lehmer rank of degs among the orders of its base
            for d in range(n):
                rank = rank * (n - d) + sum(v < degs[d] for v in degs[d + 1:])
            witness = DegreeAssignment(dict(enumerate(degs)))
            search = {"strategy": "diagonal", "window": n,
                      "assignments_tried": (base + n) * factorial(n) + rank + 1}
            return GradationReport(MAXIMUM_LENGTH, witness=witness,
                                   checks=verify_gradation(alg, witness).checks,
                                   search=search)
    # no leaf is closed, so every one counts as a closure failure
    tried = (n + 2) * factorial(n)
    search = {"strategy": "diagonal", "window": n,
              "assignments_tried": tried, "closure_failures": tried,
              "note": "exhaustive over injective interval maps in the given basis"}
    return GradationReport(NO_GRADATION_FOUND, search=search)


# -- adapted-basis search ------------------------------------------------------

class GeneratorRoles(Record):
    """Which generators drive the chain and which carry unknown degrees.

    ``extra_draw`` optionally restricts where the non-driver generic
    generators may spread (the standard generator shape draws them over the
    chain part and the other generators only).  Lists given for ``others``
    and ``extra_draw`` are kept as tuples.
    """

    _fields = ("driver", "others", "extra_draw")

    def __init__(self, driver: int, others: tuple[int, ...],
                 extra_draw: tuple[int, ...] | None = None):
        if extra_draw is not None:
            extra_draw = tuple(extra_draw)
        self.__dict__.update(driver=driver, others=tuple(others),
                             extra_draw=extra_draw)


# Generic draws have entries a/b with b in {1, 2, 3}; drawn times
# lcm(1, 2, 3) = 6 they are integers.
DRAW_SCALE = 6

class AdaptedBasisSample(Record):
    """One generic draw of homogeneous generators, closed under bracketing.

    Built whole by ``_close_adapted_basis``, or not at all for a degenerate
    draw.  Everything up to a witness runs on Python ints: ``rows`` are
    integer vectors, and ``scales[s] = (a, b)`` makes a/b * rows[s] the
    rational adapted basis vector that ``basis_matrix`` returns, the vector
    a ``Fraction`` closure would have built.  ``forms[s] = (a, b_1, ...,
    b_u)`` gives that vector the degree a*k_s + b_1*k_1 + ... + b_u*k_u in
    the driver degree k_s and the unknown degrees k_t.  Sample 0 draws the
    plain generators.  The closure support (``closure_support``) is matched
    by proportionality from the integer rows on first use; labels and the
    algebra in the adapted basis are built only to certify a witness.
    """

    _fields = ("alg", "sample_index", "rows", "scales", "forms")

    def __init__(self, alg: Algebra, sample_index: int,
                 rows: tuple[tuple[int, ...], ...],
                 scales: tuple[tuple[int, int], ...],
                 forms: tuple[tuple[int, ...], ...]):
        self.__dict__.update(alg=alg, sample_index=sample_index, rows=rows,
                             scales=scales, forms=forms)

    @property
    def basis_matrix(self) -> tuple[Vector, ...]:
        """The adapted basis as rational rows."""
        return tuple(tuple(Fraction(a * c, b) for c in row)
                     for (a, b), row in zip(self.scales, self.rows))

    @cached_property
    def closure_support(self) -> tuple[tuple[int, int, int], ...] | None:
        """Every (i, j, k) with a nonzero coefficient of b_k in [b_i, b_j],
        in (i, j, k) order (the ``_triples`` of the algebra in the basis
        ``basis_matrix``), or None when some [b_i, b_j] has two targets.

        Under the distinct degrees the search tests, two targets k1 != k2
        need two offsets d_i + d_j - d_k, so a None support closes under
        none of them.  A nonzero integer bracket [rows_i, rows_j] is matched
        to its one target by ``_ray``, with no inverse of the rows; scaling
        by nonzero rationals changes no ray.  Computed on first use, cached.
        """
        n = self.alg.dim
        _, index = self.alg.integer_index
        targets = {_ray(row): k for k, row in enumerate(self.rows)}
        columns = [right_columns(index, n, x) for x in self.rows]
        triples = []
        for i, u in enumerate(self.rows):
            for j in range(n):
                w = right_image(columns[j], u)
                if any(w):
                    k = targets.get(_ray(w))
                    if k is None:
                        return None
                    triples.append((i, j, k))
        return tuple(triples)


def _ray(v: tuple[int, ...]) -> tuple[int, ...]:
    """v over its content, first nonzero entry positive: the same for two
    nonzero integer vectors exactly when they are proportional."""
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(c // g for c in v)


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


def _close_adapted_basis(alg: Algebra, sample_index: int, generators,
                         unknowns: int) -> AdaptedBasisSample | None:
    """Bracket-close the integer generators, tracking symbolic degrees.

    Returns the closed sample, or None when the closure does not span
    (degenerate draw).  Brackets are taken on the algebra's
    ``integer_index``, which gives D times the bracket, and each new row is
    divided by its content g; its scale is that of its factors times g / D.
    The same vectors up to scale therefore enter in the order a ``Fraction``
    closure would add them.
    """
    n = alg.dim
    den, index = alg.integer_index
    rows = list(generators)
    scales = [(1, 1 if sample_index == 0 else DRAW_SCALE)] * len(rows)
    forms = [tuple(int(s == t) for s in range(unknowns + 1))
             for t in range(unknowns + 1)]
    space = RowSpace(n)
    for v in rows:
        if not space.add(v):
            return None  # generators already dependent
    columns: dict[int, list] = {}  # j -> right_columns of rows[j], on first use
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
                    cols = columns[j] = right_columns(index, n, rows[j])
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
            return None  # closure stalls below full rank
        done = size
    return AdaptedBasisSample(alg, sample_index, tuple(rows), tuple(scales),
                              tuple(forms))


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
                         roles: GeneratorRoles | None = None) -> GradationReport:
    """Adapted-basis maximum-length search following the extension scheme.

    The chain driver gets degree k_s = 1 (k_s = -1 is the same under
    negation of all degrees).  That is an assumption, not without loss:
    M4(8,4,1) has x1 of degree 2 and y1 of degree 1, so the catalog roles
    (driver x1) find nothing and ``roles=None`` (driver y1) finds it.  Every
    other generator gets an unknown integer degree enumerated over
    [-2n, 2n], which the report records as ``"kt_window": 2n``.  Sample 0
    uses the plain generators, ``samples`` further draws generic rational
    coefficients against degeneration.  Witnesses are reported in the
    adapted basis with its change of basis, lowest unknown tuple first.

    The draws, the closures and every closure check run on Python ints
    (see ``AdaptedBasisSample``).  Only the sample that closes gets its
    rational adapted algebra, and the witness is reported only if
    ``verify_gradation`` confirms it there; ``checks`` come from that
    verification.  The report counts the tuples that failed by reason,
    gives the lowest per reason, and lists each one's reason; with more than
    one unknown and over 1000 failed, only the first 200 are listed.
    """
    n = alg.dim
    kt_window = 2 * n
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise InvalidInputError(f"samples must be an integer, got {samples!r}")
    if samples < 0:
        raise InvalidInputError(f"need samples >= 0, got samples={samples}")
    l2 = lower_central_series(alg).derived_subalgebra
    gen_indices = tuple(i for i in range(n) if i not in set(l2.pivots))
    if roles is None:
        role_choices = [GeneratorRoles(driver=g,
                                       others=tuple(h for h in gen_indices
                                                    if h != g))
                        for g in gen_indices]
    else:
        if roles.driver in roles.others or len(set(roles.others)) != len(roles.others):
            raise InvalidInputError("generator roles overlap")
        indices = (roles.driver, *roles.others, *(roles.extra_draw or ()))
        if not all(type(i) is int and 0 <= i < n for i in indices):
            raise InvalidInputError(f"generator roles must lie in range({n}): {roles}")
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
    for sample_index in range(samples + 1):
        for choice in role_choices:
            generators = _draw_generators(alg, choice, rng, plain=(sample_index == 0))
            sample = _close_adapted_basis(alg, sample_index, generators, unknowns)
            if sample is not None:
                built.append(sample)
    if not built:
        raise DegenerateSampleError(
            "every generator sample produced a singular basis change; "
            "re-seed or adjust the generator roles")

    # Group samples whose symbolic degree forms coincide: the degree-set
    # checks depend only on the forms, closure is per-sample.  Groups keep
    # build order so the plain sample drives the recorded reasons.
    groups: dict[tuple, list[AdaptedBasisSample]] = {}
    for sample in built:
        groups.setdefault(sample.forms, []).append(sample)

    # Enumeration is ascending, so a reason's first tuple is its lowest; a
    # report with more than one unknown lists at most the first 1000.
    reason_counts = dict.fromkeys(
        sorted((REASON_CLOSURE, REASON_COLLISION, REASON_DISCONNECTED)), 0)
    exemplars: dict[str, list[int]] = {}
    listed: list[tuple[tuple[int, ...], str]] = []
    found = None
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
            if reason is None:
                found = next((sample for sample in members
                              if sample.closure_support is not None
                              and _closure_offset(sample.closure_support, degs)[0]),
                             None)
                if found is not None:
                    break
                reason = REASON_CLOSURE
            if verdict_reason is None:
                verdict_reason = reason
        if found is not None:
            break
        reason_counts[verdict_reason] += 1
        exemplars.setdefault(verdict_reason, list(kts))
        if unknowns == 1 or len(listed) < 1000:
            listed.append((kts, verdict_reason))

    tried = sum(reason_counts.values())
    names = ["k_t"] if unknowns == 1 else [f"k_{t + 1}" for t in range(unknowns)]
    search = {"strategy": "two_generator_adapted_basis", "kt_window": kt_window,
              "samples": samples, "seed": seed, "unknowns": names,
              "degenerate_samples": (samples + 1) * len(role_choices) - len(built),
              "reason_counts": reason_counts,
              "reason_exemplars": dict(sorted(exemplars.items()))}
    if unknowns > 1 and tried > 1000:
        search["reasons_by_kt_truncated"] = tried
        listed = listed[:200]
    search["reasons_by_kt"] = {",".join(map(str, k)): r for k, r in listed}
    if found is None:
        search["note"] = SCHEME_NOTE
        return GradationReport(NO_GRADATION_FOUND, search=search)

    # degs holds the degrees of the group that closed
    witness = DegreeAssignment(dict(enumerate(degs)))
    labels = _adapted_labels(alg, found.rows)
    report = verify_gradation(change_of_basis(alg, found.basis_matrix, labels), witness)
    if not report.is_maximum_length:
        raise RuntimeError(
            f"integer closure support of sample {found.sample_index} accepts "
            f"degrees {degs}, which the rational adapted algebra refutes")
    search.update(witness_at=list(kts), sample_index=found.sample_index,
                  plain_sample=found.sample_index == 0,
                  adapted_basis_labels=list(labels),
                  adapted_basis_matrix=_matrix_strings(found.basis_matrix))
    return GradationReport(MAXIMUM_LENGTH, witness=witness, checks=report.checks,
                           search=search)


def _matrix_strings(matrix: tuple[Vector, ...]) -> list[list[str]]:
    return [[str(Fraction(c)) for c in row] for row in matrix]
