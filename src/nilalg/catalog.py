"""Constructors for the classified algebra families.

Families L, Q and the two tau variants are the naturally graded p-filiform
Lie algebras on the basis {x_0, ..., x_{n-p}, y_1, ..., y_{p-1}}; their
classification tables list one orientation of each product and the constructors
synthesize the antisymmetric counterparts.  Families M1-M3 are the
naturally graded p-filiform non-Lie Leibniz algebras on {e_i, f_j}, and
M4(alpha)/M5 are the maximum-length algebras on {x_i, y_j, z_j}.

Omitted products are zero throughout.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .core import MAX_DIM, Algebra, Record, check_object, load_json
from .errors import InvalidInputError
from .gradations import DegreeAssignment, GeneratorRoles

_HYPOTHESES = {
    "L": "p > 1, n >= max(3p-1, p+8), r = (r_1 < ... < r_{p-1}) odd in [3, n-p]",
    "Q": "as L, and n-p odd",
    "TAU_NP1": "as L with r_{p-1} fixed to n-p-1 (so n-p even); pass r_1..r_{p-2}",
    "TAU_NP2": "as L with r_{p-1} fixed to n-p-2 (so n-p odd); pass r_1..r_{p-2}",
    "M1": "p even >= 2, n-p >= 4",
    "M2": "p even >= 2, n-p >= 4",
    "M3": "p odd >= 1, n-p >= 4",
    "M4": "p even >= 4, n-p >= 4, alpha in {0,1}; alpha=1 needs n even and (n-p) | n",
    "M5": "p even >= 4, n-p >= 4",
}
FAMILIES = tuple(_HYPOTHESES)
_LIE_FAMILIES = ("L", "Q", "TAU_NP1", "TAU_NP2")


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


class FamilySpec(Record):
    """Parameter record selecting one catalog constructor.

    A ``FamilySpec`` that exists meets every hypothesis of its family:
    construction (``from_dict`` and ``from_json`` included) raises
    InvalidInputError naming the first field of the wrong type or the
    first hypothesis the parameters violate.
    """

    _fields = ("family", "n", "p", "r", "alpha")

    def __init__(self, family: str, n: int, p: int, r: tuple[int, ...] = (),
                 alpha: int | None = None):
        """Refuse a field of the wrong type, bools included (JSON ``true``
        loads as an int), then a violated hypothesis; a list ``r`` is kept
        as a tuple."""
        if family not in FAMILIES:
            raise InvalidInputError(
                f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
        for key, value in (("n", n), ("p", p)):
            if not _is_int(value):
                raise InvalidInputError(f"family spec {key!r} must be an integer")
        if not (isinstance(r, (tuple, list)) and all(map(_is_int, r))):
            raise InvalidInputError("family spec 'r' must be a list of integers")
        if alpha is not None and not _is_int(alpha):
            raise InvalidInputError("family spec 'alpha' must be an integer or null")
        self.__dict__.update(family=family, n=n, p=p, r=tuple(r), alpha=alpha)
        _validate(self)

    def name(self) -> str:
        parts = [str(self.n), str(self.p)]
        if self.r:
            parts.append("(" + ",".join(map(str, self.r)) + ")")
        if self.family == "M4":
            parts.append(f"alpha={self.alpha}")
        return f"{self.family}({', '.join(parts)})"

    def to_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "p": self.p,
                "r": list(self.r) if self.r else None, "alpha": self.alpha}

    @staticmethod
    def from_dict(data: dict) -> "FamilySpec":
        check_object(data, FamilySpec._fields, "family spec JSON")
        if "family" not in data:
            raise InvalidInputError("family spec JSON must be an object with 'family'")
        r = data.get("r")
        return FamilySpec(data["family"], data.get("n"), data.get("p"),
                          () if r is None else r, data.get("alpha"))

    @staticmethod
    def from_json(text: str) -> "FamilySpec":
        return FamilySpec.from_dict(load_json(text))


def list_families() -> dict[str, str]:
    """Family name -> parameter hypotheses, for the CLI listing."""
    return dict(_HYPOTHESES)


# -- validation ----------------------------------------------------------

def _validate(spec: FamilySpec):
    """Raise InvalidInputError on n > MAX_DIM or naming the first hypothesis
    ``spec`` violates."""
    if spec.n > MAX_DIM:
        raise InvalidInputError(
            f"{spec.name()}: n = {spec.n} is over the limit of {MAX_DIM}")
    if spec.family in _LIE_FAMILIES:
        _validate_lie(spec, full_r(spec))
        if spec.family == "Q" and (spec.n - spec.p) % 2 == 0:
            _fail(spec, "n-p odd (required by the Q table)")
    else:
        _validate_m(spec)


def _fail(spec: FamilySpec, hypothesis: str):
    raise InvalidInputError(f"{spec.name()}: violated hypothesis: {hypothesis}")


def _validate_lie(spec: FamilySpec, r_full: tuple[int, ...]):
    n, p = spec.n, spec.p
    if p <= 1:
        _fail(spec, "p > 1")
    if n < max(3 * p - 1, p + 8):
        _fail(spec, f"n >= max(3p-1, p+8) = {max(3 * p - 1, p + 8)}")
    if len(r_full) != p - 1:
        _fail(spec, f"exactly p-1 = {p - 1} parameters r_j (got {len(r_full)})")
    if any(v % 2 == 0 for v in r_full):
        _fail(spec, "all r_j odd")
    if any(a >= b for a, b in zip(r_full, r_full[1:])):
        _fail(spec, "r_1 < r_2 < ... strictly increasing")
    if r_full and (r_full[0] < 3 or r_full[-1] > n - p):
        _fail(spec, "3 <= r_1 and r_{p-1} <= n-p")
    if spec.alpha is not None:
        _fail(spec, "alpha applies only to M4")


def _validate_m(spec: FamilySpec):
    n, p = spec.n, spec.p
    if spec.r:
        _fail(spec, "r parameters apply only to L/Q/tau")
    if n - p < 4:
        _fail(spec, "n-p >= 4")
    if spec.family in ("M1", "M2", "M4", "M5") and p % 2 != 0:
        _fail(spec, "p even")
    if spec.family == "M3" and p % 2 == 0:
        _fail(spec, "p odd")
    least = {"M1": 2, "M2": 2, "M3": 1}.get(spec.family, 4)
    if p < least:
        _fail(spec, f"p >= {least}")
    if spec.family == "M4":
        if spec.alpha not in (0, 1):
            _fail(spec, "alpha in {0, 1}")
        if spec.alpha == 1:
            if n % 2 != 0:
                _fail(spec, "n even (required by M4(1))")
            if n % (n - p) != 0:
                _fail(spec, "(n-p) divides n (required by M4(1))")
    elif spec.alpha is not None:
        _fail(spec, "alpha applies only to M4")


# -- Lie-family construction ----------------------------------------------

def _lie_labels(n: int, p: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n - p + 1)) + \
        tuple(f"y{j}" for j in range(1, p))


def _build_lie(spec: FamilySpec, r_full: tuple[int, ...]) -> Algebra:
    """Common builder: chain + the products attached to each pair sum.

    Pair products are emitted for both orientations at once via formulas
    that are antisymmetric in the index, so the table is closed under
    [b, a] = -[a, b] exactly as the theorems use it.
    """
    n, p = spec.n, spec.p
    m = n - p  # top chain index
    one = Fraction(1)
    x = lambda i: i          # basis index of x_i
    y = lambda j: m + j      # basis index of y_j
    products: dict[tuple[int, int], list] = defaultdict(list)

    def put(i: int, j: int, k: int, coeff: Fraction):
        if coeff:
            products[(i, j)].append((k, coeff))

    # chain [x_0, x_i] = x_{i+1} and its antisymmetric mirror
    for i in range(1, m):
        put(x(0), x(i), x(i + 1), one)
        put(x(i), x(0), x(i + 1), -one)

    # [x_a, x_{r_j - a}] = (-1)^(a-1) y_j; r_j odd makes this antisymmetric
    for j, rj in enumerate(r_full, start=1):
        if spec.family in ("TAU_NP1", "TAU_NP2") and j == p - 1:
            continue  # the fixed last parameter gets its own products below
        for a in range(1, rj):
            b = rj - a
            if 1 <= b <= m:
                put(x(a), x(b), y(j), Fraction((-1) ** (a - 1)))

    if spec.family == "Q":
        # [x_a, x_{n-p-a}] = (-1)^(a-1) x_{n-p}; n-p odd keeps it antisymmetric
        for a in range(1, m):
            put(x(a), x(m - a), x(m), Fraction((-1) ** (a - 1)))

    if spec.family == "TAU_NP1":
        # pair sum n-p-1 (odd): (-1)^(a-1) (x_{n-p-1} + y_{p-1})
        for a in range(1, m - 1):
            sign = Fraction((-1) ** (a - 1))
            put(x(a), x(m - 1 - a), x(m - 1), sign)
            put(x(a), x(m - 1 - a), y(p - 1), sign)
        # pair sum n-p (even): coefficient (n-2a-p)/2, antisymmetric in a
        for a in range(1, m):
            coeff = Fraction((-1) ** (a - 1)) * Fraction(n - 2 * a - p, 2)
            put(x(a), x(m - a), x(m), coeff)
        c = Fraction(p + 2 - n, 2)
        put(x(1), y(p - 1), x(m), c)
        put(y(p - 1), x(1), x(m), -c)

    if spec.family == "TAU_NP2":
        # pair sum n-p-2 (odd): (-1)^(a-1) (x_{n-p-2} + y_{p-1})
        for a in range(1, m - 2):
            sign = Fraction((-1) ** (a - 1))
            put(x(a), x(m - 2 - a), x(m - 2), sign)
            put(x(a), x(m - 2 - a), y(p - 1), sign)
        # pair sum n-p-1 (even): coefficient (n-p-1-2a)/2
        for a in range(1, m - 1):
            coeff = Fraction((-1) ** (a - 1)) * Fraction(n - p - 1 - 2 * a, 2)
            put(x(a), x(m - 1 - a), x(m - 1), coeff)
        # pair sum n-p (odd): coefficient (-1)^a (a-1)(n-p-1-a)/2
        for a in range(1, m):
            coeff = Fraction((-1) ** a) * Fraction((a - 1) * (n - p - 1 - a), 2)
            put(x(a), x(m - a), x(m), coeff)
        c = Fraction(p + 3 - n, 2)
        for i in (1, 2):
            put(x(i), y(p - 1), x(m - 2 + i), c)
            put(y(p - 1), x(i), x(m - 2 + i), -c)

    return Algebra.from_products(n, _lie_labels(n, p), dict(products))


# -- Leibniz-family construction ------------------------------------------

def _ef_labels(n: int, p: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, n - p + 1)) + \
        tuple(f"f{j}" for j in range(1, p + 1))


def _xyz_labels(n: int, p: int) -> tuple[str, ...]:
    half = p // 2
    return tuple(f"x{i}" for i in range(1, n - p + 1)) + \
        tuple(f"y{j}" for j in range(1, half + 1)) + \
        tuple(f"z{j}" for j in range(1, half + 1))


def _build_m(spec: FamilySpec) -> Algebra:
    n, p = spec.n, spec.p
    m = n - p
    one = Fraction(1)
    products: dict[tuple[int, int], list] = defaultdict(list)

    if spec.family in ("M1", "M2", "M3"):
        e = lambda i: i - 1
        f = lambda j: m + j - 1
        for i in range(1, m):
            products[(e(i), e(1))].append((e(i + 1), one))
        if spec.family == "M1":
            for j in range(1, p // 2 + 1):
                products[(e(1), f(j))].append((f(p // 2 + j), one))
        elif spec.family == "M2":
            products[(e(1), f(1))].append((e(2), one))
            products[(e(1), f(1))].append((f(p // 2 + 1), one))
            # a naive range from i = 1 would redefine [e_1, f_1];
            # the identity forces it to start at i = 2
            for i in range(2, m):
                products[(e(i), f(1))].append((e(i + 1), one))
            for j in range(2, p // 2 + 1):
                products[(e(1), f(j))].append((f(p // 2 + j), one))
        else:  # M3
            q = p // 2
            # targets are the degree-two generators f_{q+2}, ..., f_p
            for j in range(1, q + 1):
                products[(e(1), f(j))].append((f(q + 1 + j), one))
            for i in range(1, m):
                products[(e(i), f(q + 1))].append((e(i + 1), one))
        return Algebra.from_products(n, _ef_labels(n, p), dict(products))

    # M4 / M5 on x, y, z labels
    half = p // 2
    xi = lambda i: i - 1
    yj = lambda j: m + j - 1
    zj = lambda j: m + half + j - 1
    for i in range(1, m):
        products[(xi(i), xi(1))].append((xi(i + 1), one))
    for j in range(1, half + 1):
        products[(xi(1), yj(j))].append((zj(j), one))
    if spec.family == "M4" and spec.alpha == 1:
        products[(zj(1), yj(2))].append((xi(m), one))
        products[(zj(2), yj(1))].append((xi(m), one))
    if spec.family == "M5":
        products[(yj(1), yj(2))].append((xi(m), one))
    return Algebra.from_products(n, _xyz_labels(n, p), dict(products))


# -- public API ------------------------------------------------------------

def full_r(spec: FamilySpec) -> tuple[int, ...]:
    """The complete r tuple, with the fixed last parameter for tau variants."""
    if spec.family == "TAU_NP1":
        return spec.r + (spec.n - spec.p - 1,)
    if spec.family == "TAU_NP2":
        return spec.r + (spec.n - spec.p - 2,)
    return spec.r


def make(spec: FamilySpec) -> Algebra:
    """Build the algebra selected by ``spec``, whose hypotheses were
    checked when it was built."""
    if spec.family in _LIE_FAMILIES:
        return _build_lie(spec, full_r(spec))
    return _build_m(spec)


def known_witness(spec: FamilySpec) -> DegreeAssignment | None:
    """The explicit maximum-length degree table of the family, where one exists.

    Returns None for families proved to admit no maximum-length gradation
    (L, Q, tau, M3) and for M1/M2, whose extensions are covered by M4/M5.
    ``spec`` met its hypotheses when it was built, so nothing is re-checked.
    """
    n, p = spec.n, spec.p
    m = n - p
    if spec.family == "M4":
        if spec.alpha == 1:
            return _m4_1_witness(n, p)
        degrees = {i - 1: i for i in range(1, m + 1)}
        for j in range(1, p // 2 + 1):
            degrees[m + j - 1] = m + 2 * j - 1          # y_j
            degrees[m + p // 2 + j - 1] = m + 2 * j     # z_j
        return DegreeAssignment(degrees)
    if spec.family == "M5":
        degrees = {i - 1: i for i in range(1, m + 1)}
        degrees[m] = -1                                  # y_1
        degrees[m + p // 2] = 0                          # z_1
        for j in range(2, p // 2 + 1):
            degrees[m + j - 1] = m + 2 * j - 3           # y_j
            degrees[m + p // 2 + j - 1] = m + 2 * j - 2  # z_j
        return DegreeAssignment(degrees)
    return None


def _m4_1_witness(n: int, p: int) -> DegreeAssignment:
    """The explicit degree table for M4(1): x_i in V_{i k}, k = n/(n-p).

    Indices follow the catalog ordering x_1..x_{n-p}, y_1..y_{p/2},
    z_1..z_{p/2}.  The spec's hypotheses give p even >= 4, n-p >= 4, n even
    and (n-p) | n; the length check guards the formula, not the input.
    """
    m = n - p
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


def generator_roles(spec: FamilySpec) -> GeneratorRoles:
    """Generator layout for the adapted-basis search, per family.  The
    driver, basis index 0, gets degree one there, which loses M4(8,4,1):
    its witness gives x1 degree n/(n-p) = 2 (see ``two_generator_search``)."""
    n, p = spec.n, spec.p
    m = n - p
    if spec.family in _LIE_FAMILIES:
        return GeneratorRoles(driver=0, others=(1,), extra_draw=None)
    if spec.family == "M3":
        q = p // 2
        return GeneratorRoles(driver=0, others=tuple(m + j for j in range(q + 1)),
                              extra_draw=tuple(range(m)))
    return GeneratorRoles(driver=0, others=tuple(m + j for j in range(p // 2)),
                          extra_draw=tuple(range(m)))
