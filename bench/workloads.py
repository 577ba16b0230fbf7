"""The benchmark's three workloads: inputs, operations and correctness checks.

An operation ("op") takes one algebra to its verdict.  Each workload builder
turns a seeded ``random.Random`` into a list of :class:`Op`; building it is
the set-up the harness times (input generation and parsing).  An op has three
parts:

* ``run()`` is the timed call into ``nilalg``;
* ``digest(raw)`` renders its result as text that must repeat in every round;
* ``check(raw)`` compares the result with a known answer, once, untimed.

Every call into the library goes through attributes of the ``nl`` package
object (``nl.make``, ``nl.cli.run_pipeline``), so the traced run, which
patches those attributes, sees every call.

``check`` returns None when the op passed, else ``(kind, detail)`` where
kind is one of:

* ``"unexpected"`` - the library answered, but not with the known answer:
  a theorem verdict other than the paper's, an adapted-basis search that
  misses a positive the diagonal search found, a p-filiform algebra not
  recognised as one.  Nothing it returned is shown wrong.
* ``"wrong"`` - an output is shown wrong: a witness that does not re-verify,
  or an isomorphism invariant that changed under a change of basis.

An op that raises fails with kind ``"error"``; the harness adds that kind and
``"nondeterministic"`` (a digest that differs between rounds) itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from inputs import balanced_draw, random_nilpotent_products, sparse_basis_change, valid_specs

MAXIMUM_LENGTH = "maximum_length"
NO_GRADATION_FOUND = "no_gradation_found"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], tuple[str, str] | None]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _reverify(nl, alg, gradation: dict) -> bool:
    """Re-check a reported maximum-length witness as ``grade verify`` would.

    Diagonal witnesses are verified in the given basis; adapted-basis
    witnesses against the adapted basis rebuilt from the report.
    """
    degrees = gradation["witness"].get("degrees_by_index")
    if degrees is None:  # catalog witness, keyed by label
        witness = nl.DegreeAssignment.from_dict(gradation["witness"], alg)
    else:
        witness = nl.DegreeAssignment({int(i): d for i, d in degrees.items()})
    search = gradation.get("search") or {}
    if "adapted_basis_matrix" in search:
        matrix = [[Fraction(c) for c in row] for row in search["adapted_basis_matrix"]]
        alg = nl.change_of_basis(alg, matrix, search["adapted_basis_labels"])
    return nl.verify_gradation(alg, witness).is_maximum_length


# -- theorems ------------------------------------------------------------------

# (family, alpha, theorem, verdict the paper proves, n_max, ops per round).
# The Lie families of thm31/thm32 (L, Q, TAU_NP1, TAU_NP2) need n >= 10, and
# one such op takes 0.2-0.6 s: with them a round lasts so long that too few
# rounds fit in a run to time any op steadily on a noisy host, so they are
# left out.  The same code paths run on the M3 negatives.  Every family is
# taken at its smallest admissible sizes (25-60 ms an op): n = 9 ops take
# 70-100 ms and their best over the rounds moved by a third between copies
# in one run, where the shorter ops moved by a tenth.  The 18 M4/M5 ops and
# the 6 M3(6,1) ops all take about 50 ms and the 6 M3(5,1) ops about 25 ms,
# so the median lies inside one group of like ops, not at the edge between
# two groups of different size, where it jumps with a single slow op.
THEOREM_STRATA = (
    ("M3", None, "thm34", NO_GRADATION_FOUND, 6, 12),
    ("M4", 0, "thm33", MAXIMUM_LENGTH, 8, 6),
    ("M4", 1, "thm33", MAXIMUM_LENGTH, 8, 6),
    ("M5", None, "thm33", MAXIMUM_LENGTH, 8, 6),
)


def build_theorems(nl, rng: random.Random, scale: float = 1.0) -> list[Op]:
    """``run_pipeline(thm, grid=[spec])`` plus the CLI's JSON rendering."""
    ops = []
    for family, alpha, theorem, expected, n_max, count in THEOREM_STRATA:
        pool = valid_specs(family, n_max, alpha=alpha)
        for data in balanced_draw(rng, pool, _scaled(count, scale)):
            spec = nl.FamilySpec.from_json(json.dumps(data))
            ops.append(_theorem_op(nl, theorem, expected, spec))
    return ops


def _theorem_op(nl, theorem: str, expected: str, spec) -> Op:
    def run() -> str:
        _, report = nl.cli.run_pipeline(theorem, grid=[spec])
        return json.dumps(report, indent=2, sort_keys=True)

    def check(text: str):
        record = json.loads(text)["instances"][0]
        if record["verdict"] == MAXIMUM_LENGTH and not _reverify(
                nl, nl.make(spec), record["gradation"]):
            return "wrong", "reported witness does not re-verify"
        if not record["leibniz_ok"]:
            return "unexpected", "Leibniz identity reported violated"
        if not record["p_filiform"]:
            return "unexpected", "not recognised as p-filiform"
        if record["verdict"] != expected:
            return "unexpected", f"{theorem} proves {expected}, got {record['verdict']}"
        return None

    return Op(f"{theorem} {spec.name()}", run, lambda text: text, check)


# -- dense_invariants -----------------------------------------------------------

# (family, alpha, n_max, ops per round)
DENSE_STRATA = (
    ("L", None, 11, 1),
    ("Q", None, 11, 1),
    ("TAU_NP1", None, 11, 1),
    ("TAU_NP2", None, 11, 1),
    ("M3", None, 8, 6),
    ("M4", 0, 9, 6),
    ("M4", 1, 12, 4),
    ("M5", None, 9, 6),
)


def build_dense_invariants(nl, rng: random.Random, scale: float = 1.0) -> list[Op]:
    """Catalog algebras under a sparse random change of basis, as JSON text.

    The known answers are isomorphism invariants of the algebra as built:
    the Leibniz identity holds, the lower central series has the dims of the
    unconjugated algebra, the natural gradation's components have the
    consecutive differences of those dims, and the algebra is p-filiform.
    """
    ops = []
    for family, alpha, n_max, count in DENSE_STRATA:
        pool = valid_specs(family, n_max, alpha=alpha)
        for data in balanced_draw(rng, pool, _scaled(count, scale)):
            spec = nl.FamilySpec.from_dict(data)
            alg = nl.make(spec)
            change = sparse_basis_change(rng, alg.dim, alg.dim // 2)
            text = nl.algebra_to_json(nl.change_of_basis(alg, change))
            dims = nl.lower_central_series(alg).dims
            ops.append(_dense_op(nl, spec, text, dims))
    return ops


def _dense_op(nl, spec, text: str, dims: tuple[int, ...]) -> Op:
    def run():
        alg = nl.algebra_from_json(text)
        leibniz = nl.check_leibniz(alg)
        series = nl.lower_central_series(alg)
        filiform = nl.is_p_filiform(alg, spec.p)
        return leibniz.ok, series.dims, filiform, nl.natural_gradation(alg, series)

    def digest(raw) -> str:
        leibniz_ok, series_dims, filiform, natural = raw
        return json.dumps([leibniz_ok, series_dims, filiform, natural.component_dims,
                           natural.degrees])

    def check(raw):
        leibniz_ok, series_dims, filiform, natural = raw
        if not leibniz_ok:
            return "wrong", "Leibniz identity reported violated"
        if series_dims != dims:
            return "wrong", f"series dims {series_dims}, unconjugated {dims}"
        steps = tuple(a - b for a, b in zip(dims, dims[1:]))
        if natural.component_dims != steps:
            return "wrong", f"natural gradation dims {natural.component_dims}, expected {steps}"
        if not filiform:
            return "unexpected", "not recognised as p-filiform"
        return None

    return Op(f"conjugated {spec.name()}", run, digest, check)


# -- search_small ---------------------------------------------------------------

# dim -> ops per round.  Ops of dim 3 and 4 take 1-4 ms, short enough that
# their best over the rounds repeats from run to run on a busy host.  A dim-7
# op takes 75-115 ms and its best moves with the host's load, so only two
# run: with more, they would set most of verdicts_per_s.  The counts put the
# median inside the dim-4 ops and the tail (ten ops beyond it) near the
# middle of the dim-6 ops, whose times vary with the table drawn, so that
# neither sits where two dims meet.
SEARCH_OPS_PER_DIM = {3: 30, 4: 30, 5: 16, 6: 20, 7: 2}


def build_search_small(nl, rng: random.Random, scale: float = 1.0) -> list[Op]:
    """Random 2-generated nilpotent tables of dims 3-7 through both searches."""
    ops = []
    for dim, count in SEARCH_OPS_PER_DIM.items():
        labels = tuple(f"e{i + 1}" for i in range(dim))
        for index in range(_scaled(count, scale)):
            alg = nl.Algebra.from_products(dim, labels, random_nilpotent_products(rng, dim))
            ops.append(_search_op(nl, f"random dim {dim} #{index}", alg))
    return ops


def _search_op(nl, label: str, alg) -> Op:
    def run():
        return nl.diagonal_search(alg), nl.two_generator_search(alg, samples=2)

    def digest(raw) -> str:
        return json.dumps([report.to_dict() for report in raw], sort_keys=True)

    def check(raw):
        diagonal, adapted = raw
        for name, report in (("diagonal", diagonal), ("adapted-basis", adapted)):
            if report.is_maximum_length and not _reverify(nl, alg, report.to_dict()):
                return "wrong", f"{name} witness does not re-verify"
        if diagonal.is_maximum_length and not adapted.is_maximum_length:
            return "unexpected", "adapted-basis search misses a diagonal positive"
        return None

    return Op(label, run, digest, check)


BUILDERS = {
    "theorems": build_theorems,
    "dense_invariants": build_dense_invariants,
    "search_small": build_search_small,
}
