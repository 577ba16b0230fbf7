"""Command-line front end.

Subcommands:

    catalog list                     show the known families and hypotheses
    catalog make ...                 build a catalog algebra as JSON
    invariants <file>                series, nilindex, characteristic sequence
    grade verify <file> --assignment f   check a degree assignment
    grade search <file>              adapted-basis maximum-length search
    grade diagonal <file>            exhaustive small-dimension search
    reproduce --theorem thmNN        re-verify a classification theorem

Exit codes: 0 expectations met, 1 analysis completed with a negative or
mismatching verdict, 2 input or construction error.  Reports are JSON and
deterministic for a fixed seed; NILALG_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .catalog import FamilySpec, generator_roles, list_families, make, known_witness
from .core import (
    Algebra,
    algebra_from_json,
    algebra_to_json,
    check_leibniz,
    is_lie,
    load_json,
)
from .errors import InvalidInputError, NilalgError, NotNilpotentError
from .gradations import (
    DegreeAssignment,
    MAXIMUM_LENGTH,
    NO_GRADATION_FOUND,
    diagonal_search,
    natural_gradation,
    two_generator_search,
    verify_gradation,
)
from .invariants import (
    DEFAULT_SEED,
    characteristic_sequence,
    is_p_filiform,
    lower_central_series,
)

THEOREM_PIPELINES = {
    # theorem id -> (default instance grid, expected gradation verdict)
    "thm31": ([FamilySpec("L", 12, 4, (3, 5, 7)),
               FamilySpec("Q", 15, 4, (3, 5, 7))], NO_GRADATION_FOUND),
    "thm32": ([FamilySpec("TAU_NP1", 12, 4, (3, 5)),
               FamilySpec("TAU_NP2", 13, 4, (3, 5))], NO_GRADATION_FOUND),
    "thm33": ([FamilySpec("M4", 10, 4, (), 0),
               FamilySpec("M4", 12, 6, (), 1),
               FamilySpec("M5", 10, 4)], MAXIMUM_LENGTH),
    "thm34": ([FamilySpec("M3", 9, 5)], NO_GRADATION_FOUND),
}


def _tool_header(seed: int) -> dict:
    return {"tool": {"name": "nilalg", "version": __version__}, "seed": seed}


def _algebra_hash(alg: Algebra) -> str:
    return hashlib.sha256(algebra_to_json(alg).encode()).hexdigest()


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def _spec_from_args(args) -> FamilySpec:
    if args.spec:
        return FamilySpec.from_json(_read_text(args.spec))
    if not args.family or args.n is None or args.p is None:
        raise InvalidInputError("catalog make needs --family, --n and --p (or --spec)")
    r = ()
    if args.r:
        try:
            r = tuple(int(t) for t in args.r.split(","))
        except ValueError:
            raise InvalidInputError("--r must be a comma-separated integer list") from None
    return FamilySpec(args.family, args.n, args.p, r, args.alpha)


# -- subcommand handlers ----------------------------------------------------

def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        for family, hypotheses in list_families().items():
            print(f"{family:9s} {hypotheses}")
        return 0
    spec = _spec_from_args(args)
    alg = make(spec)
    text = algebra_to_json(alg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.witness_out:
        witness = known_witness(spec)
        if witness is None:
            raise InvalidInputError(
                f"{spec.name()} has no known maximum-length witness")
        with open(args.witness_out, "w") as fh:
            json.dump(witness.to_dict(alg), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_invariants(args) -> int:
    alg = algebra_from_json(_read_text(args.file))
    seed = args.seed
    report = _tool_header(seed)
    report["input"] = {"algebra_sha256": _algebra_hash(alg)}
    report["dim"] = alg.dim
    leibniz = check_leibniz(alg)
    report["leibniz"] = {
        "ok": leibniz.ok,
        "violations": [
            {"triple": [alg.basis_labels[t] for t in v.triple],
             "defect": alg.format_vector(v.defect)}
            for v in leibniz.violations[:50]],
    }
    report["is_lie"] = is_lie(alg)
    try:
        series = lower_central_series(alg)
    except NotNilpotentError as exc:
        report["error"] = {"kind": "not_nilpotent", "message": str(exc)}
        _emit(report, args.out)
        return 1
    report["series_dims"] = list(series.dims)
    report["nilindex"] = len(series.dims) - 1
    report["characteristic_sequence"] = list(
        characteristic_sequence(alg, seed=seed, series=series).seq)
    report["natural_gradation_dims"] = list(
        natural_gradation(alg, series).component_dims)
    _emit(report, args.out)
    return 0


def cmd_grade(args) -> int:
    alg = algebra_from_json(_read_text(args.file))
    seed = args.seed
    report = _tool_header(seed)
    report["input"] = {"algebra_sha256": _algebra_hash(alg)}
    report["mode"] = args.grade_cmd
    if args.grade_cmd == "verify":
        if not args.assignment:
            raise InvalidInputError("grade verify needs --assignment FILE")
        assignment = DegreeAssignment.from_json(_read_text(args.assignment), alg)
        result = verify_gradation(alg, assignment)
    elif args.grade_cmd == "search":
        result = two_generator_search(alg, samples=args.samples_search,
                                      seed=seed)
    else:
        result = diagonal_search(alg)
    report["gradation"] = result.to_dict(alg if args.grade_cmd == "verify"
                                         else None)
    if result.is_maximum_length and result.witness is not None:
        labels = (alg.basis_labels if args.grade_cmd != "search"
                  else tuple(result.search["adapted_basis_labels"]))
        report["gradation"]["witness"] = {
            "degrees": {labels[i]: d
                        for i, d in sorted(result.witness.degrees.items())}}
    _emit(report, args.out)
    return 0 if result.is_maximum_length else 1


def run_pipeline(theorem: str, grid: list[FamilySpec] | None = None,
                 seed: int = DEFAULT_SEED) -> tuple[int, dict]:
    """Re-verify one theorem on its instance grid; returns (exit code, report)."""
    if theorem not in THEOREM_PIPELINES:
        raise InvalidInputError(
            f"unknown theorem {theorem!r}; known: {', '.join(THEOREM_PIPELINES)}")
    default_grid, expected = THEOREM_PIPELINES[theorem]
    instances = grid if grid is not None else default_grid
    report = _tool_header(seed)
    report["theorem"] = theorem
    report["expected_verdict"] = expected
    report["instances"] = []
    all_match = True
    first_counterexample = None
    for spec in instances:
        alg = make(spec)
        record: dict = {"family_spec": spec.to_dict(), "name": spec.name(),
                        "algebra_sha256": _algebra_hash(alg)}
        leibniz = check_leibniz(alg)
        record["leibniz_ok"] = leibniz.ok
        if not leibniz.ok:
            v = leibniz.violations[0]
            record["leibniz_violation"] = {
                "triple": [alg.basis_labels[t] for t in v.triple],
                "defect": alg.format_vector(v.defect)}
        series = lower_central_series(alg)
        record["p_filiform"] = is_p_filiform(alg, spec.p, seed=seed,
                                             series=series)
        witness = known_witness(spec)
        if witness is not None:
            result = verify_gradation(alg, witness)
            record["witness_source"] = "catalog"
            record["witness"] = witness.to_dict(alg)
        else:
            result = two_generator_search(alg, seed=seed,
                                          roles=generator_roles(spec),
                                          series=series)
            record["witness_source"] = "search"
        record["gradation"] = result.to_dict(alg if witness is not None else None)
        record["verdict"] = result.verdict
        match = (leibniz.ok and record["p_filiform"]
                 and result.verdict == expected)
        record["match"] = match
        report["instances"].append(record)
        if not match and first_counterexample is None:
            first_counterexample = spec.name()
            all_match = False
    report["all_match"] = all_match
    report["first_counterexample"] = first_counterexample
    return (0 if all_match else 1), report


def cmd_reproduce(args) -> int:
    grid = None
    if args.grid:
        data = load_json(_read_text(args.grid))
        if not isinstance(data, list):
            raise InvalidInputError("grid JSON must be a list of family specs")
        grid = [FamilySpec.from_dict(entry) for entry in data]
    code, report = run_pipeline(args.theorem, grid=grid, seed=args.seed)
    _emit(report, args.out)
    if args.summary:
        for record in report["instances"]:
            mark = "ok" if record["match"] else "MISMATCH"
            print(f"{record['name']:28s} {record['verdict']:22s} {mark}",
                  file=sys.stderr)
    return code


# -- argument parsing ---------------------------------------------------------

def _env_seed() -> int:
    raw = os.environ.get("NILALG_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"NILALG_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilalg",
        description="Exact invariants and maximum-length gradations of "
                    "nilpotent Leibniz algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog constructors")
    cat_sub = cat.add_subparsers(dest="catalog_cmd", required=True)
    cat_sub.add_parser("list", help="list families and hypotheses")
    mk = cat_sub.add_parser("make", help="build a catalog algebra")
    mk.add_argument("--family", choices=sorted(list_families()))
    mk.add_argument("--n", type=int)
    mk.add_argument("--p", type=int)
    mk.add_argument("--r", help="comma-separated odd parameters r_1,r_2,...")
    mk.add_argument("--alpha", type=int, choices=(0, 1))
    mk.add_argument("--spec", help="family spec JSON file (overrides flags)")
    mk.add_argument("-o", "--out", help="write algebra JSON here")
    mk.add_argument("--witness-out", help="write the known witness here")

    inv = sub.add_parser("invariants", help="series, nilindex, characteristic sequence")
    inv.add_argument("file")
    inv.add_argument("--seed", type=int, default=None)
    inv.add_argument("-o", "--out")

    grade = sub.add_parser("grade", help="gradation verification and search")
    grade_sub = grade.add_subparsers(dest="grade_cmd", required=True)
    for name in ("verify", "search", "diagonal"):
        g = grade_sub.add_parser(name)
        g.add_argument("file")
        g.add_argument("--seed", type=int, default=None)
        g.add_argument("-o", "--out")
        if name == "verify":
            g.add_argument("--assignment", help="degree assignment JSON file")
        if name == "search":
            g.add_argument("--samples", dest="samples_search", type=int, default=3)

    rep = sub.add_parser("reproduce", help="re-verify a classification theorem")
    rep.add_argument("--theorem", required=True,
                     choices=sorted(THEOREM_PIPELINES))
    rep.add_argument("--grid", help="JSON list of family specs")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--summary", action="store_true",
                     help="print a plain-text summary to stderr")
    rep.add_argument("-o", "--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and args.command != "catalog":
            args.seed = _env_seed()
        if args.command == "catalog":
            return cmd_catalog(args)
        if args.command == "invariants":
            return cmd_invariants(args)
        if args.command == "grade":
            return cmd_grade(args)
        return cmd_reproduce(args)
    except NotNilpotentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NilalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
