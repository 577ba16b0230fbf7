"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every assertion is an equality or a strict
property; the only tolerances are the stated runtime budgets.
"""

import random
import time
from contextlib import contextmanager

from nilalg import (
    FamilySpec,
    characteristic_sequence,
    check_leibniz,
    diagonal_search,
    generator_roles,
    graded_fingerprint,
    is_p_filiform,
    lower_central_series,
    make,
    natural_gradation,
    nilpotent_block_profile,
    known_witness,
    two_generator_search,
    verify_gradation,
)
from nilalg.cli import run_pipeline

from oracles import (
    conjugated_nilpotent,
    identity,
    mat_mul,
    negated,
    random_nilpotent_algebra,
    random_partition,
    rank,
    shifted,
)


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {cid} ({description}): PASS")


def test_criterion_1_leibniz_suite(grid_algebras):
    with criterion("1", "Leibniz identity on the full instance grid"):
        start = time.time()
        for spec, alg in grid_algebras.items():
            report = check_leibniz(alg)
            if spec.family in ("TAU_NP1", "TAU_NP2") and not report.ok:
                # a tau failure is acceptable only with a pinpointed triple
                assert report.violations and report.violations[0].triple
            else:
                assert report.ok, f"{spec.name()}: {report.violations[:10]}"
        elapsed = time.time() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_p_filiformity(grid_algebras):
    with criterion("2", "characteristic sequence (n-p, 1, ..., 1)"):
        start = time.time()
        for spec, alg in grid_algebras.items():
            assert is_p_filiform(alg, spec.p), spec.name()
            expected = (spec.n - spec.p,) + (1,) * spec.p
            assert characteristic_sequence(alg) == expected, spec.name()
        elapsed = time.time() - start
        assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_3_theorem_33_positives():
    with criterion("3", "explicit witnesses verify at maximum length"):
        cases = [FamilySpec("M4", 10, 4, (), 0), FamilySpec("M4", 12, 4, (), 0),
                 FamilySpec("M4", 12, 6, (), 1), FamilySpec("M4", 16, 8, (), 1),
                 FamilySpec("M5", 10, 4), FamilySpec("M5", 12, 6)]
        start = time.time()
        for spec in cases:
            alg = make(spec)
            witness = known_witness(spec)
            assert witness is not None, spec.name()
            report = verify_gradation(alg, witness)
            assert report.is_maximum_length, spec.name()
            degrees = sorted(witness.degrees.values())
            assert len(set(degrees)) == spec.n, spec.name()
            assert degrees == list(range(degrees[0], degrees[0] + spec.n)), \
                spec.name()
        elapsed = time.time() - start
        assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_4_negative_searches():
    with criterion("4", "no maximum-length gradation for L/Q/tau/M3"):
        cases = [FamilySpec("L", 12, 4, (3, 5, 7)),
                 FamilySpec("Q", 15, 4, (3, 5, 7)),
                 FamilySpec("TAU_NP1", 12, 4, (3, 5)),
                 FamilySpec("M3", 9, 5)]
        start = time.time()
        for spec in cases:
            report = two_generator_search(make(spec), samples=3,
                                          roles=generator_roles(spec))
            assert report.verdict == "no_gradation_found", spec.name()
            counts = report.search["reason_counts"]
            assert counts["degree collision"] >= 1, spec.name()
            assert counts["disconnected"] >= 1, spec.name()
        elapsed = time.time() - start
        assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"


def _kernel_dims_by_powers(m):
    """Brute-force oracle: nullity of each explicit power via elimination."""
    n = len(m)
    dims = []
    power = identity(n)
    while True:
        power = mat_mul(power, m)
        dims.append(n - rank(power, n))
        if dims[-1] == n:
            return dims
        if len(dims) > n:
            raise AssertionError("matrix is not nilpotent")


def _profile_from_kernel_dims(dims):
    dims = [0] + dims
    at_least = [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    profile = []
    for k in range(1, len(at_least) + 1):
        bigger = at_least[k] if k < len(at_least) else 0
        profile.extend([k] * (at_least[k - 1] - bigger))
    return tuple(sorted(profile, reverse=True))


def test_criterion_5_oracle_equivalence():
    with criterion("5", "search agreement and Jordan-profile oracle"):
        for seed in (101, 202):
            rng = random.Random(seed)
            for _ in range(20):
                alg = random_nilpotent_algebra(rng, rng.randint(3, 6))
                lower_central_series(alg)  # nilpotent by construction
                diag = diagonal_search(alg)
                two = two_generator_search(alg, samples=2)
                assert diag.verdict == two.verdict, (seed, alg.brackets)
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(1, 8)
            part = random_partition(rng, n)
            m = conjugated_nilpotent(rng, part)
            profile = nilpotent_block_profile(m)
            oracle = _profile_from_kernel_dims(_kernel_dims_by_powers(m))
            assert profile == oracle == part


def test_criterion_6_natural_gradation_self_consistency(grid_algebras):
    with criterion("6", "gr(M^i) reproduces the fingerprint of M^i"):
        for spec, alg in grid_algebras.items():
            if not spec.family.startswith("M"):
                continue
            nat = natural_gradation(alg)
            assert graded_fingerprint(nat.graded_algebra) \
                == graded_fingerprint(alg), spec.name()
        m1 = grid_algebras[FamilySpec("M1", 8, 4)]
        m3 = grid_algebras[FamilySpec("M3", 9, 5)]
        assert natural_gradation(m1).component_dims == (3, 3, 1, 1)
        assert natural_gradation(m3).component_dims == (4, 3, 1, 1)


def test_criterion_7_determinism_and_invariance():
    with criterion("7", "byte-identical reports; shift/negation re-verify"):
        import json
        code_a, report_a = run_pipeline("thm33", seed=20260)
        code_b, report_b = run_pipeline("thm33", seed=20260)
        assert code_a == code_b == 0
        bytes_a = json.dumps(report_a, indent=2, sort_keys=True).encode()
        bytes_b = json.dumps(report_b, indent=2, sort_keys=True).encode()
        assert bytes_a == bytes_b
        # gradation invariance suite over every explicit witness
        witness_specs = [FamilySpec("M4", 10, 4, (), 0),
                         FamilySpec("M4", 12, 6, (), 1),
                         FamilySpec("M4", 16, 8, (), 1),
                         FamilySpec("M5", 10, 4), FamilySpec("M5", 12, 6)]
        for spec in witness_specs:
            alg = make(spec)
            witness = known_witness(spec)
            assert verify_gradation(alg, witness).is_maximum_length
            for shift in (-7, -1, 1, 4, 30):
                assert verify_gradation(alg, shifted(witness, shift)).is_maximum_length, \
                    f"{spec.name()} shift {shift}"
            assert verify_gradation(alg, negated(witness)).is_maximum_length, spec.name()
            assert verify_gradation(
                alg, shifted(negated(witness), 3)).is_maximum_length, spec.name()
