"""The package's records are plain classes that behave as the frozen
dataclasses they replace: repr, equality, hash and the refused assignment
and deletion are checked against the ``@dataclass`` twins in ``oracles``."""

import random
import subprocess
import sys
from dataclasses import fields
from itertools import product
from pathlib import Path

import pytest

import nilalg
import nilalg.core
from nilalg import (
    Algebra,
    FamilySpec,
    GeneratorRoles,
    InvalidInputError,
    bracket,
    check_leibniz,
    diagonal_search,
    generator_roles,
    known_witness,
    make,
    natural_gradation,
    square_ideal,
    two_generator_search,
    verify_gradation,
)
from nilalg.core import CentralSeries, Record
from nilalg.gradations import _close_adapted_basis, _draw_generators

from oracles import RECORD_TWINS, dataclass_twin


def _non_leibniz():
    # [a, a] = b, [b, a] = a: the identity fails at (a, a, a)
    return Algebra.from_products(2, ("a", "b"), {(0, 0): [(1, 1)], (1, 0): [(0, 1)]})


def _samples(spec, alg):
    """Records of every kind built from one catalog spec, with an equal but
    distinct copy of the spec, its roles and its algebra."""
    roles = generator_roles(spec)
    out = [spec, FamilySpec(spec.family, spec.n, spec.p, list(spec.r), spec.alpha),
           alg, make(spec), alg.central_series, check_leibniz(alg),
           natural_gradation(alg), roles,
           GeneratorRoles(roles.driver, tuple(roles.others), roles.extra_draw),
           two_generator_search(alg, roles=roles)]
    witness = known_witness(spec)
    if witness is not None:
        out += [witness, verify_gradation(alg, witness)]
    if alg.dim <= 6:
        out.append(diagonal_search(alg))
    for plain in (True, False):
        generators = _draw_generators(alg, roles, random.Random(spec.n), plain)
        sample = _close_adapted_basis(alg, int(not plain), generators,
                                      len(roles.others))
        if sample is not None:
            out.append(sample)
    return out


@pytest.fixture(scope="module")
def records(catalog_16):
    """Records of all ten kinds: from the two smallest catalog specs of each
    family, plus a Leibniz report with violations, the violations, and an
    empty series."""
    first: dict[str, list] = {}
    for spec, alg in catalog_16:
        first.setdefault(spec.family, []).append((spec, alg))
    report = check_leibniz(_non_leibniz())
    assert not report.ok
    # the field values of an ok Leibniz report, in a record of another class
    out = [report, *report.violations, CentralSeries(())]
    for pairs in first.values():
        for spec, alg in pairs[:2]:
            out += _samples(spec, alg)
    assert {type(r) for r in out} == set(RECORD_TWINS)
    return out


def test_no_dataclass_in_the_package():
    src = Path(nilalg.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nilalg.cli; "
            "assert 'dataclasses' not in sys.modules, 'dataclasses imported'")
    result = subprocess.run([sys.executable, "-c", code, str(src)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_fields_and_defaults_match_the_twins():
    for record, twin in RECORD_TWINS.items():
        assert issubclass(record, Record)
        assert record._fields == tuple(f.name for f in fields(twin))
    for record, args in ((FamilySpec, ("M3", 5, 1)), (GeneratorRoles, (0, (1,))),
                         (nilalg.GradationReport, ("no_gradation_found",)),
                         (Algebra, (2, ("a", "b")))):
        assert repr(record(*args)) == repr(RECORD_TWINS[record](*args))
    # each Algebra gets a fresh table, as field(default_factory=dict) gave
    assert Algebra(1, ("a",)).brackets is not Algebra(1, ("a",)).brackets


def test_repr_matches_the_twins(records):
    for r in records:
        assert repr(r) == repr(dataclass_twin(r))
    spec = FamilySpec("M3", 5, 1)
    alg = make(spec)
    roles = GeneratorRoles(driver=0, others=(1,), extra_draw=(2, 7))
    with pytest.raises(InvalidInputError) as info:
        two_generator_search(alg, roles=roles)
    assert str(info.value) == (
        f"generator roles must lie in range(5): {dataclass_twin(roles)}")


def test_equality_matches_the_twins(records):
    twins = [dataclass_twin(r) for r in records]
    equal_distinct = 0
    for (a, ta), (b, tb) in product(zip(records, twins), repeat=2):
        assert (a == b) is (ta == tb), (a, b)
        assert (a != b) is (ta != tb), (a, b)
        equal_distinct += a is not b and a == b
    assert equal_distinct >= 6 * 18  # both orders of the spec, roles and algebra copies
    for r in records:
        assert r.__eq__(object()) is NotImplemented


def test_hash_matches_the_twins(records, catalog_16):
    for r in records:
        try:
            expected = hash(dataclass_twin(r))
        except TypeError:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == expected
    for spec, _ in catalog_16:
        copy = FamilySpec(spec.family, spec.n, spec.p, list(spec.r), spec.alpha)
        assert copy == spec and hash(copy) == hash(spec)
        roles = generator_roles(spec)
        copy = GeneratorRoles(roles.driver, tuple(roles.others), roles.extra_draw)
        assert copy == roles and hash(copy) == hash(roles)
    assert len({spec for spec, _ in catalog_16}) == len(catalog_16)


def test_assignment_and_deletion_refused_as_by_the_twins(records):
    kinds = {type(r): r for r in records}
    for r in kinds.values():
        twin = dataclass_twin(r)
        for name in r._fields + ("other", "integer_index", "__dict__"):
            before = getattr(r, name, None)
            for act in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
                with pytest.raises(AttributeError) as got:
                    act(r)
                with pytest.raises(AttributeError) as expected:
                    act(twin)
                assert str(got.value) == str(expected.value)
            assert getattr(r, name, None) is before


def test_integer_index_built_once(monkeypatch):
    builds = []
    real_lcm = nilalg.core.lcm

    def lcm(*args):
        builds.append(args)
        return real_lcm(*args)

    monkeypatch.setattr(nilalg.core, "lcm", lcm)
    alg = make(FamilySpec("M4", 8, 4, (), 1))
    index = alg.integer_index
    check_leibniz(alg)
    alg.central_series
    square_ideal(alg)
    bracket(alg, alg.basis_vector(0), alg.basis_vector(4))
    two_generator_search(alg, samples=1)
    assert alg.integer_index is index is vars(alg)["integer_index"]
    assert len(builds) == 1
