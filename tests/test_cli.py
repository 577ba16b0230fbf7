"""CLI surface: subcommands, exit codes, report shape, determinism."""

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilalg.cli import main, run_pipeline
from nilalg import (
    MAX_DIM,
    Algebra,
    FamilySpec,
    algebra_from_dict,
    algebra_to_json,
    change_of_basis,
    diagonal_search,
    generator_roles,
    make,
    two_generator_search,
)

from oracles import chain_algebra, random_invertible, random_nilpotent_algebra


def write_algebra(tmp_path, spec, name="alg.json"):
    path = tmp_path / name
    path.write_text(algebra_to_json(make(spec)) + "\n")
    return path


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "TAU_NP1" in out and "M5" in out


def test_catalog_make_and_witness(tmp_path):
    out = tmp_path / "m4.json"
    wout = tmp_path / "w.json"
    code = main(["catalog", "make", "--family", "M4", "--n", "10", "--p", "4",
                 "--alpha", "0", "-o", str(out), "--witness-out", str(wout)])
    assert code == 0
    alg = json.loads(out.read_text())
    assert alg["dim"] == 10 and "x1" in alg["basis"]
    witness = json.loads(wout.read_text())
    assert witness["degrees"]["x1"] == 1 and witness["degrees"]["z2"] == 10


def test_catalog_make_invalid_parameters_exit_2():
    assert main(["catalog", "make", "--family", "M4", "--n", "12", "--p", "4",
                 "--alpha", "1"]) == 2


def test_m3_negative_p_exit_2(tmp_path, capsys):
    # p = -1 is odd, but M3 needs p >= 1; a table with a negative p would
    # end in an IndexError
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"family": "M3", "n": 9, "p": -3}]))
    assert main(["catalog", "make", "--family", "M3", "--n", "5", "--p", "-1"]) == 2
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: M3(5, -1): violated hypothesis: p >= 1",
        "error: M3(9, -3): violated hypothesis: p >= 1"]
    assert "Traceback" not in captured.out + captured.err


def test_catalog_make_witnessless_family_exit_2(tmp_path, capsys):
    """A spec with no known witness is refused before anything is written:
    neither the -o file nor the algebra on stdout appears."""
    out, witness = tmp_path / "l.json", tmp_path / "w.json"
    code = main(["catalog", "make", "--family", "L", "--n", "12", "--p", "4",
                 "--r", "3,5,7", "-o", str(out), "--witness-out", str(witness)])
    assert code == 2
    assert main(["catalog", "make", "--family", "M3", "--n", "6", "--p", "1",
                 "--witness-out", str(witness)]) == 2
    assert not out.exists() and not witness.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: L(12, 4, (3,5,7)) has no known maximum-length witness",
        "error: M3(6, 1) has no known maximum-length witness"]


def test_invariants_report(tmp_path, capsys):
    path = write_algebra(tmp_path, FamilySpec("M1", 8, 4))
    assert main(["invariants", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 8
    assert report["leibniz"]["ok"] is True
    assert report["series_dims"] == [8, 5, 2, 1, 0]
    assert report["nilindex"] == 4
    assert report["characteristic_sequence"] == [4, 1, 1, 1, 1]
    assert report["natural_gradation_dims"] == [3, 3, 1, 1]
    assert "algebra_sha256" in report["input"]


@pytest.fixture
def series_runs(monkeypatch):
    """The dims of every algebra whose central series is computed, one entry
    per run of the body of ``Algebra.central_series``."""
    runs = []
    prop = Algebra.__dict__["central_series"]
    body = prop.func

    def counting(alg):
        runs.append(alg.dim)
        return body(alg)

    monkeypatch.setattr(prop, "func", counting)
    return runs


def test_invariants_computes_the_series_once(tmp_path, capsys, series_runs):
    # the series feeds the report, the characteristic sequence and the
    # natural gradation
    path = write_algebra(tmp_path, FamilySpec("M4", 10, 4, (), 0))
    assert main(["invariants", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["characteristic_sequence"] == [6, 1, 1, 1, 1]
    assert series_runs == [10]


def test_pipeline_computes_the_series_once(series_runs):
    # the series feeds the p-filiform test and the adapted-basis search
    code, report = run_pipeline("thm34", grid=[FamilySpec("M3", 5, 1)])
    assert code == 0
    assert report["instances"][0]["witness_source"] == "search"
    assert series_runs == [5]


M4_8_4_1 = ["catalog", "make", "--family", "M4", "--n", "8", "--p", "4",
            "--alpha", "1"]


@pytest.mark.parametrize("argv", [
    M4_8_4_1 + ["-o", "{missing}"],
    M4_8_4_1 + ["-o", "{tmp}/alg2.json", "--witness-out", "{missing}"],
    ["invariants", "{alg}", "-o", "{missing}"],
    ["grade", "diagonal", "{alg}", "-o", "{missing}"],
    ["reproduce", "--theorem", "thm33", "-o", "{missing}"],
])
def test_unwritable_output_path_exit_2(tmp_path, capsys, argv):
    # an output path inside a missing directory is an input error, not a
    # traceback and not the exit 1 of a negative verdict
    alg = write_algebra(tmp_path, FamilySpec("M3", 5, 1))
    missing = tmp_path / "missing" / "out.json"
    assert main([a.format(tmp=tmp_path, alg=alg, missing=missing)
                 for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {missing}")
    assert "Traceback" not in err


def test_invariants_abelian_nilindex(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text('{"dim": 3, "basis": ["a", "b", "c"], "brackets": {}}')
    assert main(["invariants", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nilindex"] == 1


def test_invariants_schema_violation_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for data in (b'{"dim": 2, "basis": ["a", "b"], "brackets": {"9,0": [[0, "1"]]}}',
                 # an integer over the int-conversion digit limit
                 b'{"dim": %s, "basis": [], "brackets": {}}' % (b"9" * 5000),
                 b"[" * 100000 + b"]" * 100000,
                 b"\xff\xfe{",  # not UTF-8
                 # one fact, several spellings: a bool dim or target index,
                 # a key other than "i,j", a key given twice
                 b'{"dim": true, "basis": ["a"], "brackets": {}}',
                 b'{"dim": 2, "basis": ["a", "b"], "brackets": {"0,0": [[true, "1"]]}}',
                 # a target index counted from the end
                 b'{"dim": 2, "basis": ["a", "b"], "brackets": {"0,0": [[-1, "1"]]}}',
                 b'{"dim": 2, "basis": ["a", "b"], "brackets": {"0, 0": [[1, "1"]]}}',
                 b'{"dim": 11, "basis": ["a", "b", "c", "d", "e", "f", "g", "h", '
                 b'"i", "j", "k"], "brackets": {"1_0,0": [[1, "1"]]}}',
                 b'{"dim": 2, "basis": ["a", "b"], '
                 b'"brackets": {"0,0": [[1, "1"]], "0,0": [[1, "2"]]}}',
                 # a target index given twice in one bracket
                 b'{"dim": 2, "basis": ["a", "b"], '
                 b'"brackets": {"0,0": [[1, "1"], [1, "1"]]}}'):
        path.write_bytes(data)
        assert main(["invariants", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_invariants_not_nilpotent_exit_1(tmp_path, capsys):
    path = tmp_path / "nn.json"
    path.write_text('{"dim": 1, "basis": ["e"], "brackets": {"0,0": [[0, "1"]]}}')
    assert main(["invariants", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["kind"] == "not_nilpotent"


def test_grade_verify_exit_codes(tmp_path, capsys):
    spec = FamilySpec("M5", 10, 4)
    path = write_algebra(tmp_path, spec)
    assert main(["catalog", "make", "--family", "M5", "--n", "10", "--p", "4",
                 "-o", str(tmp_path / "alg2.json"),
                 "--witness-out", str(tmp_path / "w.json")]) == 0
    assert main(["grade", "verify", str(path),
                 "--assignment", str(tmp_path / "w.json")]) == 0
    # a broken assignment gives exit 1
    bad = {"degrees": {label: 0 for label in make(spec).basis_labels}}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["grade", "verify", str(path),
                 "--assignment", str(tmp_path / "bad.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["gradation"]["verdict"] == "not_maximum_length"
    # a label given twice is refused, not resolved to its last degree
    degrees = json.loads((tmp_path / "w.json").read_text())["degrees"]
    twice = ", ".join(f'"{k}": {d}' for k, d in degrees.items())
    (tmp_path / "twice.json").write_text('{"degrees": {"x1": 0, %s}}' % twice)
    assert main(["grade", "verify", str(path),
                 "--assignment", str(tmp_path / "twice.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_grade_search_negative_exit_1(tmp_path, capsys):
    path = write_algebra(tmp_path, FamilySpec("TAU_NP2", 13, 4, (3, 5)))
    assert main(["grade", "search", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["gradation"]["verdict"] == "no_gradation_found"
    reasons = set(report["gradation"]["search"]["reasons_by_kt"].values())
    assert "degree collision" in reasons and "disconnected" in reasons


def test_grade_search_positive_exit_0(tmp_path, capsys):
    path = write_algebra(tmp_path, FamilySpec("M4", 10, 4, (), 0))
    assert main(["grade", "search", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gradation"]["verdict"] == "maximum_length"
    assert "witness" in report["gradation"]


@pytest.mark.parametrize("argv", [
    ["grade", "search", "{path}", "--samples", "-1"],
])
def test_negative_search_parameters_exit_2(tmp_path, capsys, argv):
    # a negative sample count used to give a misleading
    # DegenerateSampleError or a silent zero
    path = write_algebra(tmp_path, FamilySpec("M4", 10, 4, (), 0))
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need") and ">= 0" in captured.err


def test_grade_diagonal(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(algebra_to_json(chain_algebra(4)))
    assert main(["grade", "diagonal", str(path)]) == 0


# sha256 of each default-seed report as written by ``reproduce -o``.  A
# change that moves any verdict, witness, search dict or number changes it.
REPORT_SHA256 = {
    "thm31": "49dd9a98e09e369e8fe8835154ef8228cee9ef1be18a08169f4c2bd365ca7609",
    "thm32": "0799581f50c037ba104f0eef489b71583a51610f1be55f84c99e36853fd42c9d",
    "thm33": "64b1e37ffe136d57365fab33f1aca46f2775a233fb6b3261773aa5a5df9af8b0",
    "thm34": "19b9d8bd5bd449fc1dbb8be1a0702ecd48e7fa545ef1476e0480f9a6200ed0ac",
}


def test_reproduce_theorems_exit_0(tmp_path, monkeypatch):
    monkeypatch.delenv("NILALG_SEED", raising=False)
    for theorem in ("thm31", "thm32", "thm33", "thm34"):
        out = tmp_path / f"{theorem}.json"
        assert main(["reproduce", "--theorem", theorem, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_match"] is True
        assert report["first_counterexample"] is None
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[theorem]


# sha256 of json.dumps([diagonal, adapted-basis], sort_keys=True) for the
# search reports on 20 random nilpotent tables of dims 3-7 (dim 3 + i % 5,
# drawn in turn from one random.Random(101)).
SEARCH_REPORT_SHA256 = (
    "6598f7f638a3e8adc89c95ec8c4e61e7b0ef215a4c283f4504aa108f441f1d08",
    "e2e5e831a0254019a0ca3ca69d170f16748018359ca6493afde15ae5e61b0e9a",
    "5fc85c0ba1b383d452307b15fe186cb0d23e2fde911e94763dce406be28dd7bc",
    "7ff5daa2a526f717d1e8563db484af47c892ec46391d2ef341cd10ca617359c7",
    "7a3ac31c532cc4eced69c2acd6a954148ee3b05358315b392582987caf3799dd",
    "b05bb47c21ffb094323677102890406930ec6a2995cfa40b1884a6ab814cc36a",
    "729db8bc2b3b4f70e8d6ca3a042ad18eda04302001f49f8e0f830b711b38c277",
    "18e88040f5bcd5015e24b66aba4aea8e047e4f607fa01a933d42e694689b18dd",
    "36d950ddda8493445a940bc43bda510a101f2f5780dfdb0c8eff1c1510d301e9",
    "acbde21a3ac0af7cfa51df9aaac3ff033edd3af67b029cb75992f0b43d9d8462",
    "a565ebd885d4151b8732e6927616f4d7d2113be23922b852f7e7c6fa207486f8",
    "fa2396c84299f0d44e07d5c9cc44de275e875ee5f2ca293fce47b33864e2c41b",
    "cd4ba496cfca06cbb5df05f2c4b4be7011471c92f4fba3b7e2fe45a881138a48",
    "856d935e2a91ea64e4bdca82e1627bff539e847dc6c917c547da6d66986ed5e3",
    "f86be92b17482d4bc8197096774cd81d71c4a9561dc16ce8077669e68a3c5ae4",
    "a565ebd885d4151b8732e6927616f4d7d2113be23922b852f7e7c6fa207486f8",
    "2d25531179cd4839260836deafa28af22de6161d0d7e94ab6d0d363535de71c2",
    "f15cf2b12ce27191636e95ac3cdfb3fec986c0c5f16f029d09e3e7238d529a13",
    "eb48ed76dc399ffa722af069e1141520cf6d13afd7f7bd45e2671149714f909f",
    "5241f5a9dd25559b3d02068b13423f0c37c8a1dc959a18aa44f059f086e93406",
)


def test_search_reports_pinned():
    rng = random.Random(101)
    for index, expected in enumerate(SEARCH_REPORT_SHA256):
        alg = random_nilpotent_algebra(rng, 3 + index % 5)
        reports = [diagonal_search(alg).to_dict(),
                   two_generator_search(alg, samples=2).to_dict()]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, index


# sha256 of json.dumps(report, sort_keys=True) for the adapted-basis search
# with catalog roles, default seed and samples, on specs with more than one
# unknown, where the report lists at most 1000 tuples: a negative over 1089
# tuples (truncated to 200), a positive after 975 (listed in full) and a
# positive after 1052 (truncated to 200).
CATALOG_SEARCH_SHA256 = {
    FamilySpec("M2", 8, 4):
        "f3c26cbefa6a2b5bc52cde183aedc5914f80c6a9ec5227e5e9f1b3e511aacabb",
    FamilySpec("M5", 11, 4):
        "5917ac727869f10a45bee01e3ccb1821dc0c875eeed5d0b45eacb420e462d10e",
    FamilySpec("M4", 12, 4, (), 0):
        "123ec286e5043727baf52792e810c3fdabda111f5c3d2fd31fa98a593ed9a6bd",
}


@pytest.mark.parametrize("spec", CATALOG_SEARCH_SHA256, ids=FamilySpec.name)
def test_catalog_search_reports_pinned(spec):
    report = two_generator_search(make(spec), roles=generator_roles(spec)).to_dict()
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SEARCH_SHA256[spec]


# sha256 of each default-seed ``invariants -o`` report (series dims,
# nilindex, characteristic sequence, natural gradation dims): one algebra
# per catalog family, M4(24,12,1), and two catalog algebras moved to a
# random basis, where L^2 is not spanned by basis vectors.  Only the
# p-filiform bool reaches the pinned theorem reports; this pins the
# sweep's sequence and the series themselves.
INVARIANTS_SHA256 = {
    "L(12, 4, (3,5,7))":
        "dd82db009966784a973de5e057866ef612726e8220699dec39834d733c471208",
    "Q(15, 4, (3,5,7))":
        "6bc65f09c5b42ecec713dc659409c5f0cd010c1d874582968b32b771aa3c957a",
    "TAU_NP1(12, 4, (3,5))":
        "5f5f10f6f2bb4dfb90e4cb3060cb2d6390c1e8141ef9a0d0c733639ac267ad6a",
    "TAU_NP2(13, 4, (3,5))":
        "b1468fe83471fb329f352228b2795028cea016c7159f170b36044b4ca50d9ae0",
    "M1(8, 4)":
        "1a454f4db61ecfc162bcd3ec7b54a181477e29b71da2476cdab47036d81659ae",
    "M2(8, 4)":
        "3fea3461d57c291cf0e8c941048fa6f37979a09675ebe6304df4143232d4d240",
    "M3(9, 5)":
        "efc8bc5145cc9b347d53cc0540b690dbf6955ea68e11334f482e070856259ce8",
    "M4(10, 4, alpha=0)":
        "92b9d342fdf7e1d53434f4eaab9940f9f01b95db0bddfe38a63a60922ba0ba1f",
    "M4(24, 12, alpha=1)":
        "ae6fed2dd7c812c791d64ef4f5ba81c0f18e2c6a38576a31e1e323849879d7ee",
    "M5(10, 4)":
        "9d15a41bc1cc2c0494ca39ebe637c201fc989702d319d10de630f2891263728a",
    "M5(8, 4) in basis 7":
        "94600a71a122fcd3ee8c376d8f1a669bb13c010865b13e9bb08c9802b11c7e98",
    "M4(8, 4, alpha=1) in basis 8":
        "6d561e6680221684d995339b8ca1ac5d98c3ea449278a0f55e22ccb3f1bdf345",
}


def invariants_report_hashes(tmp_path) -> dict:
    specs = [FamilySpec("L", 12, 4, (3, 5, 7)), FamilySpec("Q", 15, 4, (3, 5, 7)),
             FamilySpec("TAU_NP1", 12, 4, (3, 5)), FamilySpec("TAU_NP2", 13, 4, (3, 5)),
             FamilySpec("M1", 8, 4), FamilySpec("M2", 8, 4), FamilySpec("M3", 9, 5),
             FamilySpec("M4", 10, 4, (), 0), FamilySpec("M4", 24, 12, (), 1),
             FamilySpec("M5", 10, 4)]
    algebras = {spec.name(): make(spec) for spec in specs}
    for seed, spec in ((7, FamilySpec("M5", 8, 4)), (8, FamilySpec("M4", 8, 4, (), 1))):
        alg = make(spec)
        algebras[f"{spec.name()} in basis {seed}"] = change_of_basis(
            alg, random_invertible(random.Random(seed), alg.dim))
    hashes = {}
    for index, (name, alg) in enumerate(algebras.items()):
        path = tmp_path / f"alg{index}.json"
        out = tmp_path / f"inv{index}.json"
        path.write_text(algebra_to_json(alg) + "\n")
        assert main(["invariants", str(path), "-o", str(out)]) == 0
        hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def test_invariants_reports_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("NILALG_SEED", raising=False)
    assert invariants_report_hashes(tmp_path) == INVARIANTS_SHA256


# sha256 of the file each command writes with the default seed (``-o``, or
# ``--witness-out`` for ``catalog make``), and its exit code: the catalog
# witness, a verified and a refuted assignment, both searches positive
# (label-keyed witness) and negative, and a Leibniz violation.
NON_LEIBNIZ = ('{"dim": 3, "basis": ["a", "b", "c"], "brackets": {"0,0": [[1, "1"]], '
               '"1,0": [[2, "-3/2"]], "0,1": [[2, "1"]], "1,1": [[0, "1"]]}}')
CLI_OUTPUT_SHA256 = {
    "catalog make --witness-out": (
        ["catalog", "make", "--family", "M5", "--n", "10", "--p", "4",
         "--witness-out", "{out}"], 0,
        "834a9fe72074eff1f21acbf718fc6836e35018a6a377bbc6304559ec8db9be7b"),
    "grade verify witness": (
        ["grade", "verify", "{m5}", "--assignment", "{witness}", "-o", "{out}"], 0,
        "9a3aab38cbb74d41f39c9b30b0335b3124b6cfb80a7df371ac5c17582187725c"),
    "grade verify refuted": (
        ["grade", "verify", "{m5}", "--assignment", "{refuted}", "-o", "{out}"], 1,
        "b6dc2c0b9e0c87de56ede062c3189f91d60f722ac63f6aeabf1fdb87c1a8e708"),
    "grade diagonal M4(8,4,1)": (
        ["grade", "diagonal", "{m4}", "-o", "{out}"], 0,
        "a832c3bb05fe371b75b25491dd68592a78d898290868cdd3b27f8efe47a724e3"),
    "grade diagonal M3(6,1)": (
        ["grade", "diagonal", "{m3}", "-o", "{out}"], 1,
        "bfd9456a948a5981e7fa579f78aeb44a716b0efe48426ddd26c285362a0b0a4d"),
    "grade search M4(8,4,1)": (
        ["grade", "search", "{m4}", "-o", "{out}"], 0,
        "dfa6fcbd317d078d3589f106cb2b11eeb58e3e7e51bc88c1890beb3c3cda6757"),
    "grade search M3(6,1)": (
        ["grade", "search", "{m3}", "-o", "{out}"], 1,
        "669340d7727ed8cd5c012d626b839f6142ba566cdd594937cd2018591ce753cd"),
    "invariants non-Leibniz": (
        ["invariants", "{table}", "-o", "{out}"], 1,
        "4b28f13f8d83411fdff6427ce8a85b883c610f4be9bab41576a8bf6561d8b1bf"),
}


@pytest.mark.parametrize("name", CLI_OUTPUT_SHA256)
def test_cli_outputs_pinned(tmp_path, monkeypatch, name):
    monkeypatch.delenv("NILALG_SEED", raising=False)
    paths = {"m5": tmp_path / "m5.json", "witness": tmp_path / "witness.json",
             "m4": write_algebra(tmp_path, FamilySpec("M4", 8, 4, (), 1), "m4.json"),
             "m3": write_algebra(tmp_path, FamilySpec("M3", 6, 1), "m3.json"),
             "refuted": tmp_path / "refuted.json", "table": tmp_path / "table.json",
             "out": tmp_path / "out.json"}
    assert main(["catalog", "make", "--family", "M5", "--n", "10", "--p", "4",
                 "-o", str(paths["m5"]), "--witness-out", str(paths["witness"])]) == 0
    labels = make(FamilySpec("M5", 10, 4)).basis_labels
    paths["refuted"].write_text(json.dumps(
        {"degrees": {label: d for d, label in enumerate(labels, 1)}}))
    paths["table"].write_text(NON_LEIBNIZ)
    argv, code, expected = CLI_OUTPUT_SHA256[name]
    assert main([a.format(**paths) for a in argv]) == code
    assert hashlib.sha256(paths["out"].read_bytes()).hexdigest() == expected


def test_reproduce_mismatch_exit_1(tmp_path):
    # M3 under thm33 expectations: search finds nothing, expected maximum_length
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"family": "M3", "n": 9, "p": 5}]))
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid),
                 "-o", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["first_counterexample"] == "M3(9, 5)"


def test_reproduce_construction_error_exit_2(tmp_path, capsys):
    # each entry is checked whole as it is read, so the first bad entry in
    # file order is the one reported, whatever the second one's fault
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        [{"family": "M4", "n": 12, "p": 4, "alpha": 1},
         {"family": "M5", "n": "10", "p": 4}]))
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid)]) == 2
    assert capsys.readouterr().err == (
        "error: M4(12, 4, alpha=1): violated hypothesis: "
        "(n-p) divides n (required by M4(1))\n")


def test_reproduce_empty_grid_exit_2(tmp_path, capsys):
    # zero instances would otherwise read as "all_match": true, exit 0
    grid = tmp_path / "grid.json"
    grid.write_text("[]")
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: grid is empty: no instance to check\n"
    assert "Traceback" not in captured.out + captured.err


def test_oversized_dimension_exit_2(tmp_path, capsys, monkeypatch):
    # n or dim over MAX_DIM is refused before any table is built
    def no_build(*args, **kwargs):
        raise AssertionError("an oversized algebra was built")

    monkeypatch.setattr(Algebra, "from_products", staticmethod(no_build))
    n = MAX_DIM + 1
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"family": "M5", "n": n, "p": 4}]))
    labels = [f"e{i + 1}" for i in range(n)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": n, "basis": labels, "brackets": {"0,0": [[1, "1"]]}}))
    assert main(["catalog", "make", "--family", "M5", "--n", str(n), "--p", "4"]) == 2
    assert main(["reproduce", "--theorem", "thm34", "--grid", str(grid)]) == 2
    assert main(["invariants", str(big)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: M5({n}, 4): n = {n} is over the limit of {MAX_DIM}"] * 2 + [
        f"error: 'dim' is {n}, over the limit of {MAX_DIM}"]
    monkeypatch.undo()
    assert algebra_from_dict({"dim": MAX_DIM, "basis": labels[:-1], "brackets": {}}).dim \
        == MAX_DIM


BOOL_SPECS = (
    {"family": "M4", "n": 8, "p": 4, "alpha": True},
    {"family": "M4", "n": 8, "p": 4, "alpha": False},
    {"family": "M5", "n": True, "p": 4},
    {"family": "M5", "n": 8, "p": True},
    {"family": "L", "n": 12, "p": 4, "r": [3, True, 7]},
)

WRONG_TYPE_SPECS = (
    {"family": "M4", "n": "8", "p": 4},
    {"family": "M4", "n": 8, "p": 4, "r": 1},
    {"family": "M4", "n": 8, "p": 4, "alpha": "1"},
    {"family": "L", "n": 12, "p": 4, "r": [3, "5", 7]},
)


@pytest.mark.parametrize("spec", BOOL_SPECS + WRONG_TYPE_SPECS)
def test_json_bools_refused_in_family_specs(tmp_path, capsys, spec):
    # true/false load as the ints 1/0; a spec must spell them as numbers,
    # and a field of any other wrong type is refused the same way
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([spec]))
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid)]) == 2
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["catalog", "make", "--spec", str(spec_file)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: family spec") == 2


def test_unknown_keys_exit_2(tmp_path, capsys):
    # a misspelt key is refused by name, not dropped ("bracket" would load
    # an abelian algebra), even where a required key is missing with it
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": {}}))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": {},
                                "bracket": {"0,0": [[1, "1"]]}}))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"family": "M5", "n": 8, "p": 4, "alhpa": 1}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"family": "M5", "n": 8, "p": 4},
                                {"famliy": "M5", "n": 8, "p": 4}]))
    assignment = tmp_path / "w.json"
    assignment.write_text(json.dumps({"degrees": {"a": 1, "b": 2}, "offset": 1}))
    assert main(["invariants", str(typo)]) == 2
    assert main(["catalog", "make", "--spec", str(spec_file)]) == 2
    assert main(["reproduce", "--theorem", "thm33", "--grid", str(grid)]) == 2
    assert main(["grade", "verify", str(alg), "--assignment", str(assignment)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: algebra JSON has unknown key 'bracket'; known: dim, basis, brackets",
        *(f"error: family spec JSON has unknown key '{key}'; "
          "known: family, n, p, r, alpha" for key in ("alhpa", "famliy")),
        "error: degree assignment JSON has unknown key 'offset'; known: degrees"]


# Values of any JSON type, for a field given the wrong type or a stray key.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5)
    | st.sampled_from(["", "1", "-1/2", "1e9", "0,0", "a"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0,0", "1,0", "a", "degrees"]), inner,
                      max_size=3),
    max_leaves=6)


def _slots(data):
    """(container, key) of every value nested in the JSON data ``data``."""
    for key, value in (data.items() if isinstance(data, dict) else enumerate(data)):
        yield data, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def one_fault(draw, data):
    """JSON text of the object ``data`` as it is, or with one fault: a value
    at any depth replaced by a value of any JSON type, an entry removed, or
    a stray key added to the object or to an object inside it."""
    data = json.loads(json.dumps(data))
    slots = list(_slots(data))[::-1]  # hypothesis favours the first, deepest
    fault = draw(st.sampled_from(["junk", "drop", "stray", None]))
    if fault == "stray":
        objects = [data] + [c[k] for c, k in slots if isinstance(c[k], dict)]
        target = draw(st.sampled_from(objects))
        stray = draw(st.sampled_from(["bracket", "alhpa", "offset", "", "0,0"]))
        target[stray] = draw(JUNK)
    elif fault:
        container, key = draw(st.sampled_from(slots))
        if fault == "junk":
            container[key] = draw(JUNK)
        else:
            del container[key]
    return json.dumps(data)


# One admissible spec of each kind of family: no r or alpha, alpha, and r.
SPECS = ({"family": "M5", "n": 8, "p": 4}, {"family": "M3", "n": 5, "p": 1, "r": None},
         {"family": "M4", "n": 8, "p": 4, "r": None, "alpha": 1},
         {"family": "L", "n": 12, "p": 4, "r": [3, 5, 7], "alpha": None})


@st.composite
def loader_inputs(draw):
    """An algebra with dim <= 4, a degree assignment on its labels and a
    family spec, as JSON text, each with at most one fault."""
    dim = draw(st.integers(1, 4))
    labels = ["a", "b", "c", "d"][:dim]
    index = st.integers(0, dim - 1)
    terms = st.dictionaries(index, st.sampled_from(["1", "-1/2", "3"]), max_size=2)
    table = draw(st.dictionaries(st.tuples(index, index), terms, max_size=3))
    algebra = {"dim": dim, "basis": labels, "brackets": {
        f"{i},{j}": sorted(map(list, row.items())) for (i, j), row in table.items()}}
    degrees = draw(st.lists(st.integers(-3, 6), min_size=dim, max_size=dim))
    return (draw(one_fault(algebra)),
            draw(one_fault({"degrees": dict(zip(labels, degrees))})),
            draw(one_fault(draw(st.sampled_from(SPECS)))))


@settings(max_examples=80, deadline=None)
@given(texts=loader_inputs())
def test_loaders_exit_cleanly_on_any_object(texts):
    # every input file ends in a report (0 or 1) or a one-line refusal (2)
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp, name) for name in ("alg.json", "w.json", "spec.json")]
        for path, text in zip(files, texts):
            path.write_text(text)
        alg, assignment, spec = map(str, files)
        for argv in (["invariants", alg],
                     ["grade", "verify", alg, "--assignment", assignment],
                     ["catalog", "make", "--spec", spec]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error:"), argv


def test_reproduce_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reproduce", "--theorem", "thm33", "-o", str(a)]) == 0
    assert main(["reproduce", "--theorem", "thm33", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    path = write_algebra(tmp_path, FamilySpec("M1", 8, 4))
    monkeypatch.setenv("NILALG_SEED", "777")
    assert main(["invariants", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 777
    # explicit flag beats the environment
    assert main(["invariants", str(path), "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_run_pipeline_rejects_unknown_theorem():
    from nilalg import InvalidInputError
    with pytest.raises(InvalidInputError):
        run_pipeline("thm99")
