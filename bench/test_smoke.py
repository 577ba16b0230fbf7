"""Smoke test of the benchmark harness on a tiny configuration.

Run from the checkout root with ``python3 -m pytest -q bench``.  It checks
that every workload reports exactly the metric names and units declared in
``BENCHMARK.json``, that ``ok_ops_frac`` is counted over every op attempted,
and that a traced run reports the per-layer metrics with repeatable call
counts.
"""

from __future__ import annotations

import json

import pytest

import run
from inputs import valid_specs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.05  # one or two ops per stratum


def _declared(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_sampled_specs_satisfy_the_catalog_hypotheses():
    nl = run.import_nilalg()
    for family, alpha in (("L", None), ("Q", None), ("TAU_NP1", None), ("TAU_NP2", None),
                          ("M3", None), ("M4", 0), ("M4", 1), ("M5", None)):
        specs = valid_specs(family, 12, alpha=alpha)
        assert specs
        for data in specs:
            nl.make(nl.FamilySpec.from_dict(data))


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 29)]
    assert run.tail(times) == (64, 18.0, 10)
    assert run.tail(times[:5]) == (None, 5.0, 0)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.BUILDERS)


@pytest.mark.parametrize("workload", sorted(run.BUILDERS))
def test_end_to_end_metrics(workload):
    result, tracer = run.run_workload(workload, seed=3, seconds=0, trace=False,
                                      scale=TINY)
    assert tracer is None
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    per_op = result["info"]["per_op"]
    attempted, failed = result["attempted"], result["failed"]
    assert attempted == len(per_op) == result["info"]["ops"]
    assert failed == sum(op["failure"] is not None for op in per_op)
    assert metrics["ok_ops_frac"]["value"] == (attempted - failed) / attempted
    assert result["info"]["rounds"] >= run.MIN_ROUNDS
    lines = run.report_lines(result)
    for name, unit in _declared("end_to_end").items():
        assert any(line.startswith(f"{workload}/{name} = ") and f" {unit}" in line
                   for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    result, tracer = run.run_workload("search_small", seed=3, seconds=0, trace=True,
                                      scale=TINY)
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert result["correct"], result["info"].get("trace_error")
    calls = metrics["gradations.diagonal_search.calls"]["value"]
    assert calls == result["attempted"]
    assert len(tracer.fids) == sum(metrics[f"{name}.calls"]["value"]
                                   for name in run.NAMES)
    for name in run.NAMES:
        incl = metrics[f"{name}.incl_s"]["value"]
        assert 0 <= metrics[f"{name}.self_s"]["value"] <= incl + 1e-9
