#!/usr/bin/env python3
"""nilalg benchmark: exact verdicts per second on seeded workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload theorems --seed 1 --seconds 55 --trace 0

The harness is one process on one thread running a closed loop.  It imports
``nilalg`` from ``src/`` of the checkout it sits in, builds the workload's
inputs from ``--seed`` (``bench/inputs.py``) and calls the library in
process.  An operation ("op") takes one algebra to its verdict
(``bench/workloads.py``).

``BENCHMARK.json`` lists the workloads ``theorems`` and ``search_small``.
``dense_invariants`` runs the same way but is not listed there: its op times
and failure count depend on the random change of basis, and across seeds its
timings spread by a quarter or more on a noisy 2-vCPU host.

Estimator.  Every op runs once per round; each round walks the whole op list
in its own seeded order, and rounds repeat until the next one would end
after ``--seconds`` (at least two rounds).  An op's time is its best wall
time over the rounds: on a host whose speed changes from second to second,
the best of interleaved rounds repeats from run to run where a back-to-back
sweep or a per-op repeat loop does not.  Ops that fail are timed like the
others.  The first round also checks every op against
its known answer, and an op's report must be identical in every round.

Set-up (a fresh import of ``nilalg``, input generation and parsing) runs
before the first round and again before each of the next rounds, up to
SETUP_REPEATS times in all; ``setup_s`` is the median.  Interpreter start-up
is not included, and bytecode is cached under ``.bench_out/``.

End-to-end metrics (``--trace 0``):

    verdict_s_p50    median over ops of the per-op best time
    verdict_s_tail   the highest integer percentile of per-op best time with
                     at least ten ops beyond it (printed with its op count)
    verdicts_per_s   ops / sum of per-op best times
    ok_ops_frac      ops whose checks all passed / ops attempted
    setup_s          median set-up time
    peak_rss_mib     the process's own ru_maxrss

With ``--trace 1`` the same untraced rounds run first, then two traced
passes (set-up without the import, then every op once) with the public
functions listed in ``bench/tracing.py`` wrapped.  The result holds the
per-layer metrics and ``trace.overhead_frac``, the traced pass's op time over
the untraced best, minus one.  The two passes must give identical call
counts.  Spans of the first pass go to ``.bench_out/``.

A failed op shows in ``ok_ops_frac`` and ``failed``; ``correct`` is false
only when an output is shown wrong (a witness that does not re-verify, an
invariant that changed under a change of basis, a report that changed
between rounds) or the traced passes disagree.  The exit code is non-zero
only when the harness itself fails, for example when ``src/nilalg`` is
missing.  Per-op results are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import COUNTERS, NAMES, Tracer
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 2
SETUP_REPEATS = 15
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "verdicts_per_s": "1/s",
    "ok_ops_frac": "frac",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    **{f"{name}.{suffix}": unit for name in NAMES
       for suffix, unit in (("calls", "count"), ("incl_s", "s"), ("self_s", "s"))},
    **COUNTERS,
    "trace.overhead_frac": "frac",
}
WRONG_KINDS = ("wrong", "nondeterministic")


class HarnessError(Exception):
    pass


def import_nilalg():
    """Import ``nilalg`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "nilalg" or m.startswith("nilalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        nl = importlib.import_module("nilalg")
        importlib.import_module("nilalg.cli")
    except ImportError as exc:
        raise HarnessError(f"cannot import nilalg from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(nl.__file__).resolve().parents:
        raise HarnessError(f"nilalg imported from {nl.__file__}, not from {SRC}")
    return nl


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def setup(workload: str, seed: int, scale: float):
    """Import ``nilalg`` afresh and build the op list; returns (nl, ops, seconds)."""
    t0 = time.perf_counter()
    nl = import_nilalg()
    ops = BUILDERS[workload](nl, _rng(workload, seed), scale)
    return nl, ops, time.perf_counter() - t0


def _attempt(op):
    """Run one op; returns (seconds, raw result or None, digest)."""
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # a failed op is a measurement, not a harness error
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, raw, op.digest(raw)


def measure(workload: str, seed: int, seconds: float, scale: float) -> dict:
    """Set-up, then interleaved rounds until ``seconds`` have passed.

    Rounds after the first are preceded by one more set-up, whose result is
    discarded, until SETUP_REPEATS set-ups are timed.  Records per-op best
    times, round-0 check failures and digest changes between rounds.
    """
    start = time.perf_counter()
    nl, ops, first_setup = setup(workload, seed, scale)
    setup_s = [first_setup]
    n = len(ops)
    best = [math.inf] * n
    digests: list[str | None] = [None] * n
    failures: dict[int, tuple[str, str]] = {}
    round_s: list[float] = []
    while True:
        if round_s and len(setup_s) < SETUP_REPEATS:
            setup_s.append(setup(workload, seed, scale)[2])
        gc.collect()
        order = list(range(n))
        random.Random(f"order:{seed}:{len(round_s)}").shuffle(order)
        t_round = time.perf_counter()
        for i in order:
            elapsed, raw, digest = _attempt(ops[i])
            best[i] = min(best[i], elapsed)
            if not round_s:
                digests[i] = digest
                failure = ("error", digest) if raw is None else _check(ops[i], raw)
                if failure is not None:
                    failures[i] = failure
            elif digest != digests[i]:
                failures[i] = ("nondeterministic", "report differs between rounds")
        round_s.append(time.perf_counter() - t_round)
        predicted = statistics.mean(round_s[1:] or round_s)
        if (len(round_s) >= MIN_ROUNDS
                and time.perf_counter() - start + predicted > seconds):
            break
    return {"nl": nl, "ops": ops, "best": best, "failures": failures,
            "round_s": round_s, "setup_s": setup_s}


def _check(op, raw) -> tuple[str, str] | None:
    try:
        return op.check(raw)
    except Exception as exc:
        return "error", f"check raised {type(exc).__name__}: {exc}"


def tail(times: list[float]) -> tuple[int | None, float, int]:
    """(percentile, value, ops beyond): highest integer percentile, by nearest
    rank, with at least TAIL_BEYOND ops above it; (None, max, 0) if none."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1], n - rank
    return None, ordered[-1], 0


def traced_pass(nl, workload: str, seed: int, scale: float):
    """Set-up (no import) plus every op once, traced; returns (tracer, op seconds)."""
    tracer = Tracer()
    tracer.install(nl)
    try:
        ops = BUILDERS[workload](nl, _rng(workload, seed), scale)
        op_s = []
        for i, op in enumerate(ops):
            tracer.op = i
            op_s.append(_attempt(op)[0])
    finally:
        tracer.uninstall()
    return tracer, op_s


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> tuple[dict, Tracer | None]:
    """Set up, measure and, if ``trace``, trace one workload.

    Returns the result and the tracer of the first traced pass (None when
    not tracing).  ``scale`` multiplies the op counts; the benchmark runs at
    1.0 and the smoke test at a tiny scale.
    """
    run = measure(workload, seed, seconds, scale)
    nl, ops, best, setup_times = run["nl"], run["ops"], run["best"], run["setup_s"]
    n = len(ops)
    failures = run["failures"]
    q, tail_value, beyond = tail(best)
    info = {
        "workload": workload, "seed": seed, "ops": n, "rounds": len(run["round_s"]),
        "round_s": run["round_s"], "setup_repeats_s": setup_times,
        "tail_percentile": q, "tail_ops_beyond": beyond,
        "per_op": [{"op": i, "label": op.label, "best_s": best[i],
                    "failure": list(failures[i]) if i in failures else None}
                   for i, op in enumerate(ops)],
    }
    correct = not any(kind in WRONG_KINDS for kind, _ in failures.values())
    tracer = None
    if not trace:
        metrics = {
            "verdict_s_p50": statistics.median(best),
            "verdict_s_tail": tail_value,
            "verdicts_per_s": n / sum(best),
            "ok_ops_frac": (n - len(failures)) / n,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tracer, first_s = traced_pass(nl, workload, seed, scale)
        second, second_s = traced_pass(nl, workload, seed, scale)
        if tracer.calls() != second.calls():
            correct = False
            info["trace_error"] = "call counts differ between two traced passes"
        a, b = tracer.summary(), second.summary()
        # Times are the better of the two passes, like op times; counts are equal.
        metrics = {name: min(a[name], b[name]) if name.endswith("_s") else a[name]
                   for name in a}
        traced = sum(min(x, y) for x, y in zip(first_s, second_s))
        metrics["trace.overhead_frac"] = traced / sum(best) - 1
        info["spans"] = len(tracer.fids)
        units = PER_LAYER_UNITS
    result = {"correct": correct, "attempted": n, "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()},
              "info": info}
    return result, tracer


def _out_path(workload: str, seed: int, suffix: str) -> Path:
    return OUT / f"{workload}-seed{seed}-{suffix}"


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, then failures."""
    info = result["info"]
    workload, n = info["workload"], info["ops"]
    lines = [f"{workload}: {n} ops, {info['rounds']} rounds, "
             f"failed {result['failed']}, correct {result['correct']}"]
    notes = {
        "verdict_s_p50": f"median of {n} ops",
        "verdict_s_tail": (f"p{info['tail_percentile']} of {n} ops, "
                           f"{info['tail_ops_beyond']} beyond"
                           if info["tail_percentile"] else f"max of {n} ops"),
        "verdicts_per_s": f"{n} ops / sum of best times",
        "ok_ops_frac": f"{n - result['failed']} of {n} ops",
        "setup_s": f"median of {len(info['setup_repeats_s'])} set-ups",
    }
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{workload}/{name} = {m['value']:.6g} {m['unit']}{note}")
    for op in info["per_op"]:
        if op["failure"]:
            lines.append(f"FAILED op {op['op']} {op['label']}: {op['failure'][0]}: "
                         f"{op['failure'][1]}")
    if "trace_error" in info:
        lines.append(f"TRACE: {info['trace_error']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilalg" / "__init__.py").is_file():
        print(f"error: no nilalg sources under {SRC}", file=sys.stderr)
        return 2
    # Cache bytecode under .bench_out whatever PYTHONDONTWRITEBYTECODE says, so
    # the set-up time of every run but the first excludes compilation.
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    try:
        result, tracer = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with open(_out_path(args.workload, args.seed, f"trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.write(_out_path(args.workload, args.seed, "spans.bin"))
    for line in report_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
