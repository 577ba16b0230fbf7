"""Span tracing of ``nilalg`` public functions, patched in from outside.

:class:`Tracer` replaces each traced function with a wrapper in every
``nilalg`` module namespace that binds it (``from .core import check_leibniz``
gives ``cli``, ``gradations`` and ``invariants`` their own binding, and the
package re-exports most names), and ``RowSpace.add`` on its class.  Each call
appends one span: function id, start, end, parent span and op id.  Spans stay
in memory in compact arrays; per-function call counts, inclusive time and
self time (inclusive minus the time covered by child spans) are computed from
them after the pass.  None of the traced functions calls itself, so the sum
of span durations is the inclusive time.

Which end-to-end metric each layer metric should move, and where:

* ``core.check_leibniz.self_s``: ``verdict_s_p50`` on theorems and
  dense_invariants.
* ``core.bracket.calls``, ``core.change_of_basis.incl_s``:
  ``verdict_s_tail`` on search_small, ``verdicts_per_s`` on theorems.
* ``invariants.characteristic_sequence.incl_s``, ``linalg.mat_vec.incl_s``,
  ``invariants.char_seq_at.calls``: ``verdicts_per_s`` on theorems and
  dense_invariants; not search_small, which never calls them.
* ``gradations.diagonal_search.assignments_tried``: ``verdict_s_p50`` on
  search_small only.
* ``catalog.make``: ``setup_s`` (dense_invariants builds its inputs with it).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType

# (module, qualified name) of every traced function; the metric prefix is
# "<module>.<qualified name>".
TRACED = (
    ("linalg", "RowSpace.add"),
    ("linalg", "mat_vec"),
    ("linalg", "invert"),
    ("core", "bracket"),
    ("core", "bracket_basis"),
    ("core", "bracket_vec_basis"),
    ("core", "check_leibniz"),
    ("core", "change_of_basis"),
    ("core", "algebra_from_json"),
    ("invariants", "lower_central_series"),
    ("invariants", "characteristic_sequence"),
    ("invariants", "char_seq_at"),
    ("invariants", "nilpotent_block_profile"),
    ("invariants", "right_mult_matrix"),
    ("gradations", "verify_gradation"),
    ("gradations", "natural_gradation"),
    ("gradations", "diagonal_search"),
    ("gradations", "two_generator_search"),
    ("catalog", "make"),
    ("catalog", "known_witness"),
    ("cli", "run_pipeline"),
)
NAMES = tuple(f"{module}.{qualname}" for module, qualname in TRACED)

# Counters read from return values: metric name -> unit.
COUNTERS = {
    "linalg.RowSpace.add.useful_frac": "frac",
    "gradations.diagonal_search.assignments_tried": "count",
    "gradations.diagonal_search.closure_fail_frac": "frac",
    "gradations.two_generator_search.assignments_tried": "count",
    "gradations.two_generator_search.degenerate_samples": "count",
}


class Tracer:
    """Collects spans for one traced pass; install, run, uninstall, summarise."""

    def __init__(self):
        self.fids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1  # id of the op being run; -1 during set-up
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.counts = {"add_useful": 0, "diag_tried": 0, "diag_closure_fail": 0,
                       "search_tried": 0, "search_degenerate": 0}

    # -- patching --------------------------------------------------------------

    def install(self, nl) -> None:
        """Patch the package ``nl`` and its submodules."""
        modules = [nl] + [m for m in vars(nl).values() if isinstance(m, ModuleType)
                          and m.__name__.startswith("nilalg.")]
        for fid, (module_name, qualname) in enumerate(TRACED):
            module = getattr(nl, module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(fid, orig, attr), orig)
                continue
            orig = getattr(module, qualname)
            wrapper = self._wrap(fid, orig, qualname)
            bound = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper, orig)
                        bound += 1
            if not bound:
                raise RuntimeError(f"nilalg.{module_name}.{qualname} not found")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper, orig) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, fid: int, orig, name: str):
        fids, starts, ends = self.fids, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter
        on_result = {"add": self._on_add,
                     "diagonal_search": self._on_diagonal,
                     "two_generator_search": self._on_search}.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- counters read from return values ---------------------------------------

    def _on_add(self, enlarged: bool) -> None:
        self.counts["add_useful"] += bool(enlarged)

    def _on_diagonal(self, report) -> None:
        tried = report.search["assignments_tried"]
        self.counts["diag_tried"] += tried
        # A positive report stops at the first assignment that closes, so
        # every earlier one failed closure.
        self.counts["diag_closure_fail"] += report.search.get("closure_failures", tried - 1)

    def _on_search(self, report) -> None:
        search = report.search
        # One recorded reason per unknown-degree tuple tried, plus the winner.
        self.counts["search_tried"] += (sum(search["reason_counts"].values())
                                        + ("witness_at" in search))
        self.counts["search_degenerate"] += search["degenerate_samples"]

    # -- results ----------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = [0] * len(NAMES)
        for fid in self.fids:
            counts[fid] += 1
        return dict(zip(NAMES, counts))

    def summary(self) -> dict[str, float]:
        """Per-function ``.calls``, ``.incl_s`` and ``.self_s`` plus the counters."""
        n = len(self.fids)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        incl = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        for idx, fid in enumerate(self.fids):
            incl[fid] += durations[idx]
            own[fid] += durations[idx] - child[idx]
        out: dict[str, float] = {}
        for name, calls, i, s in zip(NAMES, self.calls().values(), incl, own):
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = i
            out[f"{name}.self_s"] = s
        c = self.counts
        adds = out["linalg.RowSpace.add.calls"]
        out["linalg.RowSpace.add.useful_frac"] = c["add_useful"] / adds if adds else 0.0
        out["gradations.diagonal_search.assignments_tried"] = c["diag_tried"]
        out["gradations.diagonal_search.closure_fail_frac"] = (
            c["diag_closure_fail"] / c["diag_tried"] if c["diag_tried"] else 0.0)
        out["gradations.two_generator_search.assignments_tried"] = c["search_tried"]
        out["gradations.two_generator_search.degenerate_samples"] = c["search_degenerate"]
        return out

    def write(self, path: Path) -> None:
        """Spans as a one-line JSON header followed by the raw column arrays."""
        columns = [("function", self.fids), ("start_s", self.starts), ("end_s", self.ends),
                   ("parent", self.parents), ("op", self.ops)]
        header = {"functions": list(NAMES), "spans": len(self.fids),
                  "byteorder": sys.byteorder,
                  "columns": [[name, col.typecode] for name, col in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)
