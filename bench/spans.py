"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps each layer's public functions at run time, by
rebinding every reference the package holds to them: module globals in
every ``fairdiv`` module (so ``from .x import f`` copies are covered), the
``CHECKERS`` table, and the methods on ``Mechanism`` and
``AllocationDistribution``. The package source is never edited, and
``uninstall`` puts every original back.

A span is ``[name, start, end, parent index, count]``. Spans are kept in
memory while ``active`` is set, and ``layer_metrics`` turns one batch of
them into self times and counts. A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

from fairdiv import axioms, cli, core, instances, mechanisms, oracle, strategic

# span name -> (namespace, attribute) of each wrapped callable
TARGETS = {
    "instances.build": [(instances, f) for f in (
        "build_table_manifest", "load_manifest", "expand_entries", "random_suite",
        "generate", "counterexample_instances", "worked_example")],
    "cli.main": [(cli, "main")],
    "strategic.sp_falsify": [(strategic, "sp_falsify")],
    "strategic.osp_falsify": [(strategic, "osp_falsify")],
    "mechanisms.run": [(mechanisms.Mechanism, "run")],
    "mechanisms.allocate": [(mechanisms, "allocate")],
    "mechanisms.orp_distribution": [(mechanisms, "orp_distribution")],
    "mechanisms.pareto_levels": [(mechanisms, "pareto_levels")],
    "core.distribution": [(core.AllocationDistribution, f) for f in (
        "__post_init__", "from_map", "mix", "prefix")],
    "core.marginals": [(core, "marginals")],
    "core.expected_utilities": [(core, "expected_utilities")],
    "oracle.enumerate_allocations": [(oracle, "enumerate_allocations")],
    "oracle.pareto_frontier": [(oracle, "pareto_frontier")],
    "oracle.pea_solution": [(oracle, "pea_solution")],
    "axioms.check_pep": [(axioms, "check_pep")],
    "axioms.check_pea": [(axioms, "check_pea")],
    "axioms.check_ex_post": [(axioms, f) for f in (
        "check_efp", "check_sefp", "check_befp", "check_envy_bounded")],
    "axioms.check_ex_ante": [(axioms, f) for f in (
        "check_efa", "check_sefa", "check_prefix_efa")],
}

# spans whose result size is recorded as the span's count
COUNTED = {
    "mechanisms.run": lambda dist: len(dist.entries),
    "oracle.enumerate_allocations": len,
    "oracle.pareto_frontier": len,
}

SEARCHES = ("strategic.sp_falsify", "strategic.osp_falsify")
AXIOMS = ("axioms.check_pep", "axioms.check_pea", "axioms.check_ex_post",
          "axioms.check_ex_ante")

#: per-layer metric name -> unit, in report order
METRICS = {
    "instances.build_s": "s",
    "cli.self_s": "s",
    "strategic.sp_falsify.self_s": "s",
    "strategic.osp_falsify.self_s": "s",
    "strategic.searches": "count",
    "strategic.runs_per_search": "runs/search",
    "mechanisms.runs": "count",
    "mechanisms.allocate.self_s": "s",
    "mechanisms.orp_distribution.self_s": "s",
    "mechanisms.pareto_levels.self_s": "s",
    "mechanisms.leaves": "count",
    "mechanisms.us_per_leaf": "us",
    "core.distribution.self_s": "s",
    "core.marginals.self_s": "s",
    "core.expected_utilities.self_s": "s",
    "oracle.enumerate_allocations.self_s": "s",
    "oracle.allocations": "count",
    "oracle.pareto_frontier.self_s": "s",
    "oracle.frontier_share": "ratio",
    "oracle.pea_solution.self_s": "s",
    "axioms.check_pep.self_s": "s",
    "axioms.check_pea.self_s": "s",
    "axioms.check_ex_post.self_s": "s",
    "axioms.check_ex_ante.self_s": "s",
    "axioms.verdicts": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[4] = counter(result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every package reference to each target to its wrapper."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fairdiv" or key.startswith("fairdiv.")]
        for name, places in TARGETS.items():
            for owner, attr in places:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._rebind(owner, attr, raw, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapped)
                for key, value in list(axioms.CHECKERS.items()):
                    if value is original:
                        self._rebind(axioms.CHECKERS, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._set(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            self._set(owner, attr, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a new batch."""
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self times (s), counts and ratios of one batch of spans."""
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    runs_in_search = 0
    frontier_allocs = 0
    run_time = 0.0
    verdicts = 0
    for idx, (name, start, end, parent, count) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - children[idx]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + count
        up = spans[parent][0] if parent >= 0 else None
        if name == "mechanisms.run":
            runs_in_search += up in SEARCHES
            run_time += end - start
        if name == "oracle.enumerate_allocations" and up == "oracle.pareto_frontier":
            frontier_allocs += count
        if name in AXIOMS and up not in AXIOMS:
            verdicts += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    searches = sum(calls.get(s, 0) for s in SEARCHES)
    out = {
        "instances.build_s": self_time.get("instances.build", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "strategic.searches": searches,
        "strategic.runs_per_search": ratio(runs_in_search, searches),
        "mechanisms.runs": calls.get("mechanisms.run", 0),
        "mechanisms.leaves": counts.get("mechanisms.run", 0),
        "mechanisms.us_per_leaf": ratio(1e6 * run_time,
                                        counts.get("mechanisms.run", 0)),
        "oracle.allocations": counts.get("oracle.enumerate_allocations", 0),
        "oracle.frontier_share": ratio(counts.get("oracle.pareto_frontier", 0),
                                       frontier_allocs),
        "axioms.verdicts": verdicts,
    }
    for metric in METRICS:
        if metric.endswith(".self_s") and metric not in out:
            out[metric] = self_time.get(metric[:-len(".self_s")], 0.0)
    return out
