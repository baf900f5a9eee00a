"""The benchmark's four workloads.

``WORKLOADS[name](seed, size)`` makes a workload's inputs and returns its
operations. An operation's ``call`` is the program's work and is timed; its
``check`` takes what the call returned (or the exception it raised) and
returns a list of problems, found with ``verify``'s own exact arithmetic or
with properties the paper's rules must have. Checks run outside the timed
part.

Every workload draws its instances at fixed seeds, and ``--seed`` relabels
the agents and items of each drawn instance. A relabeled instance is a new
input with the same amount of work, so runs with different seeds measure the
same job. Instances drawn afresh per seed change the job itself: at the
same size and shape mix, the table's like/sp cell alone took 1.5-2.4 s
across three seeds.

Program functions are looked up on the package at call time (``fd.x``),
so the per-layer tracer's rebinding reaches them.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import product
from typing import Callable

import fairdiv as fd

import verify

#: seed of every fixed draw; ``--seed`` only relabels what is drawn with it
POOL_SEED = 20240807


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def relabel(rows, rng: random.Random) -> tuple:
    """The matrix with its agents (rows) and items (columns) shuffled."""
    agents = rng.sample(range(len(rows)), len(rows))
    items = rng.sample(range(len(rows[0])), len(rows[0]))
    return tuple(tuple(rows[i][j] for j in items) for i in agents)


def _entries(dist) -> list:
    return [(alloc.owners, prob) for alloc, prob in dist]


def _run(mech: str, values, bids) -> list:
    """Runner for witness re-checks: the engine's distribution on ``bids``."""
    inst = fd.Instance(tuple(tuple(r) for r in values))
    return _entries(fd.get_mechanism(mech).run(inst, fd.BidProfile(tuple(tuple(r) for r in bids))))


def _failed(out) -> list:
    return [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else []


def _domain_instances(seed: int, shapes, per: int) -> list[tuple[str, str, object]]:
    """(domain, label, instance): ``per`` instances of every domain and shape,
    drawn at fixed seeds and relabeled by ``seed``."""
    draw, shuffle = random.Random(POOL_SEED), random.Random(seed)
    out = []
    for domain in fd.DOMAIN_NAMES:
        for n, m in shapes:
            for k in range(per):
                inst = fd.generate(fd.DomainSpec(domain, n, m, seed=draw.randrange(1 << 30)))
                out.append((domain, f"{domain}-{n}x{m}-{k}",
                            fd.Instance(relabel(inst.utilities, shuffle))))
    return out


# --- verdict-table -------------------------------------------------------------

# The paper's verdict table (x: the property fails, +: it holds), one row per
# mechanism and block, columns as printed by `fairdiv table`.
PAPER_COLUMNS = ("sp", "osp", "efa", "sefa", "efp", "sefp", "befp", "pea", "pep")
PAPER_TABLE = {
    "general": {
        "orp":           "+ + + + x x x x +",
        "osd":           "+ + x x x x x + +",
        "maximum-like":  "x x x x x x x + +",
        "pareto-like":   "x x x x x x x x +",
        "like":          "+ + + + x x x x x",
        "balanced-like": "x + x x x x x x x",
    },
    "identical": {
        "like":          "+ + + + x x x + +",
        "balanced-like": "x + + + x x x + +",
    },
    "binary": {
        "like":          "+ + + + x x x + +",
        "balanced-like": "x + + x x x + + +",
    },
}

TABLE_PER_BLOCK = {"full": 20, "tiny": 0}


def table_manifest(seed: int, per_block: int) -> tuple[dict, dict]:
    """The default manifest at ``per_block`` instances per block, with every
    random-fill instance relabeled by ``seed``, and each block's utilities by
    label. The targeted instances keep their place at the head of each block:
    they carry every x cell's witness, so the searches stop on them."""
    shuffle = random.Random(seed)
    blocks, values = {}, {}
    for block, entries in fd.build_table_manifest(per_block)["blocks"].items():
        blocks[block], values[block] = [], {}
        for entry in entries:
            if "random" in entry:
                for label, inst in fd.instances.expand_entries([entry]):
                    rows = relabel(inst.utilities, shuffle)
                    blocks[block].append({"label": label, "utilities": [
                        [fd.format_value(x) for x in row] for row in rows]})
            else:
                blocks[block].append(entry)
        for entry in blocks[block]:
            values[block][entry["label"]] = tuple(
                tuple(verify.parse_value(str(x)) for x in row) for row in entry["utilities"])
    return {"blocks": blocks}, values


def _table_call(cli, text: str) -> Callable[[], tuple]:
    def call():
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = cli.main(["table", "--json", "--manifest", "-"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()
    return call


def _table_check(values: dict) -> Callable[[object], list]:
    def check(out) -> list:
        if isinstance(out, Exception):
            return _failed(out)
        code, text = out
        report = json.loads(text)
        problems = []
        if code != 0 or not report["all_match"] or report["mismatches"]:
            problems.append(f"table exit {code}, mismatches {report['mismatches']}")
        if list(report["blocks"]) != list(PAPER_TABLE):
            problems.append(f"blocks {list(report['blocks'])}")
        for block, info in report["blocks"].items():
            labeled = values.get(block, {})
            if info["instances"] != len(labeled):
                problems.append(f"{block}: {info['instances']} instances, manifest has {len(labeled)}")
            paper = PAPER_TABLE.get(block, {})
            if [row["mechanism"] for row in info["rows"]] != list(paper):
                problems.append(f"{block}: rows differ from the paper's")
            for row in info["rows"]:
                mech = row["mechanism"]
                want = dict(zip(PAPER_COLUMNS, paper.get(mech, "").split()))
                for column, cell in row["cells"].items():
                    where = f"{block}/{mech}/{column}"
                    if cell["verdict"] != want.get(column):
                        problems.append(f"{where}: {cell['verdict']} but the paper has {want.get(column)}")
                    if cell["verdict"] != "x":
                        continue
                    if cell["witness_instance"] not in labeled or not cell["witness"]:
                        problems.append(f"{where}: no witness on a manifest instance")
                        continue
                    rows = labeled[cell["witness_instance"]]
                    entries = [] if column in ("sp", "osp") else _run(mech, rows, rows)
                    found = verify.witness_problems(column, mech, rows, entries, cell["witness"],
                                                    cell["witness"].get("margin"), _run)
                    problems.extend(f"{where}: {p}" for p in found)
        return problems
    return check


def build_verdict_table(seed: int, size: str) -> list[Op]:
    from fairdiv import cli
    manifest, values = table_manifest(seed, TABLE_PER_BLOCK[size])
    return [Op("table", _table_call(cli, json.dumps(manifest)), _table_check(values))]


# --- frontier-audit --------------------------------------------------------------

# ACCEPTANCE 3's shapes: integer utilities 0..3, every column with a positive
# entry. The small shapes are enumerated in full (a set that relabeling maps
# onto itself); 3x4 is sampled at a fixed seed and relabeled.
EXHAUSTIVE = {"full": ((2, 2), (2, 3), (3, 2)), "tiny": ((2, 2),)}
SAMPLE = {"full": 600, "tiny": 20}
SAMPLE_SHAPE = (3, 4)
DEEP_SAMPLE = 100  # sampled instances whose frontier is also recomputed here


def _grid_columns(n: int) -> list[tuple]:
    return [c for c in product(range(4), repeat=n) if any(c)]


def _own_frontier(values) -> set:
    """Undominated non-wasteful allocations, by enumeration and pairwise test."""
    options = [verify.positive_bidders(values, j) or (None,) for j in range(len(values[0]))]
    allocs = list(product(*options))
    vectors = [verify.own_vector(a, values) for a in allocs]
    return {a for a, v in zip(allocs, vectors)
            if not any(verify.dominates(w, v) for w in vectors)}


def _frontier_call(mech, inst) -> Callable[[], tuple]:
    return lambda: (mech.run(inst), fd.pareto_frontier(inst))


def _frontier_check(inst, deep: bool) -> Callable[[object], list]:
    def check(out) -> list:
        if isinstance(out, Exception):
            return _failed(out)
        dist, front = out
        entries = _entries(dist)
        support = {owners for owners, _ in entries}
        problems = verify.distribution_problems(entries, inst.n, inst.m)
        if support != {a.owners for a in front}:
            problems.append(f"support differs from the frontier on {inst.utilities}")
        if deep and support != _own_frontier(inst.utilities):
            problems.append(f"support differs from the recomputed frontier on {inst.utilities}")
        return problems
    return check


def build_frontier_audit(seed: int, size: str) -> list[Op]:
    mech = fd.pareto_like()
    ops = []
    for n, m in EXHAUSTIVE[size]:
        instances = [fd.Instance(tuple(zip(*cols))) for cols in product(_grid_columns(n), repeat=m)]
        if len(instances) != (4 ** n - 1) ** m:
            raise RuntimeError(f"{n}x{m}: {len(instances)} instances")
        deep = (n, m) == (2, 2)
        ops += [Op(f"{n}x{m}", _frontier_call(mech, inst), _frontier_check(inst, deep))
                for inst in instances]
    draw, shuffle = random.Random(POOL_SEED), random.Random(seed)
    pool = _grid_columns(SAMPLE_SHAPE[0])
    for k in range(SAMPLE[size]):
        cols = [draw.choice(pool) for _ in range(SAMPLE_SHAPE[1])]
        inst = fd.Instance(relabel(tuple(zip(*cols)), shuffle))
        ops.append(Op("3x4", _frontier_call(mech, inst), _frontier_check(inst, k < DEEP_SAMPLE)))
    return ops


# --- axiom-audit -----------------------------------------------------------------

AXIOM_SHAPES = {"full": ((2, 4), (2, 5), (3, 4)), "tiny": ((2, 4),)}
AXIOM_PER = {"full": 2, "tiny": 1}
# every checker of `fairdiv check --axiom all`, plus prefix-efa
AXIOM_PLAN = ("efp", "efa", "sefp", "sefa", "befp", "pea", "pep", "prefix-efa")
MUST_HOLD = {
    "like": ("efa", "sefa"),
    "orp": ("efa", "sefa"),
    "osd": ("pep", "pea"),
    "maximum-like": ("pep", "pea"),
    "pareto-like": ("pep",),
}


def _axiom_call(name: str, inst, plan) -> Callable[[], tuple]:
    def call():
        dist = fd.get_mechanism(name).run(inst)
        checkers = fd.axioms.CHECKERS
        verdicts = [(a, fd.check_prefix_efa(dist) if a == "prefix-efa" else checkers[a](dist))
                    for a in plan]
        return dist, verdicts
    return call


def _axiom_check(name: str, inst) -> Callable[[object], list]:
    values = inst.utilities

    def check(out) -> list:
        if isinstance(out, Exception):
            return _failed(out)
        dist, verdicts = out
        entries = _entries(dist)
        problems = verify.distribution_problems(entries, inst.n, inst.m)
        for axiom, verdict in verdicts:
            if not verdict.holds and axiom in MUST_HOLD.get(name, ()):
                problems.append(f"{axiom} fails")
            if axiom == "pea" and verdict.holds and verdict.margin != 0:
                problems.append(f"pea holds with margin {verdict.margin}")
            if axiom == "efa":
                own = verify.efa_margin(verify.marginals_by_sum(entries, inst.n, inst.m), values)
                if verdict.margin != own:
                    problems.append(f"efa margin {verdict.margin} != recomputed {own}")
            if not verdict.holds:
                payload = verdict.to_json()
                found = verify.witness_problems(axiom, name, values, entries,
                                                payload["witness"], payload["margin"], _run)
                problems.extend(f"{axiom}: {p}" for p in found)
        return problems
    return check


def build_axiom_audit(seed: int, size: str) -> list[Op]:
    ops = []
    for _, label, inst in _domain_instances(seed, AXIOM_SHAPES[size], AXIOM_PER[size]):
        plan = [a for a in AXIOM_PLAN if a != "befp" or fd.validate_domain(inst, "binary")]
        for name in fd.MECHANISM_NAMES:
            ops.append(Op(f"{label}/{name}", _axiom_call(name, inst, plan), _axiom_check(name, inst)))
    return ops


# --- expand-large -----------------------------------------------------------------

EXPAND_SHAPES = {"full": ((3, 5), (3, 6), (4, 5), (4, 6)), "tiny": ((3, 5),)}
# pareto-like on the identical domains at 4x6 takes 5-27 s per instance, over
# 90 % of it in pareto_levels: more than the rest of the workload together, so
# a run would hold one round and follow the machine's drift. At 4x5 the
# quadratic pareto_levels still takes over 90 % of pareto-like's time.
LEFT_OUT = {("pareto-like", domain, 4, 6) for domain in ("identical-cardinal", "identical-ordinal")}
# balanced-like on 4x10 all-positive instances: the real tree has 6,912
# leaves, but allocate bounds the product of branch widths (4^10) first and
# raises WorkBoundExceeded. Not relabeled, so every run fails them alike.
BOUNDED = (("nonzero", 4, 10), ("borda", 4, 10))


def _expand_call(mech, inst) -> Callable[[], tuple]:
    def call():
        dist = mech.run(inst)
        p = fd.marginals(dist)
        return dist, p, fd.expected_utilities(p, inst.utilities)
    return call


def _expand_check(name: str, inst) -> Callable[[object], list]:
    values = inst.utilities
    n, m = inst.n, inst.m

    def check(out) -> list:
        if isinstance(out, Exception):
            return _failed(out)
        dist, p, ubar = out
        entries = _entries(dist)
        problems = verify.distribution_problems(entries, n, m)
        own_p = verify.marginals_by_sum(entries, n, m)
        if [list(r) for r in p.p] != own_p:
            problems.append("marginals differ from the summed support")
        if [list(r) for r in ubar.ubar] != verify.expected_matrix(own_p, values):
            problems.append("expected utilities differ from the recomputed ones")
        closed = verify.CLOSED_FORM_MARGINALS.get(name)
        if closed is not None and own_p != closed(values):
            problems.append(f"{name} marginals differ from the closed form")
        if name == "like" and len(entries) != verify.like_support_size(values):
            problems.append("like's support is not the product of positive-bidder counts")
        if name == "osd" and entries != [(verify.serial_dictatorship(values, range(n)), 1)]:
            problems.append("osd differs from serial dictatorship")
        if name == "pareto-like" and all(row == values[0] for row in values):
            # like's support is every non-wasteful allocation, uniformly
            size = verify.like_support_size(values)
            if (len(entries) != size or any(prob * size != 1 for _, prob in entries)
                    or not all(verify.non_wasteful(owners, values) for owners, _ in entries)):
                problems.append("pareto-like differs from like on identical utilities")
        if name == "balanced-like" and all(x > 0 for row in values for x in row):
            for owners, _ in entries:
                sizes = [owners.count(i) for i in range(n)]
                if max(sizes) - min(sizes) > 1:
                    problems.append(f"unbalanced bundles {sizes}")
                    break
        return problems
    return check


def _bounded_check(inst) -> Callable[[object], list]:
    balanced = _expand_check("balanced-like", inst)

    def check(out) -> list:
        if isinstance(out, fd.WorkBoundExceeded):
            return []
        return balanced(out)
    return check


def build_expand_large(seed: int, size: str) -> list[Op]:
    ops = []
    for domain, label, inst in _domain_instances(seed, EXPAND_SHAPES[size], 1):
        for name in fd.MECHANISM_NAMES:
            if (name, domain, inst.n, inst.m) in LEFT_OUT:
                continue
            ops.append(Op(f"{label}/{name}", _expand_call(fd.get_mechanism(name), inst),
                          _expand_check(name, inst)))
    for domain, n, m in BOUNDED:
        inst = fd.generate(fd.DomainSpec(domain, n, m, seed=POOL_SEED))
        ops.append(Op(f"{domain}-{n}x{m}/balanced-like",
                      _expand_call(fd.balanced_like(), inst), _bounded_check(inst)))
    return ops


WORKLOADS = {
    "verdict-table": build_verdict_table,
    "frontier-audit": build_frontier_audit,
    "axiom-audit": build_axiom_audit,
    "expand-large": build_expand_large,
}
