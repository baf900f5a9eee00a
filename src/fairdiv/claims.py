"""The paper's claims as library checks: the verdict table and the theorems.

`table_report` recomputes the verdict table (six online rules against the
strategy-proofness, envy-freeness and Pareto efficiency axioms, ex ante
and ex post) over labeled instance suites and compares every cell with
`EXPECTED_TABLE`. `theorem_checks` re-derives the library's named claims
from scratch. `check_axiom` is the one map from an axiom's command-line
name to its checker, shared by the table and `fairdiv check`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Mapping, Optional, Sequence

from .axioms import (
    CHECKERS,
    AxiomVerdict,
    check_befp,
    check_efa,
    check_envy_bounded,
    check_pea,
    check_pep,
    check_prefix_efa,
    check_sefa,
    efa_forced_marginals,
    ex_ante_equivalent,
    ex_post_equivalent,
)
from .core import (
    AllocationDistribution,
    BidProfile,
    PriorityOrder,
    Value,
    expected_utilities,
    format_value,
    marginals,
)
from .instances import (
    Labeled,
    counterexample_instances,
    random_suite,
    validate_domain,
    worked_example,
)
from .mechanisms import (
    Mechanism,
    _positive_bidders,
    balanced_like,
    get_mechanism,
    like,
    maximum_like,
    orp,
    osd,
    pareto_levels,
    pareto_like,
)
from .oracle import pareto_frontier, pea_solution, utility_vector
from .strategic import classify, osp_falsify, sp_falsify

COLUMNS = ("sp", "osp", "efa", "sefa", "efp", "sefp", "befp", "pea", "pep")
BLOCKS = ("general", "identical", "binary")
BLOCK_ROWS = {
    "general": ("orp", "osd", "maximum-like", "pareto-like", "like", "balanced-like"),
    "identical": ("like", "balanced-like"),
    "binary": ("like", "balanced-like"),
}


def _expected_row(cells: str) -> dict[str, tuple[bool, bool]]:
    out = {}
    for col, cell in zip(COLUMNS, cells.split()):
        out[col] = (cell.rstrip("*") == "+", cell.endswith("*"))
    return out


# verdict, with a star when the claim is quoted from earlier work rather
# than established by this library's own suites
EXPECTED_TABLE: dict[str, dict[str, dict[str, tuple[bool, bool]]]] = {
    "general": {
        "orp":           _expected_row("+  +  +  +  x  x  x  x  +"),
        "osd":           _expected_row("+  +  x  x  x  x  x  +  +"),
        "maximum-like":  _expected_row("x  x  x  x  x  x  x  +  +"),
        "pareto-like":   _expected_row("x  x  x  x  x  x  x  x  +"),
        "like":          _expected_row("+* +  +* +  x* x  x* x  x"),
        "balanced-like": _expected_row("x* +  x* x  x* x  x* x  x"),
    },
    "identical": {
        "like":          _expected_row("+* +  +* +  x* x  x  +  +"),
        "balanced-like": _expected_row("x  +  +  +  x* x  x  +  +"),
    },
    "binary": {
        "like":          _expected_row("+* +  +* +  x* x  x* +  +"),
        "balanced-like": _expected_row("x* +  +* x  x* x  +* +  +"),
    },
}


def check_axiom(name: str, dist: AllocationDistribution, *, bound: Value = 1,
                max_nodes: Optional[int] = None) -> AxiomVerdict:
    """Judge ``dist`` by the axiom named as on the command line: a key of
    `CHECKERS`, ``"envy-bounded"`` (at ``bound``) or ``"prefix-efa"``.
    ``max_nodes`` bounds the allocations that pea and pep enumerate."""
    if name == "envy-bounded":
        return check_envy_bounded(dist, bound=bound)
    if name == "prefix-efa":
        return check_prefix_efa(dist)
    if name in ("pea", "pep"):
        return CHECKERS[name](dist, max_nodes=max_nodes)
    return CHECKERS[name](dist)


def _first_failure(column: str, block: str, mech: Mechanism, suite: Sequence[Labeled],
                   runs: Sequence[tuple[str, AllocationDistribution]],
                   max_nodes: Optional[int]) -> Optional[tuple[str, dict]]:
    """The label and JSON witness of the first instance that breaks the
    column, or None when it holds on the whole suite."""
    if column in ("sp", "osp"):
        search = sp_falsify if column == "sp" else osp_falsify
        for label, inst in suite:
            found = search(mech, inst, max_nodes=max_nodes)
            if found is not None:
                return label, found.to_json()
        return None
    # befp is defined on 0/1 utilities; elsewhere the column checks its
    # relaxation, envy bounded by one item's worth (bound 1)
    axiom = "envy-bounded" if column == "befp" and block != "binary" else column
    for label, dist in runs:
        verdict = check_axiom(axiom, dist, max_nodes=max_nodes)
        if not verdict.holds:
            witness = {} if verdict.witness is None else verdict.witness.to_json()
            if verdict.margin is not None:
                witness["margin"] = format_value(verdict.margin)
            return label, witness
    return None


def _mark(holds: bool) -> str:
    return "+" if holds else "x"


def table_report(suites: Mapping[str, Sequence[Labeled]],
                 max_nodes: Optional[int] = None) -> dict:
    """Recompute the verdict table on each block's suite, in the mapping's
    order, and compare it with `EXPECTED_TABLE`.

    Each row runs its mechanism on the whole suite first, then evaluates
    the columns in order; a cell stops at its first failing instance. The
    report is what ``fairdiv table --json`` prints: the columns, per block
    its instance count and rows of cells, the mismatches, and whether all
    cells match.
    """
    blocks: dict[str, dict] = {}
    mismatches: list[dict] = []
    for block, suite in suites.items():
        rows = []
        for name in BLOCK_ROWS[block]:
            mech = get_mechanism(name)
            runs = [(label, mech.run(inst, max_nodes=max_nodes)) for label, inst in suite]
            cells = {}
            for column in COLUMNS:
                failure = _first_failure(column, block, mech, suite, runs, max_nodes)
                holds = failure is None
                label, witness = failure or (None, None)
                expected, prior = EXPECTED_TABLE[block][name][column]
                matches = holds == expected
                cells[column] = {
                    "verdict": _mark(holds),
                    "expected": _mark(expected),
                    "matches": matches,
                    "source": "prior work" if prior else "established here",
                    "witness_instance": label,
                    "witness": witness,
                }
                if not matches:
                    mismatches.append({
                        "block": block,
                        "mechanism": name,
                        "column": column,
                        "expected": _mark(expected),
                        "computed": _mark(holds),
                        "witness_instance": label,
                    })
            rows.append({"mechanism": name, "cells": cells})
        blocks[block] = {"instances": len(suite), "rows": rows}
    return {"columns": list(COLUMNS), "blocks": blocks,
            "mismatches": mismatches, "all_match": not mismatches}


def _theorem_suites(seed: int):
    base = counterexample_instances()
    mixed = base + random_suite(12, seed)
    identical = ([(l, i) for l, i in base if validate_domain(i, "identical-cardinal")]
                 + random_suite(8, seed + 1, domains=("identical-cardinal",)))
    binary = ([(l, i) for l, i in base if validate_domain(i, "binary")]
              + random_suite(8, seed + 2, domains=("binary",)))
    positive = [(l, i) for l, i in mixed
                if all(x > 0 for row in i.utilities for x in row)]
    return mixed, identical, binary, positive


def theorem_checks(seed: int, max_nodes: Optional[int]) -> list[dict]:
    """Check the 13 named claims on suites drawn from ``seed``; each check
    is ``{"name", "ok", "note"}``, in the order ``fairdiv theorems`` prints."""
    mixed, identical, binary, positive = _theorem_suites(seed)
    checks: list[dict] = []

    def add(name: str, ok: bool, note: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "note": note})

    # 1: the engine's incremental frontier agrees with brute-force search,
    # and the frontier rule's support is exactly the enumerated frontier
    ok = True
    pl = pareto_like()
    for _, inst in mixed:
        bids = BidProfile.sincere(inst)
        levels, viable = pareto_levels(bids, _positive_bidders(bids))
        for j in range(1, inst.m + 1):
            sub = inst.prefix(j)
            brute = {utility_vector(a, sub.utilities)
                     for a in pareto_frontier(sub, max_nodes=max_nodes)}
            ok = ok and set(levels[j - 1]) == brute
            ok = ok and viable[j - 1] <= brute
        support = {a.owners for a in pl.run(inst, max_nodes=max_nodes).support()}
        front = {a.owners for a in pareto_frontier(inst, max_nodes=max_nodes)}
        ok = ok and support == front
    add("pareto-frontier-routes-agree", ok,
        f"incremental vs enumerated frontiers on {len(mixed)} instances, all prefixes")

    # 2: honesty is optimal exactly for sign-only, history-free rules
    expected_profiles = {
        "osd": (True, True), "orp": (True, True), "like": (True, True),
        "balanced-like": (True, False), "maximum-like": (False, True),
        "pareto-like": (False, False),
    }
    bad = []
    for name, flags in expected_profiles.items():
        prof = classify(get_mechanism(name), mixed, max_nodes=max_nodes)
        if (prof.step, prof.memoryless) != flags or not prof.characterization_consistent:
            bad.append(name)
    add("honesty-needs-sign-and-history-independence", not bad,
        "profiles diverge for: " + ", ".join(bad) if bad else
        f"six mechanisms profiled on {len(mixed)} instances")

    # 3: the direct uniform-priority evaluation equals the explicit mixture
    ok = True
    for _, inst in mixed:
        fact = math.factorial(inst.n)
        parts = [(osd(PriorityOrder(p)).run(inst, max_nodes=max_nodes), Fraction(1, fact))
                 for p in permutations(range(inst.n))]
        ok = ok and AllocationDistribution.mix(parts).entries == orp().run(
            inst, max_nodes=max_nodes).entries
    add("priority-mixture-equals-direct-average", ok,
        f"checked on {len(mixed)} instances")

    # 4: every positive bidder gets an equal share of each item
    ok = True
    for _, inst in mixed:
        p = marginals(like().run(inst, max_nodes=max_nodes))
        for j in range(inst.m):
            pos = [i for i in range(inst.n) if inst.utility(i, j) > 0]
            for i in range(inst.n):
                want = Fraction(1, len(pos)) if i in pos else 0
                ok = ok and p.entry(i, j) == want
        ok = ok and ex_ante_equivalent(like(), orp(), inst, max_nodes=max_nodes)
    add("positive-bidders-share-items-equally", ok,
        f"marginals and the uniform-priority match on {len(mixed)} instances")

    # 5: equal sharing is envy-free ex ante, including the strong variant
    ok = True
    for mech in (like(), orp()):
        for _, inst in mixed:
            dist = mech.run(inst, max_nodes=max_nodes)
            ok = ok and check_efa(dist).holds and check_sefa(dist).holds
    add("uniform-sharing-is-envy-free-ex-ante", ok,
        f"both sharing rules on {len(mixed)} instances")

    # 6: bundle balancing caps envy at one item on 0/1 utilities; plain
    #    sharing does not
    bl_ok = all(check_befp(balanced_like().run(i, max_nodes=max_nodes)).holds
                for _, i in binary)
    like_breaks = any(not check_befp(like().run(i, max_nodes=max_nodes)).holds
                      for _, i in binary)
    add("balanced-bundles-bound-envy-on-binary", bl_ok and like_breaks,
        f"{len(binary)} binary instances; unbalanced sharing exceeds the bound")

    # 7: dictatorships and highest-bidder rules are efficient both ways
    ok = True
    for _, inst in mixed:
        mechs = (osd(), osd(tuple(reversed(range(inst.n)))), maximum_like())
        for mech in mechs:
            dist = mech.run(inst, max_nodes=max_nodes)
            ok = (ok and check_pea(dist, max_nodes=max_nodes).holds
                  and check_pep(dist, max_nodes=max_nodes).holds)
    add("dictatorships-and-top-bidders-are-efficient", ok,
        f"two priority orders and the top-bidder rule on {len(mixed)} instances")

    # 8: the frontier rule never outputs a dominated allocation, yet its
    #    lottery can be dominated
    pep_ok = all(check_pep(pareto_like().run(i, max_nodes=max_nodes),
                           max_nodes=max_nodes).holds for _, i in mixed)
    pea_breaks = any(not check_pea(pareto_like().run(i, max_nodes=max_nodes),
                                   max_nodes=max_nodes).holds for _, i in mixed)
    add("frontier-rule-is-efficient-ex-post-only", pep_ok and pea_breaks,
        f"{len(mixed)} instances; at least one lottery improvement found")

    # 9: item-by-item envy-freeness pins marginals to equal shares when
    #    everyone likes everything
    ok = True
    for _, inst in positive:
        dist = like().run(inst, max_nodes=max_nodes)
        ok = (ok and check_prefix_efa(dist).holds
              and marginals(dist) == efa_forced_marginals(inst))
    add("stepwise-envy-freeness-forces-equal-shares", ok,
        f"{len(positive)} all-positive instances")

    # 10: those forced equal shares can be dominated, so stepwise envy-free
    #     and ex ante efficient are incompatible
    inst, _ = worked_example(1)
    forced = efa_forced_marginals(inst)
    own = expected_utilities(forced, inst.utilities).own()
    sol = pea_solution(own, inst, max_nodes=max_nodes)
    ok = own == (Fraction(3, 2), Fraction(3, 2)) and sol.objective == 1
    dl = like().run(inst, max_nodes=max_nodes)
    ok = ok and check_prefix_efa(dl).holds and not check_pea(dl, max_nodes=max_nodes).holds
    for mech in (osd(), maximum_like()):
        d = mech.run(inst, max_nodes=max_nodes)
        ok = (ok and check_pea(d, max_nodes=max_nodes).holds
              and not check_prefix_efa(d).holds)
    add("equal-shares-conflict-with-ex-ante-efficiency", ok,
        "forced shares lose total utility 1 to a lottery on the swap instance")

    # 11: with zero utilities allowed, envy-freeness ex ante does not pin
    #     down the marginals
    inst2, tilted = worked_example(2)
    d2 = tilted.run(inst2, max_nodes=max_nodes)
    ok = (check_efa(d2).holds
          and marginals(d2) != marginals(like().run(inst2, max_nodes=max_nodes)))
    add("tilted-variant-stays-envy-free-ex-ante", ok,
        "hand-tilted sharing keeps envy-freeness with different marginals")

    # 12: changing one instance's outcome can break efficiency outright
    inst4, patched = worked_example(4)
    d4 = patched.run(inst4, max_nodes=max_nodes)
    v_pep = check_pep(d4, max_nodes=max_nodes)
    v_pea = check_pea(d4, max_nodes=max_nodes)
    ok = (not v_pep.holds) and (not v_pea.holds) and v_pea.margin == Fraction(3, 4)
    add("one-instance-exception-breaks-efficiency", ok,
        "patched top-bidder rule is dominated ex post and ex ante")

    # 13: with identical utilities the rules collapse and become efficient
    ok = True
    for _, inst in identical:
        ok = ok and ex_post_equivalent(like(), pareto_like(), inst, max_nodes=max_nodes)
        ok = ok and ex_post_equivalent(like(), maximum_like(), inst, max_nodes=max_nodes)
        ok = ok and ex_ante_equivalent(like(), balanced_like(), inst, max_nodes=max_nodes)
        for mech in (like(), balanced_like()):
            d = mech.run(inst, max_nodes=max_nodes)
            ok = (ok and check_pea(d, max_nodes=max_nodes).holds
                  and check_pep(d, max_nodes=max_nodes).holds)
    add("identical-preferences-collapse-the-rules", ok,
        f"{len(identical)} identical-utility instances")

    return checks
