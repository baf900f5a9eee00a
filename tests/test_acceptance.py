"""Acceptance gate: one test and one printed verdict line per criterion.

Every criterion recomputes its claim from scratch, exactly, and carries a
wall-clock budget; the printed lines survive pytest's capture so a plain
run shows the per-criterion outcomes.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import product

from test_properties import PROPERTIES

from fairdiv import (
    PriorityOrder,
    Instance,
    balanced_like,
    classify,
    efa_forced_marginals,
    expected_utilities,
    get_mechanism,
    like,
    marginals,
    maximum_like,
    orp,
    osd,
    osp_falsify,
    pareto_frontier,
    pareto_like,
    pea_solution,
    random_suite,
    sp_falsify,
    worked_example,
)
from fairdiv.cli import main

SWAP = worked_example(1)[0]
CLOSE = worked_example(3)[0]


@contextmanager
def criterion(capsys, num, desc, budget=None):
    started = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        in_budget = budget is None or elapsed < budget
        state = "PASS" if ok and in_budget else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {state} - {desc} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"


def owners_dist(mech, inst, **kw):
    return {a.owners: p for a, p in mech.run(inst, **kw)}


def owners_support(mech, inst):
    return {a.owners for a in mech.run(inst).support()}


def test_criterion_01_swap_instance_distributions(capsys):
    with criterion(capsys, 1, "all six mechanisms exact on the swap instance", 1.0):
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        assert owners_dist(osd(), SWAP) == {(0, 0): 1}
        assert owners_dist(osd((1, 0)), SWAP) == {(1, 1): 1}
        assert owners_dist(orp(), SWAP) == {(0, 0): half, (1, 1): half}
        assert owners_dist(like(), SWAP) == {
            (0, 0): quarter, (0, 1): quarter, (1, 0): quarter, (1, 1): quarter,
        }
        assert owners_dist(balanced_like(), SWAP) == {(0, 1): half, (1, 0): half}
        assert owners_dist(maximum_like(), SWAP) == {(1, 0): 1}
        assert owners_dist(pareto_like(), SWAP) == {
            (0, 0): half, (1, 1): quarter, (1, 0): quarter,
        }


def test_criterion_02_split_allocation_reachability(capsys):
    with criterion(capsys, 2, "only the frontier rule reaches the split"
                             " allocation on the close-values instance", 1.0):
        split = (0, 1)
        assert split in owners_support(pareto_like(), CLOSE)
        for mech in (osd(), osd((1, 0)), orp(), maximum_like()):
            assert split not in owners_support(mech, CLOSE), mech.name


def _columns(n):
    return [c for c in product(range(4), repeat=n) if any(c)]


def test_criterion_03_support_equals_frontier(capsys):
    desc = "frontier-rule support equals the enumerated frontier on small grids"
    with criterion(capsys, 3, desc, 300.0):
        mech = pareto_like()

        def agrees(inst):
            support = {a.owners for a in mech.run(inst).support()}
            front = {a.owners for a in pareto_frontier(inst)}
            assert support == front, inst

        exhaustive = {(2, 2): 225, (2, 3): 3375, (3, 2): 3969,
                      (2, 4): 50625, (3, 3): 250047}
        for (n, m), expected_count in exhaustive.items():
            pool = _columns(n)
            count = 0
            for cols in product(pool, repeat=m):
                agrees(Instance(tuple(zip(*cols))))
                count += 1
            assert count == expected_count
        # the remaining shape has ~16M instances; a fixed-seed sample stands in
        rng = random.Random(20240806)
        pool = _columns(3)
        for _ in range(60000):
            cols = tuple(rng.choice(pool) for _ in range(4))
            agrees(Instance(tuple(zip(*cols))))


def test_criterion_04_sharing_rules_agree_on_marginals(capsys):
    desc = "uniform-priority and equal-sharing marginals agree on 500 instances"
    with criterion(capsys, 4, desc, 120.0):
        suite = random_suite(500, seed=20240804, n_range=(2, 4), m_range=(2, 5))
        for label, inst in suite:
            assert marginals(orp().run(inst)) == marginals(like().run(inst)), label


def test_criterion_05_strategic_profile_matrix(capsys):
    desc = "behavioral probes and deviation searches match the expected matrix"
    with criterion(capsys, 5, desc, 600.0):
        probe_suite = [("swap", SWAP), ("identical", Instance(((1, 2), (1, 2))))]
        expected_flags = {
            "osd": (True, True), "orp": (True, True), "like": (True, True),
            "balanced-like": (True, False), "maximum-like": (False, True),
            "pareto-like": (False, False),
        }
        for name, flags in expected_flags.items():
            prof = classify(get_mechanism(name), probe_suite)
            assert (prof.step, prof.memoryless) == flags, name
            assert prof.characterization_consistent, name

        # the manipulable rules admit explicit deviations
        for mech in (maximum_like(), pareto_like()):
            assert sp_falsify(mech, SWAP) is not None, mech.name
            assert osp_falsify(mech, SWAP) is not None, mech.name
        assert sp_falsify(balanced_like(), Instance(((1, 2), (1, 2)))) is not None

        # the honest rules survive a 500-instance scan; bundle balancing
        # additionally survives all single-item lies
        scan = random_suite(500, seed=20240805)
        for mech in (osd(), orp(), like()):
            for label, inst in scan:
                assert sp_falsify(mech, inst) is None, (mech.name, label)
                assert osp_falsify(mech, inst) is None, (mech.name, label)
        for label, inst in scan:
            assert osp_falsify(balanced_like(), inst) is None, label


def test_criterion_06_forced_shares_are_dominated(capsys):
    desc = "item-wise envy-freeness forces half shares that a lottery dominates"
    with criterion(capsys, 6, desc, 1.0):
        forced = efa_forced_marginals(SWAP)
        assert all(x == Fraction(1, 2) for row in forced.p for x in row)
        own = expected_utilities(forced, SWAP.utilities).own()
        assert own == (Fraction(3, 2), Fraction(3, 2))
        assert pea_solution(own, SWAP).objective != 0
        assert pea_solution(own, SWAP).objective == 1


def test_criterion_07_verdict_table_reproduces(capsys):
    desc = "the default verdict table reproduces with witnesses on every failure"
    with criterion(capsys, 7, desc, 900.0):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["table", "--json"])
        assert code == 0
        report = json.loads(buffer.getvalue())
        assert report["all_match"] and report["mismatches"] == []
        assert set(report["blocks"]) == {"general", "identical", "binary"}
        for info in report["blocks"].values():
            assert info["instances"] >= 200
            for row in info["rows"]:
                for cell in row["cells"].values():
                    assert cell["matches"]
                    if cell["verdict"] == "x":
                        assert cell["witness_instance"]
                        assert cell["witness"] is not None


def test_criterion_08_randomized_invariants(capsys):
    desc = "six randomized invariant suites, 1000 cases each"
    with criterion(capsys, 8, desc):
        for prop in PROPERTIES:
            bad, hits = prop(1000)
            assert not bad, (prop.__name__, bad[:3])
            assert hits > 0, prop.__name__
