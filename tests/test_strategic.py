"""Deviation searches and behavioral probes, with re-simulated witnesses."""

import itertools
from fractions import Fraction

import pytest

from fairdiv import (
    BidGrid,
    BidProfile,
    ConstructedMechanism,
    Deviation,
    Instance,
    MECHANISM_NAMES,
    ProbeWitness,
    WorkBoundExceeded,
    as_value,
    balanced_like,
    bundle_utility,
    classify,
    get_mechanism,
    like,
    marginals,
    maximum_like,
    memoryless_probe,
    orp,
    osd,
    osp_falsify,
    pareto_like,
    sp_falsify,
    step_probe,
    worked_example,
)
from test_mechanisms import reference_run, seeded_cases

SWAP = Instance(((1, 2), (2, 1)))


def expected_true_value(dist, agent, utilities):
    return sum(p * bundle_utility(a, agent, agent, utilities) for a, p in dist)


def resimulate(mech, instance, deviation):
    """Replay a row deviation and return the liar's expected true utility."""
    bids = BidProfile.sincere(instance).replace_row(deviation.agent, deviation.bid_row)
    dist = mech.run(instance, bids)
    return expected_true_value(dist, deviation.agent, instance.utilities)


def test_bid_grid_contents():
    grid = BidGrid()
    assert grid.values(SWAP, 0, 0) == (0, Fraction(1, 2), 1, 2, 4)
    assert grid.values(SWAP, 1, 1) == (0, Fraction(1, 2), 1, 2, 4)
    wide = BidGrid(extra=(7,))
    assert 7 in wide.values(SWAP, 0, 0)
    with pytest.raises(ValueError):
        BidGrid(extra=(-1,)).values(SWAP, 0, 0)


def test_honest_mechanisms_have_no_row_deviation():
    for mech in (osd(), orp(), like()):
        assert sp_falsify(mech, SWAP) is None
        assert osp_falsify(mech, SWAP) is None


def test_maximum_like_row_deviation():
    d = sp_falsify(maximum_like(), SWAP)
    assert d is not None
    assert d.agent == 0
    assert d.bid_row == (2, 2)
    assert d.sincere_value == 2 and d.deviant_value == Fraction(5, 2)
    assert d.gain == Fraction(1, 2)
    assert resimulate(maximum_like(), SWAP, d) == d.deviant_value


def test_pareto_like_row_deviation():
    d = sp_falsify(pareto_like(), SWAP)
    assert d is not None
    assert d.agent == 1
    assert d.bid_row == (Fraction(1, 2), 1)
    assert d.sincere_value == Fraction(5, 4) and d.deviant_value == Fraction(3, 2)
    assert resimulate(pareto_like(), SWAP, d) == d.deviant_value


def test_balanced_like_needs_multiple_items_to_lie_profitably():
    single = Instance(((1,), (2,)))
    assert sp_falsify(balanced_like(), single) is None
    ident = Instance(((1, 2), (1, 2)))
    d = sp_falsify(balanced_like(), ident)
    assert d is not None
    assert d.agent == 0 and d.bid_row == (0, Fraction(1, 2))
    assert d.sincere_value == Fraction(3, 2) and d.deviant_value == 2
    assert resimulate(balanced_like(), ident, d) == 2


def test_balanced_like_binary_row_deviation():
    inst = Instance(((1, 1, 1), (1, 1, 0), (1, 0, 1)))
    d = sp_falsify(balanced_like(), inst)
    assert d is not None
    assert d.sincere_value == Fraction(13, 12)
    assert d.deviant_value == Fraction(9, 8)
    assert resimulate(balanced_like(), inst, d) == Fraction(9, 8)


def test_balanced_like_has_no_single_item_deviation():
    # underbidding pays only through its later balancing effect, which the
    # at-the-moment comparison does not credit
    for inst in (SWAP, Instance(((1, 2), (1, 2)))):
        assert osp_falsify(balanced_like(), inst) is None


def test_maximum_like_single_item_deviation():
    d = osp_falsify(maximum_like(), SWAP)
    assert d is not None
    assert d.agent == 0 and d.item == 0
    assert d.bid_row == (2, 2)
    assert d.sincere_value == 0 and d.deviant_value == Fraction(1, 2)


def test_pareto_like_single_item_deviation():
    d = osp_falsify(pareto_like(), SWAP)
    assert d is not None
    assert d.agent == 1 and d.item == 1
    assert d.bid_row == (2, 4)
    assert d.sincere_value == Fraction(5, 4) and d.deviant_value == Fraction(3, 2)


def test_step_probes():
    for mech in (osd(), orp(), like(), balanced_like()):
        assert step_probe(mech, SWAP) is None, mech.name
    w = step_probe(maximum_like(), SWAP)
    assert (w.agent, w.item, w.bid) == (0, 0, 2)
    assert w.affected_item is None
    w = step_probe(pareto_like(), SWAP)
    assert (w.agent, w.item, w.bid) == (0, 0, 4)


def test_memoryless_probes():
    for mech in (osd(), orp(), like(), maximum_like()):
        assert memoryless_probe(mech, SWAP) is None, mech.name
    w = memoryless_probe(balanced_like(), SWAP)
    assert (w.agent, w.item, w.bid, w.affected_item) == (0, 0, 0, 1)
    w = memoryless_probe(pareto_like(), SWAP)
    assert (w.agent, w.item, w.bid, w.affected_item) == (0, 0, 0, 1)


def test_classification_matrix():
    suite = [("swap", SWAP), ("identical", Instance(((1, 2), (1, 2))))]
    expected = {
        "osd": (True, True, False),
        "orp": (True, True, False),
        "like": (True, True, False),
        "balanced-like": (True, False, True),
        "maximum-like": (False, True, True),
        "pareto-like": (False, False, True),
    }
    mechs = (osd(), orp(), like(), balanced_like(), maximum_like(), pareto_like())
    for mech in mechs:
        prof = classify(mech, suite)
        assert (prof.step, prof.memoryless, prof.manipulable) == expected[mech.name]
        assert prof.characterization_consistent


def test_profile_json_is_one_based():
    prof = classify(maximum_like(), [("swap", SWAP)])
    payload = prof.to_json()
    assert payload["manipulable"] is True
    assert payload["sp_witness"]["instance"] == "swap"
    assert payload["sp_witness"]["agent"] == 1
    assert payload["step_witness"]["item"] == 1


def test_deviation_json():
    d = sp_falsify(maximum_like(), SWAP)
    payload = d.to_json()
    assert payload["agent"] == 1
    assert payload["bids"] == ["2", "2"]
    assert payload["item"] is None
    assert payload["gain"] == "1/2"


def test_candidate_budget():
    with pytest.raises(WorkBoundExceeded):
        sp_falsify(maximum_like(), SWAP, max_candidates=3)


def test_constructed_mechanisms_on_worked_examples():
    # example 2: like with a tilted override on its own instance
    inst, mech = worked_example(2)
    assert sp_falsify(mech, inst) == Deviation(
        0, (Fraction(1, 2), Fraction(1, 2)), None, Fraction(5, 4), Fraction(3, 2))
    assert osp_falsify(mech, inst) == Deviation(
        0, (1, Fraction(1, 2)), 1, Fraction(5, 4), Fraction(3, 2))
    assert memoryless_probe(mech, inst) == ProbeWitness(0, 0, 0, 1)
    assert step_probe(mech, inst) == ProbeWitness(0, 0, Fraction(1, 2))
    # example 4: maximum-like with an exception on the swap instance
    inst, mech = worked_example(4)
    assert sp_falsify(mech, inst) == Deviation(0, (4, 2), None, Fraction(5, 2), 3)
    assert osp_falsify(mech, inst) == Deviation(0, (2, 2), 0, 0, Fraction(1, 2))
    assert memoryless_probe(mech, inst) == ProbeWitness(0, 0, 0, 1)
    assert step_probe(mech, inst) == ProbeWitness(0, 0, Fraction(1, 2))


def test_constructed_item_counts_follow_the_override():
    for eid in (2, 4):
        inst, mech = worked_example(eid)
        for bids in (None, BidProfile(((1, 1), (1, 1)))):
            counts, scale = mech.item_counts(inst, bids)
            got = tuple(tuple(Fraction(c, scale) for c in row) for row in counts)
            assert got == marginals(mech.run(inst, bids)).p, (eid, bids)
    # the override's scale is the lcm of its probability denominators
    inst, mech = worked_example(2)
    assert mech.item_counts(inst) == ([[4, 1], [0, 3]], 4)
    mixed = ConstructedMechanism("halves", like(), ((inst.utilities, like().run(inst)),))
    assert mixed.item_counts(inst) == ([[2, 1], [0, 1]], 2)


# --- the searches against full-distribution references --------------------
#
# Each reference repeats its search's loop as it ran before the searches
# read integer marginals: a full distribution per candidate, from the
# recursive walk of test_mechanisms, valued by `expected_true_value` above
# (the library's former `_expected_true_value`) or compared by `marginals`.

def reference_sp(name, instance, grid=BidGrid()):
    u = instance.utilities
    sincere = BidProfile.sincere(instance)
    base = reference_run(name, instance)
    for agent in range(instance.n):
        menus = [grid.values(instance, agent, j) for j in range(instance.m)]
        baseline = as_value(expected_true_value(base, agent, u))
        for row in itertools.product(*menus):
            if row == u[agent]:
                continue
            dist = reference_run(name, instance, sincere.replace_row(agent, row))
            value = as_value(expected_true_value(dist, agent, u))
            if value > baseline:
                return Deviation(agent, row, None, baseline, value)
    return None


def reference_osp(name, instance, grid=BidGrid()):
    u = instance.utilities
    for item in range(instance.m):
        prefix = instance.prefix(item + 1)
        sincere = BidProfile.sincere(prefix)
        base = reference_run(name, prefix)
        for agent in range(instance.n):
            baseline = as_value(expected_true_value(base, agent, prefix.utilities))
            for bid in grid.values(instance, agent, item):
                if bid == u[agent][item]:
                    continue
                dist = reference_run(name, prefix, sincere.replace_bid(agent, item, bid))
                value = as_value(expected_true_value(dist, agent, prefix.utilities))
                if value > baseline:
                    row = u[agent][:item] + (bid,) + u[agent][item + 1:]
                    return Deviation(agent, row, item, baseline, value)
    return None


def reference_memoryless(name, instance, grid=BidGrid()):
    sincere = BidProfile.sincere(instance)
    base = marginals(reference_run(name, instance))
    for item in range(instance.m - 1):
        for agent in range(instance.n):
            for bid in grid.values(instance, agent, item):
                if bid == instance.utility(agent, item):
                    continue
                p = marginals(reference_run(name, instance,
                                            sincere.replace_bid(agent, item, bid)))
                for later in range(item + 1, instance.m):
                    if any(p.entry(i, later) != base.entry(i, later)
                           for i in range(instance.n)):
                        return ProbeWitness(agent, item, bid, later)
    return None


def _assert_searches_match(instances):
    found = 0
    for inst in instances:
        for name in MECHANISM_NAMES:
            mech = get_mechanism(name)
            for search, reference in ((sp_falsify, reference_sp),
                                      (osp_falsify, reference_osp),
                                      (memoryless_probe, reference_memoryless)):
                got = search(mech, inst)
                assert got == reference(name, inst), (search.__name__, name, inst)
                found += got is not None
    return found


def _grid_instances(n, m):
    for flat in itertools.product(range(4), repeat=n * m):
        rows = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
        if all(any(row[j] for row in rows) for j in range(m)):
            yield Instance(rows)


def test_searches_match_references_on_the_exhaustive_2x2_grid():
    assert _assert_searches_match(_grid_instances(2, 2)) > 500


def test_searches_match_references_on_the_2x3_grid():
    # every 75th of the 3375 instances: a full pass takes over ten minutes
    sample = list(_grid_instances(2, 3))[::75]
    assert len(sample) == 45
    assert _assert_searches_match(sample) > 200


def test_searches_match_references_on_fractional_instances():
    instances = [inst for inst, _ in seeded_cases(150, 20200711)]
    assert any(isinstance(x, Fraction) for inst in instances for row in inst.utilities
               for x in row)
    assert _assert_searches_match(instances) > 400
