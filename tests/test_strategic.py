"""Deviation searches and behavioral probes, with re-simulated witnesses."""

import itertools
import operator
from fractions import Fraction

import pytest

from fairdiv import (
    BidGrid,
    BidProfile,
    ConstructedMechanism,
    Deviation,
    Instance,
    MECHANISM_NAMES,
    Mechanism,
    ProbeWitness,
    RuleInvariantError,
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
    work_bound,
    worked_example,
)
from fairdiv.mechanisms import VIEWS
from fairdiv.strategic import _view_menu
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


def reference_step(name, instance, grid=BidGrid()):
    sincere = BidProfile.sincere(instance)
    base = reference_run(name, instance)
    for agent in range(instance.n):
        for item in range(instance.m):
            if instance.utility(agent, item) <= 0:
                continue
            for bid in grid.values(instance, agent, item):
                if bid <= 0 or bid == instance.utility(agent, item):
                    continue
                dist = reference_run(name, instance, sincere.replace_bid(agent, item, bid))
                if dist.entries != base.entries:
                    return ProbeWitness(agent, item, bid)
    return None


def _assert_searches_match(instances):
    found = 0
    for inst in instances:
        for name in MECHANISM_NAMES:
            mech = get_mechanism(name)
            for search, reference in ((sp_falsify, reference_sp),
                                      (osp_falsify, reference_osp),
                                      (memoryless_probe, reference_memoryless),
                                      (step_probe, reference_step)):
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


def test_step_probe_keeps_its_agent_major_cell_order():
    # a 3 x 2 integer input whose first witness depends on the cell order:
    # taken item-major, the probe would report agent 2, item 1 (1-based)
    inst = Instance(((0, 1), (1, 0), (1, 1)))
    assert step_probe(maximum_like(), inst) == ProbeWitness(0, 1, Fraction(1, 2))
    assert _assert_searches_match([inst]) > 0


def test_searches_match_references_on_fractional_instances():
    instances = [inst for inst, _ in seeded_cases(150, 20200711)]
    assert any(isinstance(x, Fraction) for inst in instances for row in inst.utilities
               for x in row)
    assert _assert_searches_match(instances) > 400


# --- view menus against the whole grid ------------------------------------
#
# `sp_falsify` and `osp_falsify` settle a "signs" or "tops" mechanism's
# search units on one bid per reachable view (`Mechanism.view`) and rerun
# the grid only when a lie turns up. The tests below check the declared
# views themselves, then hold both searches to the grid-only loops they
# replaced, which read the same integer item marginals.

VIEW_MECHANISMS = ("osd", "orp", "like", "balanced-like", "maximum-like")


def test_declared_views():
    views = {name: get_mechanism(name).view for name in MECHANISM_NAMES}
    assert views == {"osd": "signs", "orp": "signs", "like": "signs",
                     "balanced-like": "signs", "maximum-like": "tops",
                     "pareto-like": "bids"}
    assert osd((1, 0)).view == "signs"
    _, mech = worked_example(2)
    assert mech.base.view == "signs" and mech.view == "bids"
    assert Mechanism("hand-built", like().runner, like().counter).view == "bids"
    with pytest.raises(ValueError):
        Mechanism("hand-built", like().runner, like().counter, "sizes")


def _redraw_signs(bids):
    """Every positive bid moved to another positive value."""
    return tuple(tuple(x % 3 + 1 if x else 0 for x in row) for row in bids)


def _redraw_tops(bids):
    """Each column's top set kept, every other bid redrawn below the top
    (some positives become zero, and the reverse)."""
    cols = []
    for col in zip(*bids):
        top = max(col)
        cols.append(tuple(0 if top == 0 else 3 if x == top else (x + 1) % 3
                          for x in col))
    return tuple(zip(*cols))


def _outcome(mech, instance, bids):
    counts, scale = mech.item_counts(instance, bids)
    return (mech.run(instance, bids).entries,
            tuple(tuple(Fraction(c, scale) for c in row) for row in counts))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_outcomes_depend_only_on_the_declared_view(n, m):
    instance = Instance(((1,) * m,) * n)
    redraw = {"signs": _redraw_signs, "tops": _redraw_tops}
    moved = 0
    for flat in itertools.product(range(4), repeat=n * m):
        bids = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
        for name in VIEW_MECHANISMS:
            mech = get_mechanism(name)
            other = redraw[mech.view](bids)
            moved += other != bids
            assert (_outcome(mech, instance, BidProfile(bids))
                    == _outcome(mech, instance, BidProfile(other))), (name, bids, other)
    assert moved > 4**(n * m) * len(VIEW_MECHANISMS) * 3 // 4


def _column_view(view, column):
    if view == "signs":
        return tuple(x > 0 for x in column)
    top = max(column)
    return frozenset(i for i, x in enumerate(column) if x == top and top > 0)


def test_view_menus_reach_every_view_the_grid_reaches():
    # maximum-like alone cannot show a missing tie bid: another lie always
    # pays at least as much, so the menus are checked view by view
    instances = list(_grid_instances(2, 3))[::7] + [inst for inst, _ in seeded_cases(40, 7)]
    grids = (BidGrid(), BidGrid(extra=(Fraction(5, 3), 9)))
    for inst, grid, view in itertools.product(instances, grids, ("signs", "tops")):
        for agent, item in itertools.product(range(inst.n), range(inst.m)):
            menu = grid.values(inst, agent, item)
            reduced = _view_menu(view, grid, inst, agent, item)
            assert set(reduced) <= set(menu) and len(reduced) <= 3

            def views(bids):
                col = list(inst.column(item))
                return {_column_view(view, col[:agent] + [b] + col[agent + 1:]) for b in bids}

            assert views(reduced) == views(menu), (view, inst, agent, item)
            assert len(views(reduced)) == len(reduced)
    assert _view_menu("bids", grid, inst, agent, item) == menu


def _grid_view_menu(view, menu, instance, agent, item):
    """`_view_menu` as it was: a filter of the whole sorted grid menu."""
    if view == "bids":
        return menu
    top = max((row[item] for i, row in enumerate(instance.utilities) if i != agent),
              default=0)
    if view == "signs" or top == 0:
        keep = (0, next(x for x in menu if x > 0))
    else:
        keep = (0, top, next(x for x in menu if x > top))
    return tuple(x for x in menu if x in keep)


def test_view_menus_equal_the_grid_filter():
    instances = list(_grid_instances(2, 3)) + [inst for inst, _ in seeded_cases(150, 20201020)]
    grids = (BidGrid(), BidGrid(extra=(Fraction(5, 3), 9)),
             BidGrid(extra=(0, Fraction(1, 100), 2)))
    checked = 0
    for inst, grid in itertools.product(instances, grids):
        for agent, item in itertools.product(range(inst.n), range(inst.m)):
            menu = grid.values(inst, agent, item)
            for view in VIEWS:
                got = _view_menu(view, grid, inst, agent, item)
                want = _grid_view_menu(view, menu, inst, agent, item)
                assert got == want, (view, inst, grid, agent, item)
                assert list(map(type, got)) == list(map(type, want))
                checked += 1
    assert checked > 180_000


def test_sign_view_is_guarded_by_the_step_probe():
    maximum = maximum_like()
    fake = Mechanism("fake-signs", maximum.runner, maximum.counter, "signs")
    with pytest.raises(RuleInvariantError, match="fake-signs: declared to read only bid signs"):
        step_probe(fake, SWAP)
    with pytest.raises(RuleInvariantError):
        classify(fake, [("swap", SWAP)])
    # a true sign rule passes, and a "tops" rule reports its witness
    assert step_probe(like(), SWAP) is None
    assert step_probe(maximum, SWAP) == ProbeWitness(0, 0, 2)


def test_a_lie_is_recounted_on_its_own_bids():
    # A table row scans its whole suite with one mechanism object, whose
    # item_counts answer each bid view once. Declared "signs", maximum-like
    # gets the counts of a first-instance profile, ((1/2, 1/2), (1, 1)),
    # for agent 2's lie (1/2, 1/2) on the second instance, which shares its
    # signs: on those counts the lie would pay.
    maximum = maximum_like()
    fake = Mechanism("fake-signs", maximum.runner, maximum.counter, "signs")
    first, second = Instance(((0, 0), (1, 1))), Instance(((1, 1), (0, 1)))
    assert sp_falsify(fake, first) is None
    with pytest.raises(RuleInvariantError, match="fake-signs: declared bid view 'signs'"):
        sp_falsify(fake, second)
    # on its own bids the lie does not pay
    half = Fraction(1, 2)
    lie = BidProfile(((1, 1), (half, half)))
    assert expected_true_value(maximum.run(second), 1, second.utilities) == half
    assert expected_true_value(maximum.run(second, lie), 1, second.utilities) == 0
    # true view mechanisms pass the recount, and one object scanning both
    # instances answers as fresh ones do
    for name in VIEW_MECHANISMS:
        shared = get_mechanism(name)
        for inst, search in itertools.product((first, second), (sp_falsify, osp_falsify)):
            assert search(shared, inst) == search(get_mechanism(name), inst), name


def _grid_counts(mech, memo=None):
    """Item marginals per bid matrix, memoized over a whole test when
    ``memo`` is a dict: a mechanism sees the bids alone."""
    def counts(instance, rows):
        result = None if memo is None else memo.get(rows)
        if result is None:
            result = mech.item_counts(instance, BidProfile(rows))
            if memo is not None:
                memo[rows] = result
        return result
    return counts


def _first_gain(counts, instance, agent, rows):
    """The first of ``rows`` (whole bid matrices) that gives ``agent`` more
    true utility than sincere bidding, with the two utilities; None when
    none does. Utilities compare by cross-multiplying (counts, L) pairs."""
    u = instance.utilities
    base, b_scale = counts(instance, u)
    b_total = sum(map(operator.mul, base[agent], u[agent]))
    for bids in rows:
        got, scale = counts(instance, bids)
        total = sum(map(operator.mul, got[agent], u[agent]))
        if total * b_scale > b_total * scale:
            return bids, as_value(Fraction(b_total, b_scale)), as_value(Fraction(total, scale))
    return None


def grid_sp(counts, instance, grid=BidGrid()):
    """`sp_falsify`'s loop before view menus: every grid row, in order."""
    u = instance.utilities
    for agent in range(instance.n):
        menus = [grid.values(instance, agent, j) for j in range(instance.m)]
        rows = (u[:agent] + (row,) + u[agent + 1:]
                for row in itertools.product(*menus) if row != u[agent])
        found = _first_gain(counts, instance, agent, rows)
        if found is not None:
            return Deviation(agent, found[0][agent], None, found[1], found[2])
    return None


def grid_osp(counts, instance, grid=BidGrid()):
    """`osp_falsify`'s loop before view menus: every grid bid, in order."""
    u = instance.utilities
    for item in range(instance.m):
        prefix = instance.prefix(item + 1)
        head = prefix.utilities
        for agent in range(instance.n):
            rows = (head[:agent] + (head[agent][:item] + (bid,),) + head[agent + 1:]
                    for bid in grid.values(instance, agent, item) if bid != u[agent][item])
            found = _first_gain(counts, prefix, agent, rows)
            if found is not None:
                row = u[agent][:item] + (found[0][agent][item],) + u[agent][item + 1:]
                return Deviation(agent, row, item, found[1], found[2])
    return None


@pytest.mark.parametrize("name", VIEW_MECHANISMS)
def test_view_searches_match_the_grid_on_the_whole_2x3_grid(name):
    # pareto-like reads the bids themselves, so its searches run the grid
    # loop alone; the reference tests above cover it
    mech = get_mechanism(name)
    counts = _grid_counts(mech, memo={})
    found = 0
    for inst in _grid_instances(2, 3):
        got = sp_falsify(mech, inst)
        assert got == grid_sp(counts, inst), ("sp", inst)
        found += got is not None
        got = osp_falsify(mech, inst)
        assert got == grid_osp(counts, inst), ("osp", inst)
        found += got is not None
    assert found >= {"balanced-like": 1000, "maximum-like": 6000}.get(name, 0)


def _outcome_or_bound(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except WorkBoundExceeded:
        return "bound"


def test_view_searches_hit_the_work_bound_where_the_grid_does():
    binary = [Instance(rows) for rows in itertools.product(
        itertools.product((0, 1), repeat=3), repeat=3)
        if all(any(r[j] for r in rows) for j in range(3))]
    instances = list(_grid_instances(2, 3))[::25] + binary[::3]
    bounded = 0
    for name in VIEW_MECHANISMS:
        mech = get_mechanism(name)
        counts = _grid_counts(mech)
        for bound in (1, 2, 4):
            for inst in instances:
                for search, reference in ((sp_falsify, grid_sp), (osp_falsify, grid_osp)):
                    with work_bound(bound):
                        got = _outcome_or_bound(search, mech, inst)
                        assert got == _outcome_or_bound(reference, counts, inst), (
                            search.__name__, name, bound, inst)
                    bounded += got == "bound"
    assert bounded > 1000
