"""Engine and feasibility rules against hand-computed distributions and
against the recursive tree walk the layered engine replaced."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from fairdiv import (
    Allocation,
    AllocationDistribution,
    BidProfile,
    ConstructedMechanism,
    DEFAULT_MAX_NODES,
    DomainSpec,
    Instance,
    MECHANISM_NAMES,
    PriorityOrder,
    RuleInvariantError,
    WorkBoundExceeded,
    allocate,
    balanced_like,
    generate,
    get_mechanism,
    like,
    marginals,
    maximum_like,
    orp,
    orp_distribution,
    osd,
    pareto_frontier,
    pareto_levels,
    pareto_like,
)
from fairdiv import mechanisms
from fairdiv.mechanisms import (
    BalancedLikeRule,
    FeasibilityRule,
    LikeRule,
    MaximumLikeRule,
    OsdRule,
    ParetoLikeRule,
    _positive_bidders,
    _undominated,
)

SWAP = Instance(((1, 2), (2, 1)))
CLOSE = Instance(((1, 4), (2, 3)))


def owners_map(dist):
    return {a.owners: p for a, p in dist}


# --- the shared two-item instance where all six rules differ ------------

def test_osd_identity_gives_everything_to_agent_one():
    assert owners_map(osd().run(SWAP)) == {(0, 0): Fraction(1)}


def test_osd_reversed_priority():
    assert owners_map(osd(PriorityOrder((1, 0))).run(SWAP)) == {(1, 1): Fraction(1)}


def test_orp_mixes_the_two_dictatorships():
    assert owners_map(orp().run(SWAP)) == {
        (0, 0): Fraction(1, 2),
        (1, 1): Fraction(1, 2),
    }


def test_like_is_uniform_over_positive_bidders():
    assert owners_map(like().run(SWAP)) == {
        (0, 0): Fraction(1, 4),
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
    }


def test_balanced_like_never_doubles_up_here():
    assert owners_map(balanced_like().run(SWAP)) == {
        (0, 1): Fraction(1, 2),
        (1, 0): Fraction(1, 2),
    }


def test_maximum_like_tracks_highest_bids():
    assert owners_map(maximum_like().run(SWAP)) == {(1, 0): Fraction(1)}


def test_pareto_like_prunes_the_dominated_branch():
    # giving item 2 to agent 2 after agent 1 took item 1 is dominated,
    # so that branch folds all its mass into the remaining extension
    assert owners_map(pareto_like().run(SWAP)) == {
        (0, 0): Fraction(1, 2),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
    }


def test_pareto_like_support_on_close_values_is_everything():
    assert owners_map(pareto_like().run(CLOSE)) == {
        (0, 0): Fraction(1, 4),
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
    }


# --- rule-specific behavior ----------------------------------------------

def test_balanced_like_prefers_lighter_bundles():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    dist = balanced_like().run(inst)
    # after the first two items balance out, the third splits again
    for owners, p in owners_map(dist).items():
        assert owners[0] != owners[1]
        assert p == Fraction(1, 4)
    assert len(dist.support()) == 4


def test_maximum_like_splits_ties():
    inst = Instance(((2, 1), (2, 1)))
    assert owners_map(maximum_like().run(inst)) == {
        (0, 0): Fraction(1, 4),
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
    }


def test_zero_bid_column_discards_the_item():
    inst = Instance(((1, 2), (2, 1)))
    bids = BidProfile(((1, 0), (2, 0)))
    for mech in (osd(), orp(), like(), balanced_like(), maximum_like(), pareto_like()):
        dist = mech.run(inst, bids)
        assert all(a.owners[1] is None for a in dist.support()), mech.name


def test_empty_instance_yields_the_empty_allocation():
    inst = Instance(((), ()))
    dist = like().run(inst)
    assert owners_map(dist) == {(): Fraction(1)}


def test_allocate_rejects_mismatched_bids():
    mechs = [get_mechanism(name) for name in MECHANISM_NAMES]
    mechs.append(ConstructedMechanism("fixed", like(), ((SWAP.utilities, osd().run(SWAP)),)))
    for mech, bids in product(mechs, (((1, 2, 3), (1, 1, 1)), ((1, 2),))):
        for call in (mech.run, mech.item_counts):
            with pytest.raises(ValueError, match="bid profile shape differs from instance"):
                call(SWAP, BidProfile(bids))


def test_work_bound_on_wide_trees():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    with pytest.raises(WorkBoundExceeded):
        like().run(inst, max_nodes=4)
    assert len(like().run(inst, max_nodes=8).support()) == 8


def test_maximum_like_work_bound_counts_top_bidders():
    # three positive bidders per item, but one top bidder
    inst = Instance(((3, 1), (1, 3), (2, 2)))
    assert owners_map(maximum_like().run(inst, max_nodes=1)) == {(0, 1): Fraction(1)}
    assert maximum_like().item_counts(inst, max_nodes=1) == ([[1, 0], [0, 1], [0, 0]], 1)
    with pytest.raises(WorkBoundExceeded):
        like().run(inst, max_nodes=1)
    with pytest.raises(WorkBoundExceeded):
        like().item_counts(inst, max_nodes=1)


def test_orp_work_bound_counts_priority_orders():
    inst = Instance(tuple((1,) for _ in range(6)))
    with pytest.raises(WorkBoundExceeded):
        orp().run(inst, max_nodes=100)


def test_orp_matches_explicit_dictatorship_mixture():
    from itertools import permutations

    for inst in (SWAP, CLOSE, Instance(((1, 0, 2), (1, 1, 0), (0, 3, 1)))):
        parts = [
            (osd(PriorityOrder(p)).run(inst), Fraction(1, 6 if inst.n == 3 else 2))
            for p in permutations(range(inst.n))
        ]
        assert AllocationDistribution.mix(parts).entries == orp().run(inst).entries


def test_rule_invariant_violations_are_reported():
    class NeverFeasible(FeasibilityRule):
        name = "never"

        def feasible(self, state, item, key):
            return ()

    class AlwaysAgentZero(FeasibilityRule):
        name = "always"

        def feasible(self, state, item, key):
            return (0,)

    with pytest.raises(RuleInvariantError):
        allocate(NeverFeasible(), SWAP)
    inst = Instance(((1, 2), (2, 1)))
    with pytest.raises(RuleInvariantError):
        allocate(AlwaysAgentZero(), inst, BidProfile(((1, 0), (1, 0))))


def test_prefix_of_run_equals_run_on_prefix_for_history_free_rules():
    # rules whose feasible sets ignore future items commute with truncation
    insts = [SWAP, CLOSE, Instance(((1, 0, 2), (2, 1, 1), (0, 1, 3)))]
    for mech in (osd(), like(), balanced_like(), maximum_like()):
        for inst in insts:
            full = mech.run(inst)
            for upto in range(inst.m + 1):
                assert full.prefix(upto).entries == mech.run(inst.prefix(upto)).entries


# --- the frontier rule's lookahead ----------------------------------------

DEAD_END = Instance(((18, 10, 10), (17, 4, 13)))


def test_pareto_levels_on_the_swap_instance():
    bids = BidProfile.sincere(SWAP)
    levels, viable = pareto_levels(bids, _positive_bidders(bids))
    assert set(levels[0]) == {(1, 0), (0, 2)}
    assert set(levels[1]) == {(3, 0), (2, 2), (0, 3)}
    # no dead ends here, so everything maximal stays reachable
    assert [set(v) for v in viable] == [set(lv) for lv in levels]


def test_pareto_levels_prune_unreachable_maximal_vectors():
    bids = BidProfile.sincere(DEAD_END)
    levels, viable = pareto_levels(bids, _positive_bidders(bids))
    # (18, 4) is maximal after two items but neither extension survives
    assert (18, 4) in levels[1]
    assert (18, 4) not in viable[1]
    assert set(viable[2]) == set(levels[2])


def _brute_levels(bids):
    """Maximal prefix bid vectors and their viable subsets, by enumeration.

    Every non-wasteful assignment of each prefix is listed and compared
    pairwise; a prefix vector is viable when some full assignment through
    it stays maximal at every prefix.
    """
    pos = [[i for i in range(bids.n) if bids.bid(i, j) > 0] or [None]
           for j in range(bids.m)]

    def vector(owners):
        acc = [0] * bids.n
        for j, i in enumerate(owners):
            if i is not None:
                acc[i] += bids.bid(i, j)
        return tuple(acc)

    levels = []
    for j in range(1, bids.m + 1):
        vecs = {vector(owners) for owners in product(*pos[:j])}
        levels.append({v for v in vecs
                       if not any(w != v and all(a >= b for a, b in zip(w, v)) for w in vecs)})
    viable = [set() for _ in range(bids.m)]
    for owners in product(*pos):
        path = [vector(owners[:j + 1]) for j in range(bids.m)]
        if all(v in lv for v, lv in zip(path, levels)):
            for v, vs in zip(path, viable):
                vs.add(v)
    return levels, viable


def _assert_levels_match(bids):
    levels, viable = pareto_levels(bids, _positive_bidders(bids))
    brute_levels, brute_viable = _brute_levels(bids)
    assert [set(lv) for lv in levels] == brute_levels, bids
    assert [set(vs) for vs in viable] == brute_viable, bids
    for lv, vs in zip(levels, viable):
        assert len(set(lv)) == len(lv)
        assert vs <= set(lv)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_pareto_levels_match_brute_force_on_exhaustive_grids(n, m):
    for flat in product(range(4), repeat=n * m):
        _assert_levels_match(BidProfile(tuple(
            tuple(flat[i * m:(i + 1) * m]) for i in range(n))))


def test_pareto_levels_match_brute_force_on_fractional_bids():
    rng = random.Random(20200629)
    for _ in range(150):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        for j in range(m):
            if rng.random() < 0.2:
                for row in rows:
                    row[j] = 0
        _assert_levels_match(BidProfile(tuple(tuple(r) for r in rows)))


def test_pareto_levels_return_bid_units_in_descending_order():
    bids = BidProfile(((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1)))
    levels, viable = pareto_levels(bids, _positive_bidders(bids))
    assert levels[0] == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert levels[1] == ((Fraction(1, 2), 1), (0, Fraction(4, 3)), (Fraction(5, 6), 0))
    assert viable[1] == frozenset(levels[1])


def test_undominated_edge_cases():
    assert _undominated([]) == []
    assert _undominated([(2, 5)]) == [(2, 5)]
    # duplicates collapse, and equal vectors do not knock each other out
    assert _undominated([(1, 2), (2, 1), (1, 2), (2, 1)]) == [(2, 1), (1, 2)]
    # equal sums are incomparable; only the strictly smaller vector goes
    assert _undominated([(0, 3), (3, 0), (1, 2), (1, 1)]) == [(3, 0), (1, 2), (0, 3)]
    assert _undominated([(1, 1, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0)]) == [(1, 1, 1), (2, 0, 0)]


def test_undominated_drops_nothing_on_identical_utilities():
    # every allocation of identical utilities has the same total, so all
    # its vectors are maximal
    vectors = [v for v in product(range(5), repeat=3) if sum(v) == 4]
    kept = _undominated(vectors)
    assert sorted(kept) == sorted(vectors)
    assert kept == sorted(vectors, reverse=True)


def test_pareto_like_equals_like_on_a_big_identical_instance():
    inst = generate(DomainSpec("identical-cardinal", 4, 6, seed=3))
    dist = pareto_like().run(inst)
    assert dist.entries == like().run(inst).entries
    assert len(dist.entries) == 4 ** 6


def test_pareto_like_survives_dead_ends_and_matches_the_frontier():
    dist = pareto_like().run(DEAD_END)
    support = {a.owners for a in dist.support()}
    front = {a.owners for a in pareto_frontier(DEAD_END)}
    assert support == front
    assert owners_map(dist) == {
        (0, 0, 0): Fraction(1, 4),
        (0, 0, 1): Fraction(1, 4),
        (1, 0, 0): Fraction(1, 8),
        (1, 0, 1): Fraction(1, 8),
        (1, 1, 1): Fraction(1, 4),
    }


def test_pareto_like_handles_fractional_bids():
    inst = Instance((
        (3, Fraction(5, 3), Fraction(5, 3)),
        (Fraction(17, 6), Fraction(2, 3), Fraction(13, 6)),
    ))
    support = {a.owners for a in pareto_like().run(inst).support()}
    assert support == {a.owners for a in pareto_frontier(inst)}


def test_pareto_like_judges_on_bids_not_utilities():
    # with flat bids every assignment is maximal, so the rule acts like
    # plain sharing even though true utilities are skewed
    bids = BidProfile(((1, 1), (1, 1)))
    dist = pareto_like().run(SWAP, bids)
    assert len(dist.support()) == 4


def test_get_mechanism_names_and_sigma():
    for name in ("osd", "orp", "like", "balanced-like", "maximum-like", "pareto-like"):
        assert get_mechanism(name).name == name
    sig = get_mechanism("osd", sigma=PriorityOrder((1, 0)))
    assert owners_map(sig.run(SWAP)) == {(1, 1): Fraction(1)}
    with pytest.raises(ValueError):
        get_mechanism("like", sigma=PriorityOrder((1, 0)))
    with pytest.raises(ValueError):
        get_mechanism("nope")
    with pytest.raises(ValueError, match="unknown mechanism 'nope'"):
        get_mechanism("nope", sigma=(0, 1))
    with pytest.raises(ValueError):
        osd(PriorityOrder((0, 1, 2))).run(SWAP)


def test_osd_priority_order_sequences_are_accepted():
    assert owners_map(osd((1, 0)).run(SWAP)) == {(1, 1): Fraction(1)}


def test_orp_direct_evaluation_handles_discards():
    inst = Instance(((1, 2), (2, 1)))
    bids = BidProfile(((0, 2), (0, 1)))
    dist = orp_distribution(inst, bids)
    assert owners_map(dist) == {(None, 0): Fraction(1, 2), (None, 1): Fraction(1, 2)}


# --- the layered engine against the recursive walk it replaced -------------

def _walk_key(rule, sizes, totals):
    """The state key a rule reads, rebuilt from the walk's own bookkeeping."""
    if isinstance(rule, BalancedLikeRule):
        return tuple(sizes)
    if isinstance(rule, ParetoLikeRule):
        return tuple(totals)
    return ()


def _reference_allocate(rule, instance, bids=None, *, max_nodes=None):
    """The recursive tree walk that `allocate` ran before the layered pass,
    kept as the reference path. Each leaf adds Fraction(1, den) to its
    allocation. The walk keeps its own bundle sizes and bid totals; the
    only change is that `_walk_key` turns them into the rule's key."""
    if bids is None:
        bids = BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    positives = _positive_bidders(bids)
    candidates = rule.candidates(bids, positives)
    width = 1
    for pick in candidates:
        width *= max(1, len(pick))
        if width > bound:
            raise WorkBoundExceeded(
                f"{rule.name}: expansion tree may exceed {bound} leaves"
            )
    state = rule.begin(bids, candidates)
    n, m = instance.n, instance.m
    owners = [None] * m
    sizes = [0] * n
    totals = [0] * n
    support = {}

    def walk(j, den):
        if j == m:
            alloc = Allocation(tuple(owners))
            support[alloc] = support.get(alloc, Fraction(0)) + Fraction(1, den)
            return
        feas = rule.feasible(state, j, _walk_key(rule, sizes, totals))
        if not feas:
            if positives[j]:
                raise RuleInvariantError(
                    f"{rule.name}: no feasible agent for item {j + 1} despite positive bids"
                )
            owners[j] = None
            walk(j + 1, den)
            return
        if not positives[j]:
            raise RuleInvariantError(
                f"{rule.name}: item {j + 1} has no positive bid but was assigned"
            )
        k = len(feas)
        for i in feas:
            owners[j] = i
            sizes[i] += 1
            totals[i] += bids.bid(i, j)
            walk(j + 1, den * k)
            totals[i] -= bids.bid(i, j)
            sizes[i] -= 1
        owners[j] = None

    walk(0, 1)
    return AllocationDistribution.from_map(instance, support)


REFERENCE_RULES = {
    "like": LikeRule,
    "balanced-like": BalancedLikeRule,
    "maximum-like": MaximumLikeRule,
    "pareto-like": ParetoLikeRule,
}


def reference_run(name, instance, bids=None):
    """A mechanism's distribution through the recursive walk alone; orp is
    the explicit mixture of every priority order's walked dictatorship."""
    n = instance.n
    if name == "osd":
        return _reference_allocate(OsdRule(PriorityOrder.identity(n)), instance, bids)
    if name == "orp":
        orders = list(permutations(range(n)))
        return AllocationDistribution.mix([
            (_reference_allocate(OsdRule(PriorityOrder(p)), instance, bids),
             Fraction(1, len(orders)))
            for p in orders])
    return _reference_allocate(REFERENCE_RULES[name](), instance, bids)


@pytest.fixture
def exact_splits(monkeypatch):
    """Route every split of the engine through a divmod that fails on a
    nonzero remainder, and record the split widths it saw."""
    widths = []

    def checked(weight, ways):
        q, r = divmod(weight, ways)
        assert r == 0, (weight, ways)
        widths.append(ways)
        return q

    monkeypatch.setattr(mechanisms, "_share", checked)
    return widths


def _assert_engine_matches_walk(inst, bids):
    for name in MECHANISM_NAMES:
        mech = get_mechanism(name)
        want = reference_run(name, inst, bids)
        assert mech.run(inst, bids).entries == want.entries, (name, bids)
        counts, scale = mech.item_counts(inst, bids)
        got = tuple(tuple(Fraction(c, scale) for c in row) for row in counts)
        assert got == marginals(want).p, (name, bids)


def _grid_bids(n, m):
    for flat in product(range(4), repeat=n * m):
        yield BidProfile(tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n)))


def seeded_cases(count, seed):
    """(instance, bids): 2-3 agents, 1-3 items, Fraction bids, about one
    column in five all zero. The instance is the bids with every zero
    column given a unit utility for agent 1."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(2, 3), rng.randint(1, 3)
        rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        for j in range(m):
            if rng.random() < 0.2:
                for row in rows:
                    row[j] = 0
        bids = BidProfile(tuple(tuple(r) for r in rows))
        utilities = [list(r) for r in rows]
        for j in range(m):
            if all(row[j] == 0 for row in rows):
                utilities[0][j] = 1
        out.append((Instance(tuple(tuple(r) for r in utilities)), bids))
    return out


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_engine_matches_walk_on_exhaustive_grids(n, m, exact_splits):
    inst = Instance(tuple((1,) * m for _ in range(n)))
    for bids in _grid_bids(n, m):
        _assert_engine_matches_walk(inst, bids)
    assert 2 in exact_splits


def test_engine_matches_walk_on_fractional_bids(exact_splits):
    cases = seeded_cases(160, 20200711)
    assert sum(any(all(b == 0 for b in col) for col in zip(*bids.bids))
               for _, bids in cases) >= 30
    for inst, bids in cases:
        _assert_engine_matches_walk(inst, bids)
    assert 3 in exact_splits


def test_item_counts_keep_the_work_bound():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    with pytest.raises(WorkBoundExceeded):
        like().item_counts(inst, max_nodes=4)
    counts, scale = like().item_counts(inst, max_nodes=8)
    assert (counts, scale) == ([[4, 4, 4], [4, 4, 4]], 8)
    with pytest.raises(WorkBoundExceeded):
        orp().item_counts(Instance(tuple((1,) for _ in range(6))), max_nodes=100)


def test_item_counts_merge_equal_keys():
    # balanced-like on four identical items: sizes (1, 1) after two items
    # is one merged node, whichever agent took which item
    inst = Instance(((1, 1, 1, 1), (1, 1, 1, 1)))
    bids = BidProfile.sincere(inst)
    layer, counts, scale = mechanisms._expand(BalancedLikeRule(), inst, bids, None, False)
    assert layer == {((), (2, 2)): scale}
    assert [[Fraction(c, scale) for c in row] for row in counts] == [[Fraction(1, 2)] * 4] * 2
