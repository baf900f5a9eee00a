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
    DomainSpec,
    Instance,
    MECHANISM_NAMES,
    Mechanism,
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
    work_bound,
)
from fairdiv import mechanisms
from fairdiv.core import current_work_bound, marginal_counts
from fairdiv.mechanisms import (
    BalancedLikeRule,
    FeasibilityRule,
    LikeRule,
    MaximumLikeRule,
    OsdRule,
    ParetoLikeRule,
    _positive_bidders,
    _undominated,
    view_key,
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
    with pytest.raises(WorkBoundExceeded), work_bound(4):
        like().run(inst)
    with work_bound(8):
        assert len(like().run(inst).support()) == 8


def test_maximum_like_work_bound_counts_top_bidders():
    # three positive bidders per item, but one top bidder
    inst = Instance(((3, 1), (1, 3), (2, 2)))
    with work_bound(1):
        assert owners_map(maximum_like().run(inst)) == {(0, 1): Fraction(1)}
        assert maximum_like().item_counts(inst) == ([[1, 0], [0, 1], [0, 0]], 1)
        with pytest.raises(WorkBoundExceeded):
            like().run(inst)
        with pytest.raises(WorkBoundExceeded):
            like().item_counts(inst)


def test_orp_work_bound_counts_priority_orders():
    inst = Instance(tuple((1,) for _ in range(6)))
    with pytest.raises(WorkBoundExceeded), work_bound(100):
        orp().run(inst)


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


def test_feasible_sets_wider_than_the_candidates_are_reported():
    # the scale L holds lcm(1..1) per item here, so a three-way split of a
    # weight would floor to zero instead of failing
    class WiderThanDeclared(FeasibilityRule):
        name = "wider"

        def candidates(self, bids, positives):
            return tuple(pos[:1] for pos in positives)

        def feasible(self, state, item, key):
            return (0, 1, 2)

    inst = Instance(((1, 1), (1, 1), (1, 1)))
    mech = mechanisms._rule_mechanism("wider", lambda _: WiderThanDeclared(), "bids")
    with pytest.raises(RuleInvariantError, match="3 feasible agents for item 1"):
        mech.item_counts(inst)
    with pytest.raises(RuleInvariantError, match="3 feasible agents for item 1"):
        mech.run(inst)


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
    levels, viable = pareto_levels(bids)
    assert set(levels[0]) == {(1, 0), (0, 2)}
    assert set(levels[1]) == {(3, 0), (2, 2), (0, 3)}
    # no dead ends here, so everything maximal stays reachable
    assert [set(v) for v in viable] == [set(lv) for lv in levels]


def test_pareto_levels_prune_unreachable_maximal_vectors():
    bids = BidProfile.sincere(DEAD_END)
    levels, viable = pareto_levels(bids)
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
    levels, viable = pareto_levels(bids)
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
    levels, viable = pareto_levels(bids)
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


def test_undominated_scan_matches_bitsets_on_seeded_sets(monkeypatch):
    # both tests of `_undominated` on every set, small and large, against
    # the pairwise definition
    rng = random.Random(20201017)
    for _ in range(300):
        n = rng.randint(1, 4)
        vectors = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(0, 24))]
        want = sorted({v for v in vectors
                       if not any(w != v and all(map(int.__ge__, w, v)) for w in vectors)},
                      key=lambda v: (sum(v), v), reverse=True)
        outs = []
        for limit in (0, len(vectors)):
            monkeypatch.setattr(mechanisms, "_FEW_VECTORS", limit)
            outs.append(_undominated(vectors))
        assert outs == [want, want], vectors


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


def _first_two(dist):
    out = {}
    for a, prob in dist:
        out[a.owners[:2]] = out.get(a.owners[:2], 0) + prob
    return out


def test_pareto_like_reads_later_bids():
    # the look-ahead drops the prefix owners (0, 1): under the sincere item 3
    # both of its extensions are dominated, so pareto-like is not online
    inst = Instance(((1, 3, 1), (2, 3, 1)))
    assert _first_two(pareto_like().run(inst)) == {
        (0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}
    uniform = {owners: Fraction(1, 4) for owners in product(range(2), repeat=2)}
    assert _first_two(pareto_like().run(inst.prefix(2))) == uniform
    assert _first_two(pareto_like().run(inst, BidProfile(((1, 3, 0), (2, 3, 1))))) == uniform


# --- the moves table against the viable sets it replaced -------------------

def _moves(bids):
    rule = ParetoLikeRule()
    return rule.begin(bids, _positive_bidders(bids), rule.tally(bids))


def test_moves_table_passes_discarded_items_in_the_middle_and_at_the_end():
    bids = BidProfile(((2, 0, 1, 0), (1, 0, 3, 0)))
    assert _moves(bids) == [
        {(0, 0): (0, 1)},
        {(2, 0): (), (0, 1): ()},
        # (0, 1) + (1, 0) = (1, 1) is dominated by (2, 3)
        {(2, 0): (0, 1), (0, 1): (1,)},
        {(2, 3): (), (0, 4): (), (3, 0): ()},
    ]
    inst = Instance(((1, 1, 1, 1), (1, 1, 1, 1)))
    assert owners_map(pareto_like().run(inst, bids)) == {
        (0, None, 0, None): Fraction(1, 4),
        (0, None, 1, None): Fraction(1, 4),
        (1, None, 1, None): Fraction(1, 2),
    }


def test_moves_table_on_one_item():
    assert _moves(BidProfile(((3,), (3,)))) == [{(0, 0): (0, 1)}]
    assert _moves(BidProfile(((0,), (2,)))) == [{(0, 0): (1,)}]
    assert _moves(BidProfile(((0,), (0,)))) == [{(0, 0): ()}]
    inst = Instance(((1,), (1,)))
    assert owners_map(pareto_like().run(inst, BidProfile(((0,), (0,))))) == {(None,): 1}
    assert owners_map(pareto_like().run(inst)) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_moves_table_keys_fraction_bids_on_their_integer_scale():
    # bids times 6: ((3, 2), (2, 6))
    bids = BidProfile(((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1)))
    assert _moves(bids) == [{(0, 0): (0, 1)}, {(3, 0): (0, 1), (0, 2): (1,)}]
    inst = Instance(((1, 1), (1, 1)))
    assert owners_map(pareto_like().run(inst, bids)) == {
        (0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 2)}


def test_key_off_the_moves_table_is_a_rule_error():
    bids = BidProfile(((1, 2), (2, 1)))
    rule = ParetoLikeRule()
    with pytest.raises(RuleInvariantError, match="off the table at item 2"):
        rule.feasible(_moves(bids), 1, (1, 1))

    class OffTable(ParetoLikeRule):
        def begin(self, bids, candidates, tally):
            return super().begin(bids, candidates, [[2 * x for x in row] for row in tally])

    with pytest.raises(RuleInvariantError, match="bid totals"):
        allocate(OffTable(), SWAP, bids)


class _ViableSetParetoRule(ParetoLikeRule):
    """pareto-like as it ran before the moves table: `begin` keeps
    `pareto_levels`' viable sets in bid units, and `feasible` extends the
    branch's bid totals by each positive bidder's bid and keeps the
    bidders whose extension is viable."""

    def begin(self, bids, candidates, tally):
        return candidates, pareto_levels(bids)[1], bids.bids

    def tally(self, bids):
        return bids.bids

    def feasible(self, state, item, key):
        positives, viable, values = state
        out = []
        for i in positives[item]:
            ext = list(key)
            ext[i] += values[i][item]
            if tuple(ext) in viable[item]:
                out.append(i)
        return tuple(out)


VIABLE_SET_PARETO_LIKE = mechanisms._rule_mechanism(
    "pareto-like", lambda _: _ViableSetParetoRule(), "bids")


def _assert_moves_match_viable_sets(inst, bids):
    assert pareto_like().run(inst, bids) == VIABLE_SET_PARETO_LIKE.run(inst, bids), bids
    assert (pareto_like().item_counts(inst, bids)
            == VIABLE_SET_PARETO_LIKE.item_counts(inst, bids)), bids


def test_moves_table_matches_viable_sets_on_exhaustive_grid():
    # every 0..3 bid profile at 2x3, zero columns (discarded items) included
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    for flat in product(range(4), repeat=6):
        _assert_moves_match_viable_sets(inst, BidProfile((flat[:3], flat[3:])))


def test_moves_table_matches_viable_sets_on_fractional_bids():
    rng = random.Random(20200629)
    for _ in range(150):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        for j in range(m):
            if rng.random() < 0.2:
                for row in rows:
                    row[j] = 0
        inst = Instance(((1,) * m,) * n)
        _assert_moves_match_viable_sets(inst, BidProfile(tuple(tuple(r) for r in rows)))


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


def _reference_allocate(rule, instance, bids=None):
    """The recursive tree walk that `allocate` ran before the layered pass,
    kept as the reference path. Each leaf adds Fraction(1, den) to its
    allocation. The walk keeps its own bundle sizes and totals of the
    rule's tally (the bids when it declares none); the only change is that
    `_walk_key` turns them into the rule's key."""
    if bids is None:
        bids = BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    bound = current_work_bound()
    positives = _positive_bidders(bids)
    candidates = rule.candidates(bids, positives)
    width = 1
    for pick in candidates:
        width *= max(1, len(pick))
        if width > bound:
            raise WorkBoundExceeded(
                f"{rule.name}: expansion tree may exceed {bound} leaves"
            )
    tally = rule.tally(bids)
    state = rule.begin(bids, candidates, tally)
    tally = tally or bids.bids
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
            totals[i] += tally[i][j]
            walk(j + 1, den * k)
            totals[i] -= tally[i][j]
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


def _descending(rule_class):
    """The rule, with every feasible set listed from the highest agent down."""

    class Descending(rule_class):
        def feasible(self, state, item, key):
            return super().feasible(state, item, key)[::-1]

    return Descending()


def test_descending_feasible_sets_still_give_canonical_owners():
    # the engine lists leaves in the order of the rule's feasible sets, and
    # the distribution sorts them, so a custom rule's order does not show
    unsorted = 0
    for inst, bids in seeded_cases(60, 20261022):
        for rule_class in (LikeRule, BalancedLikeRule, ParetoLikeRule):
            rule = _descending(rule_class)
            nodes, _, _ = mechanisms._expand(rule, inst, bids, True)
            leaves = [owners for owners, _, _ in nodes]
            unsorted += leaves != sorted(leaves)
            dist = allocate(rule, inst, bids)
            assert list(dist.owners) == sorted(dist.owners), (rule_class, bids)
            want = _reference_allocate(rule, inst, bids)
            assert dist == want and dist.entries == want.entries, (rule_class, bids)
    assert unsorted > 50


def test_runs_equal_freshly_validated_distributions_on_2x3_grid():
    # allocate and orp build their support through the unchecked Allocation
    # constructor; rebuilding it through the checked one changes nothing
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    for flat in product(range(3), repeat=6):
        bids = BidProfile((flat[:3], flat[3:]))
        for name in MECHANISM_NAMES:
            dist = get_mechanism(name).run(inst, bids)
            fresh = AllocationDistribution.from_map(
                inst, {Allocation(a.owners): p for a, p in dist.entries})
            assert dist == fresh and hash(dist) == hash(fresh), (name, bids)
            assert [(a.owners, p) for a, p in dist.entries] == [
                (a.owners, p) for a, p in fresh.entries], (name, bids)
            counts, scale = marginal_counts(dist)
            want = [[sum((p for a, p in dist.entries if a.owners[j] == i), Fraction(0))
                     for j in range(3)] for i in range(2)]
            assert [[Fraction(c, scale) for c in row] for row in counts] == want, (name, bids)


def _fraction_reference(instance, probs):
    """The validating path's distribution over ``{owners: Fraction}``."""
    return AllocationDistribution.from_map(
        instance, {Allocation(owners): p for owners, p in probs.items() if p})


def _assert_same_distribution(got, want):
    assert (got.owners, got.weights, got.scale) == (want.owners, want.weights, want.scale)
    # both paths share the sort, so check the order on its own: a discarded
    # item sorts before any agent
    assert list(got.owners) == sorted(got.owners, key=lambda o: [-1 if x is None else x for x in o])
    assert got.entries == want.entries and got == want and hash(got) == hash(want)


def test_trusted_distributions_match_the_validating_path_on_2x3_grid():
    # engines, mix and prefix build distributions from int weights without
    # validating them; the public constructor over the same Fractions must
    # give the same owners, weights, scale and entries
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    grid = [BidProfile((flat[:3], flat[3:])) for flat in product(range(3), repeat=6)]
    crossed = 0
    for name in MECHANISM_NAMES:
        mech = get_mechanism(name)
        runs = [mech.run(inst, bids) for bids in grid]
        for k, dist in enumerate(runs):
            probs = {a.owners: Fraction(w, dist.scale)
                     for a, w in zip(dist.support(), dist.weights)}
            _assert_same_distribution(dist, _fraction_reference(inst, probs))
            for upto in range(inst.m + 1):
                heads: dict = {}
                for owners, p in probs.items():
                    heads[owners[:upto]] = heads.get(owners[:upto], 0) + p
                _assert_same_distribution(dist.prefix(upto),
                                          _fraction_reference(inst.prefix(upto), heads))
            # the previous profile may discard other items, so Nones and agents
            # meet where the owners tuples first differ
            parts = [(dist, Fraction(1, 3)), (runs[k - 1], Fraction(2, 3)), (dist, 0)]
            mixed: dict = {}
            for part, weight in parts:
                for alloc, p in part:
                    mixed[alloc.owners] = mixed.get(alloc.owners, 0) + weight * p
            _assert_same_distribution(AllocationDistribution.mix(parts),
                                      _fraction_reference(inst, mixed))
            crossed += any(len({o is None for o in column}) == 2 for column in zip(*mixed))
    assert crossed > 1000


def test_pareto_like_ignores_one_positive_bid_scale():
    # its key is the bid totals on the bids' integer scale, so multiplying
    # every bid by one positive constant must leave the outcome alone
    rng = random.Random(20261019)
    mech = pareto_like()
    for _ in range(60):
        n, m = rng.randint(2, 3), rng.randint(2, 4)
        rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(m)]
                for _ in range(n)]
        for j in range(m):
            if all(row[j] == 0 for row in rows):
                rows[rng.randrange(n)][j] = Fraction(1, rng.randint(1, 6))
        inst = Instance(tuple(map(tuple, rows)))
        bids = BidProfile.sincere(inst)
        dist, counts = mech.run(inst, bids), mech.item_counts(inst, bids)
        for c in (Fraction(1, 6), Fraction(5, 3), 12):
            scaled = BidProfile(tuple(tuple(c * x for x in row) for row in rows))
            assert mech.run(inst, scaled).entries == dist.entries, (rows, c)
            assert mech.item_counts(inst, scaled) == counts, (rows, c)


def test_item_counts_keep_the_work_bound():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    with pytest.raises(WorkBoundExceeded), work_bound(4):
        like().item_counts(inst)
    with work_bound(8):
        counts, scale = like().item_counts(inst)
    assert (counts, scale) == ([[4, 4, 4], [4, 4, 4]], 8)
    with pytest.raises(WorkBoundExceeded), work_bound(100):
        orp().item_counts(Instance(tuple((1,) for _ in range(6))))


def test_item_counts_merge_equal_keys():
    # balanced-like on four identical items: sizes (1, 1) after two items
    # is one merged node, whichever agent took which item
    inst = Instance(((1, 1, 1, 1), (1, 1, 1, 1)))
    bids = BidProfile.sincere(inst)
    nodes, counts, scale = mechanisms._expand(BalancedLikeRule(), inst, bids, False)
    assert nodes == [((), (2, 2), scale)]
    assert [[Fraction(c, scale) for c in row] for row in counts] == [[Fraction(1, 2)] * 4] * 2


# --- the item_counts memo ------------------------------------------------
#
# `Mechanism.item_counts` runs its counter once per (agent count, bid view,
# work bound) and answers later profiles with the same ones from a memo.

def test_memoized_item_counts_equal_the_counter():
    # one object per mechanism, so every later profile with a seen view is
    # answered from the memo, twice over
    ones = Instance(((1, 1, 1), (1, 1, 1)))
    profiles = [(ones, BidProfile((flat[:3], flat[3:])))
                for flat in product(range(4), repeat=6)]
    profiles += seeded_cases(300, 20201019)
    for name in MECHANISM_NAMES:
        mech = get_mechanism(name)
        want = [mech.counter(inst, bids) for inst, bids in profiles]
        for _ in range(2):
            got = [mech.item_counts(inst, bids) for inst, bids in profiles]
            assert got == want, name
        views = {(inst.n, view_key(mech.view, bids.bids)) for inst, bids in profiles}
        assert len(mech._counted) == len(views)
        assert len(views) < len(profiles) // 4 or mech.view == "bids"


def test_item_counts_keep_agent_counts_apart():
    # both profiles' columns are bid by agents 1 and 2 alone, so their
    # signs and tops agree; only the agent count tells them apart
    two = Instance(((1, 1), (1, 1)))
    three = Instance(((1, 1), (1, 1), (0, 0)))
    for name in MECHANISM_NAMES:
        mech = get_mechanism(name)
        for inst in (two, three, two, three):
            counts, scale = mech.item_counts(inst)
            assert len(counts) == inst.n
            assert (counts, scale) == mech.counter(inst, None), name


def test_item_counts_hand_out_fresh_lists():
    for mech in (like(), maximum_like(), pareto_like()):
        counts, scale = mech.item_counts(SWAP)
        want = [list(row) for row in counts]
        counts[0][0] += 5
        counts.append([9])
        again, _ = mech.item_counts(SWAP)
        assert again == want
        again[1][1] = -1
        assert mech.item_counts(SWAP) == (want, scale)


def test_item_counts_keep_no_exceptions():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    mech = like()
    for _ in range(2):
        with pytest.raises(WorkBoundExceeded), work_bound(4):
            mech.item_counts(inst)
    with work_bound(8):
        assert mech.item_counts(inst) == ([[4, 4, 4], [4, 4, 4]], 8)
    # the bound is part of the key, so an answer counted under bound 8 is
    # not handed out under bound 4
    with pytest.raises(WorkBoundExceeded), work_bound(4):
        mech.item_counts(inst)
    calls = []

    def broken(instance, bids):
        calls.append(bids)
        raise RuleInvariantError("broken counter")

    mech = Mechanism("broken", like().runner, broken, "signs")
    for _ in range(2):
        with pytest.raises(RuleInvariantError, match="broken counter"):
            mech.item_counts(SWAP)
    assert len(calls) == 2


def test_item_counts_check_the_profile_shape_before_the_memo():
    mech = like()
    mech.item_counts(SWAP)
    with pytest.raises(ValueError, match="shape differs"):
        mech.item_counts(Instance(((1, 2, 1), (2, 1, 1))), BidProfile.sincere(SWAP))


def test_view_keys():
    bids = ((0, 2, 3, 0), (1, 2, Fraction(1, 2), 0), (1, 0, 3, 0))
    assert view_key("signs", bids) == ((1, 2), (0, 1), (0, 1, 2), ())
    assert view_key("tops", bids) == ((1, 2), (0, 1), (0, 2), ())
    assert view_key("bids", [list(row) for row in bids]) == bids
    with pytest.raises(ValueError, match="unknown bid view 'sizes'"):
        view_key("sizes", bids)
