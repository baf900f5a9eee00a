"""Domain model: exact values, instances, allocations, distributions."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from fairdiv import (
    MECHANISM_NAMES,
    Allocation,
    AllocationDistribution,
    AssignmentMatrix,
    BidGrid,
    BidProfile,
    Instance,
    PriorityOrder,
    WorkBoundExceeded,
    as_value,
    bundle_utility,
    check_efa,
    check_pep,
    expected_utilities,
    format_value,
    get_mechanism,
    like,
    marginals,
    maximum_like,
    orp,
    osd,
    pea_solution,
    sp_falsify,
    work_bound,
)
from fairdiv.core import DEFAULT_MAX_NODES, check_work_bound, current_work_bound, marginal_counts


def test_as_value_normalizes_integral_fractions():
    assert as_value(3) == 3
    assert isinstance(as_value(Fraction(6, 2)), int)
    assert as_value(Fraction(5, 3)) == Fraction(5, 3)


def test_as_value_rejects_inexact_types():
    with pytest.raises(TypeError):
        as_value(0.5)
    with pytest.raises(TypeError):
        as_value(True)
    with pytest.raises(TypeError):
        as_value("1/2")


def test_format_value():
    assert format_value(7) == "7"
    assert format_value(Fraction(5, 3)) == "5/3"
    assert format_value(Fraction(4, 2)) == "2"


def test_instance_shape_and_accessors():
    inst = Instance(((1, 2), (2, 1)))
    assert (inst.n, inst.m) == (2, 2)
    assert inst.utility(0, 1) == 2
    assert inst.column(0) == (1, 2)
    assert inst.prefix(1).utilities == ((1,), (2,))
    assert inst.prefix(0).m == 0


def test_instance_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Instance(((1, 2), (2,)))  # ragged
    with pytest.raises(ValueError):
        Instance(((1, -1), (2, 1)))
    with pytest.raises(ValueError):
        Instance(((1, 0), (2, 0)))  # item 2 worthless to everyone
    with pytest.raises(ValueError):
        Instance(())
    with pytest.raises(TypeError):
        Instance(((0.5, 1), (1, 1)))


def test_bid_profile_allows_zero_columns():
    bids = BidProfile(((0, 1), (0, 2)))
    assert bids.bid(1, 1) == 2


def test_bid_profile_replacements():
    inst = Instance(((1, 2), (2, 1)))
    bids = BidProfile.sincere(inst)
    assert bids.bids == inst.utilities
    swapped = bids.replace_row(0, (5, Fraction(1, 2)))
    assert swapped.bids == ((5, Fraction(1, 2)), (2, 1))
    assert bids.replace_bid(1, 0, 9).bids == ((1, 2), (9, 1))
    with pytest.raises(ValueError):
        bids.replace_row(0, (1,))
    with pytest.raises(ValueError):
        bids.replace_row(5, (1, 1))


def test_bid_profile_rejects_bad_entries():
    with pytest.raises(ValueError, match="^bid matrix entries must be nonnegative, got -1$"):
        BidProfile(((1, -1), (2, 1)))
    bids = BidProfile.sincere(Instance(((1, 2), (2, 1))))
    with pytest.raises(ValueError, match="^bid matrix entries must be nonnegative, got -1/2$"):
        bids.replace_row(1, (1, Fraction(-1, 2)))
    with pytest.raises(ValueError, match="^bid matrix entries must be nonnegative, got -1$"):
        bids.replace_bid(0, 1, -1)
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        bids.replace_row(0, (1, 0.5))
    with pytest.raises(TypeError, match="^bool is not a utility value$"):
        bids.replace_row(0, (True, 1))
    with pytest.raises(TypeError):
        bids.replace_bid(1, 0, 2.0)
    with pytest.raises(ValueError, match="^replacement row has wrong length$"):
        bids.replace_row(0, (1, 2, 3))
    with pytest.raises(ValueError, match="^agent out of range$"):
        bids.replace_bid(-1, 0, 1)
    with pytest.raises(ValueError, match="^agent out of range$"):
        bids.replace_bid(2, 0, 1)
    with pytest.raises(ValueError, match="^item out of range$"):
        bids.replace_bid(0, 2, 1)
    with pytest.raises(ValueError, match="^item out of range$"):  # no counting from the end
        bids.replace_bid(0, -1, 1)
    # a rejected replacement leaves the profile as it was
    assert bids.bids == ((1, 2), (2, 1))


def test_bid_profile_replacements_equal_fresh_profiles():
    inst = Instance(((1, Fraction(3, 2)), (2, 0)))
    bids = BidProfile.sincere(inst)
    assert bids == BidProfile(inst.utilities)
    assert hash(bids) == hash(BidProfile(inst.utilities))
    swapped = bids.replace_row(1, (Fraction(4, 2), Fraction(1, 3)))
    assert swapped == BidProfile(((1, Fraction(3, 2)), (2, Fraction(1, 3))))
    assert type(swapped.bid(1, 0)) is int  # exact values stay normalized
    assert bids.replace_bid(0, 0, Fraction(6, 3)).bids == ((2, Fraction(3, 2)), (2, 0))


def test_allocation_bundles_and_rendering():
    alloc = Allocation((0, None, 1))
    assert alloc.m == 3
    assert alloc.bundle(0) == (0,)
    assert alloc.bundle(1) == (2,)
    assert str(alloc) == "o1:1 o2:- o3:2"
    assert str(Allocation(())) == "(empty)"
    with pytest.raises(ValueError):
        Allocation((0, -1))
    with pytest.raises(ValueError):
        Allocation((True,))


def test_bundle_utility_cross_valuation():
    u = ((1, 2, 4), (3, 1, 1))
    alloc = Allocation((1, 0, 0))
    assert bundle_utility(alloc, 0, 0, u) == 6
    assert bundle_utility(alloc, 0, 1, u) == 1
    assert bundle_utility(alloc, 1, 0, u) == 2


def test_distribution_validates_probabilities():
    inst = Instance(((1, 2), (2, 1)))
    ok = AllocationDistribution.from_map(
        inst, {Allocation((0, 0)): Fraction(1, 2), Allocation((1, 1)): Fraction(1, 2)}
    )
    assert dict(ok.entries) == {Allocation((0, 0)): Fraction(1, 2),
                                Allocation((1, 1)): Fraction(1, 2)}
    with pytest.raises(ValueError):
        AllocationDistribution.from_map(inst, {Allocation((0, 0)): Fraction(1, 2)})
    with pytest.raises(ValueError):
        AllocationDistribution.from_map(inst, {Allocation((0,)): 1})
    with pytest.raises(ValueError):
        AllocationDistribution.from_map(inst, {Allocation((5, 0)): 1})
    with pytest.raises(ValueError):
        AllocationDistribution(inst, ())


def test_distribution_rejects_bad_probabilities():
    inst = Instance(((1, 2), (2, 1)))
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="support probabilities must be positive"):
        AllocationDistribution.from_map(
            inst, {Allocation((0, 0)): 0, Allocation((1, 1)): 1})
    with pytest.raises(ValueError, match="support probabilities must be positive"):
        AllocationDistribution.from_map(inst, {
            Allocation((0, 0)): Fraction(-1, 2),
            Allocation((0, 1)): Fraction(3, 4),
            Allocation((1, 1)): Fraction(3, 4),
        })
    with pytest.raises(ValueError, match="probabilities must be Fractions"):
        AllocationDistribution(inst, ((Allocation((0, 0)), 1),))
    with pytest.raises(ValueError, match="duplicate allocation in support"):
        AllocationDistribution(inst, ((Allocation((0, 0)), half), (Allocation((0, 0)), half)))
    with pytest.raises(ValueError) as err:
        AllocationDistribution.from_map(inst, {Allocation((0, 0)): half})
    assert str(err.value) == "probabilities sum to 1/2, expected 1"
    with pytest.raises(ValueError, match="probabilities sum to 4/3, expected 1"):
        AllocationDistribution.from_map(
            inst, {Allocation((0, 0)): Fraction(2, 3), Allocation((1, 1)): Fraction(2, 3)})


def test_distribution_accepts_mixed_denominators_summing_to_one():
    inst = Instance(((1, 2), (2, 1)))
    dist = AllocationDistribution.from_map(inst, {
        Allocation((0, 0)): Fraction(1, 3),
        Allocation((0, 1)): Fraction(1, 6),
        Allocation((1, 1)): Fraction(1, 2),
    })
    assert dict(dist.entries)[Allocation((0, 1))] == Fraction(1, 6)


def test_distribution_support_is_canonically_ordered():
    inst = Instance(((1, 2), (2, 1)))
    dist = AllocationDistribution.from_map(inst, {
        Allocation((1, 1)): Fraction(1, 4),
        Allocation((0, 0)): Fraction(1, 4),
        Allocation((1, 0)): Fraction(1, 4),
        Allocation((0, 1)): Fraction(1, 4),
    })
    assert [a.owners for a in dist.support()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


_A = Allocation
_HALF = Fraction(1, 2)


# one fault per input; each message is the one this input has always raised
@pytest.mark.parametrize("entries, message", [
    ((), "distribution must have nonempty support"),
    (((_A((0,)), Fraction(1)),), "allocation length differs from instance size"),
    (((_A((0, 2)), Fraction(1)),), "owner index out of range"),
    (((_A((0, 1)), _HALF), (_A((0, 1)), _HALF)), "duplicate allocation in support"),
    (((_A((0, 1)), 1),), "probabilities must be Fractions"),
    (((_A((0, 1)), Fraction(0)), (_A((1, 1)), Fraction(1))),
     "support probabilities must be positive"),
    (((_A((0, 1)), Fraction(-1, 2)), (_A((1, 1)), Fraction(3, 2))),
     "support probabilities must be positive"),
    (((_A((0, 1)), _HALF), (_A((1, 1)), Fraction(1, 3))),
     "probabilities sum to 5/6, expected 1"),
], ids=["empty", "short", "owner", "duplicate", "type", "zero", "negative", "sum"])
def test_distribution_single_fault_messages(entries, message):
    with pytest.raises(ValueError) as err:
        AllocationDistribution(Instance(((1, 2), (2, 1))), entries)
    assert str(err.value) == message


def test_distribution_keeps_integer_weights():
    inst = Instance(((1, 2, 1), (2, 1, 1)))
    dist = AllocationDistribution.from_map(inst, {
        _A((1, None, 0)): Fraction(1, 6),
        _A((0, 1, 0)): _HALF,
        _A((0, None, 1)): Fraction(1, 3),
    })
    # a discarded item sorts before any agent
    assert [a.owners for a in dist.support()] == [(0, None, 1), (0, 1, 0), (1, None, 0)]
    assert (dist.weights, dist.scale) == ((2, 3, 1), 6)
    assert all(Fraction(w, dist.scale) == p for (_, p), w in zip(dist.entries, dist.weights))


def test_mix_sums_on_one_scale_and_keeps_its_errors():
    inst = Instance(((1, 2), (2, 1)))
    thirds = AllocationDistribution.from_map(
        inst, {_A((0, 0)): Fraction(1, 3), _A((1, 1)): Fraction(2, 3)})
    quarters = AllocationDistribution.from_map(
        inst, {_A((0, 0)): Fraction(1, 4), _A((0, 1)): Fraction(3, 4)})
    parts = [(thirds, Fraction(2, 5)), (quarters, Fraction(3, 5)), (thirds, 0)]
    want: dict = {}
    for dist, weight in parts:
        for alloc, prob in dist:
            want[alloc] = want.get(alloc, Fraction(0)) + weight * prob
    mixed = AllocationDistribution.mix(parts)
    assert mixed == AllocationDistribution.from_map(inst, {a: p for a, p in want.items() if p})
    assert mixed.scale == 60
    other = AllocationDistribution.from_map(Instance(((1, 2), (2, 2))), {_A((0, 0)): 1})
    for bad, message in (([], "nothing to mix"),
                         ([(thirds, Fraction(-1, 2)), (quarters, Fraction(3, 2))],
                          "mixture weights must be nonnegative"),
                         ([(thirds, _HALF), (other, _HALF)],
                          "can only mix distributions over one instance")):
        with pytest.raises(ValueError) as err:
            AllocationDistribution.mix(bad)
        assert str(err.value) == message


def test_distribution_mix_and_prefix():
    inst = Instance(((1, 2), (2, 1)))
    d1 = AllocationDistribution.from_map(inst, {Allocation((0, 0)): 1})
    d2 = AllocationDistribution.from_map(inst, {Allocation((1, 1)): 1})
    mixed = AllocationDistribution.mix([(d1, Fraction(1, 3)), (d2, Fraction(2, 3))])
    assert dict(mixed.entries) == {Allocation((0, 0)): Fraction(1, 3),
                               Allocation((1, 1)): Fraction(2, 3)}
    head = mixed.prefix(1)
    assert dict(head.entries) == {Allocation((0,)): Fraction(1, 3),
                                  Allocation((1,)): Fraction(2, 3)}
    with pytest.raises(ValueError):
        AllocationDistribution.mix([])
    with pytest.raises(ValueError):
        AllocationDistribution.mix([(d1, Fraction(-1, 2)), (d2, Fraction(3, 2))])


def test_assignment_matrix_column_sums():
    AssignmentMatrix(((Fraction(1, 2), 0), (Fraction(1, 2), 0)))  # 1 or 0 per column
    with pytest.raises(ValueError):
        AssignmentMatrix(((Fraction(1, 2), 1), (Fraction(1, 4), 0)))
    with pytest.raises(ValueError):
        AssignmentMatrix(((2, 0), (0, 1)))


def test_marginals_and_expected_utilities():
    inst = Instance(((1, 2), (2, 1)))
    dist = AllocationDistribution.from_map(inst, {
        Allocation((0, 1)): Fraction(1, 2),
        Allocation((1, 0)): Fraction(1, 2),
    })
    p = marginals(dist)
    assert p.entry(0, 0) == Fraction(1, 2)
    assert p.entry(1, 1) == Fraction(1, 2)
    ubar = expected_utilities(p, inst.utilities)
    # every bundle is a coin flip between the two items
    assert ubar.own() == (Fraction(3, 2), Fraction(3, 2))
    assert ubar.entry(0, 1) == Fraction(3, 2)
    with pytest.raises(ValueError):
        expected_utilities(p, ((1,), (2,)))


def test_marginals_skip_discarded_items():
    inst = Instance(((1, 1), (1, 2)))
    dist = AllocationDistribution.from_map(inst, {Allocation((None, 1)): 1})
    p = marginals(dist)
    assert [p.entry(i, 0) for i in range(2)] == [0, 0]
    assert p.entry(1, 1) == 1


def _reference_marginals(dist):
    """The Fraction-summing marginals that `marginal_counts` replaced."""
    n, m = dist.n, dist.m
    acc = [[Fraction(0)] * m for _ in range(n)]
    for alloc, prob in dist.entries:
        for j, o in enumerate(alloc.owners):
            if o is not None:
                acc[o][j] += prob
    return AssignmentMatrix(tuple(tuple(as_value(x) for x in row) for row in acc))


def _assert_same_marginals(dist):
    got, want = marginals(dist), _reference_marginals(dist)
    assert got == want
    assert [[type(x) for x in row] for row in got.p] == [[type(x) for x in row] for row in want.p]


def test_marginals_match_fraction_sums_on_seeded_distributions():
    rng = random.Random(20200629)
    for _ in range(200):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        inst = Instance(tuple(tuple(rng.randint(1, 3) for _ in range(m)) for _ in range(n)))
        options = [(None,) if rng.random() < 0.25 else tuple(range(n)) for _ in range(m)]
        allocs = [Allocation(o) for o in product(*options)]
        support = rng.sample(allocs, rng.randint(1, min(6, len(allocs))))
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 12)) for _ in support]
        total = sum(weights)
        dist = AllocationDistribution.from_map(
            inst, {a: w / total for a, w in zip(support, weights)})
        counts, scale = marginal_counts(dist)
        assert scale == math.lcm(*(p.denominator for _, p in dist))
        assert [[Fraction(c, scale) for c in row] for row in counts] == \
            [list(row) for row in _reference_marginals(dist).p]
        _assert_same_marginals(dist)


def test_marginals_match_fraction_sums_on_every_mechanism_over_grid():
    # every 0..3 bid profile at 2x3, zero columns (discarded items) included
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    mechs = [get_mechanism(name) for name in MECHANISM_NAMES]
    for flat in product(range(4), repeat=6):
        bids = BidProfile((flat[:3], flat[3:]))
        for mech in mechs:
            _assert_same_marginals(mech.run(inst, bids))


def _reference_expected_utilities(p, utilities):
    """The Fraction-summing cross-evaluation that the integer one replaced."""
    return tuple(
        tuple(as_value(sum((pk[j] * row_i[j] for j in range(p.m) if pk[j]), Fraction(0)))
              for pk in p.p)
        for row_i in utilities)


def test_expected_utilities_match_fraction_sums_on_seeded_matrices():
    rng = random.Random(20200629)
    for _ in range(200):
        n, m = rng.randint(2, 4), rng.randint(1, 5)
        columns = []
        for _ in range(m):
            # a discarded item's column is all zero; any other sums to 1
            shares = [Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(n)]
            if rng.random() < 0.2 or not any(shares):
                columns.append([0] * n)
            else:
                columns.append([x / sum(shares) for x in shares])
        p = AssignmentMatrix(tuple(zip(*columns)))
        # integer utilities now and then, so both scales get a turn at 1
        denominators = (1,) if rng.random() < 0.2 else (1, 2, 3, 5, 12)
        utilities = tuple(
            tuple(as_value(Fraction(rng.randint(0, 7), rng.choice(denominators)))
                  for _ in range(m))
            for _ in range(n))
        got = expected_utilities(p, utilities).ubar
        want = _reference_expected_utilities(p, utilities)
        assert got == want
        assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


def test_priority_order():
    assert tuple(PriorityOrder.identity(3)) == (0, 1, 2)
    assert PriorityOrder.from_one_based([2, 1]).order == (1, 0)
    with pytest.raises(ValueError):
        PriorityOrder((0, 2))
    with pytest.raises(ValueError):
        PriorityOrder((0, 0, 1))


_THREE_ITEMS = Instance(((1, 1, 1), (1, 1, 1)))

# Each bounded run with its exact work: like's 2*2*2 tree leaves, orp's 3!
# priority orders, pep's 2*2*2 enumerated allocations and maximum-like's
# 3*3 view-menu rows for one agent.
def _bounded(bound, call, *args):
    with work_bound(bound):
        return call(*args)


_BOUNDED_RUNS = {
    "like leaves": (8, lambda bound: _bounded(bound, like().run, _THREE_ITEMS)),
    "orp orders": (6, lambda bound: _bounded(bound, orp().run, Instance(((1,), (1,), (1,))))),
    "pep allocations": (8, lambda bound: _bounded(bound, check_pep, osd().run(_THREE_ITEMS))),
    "sp rows": (9, lambda bound: sp_falsify(maximum_like(), Instance(((1, 2), (2, 1))),
                                            max_candidates=bound)),
}


@pytest.mark.parametrize("name", sorted(_BOUNDED_RUNS))
def test_every_work_bound_admits_its_exact_work(name):
    work, call = _BOUNDED_RUNS[name]
    call(work)
    with pytest.raises(WorkBoundExceeded, match=f"may exceed {work - 1}$"):
        call(work - 1)


def test_work_bounds_below_one_are_errors():
    # a bound that admits no work is a caller error, not an inconclusive run
    for bound in (0, -1):
        with pytest.raises(ValueError, match=f"^like: work bound must be at least 1, got {bound}$"):
            with work_bound(bound):
                check_work_bound((), "like")
        for _, call in _BOUNDED_RUNS.values():
            with pytest.raises(ValueError, match=f"work bound must be at least 1, got {bound}$"):
                call(bound)
    with work_bound(1):
        check_work_bound((), "like")


def test_work_bound_nests_and_restores_the_outer_bound():
    assert current_work_bound() == DEFAULT_MAX_NODES
    with work_bound(8):
        with work_bound(4):
            assert current_work_bound() == 4
            with pytest.raises(WorkBoundExceeded, match="may exceed 4$"):
                check_work_bound((2, 2, 2), "like")
        assert current_work_bound() == 8
        check_work_bound((2, 2, 2), "like")
        with pytest.raises(WorkBoundExceeded), work_bound(1):
            like().run(_THREE_ITEMS)
        # restored after the block raised, and a nested bound may be larger
        assert current_work_bound() == 8
        with work_bound(16):
            check_work_bound((2, 2, 2, 2), "like")
    assert current_work_bound() == DEFAULT_MAX_NODES


_SWAP = Instance(((1, 2), (2, 1)))
_SWAP_MARGINALS = AssignmentMatrix(((_HALF, _HALF), (_HALF, _HALF)))

# Each public entry point that takes values, with ``x`` in a place where
# the value 1 is valid: a float, a bool or a string there must raise.
_VALUE_ENTRY_POINTS = {
    "Instance": lambda x: Instance(((x, 2), (2, 1))),
    "BidProfile": lambda x: BidProfile(((x, 2), (2, 1))),
    "BidProfile.replace_bid": lambda x: BidProfile.sincere(_SWAP).replace_bid(0, 0, x),
    "from_map": lambda x: AllocationDistribution.from_map(_SWAP, {_A((0, 0)): x}),
    "mix": lambda x: AllocationDistribution.mix([(like().run(_SWAP), x)]),
    "PriorityOrder": lambda x: PriorityOrder((x, 0)),
    "PriorityOrder.from_one_based": lambda x: PriorityOrder.from_one_based((x, 2)),
    "osd": lambda x: osd((x, 0)).run(_SWAP),
    "BidGrid": lambda x: BidGrid((x,)),
    "expected_utilities": lambda x: expected_utilities(_SWAP_MARGINALS, ((x, 2), (2, 1))),
    "checker utilities": lambda x: check_efa(like().run(_SWAP), ((x, 2), (2, 1))),
    "pea_solution": lambda x: pea_solution((x, 2), _SWAP),
}


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", sorted(_VALUE_ENTRY_POINTS))
def test_entry_points_reject_inexact_values(name, bad):
    call = _VALUE_ENTRY_POINTS[name]
    call(1)  # the slot takes the exact value
    with pytest.raises((TypeError, ValueError)):
        call(bad)


def test_probabilities_and_weights_are_exact():
    d1 = AllocationDistribution.from_map(_SWAP, {_A((0, 0)): 1})
    d2 = AllocationDistribution.from_map(_SWAP, {_A((1, 1)): 1})
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError, match="^expected int or Fraction, got "):
            AllocationDistribution.from_map(_SWAP, {_A((0, 0)): bad, _A((1, 1)): bad})
    # 0.1 and 0.9 are not exact tenths, and sum to a little more than 1
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        AllocationDistribution.mix([(d1, 0.1), (d2, 0.9)])
    mixed = AllocationDistribution.mix([(d1, Fraction(1, 10)), (d2, Fraction(9, 10))])
    assert dict(mixed.entries) == {_A((0, 0)): Fraction(1, 10), _A((1, 1)): Fraction(9, 10)}


def test_priority_orders_take_ints_only():
    for order in ((1.0, 0.0), (True, False), (1, False)):
        with pytest.raises(ValueError, match="^not a permutation of 0..1: "):
            PriorityOrder(order)
    with pytest.raises(ValueError, match="^not a permutation of 0..1: "):
        osd((1.0, 0.0)).run(_SWAP)
    # from_one_based no longer truncates
    with pytest.raises(ValueError, match="^not a permutation of 0..1: "):
        PriorityOrder.from_one_based((2.0, 1.5))
    assert PriorityOrder.from_one_based((2, 1)).order == (1, 0)
    assert dict(osd(PriorityOrder.from_one_based((2, 1))).run(_SWAP).entries) == {_A((1, 1)): 1}


def test_expected_utilities_check_the_whole_matrix():
    shape = "^utility matrix shape differs from assignment matrix$"
    for bad in (((1, 2), (2,)), ((1, 2), (2, 1, 0)), ((1, 2),), ((1, 2), (2, 1), (1, 1))):
        with pytest.raises(ValueError, match=shape):
            expected_utilities(_SWAP_MARGINALS, bad)
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        expected_utilities(_SWAP_MARGINALS, ((1.5, 2), (2, 1)))
    with pytest.raises(ValueError, match="^utility matrix entries must be nonnegative, got -1$"):
        expected_utilities(_SWAP_MARGINALS, ((1, 2), (-1, 1)))
    # an Instance is taken as its own matrix
    assert (expected_utilities(_SWAP_MARGINALS, _SWAP)
            == expected_utilities(_SWAP_MARGINALS, _SWAP.utilities))
