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
    BidProfile,
    Instance,
    PriorityOrder,
    as_value,
    bundle_utility,
    expected_utilities,
    format_value,
    get_mechanism,
    marginals,
)
from fairdiv.core import marginal_counts


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
    assert ok.as_dict() == {Allocation((0, 0)): Fraction(1, 2), Allocation((1, 1)): Fraction(1, 2)}
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
    assert dist.as_dict()[Allocation((0, 1))] == Fraction(1, 6)


def test_distribution_support_is_canonically_ordered():
    inst = Instance(((1, 2), (2, 1)))
    dist = AllocationDistribution.from_map(inst, {
        Allocation((1, 1)): Fraction(1, 4),
        Allocation((0, 0)): Fraction(1, 4),
        Allocation((1, 0)): Fraction(1, 4),
        Allocation((0, 1)): Fraction(1, 4),
    })
    assert [a.owners for a in dist.support()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_distribution_mix_and_prefix():
    inst = Instance(((1, 2), (2, 1)))
    d1 = AllocationDistribution.from_map(inst, {Allocation((0, 0)): 1})
    d2 = AllocationDistribution.from_map(inst, {Allocation((1, 1)): 1})
    mixed = AllocationDistribution.mix([(d1, Fraction(1, 3)), (d2, Fraction(2, 3))])
    assert mixed.as_dict() == {Allocation((0, 0)): Fraction(1, 3),
                               Allocation((1, 1)): Fraction(2, 3)}
    head = mixed.prefix(1)
    assert head.as_dict() == {Allocation((0,)): Fraction(1, 3), Allocation((1,)): Fraction(2, 3)}
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


def test_priority_order():
    assert tuple(PriorityOrder.identity(3)) == (0, 1, 2)
    assert PriorityOrder.from_one_based([2, 1]).order == (1, 0)
    with pytest.raises(ValueError):
        PriorityOrder((0, 2))
    with pytest.raises(ValueError):
        PriorityOrder((0, 0, 1))
