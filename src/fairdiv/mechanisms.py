"""Sequential allocation engine and the six built-in feasibility rules.

A mechanism processes items in arrival order. At each item it computes a set
of feasible agents from the bids and the partial allocation built so far,
then gives the item to one of them uniformly at random; items nobody bids
for are discarded. Expanding every random choice yields an exact, finite
distribution over complete allocations, which is what `allocate` returns.

Rules differ only in how the feasible set is computed:

- osd:           the first agent in a fixed priority order with a positive bid
- like:          every agent with a positive bid
- balanced-like: positive bidders holding the fewest items on this branch
- maximum-like:  positive bidders with the highest bid
- pareto-like:   positive bidders whose assignment keeps the partial
                 allocation Pareto efficient among same-prefix allocations
                 and still completable to an efficient full allocation

orp is the uniform mixture of osd over all priority orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_MAX_NODES,
    Allocation,
    AllocationDistribution,
    BidProfile,
    FairDivError,
    Instance,
    PriorityOrder,
    Value,
    WorkBoundExceeded,
    as_value,
)

MECHANISM_NAMES = ("osd", "orp", "like", "balanced-like", "maximum-like", "pareto-like")


class RuleInvariantError(FairDivError):
    """A rule produced a feasible set inconsistent with the bids.

    Raised when a rule returns no agent for an item somebody bid for, or an
    agent for an item nobody bid for. Signals a bug in the rule, not bad
    input.
    """


class FeasibilityRule:
    """Per-item feasible-set policy driving `allocate`.

    `begin` runs once per mechanism run and may precompute state from the
    bids; `feasible` is called at every tree node. `sizes` counts the items
    each agent holds on the current branch (discarded items count for
    nobody); `totals` is each agent's bid value for their current branch
    bundle and is only maintained when `uses_totals` is set.
    """

    name = "?"
    uses_totals = False

    def begin(self, instance: Instance, bids: BidProfile,
              positives: tuple[tuple[int, ...], ...]) -> object:
        return positives

    def feasible(self, state: object, item: int, sizes: Sequence[int],
                 totals: Optional[Sequence[Value]]) -> tuple[int, ...]:
        raise NotImplementedError

    def branch_width(self, positives: tuple[tuple[int, ...], ...], item: int) -> int:
        return max(1, len(positives[item]))


class OsdRule(FeasibilityRule):
    """Serial dictatorship: highest-priority positive bidder takes the item."""

    name = "osd"

    def __init__(self, order: PriorityOrder):
        self.order = order

    def begin(self, instance, bids, positives):
        first: list[tuple[int, ...]] = []
        for j in range(bids.m):
            pick: tuple[int, ...] = ()
            for i in self.order:
                if bids.bid(i, j) > 0:
                    pick = (i,)
                    break
            first.append(pick)
        return tuple(first)

    def feasible(self, state, item, sizes, totals):
        return state[item]

    def branch_width(self, positives, item):
        return 1


class LikeRule(FeasibilityRule):
    """Every positive bidder is feasible."""

    name = "like"

    def feasible(self, state, item, sizes, totals):
        return state[item]


class BalancedLikeRule(FeasibilityRule):
    """Positive bidders currently holding the fewest items are feasible."""

    name = "balanced-like"

    def feasible(self, state, item, sizes, totals):
        pos = state[item]
        if not pos:
            return ()
        lightest = min(sizes[i] for i in pos)
        return tuple(i for i in pos if sizes[i] == lightest)


class MaximumLikeRule(FeasibilityRule):
    """Highest bidders are feasible; a zero maximum means discard."""

    name = "maximum-like"

    def begin(self, instance, bids, positives):
        tops: list[tuple[int, ...]] = []
        for j in range(bids.m):
            col = [bids.bid(i, j) for i in range(bids.n)]
            best = max(col)
            tops.append(tuple(i for i, v in enumerate(col) if v == best) if best > 0 else ())
        return tuple(tops)

    def feasible(self, state, item, sizes, totals):
        return state[item]


def _undominated(vectors: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Pareto-maximal elements of a set of integer vectors.

    A vector is dropped when another one is at least as large everywhere and
    strictly larger somewhere. Equal vectors do not dominate each other, so
    the result is deduplicated but keeps every maximal value, in descending
    order of (sum, vector).

    The filter works on bitsets. Every distinct vector owns one bit. For
    each coordinate, the vectors are grouped by their value there, and the
    group masks are ORed in descending value order, so each value maps to
    the mask of vectors at least that large on the coordinate. ANDing a
    vector's masks over all coordinates leaves the vectors weakly above it
    everywhere; it is maximal exactly when that is its own bit alone. N
    distinct vectors of length n cost O(N * n) operations on N-bit ints.
    """
    distinct = sorted(set(vectors), key=lambda v: (sum(v), v), reverse=True)
    above = [-1] * len(distinct)
    for column in zip(*distinct):
        at_least: dict[int, int] = {}
        for idx, x in enumerate(column):
            at_least[x] = at_least.get(x, 0) | (1 << idx)
        mask = 0
        for x in sorted(at_least, reverse=True):
            mask |= at_least[x]
            at_least[x] = mask
        for idx, x in enumerate(column):
            above[idx] &= at_least[x]
    return [v for idx, v in enumerate(distinct) if above[idx] == 1 << idx]


def pareto_levels(bids: BidProfile, positives: tuple[tuple[int, ...], ...],
                  ) -> tuple[tuple[tuple[tuple[Value, ...], ...], ...],
                             tuple[frozenset, ...]]:
    """Per-prefix efficiency structure of a bid matrix.

    Returns, for every prefix length 1..m, the Pareto-maximal achievable
    bid-value vectors, and the subset of them from which the remaining
    items can still be assigned without ever leaving the maximal set. A
    maximal prefix vector can lack any maximal extension, so the second
    family is what a rule must stay inside to never get stuck.

    The bid matrix is first multiplied by the lcm of its denominators, so
    every level is built and filtered on int tuples; dominance and the
    look-ahead are unchanged by a positive scale. Both families come back
    in bid units, each level in descending order of (sum, vector).
    """
    n, m = bids.n, bids.m
    scale = math.lcm(*(b.denominator for row in bids.bids for b in row))
    scaled = [[b.numerator * (scale // b.denominator) for b in row] for row in bids.bids]
    levels: list[list[tuple[int, ...]]] = []
    level: list[tuple[int, ...]] = [tuple([0] * n)]
    for j in range(m):
        pos = positives[j]
        if pos:
            grown = []
            for v in level:
                for i in pos:
                    w = list(v)
                    w[i] += scaled[i][j]
                    grown.append(tuple(w))
            level = _undominated(grown)
        levels.append(level)
    viable: list[frozenset] = [frozenset()] * m
    if m:
        viable[m - 1] = frozenset(levels[m - 1])
        for j in range(m - 1, 0, -1):
            pos = positives[j]
            keep = set()
            for v in levels[j - 1]:
                if not pos:
                    if v in viable[j]:
                        keep.add(v)
                    continue
                for i in pos:
                    w = list(v)
                    w[i] += scaled[i][j]
                    if tuple(w) in viable[j]:
                        keep.add(v)
                        break
            viable[j - 1] = frozenset(keep)
    if scale != 1:
        unit = {v: tuple(as_value(Fraction(x, scale)) for x in v) for lv in levels for v in lv}
        levels = [[unit[v] for v in lv] for lv in levels]
        viable = [frozenset(unit[v] for v in vs) for vs in viable]
    return tuple(tuple(lv) for lv in levels), tuple(viable)


class ParetoLikeRule(FeasibilityRule):
    """Positive bidders whose assignment stays on a path to an efficient
    complete allocation, judged on bids.

    Giving item j to agent i is feasible when the extended partial
    allocation is Pareto maximal among allocations of the same item prefix
    and the remaining items can still be assigned without leaving the
    maximal sets. The second condition matters: a maximal prefix can have
    only dominated extensions, and allowing such a branch would strand
    probability mass on item sequences nobody can finish efficiently.
    Every efficient complete allocation passes both conditions at every
    step, so exactly the efficient allocations are returned.
    """

    name = "pareto-like"
    uses_totals = True

    def begin(self, instance, bids, positives):
        _, viable = pareto_levels(bids, positives)
        return positives, viable, bids

    def feasible(self, state, item, sizes, totals):
        positives, viable, bids = state
        pos = positives[item]
        if not pos:
            return ()
        out = []
        for i in pos:
            ext = list(totals)
            ext[i] += bids.bid(i, item)
            if tuple(ext) in viable[item]:
                out.append(i)
        return tuple(out)


def _positive_bidders(bids: BidProfile) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(i for i in range(bids.n) if bids.bid(i, j) > 0) for j in range(bids.m)
    )


def allocate(rule: FeasibilityRule, instance: Instance,
             bids: Optional[BidProfile] = None, *,
             max_nodes: Optional[int] = None) -> AllocationDistribution:
    """Run one rule over the whole horizon and expand every random choice.

    Returns the exact distribution over complete allocations. Each node
    splits probability uniformly over the feasible set; distinct leaves are
    distinct allocations, so the support needs no merging. Raises
    WorkBoundExceeded when the expansion tree could exceed ``max_nodes``
    leaves.
    """
    if bids is None:
        bids = BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    positives = _positive_bidders(bids)
    width = 1
    for j in range(instance.m):
        width *= rule.branch_width(positives, j)
        if width > bound:
            raise WorkBoundExceeded(
                f"{rule.name}: expansion tree may exceed {bound} leaves"
            )
    state = rule.begin(instance, bids, positives)
    n, m = instance.n, instance.m
    owners: list[Optional[int]] = [None] * m
    sizes = [0] * n
    totals: Optional[list[Value]] = [0] * n if rule.uses_totals else None
    support: dict[Allocation, Fraction] = {}

    def walk(j: int, den: int) -> None:
        if j == m:
            alloc = Allocation(tuple(owners))
            support[alloc] = support.get(alloc, Fraction(0)) + Fraction(1, den)
            return
        feas = rule.feasible(state, j, sizes, totals)
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
            if totals is not None:
                totals[i] += bids.bid(i, j)
            walk(j + 1, den * k)
            if totals is not None:
                totals[i] -= bids.bid(i, j)
            sizes[i] -= 1
        owners[j] = None

    walk(0, 1)
    return AllocationDistribution.from_map(instance, support)


def orp_distribution(instance: Instance, bids: Optional[BidProfile] = None, *,
                     max_nodes: Optional[int] = None) -> AllocationDistribution:
    """Uniform mixture of serial dictatorships over all priority orders.

    Exact by construction: every one of the n! orders is run and the
    deterministic outcomes are merged with weight 1/n!.
    """
    if bids is None:
        bids = BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    n = instance.n
    fact = math.factorial(n)
    if fact > bound:
        raise WorkBoundExceeded(f"orp: {n}! priority orders exceed {bound}")
    counts: dict[Allocation, int] = {}
    for perm in permutations(range(n)):
        owners = []
        for j in range(instance.m):
            pick = None
            for i in perm:
                if bids.bid(i, j) > 0:
                    pick = i
                    break
            owners.append(pick)
        alloc = Allocation(tuple(owners))
        counts[alloc] = counts.get(alloc, 0) + 1
    support = {a: Fraction(c, fact) for a, c in counts.items()}
    return AllocationDistribution.from_map(instance, support)


@dataclass(frozen=True)
class Mechanism:
    """A named mapping from (instance, bids) to an allocation distribution."""

    name: str
    runner: Callable[[Instance, Optional[BidProfile], Optional[int]], AllocationDistribution]

    def run(self, instance: Instance, bids: Optional[BidProfile] = None, *,
            max_nodes: Optional[int] = None) -> AllocationDistribution:
        return self.runner(instance, bids, max_nodes)


def osd(order: PriorityOrder | Sequence[int] | None = None) -> Mechanism:
    """Serial dictatorship; defaults to the identity priority order."""

    def run(instance, bids, max_nodes):
        o = PriorityOrder.identity(instance.n) if order is None else order
        if not isinstance(o, PriorityOrder):
            o = PriorityOrder(tuple(o))
        if o.n != instance.n:
            raise ValueError("priority order length differs from agent count")
        return allocate(OsdRule(o), instance, bids, max_nodes=max_nodes)

    return Mechanism("osd", run)


def orp() -> Mechanism:
    def run(instance, bids, max_nodes):
        return orp_distribution(instance, bids, max_nodes=max_nodes)

    return Mechanism("orp", run)


def _rule_mechanism(name: str, factory: Callable[[], FeasibilityRule]) -> Mechanism:
    def run(instance, bids, max_nodes):
        return allocate(factory(), instance, bids, max_nodes=max_nodes)

    return Mechanism(name, run)


def like() -> Mechanism:
    return _rule_mechanism("like", LikeRule)


def balanced_like() -> Mechanism:
    return _rule_mechanism("balanced-like", BalancedLikeRule)


def maximum_like() -> Mechanism:
    return _rule_mechanism("maximum-like", MaximumLikeRule)


def pareto_like() -> Mechanism:
    return _rule_mechanism("pareto-like", ParetoLikeRule)


def get_mechanism(name: str, *, sigma: PriorityOrder | Sequence[int] | None = None) -> Mechanism:
    """Look up a mechanism by its command-line name."""
    if name == "osd":
        return osd(sigma)
    if sigma is not None:
        raise ValueError("--sigma only applies to osd")
    table = {
        "orp": orp,
        "like": like,
        "balanced-like": balanced_like,
        "maximum-like": maximum_like,
        "pareto-like": pareto_like,
    }
    if name not in table:
        raise ValueError(f"unknown mechanism {name!r}; expected one of {', '.join(MECHANISM_NAMES)}")
    return table[name]()
