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

The engine, `_expand`, is one forward pass over the items. Each layer maps
a node, an owner prefix plus the rule's state key, to an int weight over
one common scale L = prod_j lcm(1..count of item j's candidates), so every
uniform split is an exact integer division and probabilities become
Fractions only in what `allocate` returns. The state key is what a rule's later feasible
sets depend on: `()` for osd, like and maximum-like, the bundle sizes for
balanced-like, the bid totals for pareto-like. `allocate` keeps every owner
prefix and turns the last layer into a distribution. `Mechanism.item_counts`
drops the owners, so nodes with equal keys merge, and returns only the
integer item marginals over L; the deviation searches need nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Hashable, Optional, Sequence

from .core import (
    DEFAULT_MAX_NODES,
    Allocation,
    AllocationDistribution,
    BidProfile,
    FairDivError,
    Instance,
    ItemCounts,
    PriorityOrder,
    Value,
    WorkBoundExceeded,
    as_value,
    integer_rows,
)

class RuleInvariantError(FairDivError):
    """A rule produced a feasible set inconsistent with the bids.

    Raised when a rule returns no agent for an item somebody bid for, or an
    agent for an item nobody bid for, and when a mechanism declared to read
    only bid signs is seen to react to a bid's size. Signals a bug in the
    rule, not bad input.
    """


class FeasibilityRule:
    """Per-item feasible-set policy driving the expansion engine.

    `candidates` names, for each item, the agents the rule can ever pick
    there: by default its positive bidders. The engine multiplies their
    counts over the items for its work bound before any other work, and its
    weight scale L holds lcm(1..count) for each item, so every uniform split
    of a weight is exact. `begin` then runs once per mechanism run and
    returns the state `feasible` reads; by default that is the candidates,
    and `feasible` returns the item's.

    Along each branch the engine carries a state key: it starts at
    `start(n)`, `advance` updates it after every assignment, and
    `feasible(state, item, key)` reads it. The key holds exactly what the
    rule's future feasible sets depend on beyond the bids: nothing (`()`)
    for osd, like and maximum-like, the bundle sizes for balanced-like
    (discarded items count for nobody), and each agent's bid total for their
    bundle for pareto-like. Branches with equal keys therefore continue
    identically, which is what lets the marginals-only pass merge them.
    """

    name = "?"

    def candidates(self, bids: BidProfile, positives: tuple[tuple[int, ...], ...],
                   ) -> tuple[tuple[int, ...], ...]:
        return positives

    def begin(self, bids: BidProfile, candidates: tuple[tuple[int, ...], ...]) -> object:
        return candidates

    def start(self, n: int) -> Hashable:
        return ()

    def advance(self, state: object, key: Hashable, agent: int, item: int) -> Hashable:
        return key

    def feasible(self, state: object, item: int, key: Hashable) -> tuple[int, ...]:
        return state[item]


class OsdRule(FeasibilityRule):
    """Serial dictatorship: highest-priority positive bidder takes the item."""

    name = "osd"

    def __init__(self, order: PriorityOrder):
        self.order = order

    def candidates(self, bids, positives):
        return tuple(next(((i,) for i in self.order if i in pos), ()) for pos in positives)


class LikeRule(FeasibilityRule):
    """Every positive bidder is feasible."""

    name = "like"


class BalancedLikeRule(FeasibilityRule):
    """Positive bidders currently holding the fewest items are feasible.

    The key is the tuple of bundle sizes.
    """

    name = "balanced-like"

    def start(self, n):
        return (0,) * n

    def advance(self, state, key, agent, item):
        sizes = list(key)
        sizes[agent] += 1
        return tuple(sizes)

    def feasible(self, state, item, key):
        pos = state[item]
        if not pos:
            return ()
        lightest = min(key[i] for i in pos)
        return tuple(i for i in pos if key[i] == lightest)


class MaximumLikeRule(FeasibilityRule):
    """Highest bidders are feasible; a zero maximum means discard."""

    name = "maximum-like"

    def candidates(self, bids, positives):
        tops: list[tuple[int, ...]] = []
        for j, pos in enumerate(positives):
            best = max((bids.bid(i, j) for i in pos), default=0)
            tops.append(tuple(i for i in pos if bids.bid(i, j) == best))
        return tuple(tops)


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


def maximal_levels(scaled: Sequence[Sequence[int]], positives: tuple[tuple[int, ...], ...],
                   ) -> list[list[tuple[int, ...]]]:
    """The Pareto-maximal achievable vectors of every item prefix, on ints.

    ``levels[j]`` holds the maximal vectors ``scaled`` gives over the first
    j items, each item going to one of its positive bidders (or discarded
    when it has none); ``levels[0]`` is the zero vector alone. Each level
    grows the one before and drops what is dominated, which is exact: an
    extension of a dominated prefix is dominated by the same extension of
    its dominator. Levels are in descending order of (sum, vector).
    """
    level: list[tuple[int, ...]] = [tuple([0] * len(scaled))]
    levels = [level]
    for j, pos in enumerate(positives):
        if pos:
            grown = []
            for v in level:
                for i in pos:
                    w = list(v)
                    w[i] += scaled[i][j]
                    grown.append(tuple(w))
            level = _undominated(grown)
        levels.append(level)
    return levels


def pareto_levels(bids: BidProfile, positives: tuple[tuple[int, ...], ...],
                  ) -> tuple[tuple[tuple[tuple[Value, ...], ...], ...],
                             tuple[frozenset, ...]]:
    """Per-prefix efficiency structure of a bid matrix.

    Returns, for every prefix length 1..m, the Pareto-maximal achievable
    bid-value vectors, and the subset of them from which the remaining
    items can still be assigned without ever leaving the maximal set. A
    maximal prefix vector can lack any maximal extension, so the second
    family is what a rule must stay inside to never get stuck.

    The bid matrix is first put on one integer scale (`integer_rows`), so
    every level is built by `maximal_levels` and filtered on int tuples;
    dominance and the look-ahead are unchanged by a positive scale. Both
    families come back in bid units, each level in descending order of
    (sum, vector).
    """
    m = bids.m
    scaled, scale = integer_rows(bids.bids)
    levels = maximal_levels(scaled, positives)[1:]
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

    The key is the vector of each agent's bid total for their bundle.
    """

    name = "pareto-like"

    def begin(self, bids, candidates):
        # the candidates are the positive bidders
        _, viable = pareto_levels(bids, candidates)
        return candidates, viable, bids

    def start(self, n):
        return (0,) * n

    def advance(self, state, key, agent, item):
        totals = list(key)
        totals[agent] += state[2].bid(agent, item)
        return tuple(totals)

    def feasible(self, state, item, key):
        positives, viable, bids = state
        pos = positives[item]
        if not pos:
            return ()
        out = []
        for i in pos:
            ext = list(key)
            ext[i] += bids.bid(i, item)
            if tuple(ext) in viable[item]:
                out.append(i)
        return tuple(out)


def _positive_bidders(bids: BidProfile) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(i for i in range(bids.n) if bids.bid(i, j) > 0) for j in range(bids.m)
    )


def _checked_bids(instance: Instance, bids: Optional[BidProfile]) -> BidProfile:
    if bids is None:
        return BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    return bids


def _share(weight: int, ways: int) -> int:
    """Each branch's weight when ``weight`` splits uniformly ``ways`` ways.

    Exact because the engine's scale holds, for every item, lcm(1..its
    candidate count).
    """
    return weight // ways


def _expand(rule: FeasibilityRule, instance: Instance, bids: BidProfile,
            max_nodes: Optional[int], keep_owners: bool,
            ) -> tuple[dict[tuple[tuple, Hashable], int], Optional[ItemCounts], int]:
    """The expansion engine: one forward pass over the items, layer by layer.

    A layer maps ``(owners, key)`` to an int weight over the common scale
    L = prod_j lcm(1..c_j), c_j the count of the rule's candidates for
    item j (at least 1); the root has weight L. At item j every node splits
    its weight uniformly over the rule's feasible set, or passes it on
    when the item is discarded. Dividing by the feasible-set size is exact,
    since the weight still holds every lcm factor of items j onward.

    With ``keep_owners`` every node keeps its owner prefix, so no two
    nodes merge and the last layer lists every allocation once. Without
    it the owners stay ``()``, nodes with equal keys merge, and each share
    is added into ``counts[i][j]``; the returned counts are None otherwise.
    Returns (last layer, counts, L). Raises WorkBoundExceeded before
    `begin` runs when the product of the c_j, a bound on the tree's leaves,
    exceeds ``max_nodes``.
    """
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    n, m = instance.n, instance.m
    positives = _positive_bidders(bids)
    candidates = rule.candidates(bids, positives)
    leaves = scale = 1
    for pick in candidates:
        width = max(1, len(pick))
        leaves *= width
        if leaves > bound:
            raise WorkBoundExceeded(
                f"{rule.name}: expansion tree may exceed {bound} leaves"
            )
        scale *= math.lcm(*range(1, width + 1))
    state = rule.begin(bids, candidates)
    counts = None if keep_owners else [[0] * m for _ in range(n)]
    layer: dict[tuple[tuple, Hashable], int] = {((), rule.start(n)): scale}
    for j in range(m):
        assigned = bool(positives[j])
        grown: dict[tuple[tuple, Hashable], int] = {}
        for (owners, key), weight in layer.items():
            feas = rule.feasible(state, j, key)
            if not feas:
                if assigned:
                    raise RuleInvariantError(
                        f"{rule.name}: no feasible agent for item {j + 1} despite positive bids"
                    )
                node = (owners + (None,) if keep_owners else (), key)
                grown[node] = grown.get(node, 0) + weight
                continue
            if not assigned:
                raise RuleInvariantError(
                    f"{rule.name}: item {j + 1} has no positive bid but was assigned"
                )
            share = _share(weight, len(feas))
            for i in feas:
                node = (owners + (i,) if keep_owners else (), rule.advance(state, key, i, j))
                grown[node] = grown.get(node, 0) + share
                if counts is not None:
                    counts[i][j] += share
        layer = grown
    return layer, counts, scale


def allocate(rule: FeasibilityRule, instance: Instance,
             bids: Optional[BidProfile] = None, *,
             max_nodes: Optional[int] = None) -> AllocationDistribution:
    """Run one rule over the whole horizon and expand every random choice.

    Returns the exact distribution over complete allocations: the engine's
    layered pass keeps every owner prefix, so each node of its last layer
    is one allocation, and its probability is the node's integer weight
    over the scale L. Raises WorkBoundExceeded when the expansion tree
    could exceed ``max_nodes`` leaves.
    """
    bids = _checked_bids(instance, bids)
    layer, _, scale = _expand(rule, instance, bids, max_nodes, keep_owners=True)
    return AllocationDistribution.from_map(
        instance, {Allocation(owners): Fraction(w, scale) for (owners, _), w in layer.items()}
    )


def _orp_outcomes(instance: Instance, bids: Optional[BidProfile],
                  max_nodes: Optional[int]) -> tuple[dict[tuple, int], int]:
    """How many of the n! priority orders lead to each allocation, and n!."""
    bids = _checked_bids(instance, bids)
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    n = instance.n
    fact = math.factorial(n)
    if fact > bound:
        raise WorkBoundExceeded(f"orp: {n}! priority orders exceed {bound}")
    outcomes: dict[tuple, int] = {}
    for perm in permutations(range(n)):
        owners = []
        for j in range(instance.m):
            pick = None
            for i in perm:
                if bids.bid(i, j) > 0:
                    pick = i
                    break
            owners.append(pick)
        key = tuple(owners)
        outcomes[key] = outcomes.get(key, 0) + 1
    return outcomes, fact


def orp_distribution(instance: Instance, bids: Optional[BidProfile] = None, *,
                     max_nodes: Optional[int] = None) -> AllocationDistribution:
    """Uniform mixture of serial dictatorships over all priority orders.

    Exact by construction: every one of the n! orders is run and the
    deterministic outcomes are merged with weight 1/n!.
    """
    outcomes, fact = _orp_outcomes(instance, bids, max_nodes)
    return AllocationDistribution.from_map(
        instance, {Allocation(owners): Fraction(c, fact) for owners, c in outcomes.items()}
    )


def _orp_counts(instance: Instance, bids: Optional[BidProfile],
                max_nodes: Optional[int]) -> tuple[ItemCounts, int]:
    """orp's item marginals as (counts, n!), from the priority-order counts."""
    outcomes, fact = _orp_outcomes(instance, bids, max_nodes)
    counts = [[0] * instance.m for _ in range(instance.n)]
    for owners, c in outcomes.items():
        for j, i in enumerate(owners):
            if i is not None:
                counts[i][j] += c
    return counts, fact


#: What a mechanism's outcome can depend on, per item column of the bids:
#: "signs", which bids are positive; "tops", which bidders bid the column's
#: positive maximum; "bids", the bid values themselves.
VIEWS = ("signs", "tops", "bids")


@dataclass(frozen=True)
class Mechanism:
    """A named mapping from (instance, bids) to an allocation distribution.

    ``counter`` gives the same outcome's item marginals in integer form,
    for the questions that need nothing else (see `item_counts`).

    ``view`` declares what the outcome reads of the bids (see `VIEWS`):
    two bid profiles that agree on it, column by column, must give the
    same distribution and the same work bound. The deviation searches rely
    on both to try one lie per reachable view and scan it once; "bids",
    the default, claims nothing.
    """

    name: str
    runner: Callable[[Instance, Optional[BidProfile], Optional[int]], AllocationDistribution]
    counter: Callable[[Instance, Optional[BidProfile], Optional[int]], tuple[ItemCounts, int]]
    view: str = "bids"

    def __post_init__(self) -> None:
        if self.view not in VIEWS:
            raise ValueError(f"unknown bid view {self.view!r}; expected one of {', '.join(VIEWS)}")

    def run(self, instance: Instance, bids: Optional[BidProfile] = None, *,
            max_nodes: Optional[int] = None) -> AllocationDistribution:
        return self.runner(instance, bids, max_nodes)

    def item_counts(self, instance: Instance, bids: Optional[BidProfile] = None, *,
                    max_nodes: Optional[int] = None) -> tuple[ItemCounts, int]:
        """Item marginals of `run`'s distribution as (counts, L): agent i
        gets item j with probability ``counts[i][j] / L``. No distribution
        is built, and the work bound is the one `run` applies."""
        return self.counter(instance, bids, max_nodes)


def _rule_mechanism(name: str, make_rule: Callable[[Instance], FeasibilityRule],
                    view: str) -> Mechanism:
    def run(instance, bids, max_nodes):
        return allocate(make_rule(instance), instance, bids, max_nodes=max_nodes)

    def count(instance, bids, max_nodes):
        rule = make_rule(instance)
        _, counts, scale = _expand(rule, instance, _checked_bids(instance, bids), max_nodes,
                                   keep_owners=False)
        return counts, scale

    return Mechanism(name, run, count, view)


def osd(order: PriorityOrder | Sequence[int] | None = None) -> Mechanism:
    """Serial dictatorship; defaults to the identity priority order."""

    def rule(instance):
        o = PriorityOrder.identity(instance.n) if order is None else order
        if not isinstance(o, PriorityOrder):
            o = PriorityOrder(tuple(o))
        if o.n != instance.n:
            raise ValueError("priority order length differs from agent count")
        return OsdRule(o)

    return _rule_mechanism("osd", rule, "signs")


def orp() -> Mechanism:
    def run(instance, bids, max_nodes):
        return orp_distribution(instance, bids, max_nodes=max_nodes)

    return Mechanism("orp", run, _orp_counts, "signs")


def like() -> Mechanism:
    return _rule_mechanism("like", lambda _: LikeRule(), "signs")


def balanced_like() -> Mechanism:
    return _rule_mechanism("balanced-like", lambda _: BalancedLikeRule(), "signs")


def maximum_like() -> Mechanism:
    return _rule_mechanism("maximum-like", lambda _: MaximumLikeRule(), "tops")


def pareto_like() -> Mechanism:
    # the Pareto levels compare bid sums, so the sizes matter
    return _rule_mechanism("pareto-like", lambda _: ParetoLikeRule(), "bids")


#: command-line name -> factory, in the order listings and reports use
FACTORIES: dict[str, Callable[[], Mechanism]] = {
    "osd": osd,
    "orp": orp,
    "like": like,
    "balanced-like": balanced_like,
    "maximum-like": maximum_like,
    "pareto-like": pareto_like,
}
MECHANISM_NAMES = tuple(FACTORIES)


def get_mechanism(name: str, *, sigma: PriorityOrder | Sequence[int] | None = None) -> Mechanism:
    """Look up a mechanism by its command-line name."""
    if name not in FACTORIES:
        raise ValueError(f"unknown mechanism {name!r}; expected one of {', '.join(MECHANISM_NAMES)}")
    if name == "osd":
        return osd(sigma)
    if sigma is not None:
        raise ValueError("--sigma only applies to osd")
    return FACTORIES[name]()
