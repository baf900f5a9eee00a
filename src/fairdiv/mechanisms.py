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

The engine, `_expand`, is one forward pass over the items on int weights
over one common scale L. Along each branch it carries the rule's state key
(see `FeasibilityRule`). `allocate` keeps every owner prefix and hands
the last layer's owners and int weights to the distribution as they are.
`Mechanism.item_counts` drops the owners, so nodes with equal keys merge,
and returns only the integer item marginals over L; the deviation searches
need nothing more. orp's are the `marginal_counts` of its distribution.
Each mechanism object counts a bid view (`view_key`) once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, permutations
from typing import Callable, Hashable, Optional, Sequence

from .core import (
    AllocationDistribution,
    BidProfile,
    FairDivError,
    Instance,
    ItemCounts,
    PriorityOrder,
    Value,
    as_value,
    check_work_bound,
    current_work_bound,
    integer_rows,
    marginal_counts,
)

class RuleInvariantError(FairDivError):
    """A rule produced a feasible set inconsistent with the bids.

    Raised when a rule returns no agent for an item somebody bid for, an
    agent for an item nobody bid for, or more agents than the item's
    candidates, and when a mechanism declared to read only bid signs is
    seen to react to a bid's size. Signals a bug in the rule, not bad
    input.
    """


class FeasibilityRule:
    """Per-item feasible-set policy driving the expansion engine.

    `candidates` names, for each item, the agents the rule can ever pick
    there (by default its positive bidders); their counts set the engine's
    work bound and scale L. `begin(bids, candidates, tally)` runs once per
    mechanism run, after `tally`, and returns the state `feasible` reads;
    by default that is the candidates, and `feasible` returns the item's.

    `feasible(state, item, key)` also reads the branch's state key, which
    `tally(bids)` declares: None keeps it at `()`; an n x m matrix makes it
    each agent's total of the matrix over their bundle. The key holds
    exactly what the rule's future feasible sets depend on beyond the bids:
    nothing for osd, like and maximum-like, the bundle sizes for
    balanced-like (ones; discarded items count for nobody), and the bid
    totals for pareto-like (the bids on their integer scale). Branches with
    equal keys therefore continue identically, which lets the
    marginals-only pass merge them.
    """

    name = "?"

    def candidates(self, bids: BidProfile, positives: tuple[tuple[int, ...], ...],
                   ) -> tuple[tuple[int, ...], ...]:
        return positives

    def begin(self, bids: BidProfile, candidates: tuple[tuple[int, ...], ...],
              tally: Optional[Sequence[Sequence[Value]]]) -> object:
        return candidates

    def tally(self, bids: BidProfile) -> Optional[Sequence[Sequence[Value]]]:
        return None

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

    def tally(self, bids):
        return ((1,) * bids.m,) * bids.n

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
        return view_key("tops", bids.bids)


_FEW_VECTORS = 8  # measured crossover of the two tests in `_undominated`


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

    Up to `_FEW_VECTORS` distinct vectors, where the masks' set-up costs
    more than it saves, each vector is instead tested against the maxima
    before it: only a larger sum can dominate, and dominance is transitive.
    """
    distinct = [v for _, v in sorted({(sum(v), v) for v in vectors}, reverse=True)]
    if len(distinct) <= _FEW_VECTORS:
        maxima: list[tuple[int, ...]] = []
        for v in distinct:
            for w in maxima:
                if all(map(operator.ge, w, v)):
                    break
            else:
                maxima.append(v)
        return maxima
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
            # a lone bidder shifts the whole level by one amount, which keeps
            # it maximal and in order
            level = grown if len(pos) == 1 else _undominated(grown)
        levels.append(level)
    return levels


def _pareto_moves(scaled: Sequence[Sequence[int]], positives: tuple[tuple[int, ...], ...],
                  ) -> tuple[list, list[dict]]:
    """`maximal_levels` and pareto-like's moves table, on ints: ``moves[j]``
    maps each viable vector of ``levels[j]`` (items j onward can be assigned
    without leaving the levels) to the positive bidders of item j whose
    move stays viable, or to ``()`` when item j is discarded."""
    levels = maximal_levels(scaled, positives)
    moves = []
    viable = dict.fromkeys(levels[-1])
    for j in range(len(positives) - 1, -1, -1):
        pos = positives[j]
        table = {}
        for v in levels[j]:
            if not pos:
                if v in viable:
                    table[v] = ()
                continue
            movers = []
            for i in pos:
                w = list(v)
                w[i] += scaled[i][j]
                if tuple(w) in viable:
                    movers.append(i)
            if movers:
                table[v] = tuple(movers)
        moves.append(table)
        viable = table
    moves.reverse()
    return levels, moves


def pareto_levels(bids: BidProfile) -> tuple[tuple[tuple[tuple[Value, ...], ...], ...],
                                             tuple[frozenset, ...]]:
    """Per-prefix efficiency structure of a bid matrix, in bid units.

    Returns, for every prefix length 1..m, the Pareto-maximal achievable
    bid-value vectors, and the subset of them from which the remaining
    items can still be assigned without ever leaving the maximal set. A
    maximal prefix vector can lack any maximal extension, so the second
    family is what a rule must stay inside to never get stuck.

    Both come from `_pareto_moves` on the bids' integer scale, read back in
    bid units, each level in descending order of (sum, vector).
    """
    scaled, scale = integer_rows(bids.bids)
    levels, moves = _pareto_moves(scaled, _positive_bidders(bids))
    levels = levels[1:]
    # the whole last level is viable
    viable = [frozenset(table) for table in moves[1:]] + [frozenset(lv) for lv in levels[-1:]]
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
    maximal sets: a maximal prefix can have only dominated extensions,
    which would strand probability mass. Every efficient complete
    allocation passes both conditions at every step, so exactly the
    efficient allocations are returned.

    So it reads later bids: on ``Instance(((1, 3, 1), (2, 3, 1)))`` items
    1-2 go to agents (1, 1), (2, 1) and (2, 2) with probabilities 1/2, 1/4
    and 1/4, but each of the four prefixes gets 1/4 under
    ``instance.prefix(2)`` or with item-3 bids (0, 1). The key (bid
    totals) and `begin`'s moves table are on `tally`'s integer scale.
    """

    name = "pareto-like"

    def begin(self, bids, candidates, tally):
        # the candidates are the positive bidders
        return _pareto_moves(tally, candidates)[1]

    def tally(self, bids):
        return integer_rows(bids.bids)[0]

    def feasible(self, state, item, key):
        try:
            return state[item][key]
        except KeyError:
            raise RuleInvariantError(
                f"{self.name}: bid totals {key} off the table at item {item + 1}") from None


def _positive_bidders(bids: BidProfile) -> tuple[tuple[int, ...], ...]:
    return view_key("signs", bids.bids)


def _share(weight: int, ways: int) -> int:
    """Each branch's weight when ``weight`` splits uniformly ``ways`` ways.

    Exact because the engine's scale holds, for every item, lcm(1..its
    candidate count).
    """
    return weight // ways


def _expand(rule: FeasibilityRule, instance: Instance, bids: Optional[BidProfile],
            keep_owners: bool,
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
    exceeds the `work_bound`, and RuleInvariantError when a feasible set is
    larger than c_j.
    """
    n, m = instance.n, instance.m
    bids = BidProfile.for_instance(instance, bids)
    positives = _positive_bidders(bids)
    candidates = rule.candidates(bids, positives)
    widths = [max(1, len(pick)) for pick in candidates]
    check_work_bound(widths, f"{rule.name}: expansion tree leaves")
    scale = math.prod(math.lcm(*range(1, width + 1)) for width in widths)
    tally = rule.tally(bids)
    state = rule.begin(bids, candidates, tally)
    counts = None if keep_owners else [[0] * m for _ in range(n)]
    layer: dict[tuple[tuple, Hashable], int] = {((), () if tally is None else (0,) * n): scale}
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
            ways = len(feas)
            if ways > widths[j]:
                raise RuleInvariantError(
                    f"{rule.name}: {ways} feasible agents for item {j + 1} "
                    f"exceed its {widths[j]} candidates"
                )
            share = _share(weight, ways)
            for i in feas:
                if tally is None:
                    child = key
                else:
                    totals = list(key)
                    totals[i] += tally[i][j]
                    child = tuple(totals)
                node = (owners + (i,) if keep_owners else (), child)
                grown[node] = grown.get(node, 0) + share
                if counts is not None:
                    counts[i][j] += share
        layer = grown
    return layer, counts, scale


def allocate(rule: FeasibilityRule, instance: Instance,
             bids: Optional[BidProfile] = None) -> AllocationDistribution:
    """Run one rule over the whole horizon and expand every random choice.

    Returns the exact distribution over complete allocations: the engine's
    layered pass keeps every owner prefix, so each node of its last layer
    is one allocation, and the node's int weight over the scale L goes to
    the distribution as it is. Raises WorkBoundExceeded when the expansion
    tree could have more leaves than the `work_bound`.
    """
    layer, _, scale = _expand(rule, instance, bids, keep_owners=True)
    return AllocationDistribution._trusted(instance, {o: w for (o, _), w in layer.items()}, scale)


def orp_distribution(instance: Instance,
                     bids: Optional[BidProfile] = None) -> AllocationDistribution:
    """Uniform mixture of serial dictatorships over all priority orders.

    Exact by construction: every one of the n! orders is run, and each
    allocation's weight over n! is the number of orders that lead to it.
    """
    positives = _positive_bidders(BidProfile.for_instance(instance, bids))
    n = instance.n
    check_work_bound(range(1, n + 1), "orp: priority orders")
    outcomes: dict[tuple, int] = {}
    for perm in permutations(range(n)):
        key = tuple(next((i for i in perm if i in pos), None) for pos in positives)
        outcomes[key] = outcomes.get(key, 0) + 1
    return AllocationDistribution._trusted(instance, outcomes, math.factorial(n))


#: What a mechanism's outcome can depend on, per item column of the bids:
#: "signs", which bids are positive; "tops", which bidders bid the column's
#: positive maximum; "bids", the bid values themselves.
VIEWS = ("signs", "tops", "bids")


def view_key(view: str, bids: Sequence[Sequence[Value]]) -> Hashable:
    """What a mechanism with bid view ``view`` reads of the nonnegative bid
    matrix ``bids`` (see `VIEWS`): for "signs", each column's positive
    bidders; for "tops", each column's bidders at its positive maximum, or
    ``()`` when the maximum is 0; for "bids", the matrix itself. The
    column keys do not hold the agent count."""
    agents = range(len(bids))
    if view == "signs":
        # bids are nonnegative, so the nonzero ones are the positive ones
        return tuple(tuple(compress(agents, column)) for column in zip(*bids))
    if view == "tops":
        tops = []
        for column in zip(*bids):
            top = max(column)
            tops.append(tuple(i for i in agents if column[i] == top) if top else ())
        return tuple(tops)
    if view == "bids":
        return tuple(map(tuple, bids))
    raise ValueError(f"unknown bid view {view!r}; expected one of {', '.join(VIEWS)}")


@dataclass(frozen=True)
class Mechanism:
    """A named mapping from (instance, bids) to an allocation distribution.

    ``counter`` gives the same outcome's item marginals in integer form,
    for the questions that need nothing else (see `item_counts`).

    ``view`` declares what the outcome reads of the bids (see `VIEWS` and
    `view_key`): two bid profiles of one shape that agree on it must give
    the same distribution and the same work bound. `item_counts` relies on
    that to count each view once per mechanism object, and the deviation
    searches to try one lie per reachable view; "bids", the default,
    claims nothing. `run` always runs.
    """

    name: str
    runner: Callable[[Instance, Optional[BidProfile]], AllocationDistribution]
    counter: Callable[[Instance, Optional[BidProfile]], tuple[ItemCounts, int]]
    view: str = "bids"
    # (n, view key, work bound) -> (counts, L), filled by `item_counts`
    _counted: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.view not in VIEWS:
            raise ValueError(f"unknown bid view {self.view!r}; expected one of {', '.join(VIEWS)}")

    def run(self, instance: Instance,
            bids: Optional[BidProfile] = None) -> AllocationDistribution:
        return self.runner(instance, bids)

    def item_counts(self, instance: Instance,
                    bids: Optional[BidProfile] = None) -> tuple[ItemCounts, int]:
        """Item marginals of `run`'s distribution as (counts, L): agent i
        gets item j with probability ``counts[i][j] / L``. No distribution
        is built, and the work bound is the one `run` applies.

        ``counter`` runs once per agent count, bid view and `work_bound`:
        later profiles with the same ones reuse its answer, as the view
        contract allows, in fresh lists. Exceptions are not kept, so a
        bound trips on every call.
        """
        bids = BidProfile.for_instance(instance, bids)
        key = (instance.n, view_key(self.view, bids.bids), current_work_bound())
        known = self._counted.get(key)
        if known is None:
            known = self._counted[key] = self.counter(instance, bids)
        counts, scale = known
        return [list(row) for row in counts], scale


def _rule_mechanism(name: str, make_rule: Callable[[Instance], FeasibilityRule],
                    view: str) -> Mechanism:
    def run(instance, bids):
        return allocate(make_rule(instance), instance, bids)

    def count(instance, bids):
        _, counts, scale = _expand(make_rule(instance), instance, bids, keep_owners=False)
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
    def run(instance, bids):
        return orp_distribution(instance, bids)

    return Mechanism("orp", run, lambda *args: marginal_counts(run(*args)), "signs")


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
