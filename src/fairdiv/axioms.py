"""Axiom checkers for allocation distributions.

Every checker takes the distribution a mechanism produced and judges it
against the true utilities of the instance it was computed on, which a
run on strategic bids carries too.

Checkers return an AxiomVerdict carrying the boolean, a slack margin where
one is meaningful, and a concrete witness when the axiom fails. Agent and
item indices are 0-based in the dataclasses and rendered 1-based in
``to_json``, matching the command line convention.

Every check computes on integers. It puts the judged utility matrix on one
scale D, the lcm of its denominators (`integer_rows`; for an envy bound, of
the bound's too). The ex post checks build each support allocation's n x n
bundle values in one pass over its owners. The ex ante checks read the
distribution's integer marginals over L (`marginal_counts`) and compare
cross-values over L * D; prefix-efa reads the first j columns of the same
marginals, since an item's marginal does not depend on later items. pep
compares each support vector with the last of the Pareto levels
(`maximal_levels`) of the judged utilities used as bids, and enumerates
allocations only to name its witness. pea holds exactly when positive
agent weights make every support allocation a weighted welfare maximizer
(`_supporting_weights`, the LP's dual certificate, found without
enumerating); only a failing pea runs the LP, for its margin and witness.
Fractions are built only for the margin and the witness a verdict returns,
so every verdict equals the one exact rational arithmetic gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    Allocation,
    AllocationDistribution,
    AssignmentMatrix,
    BidProfile,
    Instance,
    Value,
    as_value,
    check_column_sum,
    check_work_bound,
    format_value,
    integer_rows,
    marginal_counts,
    marginals,
)
from .mechanisms import Mechanism, maximal_levels
from .oracle import LPSolution, enumerate_allocations, pea_solution

Utilities = tuple[tuple[Value, ...], ...]


@dataclass(frozen=True)
class EnvyWitness:
    """Agent prefers rival's holdings; allocation is None for ex ante envy."""

    allocation: Optional[Allocation]
    agent: int
    rival: int
    own: Value
    others: Value

    def to_json(self) -> dict:
        return {
            "kind": "envy",
            "allocation": None if self.allocation is None else str(self.allocation),
            "agent": self.agent + 1,
            "rival": self.rival + 1,
            "own": format_value(self.own),
            "others": format_value(self.others),
        }


@dataclass(frozen=True)
class DominationWitness:
    """A support allocation and another allocation that Pareto dominates it."""

    allocation: Allocation
    dominator: Allocation

    def to_json(self) -> dict:
        return {
            "kind": "domination",
            "allocation": str(self.allocation),
            "dominator": str(self.dominator),
        }


@dataclass(frozen=True)
class ImprovementWitness:
    """A lottery giving every agent at least, and in total more, utility."""

    solution: LPSolution

    def to_json(self) -> dict:
        return {
            "kind": "lottery-improvement",
            "objective": format_value(self.solution.objective),
            "gains": [format_value(g) for g in self.solution.gains],
            "weights": [
                {"allocation": str(a), "probability": format_value(w)}
                for a, w in self.solution.weights
            ],
        }


Witness = Union[EnvyWitness, DominationWitness, ImprovementWitness]


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    holds: bool
    margin: Optional[Value] = None
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "margin": None if self.margin is None else format_value(self.margin),
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _value(x: int, scale: int) -> Value:
    return as_value(Fraction(x, scale))


def _envy_verdict(axiom: str, worst: Optional[tuple], scale: int) -> AxiomVerdict:
    """The verdict from the worst ``(gap, owners, agent, rival, own,
    others)`` comparison, every number over ``scale`` and ``owners`` None
    ex ante; None when nothing was compared."""
    if worst is None:
        return AxiomVerdict(axiom, True, None, None)
    gap, owners, i, k, own, others = worst
    margin = _value(gap, scale)
    if gap >= 0:
        return AxiomVerdict(axiom, True, margin, None)
    alloc = None if owners is None else Allocation._trusted(owners)
    witness = EnvyWitness(alloc, i, k, _value(own, scale), _value(others, scale))
    return AxiomVerdict(axiom, False, margin, witness)


def _ex_post(axiom: str, dist: AllocationDistribution, u: Utilities, *,
             bound: Value = 0, strong: bool = False) -> AxiomVerdict:
    """Smallest ``own + bound - others`` over every ordered pair of agents
    in every support allocation, the first smallest as the witness.

    ``own`` is agent i's value for its bundle; with ``strong`` only for the
    items of it that the rival values positively. Each allocation's n x n
    bundle values are built in one pass over its owners.
    """
    scaled, scale = integer_rows(u, bound.denominator)
    slack = bound.numerator * (scale // bound.denominator)
    n = dist.n
    worst = None
    for owners in dist.owners:
        held = [[0] * n for _ in range(n)]  # held[i][k]: i's value for k's bundle
        if strong:  # liked[i][k]: i's value for its items k likes
            liked = [[0] * n for _ in range(n)]
        for j, o in enumerate(owners):
            if o is None:
                continue
            for i in range(n):
                held[i][o] += scaled[i][j]
            if strong:
                x = scaled[o][j]
                for k in range(n):
                    if scaled[k][j] > 0:
                        liked[o][k] += x
        for i in range(n):
            row = held[i]
            for k in range(n):
                if k == i:
                    continue
                own = liked[i][k] if strong else row[i]
                gap = own + slack - row[k]
                if worst is None or gap < worst[0]:
                    worst = (gap, owners, i, k, own, row[k])
    return _envy_verdict(axiom, worst, scale)


def check_efp(dist: AllocationDistribution) -> AxiomVerdict:
    """No agent envies another in any allocation the mechanism can output."""
    return _ex_post("efp", dist, dist.instance.utilities)


def check_sefp(dist: AllocationDistribution) -> AxiomVerdict:
    """Ex post envy-freeness judged on the items the rival actually likes.

    Agent i only gets credit for items in its own bundle that agent k values
    positively, yet must still match its value for k's whole bundle.
    """
    return _ex_post("sefp", dist, dist.instance.utilities, strong=True)


class _ExAnte:
    """Integer item marginals and expected bundle values of a distribution.

    ``counts`` and ``L`` come from `marginal_counts` and ``scaled`` and
    ``D`` from `integer_rows`, so every expected value is an int over
    ``scale = L * D``. `extend` adds one item to ``cross``, where
    ``cross[i][k]`` is agent i's expected value for agent k's bundle over
    the items added so far; an item's marginals do not depend on later
    items, so after j items ``cross`` is that of the j-item prefix.
    """

    def __init__(self, dist: AllocationDistribution, u: Utilities) -> None:
        self.counts, self.L = marginal_counts(dist)
        self.scaled, d = integer_rows(u)
        self.scale = self.L * d
        self.n, self.m = dist.n, dist.m
        self.cross = [[0] * self.n for _ in range(self.n)]

    def extend(self, item: int) -> None:
        check_column_sum(self.counts, item, self.L)
        for i, row in enumerate(self.cross):
            x = self.scaled[i][item]
            if x:
                for k in range(self.n):
                    row[k] += self.counts[k][item] * x

    def expected(self) -> list[list[int]]:
        """``cross`` over every item."""
        for j in range(self.m):
            self.extend(j)
        return self.cross

    def envy(self, axiom: str, own) -> AxiomVerdict:
        """Smallest ``own(i, k) - cross[i][k]`` over ordered pairs."""
        worst = None
        for i in range(self.n):
            for k in range(self.n):
                if k == i:
                    continue
                mine = own(i, k)
                gap = mine - self.cross[i][k]
                if worst is None or gap < worst[0]:
                    worst = (gap, None, i, k, mine, self.cross[i][k])
        return _envy_verdict(axiom, worst, self.scale)


def check_efa(dist: AllocationDistribution) -> AxiomVerdict:
    """No agent envies another's expected utility under the item marginals."""
    ex = _ExAnte(dist, dist.instance.utilities)
    cross = ex.expected()
    return ex.envy("efa", lambda i, k: cross[i][i])


def check_sefa(dist: AllocationDistribution) -> AxiomVerdict:
    """Ex ante envy-freeness with own expectations cut to the rival's likes."""
    ex = _ExAnte(dist, dist.instance.utilities)
    ex.expected()
    counts, scaled = ex.counts, ex.scaled
    return ex.envy("sefa", lambda i, k: sum(
        counts[i][j] * x for j, x in enumerate(scaled[i]) if scaled[k][j] > 0))


def check_befp(dist: AllocationDistribution) -> AxiomVerdict:
    """Envy bounded by one item, defined on 0/1 utilities only."""
    u = dist.instance.utilities
    if any(x not in (0, 1) for row in u for x in row):
        raise ValueError("bounded envy up to one item is defined for 0/1 utilities")
    return _ex_post("befp", dist, u, bound=1)


def check_envy_bounded(dist: AllocationDistribution, *, bound: Value = 1) -> AxiomVerdict:
    """Ex post envy exceeds own utility by at most ``bound`` in every outcome."""
    return _ex_post("envy-bounded", dist, dist.instance.utilities, bound=as_value(bound))


def _own_vector(owners: Sequence[Optional[int]], scaled: list[list[int]]) -> tuple[int, ...]:
    acc = [0] * len(scaled)
    for j, o in enumerate(owners):
        if o is not None:
            acc[o] += scaled[o][j]
    return tuple(acc)


def _dominates(va: tuple[int, ...], vb: tuple[int, ...]) -> bool:
    return va != vb and all(map(operator.ge, va, vb))


def _bounded_positives(scaled: list[list[int]], m: int) -> tuple[tuple[int, ...], ...]:
    """Each item's positive judged bidders, after the work bound of
    enumerating the allocations they allow, which trips whether or not the
    enumeration is needed."""
    positives = tuple(tuple(i for i, row in enumerate(scaled) if row[j] > 0)
                      for j in range(m))
    check_work_bound(map(len, positives), "enumerated allocations")
    return positives


def check_pep(dist: AllocationDistribution) -> AxiomVerdict:
    """Every support allocation is Pareto optimal among non-wasteful ones.

    The non-wasteful allocations give each item to a positive bidder under
    the judged utilities. A support allocation is dominated by one of them
    exactly when it is dominated by a vector of the last of their Pareto
    levels (`maximal_levels`), so only those are compared; the allocations
    are enumerated only to name the witness, the first one in canonical
    order that dominates the first dominated support allocation. The
    enumeration's work bound is applied first, so `WorkBoundExceeded`
    trips whether or not a witness is needed.
    """
    scaled, _ = integer_rows(dist.instance.utilities)
    positives = _bounded_positives(scaled, dist.m)
    maximal = maximal_levels(scaled, positives)[-1]
    efficient = set(maximal)  # no maximal vector dominates another
    for owners in dist.owners:
        own = _own_vector(owners, scaled)
        if own not in efficient and any(_dominates(v, own) for v in maximal):
            candidates = enumerate_allocations(dist.instance)
            rival = next(r for r in candidates if _dominates(_own_vector(r.owners, scaled), own))
            return AxiomVerdict("pep", False, None,
                                DominationWitness(Allocation._trusted(owners), rival))
    return AxiomVerdict("pep", True, None, None)


def _supporting_weights(owners: Sequence[Sequence[Optional[int]]], scaled: list[list[int]],
                        positives: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Positive integer weights, on one scale, under which every allocation
    in ``owners`` maximizes weighted welfare on the ``scaled`` rows, or None
    when there are none. Such weights exist exactly when the support's
    expected-utility point is Pareto efficient among lotteries.

    If: every support allocation then attains the largest weighted welfare,
    so the point p does too, and no lottery does better. A lottery that
    weakly raises every agent and strictly raises the total would raise the
    weighted welfare, since every weight is positive.

    Only if: the pea LP (`pea_solution`) has value 0 at p, so its dual,
    min over weights >= 1 of (max over allocations of the weighted welfare)
    minus (the weighted welfare of p), is 0 too. p is the support's average,
    so each support allocation attains that maximum, and hence gives every
    item to a bidder of largest weighted value.

    Per item j, every owner o of j in the support must value it, and
    every other positive bidder k gives the difference constraint
    ``lam_k * u_kj <= lam_o * u_oj``. Starting from weights 1,
    Bellman-Ford relaxes them on exact (numerator, denominator) pairs; a
    change in round n + 1 means a cycle of ratios whose product is below
    1, and the constraints have no solution.
    """
    tightest: dict[tuple[int, int], tuple[int, int]] = {}  # (o, k): lam_k <= lam_o * a / b
    for j, pos in enumerate(positives):
        for o in {row[j] for row in owners}:
            if o is None or not scaled[o][j]:
                return None  # giving j to a positive bidder dominates
            for k in pos:
                if k != o:
                    a, b = scaled[o][j], scaled[k][j]
                    old = tightest.get((o, k))
                    if old is None or a * old[1] < old[0] * b:
                        tightest[o, k] = (a, b)
    lam = [(1, 1)] * len(scaled)
    for _ in range(len(scaled) + 1):
        changed = False
        for (o, k), (a, b) in tightest.items():
            num, den = lam[o][0] * a, lam[o][1] * b
            if num * lam[k][1] < lam[k][0] * den:
                common = math.gcd(num, den)
                lam[k] = (num // common, den // common)
                changed = True
        if not changed:
            scale = math.lcm(*(den for _, den in lam))
            return [num * (scale // den) for num, den in lam]
    return None


def check_pea(dist: AllocationDistribution) -> AxiomVerdict:
    """No lottery over non-wasteful allocations improves every expected utility.

    Holds exactly when some positive agent weights make every support
    allocation a weighted welfare maximizer (`_supporting_weights`), which
    needs no enumeration. Otherwise the exact linear program of
    `pea_solution` gives the margin, the optimal total gain, and its
    optimal lottery as the witness. The enumeration's work bound is applied
    first, so `WorkBoundExceeded` trips whichever path decides.
    """
    ex = _ExAnte(dist, dist.instance.utilities)
    cross = ex.expected()
    positives = _bounded_positives(ex.scaled, dist.m)
    if _supporting_weights(dist.owners, ex.scaled, positives) is not None:
        return AxiomVerdict("pea", True, 0, None)
    own = tuple(_value(cross[i][i], ex.scale) for i in range(dist.n))
    sol = pea_solution(own, dist.instance)
    if sol.objective == 0:
        return AxiomVerdict("pea", True, 0, None)
    return AxiomVerdict("pea", False, sol.objective, ImprovementWitness(sol))


def ex_post_equivalent(mech_a: Mechanism, mech_b: Mechanism, instance: Instance,
                       bids: Optional[BidProfile] = None) -> bool:
    """The two mechanisms output identical allocation distributions."""
    da = mech_a.run(instance, bids)
    db = mech_b.run(instance, bids)
    return da == db


def ex_ante_equivalent(mech_a: Mechanism, mech_b: Mechanism, instance: Instance,
                       bids: Optional[BidProfile] = None) -> bool:
    """The two mechanisms induce the same agent-item probability matrix."""
    da = mech_a.run(instance, bids)
    db = mech_b.run(instance, bids)
    return marginals(da) == marginals(db)


def efa_forced_marginals(instance: Instance) -> AssignmentMatrix:
    """The unique assignment matrix an item-by-item envy-free-ex-ante
    mechanism can induce when every agent values every item positively.

    The forcing runs by induction on items. Suppose columns before item j
    are uniform. Envy-freeness ex ante after item j compares expected
    utilities that agree on the uniform prefix, so it reduces to
    p_ij * u_ij >= p_kj * u_ij for every ordered pair (i, k). Positive
    u_ij turns that into p_ij >= p_kj both ways, hence all equal, and a
    positively-valued item is never discarded, so the column sums to one:
    every entry is 1/n.
    """
    if any(x <= 0 for row in instance.utilities for x in row):
        raise ValueError("the forcing argument needs strictly positive utilities")
    share = Fraction(1, instance.n)
    row = tuple(share for _ in range(instance.m))
    return AssignmentMatrix(tuple(row for _ in range(instance.n)))


def check_prefix_efa(dist: AllocationDistribution) -> AxiomVerdict:
    """Envy-freeness ex ante holds after every prefix of the item sequence.

    An item's marginals do not depend on later items, so the j-item
    prefix is judged on the first j columns of the distribution's own
    marginals; no prefix distribution is built.
    """
    ex = _ExAnte(dist, dist.instance.utilities)
    cross = ex.cross
    for item in range(dist.m):
        ex.extend(item)
        verdict = ex.envy("prefix-efa", lambda i, k: cross[i][i])
        if not verdict.holds:
            return verdict
    return AxiomVerdict("prefix-efa", True, None, None)


# every checker by its command-line name, in the order the command lists them
CHECKERS = {
    "efp": check_efp,
    "efa": check_efa,
    "sefp": check_sefp,
    "sefa": check_sefa,
    "befp": check_befp,
    "envy-bounded": check_envy_bounded,
    "pea": check_pea,
    "pep": check_pep,
    "prefix-efa": check_prefix_efa,
}
