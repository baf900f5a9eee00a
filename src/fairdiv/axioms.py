"""Axiom checkers for allocation distributions.

Every checker takes the distribution a mechanism produced and judges it
against true utilities, which default to the utilities of the instance the
distribution was computed on. Passing ``utilities`` explicitly supports the
auditor view: a run on strategic bids judged against the bidders' real
preferences.

Checkers return an AxiomVerdict carrying the boolean, a slack margin where
one is meaningful, and a concrete witness when the axiom fails. Agent and
item indices are 0-based in the dataclasses and rendered 1-based in
``to_json``, matching the command line convention.
"""

from __future__ import annotations

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
    bundle_utility,
    expected_utilities,
    format_value,
    marginals,
)
from .mechanisms import Mechanism
from .oracle import LPSolution, dominates, enumerate_allocations, pea_solution, utility_vector

Utilities = tuple[tuple[Value, ...], ...]
UtilitiesLike = Union[Instance, Sequence[Sequence[Value]]]


def _resolve_utilities(dist: AllocationDistribution,
                       utilities: Optional[UtilitiesLike]) -> Utilities:
    if utilities is None:
        return dist.instance.utilities
    if isinstance(utilities, Instance):
        mat = utilities.utilities
    else:
        mat = tuple(tuple(as_value(x) for x in row) for row in utilities)
    if len(mat) != dist.n or any(len(row) != dist.m for row in mat):
        raise ValueError("utility matrix shape differs from the distribution")
    return mat


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


def _envy_verdict(axiom: str, triples) -> AxiomVerdict:
    """Fold (witness, own, others) comparisons into a min-margin verdict."""
    margin: Optional[Value] = None
    worst: Optional[EnvyWitness] = None
    for witness, own, others in triples:
        gap = as_value(own - others)
        if margin is None or gap < margin:
            margin = gap
            worst = witness
    if margin is None:
        return AxiomVerdict(axiom, True, None, None)
    if margin >= 0:
        return AxiomVerdict(axiom, True, margin, None)
    return AxiomVerdict(axiom, False, margin, worst)


def check_efp(dist: AllocationDistribution,
              utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """No agent envies another in any allocation the mechanism can output."""
    u = _resolve_utilities(dist, utilities)
    n = dist.n

    def triples():
        for alloc, _ in dist:
            for i in range(n):
                own = bundle_utility(alloc, i, i, u)
                for k in range(n):
                    if k == i:
                        continue
                    others = bundle_utility(alloc, i, k, u)
                    yield EnvyWitness(alloc, i, k, own, others), own, others

    return _envy_verdict("efp", triples())


def check_sefp(dist: AllocationDistribution,
               utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """Ex post envy-freeness judged on the items the rival actually likes.

    Agent i only gets credit for items in its own bundle that agent k values
    positively, yet must still match its value for k's whole bundle.
    """
    u = _resolve_utilities(dist, utilities)
    n = dist.n

    def triples():
        for alloc, _ in dist:
            for i in range(n):
                for k in range(n):
                    if k == i:
                        continue
                    own = as_value(sum(
                        u[i][j] for j, owner in enumerate(alloc.owners)
                        if owner == i and u[k][j] > 0
                    ))
                    others = bundle_utility(alloc, i, k, u)
                    yield EnvyWitness(alloc, i, k, own, others), own, others

    return _envy_verdict("sefp", triples())


def check_efa(dist: AllocationDistribution,
              utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """No agent envies another's expected utility under the item marginals."""
    u = _resolve_utilities(dist, utilities)
    ubar = expected_utilities(marginals(dist), u)
    n = dist.n

    def triples():
        for i in range(n):
            own = ubar.entry(i, i)
            for k in range(n):
                if k == i:
                    continue
                others = ubar.entry(i, k)
                yield EnvyWitness(None, i, k, own, others), own, others

    return _envy_verdict("efa", triples())


def check_sefa(dist: AllocationDistribution,
               utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """Ex ante envy-freeness with own expectations cut to the rival's likes."""
    u = _resolve_utilities(dist, utilities)
    p = marginals(dist)
    ubar = expected_utilities(p, u)
    n = dist.n

    def triples():
        for i in range(n):
            for k in range(n):
                if k == i:
                    continue
                own = as_value(sum(
                    p.entry(i, j) * u[i][j] for j in range(dist.m) if u[k][j] > 0
                ))
                others = ubar.entry(i, k)
                yield EnvyWitness(None, i, k, own, others), own, others

    return _envy_verdict("sefa", triples())


def check_befp(dist: AllocationDistribution,
               utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """Envy bounded by one item, defined on 0/1 utilities only."""
    u = _resolve_utilities(dist, utilities)
    if any(x not in (0, 1) for row in u for x in row):
        raise ValueError("bounded envy up to one item is defined for 0/1 utilities")
    return check_envy_bounded(dist, u, bound=1, axiom="befp")


def check_envy_bounded(dist: AllocationDistribution,
                       utilities: Optional[UtilitiesLike] = None, *,
                       bound: Value = 1, axiom: str = "envy-bounded") -> AxiomVerdict:
    """Ex post envy exceeds own utility by at most ``bound`` in every outcome."""
    u = _resolve_utilities(dist, utilities)
    n = dist.n
    b = as_value(bound)

    def triples():
        for alloc, _ in dist:
            for i in range(n):
                own = bundle_utility(alloc, i, i, u)
                for k in range(n):
                    if k == i:
                        continue
                    others = bundle_utility(alloc, i, k, u)
                    yield EnvyWitness(alloc, i, k, own, others), own + b, others

    return _envy_verdict(axiom, triples())


def check_pep(dist: AllocationDistribution,
              utilities: Optional[UtilitiesLike] = None, *,
              max_nodes: Optional[int] = None) -> AxiomVerdict:
    """Every support allocation is Pareto optimal among non-wasteful ones."""
    u = _resolve_utilities(dist, utilities)
    bids = None if utilities is None else BidProfile(u)
    candidates = enumerate_allocations(dist.instance, bids, max_nodes=max_nodes)
    rivals = [(rival, utility_vector(rival, u)) for rival in candidates]
    for alloc, _ in dist:
        own = utility_vector(alloc, u)
        for rival, vector in rivals:
            if dominates(vector, own):
                witness = DominationWitness(alloc, rival)
                return AxiomVerdict("pep", False, None, witness)
    return AxiomVerdict("pep", True, None, None)


def check_pea(dist: AllocationDistribution,
              utilities: Optional[UtilitiesLike] = None, *,
              max_nodes: Optional[int] = None) -> AxiomVerdict:
    """No lottery over non-wasteful allocations improves every expected utility.

    Solved exactly as a linear program; the margin is the optimal total
    gain, so the axiom holds exactly when the margin is zero.
    """
    u = _resolve_utilities(dist, utilities)
    bids = None if utilities is None else BidProfile(u)
    own = expected_utilities(marginals(dist), u).own()
    sol = pea_solution(own, dist.instance, bids, values=u, max_nodes=max_nodes)
    if sol.objective == 0:
        return AxiomVerdict("pea", True, 0, None)
    return AxiomVerdict("pea", False, sol.objective, ImprovementWitness(sol))


CHECKERS = {
    "efp": check_efp,
    "efa": check_efa,
    "sefp": check_sefp,
    "sefa": check_sefa,
    "befp": check_befp,
    "pep": check_pep,
    "pea": check_pea,
}


def ex_post_equivalent(mech_a: Mechanism, mech_b: Mechanism, instance: Instance,
                       bids: Optional[BidProfile] = None, *,
                       max_nodes: Optional[int] = None) -> bool:
    """The two mechanisms output identical allocation distributions."""
    da = mech_a.run(instance, bids, max_nodes=max_nodes)
    db = mech_b.run(instance, bids, max_nodes=max_nodes)
    return da.entries == db.entries


def ex_ante_equivalent(mech_a: Mechanism, mech_b: Mechanism, instance: Instance,
                       bids: Optional[BidProfile] = None, *,
                       max_nodes: Optional[int] = None) -> bool:
    """The two mechanisms induce the same agent-item probability matrix."""
    da = mech_a.run(instance, bids, max_nodes=max_nodes)
    db = mech_b.run(instance, bids, max_nodes=max_nodes)
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


def check_prefix_efa(dist: AllocationDistribution,
                     utilities: Optional[UtilitiesLike] = None) -> AxiomVerdict:
    """Envy-freeness ex ante holds after every prefix of the item sequence."""
    u = _resolve_utilities(dist, utilities)
    for upto in range(1, dist.m + 1):
        sub = dist.prefix(upto)
        verdict = check_efa(sub, tuple(row[:upto] for row in u))
        if not verdict.holds:
            return AxiomVerdict("prefix-efa", False, verdict.margin, verdict.witness)
    return AxiomVerdict("prefix-efa", True, None, None)
