"""Ground-truth allocation analysis: enumeration, dominance, and exact LP.

Everything here is deliberately brute force. Allocations are enumerated
item by item, the Pareto frontier comes from a pairwise test over the
distinct utility vectors, and the question "can any lottery over
allocations beat this expected utility point" is decided by a small
exact simplex over an integer (fraction-free) tableau. These are the
oracles that the mechanism engine and the axiom checkers are audited
against, so they share no shortcuts with them.

Dominance is judged on the matrix the allocations are enumerated under:
the bids when they are given, otherwise the instance's utilities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Optional, Sequence

from .core import (
    DEFAULT_MAX_NODES,
    Allocation,
    BidProfile,
    FairDivError,
    Instance,
    Value,
    WorkBoundExceeded,
    as_value,
    integer_rows,
)


class InfeasibleError(FairDivError):
    """The linear program has no feasible point."""


class UnboundedError(FairDivError):
    """The linear program is unbounded above."""


def utility_vector(alloc: Allocation, values: Sequence[Sequence[Value]]) -> tuple[Value, ...]:
    """Each agent's value for their own bundle, as an exact tuple."""
    n = len(values)
    acc: list[Value] = [0] * n
    for j, o in enumerate(alloc.owners):
        if o is not None:
            acc[o] += values[o][j]
    return tuple(as_value(x) for x in acc)


def enumerate_allocations(instance: Instance, bids: Optional[BidProfile] = None, *,
                          max_nodes: Optional[int] = None) -> list[Allocation]:
    """All non-wasteful allocations of the instance's items.

    Each item goes to one of its positive bidders; an item with an all-zero
    bid column is discarded in every allocation. Output is in canonical
    (sorted) order.
    """
    if bids is None:
        bids = BidProfile.sincere(instance)
    if not bids.matches(instance):
        raise ValueError("bid profile shape differs from instance")
    positives = [tuple(i for i in range(instance.n) if bids.bid(i, j) > 0)
                 for j in range(instance.m)]
    check_enumeration_bound(positives, max_nodes)
    # product yields canonical order already: each item's options are in
    # ascending agent order, and None is only ever an item's sole option
    return [Allocation(owners) for owners in product(*(pos or (None,) for pos in positives))]


def check_enumeration_bound(positives: Sequence[Sequence[int]],
                            max_nodes: Optional[int] = None) -> None:
    """Raise WorkBoundExceeded when the non-wasteful allocations over these
    positive bidders (an item with none is discarded, one way) may exceed
    ``max_nodes``, checked item by item as the product grows."""
    bound = DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    count = 1
    for pos in positives:
        count *= len(pos) or 1
        if count > bound:
            raise WorkBoundExceeded(f"enumeration may exceed {bound} allocations")


def pareto_frontier(instance: Instance, bids: Optional[BidProfile] = None, *,
                    max_nodes: Optional[int] = None) -> list[Allocation]:
    """All Pareto efficient non-wasteful allocations, canonically ordered.

    Each allocation's utility vector is computed once, and the pairwise
    test runs over the distinct vectors: a vector is dominated when some
    vector with a strictly larger sum is at least as large everywhere
    (with an equal sum it would be the same vector).
    """
    values = instance.utilities if bids is None else bids.bids
    allocs = enumerate_allocations(instance, bids, max_nodes=max_nodes)
    vectors = [utility_vector(a, values) for a in allocs]
    sums = {v: sum(v) for v in vectors}
    ranked = sorted(sums, key=sums.__getitem__, reverse=True)
    maximal = set()
    larger = 0  # ranked[:larger] holds exactly the vectors with a larger sum
    for k, va in enumerate(ranked):
        if sums[va] != sums[ranked[larger]]:
            larger = k
        if not any(all(map(operator.ge, vb, va)) for vb in islice(ranked, larger)):
            maximal.add(va)
    return [a for a, v in zip(allocs, vectors) if v in maximal]


@dataclass(frozen=True)
class LPSolution:
    """Outcome of the domination LP for an expected-utility point.

    ``objective`` is the maximal total surplus that any lottery over
    allocations can add on top of the given point while making nobody worse
    off. Zero means the point is Pareto efficient ex ante. ``weights`` is
    an optimal lottery (one representative allocation per distinct utility
    vector) and ``gains`` the per-agent surplus it achieves.
    """

    objective: Fraction
    weights: tuple[tuple[Allocation, Fraction], ...]
    gains: tuple[Fraction, ...]


_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


def _eliminate(row: list[int], pivot_row: list[int], a: int, f: int, d: int) -> list[int]:
    """One fraction-free row update, ``(a*row - f*pivot_row) / d``.

    The division is exact whenever the tableau invariant of
    ``_simplex_maximize`` holds.
    """
    return [(a * x - f * y) // d for x, y in zip(row, pivot_row)]


def _simplex_maximize(c: Sequence[Value],
                      constraints: Sequence[tuple[Sequence[Value], str, Value]],
                      ) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to rows (coeffs, rel, rhs) and x >= 0.

    rel is one of '<=', '>=', '=='; every number is an int or a Fraction.
    Exact two-phase simplex with Bland's rule, so the run is deterministic
    and cannot cycle. Raises InfeasibleError or UnboundedError accordingly.

    The tableau is fraction-free (Bareiss's integer-preserving elimination,
    as in Edmonds' integer simplex): it holds ints ``T`` and one common
    denominator ``d > 0``, and the real tableau is ``T / d``. Each row,
    after a negative right-hand side is flipped, is multiplied once by the
    lcm ``s`` of its denominators; its slack and artificial keep
    coefficient +-1, which amounts to measuring them in units of ``1/s``.
    The phase-1 weight of each artificial is therefore ``-(L // s)``, with
    ``L`` the lcm of those scales: the same objective, times ``L``.

    Invariant: ``d = |det B|`` for the current basis columns ``B`` of the
    initial integer tableau ``A`` (``B`` starts as the identity), so
    ``T = d * B^-1 A = +-adj(B) A`` is an integer matrix. Pivoting on
    ``a = T[r][col] > 0`` keeps row r and replaces every other row i by
    ``(a*T[i] - T[i][col]*T[r]) / d``. That is the real update times
    ``a``, and ``a = |det B'|`` for the new basis ``B'`` (its determinant
    is ``det B`` times the real pivot ``a / d``), so by the invariant for
    ``B'`` the division is exact, and ``d`` becomes ``a``. A pivot on a
    negative entry happens only when a zero-level artificial is driven
    out; the row is negated first (its rhs is 0), which equals pivoting on
    the negative entry and then negating the whole tableau, so exactness
    is kept.

    Reduced costs are compared through ``obj[j]*d - sum(obj[basis[i]] *
    T[i][j])`` and ratios by cross-multiplication. Positive row and column
    scales change neither those signs nor the order of the ratios, so
    Bland's rule picks exactly the pivots of the same simplex run on
    Fractions. Fractions are built only for the returned point.
    """
    nv = len(c)
    rows: list[list[int]] = []
    rels: list[str] = []
    scales: list[int] = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != nv:
            raise ValueError("constraint width differs from objective")
        entries = [*coeffs, rhs]
        if rhs < 0:
            entries = [-x for x in entries]
            rel = _FLIP[rel]
        (scaled,), s = integer_rows([entries])
        rows.append(scaled)
        rels.append(rel)
        scales.append(s)

    nrows = len(rows)
    # column layout: [original vars][one slack or surplus per inequality][artificials]
    slack_rows = [i for i, r in enumerate(rels) if r != "=="]
    art_rows = [i for i, r in enumerate(rels) if r != "<="]
    n_slack = len(slack_rows)
    slack_of = {i: nv + k for k, i in enumerate(slack_rows)}
    art_of = {i: nv + n_slack + k for k, i in enumerate(art_rows)}
    ncols = nv + n_slack + len(art_rows)

    tab: list[list[int]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        full = row[:-1] + [0] * (ncols - nv) + row[-1:]
        if i in slack_of:
            full[slack_of[i]] = 1 if rels[i] == "<=" else -1
        if i in art_of:
            full[art_of[i]] = 1
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        tab.append(full)
    d = 1

    def pivot(r: int, col: int) -> None:
        nonlocal d
        if tab[r][col] < 0:
            tab[r] = [-x for x in tab[r]]
        prow = tab[r]
        a = prow[col]
        for i in range(nrows):
            if i != r:
                tab[i] = _eliminate(tab[i], prow, a, tab[i][col], d)
        d = a
        basis[r] = col

    def run(obj: list[int], live: int) -> None:
        # Bland's rule: smallest eligible entering column, then the leaving
        # row with the smallest ratio, ties broken by smallest basis index.
        while True:
            priced = [(obj[basis[i]], tab[i]) for i in range(nrows) if obj[basis[i]]]
            enter = -1
            for j in range(live):
                rc = obj[j] * d
                for lam, row in priced:
                    rc -= lam * row[j]
                if rc > 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            for i in range(nrows):
                a = tab[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    t = tab[i][-1] * tab[leave][enter]
                    best = tab[leave][-1] * a
                    if t < best or (t == best and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise UnboundedError("objective is unbounded above")
            pivot(leave, enter)

    live = nv + n_slack
    if art_of:
        weight = math.lcm(*(scales[i] for i in art_rows))
        phase1 = [0] * ncols
        for i, col in art_of.items():
            phase1[col] = -(weight // scales[i])
        run(phase1, ncols)
        art_cols = set(art_of.values())
        if any(tab[i][-1] for i in range(nrows) if basis[i] in art_cols):
            raise InfeasibleError("no feasible point")
        # drive leftover zero-level artificials out of the basis
        for i in range(nrows):
            if basis[i] in art_cols:
                for j in range(live):
                    if tab[i][j]:
                        pivot(i, j)
                        break
        # artificial columns are dead in phase 2
        tab[:] = [row[:live] + row[-1:] for row in tab]

    (objective,), _ = integer_rows([c])
    run(objective + [0] * (ncols - nv), live)

    x = [Fraction(0)] * nv
    for i in range(nrows):
        if basis[i] < nv:
            x[basis[i]] = Fraction(tab[i][-1], d)
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x


def pea_solution(own_expected: Sequence[Value], instance: Instance,
                 bids: Optional[BidProfile] = None, *,
                 max_nodes: Optional[int] = None) -> LPSolution:
    """Best Pareto improvement over an expected-utility point, if any.

    Solves: maximize the total surplus of a lottery over non-wasteful
    allocations that gives every agent at least their current expected
    utility. Distinct allocations with equal utility vectors are collapsed
    into one LP column. Raises InfeasibleError when the point is not
    achievable by any lottery, which signals a caller error.
    """
    values = instance.utilities if bids is None else bids.bids
    n = instance.n
    point = [as_value(x) for x in own_expected]
    if len(point) != n:
        raise ValueError("expected one utility per agent")
    allocs = enumerate_allocations(instance, bids, max_nodes=max_nodes)
    groups: dict[tuple[Value, ...], Allocation] = {}
    for a in allocs:
        v = utility_vector(a, values)
        groups.setdefault(v, a)
    vectors = list(groups)
    g = len(vectors)

    c = [0] * g + [1] * n
    constraints: list[tuple[list[Value], str, Value]] = []
    for i in range(n):
        row = [vec[i] for vec in vectors]
        row += [-1 if k == i else 0 for k in range(n)]
        constraints.append((row, ">=", point[i]))
    constraints.append(([1] * g + [0] * n, "==", 1))

    value, x = _simplex_maximize(c, constraints)
    weights = tuple(
        (groups[vectors[k]], x[k]) for k in range(g) if x[k] > 0
    )
    gains = tuple(x[g + i] for i in range(n))
    return LPSolution(value, weights, gains)


def is_pea(own_expected: Sequence[Value], instance: Instance,
           bids: Optional[BidProfile] = None, *,
           max_nodes: Optional[int] = None) -> bool:
    """Is the expected-utility point Pareto efficient over all lotteries?"""
    sol = pea_solution(own_expected, instance, bids, max_nodes=max_nodes)
    return sol.objective == 0
