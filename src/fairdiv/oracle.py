"""Ground-truth allocation analysis: enumeration, dominance, and exact LP.

Everything here is deliberately brute force. Allocations are enumerated
item by item, the Pareto frontier tests each distinct utility vector
against the maxima before it, and the question "can any lottery over
allocations beat this expected utility point" is decided by a small
exact simplex over an integer (fraction-free) tableau. These are the
oracles that the mechanism engine and the axiom checkers are audited
against, so they share no shortcuts with them.

Dominance is judged on the matrix the allocations are enumerated under,
on its integer scale: the bids when they are given, otherwise the
instance's utilities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .core import (
    Allocation,
    BidProfile,
    FairDivError,
    Instance,
    Value,
    as_value,
    check_work_bound,
    integer_rows,
)


class InfeasibleError(FairDivError):
    """The linear program has no feasible point."""


class UnboundedError(FairDivError):
    """The linear program is unbounded above."""


def utility_vector(alloc: Allocation, values: Sequence[Sequence[Value]]) -> tuple[Value, ...]:
    """Each agent's value for their own bundle, as an exact tuple."""
    (vector,), scale = _scaled_vectors((alloc,), values)
    return tuple(as_value(Fraction(x, scale)) for x in vector)


def enumerate_allocations(instance: Instance,
                          bids: Optional[BidProfile] = None) -> list[Allocation]:
    """All non-wasteful allocations of the instance's items.

    Each item goes to one of its positive bidders; an item with an all-zero
    bid column is discarded in every allocation. Output is in canonical
    (sorted) order.
    """
    bids = BidProfile.for_instance(instance, bids)
    positives = [tuple(i for i, x in enumerate(column) if x > 0) for column in zip(*bids.bids)]
    check_work_bound((len(pos) or 1 for pos in positives), "enumerated allocations")
    # product yields canonical order already: each item's options are in
    # ascending agent order, and None is only ever an item's sole option
    return [Allocation._trusted(o) for o in product(*(pos or (None,) for pos in positives))]


def _scaled_vectors(allocs: Sequence[Allocation], values: Sequence[Sequence[Value]],
                    ) -> tuple[list[tuple[int, ...]], int]:
    """Each allocation's utility vector on ``values``' integer scale."""
    scaled, scale = integer_rows(values)
    n = len(scaled)
    vectors = []
    for a in allocs:
        acc = [0] * n
        for j, o in enumerate(a.owners):
            if o is not None:
                acc[o] += scaled[o][j]
        vectors.append(tuple(acc))
    return vectors, scale


def pareto_frontier(instance: Instance,
                    bids: Optional[BidProfile] = None) -> list[Allocation]:
    """All Pareto efficient non-wasteful allocations, canonically ordered.

    The distinct integer vectors are tested in descending order of sum,
    each only against the maxima found before it: an equal sum never
    dominates, and dominance is transitive, so a dominated vector is
    dominated by an earlier maximum.
    """
    values = instance.utilities if bids is None else bids.bids
    allocs = enumerate_allocations(instance, bids)
    vectors, _ = _scaled_vectors(allocs, values)
    maxima: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        for w in maxima:
            if all(map(operator.ge, w, v)):
                break
        else:
            maxima.append(v)
    maximal = set(maxima)
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

    The division is exact whenever the invariant of ``_simplex_maximize``
    holds.
    """
    return [(a * x - f * y) // d for x, y in zip(row, pivot_row)]


def _simplex_maximize(c: Sequence[Value],
                      constraints: Sequence[tuple[Sequence[Value], str, Value]],
                      ) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to rows (coeffs, rel, rhs) and x >= 0.

    rel is one of '<=', '>=', '=='; every number is an int or a Fraction.
    Exact two-phase simplex with Bland's rule, so the run is deterministic
    and cannot cycle. Raises InfeasibleError or UnboundedError accordingly.

    The simplex is revised and fraction-free (Bareiss's integer-preserving
    elimination, as in Edmonds' integer simplex). Each row, after a
    negative right-hand side is flipped, is multiplied once by the lcm
    ``s`` of its denominators; its slack and artificial keep coefficient
    +-1, which amounts to measuring them in units of ``1/s``. That gives
    the integer columns ``A_j`` and right-hand side ``b``. The phase-1
    weight of each artificial is therefore ``-(L // s)``, with ``L`` the
    lcm of those scales: the same objective, times ``L``.

    Invariant: for the current basis columns ``B`` (the identity at the
    start), ``d = |det B|`` and ``R = d * B^-1 = +-adj(B)`` is an integer
    matrix, kept beside the integer right-hand side ``R b``; the real
    tableau ``B^-1 [A | b]`` is ``R [A | b] / d``. Only the entering
    column ``R A_j`` is built. Pivoting on its entry ``a > 0`` in row r
    keeps row r of ``[R | R b]`` and replaces every other row i by
    ``(a*row_i - (R A_j)_i * row_r) / d``: the real update times ``a``,
    and ``a = |det B'|`` for the new basis ``B'``. R's columns are the
    tableau's columns at the starting identity basis, integer by the
    invariant for ``B'``, so the division is exact, and ``d`` becomes
    ``a``. A pivot on a negative entry happens only when a zero-level
    artificial is driven out; row r is negated first (its rhs is 0), which
    equals pivoting on the negative entry and then negating everything.
    ``R`` holds the dual values: ``y = c_B R`` prices the columns.

    Reduced costs are compared through ``obj[j]*d - y.A_j`` and ratios by
    cross-multiplication. Positive row and column scales change neither
    those signs nor the order of the ratios, so Bland's rule picks exactly
    the pivots of the same simplex run on a Fraction tableau. Fractions
    are built only for the returned point and value.
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
    columns = [[row[j] for row in rows] for j in range(nv)]
    basis = [0] * nrows
    for i in slack_rows:
        basis[i] = len(columns)
        sign = 1 if rels[i] == "<=" else -1
        columns.append([sign if k == i else 0 for k in range(nrows)])
    art_of = {}
    for i in art_rows:
        basis[i] = art_of[i] = len(columns)
        columns.append([1 if k == i else 0 for k in range(nrows)])
    ncols = len(columns)

    # row i: R's row i, then its rhs (R b)_i
    inverse = [[int(k == i) for k in range(nrows)] + row[-1:] for i, row in enumerate(rows)]
    d = 1

    def entering(j: int) -> list[int]:
        # the tableau's column j, R A_j; zip stops before the rhs
        return [sum(map(operator.mul, r, columns[j])) for r in inverse]

    def pivot(r: int, col: list[int], j: int) -> None:
        nonlocal d
        a = col[r]
        if a < 0:
            inverse[r] = [-x for x in inverse[r]]
            a = -a
        prow = inverse[r]
        for i in range(nrows):
            if i != r:
                inverse[i] = _eliminate(inverse[i], prow, a, col[i], d)
        d = a
        basis[r] = j

    def run(obj: list[int], live: int) -> None:
        # Bland's rule: smallest eligible entering column, then the leaving
        # row with the smallest ratio, ties broken by smallest basis index.
        while True:
            priced = [(obj[basis[i]], inverse[i]) for i in range(nrows) if obj[basis[i]]]
            y = [sum(lam * r[k] for lam, r in priced) for k in range(nrows)]
            enter = next((j for j in range(live)
                          if obj[j] * d > sum(map(operator.mul, y, columns[j]))), -1)
            if enter < 0:
                return
            col = entering(enter)
            leave = -1
            for i in range(nrows):
                a = col[i]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    t = inverse[i][-1] * col[leave]
                    best = inverse[leave][-1] * a
                    if t < best or (t == best and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise UnboundedError("objective is unbounded above")
            pivot(leave, col, enter)

    # artificial columns are dead in phase 2
    live = nv + n_slack
    if art_of:
        weight = math.lcm(*(scales[i] for i in art_rows))
        phase1 = [0] * ncols
        for i, j in art_of.items():
            phase1[j] = -(weight // scales[i])
        run(phase1, ncols)
        art_cols = set(art_of.values())
        if any(inverse[i][-1] for i in range(nrows) if basis[i] in art_cols):
            raise InfeasibleError("no feasible point")
        # drive leftover zero-level artificials out of the basis
        for i in range(nrows):
            if basis[i] in art_cols:
                for j in range(live):
                    if sum(map(operator.mul, inverse[i], columns[j])):
                        pivot(i, entering(j), j)
                        break

    (objective,), unit = integer_rows([c])
    run(objective + [0] * (ncols - nv), live)

    x = [Fraction(0)] * nv
    total = 0
    for i in range(nrows):
        if basis[i] < nv:
            x[basis[i]] = Fraction(inverse[i][-1], d)
            total += objective[basis[i]] * inverse[i][-1]
    return Fraction(total, d * unit), x


def pea_solution(own_expected: Sequence[Value], instance: Instance,
                 bids: Optional[BidProfile] = None) -> LPSolution:
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
    allocs = enumerate_allocations(instance, bids)
    scaled, scale = _scaled_vectors(allocs, values)
    groups: dict[tuple[int, ...], Allocation] = {}
    for v, a in zip(scaled, allocs):
        groups.setdefault(v, a)
    g = len(groups)

    c = [0] * g + [1] * n
    constraints: list[tuple[list[Value], str, Value]] = []
    for i in range(n):
        # agent i's row times ``scale``, which leaves every pivot unchanged
        row = [v[i] for v in groups]
        row += [-scale if k == i else 0 for k in range(n)]
        constraints.append((row, ">=", point[i] * scale))
    constraints.append(([1] * g + [0] * n, "==", 1))

    value, x = _simplex_maximize(c, constraints)
    weights = tuple(
        (a, x[k]) for k, a in enumerate(groups.values()) if x[k] > 0
    )
    gains = tuple(x[g + i] for i in range(n))
    return LPSolution(value, weights, gains)

