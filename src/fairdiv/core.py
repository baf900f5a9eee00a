"""Exact domain model for sequential allocation of indivisible items.

An instance fixes a set of agents, an ordered list of items, and a matrix of
nonnegative rational utilities. Mechanisms observe bid profiles of the same
shape and return finite probability distributions over allocations; every
item ends up owned by exactly one agent or discarded. All quantities are
exact rationals (int or fractions.Fraction). Floats are rejected at the
boundary so that no tolerance ever appears downstream.

Agents and items are 0-based throughout the library; the command line and
the text file format use 1-based numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Value = Union[int, Fraction]

#: Default ceiling on expansion-tree leaves / enumerated allocations.
#: Mechanisms and oracles are exponential by design; the bound turns an
#: open-ended run into a clear error at desk scale.
DEFAULT_MAX_NODES = 10**6


class FairDivError(Exception):
    """Base class for library errors."""


class WorkBoundExceeded(FairDivError):
    """The operation would exceed its configured work budget."""


def as_value(x: object) -> Value:
    """Coerce ``x`` to an exact rational (int, or Fraction in lowest terms).

    Integral fractions collapse to plain ints so that equal values always
    compare and hash equal regardless of how they were produced. Floats and
    other inexact types raise TypeError.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a utility value")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def format_value(x: Value) -> str:
    """Render an exact rational as 'p' or 'p/q'."""
    x = as_value(x)
    if isinstance(x, int):
        return str(x)
    return f"{x.numerator}/{x.denominator}"


def _exact_matrix(rows: Iterable[Iterable[object]], what: str) -> tuple[tuple[Value, ...], ...]:
    out = []
    for r in rows:
        out.append(tuple(as_value(x) for x in r))
    mat = tuple(out)
    if not mat:
        raise ValueError(f"{what} needs at least one agent row")
    width = len(mat[0])
    for r in mat:
        if len(r) != width:
            raise ValueError(f"{what} rows must have equal length")
        for x in r:
            if x < 0:
                raise ValueError(f"{what} entries must be nonnegative, got {format_value(x)}")
    return mat


def integer_rows(rows: Sequence[Sequence[Value]], base: int = 1) -> tuple[list[list[int]], int]:
    """The matrix on one integer scale: ``(scaled, D)``.

    ``D`` is the lcm of ``base`` and every entry's denominator, and
    ``scaled[i][j]`` is ``rows[i][j] * D`` as an int. Sums, differences and
    comparisons of the scaled entries are those of the exact values, times
    ``D``; pass a value's denominator as ``base`` to bring it onto the same
    scale.
    """
    scale = math.lcm(base, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


@dataclass(frozen=True)
class Instance:
    """n agents with additive utilities over m items, one row per agent.

    Every item column must contain at least one positive entry: an item
    nobody values is not part of a meaningful instance. Columns may still be
    discarded at run time when *bids* for them are all zero.
    """

    utilities: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        mat = _exact_matrix(self.utilities, "utility matrix")
        object.__setattr__(self, "utilities", mat)
        for j in range(len(mat[0])):
            if all(row[j] == 0 for row in mat):
                raise ValueError(f"item {j + 1} has zero utility for every agent")

    @property
    def n(self) -> int:
        return len(self.utilities)

    @property
    def m(self) -> int:
        return len(self.utilities[0])

    def utility(self, agent: int, item: int) -> Value:
        return self.utilities[agent][item]

    def column(self, item: int) -> tuple[Value, ...]:
        return tuple(row[item] for row in self.utilities)

    def prefix(self, upto: int) -> "Instance":
        """The sub-instance consisting of the first ``upto`` items."""
        if not 0 <= upto <= self.m:
            raise ValueError("prefix length out of range")
        return Instance(tuple(row[:upto] for row in self.utilities))


@dataclass(frozen=True)
class BidProfile:
    """Reported values, same shape as the utility matrix of the instance.

    Unlike utilities, a bid column may be all zero; mechanisms then discard
    the item. Bids are what mechanisms see, utilities are what welfare and
    envy are measured with.

    Every profile holds a validated matrix. The constructor validates all
    of it; `sincere` reuses the instance's validated rows, and
    `replace_row` and `replace_bid` validate only the row they swap in.
    """

    bids: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bids", _exact_matrix(self.bids, "bid matrix"))

    @classmethod
    def _validated(cls, rows: tuple[tuple[Value, ...], ...]) -> "BidProfile":
        """A profile over rows that are already exact, nonnegative and of
        equal length, built without checking them again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "bids", rows)
        return profile

    @classmethod
    def sincere(cls, instance: Instance) -> "BidProfile":
        return cls._validated(instance.utilities)

    @property
    def n(self) -> int:
        return len(self.bids)

    @property
    def m(self) -> int:
        return len(self.bids[0])

    def bid(self, agent: int, item: int) -> Value:
        return self.bids[agent][item]

    def matches(self, instance: Instance) -> bool:
        return self.n == instance.n and self.m == instance.m

    def replace_row(self, agent: int, row: Sequence[object]) -> "BidProfile":
        """A copy of the profile with one agent's bids swapped out."""
        if not 0 <= agent < self.n:
            raise ValueError("agent out of range")
        new_row = tuple(as_value(x) for x in row)
        if len(new_row) != self.m:
            raise ValueError("replacement row has wrong length")
        for x in new_row:
            if x < 0:
                raise ValueError(f"bid matrix entries must be nonnegative, got {format_value(x)}")
        return BidProfile._validated(
            tuple(new_row if i == agent else r for i, r in enumerate(self.bids)))

    def replace_bid(self, agent: int, item: int, value: object) -> "BidProfile":
        """A copy of the profile with one bid swapped out."""
        if not 0 <= agent < self.n:
            raise ValueError("agent out of range")
        if not 0 <= item < self.m:
            raise ValueError("item out of range")
        row = list(self.bids[agent])
        row[item] = value
        return self.replace_row(agent, row)


@dataclass(frozen=True)
class Allocation:
    """Complete assignment of a prefix of items: owners[j] is the agent index
    holding item j, or None when the item was discarded."""

    owners: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        owners = tuple(self.owners)
        for o in owners:
            if o is None:
                continue
            if isinstance(o, bool) or not isinstance(o, int) or o < 0:
                raise ValueError(f"owner must be None or a nonnegative int, got {o!r}")
        object.__setattr__(self, "owners", owners)

    @property
    def m(self) -> int:
        return len(self.owners)

    def bundle(self, agent: int) -> tuple[int, ...]:
        """Items held by ``agent``, in arrival order."""
        return tuple(j for j, o in enumerate(self.owners) if o == agent)

    def sort_key(self) -> tuple[int, ...]:
        # Discarded items sort before any agent index; only used to fix a
        # deterministic support order.
        return tuple(-1 if o is None else o for o in self.owners)

    def __str__(self) -> str:
        if not self.owners:
            return "(empty)"
        return " ".join(
            f"o{j + 1}:{'-' if o is None else o + 1}" for j, o in enumerate(self.owners)
        )


def bundle_utility(alloc: Allocation, agent: int, holder: int,
                   utilities: Sequence[Sequence[Value]]) -> Value:
    """Value that ``agent`` assigns to the bundle held by ``holder``."""
    total: Value = 0
    row = utilities[agent]
    for j in alloc.bundle(holder):
        total += row[j]
    return as_value(total)


@dataclass(frozen=True)
class AllocationDistribution:
    """Finite probability distribution over allocations of one instance.

    The support is stored in a canonical deterministic order. Probabilities
    are positive Fractions summing to exactly one. Every allocation in the
    support covers the same item prefix (all of the instance's items, since
    runs expand the whole horizon). Every distribution is validated; the
    sum is checked in integers over the lcm of the denominators, so no
    Fraction is added.
    """

    instance: Instance
    entries: tuple[tuple[Allocation, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("distribution must have nonempty support")
        n, m = self.instance.n, self.instance.m
        seen = set()
        for alloc, prob in self.entries:
            owners = alloc.owners
            if len(owners) != m:
                raise ValueError("allocation length differs from instance size")
            for o in owners:
                if o is not None and o >= n:
                    raise ValueError("owner index out of range")
            # equal owners tuples are equal allocations
            if owners in seen:
                raise ValueError("duplicate allocation in support")
            seen.add(owners)
            if not isinstance(prob, Fraction):
                raise ValueError("probabilities must be Fractions")
            if prob.numerator <= 0:
                raise ValueError("support probabilities must be positive")
        scale = math.lcm(*(p.denominator for _, p in self.entries))
        total = sum(p.numerator * (scale // p.denominator) for _, p in self.entries)
        if total != scale:
            raise ValueError(f"probabilities sum to {Fraction(total, scale)}, expected 1")
        ordered = tuple(sorted(self.entries, key=lambda e: e[0].sort_key()))
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def from_map(cls, instance: Instance,
                 support: Mapping[Allocation, object]) -> "AllocationDistribution":
        entries = tuple((a, p if isinstance(p, Fraction) else Fraction(p))
                        for a, p in support.items())
        return cls(instance, entries)

    @classmethod
    def mix(cls, parts: Sequence[tuple["AllocationDistribution", object]]) -> "AllocationDistribution":
        """Convex combination of distributions over the same instance."""
        if not parts:
            raise ValueError("nothing to mix")
        instance = parts[0][0].instance
        merged: dict[Allocation, Fraction] = {}
        for dist, weight in parts:
            if dist.instance != instance:
                raise ValueError("can only mix distributions over one instance")
            w = Fraction(weight)
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            if w == 0:
                continue
            for alloc, prob in dist.entries:
                merged[alloc] = merged.get(alloc, Fraction(0)) + w * prob
        return cls.from_map(instance, merged)

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    def support(self) -> tuple[Allocation, ...]:
        return tuple(a for a, _ in self.entries)

    def as_dict(self) -> dict[Allocation, Fraction]:
        return {a: p for a, p in self.entries}

    def prefix(self, upto: int) -> "AllocationDistribution":
        """Marginal distribution over the first ``upto`` items."""
        merged: dict[Allocation, Fraction] = {}
        for alloc, prob in self.entries:
            head = Allocation(alloc.owners[:upto])
            merged[head] = merged.get(head, Fraction(0)) + prob
        return AllocationDistribution.from_map(self.instance.prefix(upto), merged)

    def __iter__(self) -> Iterator[tuple[Allocation, Fraction]]:
        return iter(self.entries)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Item-level marginals: p[i][j] is the probability agent i gets item j.

    Columns sum to exactly 1 when the item is assigned in every support
    allocation, and to 0 when it is always discarded; nothing in between can
    arise because discarding depends only on the bid column.
    """

    p: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        mat = _exact_matrix(self.p, "assignment matrix")
        object.__setattr__(self, "p", mat)
        for j in range(len(mat[0])):
            col = sum(row[j] for row in mat)
            if col not in (0, 1):
                raise ValueError(f"column {j + 1} sums to {col}, expected 0 or 1")
        for row in mat:
            for x in row:
                if x > 1:
                    raise ValueError("marginal probabilities cannot exceed 1")

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def m(self) -> int:
        return len(self.p[0])

    def entry(self, agent: int, item: int) -> Value:
        return self.p[agent][item]


@dataclass(frozen=True)
class ExpectedUtilityMatrix:
    """ubar[i][k]: how agent i values the expected bundle of agent k."""

    ubar: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        mat = _exact_matrix(self.ubar, "expected utility matrix")
        if len(mat) != len(mat[0]):
            raise ValueError("expected utility matrix must be square")
        object.__setattr__(self, "ubar", mat)

    @property
    def n(self) -> int:
        return len(self.ubar)

    def entry(self, agent: int, holder: int) -> Value:
        return self.ubar[agent][holder]

    def own(self) -> tuple[Value, ...]:
        """Each agent's expected utility for their own bundle."""
        return tuple(self.ubar[i][i] for i in range(self.n))


#: ``counts[i][j]``: agent i's share of item j, in units of a common scale
ItemCounts = list[list[int]]


def marginal_counts(dist: AllocationDistribution) -> tuple[ItemCounts, int]:
    """Item marginals in integer form ``(counts, L)``.

    ``L`` is the lcm of the support's probability denominators and
    ``counts[i][j]`` adds ``p * L`` over the support allocations in which
    agent i owns item j, so agent i gets item j with probability
    ``counts[i][j] / L``.
    """
    scale = math.lcm(*(p.denominator for _, p in dist.entries))
    counts = [[0] * dist.m for _ in range(dist.n)]
    for alloc, prob in dist.entries:
        w = prob.numerator * (scale // prob.denominator)
        for j, o in enumerate(alloc.owners):
            if o is not None:
                counts[o][j] += w
    return counts, scale


def marginals(dist: AllocationDistribution) -> AssignmentMatrix:
    """Collapse a distribution to per-item assignment probabilities.

    The sums are taken in integers by `marginal_counts`; each cell becomes
    one Fraction at the end.
    """
    counts, scale = marginal_counts(dist)
    return AssignmentMatrix(tuple(tuple(as_value(Fraction(c, scale)) for c in row)
                                  for row in counts))


def expected_utilities(p: AssignmentMatrix,
                       utilities: Sequence[Sequence[Value]]) -> ExpectedUtilityMatrix:
    """Cross-evaluation of expected bundles under the given utility matrix."""
    n, m = p.n, p.m
    if len(utilities) != n or (m and len(utilities[0]) != m):
        raise ValueError("utility matrix shape differs from assignment matrix")
    out = []
    for i in range(n):
        row_i = utilities[i]
        vals = []
        for k in range(n):
            total: Value = 0
            pk = p.p[k]
            for j in range(m):
                if pk[j]:
                    total += pk[j] * row_i[j]
            vals.append(as_value(total))
        out.append(tuple(vals))
    return ExpectedUtilityMatrix(tuple(out))


@dataclass(frozen=True)
class PriorityOrder:
    """A strict priority permutation over agents, 0-based."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"not a permutation of 0..{len(order) - 1}: {order}")
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, n: int) -> "PriorityOrder":
        return cls(tuple(range(n)))

    @classmethod
    def from_one_based(cls, seq: Iterable[int]) -> "PriorityOrder":
        return cls(tuple(int(x) - 1 for x in seq))

    @property
    def n(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)
