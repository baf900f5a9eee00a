"""Exact domain model for sequential allocation of indivisible items.

An instance fixes a set of agents, an ordered list of items, and a matrix of
nonnegative rational utilities. Mechanisms observe bid profiles of the same
shape (`BidProfile.for_instance`) and return finite probability distributions
over allocations; every item ends up owned by exactly one agent or discarded.
All quantities are exact rationals (int or fractions.Fraction). Floats, bools
and strings are rejected at the boundary, in values and probabilities alike,
so that no tolerance ever appears downstream.

Agents and items are 0-based throughout the library; the command line and
the text file format use 1-based numbering.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Value = Union[int, Fraction]

#: Default ceiling on expansion-tree leaves / enumerated allocations.
#: Mechanisms and oracles are exponential by design; the bound turns an
#: open-ended run into a clear error at desk scale.
DEFAULT_MAX_NODES = 10**6

_work_bound: ContextVar[int] = ContextVar("work_bound", default=DEFAULT_MAX_NODES)


class FairDivError(Exception):
    """Base class for library errors."""


class WorkBoundExceeded(FairDivError):
    """The operation would exceed its configured work budget."""


@contextmanager
def work_bound(max_nodes: int) -> Iterator[None]:
    """Bound the work of every exponential run inside the block (expansion
    tree leaves, orp's priority orders, enumerated allocations) by
    ``max_nodes``; outside any block it is `DEFAULT_MAX_NODES`. Blocks nest,
    and the outer bound returns when a block exits, also by an exception.
    The bound decides only whether a run raises WorkBoundExceeded, never
    what it returns."""
    token = _work_bound.set(max_nodes)
    try:
        yield
    finally:
        _work_bound.reset(token)


def current_work_bound() -> int:
    """The bound that the innermost enclosing `work_bound` block set."""
    return _work_bound.get()


def check_work_bound(widths: Iterable[int], what: str) -> None:
    """Raise WorkBoundExceeded when the product of ``widths`` (the options
    at each step of an exponential run) exceeds the current `work_bound`,
    checked as the product grows. A bound below 1 is a ValueError."""
    bound = _work_bound.get()
    if bound < 1:
        raise ValueError(f"{what}: work bound must be at least 1, got {bound}")
    total = 1
    for width in widths:
        total *= width
        if total > bound:
            raise WorkBoundExceeded(f"{what} may exceed {bound}")


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


def _nonnegative(row: tuple[Value, ...], what: str) -> None:
    for x in row:
        if x < 0:
            raise ValueError(f"{what} entries must be nonnegative, got {format_value(x)}")


def _exact_matrix(rows: Iterable[Iterable[object]], what: str) -> tuple[tuple[Value, ...], ...]:
    mat = tuple(tuple(as_value(x) for x in r) for r in rows)
    if not mat:
        raise ValueError(f"{what} needs at least one agent row")
    width = len(mat[0])
    for r in mat:
        if len(r) != width:
            raise ValueError(f"{what} rows must have equal length")
        _nonnegative(r, what)
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
    if scale == 1:
        return [list(row) for row in rows], 1
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

    @classmethod
    def for_instance(cls, instance: Instance, bids: Optional["BidProfile"]) -> "BidProfile":
        """``bids``, or the sincere profile for None, checked to fit ``instance``."""
        if bids is None:
            return cls.sincere(instance)
        if not bids.matches(instance):
            raise ValueError("bid profile shape differs from instance")
        return bids

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
        _nonnegative(new_row, "bid matrix")
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
            if o is not None and (isinstance(o, bool) or not isinstance(o, int) or o < 0):
                raise ValueError(f"owner must be None or a nonnegative int, got {o!r}")
        object.__setattr__(self, "owners", owners)

    @classmethod
    def _trusted(cls, owners: tuple) -> "Allocation":
        """Allocation over valid owners the library built; no checks."""
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "owners", owners)
        return alloc

    @property
    def m(self) -> int:
        return len(self.owners)

    def bundle(self, agent: int) -> tuple[int, ...]:
        """Items held by ``agent``, in arrival order."""
        return tuple(j for j, o in enumerate(self.owners) if o == agent)

    def sort_key(self) -> tuple[int, ...]:
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


@dataclass(frozen=True, init=False)
class AllocationDistribution:
    """Finite probability distribution over allocations of one instance.

    Held on integers in a canonical order: support allocation k owns items
    as ``owners[k]`` says and has probability ``weights[k] / scale``, the
    weights positive and summing to ``scale``, in lowest terms. That is the
    compared state, so ``==`` means the same lottery. ``entries``, `support`
    and iteration build Allocations and Fractions only when read. The
    constructor validates outside input; `_trusted` takes the library's own.
    """

    instance: Instance
    owners: tuple[tuple[Optional[int], ...], ...]
    weights: tuple[int, ...]
    scale: int

    def __init__(self, instance: Instance, entries: Sequence[tuple[Allocation, Fraction]]) -> None:
        object.__setattr__(self, "instance", instance)
        self.__post_init__(entries)

    def __post_init__(self, entries: Sequence[tuple[Allocation, Fraction]]) -> None:
        if not entries:
            raise ValueError("distribution must have nonempty support")
        rows = [alloc.owners for alloc, _ in entries]
        if set(map(len, rows)) != {self.instance.m}:
            raise ValueError("allocation length differs from instance size")
        agents = set().union(*rows) - {None}
        if agents and max(agents) >= self.instance.n:
            raise ValueError("owner index out of range")
        if len(set(rows)) != len(rows):  # equal owners tuples are equal allocations
            raise ValueError("duplicate allocation in support")
        probs = [p for _, p in entries]
        if not all(isinstance(p, Fraction) for p in probs):
            raise ValueError("probabilities must be Fractions")
        scale = math.lcm(*(p.denominator for p in probs))
        weights = [p.numerator * (scale // p.denominator) for p in probs]
        if min(weights) <= 0:
            raise ValueError("support probabilities must be positive")
        if sum(weights) != scale:
            raise ValueError(f"probabilities sum to {Fraction(sum(weights), scale)}, expected 1")
        # checked: hold the fields the trusted path gives these weights
        vars(self).update(vars(self._trusted(self.instance, dict(zip(rows, weights)), scale)))

    @classmethod
    def _trusted(cls, instance: Instance, weights: Mapping[tuple, int],
                 scale: int) -> "AllocationDistribution":
        """Each owners tuple with its weight over ``scale``, unchecked, in
        lowest terms and sorted by owners (`Allocation.sort_key`)."""
        try:
            owners = sorted(weights)
        except TypeError:  # a None met an int; engines discard alike on every branch
            owners = sorted(weights, key=lambda o: Allocation._trusted(o).sort_key())
        common = math.gcd(scale, *weights.values())
        dist = object.__new__(cls)
        # tuples from lists, of known length (see `support`)
        vars(dist).update(instance=instance, owners=tuple(owners), scale=scale // common,
                          weights=tuple([weights[o] // common for o in owners]))
        return dist

    @classmethod
    def from_map(cls, instance: Instance,
                 support: Mapping[Allocation, object]) -> "AllocationDistribution":
        return cls(instance, tuple((a, Fraction(as_value(p))) for a, p in support.items()))

    @classmethod
    def mix(cls, parts: Sequence[tuple["AllocationDistribution", object]]) -> "AllocationDistribution":
        """Convex combination of distributions over the same instance."""
        if not parts:
            raise ValueError("nothing to mix")
        instance = parts[0][0].instance
        kept = []
        for dist, weight in parts:
            if dist.instance != instance:
                raise ValueError("can only mix distributions over one instance")
            w = Fraction(as_value(weight))
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            kept.append((dist, w))
        total = sum(w for _, w in kept)
        if total != 1:  # as validating the mixture would report it
            raise ValueError("distribution must have nonempty support" if total == 0
                             else f"probabilities sum to {total}, expected 1")
        scale = math.lcm(*(dist.scale * w.denominator for dist, w in kept))
        merged: dict[tuple, int] = {}
        for dist, w in kept:
            factor = w.numerator * (scale // (dist.scale * w.denominator))
            for owners, c in zip(dist.owners, dist.weights):
                merged[owners] = merged.get(owners, 0) + factor * c
        return cls._trusted(instance, {o: c for o, c in merged.items() if c}, scale)

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    @property
    def entries(self) -> tuple[tuple[Allocation, Fraction], ...]:
        """``(allocation, probability)`` pairs; equal weights share one Fraction."""
        probs = {w: Fraction(w, self.scale) for w in set(self.weights)}
        return tuple([(a, probs[w]) for a, w in zip(self.support(), self.weights)])

    def support(self) -> tuple[Allocation, ...]:
        # tuple() of an iterator resizes a guessed tuple, feeding CPython's free lists
        return tuple([Allocation._trusted(o) for o in self.owners])

    def prefix(self, upto: int) -> "AllocationDistribution":
        """Marginal distribution over the first ``upto`` items."""
        merged: dict[tuple, int] = {}
        for owners, w in zip(self.owners, self.weights):
            head = owners[:upto]
            merged[head] = merged.get(head, 0) + w
        return AllocationDistribution._trusted(self.instance.prefix(upto), merged, self.scale)

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

    ``L`` is the distribution's ``scale`` and ``counts[i][j]`` adds its
    ``weights`` where agent i owns item j: agent i gets item j with
    probability ``counts[i][j] / L``.
    """
    counts = [[0] * dist.m for _ in range(dist.n)]
    for owners, w in zip(dist.owners, dist.weights):
        for j, o in enumerate(owners):
            if o is not None:
                counts[o][j] += w
    return counts, dist.scale


def marginals(dist: AllocationDistribution) -> AssignmentMatrix:
    """Collapse a distribution to per-item assignment probabilities.

    The sums are taken in integers by `marginal_counts`; each cell becomes
    one Fraction at the end.
    """
    counts, scale = marginal_counts(dist)
    return AssignmentMatrix(tuple(tuple(as_value(Fraction(c, scale)) for c in row)
                                  for row in counts))


def utility_matrix(utilities: Union[Instance, Sequence[Sequence[object]]], n: int, m: int,
                   mismatch: str) -> tuple[tuple[Value, ...], ...]:
    """``utilities`` checked as an n x m matrix, as an `Instance`'s would be;
    ``mismatch`` is the error for any other shape."""
    if isinstance(utilities, Instance):
        mat = utilities.utilities
    else:
        mat = tuple(tuple(as_value(x) for x in row) for row in utilities)
    if len(mat) != n or any(len(row) != m for row in mat):
        raise ValueError(mismatch)
    for row in mat:
        _nonnegative(row, "utility matrix")
    return mat


def expected_utilities(p: AssignmentMatrix,
                       utilities: Sequence[Sequence[Value]]) -> ExpectedUtilityMatrix:
    """Cross-evaluation of expected bundles under the given utility matrix.

    The sums are taken in integers: ``p`` and ``utilities`` each go onto
    one integer scale (`integer_rows`), and each cell becomes one Fraction
    at the end.
    """
    rows = utility_matrix(utilities, p.n, p.m,
                          "utility matrix shape differs from assignment matrix")
    probs, p_scale = integer_rows(p.p)
    values, u_scale = integer_rows(rows)
    scale = p_scale * u_scale
    return ExpectedUtilityMatrix(tuple(
        tuple(as_value(Fraction(sum(map(operator.mul, pk, row_i)), scale)) for pk in probs)
        for row_i in values))


@dataclass(frozen=True)
class PriorityOrder:
    """A strict priority permutation over agents, 0-based."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        if any(type(x) is not int for x in order) or sorted(order) != list(range(len(order))):
            raise ValueError(f"not a permutation of 0..{len(order) - 1}: {order}")
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, n: int) -> "PriorityOrder":
        return cls(tuple(range(n)))

    @classmethod
    def from_one_based(cls, seq: Iterable[int]) -> "PriorityOrder":
        return cls(tuple(x - 1 if type(x) is int else x for x in seq))

    @property
    def n(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)
