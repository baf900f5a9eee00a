"""Deviation search: manipulability falsifiers and behavioral probes.

All searches are deterministic and draw candidate bids from `BidGrid`.
Finding a deviation proves manipulability. Finding none proves that no
lie pays when `Mechanism.view` is "signs" or "tops" (see `_view_menu`),
and is evidence bounded by the grid otherwise.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    BidProfile,
    Instance,
    ItemCounts,
    Value,
    WorkBoundExceeded,
    as_value,
    format_value,
    integer_rows,
)
from .mechanisms import Mechanism, RuleInvariantError

DEFAULT_MAX_CANDIDATES = 10**6


@dataclass(frozen=True)
class BidGrid:
    """Finite bid menu per agent-item pair; ``extra`` values join every menu."""

    extra: tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        extra = tuple(as_value(x) for x in self.extra)
        if any(x < 0 for x in extra):
            raise ValueError("bids must be nonnegative")
        object.__setattr__(self, "extra", extra)

    def values(self, instance: Instance, agent: int, item: int) -> tuple[Value, ...]:
        pool = set(instance.column(item))
        pool.update(instance.utilities[agent])
        positive = [x for x in pool if x > 0]
        grid = {0, *pool, *self.extra}
        if positive:
            grid.add(as_value(Fraction(min(positive), 2)))
            grid.add(as_value(2 * max(positive)))
        return tuple(sorted(grid))


@dataclass(frozen=True)
class Deviation:
    """A profitable lie: the row bid by ``agent`` and the utility change.

    ``item`` is None for a free-form row deviation and an item index when
    the lie is confined to that single item, in which case the utilities
    are expectations over the items up to and including it.
    """

    agent: int
    bid_row: tuple[Value, ...]
    item: Optional[int]
    sincere_value: Value
    deviant_value: Value

    @property
    def gain(self) -> Value:
        return as_value(self.deviant_value - self.sincere_value)

    def to_json(self) -> dict:
        return {
            "agent": self.agent + 1,
            "bids": [format_value(x) for x in self.bid_row],
            "item": None if self.item is None else self.item + 1,
            "sincere_value": format_value(self.sincere_value),
            "deviant_value": format_value(self.deviant_value),
            "gain": format_value(self.gain),
        }


@dataclass(frozen=True)
class ProbeWitness:
    """A bid change at one cell that moved probabilities it should not move."""

    agent: int
    item: int
    bid: Value
    affected_item: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "agent": self.agent + 1,
            "item": self.item + 1,
            "bid": format_value(self.bid),
            "affected_item": None if self.affected_item is None else self.affected_item + 1,
        }


def _view_menu(view: str, menu: tuple[Value, ...], instance: Instance,
               agent: int, item: int) -> tuple[Value, ...]:
    """``agent``'s grid bids for ``item`` that reach every view of its
    column the agent can reach while the others bid sincerely: 0 and the
    smallest positive bid for "signs"; 0, the others' top bid M and the
    next bid above M for "tops" (as "signs" when M is 0); all for "bids"."""
    if view == "bids":
        return menu
    top = max((row[item] for i, row in enumerate(instance.utilities) if i != agent),
              default=0)
    if view == "signs" or top == 0:
        keep = (0, next(x for x in menu if x > 0))
    else:
        keep = (0, top, next(x for x in menu if x > top))
    return tuple(x for x in menu if x in keep)


def _first_lie(mech: Mechanism, instance: Instance, agent: int,
               menus: Sequence[tuple[Value, ...]], base: tuple[ItemCounts, int],
               max_nodes: Optional[int],
               ) -> Optional[tuple[tuple[Value, ...], Value, Value]]:
    """The first row of ``menus``' product, other than ``agent``'s sincere
    row, that raises the agent's expected true utility in ``instance`` above
    its value under ``base``, the sincere run's item counts, with the others
    bidding sincerely. Returns (row, sincere value, lie value), or None.

    The searches pass the view menus, and the answer is the whole grid's:
    the same first lie, and the same point where a work bound trips. Each
    grid row has the outcome and the work bound of the row of its entries'
    view representatives (see `Mechanism.view`), and each representative
    is the smallest grid bid with its view, so that row comes no later.

    Values are compared on the liar's integer utility row by
    cross-multiplying each run's scale, as `memoryless_probe` does.
    """
    u = instance.utilities
    sincere = BidProfile.sincere(instance)
    (weights,), d = integer_rows([u[agent]])
    counts, scale = base
    baseline = sum(map(operator.mul, counts[agent], weights))
    for row in itertools.product(*menus):
        if row != u[agent]:
            got, got_scale = mech.item_counts(instance, sincere.replace_row(agent, row),
                                              max_nodes=max_nodes)
            total = sum(map(operator.mul, got[agent], weights))
            if total * scale > baseline * got_scale:
                return (row, as_value(Fraction(baseline, scale * d)),
                        as_value(Fraction(total, got_scale * d)))
    return None


def sp_falsify(mech: Mechanism, instance: Instance, grid: Optional[BidGrid] = None, *,
               max_candidates: int = DEFAULT_MAX_CANDIDATES,
               max_nodes: Optional[int] = None) -> Optional[Deviation]:
    """Search whole-row lies for one that raises the liar's expected utility.

    Agents are tried in ascending order and rows in lexicographic grid
    order, so the first deviation found is deterministic. None covers
    every nonnegative rational row for a "signs" or "tops" mechanism and
    every grid row for "bids". ``max_candidates`` bounds each agent's grid
    rows, whichever rows run.
    """
    grid = grid or BidGrid()
    base = mech.item_counts(instance, max_nodes=max_nodes)
    for agent in range(instance.n):
        menus = [grid.values(instance, agent, j) for j in range(instance.m)]
        count = 1
        for menu in menus:
            count *= len(menu)
        if count > max_candidates:
            raise WorkBoundExceeded(
                f"{count} candidate rows for agent {agent + 1} exceed {max_candidates}"
            )
        reduced = [_view_menu(mech.view, menu, instance, agent, j)
                   for j, menu in enumerate(menus)]
        found = _first_lie(mech, instance, agent, reduced, base, max_nodes)
        if found is not None:
            return Deviation(agent, found[0], None, found[1], found[2])
    return None


def osp_falsify(mech: Mechanism, instance: Instance, grid: Optional[BidGrid] = None, *,
                max_nodes: Optional[int] = None) -> Optional[Deviation]:
    """Search single-item lies judged at the moment the item is decided.

    The liar bids sincerely before item j, misreports item j only, and the
    comparison is over expected true utility from the items up to and
    including j. Lies that sacrifice now to gain later are invisible here
    on purpose; this captures manipulations that are obvious as played.
    None reads as in `sp_falsify`. Each agent's search is the row scan on
    the prefix instance through item j, with the earlier bids pinned.
    """
    grid = grid or BidGrid()
    u = instance.utilities
    for item in range(instance.m):
        prefix = instance.prefix(item + 1)
        base = mech.item_counts(prefix, max_nodes=max_nodes)
        for agent in range(instance.n):
            menus = [(x,) for x in u[agent][:item]]
            menus.append(_view_menu(mech.view, grid.values(instance, agent, item),
                                    instance, agent, item))
            found = _first_lie(mech, prefix, agent, menus, base, max_nodes)
            if found is not None:
                row = found[0] + u[agent][item + 1:]
                return Deviation(agent, row, item, found[1], found[2])
    return None


def step_probe(mech: Mechanism, instance: Instance, grid: Optional[BidGrid] = None, *,
               max_nodes: Optional[int] = None) -> Optional[ProbeWitness]:
    """Witness that outcomes depend on a positive bid's size, not just its sign.

    Replaces one positive sincere bid with another positive grid value and
    reports the first replacement that changes the output distribution.
    Raises RuleInvariantError when it finds one for a mechanism declared
    to read only bid signs.
    """
    grid = grid or BidGrid()
    sincere = BidProfile.sincere(instance)
    base = mech.run(instance, max_nodes=max_nodes)
    for agent in range(instance.n):
        for item in range(instance.m):
            if instance.utility(agent, item) <= 0:
                continue
            for bid in grid.values(instance, agent, item):
                if bid <= 0 or bid == instance.utility(agent, item):
                    continue
                dist = mech.run(instance, sincere.replace_bid(agent, item, bid),
                                max_nodes=max_nodes)
                if dist.entries != base.entries:
                    if mech.view == "signs":
                        raise RuleInvariantError(
                            f"{mech.name}: declared to read only bid signs, but bid "
                            f"{format_value(bid)} by agent {agent + 1} on item {item + 1} "
                            f"changed the outcome"
                        )
                    return ProbeWitness(agent, item, bid)
    return None


def memoryless_probe(mech: Mechanism, instance: Instance,
                     grid: Optional[BidGrid] = None, *,
                     max_nodes: Optional[int] = None) -> Optional[ProbeWitness]:
    """Witness that an earlier bid steers a later item's probabilities.

    Perturbs one earlier cell at a time and compares the marginal
    probability columns of every later item against the sincere run. The
    marginals are integer counts over each run's own scale, so columns are
    compared by cross-multiplying: c / L == c' / L' exactly when
    c * L' == c' * L.
    """
    grid = grid or BidGrid()
    sincere = BidProfile.sincere(instance)
    base, scale = mech.item_counts(instance, max_nodes=max_nodes)
    for item in range(instance.m - 1):
        for agent in range(instance.n):
            for bid in grid.values(instance, agent, item):
                if bid == instance.utility(agent, item):
                    continue
                p, p_scale = mech.item_counts(instance, sincere.replace_bid(agent, item, bid),
                                              max_nodes=max_nodes)
                for later in range(item + 1, instance.m):
                    if any(p[i][later] * scale != base[i][later] * p_scale
                           for i in range(instance.n)):
                        return ProbeWitness(agent, item, bid, later)
    return None


@dataclass(frozen=True)
class MechanismProfile:
    """Behavioral fingerprint of a mechanism over a suite of instances."""

    mechanism: str
    step: bool
    memoryless: bool
    manipulable: bool
    step_witness: Optional[tuple[str, ProbeWitness]] = None
    memoryless_witness: Optional[tuple[str, ProbeWitness]] = None
    sp_witness: Optional[tuple[str, Deviation]] = None

    @property
    def characterization_consistent(self) -> bool:
        """Sign-only plus history-free behavior should coincide with honesty
        being optimal, and the suite should witness both directions."""
        return (self.step and self.memoryless) == (not self.manipulable)

    def to_json(self) -> dict:
        def tag(pair):
            return None if pair is None else {"instance": pair[0], **pair[1].to_json()}

        return {
            "mechanism": self.mechanism,
            "step": self.step,
            "memoryless": self.memoryless,
            "manipulable": self.manipulable,
            "characterization_consistent": self.characterization_consistent,
            "step_witness": tag(self.step_witness),
            "memoryless_witness": tag(self.memoryless_witness),
            "sp_witness": tag(self.sp_witness),
        }


def classify(mech: Mechanism, suite: Sequence[tuple[str, Instance]],
             grid: Optional[BidGrid] = None, *,
             max_candidates: int = DEFAULT_MAX_CANDIDATES,
             max_nodes: Optional[int] = None) -> MechanismProfile:
    """Profile a mechanism on a suite: probes plus the row-lie falsifier."""
    grid = grid or BidGrid()
    step_w = memoryless_w = sp_w = None
    for label, inst in suite:
        if step_w is None:
            w = step_probe(mech, inst, grid, max_nodes=max_nodes)
            if w is not None:
                step_w = (label, w)
        if memoryless_w is None:
            w = memoryless_probe(mech, inst, grid, max_nodes=max_nodes)
            if w is not None:
                memoryless_w = (label, w)
        if sp_w is None:
            d = sp_falsify(mech, inst, grid, max_candidates=max_candidates,
                           max_nodes=max_nodes)
            if d is not None:
                sp_w = (label, d)
    return MechanismProfile(
        mechanism=mech.name,
        step=step_w is None,
        memoryless=memoryless_w is None,
        manipulable=sp_w is not None,
        step_witness=step_w,
        memoryless_witness=memoryless_w,
        sp_witness=sp_w,
    )
