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
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    DEFAULT_MAX_NODES,
    BidProfile,
    Instance,
    ItemCounts,
    Value,
    as_value,
    check_work_bound,
    format_value,
    integer_rows,
    work_bound,
)
from .mechanisms import Mechanism, RuleInvariantError


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

    def _least_above(self, instance: Instance, agent: int, item: int, floor: Value) -> Value:
        """The smallest bid of `values` above ``floor``, which is 0 or a
        value in ``item``'s column, found without building the whole menu.
        Above 0 the pool gives half its smallest positive value; above a
        pool value, its next larger value or else twice its largest."""
        pool = (*instance.column(item), *instance.utilities[agent])
        # values are nonnegative, and an instance's column has a positive one
        positive = [x for x in pool if x]
        if floor:
            least = min([x for x in pool if x > floor], default=2 * max(positive))
        else:
            least = Fraction(min(positive), 2)
        return as_value(min([least, *(x for x in self.extra if x > floor)]))


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


def _view_menu(view: str, grid: BidGrid, instance: Instance,
               agent: int, item: int) -> tuple[Value, ...]:
    """``agent``'s grid bids for ``item`` that reach every view of its
    column the agent can reach while the others bid sincerely: 0 and the
    smallest positive grid bid for "signs"; 0, the others' top bid M and
    the smallest grid bid above M for "tops" (as "signs" when M is 0); all
    of `BidGrid.values` for "bids". The two short menus are the bids the
    whole grid menu would keep, in its order, found without building it."""
    if view == "bids":
        return grid.values(instance, agent, item)
    top = max((row[item] for i, row in enumerate(instance.utilities) if i != agent),
              default=0)
    if view == "signs" or top == 0:
        return (0, grid._least_above(instance, agent, item, 0))
    return (0, top, grid._least_above(instance, agent, item, top))


def _first_lie(mech: Mechanism, instance: Instance, agent: int,
               menus: Sequence[tuple[Value, ...]], base: tuple[ItemCounts, int],
               liar: tuple[Sequence[int], int],
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

    The rows' counts come from `Mechanism.item_counts`, which may answer
    from an earlier profile with the same view. So for a "signs" or "tops"
    mechanism the returned row is counted once more on its own bids, past
    that memo, and a different count raises RuleInvariantError.

    ``liar`` is the liar's true utility row times an integer D, ``(row,
    D)``, which the searches scale once. Values are compared on it by
    cross-multiplying each run's scale, as `memoryless_probe` does.
    """
    u = instance.utilities
    head, tail = u[:agent], u[agent + 1:]
    weights, d = liar
    counts, scale = base
    baseline = sum(map(operator.mul, counts[agent], weights))
    for row in itertools.product(*menus):
        if row != u[agent]:
            # grid bids are exact and nonnegative
            bids = BidProfile._validated(head + (row,) + tail)
            got, got_scale = mech.item_counts(instance, bids)
            total = sum(map(operator.mul, got[agent], weights))
            if total * scale > baseline * got_scale:
                if mech.view != "bids":
                    _recount(mech, instance, bids, got, got_scale)
                return (row, as_value(Fraction(baseline, scale * d)),
                        as_value(Fraction(total, got_scale * d)))
    return None


def _recount(mech: Mechanism, instance: Instance, bids: BidProfile,
             counts: ItemCounts, scale: int) -> None:
    """Raise RuleInvariantError unless ``mech.counter`` gives ``bids`` the
    item marginals ``counts / scale``."""
    again, again_scale = mech.counter(instance, bids)
    if any(x * again_scale != y * scale
           for row, again_row in zip(counts, again) for x, y in zip(row, again_row)):
        raise RuleInvariantError(
            f"{mech.name}: declared bid view {mech.view!r}, but bids "
            f"{[[format_value(x) for x in r] for r in bids.bids]} are counted "
            f"differently from an earlier profile with the same view"
        )


def sp_falsify(mech: Mechanism, instance: Instance, grid: Optional[BidGrid] = None, *,
               max_candidates: Optional[int] = None) -> Optional[Deviation]:
    """Search whole-row lies for one that raises the liar's expected utility.

    Agents are tried in ascending order and rows in lexicographic grid
    order, so the first deviation found is deterministic. None covers
    every nonnegative rational row for a "signs" or "tops" mechanism and
    every grid row for "bids". The scan runs the rows of the view menus
    (see `_view_menu`), and ``max_candidates`` (default
    `DEFAULT_MAX_NODES`) bounds how many menu rows each agent may have.
    It counts rows, not engine runs: `Mechanism.item_counts` runs the
    engine once per bid view, so rows with a seen view cost none.
    """
    grid = grid or BidGrid()
    base = mech.item_counts(instance)
    scaled, d = integer_rows(instance.utilities)
    for agent in range(instance.n):
        menus = [_view_menu(mech.view, grid, instance, agent, j) for j in range(instance.m)]
        # the rows have their own bound, in place of the node bound for this check
        with work_bound(DEFAULT_MAX_NODES if max_candidates is None else max_candidates):
            check_work_bound(map(len, menus), f"candidate rows for agent {agent + 1}")
        found = _first_lie(mech, instance, agent, menus, base, (scaled[agent], d))
        if found is not None:
            return Deviation(agent, found[0], None, found[1], found[2])
    return None


def osp_falsify(mech: Mechanism, instance: Instance,
                grid: Optional[BidGrid] = None) -> Optional[Deviation]:
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
    scaled, d = integer_rows(u)
    for item in range(instance.m):
        prefix = instance.prefix(item + 1)
        base = mech.item_counts(prefix)
        for agent in range(instance.n):
            menus = [(x,) for x in u[agent][:item]]
            menus.append(_view_menu(mech.view, grid, instance, agent, item))
            found = _first_lie(mech, prefix, agent, menus, base, (scaled[agent][:item + 1], d))
            if found is not None:
                row = found[0] + u[agent][item + 1:]
                return Deviation(agent, row, item, found[1], found[2])
    return None


def _cell_changes(instance: Instance, grid: BidGrid, cells: Iterable[tuple[int, int]],
                  ) -> Iterator[tuple[int, int, Value, BidProfile]]:
    """Each one-bid change to the sincere profile, ``(agent, item, bid,
    profile)``, over ``cells`` in order and each cell's grid but its sincere bid."""
    sincere = BidProfile.sincere(instance)
    for agent, item in cells:
        for bid in grid.values(instance, agent, item):
            if bid != instance.utility(agent, item):
                yield agent, item, bid, sincere.replace_bid(agent, item, bid)


def step_probe(mech: Mechanism, instance: Instance,
               grid: Optional[BidGrid] = None) -> Optional[ProbeWitness]:
    """Witness that outcomes depend on a positive bid's size, not just its sign.

    Replaces one positive sincere bid with another positive grid value and
    reports the first replacement that changes the output distribution.
    Raises RuleInvariantError when it finds one for a mechanism declared
    to read only bid signs.
    """
    base = mech.run(instance)
    cells = [(agent, item) for agent, row in enumerate(instance.utilities)
             for item, x in enumerate(row) if x > 0]
    for agent, item, bid, bids in _cell_changes(instance, grid or BidGrid(), cells):
        if bid > 0 and mech.run(instance, bids) != base:
            if mech.view == "signs":
                raise RuleInvariantError(
                    f"{mech.name}: declared to read only bid signs, but bid "
                    f"{format_value(bid)} by agent {agent + 1} on item {item + 1} "
                    f"changed the outcome"
                )
            return ProbeWitness(agent, item, bid)
    return None


def memoryless_probe(mech: Mechanism, instance: Instance,
                     grid: Optional[BidGrid] = None) -> Optional[ProbeWitness]:
    """Witness that an earlier bid steers a later item's probabilities.

    Perturbs one earlier cell at a time and compares the marginal
    probability columns of every later item against the sincere run. The
    marginals are integer counts over each run's own scale, so columns are
    compared by cross-multiplying: c / L == c' / L' exactly when
    c * L' == c' * L.
    """
    base, scale = mech.item_counts(instance)
    cells = [(agent, item) for item in range(instance.m - 1) for agent in range(instance.n)]
    for agent, item, bid, bids in _cell_changes(instance, grid or BidGrid(), cells):
        p, p_scale = mech.item_counts(instance, bids)
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


def classify(mech: Mechanism, suite: Sequence[tuple[str, Instance]]) -> MechanismProfile:
    """Profile a mechanism on a suite: probes plus the row-lie falsifier."""
    searches = (step_probe, memoryless_probe, sp_falsify)
    found: list = [None] * len(searches)
    for label, inst in suite:
        for k, search in enumerate(searches):
            if found[k] is None:
                w = search(mech, inst)
                if w is not None:
                    found[k] = (label, w)
    step_w, memoryless_w, sp_w = found
    return MechanismProfile(
        mechanism=mech.name,
        step=step_w is None,
        memoryless=memoryless_w is None,
        manipulable=sp_w is not None,
        step_witness=step_w,
        memoryless_witness=memoryless_w,
        sp_witness=sp_w,
    )
