"""Brute-force enumeration, dominance, and the exact improvement LP."""

import operator
import random
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import pytest

from fairdiv import (
    Allocation,
    BidProfile,
    DomainSpec,
    Instance,
    WorkBoundExceeded,
    enumerate_allocations,
    expected_utilities,
    generate,
    like,
    marginals,
    pareto_frontier,
    pea_solution,
    utility_vector,
    work_bound,
)
from fairdiv import oracle
from fairdiv.oracle import InfeasibleError, UnboundedError, _simplex_maximize

SWAP = Instance(((1, 2), (2, 1)))


def test_enumeration_counts_and_order():
    allocs = enumerate_allocations(SWAP)
    assert [a.owners for a in allocs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    skewed = Instance(((1, 2), (0, 1)))
    assert [a.owners for a in enumerate_allocations(skewed)] == [(0, 0), (0, 1)]


def test_enumeration_discards_zero_bid_columns():
    bids = BidProfile(((1, 0), (2, 0)))
    allocs = enumerate_allocations(SWAP, bids)
    assert [a.owners for a in allocs] == [(0, None), (1, None)]


def test_enumeration_work_bound():
    inst = Instance(tuple((1, 1, 1, 1) for _ in range(3)))
    with pytest.raises(WorkBoundExceeded), work_bound(80):
        enumerate_allocations(inst)
    with work_bound(81):
        assert len(enumerate_allocations(inst)) == 81


def test_utility_vector():
    assert utility_vector(Allocation((0, 0)), SWAP.utilities) == (3, 0)
    assert utility_vector(Allocation((1, 0)), SWAP.utilities) == (2, 2)
    assert utility_vector(Allocation((None, None)), SWAP.utilities) == (0, 0)


def test_frontier_of_the_swap_instance():
    front = {a.owners for a in pareto_frontier(SWAP)}
    assert front == {(0, 0), (1, 0), (1, 1)}


def test_frontier_of_close_values_is_everything():
    close = Instance(((1, 4), (2, 3)))
    assert len(pareto_frontier(close)) == 4


def test_frontier_under_explicit_values():
    # judged on flat bids every allocation is maximal
    front = pareto_frontier(SWAP, BidProfile(((1, 1), (1, 1))))
    assert len(front) == 4


def _reference_pareto_frontier(instance, bids=None):
    """The all-pairs frontier that the distinct-vector test replaced."""
    values = instance.utilities if bids is None else bids.bids
    allocs = enumerate_allocations(instance, bids)
    vectors = [utility_vector(a, values) for a in allocs]
    out = []
    for i, va in enumerate(vectors):
        dominated = False
        for vb in vectors:
            if vb != va and all(x >= y for x, y in zip(vb, va)):
                dominated = True
                break
        if not dominated:
            out.append(allocs[i])
    return out


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
def test_frontier_matches_all_pairs_reference_on_exhaustive_grids(n, m):
    for inst in _grid_instances(n, m):
        assert pareto_frontier(inst) == _reference_pareto_frontier(inst)


def _seeded_fraction_cases(count):
    rng = random.Random(20200629)
    for _ in range(count):
        n, m = rng.randint(2, 3), rng.randint(1, 4)
        utilities = [[Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(m)]
                     for _ in range(n)]
        for j in range(m):
            utilities[rng.randrange(n)][j] += 1
        bids = utilities
        while bids == utilities:
            bids = [[Fraction(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(m)]
                    for _ in range(n)]
            for j in range(m):
                if rng.random() < 0.25:
                    for row in bids:
                        row[j] = 0
        yield Instance(tuple(map(tuple, utilities))), BidProfile(tuple(map(tuple, bids)))


def test_frontier_matches_all_pairs_reference_on_fractional_bids():
    for inst, bids in _seeded_fraction_cases(150):
        for judged in (None, bids):
            assert (pareto_frontier(inst, judged)
                    == _reference_pareto_frontier(inst, judged))


def test_enumeration_is_in_canonical_order():
    for inst, bids in _seeded_fraction_cases(150):
        allocs = enumerate_allocations(inst, bids)
        assert allocs == sorted(allocs, key=Allocation.sort_key)


def test_enumerated_allocations_equal_checked_ones():
    # enumeration builds its allocations unchecked, since product's owner
    # tuples are valid by construction
    for inst, bids in _seeded_fraction_cases(150):
        allocs = enumerate_allocations(inst, bids)
        checked = [Allocation(a.owners) for a in allocs]
        assert allocs == checked and list(map(hash, allocs)) == list(map(hash, checked))


def test_efficient_ex_post_can_still_lose_to_a_lottery():
    # splitting the items here is undominated by any single allocation but
    # a coin flip between the two dictatorship outcomes beats it
    inst = Instance(((2, 1), (3, 1)))
    split = Allocation((0, 1))
    assert split in pareto_frontier(inst)
    sol = pea_solution(utility_vector(split, inst.utilities), inst)
    assert sol.objective == Fraction(1, 2)
    assert pea_solution(utility_vector(split, inst.utilities), inst).objective != 0


def test_pea_accepts_points_below_an_achievable_mixture():
    # (3/2, 3/2) is what equal sharing yields; total utility 3 < 4
    sol = pea_solution((Fraction(3, 2), Fraction(3, 2)), SWAP)
    assert sol.objective == 1
    assert sum(w for _, w in sol.weights) == 1
    gains = sol.gains
    assert sum(gains) == 1
    # the improving lottery must hold every agent at least at the point
    improved = [Fraction(0), Fraction(0)]
    for alloc, w in sol.weights:
        vec = utility_vector(alloc, SWAP.utilities)
        improved[0] += w * vec[0]
        improved[1] += w * vec[1]
    assert improved[0] >= Fraction(3, 2) and improved[1] >= Fraction(3, 2)


def test_pea_holds_at_welfare_maximizing_points():
    assert pea_solution((2, 2), SWAP).objective == 0
    assert pea_solution((3, 0), SWAP).objective == 0


def test_pea_rejects_unreachable_points():
    with pytest.raises(InfeasibleError):
        pea_solution((10, 10), SWAP)
    with pytest.raises(ValueError):
        pea_solution((1, 1, 1), SWAP)


def test_lp_solutions_are_deterministic():
    point = (Fraction(3, 2), Fraction(3, 2))
    a = pea_solution(point, SWAP)
    b = pea_solution(point, SWAP)
    assert a == b


def test_simplex_small_hand_cases():
    one = Fraction(1)
    value, x = _simplex_maximize(
        [one, one], [([one, one], "<=", Fraction(1))]
    )
    assert value == 1 and sum(x) == 1
    value, x = _simplex_maximize(
        [one, Fraction(2)],
        [([one, Fraction(0)], "<=", Fraction(3)),
         ([Fraction(0), one], "<=", Fraction(2)),
         ([one, one], ">=", Fraction(1))],
    )
    assert value == 7
    with pytest.raises(InfeasibleError):
        _simplex_maximize([one], [([one], ">=", Fraction(2)),
                                  ([one], "<=", Fraction(1))])
    with pytest.raises(UnboundedError):
        _simplex_maximize([one], [([one], ">=", Fraction(1))])


def test_simplex_handles_equalities_and_negative_rhs():
    one = Fraction(1)
    value, x = _simplex_maximize(
        [one, one],
        [([one, -one], "==", Fraction(0)), ([one, one], "<=", Fraction(4))],
    )
    assert value == 4 and x[0] == x[1] == 2
    value, _ = _simplex_maximize(
        [one], [([-one], "<=", Fraction(-2)), ([one], "<=", Fraction(5))]
    )
    assert value == 5


def test_dominated_vectors_are_never_efficient_ex_ante():
    rng = random.Random(424242)
    hits = 0
    for k in range(40):
        inst = generate(DomainSpec("general", rng.randint(2, 3),
                                   rng.randint(2, 3), seed=rng.randrange(1 << 30)))
        allocs = enumerate_allocations(inst)
        front = {a.owners for a in pareto_frontier(inst)}
        dominated = [a for a in allocs if a.owners not in front]
        for alloc in dominated[:3]:
            assert pea_solution(utility_vector(alloc, inst.utilities), inst).objective != 0
            hits += 1
        # welfare-maximizing allocations cannot be improved in total
        best = max(allocs, key=lambda a: sum(utility_vector(a, inst.utilities)))
        assert pea_solution(utility_vector(best, inst.utilities), inst).objective == 0
    assert hits > 0


# The Fraction-tableau simplex that the fraction-free one replaced, kept
# verbatim as the reference path for the differential tests below.

def _fraction_simplex_maximize(c: Sequence[Fraction],
                      constraints: Sequence[tuple[Sequence[Fraction], str, Fraction]],
                      ) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to rows (coeffs, rel, rhs) and x >= 0.

    rel is one of '<=', '>=', '=='. Exact two-phase simplex with Bland's
    rule, so the run is deterministic and cannot cycle. Raises
    InfeasibleError or UnboundedError accordingly.
    """
    nv = len(c)
    rows: list[list[Fraction]] = []
    rels: list[str] = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != nv:
            raise ValueError("constraint width differs from objective")
        row = [Fraction(x) for x in coeffs]
        b = Fraction(rhs)
        if b < 0:
            row = [-x for x in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append(row + [b])
        rels.append(rel)

    nrows = len(rows)
    # column layout: [original vars][one slack or surplus per inequality][artificials]
    n_slack = sum(1 for r in rels if r != "==")
    slack_of: dict[int, int] = {}
    k = 0
    for i, r in enumerate(rels):
        if r != "==":
            slack_of[i] = nv + k
            k += 1
    art_of: dict[int, int] = {}
    k = 0
    for i, r in enumerate(rels):
        if r in ("==", ">="):
            art_of[i] = nv + n_slack + k
            k += 1
    ncols = nv + n_slack + len(art_of)

    tab: list[list[Fraction]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        full = row[:-1] + [Fraction(0)] * (ncols - nv) + [row[-1]]
        if i in slack_of:
            full[slack_of[i]] = Fraction(1) if rels[i] == "<=" else Fraction(-1)
        if i in art_of:
            full[art_of[i]] = Fraction(1)
            basis.append(art_of[i])
        else:
            basis.append(slack_of[i])
        tab.append(full)

    def pivot(r: int, col: int) -> None:
        piv = tab[r][col]
        tab[r] = [x / piv for x in tab[r]]
        for i in range(nrows):
            if i != r and tab[i][col]:
                f = tab[i][col]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        basis[r] = col

    def run(obj: list[Fraction], live: int) -> None:
        # Bland's rule: smallest eligible entering column, then the leaving
        # row with the smallest ratio, ties broken by smallest basis index.
        while True:
            lam = [obj[basis[i]] for i in range(nrows)]
            enter = -1
            for j in range(live):
                rc = obj[j]
                for i in range(nrows):
                    if tab[i][j]:
                        rc -= lam[i] * tab[i][j]
                if rc > 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best: Optional[Fraction] = None
            for i in range(nrows):
                a = tab[i][enter]
                if a > 0:
                    t = tab[i][-1] / a
                    if best is None or t < best or (t == best and basis[i] < basis[leave]):
                        best = t
                        leave = i
            if leave < 0:
                raise UnboundedError("objective is unbounded above")
            pivot(leave, enter)

    if art_of:
        phase1 = [Fraction(0)] * ncols
        for col in art_of.values():
            phase1[col] = Fraction(-1)
        run(phase1, ncols)
        art_cols = set(art_of.values())
        residue = sum(tab[i][-1] for i in range(nrows) if basis[i] in art_cols)
        if residue != 0:
            raise InfeasibleError("no feasible point")
        # drive leftover zero-level artificials out of the basis
        for i in range(nrows):
            if basis[i] in art_cols:
                for j in range(nv + n_slack):
                    if tab[i][j]:
                        pivot(i, j)
                        break

    obj2 = [Fraction(x) for x in c] + [Fraction(0)] * (ncols - nv)
    live = nv + n_slack  # artificial columns are dead in phase 2
    run(obj2, live)

    x = [Fraction(0)] * nv
    for i in range(nrows):
        if basis[i] < nv:
            x[basis[i]] = tab[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x


@pytest.fixture
def exact_divisions(monkeypatch):
    """Route every row update of the integer simplex through a divmod that
    fails on a nonzero remainder, and record the pivot rows it saw."""
    pivot_rows = []

    def checked(row, pivot_row, a, f, d):
        assert a > 0 and d > 0
        out = []
        for x, y in zip(row, pivot_row):
            q, r = divmod(a * x - f * y, d)
            assert r == 0, (row, pivot_row, a, f, d)
            out.append(q)
        pivot_rows.append(list(pivot_row))
        return out

    monkeypatch.setattr(oracle, "_eliminate", checked)
    return pivot_rows


def _outcome(solve, c, constraints):
    try:
        return solve(c, constraints)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


def _assert_same_as_reference(c, constraints):
    got = _outcome(_simplex_maximize, c, constraints)
    want = _outcome(_fraction_simplex_maximize, c, constraints)
    assert got == want, (c, constraints)
    if not isinstance(want, type):
        assert all(type(v) is Fraction for v in got[1])
    return want


def test_integer_simplex_matches_fraction_simplex_on_random_lps(exact_divisions):
    rng = random.Random(19680701)

    def number():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.6:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    seen = {"solved": 0, InfeasibleError: 0, UnboundedError: 0}
    for _ in range(400):
        nv = rng.randint(1, 5)
        c = [number() for _ in range(nv)]
        constraints = [([number() for _ in range(nv)], rng.choice(["<=", ">=", "=="]), number())
                       for _ in range(rng.randint(0, 5))]
        want = _assert_same_as_reference(c, constraints)
        seen[want if isinstance(want, type) else "solved"] += 1
    assert min(seen.values()) >= 50, seen
    assert exact_divisions


def _redundant_lps():
    one = Fraction(1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        # a row and its negation, rhs 0: phase 1 makes no pivot, both
        # artificials stay basic at zero, and the first is driven out
        # through its -1 entry
        ([1, 1], [([-1, 1], "==", 0), ([1, -1], "==", 0), ([1, 1], "<=", 2)]),
        ([half, third], [([-half, third], "==", 0), ([half, -third], "==", 0),
                         ([one, one], "<=", Fraction(5, 2))]),
        # the same equality twice once the negative rhs is flipped: the
        # second artificial stays basic on an all-zero row into phase 2
        ([1, 2], [([1, 1], "==", 1), ([-1, -1], "==", -1)]),
        ([2, 1, 0], [([1, 1, 1], "==", 3), ([-2, -2, -2], "==", -6), ([-1, 1, 0], ">=", 0)]),
    ]


def test_integer_simplex_drives_out_zero_level_artificials(exact_divisions):
    for c, constraints in _redundant_lps():
        _assert_same_as_reference(c, constraints)
    # the first LP's first pivot row is row 0 negated. The simplex keeps
    # R = d * B^-1 beside R b, so the recorded row is R's row 0 and its rhs,
    # negated; times the LP's integer tableau [x1, x2 | slack | artificials
    # | rhs] it is the tableau row [1, -1 | slack 0 | artificials -1, 0 | rhs 0]
    exact_divisions.clear()
    value, x = _simplex_maximize(*_redundant_lps()[0])
    assert value == 2 and x == [1, 1]
    assert exact_divisions[0] == [-1, 0, 0, 0]
    tableau = [[-1, 1, 0, 1, 0, 0], [1, -1, 0, 0, 1, 0], [1, 1, 1, 0, 0, 2]]
    r = exact_divisions[0][:-1]
    row = [sum(map(operator.mul, r, col)) for col in zip(*tableau)]
    assert row == [1, -1, 0, -1, 0, 0] and row[-1] == exact_divisions[0][-1]


def test_integer_simplex_weights_phase_one_by_row_scale(exact_divisions):
    # check_pea's LP for pareto-like on a 3x2 instance with utilities
    # ((8/3, 1/3), (13/6, 5/2), (1/2, 13/6)); its rows scale by 27, 6, 54
    # and 1. With every artificial weighted -1 instead of -(L // s), the
    # phase-1 run takes other pivots and returns a different optimal lottery.
    f = Fraction
    c = [0] * 9 + [1] * 3
    constraints = [
        ([3, f(8, 3), f(8, 3), f(1, 3), 0, 0, f(1, 3), 0, 0, -1, 0, 0], ">=", f(25, 27)),
        ([0, f(5, 2), 0, f(13, 6), f(14, 3), f(13, 6), 0, f(5, 2), 0, 0, -1, 0], ">=", f(11, 6)),
        ([0, 0, f(13, 6), 0, 0, f(13, 6), f(1, 2), f(1, 2), f(8, 3), 0, 0, -1], ">=", f(61, 54)),
        ([1] * 9 + [0] * 3, "==", 1),
    ]
    _assert_same_as_reference(c, constraints)


def _grid_instances(n, m):
    for flat in product(range(4), repeat=n * m):
        rows = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
        if all(any(row[j] for row in rows) for j in range(m)):
            yield Instance(rows)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3)])
def test_pea_solution_matches_fraction_simplex_on_exhaustive_grids(n, m, monkeypatch):
    cases = []
    for inst in _grid_instances(n, m):
        vectors = [utility_vector(a, inst.utilities) for a in enumerate_allocations(inst)]
        uniform = tuple(Fraction(sum(v[i] for v in vectors), len(vectors)) for i in range(n))
        shared = expected_utilities(marginals(like().run(inst)), inst.utilities).own()
        cases += [(inst, uniform), (inst, shared)]
    got = [pea_solution(point, inst) for inst, point in cases]
    monkeypatch.setattr(oracle, "_simplex_maximize", _fraction_simplex_maximize)
    want = [pea_solution(point, inst) for inst, point in cases]
    assert got == want
    assert any(sol.objective > 0 for sol in got) and any(sol.objective == 0 for sol in got)
