"""Independent exact checks for the benchmark's outputs.

Nothing here imports fairdiv. Allocations are owner tuples (0-based agent
per item, None for a discarded item), utility and bid matrices are tuples
of rows, and every number is an int or a Fraction. A distribution is a
sequence of (owners, probability) pairs. Each check returns a list of
problems; an empty list means the output passed.

Witness payloads are the 1-based JSON forms that ``fairdiv table --json``
and the verdicts' ``to_json`` print, parsed back here from their strings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional, Sequence

Owners = tuple
Matrix = Sequence[Sequence]
Entries = Sequence[tuple[Owners, Fraction]]
#: run(mechanism name, utilities, bids) -> the mechanism's distribution
Runner = Callable[[str, Matrix, Matrix], Entries]

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_ITEM = re.compile(r"^o(\d+):(-|\d+)$")

ENVY_EX_POST = ("efp", "sefp", "befp")


def parse_value(text: str) -> Fraction:
    """'p', 'p/q' or a negated form as an exact Fraction."""
    match = _RATIONAL.match(text)
    if not match:
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(int(match.group(1)), int(match.group(2) or 1))


def parse_allocation(text: str) -> Owners:
    """'o1:2 o2:- o3:1' (1-based, '-' for discarded) as 0-based owners."""
    if text == "(empty)":
        return ()
    owners = []
    for pos, token in enumerate(text.split(), start=1):
        match = _ITEM.match(token)
        if not match or int(match.group(1)) != pos:
            raise ValueError(f"bad allocation token {token!r} in {text!r}")
        who = match.group(2)
        owners.append(None if who == "-" else int(who) - 1)
    return tuple(owners)


def bundle_value(owners: Owners, agent: int, holder: int, values: Matrix) -> Fraction:
    """How ``agent`` values the items ``holder`` owns."""
    return sum((Fraction(values[agent][j]) for j, o in enumerate(owners) if o == holder),
               Fraction(0))


def own_vector(owners: Owners, values: Matrix) -> tuple[Fraction, ...]:
    return tuple(bundle_value(owners, i, i, values) for i in range(len(values)))


def dominates(a: Sequence, b: Sequence) -> bool:
    """Utility vector ``a`` is at least ``b`` everywhere and above it somewhere."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def positive_bidders(bids: Matrix, item: int) -> tuple[int, ...]:
    return tuple(i for i in range(len(bids)) if bids[i][item] > 0)


def non_wasteful(owners: Owners, bids: Matrix) -> bool:
    """Each item goes to a positive bidder, and only unwanted items are discarded."""
    if len(owners) != len(bids[0]):
        return False
    for j, o in enumerate(owners):
        if o is None:
            if positive_bidders(bids, j):
                return False
        elif not (0 <= o < len(bids) and bids[o][j] > 0):
            return False
    return True


def distribution_problems(entries: Entries, n: int, m: int) -> list[str]:
    """Exact positive probabilities over distinct, well-formed allocations summing to 1."""
    problems = []
    seen = set()
    total = Fraction(0)
    for owners, prob in entries:
        if type(prob) is not Fraction or prob <= 0:
            problems.append(f"probability {prob!r} is not a positive Fraction")
        if len(owners) != m or any(o is not None and not 0 <= o < n for o in owners):
            problems.append(f"allocation {owners} does not fit {n}x{m}")
        if owners in seen:
            problems.append(f"allocation {owners} repeats")
        seen.add(owners)
        total += prob
    if total != 1:
        problems.append(f"probabilities sum to {total}")
    return problems


def marginals_by_sum(entries: Entries, n: int, m: int) -> list[list[Fraction]]:
    """p[i][j]: total probability of the support allocations giving item j to i."""
    p = [[Fraction(0)] * m for _ in range(n)]
    for owners, prob in entries:
        for j, o in enumerate(owners):
            if o is not None:
                p[o][j] += prob
    return p


def expected_matrix(p: Matrix, values: Matrix) -> list[list[Fraction]]:
    """ubar[i][k]: agent i's expected value for agent k's bundle."""
    n, m = len(values), len(values[0])
    return [[sum((p[k][j] * values[i][j] for j in range(m)), Fraction(0))
             for k in range(n)] for i in range(n)]


def expected_own(entries: Entries, agent: int, values: Matrix) -> Fraction:
    """Expected value of the agent's own bundle, summed over the support."""
    return sum((prob * bundle_value(owners, agent, agent, values) for owners, prob in entries),
               Fraction(0))


def efa_margin(p: Matrix, values: Matrix) -> Optional[Fraction]:
    """min over ordered pairs of ubar[i][i] - ubar[i][k]; None with one agent."""
    ubar = expected_matrix(p, values)
    gaps = [ubar[i][i] - ubar[i][k] for i in range(len(values))
            for k in range(len(values)) if k != i]
    return min(gaps) if gaps else None


# --- closed forms ------------------------------------------------------------

def like_marginals(bids: Matrix) -> list[list[Fraction]]:
    """Uniform over positive bidders: 1/|positive bidders| each."""
    n, m = len(bids), len(bids[0])
    p = [[Fraction(0)] * m for _ in range(n)]
    for j in range(m):
        pos = positive_bidders(bids, j)
        for i in pos:
            p[i][j] = Fraction(1, len(pos))
    return p


def maximum_like_marginals(bids: Matrix) -> list[list[Fraction]]:
    """Uniform over the highest positive bidders: 1/|top bidders| each."""
    n, m = len(bids), len(bids[0])
    p = [[Fraction(0)] * m for _ in range(n)]
    for j in range(m):
        best = max(bids[i][j] for i in range(n))
        if best > 0:
            top = [i for i in range(n) if bids[i][j] == best]
            for i in top:
                p[i][j] = Fraction(1, len(top))
    return p


def serial_dictatorship(bids: Matrix, order: Sequence[int]) -> Owners:
    """Each item to the first agent in ``order`` who bids on it."""
    owners = []
    for j in range(len(bids[0])):
        owners.append(next((i for i in order if bids[i][j] > 0), None))
    return tuple(owners)


# orp gives each item to the first positive bidder of a uniformly random
# order, so every positive bidder gets it with probability 1/|positive|: like's
CLOSED_FORM_MARGINALS = {
    "like": like_marginals,
    "orp": like_marginals,
    "maximum-like": maximum_like_marginals,
    "osd": lambda bids: marginals_by_sum(
        [(serial_dictatorship(bids, range(len(bids))), Fraction(1))], len(bids), len(bids[0])),
}


def like_support_size(bids: Matrix) -> int:
    size = 1
    for j in range(len(bids[0])):
        size *= max(1, len(positive_bidders(bids, j)))
    return size


# --- witness re-checks ---------------------------------------------------------

def _prefix(rows: Matrix, upto: int) -> tuple:
    return tuple(tuple(row[:upto]) for row in rows)


def liar_value(mech: str, values: Matrix, bids: Matrix, agent: int, run: Runner) -> Fraction:
    """The liar's true expected value when ``bids`` are reported.

    Uses the rule's closed-form marginals where one exists, so the value
    does not come from the engine at all; otherwise sums over the support
    the engine returns for the reported bids.
    """
    closed = CLOSED_FORM_MARGINALS.get(mech)
    if closed is not None:
        p = closed(bids)
        return sum((p[agent][j] * values[agent][j] for j in range(len(values[0]))),
                   Fraction(0))
    return expected_own(run(mech, values, bids), agent, values)


def deviation_problems(mech: str, values: Matrix, witness: dict, run: Runner) -> list[str]:
    """A row (sp) or single-item (osp) lie must raise the liar's true value
    from exactly the reported sincere value to exactly the reported one."""
    agent = witness["agent"] - 1
    row = tuple(parse_value(x) for x in witness["bids"])
    item = witness["item"]
    upto = len(values[0]) if item is None else item
    truth = _prefix(values, upto)
    lie = tuple(row[:upto] if i == agent else truth[i] for i in range(len(truth)))
    if lie == truth:
        return ["the reported lie equals the sincere bids"]
    if item is not None and any(lie[agent][j] != truth[agent][j] for j in range(upto - 1)):
        return ["a single-item lie changes an earlier bid"]
    sincere = liar_value(mech, truth, truth, agent, run)
    deviant = liar_value(mech, truth, lie, agent, run)
    problems = []
    if sincere != parse_value(witness["sincere_value"]):
        problems.append(f"sincere value {sincere} != reported {witness['sincere_value']}")
    if deviant != parse_value(witness["deviant_value"]):
        problems.append(f"deviant value {deviant} != reported {witness['deviant_value']}")
    if not deviant > sincere:
        problems.append("the lie does not pay")
    if parse_value(witness["gain"]) != deviant - sincere:
        problems.append("gain is not deviant minus sincere value")
    return problems


def _envy_gaps(axiom: str, values: Matrix, entries: Entries) -> list[tuple]:
    """Every (margin, allocation, agent, rival, own, others) the axiom compares."""
    n, m = len(values), len(values[0])
    out = []
    if axiom in ENVY_EX_POST:
        slack = 1 if axiom == "befp" else 0
        for owners, _ in entries:
            for i in range(n):
                for k in range(n):
                    if k == i:
                        continue
                    if axiom == "sefp":
                        own = sum((Fraction(values[i][j]) for j, o in enumerate(owners)
                                   if o == i and values[k][j] > 0), Fraction(0))
                    else:
                        own = bundle_value(owners, i, i, values)
                    others = bundle_value(owners, i, k, values)
                    out.append((own + slack - others, owners, i, k, own, others))
        return out
    p = marginals_by_sum(entries, n, m)
    ubar = expected_matrix(p, values)
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            if axiom == "sefa":
                own = sum((p[i][j] * values[i][j] for j in range(m) if values[k][j] > 0),
                          Fraction(0))
            else:
                own = ubar[i][i]
            out.append((own - ubar[i][k], None, i, k, own, ubar[i][k]))
    return out


def envy_problems(axiom: str, values: Matrix, entries: Entries, witness: dict,
                  margin: Optional[str]) -> list[str]:
    """The envious pair's bundle values are recomputed, and the reported
    margin must be the smallest over every pair the axiom compares."""
    gaps = _envy_gaps(axiom, values, entries)
    agent, rival = witness["agent"] - 1, witness["rival"] - 1
    owners = None if witness["allocation"] is None else parse_allocation(witness["allocation"])
    found = [g for g in gaps if g[1] == owners and g[2] == agent and g[3] == rival]
    if not found:
        return [f"{axiom}: the witness is not a pair of the support"]
    gap, _, _, _, own, others = found[0]
    problems = []
    if own != parse_value(witness["own"]) or others != parse_value(witness["others"]):
        problems.append(f"{axiom}: bundle values {own}, {others} differ from the witness")
    if not gap < 0:
        problems.append(f"{axiom}: the witness shows no envy")
    if gap != min(g[0] for g in gaps):
        problems.append(f"{axiom}: the witness is not the worst pair")
    if margin is not None and parse_value(margin) != gap:
        problems.append(f"{axiom}: margin {margin} != recomputed {gap}")
    return problems


def prefix_efa_problems(values: Matrix, entries: Entries, witness: dict,
                        margin: Optional[str]) -> list[str]:
    """The witness must be the worst ex-ante envy at the first envious prefix."""
    for upto in range(1, len(values[0]) + 1):
        head = [(owners[:upto], prob) for owners, prob in entries]
        vals = _prefix(values, upto)
        if min(g[0] for g in _envy_gaps("efa", vals, head)) < 0:
            return envy_problems("efa", vals, head, witness, margin)
    return ["prefix-efa: no prefix shows envy"]


def domination_problems(values: Matrix, entries: Entries, witness: dict) -> list[str]:
    """The dominator must be non-wasteful, at least as good for everyone and
    strictly better for someone than a support allocation."""
    owners = parse_allocation(witness["allocation"])
    rival = parse_allocation(witness["dominator"])
    problems = []
    if owners not in {o for o, _ in entries}:
        problems.append("the dominated allocation is not in the support")
    if not non_wasteful(rival, values):
        problems.append("the dominator is wasteful")
    if not dominates(own_vector(rival, values), own_vector(owners, values)):
        problems.append("the dominator does not Pareto dominate")
    return problems


def lottery_problems(values: Matrix, entries: Entries, witness: dict) -> list[str]:
    """An improving lottery: positive weights summing to 1 over non-wasteful
    allocations, each agent gaining at least the reported amount over its
    expected utility, and the gains totalling the reported margin."""
    n = len(values)
    point = [expected_own(entries, i, values) for i in range(n)]
    weights = [(parse_allocation(w["allocation"]), parse_value(w["probability"]))
               for w in witness["weights"]]
    gains = [parse_value(g) for g in witness["gains"]]
    objective = parse_value(witness["objective"])
    problems = []
    if not weights or any(w <= 0 for _, w in weights) or sum(w for _, w in weights) != 1:
        problems.append("lottery weights are not positive and summing to 1")
    if any(not non_wasteful(owners, values) for owners, _ in weights):
        problems.append("the lottery uses a wasteful allocation")
    for i in range(n):
        reach = sum((w * bundle_value(owners, i, i, values) for owners, w in weights),
                    Fraction(0))
        if reach - point[i] < gains[i]:
            problems.append(f"agent {i + 1} gains {reach - point[i]} < reported {gains[i]}")
    if sum(gains) != objective or objective <= 0:
        problems.append(f"gains total {sum(gains)}, objective {objective}")
    return problems


def witness_problems(column: str, mech: str, values: Matrix, entries: Entries,
                     witness: dict, margin: Optional[str], run: Runner) -> list[str]:
    """Re-check one failure witness of ``mech`` on the instance ``values``."""
    if column in ("sp", "osp"):
        return deviation_problems(mech, values, witness, run)
    kind = witness.get("kind")
    if kind == "envy" and column == "prefix-efa":
        return prefix_efa_problems(values, entries, witness, margin)
    if kind == "envy":
        return envy_problems(column, values, entries, witness, margin)
    if kind == "domination":
        return domination_problems(values, entries, witness)
    if kind == "lottery-improvement":
        problems = lottery_problems(values, entries, witness)
        if margin is not None and parse_value(margin) != parse_value(witness["objective"]):
            problems.append("pea margin differs from the lottery's objective")
        return problems
    return [f"{column}: unexpected witness kind {kind!r}"]
