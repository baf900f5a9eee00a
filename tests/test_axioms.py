"""Fairness and efficiency checkers on known distributions."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from fairdiv import (
    MECHANISM_NAMES,
    Allocation,
    AllocationDistribution,
    AxiomVerdict,
    BidProfile,
    DominationWitness,
    EnvyWitness,
    FairDivError,
    ImprovementWitness,
    Instance,
    as_value,
    balanced_like,
    bundle_utility,
    check_befp,
    check_efa,
    check_efp,
    check_envy_bounded,
    check_pea,
    check_pep,
    check_prefix_efa,
    check_sefa,
    check_sefp,
    efa_forced_marginals,
    enumerate_allocations,
    ex_ante_equivalent,
    ex_post_equivalent,
    expected_utilities,
    get_mechanism,
    like,
    marginals,
    maximum_like,
    orp,
    osd,
    pareto_like,
    pea_solution,
    random_suite,
    utility_vector,
    validate_domain,
    work_bound,
    worked_example,
)
from fairdiv.axioms import _supporting_weights
from fairdiv.core import integer_rows
from fairdiv.instances import WORKED_EXAMPLE_IDS

SWAP = Instance(((1, 2), (2, 1)))
PINNED_VERDICTS = "e9590442366a498536b62a1aa4b652d24052813ebcde164207904d60ff1872d7"


def test_like_is_fair_ex_ante_but_not_ex_post():
    dist = like().run(SWAP)
    assert check_efa(dist).holds
    assert check_sefa(dist).holds
    v = check_efp(dist)
    assert not v.holds
    assert v.witness is not None and v.margin < 0


def test_sefa_holds_with_equality_for_like():
    # every agent's restricted expectation exactly matches the rival's
    dist = like().run(SWAP)
    assert check_sefa(dist).margin == 0


def test_osd_is_efficient_but_envied():
    dist = osd().run(SWAP)
    assert check_pea(dist).holds
    assert check_pea(dist).margin == 0
    assert check_pep(dist).holds
    assert not check_efa(dist).holds


def test_like_lottery_is_dominated_on_the_swap_instance():
    dist = like().run(SWAP)
    v = check_pea(dist)
    assert not v.holds
    assert v.margin == 1  # total utility 3 vs the achievable 4
    assert v.witness is not None
    w = check_pep(dist)
    assert not w.holds
    assert w.witness.allocation.owners == (0, 1)
    assert w.witness.dominator.owners == (1, 0)


def test_pareto_like_is_efficient_ex_post_only():
    dist = pareto_like().run(SWAP)
    assert check_pep(dist).holds
    assert not check_pea(dist).holds


def test_envy_bound_on_non_binary_utilities():
    dist = balanced_like().run(SWAP)
    with pytest.raises(ValueError):
        check_befp(dist)
    v = check_envy_bounded(dist, bound=1)
    assert v.holds and v.margin == 0
    assert not check_envy_bounded(dist, bound=Fraction(1, 2)).holds


def test_befp_on_binary_instances():
    inst = Instance(((1, 1, 1), (1, 1, 1)))
    assert check_befp(balanced_like().run(inst)).holds
    v = check_befp(like().run(inst))  # one agent can take all three items
    assert not v.holds
    assert v.witness.allocation is not None


def test_envy_verdicts_carry_one_based_witnesses():
    v = check_efa(osd().run(SWAP))
    payload = v.to_json()
    assert payload["holds"] is False
    assert payload["witness"]["agent"] in (1, 2)
    assert payload["witness"]["rival"] in (1, 2)
    assert payload["witness"]["allocation"] is None


def test_sefp_restricts_to_items_the_rival_likes():
    # agent 2 ignores item 1, so agent 1's credit drops to item 2 only
    inst = Instance(((2, 1), (0, 1)))
    dist = AllocationDistribution.from_map(inst, {Allocation((0, 1)): 1})
    assert check_efp(dist).holds
    v = check_sefp(dist)
    assert not v.holds
    assert v.witness.agent == 0 and v.witness.rival == 1
    assert v.witness.own == 0 and v.witness.others == 1


def test_checkers_accept_auditor_utilities():
    # a run on strategic bids is judged against the instance's true matrix
    bids = BidProfile(((1, 0), (2, 1)))
    dist = like().run(SWAP, bids)
    assert not check_efa(dist).holds


def test_pep_under_reported_bids():
    bids = ((1, 1), (1, 1))
    dist = like().run(SWAP, BidProfile(bids))
    # judged on the flat bids, nothing dominates anything
    assert check_pep(AllocationDistribution(Instance(bids), dist.entries)).holds
    assert not check_pep(dist).holds


def test_equivalence_helpers():
    assert ex_ante_equivalent(like(), orp(), SWAP)
    assert not ex_post_equivalent(like(), orp(), SWAP)
    ident = Instance(((2, 1), (2, 1)))
    assert ex_post_equivalent(pareto_like(), like(), ident)
    assert ex_post_equivalent(maximum_like(), like(), ident)
    assert ex_ante_equivalent(balanced_like(), like(), ident)


def test_forced_marginals_require_positive_utilities():
    forced = efa_forced_marginals(SWAP)
    assert all(forced.entry(i, j) == Fraction(1, 2) for i in range(2) for j in range(2))
    with pytest.raises(ValueError):
        efa_forced_marginals(Instance(((1, 2), (0, 1))))


def test_prefix_efa():
    assert check_prefix_efa(like().run(SWAP)).holds
    v = check_prefix_efa(osd().run(SWAP))
    assert not v.holds
    assert v.axiom == "prefix-efa"
    # fair in the aggregate yet one-sided early on: only the prefix check sees it
    inst = Instance(((1, 1), (1, 1)))
    headheavy = AllocationDistribution.from_map(inst, {Allocation((0, 1)): 1})
    assert check_efa(headheavy).holds
    assert not check_prefix_efa(headheavy).holds


def test_verdict_boolean_protocol():
    good = check_efa(like().run(SWAP))
    bad = check_efa(osd().run(SWAP))
    assert bool(good) and not bool(bad)


def _pinned_verdicts():
    """Every checker's JSON verdict on a fixed suite and the worked examples."""
    cases = [(label, inst, [get_mechanism(name) for name in MECHANISM_NAMES])
             for label, inst in random_suite(24, 20261018, m_range=(2, 4))]
    for eid in WORKED_EXAMPLE_IDS:
        inst, extra = worked_example(eid)
        mechs = [get_mechanism(name) for name in MECHANISM_NAMES]
        cases.append((f"example-{eid}", inst, mechs + ([extra] if extra else [])))
    out = []
    for label, inst, mechs in cases:
        for mech in mechs:
            dist = mech.run(inst)
            verdicts = [check(dist) for check in (check_efp, check_efa, check_sefp, check_sefa,
                                                  check_prefix_efa, check_pea, check_pep)]
            verdicts += [check_envy_bounded(dist, bound=b) for b in (1, Fraction(1, 2))]
            if validate_domain(inst, "binary"):
                verdicts.append(check_befp(dist))
            out.append([label, mech.name, [v.to_json() for v in verdicts]])
    return out


def test_checker_verdicts_are_pinned():
    # every margin and witness, not just the verdict table's first witness;
    # a deliberate output change updates the digest and says so
    payload = json.dumps(_pinned_verdicts(), sort_keys=True)
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == PINNED_VERDICTS


# --- integer checkers against the Fraction checkers they replaced ----------
#
# The checkers compute on one integer scale per call and read pep from the
# Pareto levels. The reference checkers below are the Fraction versions
# they replaced, kept verbatim in substance: every comparison goes through
# `bundle_utility`, `marginals` and `expected_utilities`, prefix-efa builds
# each prefix distribution, and pep tests every support allocation against
# every enumerated allocation.


def _ref_envy_verdict(axiom, triples):
    margin = worst = None
    for witness, own, others in triples:
        gap = as_value(own - others)
        if margin is None or gap < margin:
            margin, worst = gap, witness
    if margin is None:
        return AxiomVerdict(axiom, True, None, None)
    if margin >= 0:
        return AxiomVerdict(axiom, True, margin, None)
    return AxiomVerdict(axiom, False, margin, worst)


def ref_envy_bounded(dist, *, bound=1, axiom="envy-bounded"):
    u = dist.instance.utilities
    b = as_value(bound)

    def triples():
        for alloc, _ in dist:
            for i in range(dist.n):
                own = bundle_utility(alloc, i, i, u)
                for k in range(dist.n):
                    if k != i:
                        others = bundle_utility(alloc, i, k, u)
                        yield EnvyWitness(alloc, i, k, own, others), own + b, others

    return _ref_envy_verdict(axiom, triples())


def ref_efp(dist):
    return ref_envy_bounded(dist, bound=0, axiom="efp")


def ref_sefp(dist):
    u = dist.instance.utilities

    def triples():
        for alloc, _ in dist:
            for i in range(dist.n):
                for k in range(dist.n):
                    if k != i:
                        own = as_value(sum(u[i][j] for j, owner in enumerate(alloc.owners)
                                           if owner == i and u[k][j] > 0))
                        others = bundle_utility(alloc, i, k, u)
                        yield EnvyWitness(alloc, i, k, own, others), own, others

    return _ref_envy_verdict("sefp", triples())


def ref_efa(dist):
    u = dist.instance.utilities
    ubar = expected_utilities(marginals(dist), u)
    return _ref_envy_verdict("efa", (
        (EnvyWitness(None, i, k, ubar.entry(i, i), ubar.entry(i, k)),
         ubar.entry(i, i), ubar.entry(i, k))
        for i in range(dist.n) for k in range(dist.n) if k != i))


def ref_sefa(dist):
    u = dist.instance.utilities
    p = marginals(dist)
    ubar = expected_utilities(p, u)

    def triples():
        for i in range(dist.n):
            for k in range(dist.n):
                if k != i:
                    own = as_value(sum(p.entry(i, j) * u[i][j]
                                       for j in range(dist.m) if u[k][j] > 0))
                    others = ubar.entry(i, k)
                    yield EnvyWitness(None, i, k, own, others), own, others

    return _ref_envy_verdict("sefa", triples())


def ref_prefix_efa(dist):
    for upto in range(1, dist.m + 1):
        verdict = ref_efa(dist.prefix(upto))
        if not verdict.holds:
            return AxiomVerdict("prefix-efa", False, verdict.margin, verdict.witness)
    return AxiomVerdict("prefix-efa", True, None, None)


def dominates(va, vb):
    return va != vb and all(x >= y for x, y in zip(va, vb))


def ref_pep(dist):
    u = dist.instance.utilities
    candidates = enumerate_allocations(dist.instance)
    rivals = [(rival, utility_vector(rival, u)) for rival in candidates]
    for alloc, _ in dist:
        own = utility_vector(alloc, u)
        for rival, vector in rivals:
            if dominates(vector, own):
                return AxiomVerdict("pep", False, None, DominationWitness(alloc, rival))
    return AxiomVerdict("pep", True, None, None)


def ref_pea(dist):
    u = dist.instance.utilities
    own = expected_utilities(marginals(dist), u).own()
    sol = pea_solution(own, dist.instance)
    if sol.objective == 0:
        return AxiomVerdict("pea", True, 0, None)
    return AxiomVerdict("pea", False, sol.objective, ImprovementWitness(sol))


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs).to_json()
    except (ValueError, TypeError, FairDivError) as exc:  # type and message must match
        return type(exc).__name__, str(exc)


def _assert_checkers_match(dist):
    """Every checker against its reference on one distribution; returns
    how many verdicts fail, so a caller can tell the sweep found some."""
    pairs = [(check_efp, ref_efp), (check_sefp, ref_sefp), (check_efa, ref_efa),
             (check_sefa, ref_sefa), (check_prefix_efa, ref_prefix_efa)]
    calls = [(new, ref, {}) for new, ref in pairs]
    calls += [(check_envy_bounded, ref_envy_bounded, {"bound": b}) for b in (1, Fraction(1, 2))]
    calls += [(check_pep, ref_pep, {}), (check_pea, ref_pea, {})]
    failing = 0
    for new, ref, kwargs in calls:
        got = _outcome(new, dist, **kwargs)
        assert got == _outcome(ref, dist, **kwargs), (new.__name__, dist)
        failing += isinstance(got, dict) and not got["holds"]
    return failing


def _small_grid(n, m):
    for flat in itertools.product(range(3), repeat=n * m):
        rows = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))
        if all(any(row[j] for row in rows) for j in range(m)):
            yield Instance(rows)


def _distinct_runs(inst, bids=None):
    """The six mechanisms' distributions on one profile, each once: the
    checkers read nothing else, and many rules agree on small instances."""
    runs = {}
    for name in MECHANISM_NAMES:
        dist = get_mechanism(name).run(inst, bids)
        runs.setdefault(dist.entries, dist)
    return runs.values()


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2)])
def test_checkers_match_references_on_exhaustive_grids(n, m):
    failing = 0
    for inst in _small_grid(n, m):
        for dist in _distinct_runs(inst):
            failing += _assert_checkers_match(dist)
    assert failing > 100


def _fractional_matrix(rng, n, m, zero_columns=False):
    rows = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)]
            for _ in range(n)]
    for j in range(m):
        if zero_columns and rng.random() < 0.2:
            for row in rows:
                row[j] = 0
        elif not zero_columns and all(row[j] == 0 for row in rows):
            rows[rng.randrange(n)][j] = Fraction(1, 3)
    return tuple(tuple(r) for r in rows)


def _judged_by(matrix, dist):
    """``dist``'s lottery on the instance with utilities ``matrix``, or
    None when ``matrix`` values nothing in some column, as no instance does."""
    if not all(any(column) for column in zip(*matrix)):
        return None
    return AllocationDistribution(Instance(matrix), dist.entries)


def test_checkers_match_references_on_strategic_bids_and_auditor_views():
    # utilities, bids and auditor matrices drawn apart; bids may zero a
    # column, and an auditor matrix judges a run's lottery on an instance
    # of its own when it values every item
    rng = random.Random(20261018)
    failing = 0
    for _ in range(60):
        n, m = rng.randint(2, 3), rng.randint(2, 4)
        inst = Instance(_fractional_matrix(rng, n, m))
        bids = BidProfile(_fractional_matrix(rng, n, m, zero_columns=True))
        auditor = _fractional_matrix(rng, n, m, zero_columns=True)
        for dist in _distinct_runs(inst, bids):
            failing += _assert_checkers_match(dist)
            for matrix in (auditor, _fractional_matrix(rng, n, m)):
                judged = _judged_by(matrix, dist)
                if judged is not None:
                    failing += _assert_checkers_match(judged)
    assert failing > 600


def test_checkers_match_references_where_errors_are_raised():
    rng = random.Random(20261019)
    raised = set()
    for _ in range(40):
        n, m = rng.randint(2, 3), rng.randint(2, 4)
        inst = Instance(_fractional_matrix(rng, n, m))
        dist = like().run(inst)
        # pep's and pea's enumeration bound trips at 3 allocations
        with work_bound(3):
            _assert_checkers_match(dist)
            pep = _outcome(check_pep, dist)
        if isinstance(pep, tuple):
            raised.add(pep[0])
    assert raised == {"WorkBoundExceeded"}


def test_checker_edge_cases():
    # item 2 is discarded in one support allocation and assigned in the
    # other: a distribution no run outputs, and not a valid marginal matrix
    inst = Instance(((1, 1), (2, 1)))
    dist = AllocationDistribution.from_map(
        inst, {Allocation((0, None)): Fraction(1, 2), Allocation((0, 1)): Fraction(1, 2)})
    for check in (check_efa, check_sefa, check_pea):
        with pytest.raises(ValueError, match="^column 2 sums to 1/2, expected 0 or 1$"):
            check(dist)
    v = check_prefix_efa(dist)  # fails on item 1 before item 2 is read
    assert not v.holds and v.margin == -2
    assert (v.witness.agent, v.witness.rival) == (1, 0)
    v = check_efp(dist)
    assert v.margin == -2 and v.witness.allocation.owners == (0, None)
    v = check_pep(dist)
    assert v.witness.allocation.owners == (0, None)
    assert v.witness.dominator.owners == (0, 0)
    _assert_checkers_match(dist)
    # one agent compares with nobody
    alone = like().run(Instance(((1, 2),)))
    for check in (check_efp, check_sefp, check_efa, check_sefa, check_envy_bounded):
        assert check(alone).holds and check(alone).margin is None
    _assert_checkers_match(alone)
    with pytest.raises(ValueError, match="0/1 utilities"):
        check_befp(like().run(Instance(((1, 2), (2, 1)))))


# --- pea's supporting-weights certificate ----------------------------------
#
# check_pea decides "holds" from positive agent weights that make every
# support allocation a weighted welfare maximizer, and runs the LP only when
# there are none. With four agents the weights' difference constraints form
# cycles of three and four ratios, which the grids above rarely reach.


def _four_agent_cases(seed, count):
    """Distributions on seeded 4 x 2..4 fractional instances: sincere and
    strategic runs, each judged on its instance and, when it values every
    item, by an auditor matrix (`_judged_by`). One more run gives item j to
    the j-th agent of a random ring of m agents, its lone bidder, on an
    instance where only that agent and the next one value j: the
    constraints then form one cycle through all m agents."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 4)
        inst = Instance(_fractional_matrix(rng, 4, m))
        bids = BidProfile(_fractional_matrix(rng, 4, m, zero_columns=True))
        auditor = _fractional_matrix(rng, 4, m, zero_columns=True)
        for dist in [*_distinct_runs(inst), *_distinct_runs(inst, bids)]:
            yield dist
            judged = _judged_by(auditor, dist)
            if judged is not None:
                yield judged
        ring = rng.sample(range(4), m)
        lone = BidProfile(tuple(tuple(int(i == ring[j]) for j in range(m)) for i in range(4)))
        cyclic = tuple(tuple(Fraction(rng.randint(1, 6), rng.randint(1, 4))
                             if i in (ring[j], ring[(j + 1) % m]) else 0 for j in range(m))
                       for i in range(4))
        yield osd().run(Instance(cyclic), lone)


def test_pea_matches_the_lp_with_four_agents():
    failing = holding = 0
    for dist in _four_agent_cases(20261020, 40):
        got = _outcome(check_pea, dist)
        assert got == _outcome(ref_pea, dist), dist
        failing += not got["holds"]
        holding += got["holds"]
    assert failing > 100 and holding > 100


def test_supporting_weights_make_the_support_welfare_maximal():
    certified = 0
    for dist in _four_agent_cases(20261021, 40):
        scaled, _ = integer_rows(dist.instance.utilities)
        positives = [tuple(i for i, row in enumerate(scaled) if row[j] > 0)
                     for j in range(dist.m)]
        lam = _supporting_weights(dist.owners, scaled, positives)
        if lam is None:
            continue
        certified += 1
        assert all(isinstance(x, int) and x > 0 for x in lam)

        def welfare(owners):
            return sum(lam[o] * scaled[o][j] for j, o in enumerate(owners) if o is not None)

        support = {welfare(owners) for owners in dist.owners}
        assert len(support) == 1, (dist, lam)
        assert all(welfare(a.owners) <= max(support)
                   for a in enumerate_allocations(dist.instance))
    assert certified > 100
