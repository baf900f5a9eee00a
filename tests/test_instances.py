"""Text format round-trips, domain generators, and table manifests."""

import json
from fractions import Fraction

import pytest

from fairdiv import (
    DOMAIN_NAMES,
    AllocationDistribution,
    BidProfile,
    DomainSpec,
    Instance,
    ParseError,
    build_table_manifest,
    counterexample_instances,
    generate,
    like,
    load_manifest,
    maximum_like,
    parse_bids,
    parse_instance,
    parse_rational,
    random_suite,
    serialize_instance,
    validate_domain,
    worked_example,
)
from fairdiv.instances import ConstructedMechanism, expand_entries


def test_parse_rational():
    assert parse_rational("3") == 3
    assert isinstance(parse_rational("3"), int)
    assert parse_rational("5/3") == Fraction(5, 3)
    assert parse_rational("0/4") == 0
    assert isinstance(parse_rational("0/4"), int)
    for bad in ("-1", "1.5", "a", "1/0", "", "1/"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_instance_round_trip():
    inst = Instance(((1, Fraction(5, 3)), (2, 0)))
    text = serialize_instance(inst)
    assert text.splitlines()[0] == "2 2"
    assert parse_instance(text) == inst


def test_parse_tolerates_comments_and_blanks():
    text = "# utilities\n\n2 2\n1 2\n\n# agent 2 next\n2 1\n"
    assert parse_instance(text) == Instance(((1, 2), (2, 1)))


def test_parse_empty_item_list():
    inst = parse_instance("2 0\n")
    assert inst.n == 2 and inst.m == 0
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_errors():
    cases = (
        "",                      # no header
        "2\n1 2\n2 1\n",         # header needs two fields
        "2 2\n1 2\n",            # missing a row
        "2 2\n1 2\n2 1\n3 3\n",  # extra row
        "2 2\n1 2\n2\n",         # ragged row
        "2 2\n1 0\n2 0\n",       # zero utility column
        "2 0\n1 2\n",            # rows after empty header
        "0 2\n",                 # no agents
    )
    for text in cases:
        with pytest.raises(ParseError):
            parse_instance(text)


def test_bids_allow_zero_columns():
    bids = parse_bids("2 2\n1 0\n2 0\n")
    assert bids.bids == ((1, 0), (2, 0))
    with pytest.raises(ParseError):
        parse_bids("2 2\n1 2\n")


def test_domain_spec_validation():
    DomainSpec("binary", 2, 3, 1)
    with pytest.raises(ValueError):
        DomainSpec("weird", 2, 3, 1)
    with pytest.raises(ValueError):
        DomainSpec("binary", 0, 3, 1)
    with pytest.raises(ValueError):
        DomainSpec("binary", 2, -1, 1)
    with pytest.raises(ValueError):
        DomainSpec("general", 2, 3, 1, bound=0)


def test_generate_is_deterministic_and_in_domain():
    for domain in DOMAIN_NAMES:
        spec = DomainSpec(domain, 3, 4, seed=99)
        inst = generate(spec)
        assert inst == generate(spec)
        assert validate_domain(inst, domain)
        assert inst.n == 3 and inst.m == 4


def test_validate_domain_rejections():
    assert not validate_domain(Instance(((1, 2), (2, 1))), "binary")
    assert not validate_domain(Instance(((1, 0), (0, 1))), "nonzero")
    assert not validate_domain(Instance(((1, 2), (2, 1))), "identical-cardinal")
    # same ranking, different scale: ordinal yes, cardinal no
    ord_only = Instance(((1, 2), (2, 4)))
    assert validate_domain(ord_only, "identical-ordinal")
    assert not validate_domain(ord_only, "identical-cardinal")
    assert not validate_domain(Instance(((1, 2), (2, 1))), "identical-ordinal")
    assert validate_domain(Instance(((1, 2, 3), (3, 1, 2))), "borda")
    assert not validate_domain(Instance(((1, 2, 2), (3, 1, 2))), "borda")
    assert validate_domain(Instance(((4, 2, 1), (1, 2, 4))), "lexicographic")
    assert not validate_domain(Instance(((4, 2, 2), (1, 2, 4))), "lexicographic")
    with pytest.raises(ValueError):
        validate_domain(Instance(((1,), (1,))), "weird")


def test_worked_example_ids():
    for eid in (1, 2, 3, 4):
        worked_example(eid)
    with pytest.raises(ValueError):
        worked_example(5)
    inst, mech = worked_example(1)
    assert inst.utilities == ((1, 2), (2, 1))
    assert mech is None
    assert worked_example(3)[0].utilities == ((1, 4), (2, 3))


def test_tilted_sharing_mechanism():
    inst, mech = worked_example(2)
    assert inst.utilities == ((1, 1), (0, 1))
    assert mech.name == "like-with-tilt"
    dist = mech.run(inst)
    got = {a.owners: p for a, p in dist}
    assert got == {(0, 1): Fraction(3, 4), (0, 0): Fraction(1, 4)}


def test_exceptional_mechanism():
    inst, mech = worked_example(4)
    dist = mech.run(inst)
    got = {a.owners: p for a, p in dist}
    assert got == {(0, 0): Fraction(3, 4), (0, 1): Fraction(1, 4)}


def test_override_matches_on_bids_not_utilities():
    _, mech = worked_example(4)
    # same bid matrix, different true values: the override still fires
    other = Instance(((2, 4), (4, 2)))
    bids = BidProfile(((1, 2), (2, 1)))
    dist = mech.run(other, bids)
    got = {a.owners: p for a, p in dist}
    assert got == {(0, 0): Fraction(3, 4), (0, 1): Fraction(1, 4)}
    assert isinstance(dist, AllocationDistribution)
    # off the override the base rule answers
    base = maximum_like().run(other)
    assert mech.run(other) == base


def test_counterexample_instances():
    named = counterexample_instances()
    labels = [label for label, _ in named]
    assert len(labels) == len(set(labels)) == 10
    assert "identical-ascending" in labels
    for _, inst in named:
        assert isinstance(inst, Instance)


def test_random_suite():
    suite = random_suite(12, seed=7)
    again = random_suite(12, seed=7)
    assert [(lbl, inst.utilities) for lbl, inst in suite] == [
        (lbl, inst.utilities) for lbl, inst in again
    ]
    assert len(suite) == 12
    assert all(lbl.startswith("r0") for lbl, _ in suite)
    shifted = random_suite(12, seed=8)
    assert [i.utilities for _, i in suite] != [i.utilities for _, i in shifted]


def test_expand_entries():
    entries = [
        {"example": 1},
        {"utilities": [["1", "2"], ["2", "1/1"]], "label": "by-hand"},
        {"random": {"count": 2, "seed": 5, "domains": ["binary"],
                    "n_range": [2, 2], "m_range": [2, 2]}},
    ]
    named = expand_entries(entries)
    assert len(named) == 4
    assert named[0] == ("example-1", Instance(((1, 2), (2, 1))))
    assert named[1] == ("by-hand", Instance(((1, 2), (2, 1))))
    assert all(validate_domain(inst, "binary") for _, inst in named[2:])
    with pytest.raises(ValueError):
        expand_entries([{"mystery": 1}])


def test_table_manifest_round_trip():
    manifest = build_table_manifest(per_block=3, seed=11)
    assert set(manifest["blocks"]) == {"general", "identical", "binary"}
    loaded = load_manifest(json.dumps(manifest))
    assert loaded == load_manifest(manifest)
    for block in ("general", "identical", "binary"):
        named = loaded[block]
        assert len(named) >= 3, block
        assert all(isinstance(inst, Instance) for _, inst in named)
    with pytest.raises(ValueError):
        load_manifest(json.dumps({"rows": []}))
    with pytest.raises(ValueError):
        load_manifest("{not json")


def test_manifest_targeted_instances_lead():
    manifest = build_table_manifest(per_block=5, seed=11)
    ident = expand_entries(manifest["blocks"]["identical"])
    assert ident[0][0] == "identical-ascending"
    for _, inst in ident:
        assert validate_domain(inst, "identical-cardinal")
    for _, inst in expand_entries(manifest["blocks"]["binary"]):
        assert validate_domain(inst, "binary")


def test_like_honours_generated_zero_free_bids():
    # nonzero domain keeps every bid positive so nothing is ever discarded
    inst = generate(DomainSpec("nonzero", 2, 3, seed=3))
    dist = like().run(inst)
    assert all(None not in a.owners for a, _ in dist)


def test_constructed_mechanism_checks_its_overrides():
    inst, mech = worked_example(2)
    dist = mech.overrides[0][1]
    for mat, error, message in (
            (((0.5, 2), (2, 1)), TypeError, "expected int or Fraction, got float"),
            (((-1, 2), (2, 1)), ValueError, "bid matrix entries must be nonnegative, got -1"),
            (((1, 2), (2, 1, 3)), ValueError, "bid matrix rows must have equal length")):
        with pytest.raises(error) as err:
            ConstructedMechanism("bad", like(), ((mat, dist),))
        assert str(err.value) == message
    # the matrix is stored exact, so lists and integral Fractions match too
    exact = ConstructedMechanism(
        "lists", like(), (([[1, Fraction(2, 2)], [0, 1]], dist),))
    assert exact.overrides[0][0] == ((1, 1), (0, 1))
    assert exact.run(inst) == dist
