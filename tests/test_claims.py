"""The claims module: the verdict table, the theorems and the axiom dispatch,
called as a library and compared with what the command line prints."""

import json

import pytest

from fairdiv import WorkBoundExceeded, load_manifest, osd, work_bound, worked_example
from fairdiv.claims import check_axiom, table_report, theorem_checks
from fairdiv.cli import main

# one hand-written instance per block, plus the default manifest's
# targeted entries for the binary block
MANIFEST = {"blocks": {
    "general": [{"utilities": [[1, 2], [2, 1]], "label": "swap"},
                {"utilities": [[0, 3, 1], [2, 1, 1]], "label": "mixed"}],
    "identical": [{"utilities": [[1, 1], [1, 1]], "label": "flat"}],
    "binary": [{"example": 2}, {"utilities": [[1, 1, 0], [1, 1, 1]], "label": "bin"}],
}}


def cli_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_table_report_is_what_the_command_prints(capsys, tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    code, printed = cli_json(capsys, "table", "--json", "--manifest", str(path))
    report = table_report(load_manifest(MANIFEST))
    assert report == printed
    assert code == (0 if report["all_match"] else 1)
    # the hand suites are too small to carry every expected failure
    assert report["mismatches"]


def test_theorem_checks_are_what_the_command_prints(capsys):
    code, printed = cli_json(capsys, "theorems", "--json")
    assert code == 0
    assert theorem_checks(20240803) == printed["checks"]


def test_axiom_dispatch_applies_the_work_bound():
    inst, _ = worked_example(1)
    with work_bound(1):
        dist = osd().run(inst)
    for axiom in ("pep", "pea"):
        with pytest.raises(WorkBoundExceeded), work_bound(1):
            check_axiom(axiom, dist)
        with work_bound(4):
            assert check_axiom(axiom, dist).holds
    with work_bound(1):
        assert not check_axiom("efp", dist).holds
    # the bound is envy-bounded's alone; befp keeps to 0/1 utilities
    assert check_axiom("envy-bounded", dist, bound=3).holds
    assert not check_axiom("envy-bounded", dist, bound=2).holds
    with pytest.raises(ValueError):
        check_axiom("befp", dist)
