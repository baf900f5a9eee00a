"""End-to-end command line behavior, driven in process through main()."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fairdiv import build_table_manifest, parse_instance
from fairdiv.cli import main

EX1 = "2 2\n1 2\n2 1\n"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_run_text(capsys):
    code, out = run_cli(capsys, "run", "like", "--example", "1")
    assert code == 0
    assert "mechanism: like" in out
    assert "agents: 2  items: 2" in out
    assert out.count("1/4") >= 4
    assert "expected own utilities: 3/2 3/2" in out


def test_run_json_osd(capsys):
    code, payload = run_json(capsys, "run", "osd", "--example", "1", "--json")
    assert code == 0
    assert payload["distribution"] == [{"owners": [1, 1], "probability": "1"}]
    assert payload["marginals"] == [["1", "1"], ["0", "0"]]
    assert payload["expected_own"] == ["3", "0"]


def test_run_sigma(capsys):
    code, payload = run_json(
        capsys, "run", "osd", "--sigma", "2,1", "--example", "1", "--json"
    )
    assert code == 0
    assert payload["distribution"] == [{"owners": [2, 2], "probability": "1"}]


def test_sigma_only_fits_the_dictatorship(capsys):
    code, _ = run_cli(capsys, "run", "like", "--sigma", "2,1", "--example", "1")
    assert code == 3


def test_run_from_files(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(EX1)
    bids = tmp_path / "bids.txt"
    bids.write_text("2 2\n0 2\n0 1\n")
    code, payload = run_json(
        capsys, "run", "like", "--instance", str(inst), "--bids", str(bids), "--json"
    )
    assert code == 0
    got = {tuple(e["owners"]): e["probability"] for e in payload["distribution"]}
    assert got == {(None, 1): "1/2", (None, 2): "1/2"}


def test_run_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EX1))
    code, out = run_cli(capsys, "run", "like", "--instance", "-")
    assert code == 0
    assert "mechanism: like" in out


def test_instance_and_example_are_exclusive(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(EX1)
    code, _ = run_cli(capsys, "run", "like",
                      "--instance", str(inst), "--example", "1")
    assert code == 3
    code, _ = run_cli(capsys, "run", "like")
    assert code == 3


def test_bid_shape_mismatch(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(EX1)
    bids = tmp_path / "bids.txt"
    bids.write_text("2 3\n1 2 1\n2 1 1\n")
    code = main(["run", "like", "--instance", str(inst), "--bids", str(bids)])
    assert code == 3
    assert "bid profile shape differs from instance" in capsys.readouterr().err


def test_missing_instance_file(capsys, tmp_path):
    code, _ = run_cli(capsys, "run", "like",
                      "--instance", str(tmp_path / "nope.txt"))
    assert code == 3


def test_usage_errors_exit_three(capsys):
    code, _ = run_cli(capsys, "run", "mystery", "--example", "1")
    assert code == 3
    code, _ = run_cli(capsys, "run", "like", "--example", "9")
    assert code == 3
    code, _ = run_cli(capsys)
    assert code == 3


def test_check_all_axioms(capsys):
    code, payload = run_json(capsys, "check", "like", "--example", "1", "--json")
    assert code == 1
    names = [v["axiom"] for v in payload["verdicts"]]
    assert names == ["efp", "efa", "sefp", "sefa", "pea", "pep"]
    assert not payload["all_hold"]
    byname = {v["axiom"]: v for v in payload["verdicts"]}
    assert byname["efa"]["holds"] and not byname["efp"]["holds"]
    assert byname["efp"]["witness"]["agent"] == 2


def test_check_selected_axiom_passes(capsys):
    code, out = run_cli(capsys, "check", "like", "--example", "1", "--axiom", "efa")
    assert code == 0
    assert "efa: holds" in out


def test_check_adds_one_item_bound_on_binary(capsys, tmp_path):
    inst = tmp_path / "binary.txt"
    inst.write_text("2 2\n1 1\n0 1\n")
    code, payload = run_json(
        capsys, "check", "balanced-like", "--instance", str(inst), "--json"
    )
    # the strong ex ante axiom fails here, so the command reports failure
    assert code == 1
    byname = {v["axiom"]: v for v in payload["verdicts"]}
    assert "befp" in byname and byname["befp"]["holds"]
    assert not byname["sefa"]["holds"]


def test_check_envy_bounded(capsys):
    code, _ = run_cli(capsys, "check", "balanced-like", "--example", "1",
                      "--axiom", "envy-bounded", "--bound", "1")
    assert code == 0
    code, out = run_cli(capsys, "check", "balanced-like", "--example", "1",
                        "--axiom", "envy-bounded", "--bound", "1/2")
    assert code == 1
    assert "envy-bounded: FAILS" in out


def test_check_applies_the_work_bound_to_efficiency(capsys, monkeypatch):
    # osd's run fits one leaf, but pep and pea enumerate four allocations
    for axiom in ("pep", "pea"):
        code, _ = run_cli(capsys, "check", "osd", "--example", "1",
                          "--max-nodes", "1", "--axiom", axiom)
        assert code == 2, axiom
    monkeypatch.setenv("FAIRDIV_MAX_NODES", "1")
    code, _ = run_cli(capsys, "check", "osd", "--example", "1", "--axiom", "pep")
    assert code == 2
    # efp enumerates nothing, so it still reaches its verdict (it fails here)
    code, _ = run_cli(capsys, "check", "osd", "--example", "1", "--axiom", "efp")
    assert code == 1


def test_check_prefix_efa(capsys):
    code, _ = run_cli(capsys, "check", "like", "--example", "1",
                      "--axiom", "prefix-efa")
    assert code == 0
    code, _ = run_cli(capsys, "check", "osd", "--example", "1",
                      "--axiom", "prefix-efa")
    assert code == 1


def test_falsify_exit_codes(capsys):
    cases = (
        ("like", "sp", 0),
        ("maximum-like", "sp", 1),
        ("maximum-like", "osp", 1),
        ("balanced-like", "osp", 0),
        ("pareto-like", "step", 1),
        ("balanced-like", "step", 0),
        ("balanced-like", "memoryless", 1),
        ("maximum-like", "memoryless", 0),
    )
    for mech, prop, expected in cases:
        code, out = run_cli(capsys, "falsify", mech, "--example", "1",
                            "--property", prop)
        assert code == expected, (mech, prop, out)
        if expected:
            assert "witness found" in out
        else:
            assert "no witness" in out


def test_falsify_text_says_which_none(capsys, tmp_path):
    # a "signs" or "tops" mechanism's None covers every lie; a "bids" one's the grid
    code, out = run_cli(capsys, "falsify", "like", "--example", "1")
    assert code == 0
    assert out.startswith("sp: no witness: no profitable lie exists, since like reads "
                          "only which bids are positive")
    solo = tmp_path / "solo.txt"
    solo.write_text("1 2\n1 2\n")
    code, out = run_cli(capsys, "falsify", "maximum-like", "--instance", str(solo),
                        "--property", "osp")
    assert code == 0
    assert "no profitable lie exists, since maximum-like reads only each item's top" in out
    code, out = run_cli(capsys, "falsify", "pareto-like", "--example", "3")
    assert (code, out) == (0, "sp: no witness found on the bid grid\n")
    code, out = run_cli(capsys, "falsify", "like", "--example", "1", "--property", "step")
    assert (code, out) == (0, "step: no witness found on the bid grid\n")
    code, payload = run_json(capsys, "falsify", "like", "--example", "1", "--json")
    assert (code, payload) == (0, {"mechanism": "like", "property": "sp", "witness": None})


def test_falsify_json_witness(capsys):
    code, payload = run_json(capsys, "falsify", "maximum-like",
                             "--example", "1", "--json")
    assert code == 1
    w = payload["witness"]
    assert w["agent"] == 1 and w["bids"] == ["2", "2"] and w["gain"] == "1/2"


def test_falsify_candidate_budget(capsys):
    code, _ = run_cli(capsys, "falsify", "maximum-like", "--example", "1",
                      "--max-candidates", "1")
    assert code == 2


def test_falsify_bad_extra_bid(capsys):
    code, _ = run_cli(capsys, "falsify", "like", "--example", "1",
                      "--extra-bid", "1.5")
    assert code == 3


def test_gen_stdout(capsys):
    code, out = run_cli(capsys, "gen", "--domain", "binary",
                        "-n", "2", "-m", "3", "--seed", "4")
    assert code == 0
    assert out.startswith("# binary-n2m3-s4\n")
    inst = parse_instance(out)
    assert inst.n == 2 and inst.m == 3


def test_gen_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "suite"
    code, out = run_cli(capsys, "gen", "--domain", "nonzero",
                        "-n", "2", "-m", "2", "--seed", "7",
                        "--count", "2", "--out-dir", str(out_dir))
    assert code == 0
    paths = out.splitlines()
    assert len(paths) == 2
    for path in paths:
        inst = parse_instance(Path(path).read_text(encoding="utf-8"))
        assert inst.n == 2 and inst.m == 2


def test_gen_multi_needs_out_dir(capsys):
    code, _ = run_cli(capsys, "gen", "--domain", "binary",
                      "-n", "2", "-m", "2", "--seed", "1", "--count", "2")
    assert code == 3
    code, _ = run_cli(capsys, "gen", "--domain", "binary",
                      "-n", "2", "-m", "2", "--seed", "1", "--count", "0")
    assert code == 3


def test_examples_text(capsys):
    code, out = run_cli(capsys, "examples")
    assert code == 0
    for eid in (1, 2, 3, 4):
        assert f"example {eid}" in out
    assert "envy-freeness ex ante: holds; marginals match base: False" in out
    assert "efficiency ex post: fails; ex ante: fails" in out


def test_examples_json(capsys):
    code, payload = run_json(capsys, "examples", "--id", "1", "--json")
    assert code == 0
    mechs = payload["examples"][0]["mechanisms"]
    assert set(mechs) == {"osd", "orp", "like", "balanced-like",
                          "maximum-like", "pareto-like"}
    code, payload = run_json(capsys, "examples", "--id", "4", "--json")
    assert code == 0
    built = payload["examples"][0]["constructed"]
    assert built["base"] == "maximum-like"
    assert not built["pep"]["holds"] and not built["pea"]["holds"]


def test_table_write_manifest(capsys, tmp_path):
    code, out = run_cli(capsys, "table", "--write-manifest", "-",
                        "--per-block", "3", "--seed", "5")
    assert code == 0
    manifest = json.loads(out)
    assert set(manifest["blocks"]) == {"general", "identical", "binary"}
    target = tmp_path / "manifest.json"
    code, _ = run_cli(capsys, "table", "--write-manifest", str(target),
                      "--per-block", "3", "--seed", "5")
    assert code == 0
    assert json.loads(target.read_text()) == manifest


def test_table_small_blocks_match(capsys):
    code, payload = run_json(capsys, "table", "--per-block", "3",
                             "--block", "identical", "--block", "binary", "--json")
    assert code == 0
    assert payload["all_match"] and payload["mismatches"] == []
    assert set(payload["blocks"]) == {"identical", "binary"}
    for info in payload["blocks"].values():
        assert info["instances"] == 3
        for row in info["rows"]:
            for cell in row["cells"].values():
                if cell["verdict"] == "x":
                    assert cell["witness_instance"]
                    assert cell["witness"] is not None


def test_table_text_reports_mismatch(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"blocks": {"identical": [{"utilities": [[1, 1], [1, 1]]}]}}
    ))
    code, out = run_cli(capsys, "table", "--manifest", str(manifest))
    assert code == 1
    assert "MISMATCH" in out
    assert "runtime:" in out


def test_table_json_has_no_runtime(capsys):
    code, payload = run_json(capsys, "table", "--per-block", "3",
                             "--block", "binary", "--json")
    assert code == 0
    assert "runtime" not in json.dumps(payload)


def test_table_rejects_empty_selection(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"blocks": {"binary": []}}))
    code, _ = run_cli(capsys, "table", "--manifest", str(manifest),
                      "--block", "identical")
    assert code == 3


def test_theorems_json(capsys):
    code, payload = run_json(capsys, "theorems", "--json")
    assert code == 0
    assert payload["all_ok"]
    assert len(payload["checks"]) == 13
    assert all(c["ok"] for c in payload["checks"])


def test_work_bound_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDIV_MAX_NODES", "1")
    code, _ = run_cli(capsys, "run", "like", "--example", "1")
    assert code == 2
    code, _ = run_cli(capsys, "run", "like", "--example", "1",
                      "--max-nodes", "100")
    assert code == 0


def test_table_and_theorems_json_bytes_are_pinned(capsys):
    # the verdict table and theorems output must not move under a speed-up;
    # a deliberate output change updates these digests and says so
    pins = {
        ("table", "--json", "--per-block", "20"):
            "20cdcc8d54c9162e3f2926449ef376e9cf5f344ef7de8f12c66ae0de06493a19",
        # the default 200 per block, where a count memo shares the most
        # across instances
        ("table", "--json"):
            "1c8154484fc8808973037c2693b80cfb0566bd9145efa742ff5c73264d37b44a",
        ("theorems", "--json"):
            "ffa9bc94a04d98c4c97835cbb3da4a200683afa7535d323a7256485002aac80b",
    }
    for argv, digest in pins.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_table_and_theorems_text_is_pinned(capsys):
    # the printed forms, with the run time taken out
    code, out = run_cli(capsys, "table", "--per-block", "20")
    assert code == 0
    out = "".join(line for line in out.splitlines(keepends=True)
                  if not line.startswith("runtime:"))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e8b8f58cf12b587bd72fd19ba16516864d43bfab82d338e5dc06227d36a4742e")
    code, out = run_cli(capsys, "theorems")
    assert code == 0
    out = re.sub(r" \(\d+\.\ds\)\n\Z", "\n", out)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a1c681eee525364d20605ea4c3b46bbc42ad507ea6f39b1c765bff14c1346747")


def test_module_entry_exit_codes():
    # `python -m fairdiv` goes through `entry`, which hands main's code to
    # sys.exit; the 2x8 instance needs 2^8 lie rows per agent, not the
    # 233,846,052 rows of its whole bid grid
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    cases = [
        (("examples", "--id", "1"), "", 0),
        (("falsify", "like", "--instance", "-"),
         "2 8\n1 2 3 4 5 6 7 8\n8 7 6 5 4 3 2 9\n", 0),
        (("falsify", "maximum-like", "--example", "1"), "", 1),
        (("run", "like", "--example", "1", "--max-nodes", "1"), "", 2),
        (("run", "no-such-rule", "--example", "1"), "", 3),
    ]
    for argv, stdin, code in cases:
        done = subprocess.run([sys.executable, "-m", "fairdiv", *argv], input=stdin,
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, (argv, done.stderr)


FRACTIONAL_3X4 = "3 4\n1/2 2 0 5/3\n3/4 1 1/6 0\n2 1/3 1/2 1\n"


def test_run_json_bytes_are_pinned(capsys, monkeypatch):
    # every mechanism's distribution, marginals and expected utilities on the
    # worked examples and one fractional instance; support order and every
    # probability are part of the digest
    digest = hashlib.sha256()
    for name in ("osd", "orp", "like", "balanced-like", "maximum-like", "pareto-like"):
        for source in (("--example", "1"), ("--example", "2"), ("--example", "3"),
                       ("--example", "4"), ("--instance", "-")):
            monkeypatch.setattr("sys.stdin", io.StringIO(FRACTIONAL_3X4))
            code, out = run_cli(capsys, "run", name, *source, "--json")
            assert code == 0, (name, source)
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == (
        "bbf0a7603d82a3265f3cc889740e1343f0c5f4b78cd982078d1607bf07264a3f")


def test_work_bounds_below_one_are_usage_errors(capsys, monkeypatch):
    # a bound that admits no work is an input error (3), not inconclusive (2)
    for argv in (("run", "like", "--example", "1", "--max-nodes", "-1"),
                 ("run", "like", "--example", "1", "--max-nodes", "0"),
                 ("falsify", "like", "--example", "1", "--max-candidates", "-2")):
        assert main(list(argv)) == 3, argv
        assert "work bound must be at least 1" in capsys.readouterr().err
    monkeypatch.setenv("FAIRDIV_MAX_NODES", "-5")
    assert main(["run", "like", "--example", "1"]) == 3
    assert "work bound must be at least 1, got -5" in capsys.readouterr().err
    monkeypatch.setenv("FAIRDIV_MAX_NODES", "abc")
    assert main(["run", "like", "--example", "1"]) == 3
    assert "FAIRDIV_MAX_NODES must be an integer, got 'abc'" in capsys.readouterr().err


def test_the_work_bound_variable_is_read_by_every_bounded_command(capsys, monkeypatch):
    # main reads the bound once for each command that takes --max-nodes,
    # so a bad value stops table --write-manifest too; gen takes no bound
    monkeypatch.setenv("FAIRDIV_MAX_NODES", "abc")
    assert _run_err(capsys, "table", "--write-manifest", "-") == (
        3, "", "fairdiv: error: FAIRDIV_MAX_NODES must be an integer, got 'abc'\n")
    code, out, _ = _run_err(capsys, "gen", "--domain", "binary", "-n", "2", "-m", "2",
                            "--seed", "1")
    assert code == 0 and out.startswith("# binary-n2m2-s1\n")



def _run_err(capsys, *argv):
    """Exit code, stdout and stderr of one in-process run."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_malformed_manifest_entries_are_usage_errors(capsys, tmp_path):
    # each once crashed with a traceback and exit 1, the "mismatch" code
    path = tmp_path / "m.json"
    for entry, reason in (
            ({"random": {"count": 2, "seed": 1, "domain": ["binary"]}},
             "unexpected keyword argument 'domain'"),
            ({"random": {"count": 2}}, "missing key 'seed'"),
            ({"utilities": [[0.5, 1], [1, 1]]}, "expected int or Fraction, got float"),
            ({"random": {"count": 2, "seed": 1, "domains": []}},
             "a random suite needs at least one domain")):
        path.write_text(json.dumps({"blocks": {"general": [entry]}}), encoding="utf-8")
        code, out, err = _run_err(capsys, "table", "--manifest", str(path), "--json")
        assert (code, out) == (3, "")
        assert err.startswith(f"fairdiv: error: bad manifest entry {entry!r}: ")
        assert reason in err and err.count("\n") == 1


def test_malformed_manifests_are_usage_errors(capsys, tmp_path, monkeypatch):
    # the first two once crashed with a traceback and exit 1, and a
    # misspelled block was skipped without a word
    path = tmp_path / "m.json"
    for manifest, message in (
            (5, "manifest must have a 'blocks' object"),
            ({"blocks": {"general": 5}},
             "manifest block 'general' must be a list of entries, got 5"),
            ({"blocks": {"general": [{"example": 1}], "genral": [{"example": 1}]}},
             "unknown manifest block 'genral'; expected one of general, identical, binary")):
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert _run_err(capsys, "table", "--manifest", str(path), "--json") == (
            3, "", f"fairdiv: error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("5\n"))
    assert _run_err(capsys, "table", "--manifest", "-") == (
        3, "", "fairdiv: error: manifest must have a 'blocks' object\n")


def test_manifest_integers_are_not_truncated(capsys, tmp_path):
    # int() once read 1.5 as example 1, a count of 2.7 as two instances and
    # true as one
    path = tmp_path / "m.json"
    for entry, reason in (
            ({"example": 1.5}, "'example' must be an integer, got 1.5"),
            ({"example": True}, "'example' must be an integer, got True"),
            ({"example": "1"}, "'example' must be an integer, got '1'"),
            ({"random": {"count": 2.7, "seed": 1}}, "'count' must be an integer, got 2.7"),
            ({"random": {"count": True, "seed": 1}}, "'count' must be an integer, got True"),
            ({"random": {"count": -1, "seed": 1}}, "'count' must be at least 0, got -1"),
            ({"random": {"count": 2, "seed": 1.0}}, "'seed' must be an integer, got 1.0")):
        path.write_text(json.dumps({"blocks": {"general": [entry]}}), encoding="utf-8")
        code, out, err = _run_err(capsys, "table", "--manifest", str(path), "--json")
        assert (code, out) == (3, "")
        assert err == f"fairdiv: error: bad manifest entry {entry!r}: {reason}\n"
    entries = [{"example": 1}, {"random": {"count": 0, "seed": 1}},
               {"random": {"count": 2, "seed": 1, "label": "r"}}]
    path.write_text(json.dumps({"blocks": {"general": entries}}), encoding="utf-8")
    code, payload = run_json(capsys, "table", "--manifest", str(path), "--json")
    assert code in (0, 1) and payload["blocks"]["general"]["instances"] == 3


def test_negative_per_block_is_a_usage_error(capsys):
    # it once printed a table of the targeted instances alone, with exit 0
    for argv in (("table", "--json"), ("table", "--write-manifest", "-")):
        code, out, err = _run_err(capsys, *argv, "--per-block", "-3")
        assert (code, out) == (3, "")
        assert err == "fairdiv: error: --per-block must be at least 0, got -3\n"
    with pytest.raises(ValueError, match="at least 0, got -1"):
        build_table_manifest(-1)
    assert build_table_manifest(0) == build_table_manifest(3)


def test_sigma_errors_are_one_based(capsys):
    for sigma, n in (("0,1", 2), ("a", 1), ("1,1", 2), ("1,3", 2)):
        code, out, err = _run_err(capsys, "run", "osd", "--example", "1", "--sigma", sigma)
        assert (code, out) == (3, "")
        assert err == f"fairdiv: error: --sigma must be a permutation of 1..{n}, got {sigma!r}\n"
    code, payload = run_json(capsys, "run", "osd", "--example", "1", "--sigma", "2, 1", "--json")
    assert code == 0
    assert payload["distribution"] == [{"owners": [2, 2], "probability": "1"}]
