"""End-to-end command line behavior, driven in process through main()."""

import hashlib
import io
import json
import re
from pathlib import Path

from fairdiv import parse_instance
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
    code, _ = run_cli(capsys, "run", "like",
                      "--instance", str(inst), "--bids", str(bids))
    assert code == 3


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
