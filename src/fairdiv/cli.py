"""Command line front end.

Subcommands:
  run       run one mechanism on an instance and print its distribution
  check     evaluate fairness and efficiency axioms on a mechanism's output
  falsify   search for strategic deviations or behavioral witnesses
  table     recompute the verdict table over instance suites and compare it
            against the expected verdicts
  theorems  mechanically check the library's named claims
  gen       generate random instances from a utility domain
  examples  print the built-in worked examples

Exit codes: 0 success, or every checked property held; 1 a checked property
failed, a witness was found, or a table verdict mismatched; 2 inconclusive
because a work bound was exceeded; 3 usage or input errors.

Agents and items are 1-based everywhere in input and output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .axioms import check_efa, check_pea, check_pep
from .claims import BLOCKS, COLUMNS, check_axiom, table_report, theorem_checks
from .core import (
    DEFAULT_MAX_NODES,
    AllocationDistribution,
    BidProfile,
    Instance,
    PriorityOrder,
    WorkBoundExceeded,
    expected_utilities,
    format_value,
    marginals,
    work_bound,
)
from .instances import (
    DOMAIN_NAMES,
    DomainSpec,
    ParseError,
    WORKED_EXAMPLE_IDS,
    build_table_manifest,
    generate,
    load_manifest,
    parse_bids,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate_domain,
    worked_example,
)
from .mechanisms import MECHANISM_NAMES, Mechanism, get_mechanism
from .strategic import (
    BidGrid,
    memoryless_probe,
    osp_falsify,
    sp_falsify,
    step_probe,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

BLOCK_TITLES = {
    "general": "general utilities",
    "identical": "identical utilities",
    "binary": "binary utilities",
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to this tool's exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> None:
    print(f"fairdiv: error: {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _max_nodes(args) -> int:
    """The work bound: --max-nodes, else FAIRDIV_MAX_NODES, else the default."""
    if args.max_nodes is not None:
        return args.max_nodes
    env = os.environ.get("FAIRDIV_MAX_NODES")
    try:
        return int(env) if env else DEFAULT_MAX_NODES
    except ValueError:
        raise ValueError(f"FAIRDIV_MAX_NODES must be an integer, got {env!r}") from None


def _resolve_instance(args) -> Instance:
    if (args.instance is None) == (args.example is None):
        raise ValueError("provide exactly one of --instance or --example")
    if args.example is not None:
        inst, _ = worked_example(args.example)
        return inst
    return parse_instance(_read_text(args.instance))


def _resolve_bids(args) -> Optional[BidProfile]:
    if args.bids is None:
        return None
    return parse_bids(_read_text(args.bids))


def _resolve_mechanism(args) -> Mechanism:
    if args.sigma is not None:
        # checked here, so that the message is 1-based like the option
        tokens = [t.strip() for t in args.sigma.split(",")]
        n = len(tokens)
        if sorted(tokens) != sorted(str(k) for k in range(1, n + 1)):
            raise ValueError(f"--sigma must be a permutation of 1..{n}, got {args.sigma!r}")
        order = PriorityOrder.from_one_based(int(t) for t in tokens)
        return get_mechanism(args.mechanism, sigma=order)
    return get_mechanism(args.mechanism)


def _grid_from_args(args) -> BidGrid:
    extras = tuple(parse_rational(t) for t in (args.extra_bid or ()))
    return BidGrid(extras)


def _owners_json(alloc) -> list:
    return [None if o is None else o + 1 for o in alloc.owners]


def _dist_json(dist: AllocationDistribution) -> list[dict]:
    return [
        {"owners": _owners_json(a), "probability": format_value(p)} for a, p in dist
    ]


def _matrix_json(rows) -> list[list[str]]:
    return [[format_value(x) for x in row] for row in rows]


def _witness_text(payload: Optional[dict]) -> str:
    if not payload:
        return ""
    parts = [f"{k}={v}" for k, v in payload.items() if v is not None and k != "kind"]
    kind = payload.get("kind", "witness")
    return f" [{kind}: {', '.join(parts)}]"


# --- run ---------------------------------------------------------------

def cmd_run(args) -> int:
    instance = _resolve_instance(args)
    bids = _resolve_bids(args)
    mech = _resolve_mechanism(args)
    dist = mech.run(instance, bids)
    p = marginals(dist)
    ubar = expected_utilities(p, instance.utilities)
    if args.json:
        print(json.dumps({
            "mechanism": mech.name,
            "agents": instance.n,
            "items": instance.m,
            "distribution": _dist_json(dist),
            "marginals": _matrix_json(p.p),
            "expected_own": [format_value(x) for x in ubar.own()],
        }, indent=2))
        return EXIT_OK
    print(f"mechanism: {mech.name}")
    print(f"agents: {instance.n}  items: {instance.m}")
    print("distribution:")
    for alloc, prob in dist:
        print(f"  {format_value(prob):>8}  {alloc}")
    print("marginals:")
    for i in range(instance.n):
        row = " ".join(format_value(p.entry(i, j)) for j in range(instance.m))
        print(f"  agent {i + 1}: {row}")
    own = " ".join(format_value(x) for x in ubar.own())
    print(f"expected own utilities: {own}")
    return EXIT_OK


# --- check -------------------------------------------------------------

def _axiom_names(requested: Sequence[str], instance: Instance) -> list[str]:
    """The requested axioms with "all" expanded to those that apply to the
    instance, each once, in first-request order."""
    names: list[str] = []
    for name in requested:
        if name == "all":
            names += ["efp", "efa", "sefp", "sefa"]
            if validate_domain(instance, "binary"):
                names.append("befp")
            names += ["pea", "pep"]
        else:
            names.append(name)
    return list(dict.fromkeys(names))


def cmd_check(args) -> int:
    instance = _resolve_instance(args)
    bids = _resolve_bids(args)
    mech = _resolve_mechanism(args)
    dist = mech.run(instance, bids)
    bound = parse_rational(args.bound)
    results = [(name, check_axiom(name, dist, bound=bound))
               for name in _axiom_names(args.axiom or ["all"], instance)]
    ok = all(v.holds for _, v in results)
    if args.json:
        print(json.dumps({
            "mechanism": mech.name,
            "verdicts": [v.to_json() | {"axiom": name} for name, v in results],
            "all_hold": ok,
        }, indent=2))
        return EXIT_OK if ok else EXIT_FAIL
    for name, v in results:
        if v.holds:
            slack = "" if v.margin is None else f" (margin {format_value(v.margin)})"
            print(f"{name}: holds{slack}")
        else:
            w = None if v.witness is None else v.witness.to_json()
            print(f"{name}: FAILS{_witness_text(w)}")
    return EXIT_OK if ok else EXIT_FAIL


# --- falsify -----------------------------------------------------------

# why a lie search's None is complete, per declared bid view
_VIEW_REASONS = {
    "signs": "reads only which bids are positive, and a zero and a positive bid were "
             "tried on every item",
    "tops": "reads only each item's top bidders, and a bid below, at and above the "
            "others' top bid was tried on every item",
}


def cmd_falsify(args) -> int:
    instance = _resolve_instance(args)
    mech = _resolve_mechanism(args)
    grid = _grid_from_args(args)
    if args.property == "sp":
        found = sp_falsify(mech, instance, grid, max_candidates=args.max_candidates)
    elif args.property == "osp":
        found = osp_falsify(mech, instance, grid)
    elif args.property == "step":
        found = step_probe(mech, instance, grid)
    else:
        found = memoryless_probe(mech, instance, grid)
    if args.json:
        print(json.dumps({
            "mechanism": mech.name,
            "property": args.property,
            "witness": None if found is None else found.to_json(),
        }, indent=2))
        return EXIT_OK if found is None else EXIT_FAIL
    if found is None:
        reason = _VIEW_REASONS.get(mech.view) if args.property in ("sp", "osp") else None
        if reason is None:
            print(f"{args.property}: no witness found on the bid grid")
        else:
            print(f"{args.property}: no witness: no profitable lie exists, since {mech.name} "
                  f"{reason}")
        return EXIT_OK
    print(f"{args.property}: witness found{_witness_text(found.to_json())}")
    return EXIT_FAIL


# --- gen ---------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.count > 1 and args.out_dir is None:
        raise ValueError("--count above 1 needs --out-dir")
    labels = []
    for k in range(args.count):
        seed = args.seed + k
        spec = DomainSpec(args.domain, args.agents, args.items, seed,
                          bound=args.bound)
        inst = generate(spec)
        label = f"{args.domain}-n{args.agents}m{args.items}-s{seed}"
        if args.out_dir is None:
            print(f"# {label}")
            sys.stdout.write(serialize_instance(inst))
        else:
            path = Path(args.out_dir)
            path.mkdir(parents=True, exist_ok=True)
            target = path / f"{label}.txt"
            target.write_text(f"# {label}\n" + serialize_instance(inst), encoding="utf-8")
            labels.append(str(target))
    for name in labels:
        print(name)
    return EXIT_OK


# --- examples ----------------------------------------------------------

def _example_payload(eid: int) -> dict:
    instance, constructed = worked_example(eid)
    payload: dict = {
        "id": eid,
        "utilities": _matrix_json(instance.utilities),
        "mechanisms": {},
    }
    if constructed is None:
        for name in MECHANISM_NAMES:
            mech = get_mechanism(name)
            dist = mech.run(instance)
            payload["mechanisms"][name] = _dist_json(dist)
    else:
        dist = constructed.run(instance)
        base = constructed.base.run(instance)
        payload["constructed"] = {
            "name": constructed.name,
            "distribution": _dist_json(dist),
            "base": constructed.base.name,
            "base_distribution": _dist_json(base),
        }
        if eid == 2:
            payload["constructed"]["efa"] = check_efa(dist).to_json()
            payload["constructed"]["marginals_match_base"] = (
                marginals(dist) == marginals(base)
            )
        if eid == 4:
            payload["constructed"]["pep"] = check_pep(dist).to_json()
            payload["constructed"]["pea"] = check_pea(dist).to_json()
    return payload


def cmd_examples(args) -> int:
    ids = [args.id] if args.id is not None else list(WORKED_EXAMPLE_IDS)
    payloads = [_example_payload(eid) for eid in ids]
    if args.json:
        print(json.dumps({"examples": payloads}, indent=2))
        return EXIT_OK
    for payload in payloads:
        print(f"example {payload['id']}")
        print("  utilities:")
        for row in payload["utilities"]:
            print("    " + " ".join(row))
        if "constructed" in payload:
            c = payload["constructed"]
            print(f"  constructed mechanism: {c['name']} (base: {c['base']})")
            for entry in c["distribution"]:
                owners = " ".join("-" if o is None else str(o) for o in entry["owners"])
                print(f"    {entry['probability']:>6}  owners: {owners}")
            if "efa" in c:
                state = "holds" if c["efa"]["holds"] else "fails"
                print(f"  envy-freeness ex ante: {state};"
                      f" marginals match base: {c['marginals_match_base']}")
            if "pep" in c:
                print(f"  efficiency ex post: {'holds' if c['pep']['holds'] else 'fails'};"
                      f" ex ante: {'holds' if c['pea']['holds'] else 'fails'}")
        else:
            for name, entries in payload["mechanisms"].items():
                cells = ", ".join(
                    f"{e['probability']} -> "
                    + " ".join("-" if o is None else str(o) for o in e["owners"])
                    for e in entries
                )
                print(f"  {name}: {cells}")
        print()
    return EXIT_OK


# --- table -------------------------------------------------------------

def _cell_mark(verdict: bool, prior: bool) -> str:
    return ("+" if verdict else "x") + ("*" if prior else "")


def cmd_table(args) -> int:
    if args.per_block < 0:
        raise ValueError(f"--per-block must be at least 0, got {args.per_block}")
    if args.write_manifest is not None:
        text = json.dumps(build_table_manifest(args.per_block, args.seed), indent=2)
        if args.write_manifest == "-":
            print(text)
        else:
            Path(args.write_manifest).write_text(text + "\n", encoding="utf-8")
        return EXIT_OK
    if args.manifest is not None:
        manifest = load_manifest(_read_text(args.manifest))
    else:
        manifest = load_manifest(build_table_manifest(args.per_block, args.seed))
    unknown = [b for b in manifest if b not in BLOCKS]
    if unknown:
        raise ValueError(f"unknown manifest block {unknown[0]!r}; expected one of "
                         f"{', '.join(BLOCKS)}")
    blocks = [b for b in BLOCKS if b in manifest]
    if args.block:
        blocks = [b for b in blocks if b in args.block]
    if not blocks:
        raise ValueError("no blocks selected")
    started = time.perf_counter()
    report = table_report({b: manifest[b] for b in blocks})
    mismatches = report["mismatches"]
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK if not mismatches else EXIT_FAIL
    print("recomputed verdict table")
    print("columns: " + " ".join(COLUMNS))
    print("cells: + holds on the block suite, x fails with a stored witness,"
          " * verdict reported in earlier work")
    print("the befp column checks the one-item envy bound outside the binary block")
    for block in blocks:
        info = report["blocks"][block]
        print()
        print(f"block: {BLOCK_TITLES[block]} ({info['instances']} instances)")
        header = f"  {'mechanism':<14}" + "".join(f"{c:<5}" for c in COLUMNS)
        print(header)
        for row in info["rows"]:
            marks = []
            for column in COLUMNS:
                cell = row["cells"][column]
                marks.append(_cell_mark(cell["verdict"] == "+",
                                        cell["source"] == "prior work"))
            print(f"  {row['mechanism']:<14}" + "".join(f"{m:<5}" for m in marks))
    print()
    if mismatches:
        for mm in mismatches:
            where = f"{mm['block']}/{mm['mechanism']}/{mm['column']}"
            inst = f" (instance {mm['witness_instance']})" if mm["witness_instance"] else ""
            print(f"MISMATCH {where}: expected {mm['expected']},"
                  f" computed {mm['computed']}{inst}")
    else:
        print("all verdicts match the expected table")
    print(f"runtime: {time.perf_counter() - started:.1f}s")
    return EXIT_OK if not mismatches else EXIT_FAIL


# --- theorems ----------------------------------------------------------

def cmd_theorems(args) -> int:
    started = time.perf_counter()
    checks = theorem_checks(args.seed)
    ok = all(c["ok"] for c in checks)
    if args.json:
        print(json.dumps({"checks": checks, "all_ok": ok}, indent=2))
        return EXIT_OK if ok else EXIT_FAIL
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        mark = "ok  " if c["ok"] else "FAIL"
        print(f"{mark} {c['name']:<{width}}  {c['note']}")
    print(f"{'all claims verified' if ok else 'SOME CLAIMS FAILED'}"
          f" ({time.perf_counter() - started:.1f}s)")
    return EXIT_OK if ok else EXIT_FAIL


# --- parser ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairdiv",
                     description="exact online fair division mechanisms")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_instance_opts(p):
        p.add_argument("--instance", metavar="PATH",
                       help="instance file, or - for stdin")
        p.add_argument("--example", type=int, choices=WORKED_EXAMPLE_IDS,
                       help="use a worked example's instance")

    def add_common(p, *, bids=True):
        p.add_argument("--max-nodes", type=int, metavar="N",
                       help="work bound on expansion tree leaves, orp's priority"
                            " orders and enumerated allocations (default 10^6,"
                            " env FAIRDIV_MAX_NODES)")
        p.add_argument("--json", action="store_true", help="machine readable output")
        if bids:
            p.add_argument("--bids", metavar="PATH",
                           help="bid matrix file (defaults to sincere bids)")

    p_run = sub.add_parser("run", help="run a mechanism and print its distribution")
    p_run.add_argument("mechanism", choices=MECHANISM_NAMES)
    p_run.add_argument("--sigma", metavar="ORDER",
                       help="1-based priority order for osd, e.g. 2,1")
    add_instance_opts(p_run)
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check axioms on a mechanism's output")
    p_check.add_argument("mechanism", choices=MECHANISM_NAMES)
    p_check.add_argument("--sigma", metavar="ORDER")
    add_instance_opts(p_check)
    p_check.add_argument("--axiom", action="append",
                         choices=["all", "efp", "efa", "sefp", "sefa", "befp",
                                  "envy-bounded", "pea", "pep", "prefix-efa"],
                         help="repeatable; default: all applicable")
    p_check.add_argument("--bound", default="1", metavar="P/Q",
                         help="envy bound for the envy-bounded axiom")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fal = sub.add_parser("falsify",
                           help="search for deviations or behavioral witnesses")
    p_fal.add_argument("mechanism", choices=MECHANISM_NAMES)
    p_fal.add_argument("--sigma", metavar="ORDER")
    add_instance_opts(p_fal)
    p_fal.add_argument("--property", choices=["sp", "osp", "step", "memoryless"],
                       default="sp")
    p_fal.add_argument("--extra-bid", action="append", metavar="P/Q",
                       help="extra value to add to every bid menu; repeatable")
    p_fal.add_argument("--max-candidates", type=int, metavar="N",
                       help="work bound on the lie rows sp runs per agent"
                            " (default 10^6)")
    add_common(p_fal, bids=False)
    p_fal.set_defaults(func=cmd_falsify)

    p_tab = sub.add_parser("table", help="recompute the verdict table")
    p_tab.add_argument("--manifest", metavar="PATH",
                       help="JSON suite manifest, or - for stdin")
    p_tab.add_argument("--per-block", type=int, default=200,
                       help="suite size per block for the default manifest")
    p_tab.add_argument("--seed", type=int, default=20240801,
                       help="seed for the default manifest's random fill")
    p_tab.add_argument("--block", action="append", choices=BLOCKS,
                       help="restrict to one block; repeatable")
    p_tab.add_argument("--write-manifest", metavar="PATH",
                       help="write the default manifest and exit (- for stdout)")
    add_common(p_tab, bids=False)
    p_tab.set_defaults(func=cmd_table)

    p_thm = sub.add_parser("theorems", help="mechanically check the named claims")
    p_thm.add_argument("--seed", type=int, default=20240803,
                       help="seed for the random part of the check suites")
    add_common(p_thm, bids=False)
    p_thm.set_defaults(func=cmd_theorems)

    p_gen = sub.add_parser("gen", help="generate instances from a domain")
    p_gen.add_argument("--domain", choices=DOMAIN_NAMES, required=True)
    p_gen.add_argument("-n", "--agents", type=int, required=True)
    p_gen.add_argument("-m", "--items", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--bound", type=int, default=3)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out-dir", metavar="DIR")
    p_gen.set_defaults(func=cmd_gen)

    p_ex = sub.add_parser("examples", help="print the built-in worked examples")
    p_ex.add_argument("--id", type=int, choices=WORKED_EXAMPLE_IDS)
    add_common(p_ex, bids=False)
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # gen runs nothing exponential, so it has no bound to read
        with work_bound(_max_nodes(args) if "max_nodes" in args else DEFAULT_MAX_NODES):
            return args.func(args)
    except ParseError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except WorkBoundExceeded as exc:
        _fail(str(exc))
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        _fail(str(exc))
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
