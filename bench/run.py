"""Benchmark for fairdiv: exact verdicts timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verdict-table --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # each workload, untraced and traced
    python3 bench/run.py --self-test                      # every workload and check, tiny

One workload runs per process, single-threaded. The process imports
fairdiv from ``src/`` of the checkout it sits in, builds the workload's
inputs from ``--seed``, then repeats whole rounds of the same operations
until ``--seconds`` have passed, checking every output of every round.
A round is the workload's whole job; its time is each operation's median
over the rounds, summed. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports per-layer metrics and the tracing overhead. The last line of
standard output is the result object; the line before it records the run's
settings, operation counts and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verdict-table", "frontier-audit", "axiom-audit", "expand-large")
SETUP_SAMPLES = 8  # extra set-ups, each in a fresh process, besides the run's own
CHILD_TIMEOUT = 170


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit()}


def set_up(name: str, seed: int, size: str):
    """Import fairdiv and build the workload's operations; returns (ops, seconds)."""
    start = time.perf_counter()
    import fairdiv
    import workloads
    ops = workloads.WORKLOADS[name](seed, size)
    elapsed = time.perf_counter() - start
    if not Path(fairdiv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fairdiv was imported from {fairdiv.__file__}, not {SRC}")
    return ops, elapsed


def setup_sample(args) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_round(ops, tracer=None) -> dict:
    """Every operation once: timed calls, then each output's check."""
    walls, cpus = [], []
    failed = 0
    problems = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.call()
        except Exception as exc:  # the op's check decides whether it was expected
            out = exc
        c1, w1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.active = False
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        failed += isinstance(out, Exception)
        problems += [f"{op.label}: {p}" for p in op.check(out)]
    return {"wall": walls, "cpu": cpus, "attempted": len(ops), "failed": failed,
            "problems": problems}


def job_time(rounds: list[dict], key: str) -> float:
    """The whole job's time: each operation's median over the rounds, summed."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in rounds)))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _, elapsed = set_up(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.trace:
        import fairdiv  # noqa: F401  (the tracer wraps the imported package)
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
        ops, _ = set_up(args.workload, args.seed, args.size)
        tracer.active = False
        tracer.uninstall()
        build_s = spans.layer_metrics(tracer.take())["instances.build_s"]
    else:
        ops, first = set_up(args.workload, args.seed, args.size)
        setups = [first]

    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while True:
        plain.append(run_round(ops))
        if len(plain) == 1:
            # rounds repeat one job, so its peak shows in the first; later
            # rounds only add the per-operation times kept here
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer.install()
            traced.append(run_round(ops, tracer))
            tracer.uninstall()
            layers.append(spans.layer_metrics(tracer.take()))
        elif len(setups) <= SETUP_SAMPLES:
            setups.append(setup_sample(args))  # spread over the run, like the rounds
        rounds = plain + traced
        if any(r["problems"] for r in rounds) or time.perf_counter() - started >= args.seconds:
            break
    if not args.trace:
        setups += [setup_sample(args) for _ in range(SETUP_SAMPLES + 1 - len(setups))]

    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if args.trace:
        values = {name: statistics.median_low(layer[name] for layer in layers)
                  for name in spans.METRICS if name in layers[0]}
        values["instances.build_s"] = build_s
        values["trace.overhead_s"] = job_time(traced, "wall") - job_time(plain, "wall")
        metrics = {name: metric(values[name], unit) for name, unit in spans.METRICS.items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(job_time(plain, "wall"), "s"),
            "cpu_s": metric(job_time(plain, "cpu"), "s"),
            "peak_rss_mib": metric(peak, "MiB"),
        }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "size": args.size,
                      "trace": args.trace, "rounds": len(plain),
                      "attempted": attempted, "failed": failed, **environment()}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_each(args, traces) -> int:
    """Every workload in turn, each in its own fresh process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                ok = False
                print(json.dumps({"workload": name, "trace": trace, "exit": done.returncode,
                                  "stderr": done.stderr[-2000:]}))
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            print(json.dumps({**info, **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload and check once at tiny size, traced and not")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "fairdiv" / "__init__.py").is_file():
        print(f"bench: no fairdiv package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        args.size, args.seconds = "tiny", 0
        return run_each(args, (0, 1))
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_each(args, (0, 1))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
