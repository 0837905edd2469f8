"""Compare two sets of benchmark runs: the same tree twice, or a parent tree
against a change, with identical benchmark code and settings.

    python3 bench/compare.py --workload sweep-mid --base-src ../parent/src --head-src src

Both --base-src and --head-src default to this checkout's src, which runs
the same code twice. Each side gets RUNS runs; pair i runs both sides with
--seed i+1, the base first in even pairs and the head first in odd ones. For every end-to-end metric of
BENCHMARK.json and every workload it prints each side's median and quartiles
and a verdict against the metric's bound:

    better      every head run beats every base run
    unresolved  otherwise, when either side's quartile spread exceeds the bound
    worse       the head median is worse than the base median by more than the bound
    ok          otherwise

TRACE_RUNS traced runs per side read the exact-repeat counters, which must
be identical across all runs of one side. The exit code is 0 only when every
run is correct, no verdict is worse or unresolved and every counter repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, COUNTERS, ROOT

RUN_TIMEOUT_S = 200
RUNS = 10  # runs per side, with seeds 1..RUNS
TRACE_RUNS = 2  # traced runs per side, with seeds 1..TRACE_RUNS


def run(workload: str, seed: int, seconds: float, trace: int, src: Path) -> dict | None:
    """One benchmark run; its result line, or None when it failed."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--src", str(src)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"  run failed: {workload} seed {seed} trace {trace} src {src}\n{proc.stderr}", file=sys.stderr)
        return None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], metric: dict) -> tuple[str, str]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    (b1, b2, b3), (h1, h2, h3) = quartiles(base), quartiles(head)
    base_spread, head_spread = (b3 - b1) / b2, (h3 - h1) / h2
    worse_by = sign * (h2 - b2) / b2
    summary = (f"base {b2:.6g} [{b1:.6g}, {b3:.6g}]  head {h2:.6g} [{h1:.6g}, {h3:.6g}]  "
               f"change {100 * (h2 - b2) / b2:+.2f}%  spread {100 * base_spread:.1f}%/{100 * head_spread:.1f}%  "
               f"bound {100 * bound:g}%")
    if max(sign * h for h in head) < min(sign * b for b in base):
        return "better", summary
    if max(base_spread, head_spread) > bound:
        return "unresolved", summary
    return ("worse" if worse_by > bound else "ok"), summary


def compare(workload: str, args, spec: dict) -> bool:
    sides = {"base": args.base_src.resolve(), "head": args.head_src.resolve()}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    all_correct = True
    for i in range(RUNS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            result = run(workload, i + 1, args.seconds, 0, sides[side])
            if result is None:
                all_correct = False
                continue
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])

    ok = all_correct
    print(f"{workload}: {RUNS} runs per side of {args.seconds:g} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base, head = values["base"].get(name), values["head"].get(name)
        if not base or not head:
            print(f"  {name:<14} no values")
            ok = False
            continue
        label, summary = verdict(base, head, metric)
        ok = ok and label in ("ok", "better")
        print(f"  {name:<14} {label:<10} {summary}")

    for side, src in sides.items():
        seen = set()
        for i in range(TRACE_RUNS):
            result = run(workload, i + 1, args.seconds, 1, src)
            if result is None:
                ok = False
                continue
            seen.add(tuple(result["metrics"][c]["value"] for c in COUNTERS))
        repeat = "repeat" if len(seen) == 1 else "NONDETERMINISTIC" if seen else "not measured"
        ok = ok and len(seen) == 1
        print(f"  counters {side}: {repeat} {dict(zip(COUNTERS, next(iter(seen)))) if seen else ''}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seconds", type=float, help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--base-src", type=Path, default=ROOT / "src")
    parser.add_argument("--head-src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    results = [compare(workload, args, spec) for workload in args.workload]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
