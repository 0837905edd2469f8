"""Benchmark of the energy-contracts command line.

    python3 bench/run.py --workload sweep-mid --seed 1 --seconds 40 --trace 0

One closed-loop client runs the workload's op again and again for --seconds
seconds: each op is a fresh `python -m energy_contracts.cli ...` process,
started only after the previous one ended. Every op's outputs are checked
against bench/reference/. With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 every other op runs under
bench/trace_op.py and the per-layer metrics are reported instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when an output check failed and 2 when
the tree under test cannot be run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# BLAS/OpenMP threads per op, pinned at or below nproc: two OpenBLAS threads
# made uniform pricing at N=10/K=10 slower on a 2-core machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Relative tolerance of every CSV value against the reference. A solve that
# stops at grad_tol 1e-6 instead of the default 1e-8 moves q and pi by at
# most 4e-7 on these workloads, the reference sits within 1e-9 of the
# optimum, and a wrong optimum moves them by far more.
RTOL = 1e-6

SETUP_ARGV = [sys.executable, "-c", "import energy_contracts.cli"]  # what every CLI op pays first
SETUP_SAMPLES = 3  # set-up times taken back to back before each op
MIN_OPS = 3
RUN_LIMIT_S = 170.0  # a run ends within 180 s; ops still running then are killed
COUNTERS = ("solver.iterations", "baselines.price_evals", "compositions.table_rows")

PROBE = """
import json, platform, numpy, energy_contracts
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (AttributeError, KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"package": energy_contracts.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas}))
"""


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand of the op
    output: str  # CSV the op writes, checked against bench/reference/<name>.csv
    # per-layer metrics that read exactly 0 on this workload, because the op
    # never calls what they measure; a name ending in "." covers a layer
    idle: tuple[str, ...]
    verify: bool = False  # the op also runs `verify` on the contract it wrote

    def is_idle(self, metric: str) -> bool:
        return any(metric == name or (name.endswith(".") and metric.startswith(name)) for name in self.idle)


# a solve looks the table up once (a miss) and evaluates no expected welfare
SOLVE_IDLE = ("baselines.", "scenario.", "compositions.cache_hit_ratio", "compositions.welfare_eval_s")

WORKLOADS = {
    "sweep-mid": Workload("sweep", "sweep.csv", idle=("feasibility.",)),
    "solve-saturated": Workload("solve", "contract.csv", idle=SOLVE_IDLE),
    "solve-large": Workload("solve", "contract.csv", idle=SOLVE_IDLE, verify=True),
}


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Op:
    traced: bool
    procs: list[Proc]
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced op
    spans: dict | None = None  # span name -> (calls, total s, self s) of a traced op

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run argv to completion with stdout and stderr in log.

    Wall time is taken around the process; CPU time and peak RSS come from
    its wait4 rusage. A process still running after timeout is killed.
    """
    with open(log, "wb") as handle:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, handle.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, handle.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ended, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        finally:
            os.close(pidfd)
        if not ended:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return Proc(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def op_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME", "ENERGY_CONTRACTS_OUTDIR")}
    env["PYTHONPATH"] = str(src)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe(env: dict, src: Path, work: Path) -> dict:
    """Record the environment, and refuse to run when energy_contracts would
    be imported from anywhere but the tree under test."""
    log = work / "probe.txt"
    proc = spawn([sys.executable, "-c", PROBE], env, log, 60.0)
    text = log.read_text()
    if proc.code != 0:
        raise RuntimeError(f"cannot import energy_contracts from {src}:\n{text}")
    info = json.loads(text.splitlines()[-1])
    package = Path(info["package"]).resolve()
    if not package.is_relative_to(src):
        raise RuntimeError(f"energy_contracts resolves to {package}, outside the tree under test {src}")
    return {
        **info,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: THREADS for var in THREAD_VARS},
    }


# ---------------------------------------------------------------- checks


def read_rows(data: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data)))


def compare_csv(data: str, reference: list[list[str]]) -> list[str]:
    rows = read_rows(data)
    if not rows or rows[0] != reference[0] or len(rows) != len(reference):
        return ["header or row count differs from the reference"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows[1:], reference[1:]), start=1):
        if len(row) != len(ref):
            problems.append(f"row {r} has {len(row)} cells, reference {len(ref)}")
            continue
        for column, value, expected in zip(reference[0], row, ref):
            try:
                close = math.isclose(float(value), float(expected), rel_tol=RTOL, abs_tol=0.0)
            except ValueError:
                close = False
            if not close:
                problems.append(f"row {r} {column}={value}, reference {expected}")
    return problems


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_outputs(wl: Workload, op_dir: Path, reference: list[list[str]], first: dict) -> list[str]:
    """Output checks of one op: values against the reference, byte identity
    across seeds, and invariants. Returns the problems found."""
    try:
        data = (op_dir / "out" / wl.output).read_text()
    except OSError:
        return [f"no {wl.output} written"]
    problems = compare_csv(data, reference)
    # every op of a run passes another --seed, which must not change any byte
    first.setdefault("csv", data)
    if data != first["csv"]:
        problems.append(f"{wl.output} differs byte-wise between two --seed values")

    if wl.command == "sweep":
        for row in csv.DictReader(io.StringIO(data)):
            complete = float(row["welfare_complete"])
            if float(row["welfare_contract"]) > complete or float(row["welfare_linear"]) > complete:
                problems.append(f"welfare above the full-information bound at gamma={row['gamma']}")
    else:
        report = read_json(op_dir / "out" / "feasibility.json") or {}
        if report.get("feasible") is not True or report.get("solver", {}).get("converged") is not True:
            problems.append("solve reports an infeasible or unconverged contract")
    if wl.verify:
        report = read_json(op_dir / "verify" / "feasibility.json") or {}
        if report.get("feasible") is not True:
            problems.append("verify reports the written contract infeasible")
    return problems


# ---------------------------------------------------------------- traced ops


def layer_times(spans: list[dict]) -> dict[int, tuple[float, float, float]]:
    """Per span id: (duration, self time, layer time).

    Self time is the duration minus the time its child spans cover. Layer
    time subtracts only the time spent in other modules, so a baseline that
    calls its own utility keeps that time but not a table build below it.
    """
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(dur)
    layer = dict(dur)
    for span in sorted(spans, key=lambda s: s["id"], reverse=True):  # children first
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        own[parent["id"]] -= dur[span["id"]]
        same_module = parent["name"].split(".")[0] == span["name"].split(".")[0]
        layer[parent["id"]] -= dur[span["id"]] - layer[span["id"]] if same_module else dur[span["id"]]
    return {i: (dur[i], own[i], layer[i]) for i in dur}


def op_layers(traces: list[dict], bytes_written: int) -> tuple[dict, dict]:
    """Per-layer metrics of one op from the span files of its processes, and
    per span name (calls, total s, self s)."""
    per_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    tables = 0
    table_bytes = 0
    hits = lookups = 0
    iterations = converged = points = 0
    for trace in traces:
        shapes = set()
        for span_id, (dur, own, layer) in layer_times(trace["spans"]).items():
            span = trace["spans"][span_id]
            totals = per_name[span["name"]]
            totals[0] += 1
            totals[1] += dur
            totals[2] += own
            totals[3] += layer
            iterations += span.get("iterations", 0)
            converged += span.get("converged", False)
            points += span.get("points", 0)
            if "rows" in span:
                shapes.add((span["rows"], span["cols"]))
        tables += sum(rows for rows, _ in shapes)
        table_bytes += sum(rows * cols * 8 for rows, cols in shapes)
        if trace["cache"]:
            hits += trace["cache"]["hits"]
            lookups += trace["cache"]["hits"] + trace["cache"]["misses"]

    def calls(name):
        return per_name[name][0] if name in per_name else 0

    def total_s(name):
        return per_name[name][1] if name in per_name else 0.0

    def self_s(name):
        return per_name[name][2] if name in per_name else 0.0

    def layer_s(name):
        return per_name[name][3] if name in per_name else 0.0

    solve_s = layer_s("solver.solve")
    pricing_calls = calls("baselines.linear_pricing_optimize")
    price_evals = calls("baselines.linear_expected_dap_utility")
    metrics = {
        "compositions.table_build_s": layer_s("compositions.composition_table"),
        "compositions.table_rows": tables,
        "compositions.table_bytes_computed": table_bytes,
        "compositions.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "compositions.welfare_eval_s": layer_s("compositions.expected_social_welfare"),
        "solver.solve_s": solve_s,
        "solver.iterations": iterations,
        "solver.s_per_iter": solve_s / iterations if iterations else 0.0,
        "solver.converged_frac": converged / calls("solver.solve") if calls("solver.solve") else 0.0,
        "baselines.pricing_s": layer_s("baselines.linear_pricing_optimize"),
        "baselines.price_evals": price_evals,
        "baselines.price_evals_per_point": price_evals / pricing_calls if pricing_calls else 0.0,
        "baselines.complete_info_s": layer_s("baselines.expected_complete_info_welfare"),
        "baselines.linear_welfare_s": layer_s("baselines.linear_expected_social_welfare"),
        "scenario.sweep_s": total_s("scenario.run_sweep"),
        "scenario.sweep_self_s": self_s("scenario.run_sweep"),
        "scenario.points": points,
        "feasibility.verify_s": layer_s("feasibility.verify_contract"),
        "feasibility.verify_calls": calls("feasibility.verify_contract"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
    }
    spans = {name: totals[:3] for name, totals in per_name.items()}
    return metrics, spans


def bytes_under(*dirs: Path) -> int:
    return sum(f.stat().st_size for d in dirs if d.is_dir() for f in d.rglob("*") if f.is_file())


# ---------------------------------------------------------------- the run


def run_op(name: str, wl: Workload, env: dict, op_dir: Path, seed: int, traced: bool, deadline: float) -> Op:
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    config = str(BENCH / "workloads" / f"{name}.json")
    out = op_dir / "out"
    steps = [[wl.command, "--config", config, "--out", str(out), "--seed", str(seed)]]
    if wl.verify:
        steps.append(
            ["verify", "--config", config, "--contract", str(out / "contract.csv"),
             "--out", str(op_dir / "verify"), "--seed", str(seed)]
        )
    op = Op(traced, [])
    for i, args in enumerate(steps):
        if traced:
            argv = [sys.executable, str(BENCH / "trace_op.py"), str(op_dir / f"spans{i}.json"), str(seed), "--", *args]
        else:
            argv = [sys.executable, "-m", "energy_contracts.cli", *args]
        proc = spawn(argv, env, op_dir / f"log{i}.txt", deadline - time.perf_counter())
        op.procs.append(proc)
        if proc.code != 0:
            tail = (op_dir / f"log{i}.txt").read_text(errors="replace").strip().splitlines()[-3:]
            op.problems.append(f"{args[0]} exited {proc.code}: {' | '.join(tail)}")
            break
    if traced and len(op.procs) == len(steps):
        traces = [read_json(op_dir / f"spans{i}.json") for i in range(len(steps))]
        if None in traces:
            op.problems.append("a traced process wrote no spans")
        else:
            op.layers, op.spans = op_layers(traces, bytes_under(out, op_dir / "verify"))
    return op


def measure(
    name: str, env: dict, work: Path, seed: int, seconds: float, trace: bool, deadline: float
) -> tuple[list[Op], list[float]]:
    """Run ops in a closed loop for `seconds`; return them and the set-up
    times, SETUP_SAMPLES taken before each op so that they sample the whole run."""
    wl = WORKLOADS[name]
    reference = read_rows((BENCH / "reference" / f"{name}.csv").read_text())
    first: dict = {}
    ops: list[Op] = []
    setup: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed + ops[-1].wall + sum(setup[-SETUP_SAMPLES:]) > seconds:
            break
        for _ in range(SETUP_SAMPLES):
            setup.append(spawn(SETUP_ARGV, env, work / "setup.txt", deadline - time.perf_counter()).wall)
        op_dir = work / "op"
        op = run_op(name, wl, env, op_dir, seed * 1000 + len(ops), trace and len(ops) % 2 == 0, deadline)
        op.problems += check_outputs(wl, op_dir, reference, first)
        ops.append(op)
    return ops, setup


def summarize(wl: Workload, ops: list[Op], setup: list[float], trace: bool) -> tuple[dict, dict]:
    """Metric values of the run, and per span name the median per-op
    (calls, total s, self s) of the traced ops."""
    plain = [op for op in ops if not op.traced]
    if not trace:
        return {
            "op_s.p50": statistics.median(op.wall for op in ops),
            "op_cpu_s.p50": statistics.median(op.cpu for op in ops),
            "peak_rss_mb": max(op.rss_mb for op in ops),
            "setup_s": statistics.median(setup),
        }, {}
    traced = [op for op in ops if op.layers is not None]
    if not traced or not plain:
        return {}, {}
    # exact-repeat counters: the same code must count the same work every op
    counts = traced[0].layers
    for op in traced:
        for counter in COUNTERS:
            if op.layers[counter] != counts[counter]:
                op.problems.append(f"nondeterministic {counter}: {op.layers[counter]} vs {counts[counter]}")
        # a metric reads 0 exactly where the workload does not run what it measures
        for key, value in op.layers.items():
            if (value == 0) != wl.is_idle(key):
                state = "idle" if wl.is_idle(key) else "active"
                op.problems.append(f"{key} reads {value:g}, but it is {state} on this workload")
    metrics = {key: statistics.median(op.layers[key] for op in traced) for key in counts}
    traced_s = statistics.median(op.wall for op in ops if op.traced)
    metrics["trace.op_s.p50"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(op.wall for op in plain)
    names = sorted({n for op in traced for n in op.spans})
    spans = {n: [statistics.median(op.spans.get(n, (0, 0.0, 0.0))[i] for op in traced) for i in range(3)] for n in names}
    return metrics, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; op i passes --seed SEED*1000+i to the CLI")
    parser.add_argument("--seconds", type=float, required=True, help="how long the closed loop runs ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics from traced ops")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree under test (default: this checkout's src)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    src = args.src.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = op_env(src)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            environment = probe(env, src, work)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        ops, setup = measure(args.workload, env, work, args.seed, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    wl = WORKLOADS[args.workload]
    values, spans = summarize(wl, ops, setup, bool(args.trace))
    failed = sum(1 for op in ops if op.problems)
    for i, op in enumerate(ops):
        for problem in op.problems[:5]:
            print(f"bench: op {i}: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)

    kind = "traced and untraced ops alternate" if args.trace else "untraced"
    print(f"workload {args.workload}: {len(ops)} ops (closed loop, 1 client, {kind}), {failed} failed, "
          f"fail_frac {failed / len(ops):g}, seed {args.seed}")
    for m in declared:
        if m["name"] in values:
            idle = "  (idle on this workload)" if args.trace and wl.is_idle(m["name"]) else ""
            print(f"  {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}{idle}")
    if spans:
        print(f"  {'span (median per traced op)':<42} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, (calls, total, own) in spans.items():
            print(f"  {name:<42} {calls:>8g} {total:>10.4f} {own:>10.4f}")
    print("env " + json.dumps(environment, sort_keys=True))
    correct = failed == 0 and not missing
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
