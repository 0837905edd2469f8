"""Run one energy-contracts CLI command in this process, with a span around
every call into the package's public functions, and write the spans as JSON.

    python3 bench/trace_op.py SPANS.json OP_ID -- solve --config C --out DIR

The wrappers live here, not in the package: each traced function is replaced
at every module attribute it is bound to (for example `solve` in `solver`,
`scenario` and `cli`), so every call the CLI makes goes through a wrapper.
A span records its name, start, end, parent span and op id, plus the counters
its return value carries. Spans stay in memory until the command ends.
The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "energy_contracts"
MODULES = ("market", "compositions", "solver", "baselines", "feasibility", "scenario", "cli")

# module -> traced functions; a span is named "<module>.<function>" and its
# module is its layer
TRACED = {
    "compositions": ("composition_table", "expected_social_welfare"),
    "solver": ("solve",),
    "baselines": (
        "expected_complete_info_welfare",
        "linear_pricing_optimize",
        "linear_expected_dap_utility",
        "linear_expected_social_welfare",
    ),
    "scenario": ("run_sweep",),
    "feasibility": ("verify_contract",),
}


def _table_info(result) -> dict:
    counts = result[0]
    return {"rows": int(counts.shape[0]), "cols": int(counts.shape[1])}


def _solve_info(result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _sweep_info(result) -> dict:
    return {"points": len(result.gamma_grid)}


# counters read from a traced function's return value
INFO = {
    "compositions.composition_table": _table_info,
    "solver.solve": _solve_info,
    "scenario.run_sweep": _sweep_info,
}


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.update(info(result))
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Replace each traced function at all its binding sites; return the originals."""
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    originals = {}
    for home, names in TRACED.items():
        defining = importlib.import_module(f"{PACKAGE}.{home}")
        for attr in names:
            original = getattr(defining, attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{home}.{attr}", original)
            originals[f"{home}.{attr}"] = original
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
    return originals


def main(argv: list[str]) -> int:
    spans_path, op, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: trace_op.py SPANS.json OP_ID -- CLI ARGS...")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer(op)
    originals = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_argv)

    table = originals.get("compositions.composition_table")
    cache = table.cache_info() if hasattr(table, "cache_info") else None
    with open(spans_path, "w") as handle:
        json.dump(
            {
                "spans": tracer.spans,
                "cache": None if cache is None else {"hits": cache.hits, "misses": cache.misses},
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
