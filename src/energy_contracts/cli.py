"""Command-line entry points: solve, sweep, curves, verify.

Configuration is a single JSON file with every physical default pre-populated,
so running without a config reproduces the reference setup. Outputs are CSV
tables (full round-trip float precision) plus a JSON manifest that echoes the
fully resolved configuration.

Exit codes: 0 success, 1 config error, 2 solver failure, 3 feasibility failure.
Each command returns its outcome and main alone writes the files and prints
the command's one line, to stdout on exit 0 and to stderr on any other code.

Only numpy-free modules are imported here, so verify, --help and a config
refused before the market is sized load no numpy: the commands that sum an
expectation import the solver, the sweep and the table budget where they use
them. solve, run_sweep and verify_contract are looked up in their modules at
call time, so a wrapper set there sees every call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, feasibility
from .feasibility import DEFAULT_TOL, MAX_TYPES
from .market import Contract, TypeProfile, _integer, _real
from .scenario import (
    DEFAULT_GAMMA_STEPS,
    RNG_ALGORITHM,
    ScenarioConfig,
    SweepError,
    _as_field_type,
    bandwidth_mbps,
    build_type_ladder,
    check_probe_types,
    gamma_range,
    reference_gamma,
    utility_curves,
)

ENV_OUT_DIR = "ENERGY_CONTRACTS_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_FEASIBILITY = 3

CONTRACT_COLUMNS = ["type_index", "theta", "q", "pi"]
SWEEP_COLUMNS = [
    "gamma",
    "welfare_contract",
    "welfare_complete",
    "welfare_linear",
    "normalized_contract",
    "normalized_linear",
]
CURVE_COLUMNS = ["probe_type", "item_index", "utility"]

# Most points a sweep may have: each runs a solve and three baselines and keeps its SolveResult,
# so a grid of 1e13 points would fail in np.linspace or run for ages rather than be refused.
MAX_GAMMA_STEPS = 100_000


class ConfigError(Exception):
    pass


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


def resolve_config(user: dict | None) -> dict:
    """Merge a user config onto the fully populated defaults, which reproduce
    the reference setup, with strict field checking.

    The scenario section is the ScenarioConfig defaults. A provided file must
    declare the market size (scenario.n_eaps and scenario.k_types); everything
    else falls back to the defaults.
    """
    resolved = {
        "scenario": dict(ScenarioConfig._field_defaults),
        "solve": {"gamma": None, "tol": DEFAULT_TOL},
        "sweep": {"gamma_min": None, "gamma_max": None, "gamma_steps": DEFAULT_GAMMA_STEPS},
        "curves": {"gamma": None, "probe_types": None},
    }
    if user is None:
        return resolved
    unknown = sorted(set(user) - set(resolved))
    if unknown:
        raise ConfigError(f"unknown section '{unknown[0]}'")
    if "scenario" not in user:
        raise ConfigError("missing required field 'scenario'")
    for name, section in resolved.items():
        given = user.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        unknown = sorted(set(given) - set(section))
        if unknown:
            raise ConfigError(f"unknown field '{name}.{unknown[0]}'")
        missing = [key for key in ("n_eaps", "k_types") if name == "scenario" and key not in given]
        if missing:
            raise ConfigError(f"missing required field 'scenario.{missing[0]}'")
        section.update(given)
    return resolved


def _positive_finite(value, name: str, derived: float | None = None) -> float:
    """The one check of solve.tol and every gamma field: a positive finite number, through market._real. A
    gamma field's null takes `derived`, its default from the scenario, which must be one too."""
    if value is None and derived is not None:
        value, name = derived, f"{name} (derived from the scenario)"
    try:
        number = _real(value, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not number > 0.0:
        raise ConfigError(f"{name} must be positive, got {number}")
    return number


def _write_outputs(out_dir: Path, command: str, cfg: dict, files: dict, extra: dict) -> None:
    """The one output step: each entry of `files` (a .csv entry is (header,
    rows), a .json one its payload), then config_echo.json and a manifest
    listing them. The directory is made here: a run that writes nothing leaves none."""
    files = {**files, "config_echo.json": cfg}
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": cfg["scenario"]["rng_seed"],
        "rng_algorithm": RNG_ALGORITHM,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_echo": cfg,
        "output_paths": sorted(files),
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in {**files, "manifest.json": manifest}.items():
        with open(out_dir / name, "w", newline="") as handle:
            if name.endswith(".csv"):
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(content[0])
                writer.writerows(content[1])
            else:
                json.dump(content, handle, indent=2, sort_keys=True)
                handle.write("\n")


def _contract_rows(profile: TypeProfile, contract: Contract):
    for idx, (theta, item) in enumerate(zip(profile.thetas, contract), start=1):
        yield idx, theta, item.q, item.pi


def _solves_extra(command: str, run: dict, gammas, results) -> dict:
    """The manifest's record of a command that solves: each solve's gamma and convergence, and the table."""
    records = [
        {"gamma": float(g), "iterations": r.iterations, "kkt_residual": r.kkt_residual, "converged": r.converged}
        for g, r in zip(gammas, results)
    ]
    return {command: {"solve_results": records}, "table": run["table"]}


def _resolve(command: str, cfg: dict) -> dict:
    """The one resolve step: check every field `command` reads, fill the nulls
    it derives from the scenario into cfg (so config_echo.json records them),
    and return the typed values it runs on. Nothing after this writes to cfg.

    Every command but verify records its table, the count vectors a pass sums
    ("rows") and the bytes of the table the split reads ("bytes"), refused over
    split_nbytes's budgets before ScenarioConfig forms the K-type ladder."""
    run = {}
    try:  # echoed as checked: "rng_seed": 3.0 is recorded as 3, a range as a list
        values = {
            name: _as_field_type(name, cfg["scenario"][name], default)
            for name, default in ScenarioConfig._field_defaults.items()
        }
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    cfg["scenario"] = {name: list(value) if isinstance(value, tuple) else value for name, value in values.items()}
    if command in ("solve", "verify"):
        cfg["solve"]["tol"] = run["tol"] = _positive_finite(cfg["solve"]["tol"], "solve.tol")
    if command == "verify":
        # a contract file carries its own type ladder: no ladder is built from the scenario
        return run
    try:
        from .compositions import split_nbytes, table_rows

        n, k = values["n_eaps"], values["k_types"]
        run["table"] = {"rows": table_rows(n, k), "bytes": split_nbytes(n, k)}
        run["scenario"] = scenario = ScenarioConfig(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    section = cfg[command]
    if command != "sweep" and k > MAX_TYPES:
        raise ConfigError(f"{command} writes a K x K table, so it serves at most {MAX_TYPES:,} types, got {k:,}")
    if command == "sweep":
        lo, hi = gamma_range(scenario)
        gamma_min = _positive_finite(section["gamma_min"], "sweep.gamma_min", lo)
        gamma_max = _positive_finite(section["gamma_max"], "sweep.gamma_max", hi)
        try:
            steps = _integer(section["gamma_steps"], "sweep.gamma_steps")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 1 <= steps <= MAX_GAMMA_STEPS:
            raise ConfigError(f"sweep.gamma_steps must be between 1 and {MAX_GAMMA_STEPS:,}, got {steps}")
        if gamma_min > gamma_max:
            raise ConfigError(f"invalid gamma range [{gamma_min}, {gamma_max}]")
        section.update(gamma_min=gamma_min, gamma_max=gamma_max, gamma_steps=steps)
        run.update(section)
        return run
    run["gamma"] = section["gamma"] = _positive_finite(section["gamma"], f"{command}.gamma", reference_gamma(scenario))
    if command == "curves":
        probes = list(range(1, k + 1)) if section["probe_types"] is None else section["probe_types"]
        if not isinstance(probes, list):
            raise ConfigError(f"curves.probe_types must be a list of type indices, got {probes!r}")
        try:
            section["probe_types"] = run["probe_types"] = check_probe_types(probes, k)
        except ValueError as exc:
            raise ConfigError(f"curves.probe_types: {exc}") from exc
    return run


def _solve_once(run: dict):
    """The ladder and its solve; solve refuses a gamma the market cannot use (a config error)."""
    from .solver import solve

    scenario = run["scenario"]
    profile = build_type_ladder(scenario)
    try:
        return profile, solve(profile, run["gamma"], bandwidth_mbps(scenario), scenario.n_eaps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# what a command returns: its exit code, its one line, the files main writes (None: no output directory) and
# the manifest's extra record
Outcome = tuple[int, str, dict | None, dict]


def cmd_solve(run: dict, args) -> Outcome:
    profile, result = _solve_once(run)
    try:
        report = feasibility.verify_contract(result.contract, profile, run["tol"])
    except ValueError as exc:  # the menu came from the solver, so the fault is the solve's
        return EXIT_SOLVER, f"solver returned a menu that cannot be verified: {exc}", None, {}
    extra = _solves_extra("solve", run, [run["gamma"]], [result])
    (record,) = extra["solve"]["solve_results"]
    payload = {**report._asdict(), "solver": {**record, "objective": result.objective, "monotone": result.monotone}}
    files = {
        "contract.csv": (CONTRACT_COLUMNS, _contract_rows(profile, result.contract)),
        "feasibility.json": payload,
    }
    if not result.converged:
        return EXIT_SOLVER, f"solver did not converge (residual {result.kkt_residual:g})", files, extra
    if not result.monotone or not report.feasible:
        return EXIT_FEASIBILITY, f"contract failed feasibility (min slack {report.min_slack:g})", files, extra
    line = f"solved {profile.k}-type menu at gamma={run['gamma']:g}; objective {result.objective:.6g}"
    return EXIT_OK, line, files, extra


def cmd_sweep(run: dict, args) -> Outcome:
    import numpy as np

    from .scenario import run_sweep

    gamma_min, gamma_max, steps = (run[key] for key in ("gamma_min", "gamma_max", "gamma_steps"))
    try:
        sweep = run_sweep(run["scenario"], np.linspace(gamma_min, gamma_max, steps))
    except SweepError as exc:
        return EXIT_SOLVER, str(exc), None, {}
    except ValueError as exc:  # a gamma the market cannot use
        raise ConfigError(str(exc)) from exc
    files = {"sweep.csv": (SWEEP_COLUMNS, sweep.rows())}
    extra = _solves_extra("sweep", run, sweep.gamma_grid, sweep.solve_results)
    return EXIT_OK, f"swept {steps} gamma points over [{gamma_min:g}, {gamma_max:g}]", files, extra


def cmd_curves(run: dict, args) -> Outcome:
    profile, result = _solve_once(run)
    if not result.converged:
        return EXIT_SOLVER, f"solver did not converge (residual {result.kkt_residual:g})", None, {}
    probes = run["probe_types"]
    table = utility_curves(result.contract, profile, probes)

    rows = [
        (probe, item_idx + 1, float(table[row_idx, item_idx]))
        for row_idx, probe in enumerate(probes)
        for item_idx in range(profile.k)
    ]
    files = {
        "curves.csv": (CURVE_COLUMNS, rows),
        "contract.csv": (CONTRACT_COLUMNS, _contract_rows(profile, result.contract)),
    }
    extra = _solves_extra("curves", run, [run["gamma"]], [result])
    return EXIT_OK, f"wrote {len(rows)} utility rows for {len(probes)} probe types", files, extra


def read_contract_csv(path: str | Path) -> tuple[TypeProfile, Contract]:
    """Load a contract table; the theta column makes the file self-contained. Row i must read i,theta,q,pi, as
    contract.csv writes it: a row with another cell count or type_index is refused, naming its line."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            if (header := next(reader, None)) != CONTRACT_COLUMNS:
                raise ConfigError(f"{path}: expected columns {CONTRACT_COLUMNS}, got {header}")
            rows = []
            for i, cells in enumerate(filter(None, reader), 1):  # skips blank lines; stops at the row past the budget
                if i > MAX_TYPES:
                    raise ConfigError(f"{path}: more than {MAX_TYPES:,} rows, the most types verify serves")
                if len(cells) != len(CONTRACT_COLUMNS) or cells[0] != str(i):
                    raise ConfigError(f"{path}: line {reader.line_num}: expected {i},theta,q,pi, got {cells}")
                rows.append(tuple(map(float, cells[1:])))
    except OSError as exc:
        raise ConfigError(f"cannot read contract {path}: {exc}") from exc
    except csv.Error as exc:  # as of a cell past the csv module's field size limit
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no contract rows")
    try:
        profile = TypeProfile(tuple(r[0] for r in rows))
        contract = Contract.from_arrays([r[1] for r in rows], [r[2] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return profile, contract


def cmd_verify(run: dict, args) -> Outcome:
    profile, contract = read_contract_csv(args.contract)
    try:
        report = feasibility.verify_contract(contract, profile, run["tol"])
    except ValueError as exc:
        raise ConfigError(f"{args.contract}: {exc}") from exc
    files, extra = {"feasibility.json": report._asdict()}, {"contract_path": str(args.contract)}
    if not report.feasible:
        return EXIT_FEASIBILITY, f"contract infeasible (min slack {report.min_slack:g})", files, extra
    return EXIT_OK, f"contract feasible (min slack {report.min_slack:g})", files, extra


COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "curves": cmd_curves, "verify": cmd_verify}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energy-contracts",
        description="Design and benchmark energy-reward contract menus for wireless-charging markets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path (defaults to the built-in reference setup)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or ./out)")
        p.add_argument("--seed", type=int, help="override scenario.rng_seed")

    p_solve = sub.add_parser("solve", help="solve the menu at one gamma and verify feasibility")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="welfare comparison across a gamma grid")
    common(p_sweep)
    p_sweep.add_argument("--gamma-min", type=float, help="override sweep.gamma_min")
    p_sweep.add_argument("--gamma-max", type=float, help="override sweep.gamma_max")
    p_sweep.add_argument("--gamma-steps", type=int, help="override sweep.gamma_steps")

    p_curves = sub.add_parser("curves", help="per-type utility across all menu items")
    common(p_curves)

    p_verify = sub.add_parser("verify", help="verify an existing contract CSV")
    common(p_verify)
    p_verify.add_argument("--contract", required=True, help="contract CSV to verify")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        user = load_config(args.config) if args.config else None
        cfg = resolve_config(user)
        if args.seed is not None:
            cfg["scenario"]["rng_seed"] = args.seed
        for key in ("gamma_min", "gamma_max", "gamma_steps"):
            if getattr(args, key, None) is not None:
                cfg["sweep"][key] = getattr(args, key)
        code, line, files, extra = COMMANDS[args.command](_resolve(args.command, cfg), args)
    except ConfigError as exc:
        code, line, files = EXIT_CONFIG, f"config error: {exc}", None
    if files is not None:
        out_dir = Path(args.out or os.environ.get(ENV_OUT_DIR) or "out")
        _write_outputs(out_dir, args.command, cfg, files, extra)
    print(line, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
