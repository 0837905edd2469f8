"""Command-line entry points: solve, sweep, curves, verify.

Configuration is a single JSON file with every physical default pre-populated,
so running without a config reproduces the reference setup. Outputs are CSV
tables (full round-trip float precision) plus a JSON manifest that echoes the
fully resolved configuration.

Exit codes: 0 success, 1 config error, 2 solver failure, 3 feasibility failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .compositions import table_rows
from .feasibility import DEFAULT_TOL, verify_contract
from .market import Contract, TypeProfile
from .scenario import (
    DEFAULT_GAMMA_STEPS,
    RNG_ALGORITHM,
    ScenarioConfig,
    SweepError,
    bandwidth_mbps,
    build_type_ladder,
    gamma_range,
    reference_gamma,
    run_sweep,
    utility_curves,
)
from .solver import SolverConfig, solve

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


class ConfigError(Exception):
    pass


# the config sections that mirror a dataclass, field for field
_DATACLASS_SECTIONS = {"scenario": ScenarioConfig, "solver": SolverConfig}


def default_config() -> dict:
    """Fully populated configuration reproducing the reference setup.

    The scenario and solver sections are the dataclass defaults, tuples as
    JSON lists.
    """
    cfg = {
        name: {
            f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(cls)
        }
        for name, cls in _DATACLASS_SECTIONS.items()
    }
    cfg["solve"] = {"gamma": None, "tol": DEFAULT_TOL}
    cfg["sweep"] = {"gamma_min": None, "gamma_max": None, "gamma_steps": DEFAULT_GAMMA_STEPS}
    cfg["curves"] = {"gamma": None, "probe_types": None}
    return cfg


# keys of the retired gradient-ascent line search: still accepted, ignored
_DEPRECATED_FIELDS = {"solver": ("backtrack_beta", "backtrack_c")}


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


def _merge_section(name: str, user: dict, defaults: dict, required: tuple[str, ...]) -> dict:
    user = dict(user)
    for key in _DEPRECATED_FIELDS.get(name, ()):
        if key in user:
            del user[key]
            print(f"config: '{name}.{key}' is deprecated and ignored", file=sys.stderr)
    unknown = sorted(set(user) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown field '{name}.{unknown[0]}'")
    for key in required:
        if key not in user:
            raise ConfigError(f"missing required field '{name}.{key}'")
    merged = dict(defaults)
    merged.update(user)
    return merged


def resolve_config(user: dict | None) -> dict:
    """Merge a user config onto the defaults with strict field checking.

    A provided file must declare the market size (scenario.n_eaps and
    scenario.k_types); everything else falls back to the defaults.
    """
    resolved = default_config()
    if user is None:
        return resolved
    unknown = sorted(set(user) - set(resolved))
    if unknown:
        raise ConfigError(f"unknown section '{unknown[0]}'")
    if "scenario" not in user:
        raise ConfigError("missing required field 'scenario'")
    required = {"scenario": ("n_eaps", "k_types")}
    for name in resolved:
        if name in user:
            if not isinstance(user[name], dict):
                raise ConfigError(f"section '{name}' must be a JSON object")
            resolved[name] = _merge_section(name, user[name], resolved[name], required.get(name, ()))
    return resolved


def _config_int(value, name: str) -> int:
    """The one check for integer fields: bools, non-integral numbers and strings are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _positive_finite(value, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not (math.isfinite(number) and number > 0.0):
        raise ConfigError(f"{name} must be positive and finite, got {number}")
    return number


def _dataclass_from_config(cfg: dict, section: str):
    """Build a section's dataclass, converting each value by the type of its
    field's default; an optional (None-default) field takes null or a vector."""
    cls = _DATACLASS_SECTIONS[section]
    values = {}
    try:
        for f in dataclasses.fields(cls):
            value = cfg[section][f.name]
            if isinstance(f.default, int):
                values[f.name] = _config_int(value, f"{section}.{f.name}")
            elif f.default is None:
                values[f.name] = None if value is None else tuple(value)
            else:
                values[f.name] = type(f.default)(value)
        return cls(**values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {section}: {exc}") from exc


def scenario_from_config(cfg: dict) -> ScenarioConfig:
    """The scenario, refused when its composition table is over budget:
    every command but verify solves over that table."""
    scenario = _dataclass_from_config(cfg, "scenario")
    try:
        table_rows(scenario.n_eaps, scenario.k_types)
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    return scenario


def solver_from_config(cfg: dict) -> SolverConfig:
    solver = _dataclass_from_config(cfg, "solver")
    k = scenario_from_config(cfg).k_types
    if solver.init_q is not None and len(solver.init_q) != k:
        raise ConfigError(f"solver.init_q must hold one value per type ({k}), got {len(solver.init_q)}")
    return solver


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _fmt(cell) -> str:
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_manifest(out_dir: Path, command: str, cfg: dict, outputs: list[str], extra: dict | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "command": command,
        "seed": cfg["scenario"]["rng_seed"],
        "rng_algorithm": RNG_ALGORITHM,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_echo": cfg,
        "output_paths": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _contract_rows(profile: TypeProfile, contract: Contract):
    for idx, (theta, item) in enumerate(zip(profile.thetas, contract.items), start=1):
        yield idx, theta, item.q, item.pi


def _solve_record(gamma: float, result) -> dict:
    return {
        "gamma": float(gamma),
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "converged": result.converged,
    }


def _resolve_gamma(cfg_value, default: float, name: str) -> float:
    """The one check for every gamma field: null takes the default derived
    from the scenario, and either value must be a positive finite number."""
    if cfg_value is None:
        return _positive_finite(default, f"{name} (derived from the scenario)")
    return _positive_finite(cfg_value, name)


def _solve_once(cfg: dict, gamma_key: str):
    scenario = scenario_from_config(cfg)
    profile = build_type_ladder(scenario)
    gamma = _resolve_gamma(cfg[gamma_key]["gamma"], reference_gamma(scenario), f"{gamma_key}.gamma")
    cfg[gamma_key]["gamma"] = gamma
    result = solve(profile, gamma, bandwidth_mbps(scenario), scenario.n_eaps, solver_from_config(cfg))
    return scenario, profile, gamma, result


def cmd_solve(cfg: dict, out_dir: Path) -> int:
    tol = _positive_finite(cfg["solve"]["tol"], "solve.tol")
    scenario, profile, gamma, result = _solve_once(cfg, "solve")
    report = verify_contract(result.contract, profile, tol)

    _write_csv(out_dir / "contract.csv", CONTRACT_COLUMNS, _contract_rows(profile, result.contract))
    payload = report.to_dict()
    payload["solver"] = {
        "gamma": gamma,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "kkt_residual": result.kkt_residual,
        "monotone": result.monotone,
    }
    _write_json(out_dir / "feasibility.json", payload)
    _write_json(out_dir / "config_echo.json", cfg)
    record = {"solve": {"solve_results": [_solve_record(gamma, result)]}}
    _write_manifest(out_dir, "solve", cfg, ["contract.csv", "feasibility.json", "config_echo.json"], record)

    if not result.converged:
        print(f"solver did not converge (residual {result.kkt_residual:g})", file=sys.stderr)
        return EXIT_SOLVER
    if not result.monotone or not report.feasible:
        print(f"contract failed feasibility (min slack {report.min_slack:g})", file=sys.stderr)
        return EXIT_FEASIBILITY
    print(f"solved {profile.k}-type menu at gamma={gamma:g}; objective {result.objective:.6g}")
    return EXIT_OK


def cmd_sweep(cfg: dict, out_dir: Path) -> int:
    scenario = scenario_from_config(cfg)
    sweep_cfg = cfg["sweep"]
    lo, hi = gamma_range(scenario)
    gamma_min = _resolve_gamma(sweep_cfg["gamma_min"], lo, "sweep.gamma_min")
    gamma_max = _resolve_gamma(sweep_cfg["gamma_max"], hi, "sweep.gamma_max")
    steps = _config_int(sweep_cfg["gamma_steps"], "sweep.gamma_steps")
    if steps < 1:
        raise ConfigError("sweep.gamma_steps must be at least 1")
    if gamma_min > gamma_max:
        raise ConfigError(f"invalid gamma range [{gamma_min}, {gamma_max}]")
    sweep_cfg.update({"gamma_min": gamma_min, "gamma_max": gamma_max, "gamma_steps": steps})
    grid = np.linspace(gamma_min, gamma_max, steps)

    try:
        sweep = run_sweep(scenario, grid, solver_from_config(cfg))
    except SweepError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SOLVER

    _write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, sweep.rows())
    _write_json(out_dir / "config_echo.json", cfg)
    solve_results = [_solve_record(g, r) for g, r in zip(sweep.gamma_grid, sweep.solve_results)]
    _write_manifest(
        out_dir, "sweep", cfg, ["sweep.csv", "config_echo.json"], {"sweep": {"solve_results": solve_results}}
    )
    print(f"swept {steps} gamma points over [{gamma_min:g}, {gamma_max:g}]")
    return EXIT_OK


def cmd_curves(cfg: dict, out_dir: Path) -> int:
    probes = cfg["curves"]["probe_types"]
    if probes is not None:
        if not isinstance(probes, list):
            raise ConfigError(f"curves.probe_types must be a list of type indices, got {probes!r}")
        probes = [_config_int(t, f"curves.probe_types[{i}]") for i, t in enumerate(probes)]
    scenario, profile, gamma, result = _solve_once(cfg, "curves")
    if not result.converged:
        print(f"solver did not converge (residual {result.kkt_residual:g})", file=sys.stderr)
        return EXIT_SOLVER
    if probes is None:
        probes = list(range(1, profile.k + 1))
    cfg["curves"]["probe_types"] = probes
    try:
        table = utility_curves(result.contract, profile, probes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rows = [
        (probe, item_idx + 1, table[row_idx, item_idx])
        for row_idx, probe in enumerate(probes)
        for item_idx in range(profile.k)
    ]
    _write_csv(out_dir / "curves.csv", CURVE_COLUMNS, rows)
    _write_csv(out_dir / "contract.csv", CONTRACT_COLUMNS, _contract_rows(profile, result.contract))
    _write_json(out_dir / "config_echo.json", cfg)
    _write_manifest(out_dir, "curves", cfg, ["curves.csv", "contract.csv", "config_echo.json"])
    print(f"wrote {len(rows)} utility rows for {len(probes)} probe types")
    return EXIT_OK


def read_contract_csv(path: str | Path) -> tuple[TypeProfile, Contract]:
    """Load a contract table; the theta column makes the file self-contained."""
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != CONTRACT_COLUMNS:
                raise ConfigError(
                    f"{path}: expected columns {CONTRACT_COLUMNS}, got {reader.fieldnames}"
                )
            rows = [(float(r["theta"]), float(r["q"]), float(r["pi"])) for r in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read contract {path}: {exc}") from exc
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


def cmd_verify(cfg: dict, out_dir: Path, contract_path: str) -> int:
    tol = _positive_finite(cfg["solve"]["tol"], "solve.tol")
    profile, contract = read_contract_csv(contract_path)
    report = verify_contract(contract, profile, tol)
    _write_json(out_dir / "feasibility.json", report.to_dict())
    _write_manifest(out_dir, "verify", cfg, ["feasibility.json"], {"contract_path": str(contract_path)})
    if not report.feasible:
        print(f"contract infeasible (min slack {report.min_slack:g})", file=sys.stderr)
        return EXIT_FEASIBILITY
    print(f"contract feasible (min slack {report.min_slack:g})")
    return EXIT_OK


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
        if args.command == "sweep":
            for key in ("gamma_min", "gamma_max", "gamma_steps"):
                value = getattr(args, key)
                if value is not None:
                    cfg["sweep"][key] = value

        out_dir = Path(args.out or os.environ.get(ENV_OUT_DIR) or "out")
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        if args.command == "curves":
            return cmd_curves(cfg, out_dir)
        return cmd_verify(cfg, out_dir, args.contract)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
