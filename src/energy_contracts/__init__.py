"""Contract design and benchmarking for wireless-charging energy markets.

One data collector buys received power from N self-interested charger nodes
whose quality (channel gain and energy cost) is private. The package computes
the optimal screening menu of (received power, reward) items, verifies its
feasibility exhaustively, and benchmarks it against the full-information
optimum and a uniform-price scheme across channel-quality sweeps.

The public names are served on demand from the module that defines them, so
importing the package, or the CLI, loads no numpy until a name needs it.
"""

import importlib

__version__ = "0.12.0"

# public name -> the module that defines it
_EXPORTS = {
    "CompleteInfoSolution": "baselines",
    "LinearPricingSolution": "baselines",
    "complete_info_contract": "baselines",
    "complete_info_lambda": "baselines",
    "expected_complete_info_welfare": "baselines",
    "linear_expected_dap_utility": "baselines",
    "linear_expected_social_welfare": "baselines",
    "linear_pricing_optimize": "baselines",
    "composition_table": "compositions",
    "expected_dap_utility": "compositions",
    "expected_social_welfare": "compositions",
    "FeasibilityReport": "feasibility",
    "brute_force_best_contract": "feasibility",
    "check_ic": "feasibility",
    "check_ir": "feasibility",
    "verify_contract": "feasibility",
    "Contract": "market",
    "ContractItem": "market",
    "TypeProfile": "market",
    "dap_utility": "market",
    "eap_utility": "market",
    "social_welfare": "market",
    "throughput": "market",
    "ScenarioConfig": "scenario",
    "SweepError": "scenario",
    "SweepResult": "scenario",
    "bandwidth_mbps": "scenario",
    "build_type_ladder": "scenario",
    "channel_gain": "scenario",
    "default_gamma_grid": "scenario",
    "gamma_range": "scenario",
    "monte_carlo_expected_welfare": "scenario",
    "reference_gamma": "scenario",
    "run_sweep": "scenario",
    "utility_curves": "scenario",
    "SolveResult": "solver",
    "expected_quadratic_coefficients": "solver",
    "quadratic_coefficients": "solver",
    "reduced_objective": "solver",
    "reward_recovery": "solver",
    "solve": "solver",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, read from its module at each lookup (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
