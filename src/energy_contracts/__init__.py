"""Contract design and benchmarking for wireless-charging energy markets.

One data collector buys received power from N self-interested charger nodes
whose quality (channel gain and energy cost) is private. The package computes
the optimal screening menu of (received power, reward) items, verifies its
feasibility exhaustively, and benchmarks it against the full-information
optimum and a uniform-price scheme across channel-quality sweeps.
"""

__version__ = "0.4.0"

from .baselines import (
    CompleteInfoSolution,
    LinearPricingSolution,
    complete_info_contract,
    complete_info_lambda,
    expected_complete_info_welfare,
    linear_expected_dap_utility,
    linear_expected_social_welfare,
    linear_pricing_optimize,
)
from .compositions import (
    composition_table,
    expected_dap_utility,
    expected_social_welfare,
)
from .feasibility import (
    FeasibilityReport,
    GridConfig,
    brute_force_best_contract,
    check_ic,
    check_ir,
    check_self_reveal,
    verify_contract,
)
from .market import (
    Contract,
    ContractItem,
    TypeProfile,
    dap_utility,
    eap_utility,
    social_welfare,
    throughput,
)
from .scenario import (
    ScenarioConfig,
    SweepError,
    SweepResult,
    bandwidth_mbps,
    build_type_ladder,
    channel_gain,
    default_gamma_grid,
    gamma_range,
    monte_carlo_expected_welfare,
    reference_gamma,
    run_sweep,
    utility_curves,
)
from .solver import (
    SolveResult,
    expected_quadratic_coefficients,
    quadratic_coefficients,
    reduced_objective,
    reward_recovery,
    solve,
)
