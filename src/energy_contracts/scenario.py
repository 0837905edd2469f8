"""Physical scenario construction and the sweep driver.

Turns deployment parameters (path loss, distances, cost ranges) into the
discrete type ladder and SNR-slope range the market modules consume, runs
the three mechanisms across an SNR-slope grid, and cross-validates the exact
expectation sums with a seeded Monte Carlo estimator.

Only the standard library is imported at module level, so the CLI reads the
config defaults without loading numpy: the functions that build arrays or run
the solver import numpy and those modules when called.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .market import Contract, TypeProfile, _integer, _real

if TYPE_CHECKING:
    import numpy as np

    from .solver import SolveResult

# q is carried in uW: theta = G^2/a is 1e6 and the SNR slope 1e-3 times its mW value. Every utility is unchanged,
# and the reference ladder spans 1e-4..1.6e-2 rather than 1e-10..1.6e-8, which keeps the solver well conditioned.
UW_PER_MW = 1e3

RNG_ALGORITHM = "pcg64"  # numpy default_rng; recorded in run metadata

DEFAULT_GAMMA_STEPS = 9  # points of the default SNR-slope grid


class _ScenarioConfig(NamedTuple):
    n_eaps: int = 2
    k_types: int = 5
    a_range: tuple[float, float] = (0.1, 1.0)
    d_ms_range: tuple[float, float] = (5.0, 10.0)
    d_as_range: tuple[float, float] = (15.0, 25.0)
    path_loss_alpha: float = 2.0
    ref_atten_db: float = 30.0
    eta: float = 0.5
    bandwidth_hz: float = 1e6
    noise_mw: float = 1e-8
    rng_seed: int = 20260808


def _as_field_type(name: str, value, default):
    """value as its field's type, the type of its default: a count through _integer, a real through _real and a
    range as a list of reals. ValueError naming the field for a value that has no such form."""
    if isinstance(default, int):
        return _integer(value, name)
    if isinstance(default, float):
        return _real(value, name)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} {value!r} is not a [low, high] pair")
    return tuple(_real(entry, f"{name}[{i}]") for i, entry in enumerate(value))


class ScenarioConfig(_ScenarioConfig):
    """Deployment and market parameters; defaults reproduce the reference
    simulation setup.

    Distances in meters, noise in mW, bandwidth in Hz; q is in uW (see
    UW_PER_MW). Ranges are inclusive [low, high] pairs. Each value is a count,
    stored as an int, or a finite real, stored as a float (a range as a tuple
    of two); the type ladder and SNR-slope range are built once here, so a
    config they cannot use is refused.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, *map(_as_field_type, self._fields, self, cls._field_defaults.values()))
        if self.n_eaps < 0:
            raise ValueError("n_eaps must be nonnegative")
        if self.k_types < 1:
            raise ValueError("k_types must be at least 1")
        for name in ("a_range", "d_ms_range", "d_as_range"):
            pair = getattr(self, name)
            if not (len(pair) == 2 and 0.0 < pair[0] <= pair[1]):
                raise ValueError(f"{name} must be a finite positive nonempty [low, high] pair")
        if self.path_loss_alpha <= 0.0:
            raise ValueError("path_loss_alpha must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.bandwidth_hz <= 0.0 or self.noise_mw <= 0.0:
            raise ValueError("bandwidth_hz and noise_mw must be positive")
        if bandwidth_mbps(self) == 0.0:
            raise ValueError(f"bandwidth_hz {self.bandwidth_hz} underflows to W = 0 Mbps")
        # building them is the check: TypeProfile validates theta, channel_gain the distances
        build_type_ladder(self)
        gamma_range(self)
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # checked, as market.TypeProfile's


def channel_gain(distance_m: float, alpha: float, ref_atten_db: float) -> float:
    """Log-distance path loss: 10^(-ref/10) * d^(-alpha).

    The reference attenuation is taken at 1 m; the model is invalid closer in.
    """
    if distance_m < 1.0:
        raise ValueError(f"distance must be at least the 1 m reference, got {distance_m}")
    try:
        return 10.0 ** (-ref_atten_db / 10.0) * distance_m ** (-alpha)
    except OverflowError:
        raise ValueError(f"ref_atten_db {ref_atten_db} overflows the path loss 10^(-ref/10)") from None


def build_type_ladder(cfg: ScenarioConfig) -> TypeProfile:
    """K equally spaced quality values spanning the physically attainable
    range.

    The weakest type pairs the longest charger distance with the highest
    energy cost, the strongest the shortest distance with the lowest cost.
    A single type sits at the range midpoint.
    """
    import numpy as np

    g_far = channel_gain(cfg.d_ms_range[1], cfg.path_loss_alpha, cfg.ref_atten_db)
    g_near = channel_gain(cfg.d_ms_range[0], cfg.path_loss_alpha, cfg.ref_atten_db)
    try:
        theta_min = g_far**2 / cfg.a_range[1] * UW_PER_MW * UW_PER_MW
        theta_max = g_near**2 / cfg.a_range[0] * UW_PER_MW * UW_PER_MW
    except OverflowError:
        theta_max = math.inf
    # theta_min <= theta_max; checked here so that linspace never sees inf
    if not math.isfinite(theta_max):
        raise ValueError(f"theta = G^2/a overflows: ref_atten_db {cfg.ref_atten_db} or a_range {cfg.a_range}")
    try:
        if theta_min < sys.float_info.min:  # 0 or subnormal, whose 1/theta overflows; refused at K=1 too
            raise ValueError(f"the weakest type value underflows to {theta_min:g}")
        if cfg.k_types == 1:
            return TypeProfile(((theta_min + theta_max) / 2.0,))
        return TypeProfile(tuple(np.linspace(theta_min, theta_max, cfg.k_types)))
    except ValueError as exc:  # TypeProfile's refusal, with the fields that set theta
        raise ValueError(
            f"{exc}: the K={cfg.k_types} ladder of theta = G^2/a from path_loss_alpha {cfg.path_loss_alpha}, "
            f"ref_atten_db {cfg.ref_atten_db}, d_ms_range {cfg.d_ms_range} and a_range {cfg.a_range}"
        ) from None


def _gamma_at(cfg: ScenarioConfig, distance_m: float) -> float:
    gain = channel_gain(distance_m, cfg.path_loss_alpha, cfg.ref_atten_db)
    return cfg.eta * gain / cfg.noise_mw / UW_PER_MW


def gamma_range(cfg: ScenarioConfig) -> tuple[float, float]:
    """SNR slope eta*G/N0 evaluated at the collector-distance endpoints
    (far end first, so the pair is ascending)."""
    return _gamma_at(cfg, cfg.d_as_range[1]), _gamma_at(cfg, cfg.d_as_range[0])


def reference_gamma(cfg: ScenarioConfig) -> float:
    """SNR slope at the midpoint collector distance; the single-point default."""
    return _gamma_at(cfg, 0.5 * (cfg.d_as_range[0] + cfg.d_as_range[1]))


def bandwidth_mbps(cfg: ScenarioConfig) -> float:
    """Bandwidth in the Mbps-valued rate units used by all utilities."""
    return cfg.bandwidth_hz / 1e6


def default_gamma_grid(cfg: ScenarioConfig, steps: int = DEFAULT_GAMMA_STEPS) -> np.ndarray:
    import numpy as np

    if steps < 1:
        raise ValueError("steps must be at least 1")
    lo, hi = gamma_range(cfg)
    return np.linspace(lo, hi, steps)


class SweepError(RuntimeError):
    """A sweep point failed to solve; carries the offending SNR slope."""

    def __init__(self, gamma: float, reason: str):
        super().__init__(f"sweep aborted at gamma={float(gamma)!r}: {reason}")
        self.gamma = gamma


class SweepResult(NamedTuple):
    """Per-gamma expected social welfare of the three mechanisms plus the
    ratios of the two implementable ones to the full-information bound."""

    gamma_grid: np.ndarray
    welfare_contract: np.ndarray
    welfare_complete: np.ndarray
    welfare_linear: np.ndarray
    normalized_contract: np.ndarray
    normalized_linear: np.ndarray
    solve_results: list[SolveResult]

    def rows(self) -> list[tuple[float, float, float, float, float, float]]:
        """One row of floats per grid point: the six array fields, in order."""
        return [tuple(map(float, row)) for row in zip(*self[:6])]


def run_sweep(cfg: ScenarioConfig, gamma_grid=None) -> SweepResult:
    """Solve all three mechanisms at every grid point.

    Grid points must be positive and finite. Every solve starts from its own
    mean-field point. Any non-converged or non-monotone solve, or a nonempty market
    whose first-best welfare underflows to zero, aborts the sweep with the
    failing gamma reported.
    """
    import numpy as np

    from . import baselines
    from .compositions import expected_social_welfare
    from .solver import solve

    grid = default_gamma_grid(cfg) if gamma_grid is None else np.asarray(gamma_grid, dtype=float)
    if grid.size == 0 or not (np.isfinite(grid).all() and grid.min() > 0.0):
        raise ValueError("gamma grid must be nonempty, positive and finite")
    profile = build_type_ladder(cfg)
    w = bandwidth_mbps(cfg)
    n = cfg.n_eaps

    contract_w = np.empty(grid.size)
    complete_w = np.empty(grid.size)
    linear_w = np.empty(grid.size)
    results: list[SolveResult] = []
    for i, gamma in enumerate(grid):
        res = solve(profile, gamma, w, n)
        if not res.converged:
            raise SweepError(gamma, f"solver stopped at residual {res.kkt_residual:g}")
        if not res.monotone:
            raise SweepError(gamma, "recovered menu is not monotone")
        results.append(res)
        contract_w[i] = expected_social_welfare(res.contract.qs, profile, gamma, w, n)
        complete_w[i] = baselines.expected_complete_info_welfare(profile, gamma, w, n)
        if n > 0 and not complete_w[i] > 0.0:
            raise SweepError(gamma, f"first-best welfare {complete_w[i]:g} is not positive")
        pricing = baselines.linear_pricing_optimize(profile, gamma, w, n)
        linear_w[i] = baselines.linear_expected_social_welfare(pricing.price, profile, gamma, w, n)

    if n == 0:
        # an empty market has zero welfare under every mechanism; call the ratio 1
        normalized_contract, normalized_linear = np.ones(grid.size), np.ones(grid.size)
    else:
        normalized_contract, normalized_linear = contract_w / complete_w, linear_w / complete_w
    return SweepResult(
        gamma_grid=grid,
        welfare_contract=contract_w,
        welfare_complete=complete_w,
        welfare_linear=linear_w,
        normalized_contract=normalized_contract,
        normalized_linear=normalized_linear,
        solve_results=results,
    )


def check_probe_types(probe_types, k: int) -> list[int]:
    """The 1-based probe types as ints; ValueError for a bool, a number that is not integral, or
    one outside 1..k."""
    probes = []
    for t in probe_types:
        probes.append(_integer(t, "probe type"))
        if not 1 <= probes[-1] <= k:
            raise ValueError(f"probe type {t} outside 1..{k}")
    return probes


def utility_curves(contract: Contract, profile: TypeProfile, probe_types) -> np.ndarray:
    """Utility table behind the self-reveal plots.

    Row t (for 1-based probe type t) holds pi_j - q_j^2/theta_t across all
    menu items j; a feasible menu peaks each row at its own index. ValueError
    for a probe type outside 1..K or a contract that is not one item per type.
    """
    import numpy as np

    from .feasibility import _utility_rows

    probes = check_probe_types(probe_types, profile.k)
    return np.array(list(_utility_rows(contract, profile, probes))).reshape(len(probes), profile.k)


def monte_carlo_expected_welfare(
    cfg: ScenarioConfig,
    contract: Contract,
    samples: int,
    rng_seed: int | None = None,
    gamma: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of the expected social
    welfare of a menu under i.i.d. uniform type assignment.

    Exists purely to cross-validate the exact enumeration; uses numpy's
    seeded PCG64 generator so estimates are reproducible.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be at least 1")
    profile = build_type_ladder(cfg)
    if len(contract) != profile.k:
        raise ValueError("contract length does not match the scenario ladder")
    gamma = reference_gamma(cfg) if gamma is None else gamma
    w = bandwidth_mbps(cfg)
    rng = np.random.default_rng(cfg.rng_seed if rng_seed is None else rng_seed)
    assignments = rng.integers(0, profile.k, size=(samples, cfg.n_eaps))
    q = contract.qs
    per_type_cost = q * q / profile.as_array()
    if cfg.n_eaps == 0:
        return 0.0, 0.0
    total_q = q[assignments].sum(axis=1)
    total_cost = per_type_cost[assignments].sum(axis=1)
    welfare = w * np.log2(1.0 + gamma * total_q) - total_cost
    estimate = float(welfare.mean())
    stderr = float(welfare.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return estimate, stderr
