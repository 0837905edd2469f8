"""Acceptance suite: one test (or pair) per release criterion, each printing
a summary line. Tolerances are fixed here, not tuned at runtime.

Heavy artifacts (reference-scenario solutions, the default sweep) are built
once per module and shared.
"""

import csv
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from energy_contracts import (
    ScenarioConfig,
    TypeProfile,
    bandwidth_mbps,
    brute_force_best_contract,
    build_type_ladder,
    check_ic,
    check_ir,
    complete_info_contract,
    composition_table,
    expected_dap_utility,
    expected_social_welfare,
    monte_carlo_expected_welfare,
    reduced_objective,
    reference_gamma,
    reward_recovery,
    run_sweep,
    solve,
    utility_curves,
)
from energy_contracts.cli import main as cli_main
from energy_contracts.solver import _ReducedProblem
from helpers import random_local_ic_contract

LN2 = math.log(2.0)


def _reference_solution(n_eaps: int, k_types: int):
    cfg = ScenarioConfig(n_eaps=n_eaps, k_types=k_types)
    profile = build_type_ladder(cfg)
    res = solve(profile, reference_gamma(cfg), bandwidth_mbps(cfg), cfg.n_eaps)
    assert res.converged, f"reference solve (N={n_eaps}, K={k_types}) did not converge"
    return profile, res


@pytest.fixture(scope="module")
def reference_solutions():
    return {(5, 10): _reference_solution(5, 10), (2, 5): _reference_solution(2, 5)}


@pytest.fixture(scope="module")
def default_sweep():
    cfg = ScenarioConfig()
    return run_sweep(cfg)


class TestCriterion01Feasibility:
    def test_feasibility_suite(self, reference_solutions):
        for (n, k), (profile, res) in reference_solutions.items():
            ir = check_ir(res.contract, profile)
            ic = np.asarray(check_ic(res.contract, profile))
            off_diag = ic[~np.eye(k, dtype=bool)]
            assert np.min(ir) >= -1e-9, f"(N={n}, K={k}) IR violation {np.min(ir):.3e}"
            assert off_diag.min() >= -1e-9, f"(N={n}, K={k}) IC violation {off_diag.min():.3e}"
            assert abs(ir[0]) <= 1e-10, f"(N={n}, K={k}) bottom IR slack {ir[0]:.3e}"
            assert np.all(np.diff(res.contract.qs) >= 0.0), f"(N={n}, K={k}) q not monotone"
            assert np.all(np.diff(res.contract.pis) >= 0.0), f"(N={n}, K={k}) pi not monotone"
        print(
            "[criterion 1] PASS: IR/IC slacks >= -1e-9, bottom IR binds to 1e-10, "
            "q and pi monotone at (N=5, K=10) and (N=2, K=5)"
        )


class TestCriterion02SelfReveal:
    def test_every_type_peaks_at_own_item(self):
        tie_tol = 1e-12
        for k_types in range(1, 11):
            cfg = ScenarioConfig(n_eaps=5, k_types=k_types)
            profile = build_type_ladder(cfg)
            res = solve(profile, reference_gamma(cfg), bandwidth_mbps(cfg), cfg.n_eaps)
            assert res.converged
            table = utility_curves(res.contract, profile, range(1, k_types + 1))
            for t in range(k_types):
                row = table[t]
                maximizers = set(np.nonzero(row >= row.max() - tie_tol)[0])
                assert t in maximizers, f"K={k_types}: type {t + 1} prefers item {row.argmax() + 1}"
                allowed = {t - 1, t} if t > 0 else {t}
                assert maximizers <= allowed, (
                    f"K={k_types}: type {t + 1} ties with non-adjacent items {maximizers}"
                )
        print("[criterion 2] PASS: every type's utility peaks at its own item for K=1..10")


class TestCriterion03WelfareOrdering:
    def test_ordering_and_monotonicity(self, default_sweep):
        sweep = default_sweep
        gap_upper = sweep.welfare_complete - sweep.welfare_contract
        gap_lower = sweep.welfare_contract - sweep.welfare_linear
        assert gap_upper.min() >= -1e-8, f"complete < contract by {gap_upper.min():.3e}"
        assert gap_lower.min() >= -1e-8, f"contract < linear by {gap_lower.min():.3e}"
        for name, series in (
            ("contract", sweep.welfare_contract),
            ("complete", sweep.welfare_complete),
            ("linear", sweep.welfare_linear),
        ):
            assert np.all(np.diff(series) >= -1e-9), f"{name} welfare not nondecreasing"
        print(
            "[criterion 3] PASS: complete >= contract >= linear at all "
            f"{sweep.gamma_grid.size} grid points; all curves nondecreasing"
        )


class TestCriterion04NormalizedWelfare:
    def test_contract_share_of_first_best(self, default_sweep):
        ratios = default_sweep.normalized_contract
        average = float(ratios.mean())
        print(
            f"[criterion 4a] normalized contract welfare: mean {average:.4f}, "
            f"pointwise min {ratios.min():.4f}"
        )
        assert average >= 0.85
        print("[criterion 4a] PASS: gamma-averaged normalized contract welfare >= 0.85")

    def test_linear_share_of_first_best(self, default_sweep):
        # Uniform pricing's share of first-best welfare, checked against the
        # model rather than a constant. With c = W*gamma/ln2, sellers respond
        # q = P*theta/2 and the full-information multiplier tends to c/2 as
        # saturation vanishes, while the collector's best uniform price tends
        # to c/2 (seller slope c/4). The welfares then tend to c^2 E[T]/4 and
        # 3 c^2 E[T]/16, a ratio of exactly 3/4, and the ratio rises toward 1
        # as saturation grows. The criterion once capped this share at 0.50,
        # which no uniform price can reach under this model (0.50 is the
        # limit of the collector's utility ratio, not the welfare ratio). See
        # README, reproduction notes.
        #
        # The oracle below is independent of the baselines module: a
        # closed-form multiplier per realization and a brentq root of the
        # collector's first-order condition for the price. The program solves
        # the same condition by Newton's method on the distribution of T and
        # agrees to ~1e-15; 1e-7 also admits a price found by comparing
        # utility values (resolved to ~sqrt(eps) relative, ~1e-8 here) while
        # staying under 1% of the smallest departure from 3/4 on the default
        # grid (~2.3e-5).
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        w = bandwidth_mbps(cfg)
        counts, probs = composition_table(cfg.n_eaps, profile.k)
        t_total = counts @ profile.as_array()
        mean_t = float(probs @ t_total)
        oracle = np.empty(default_sweep.gamma_grid.size)
        for i, gamma in enumerate(default_sweep.gamma_grid):
            c = w * gamma / LN2
            lam = c / (1.0 + np.sqrt(1.0 + 2.0 * gamma * t_total * c))
            first_best = probs @ (w * np.log1p(gamma * lam * t_total) / LN2 - lam * lam * t_total)
            price = brentq(
                lambda p: probs @ ((c / 2.0) * t_total / (1.0 + gamma * p * t_total / 2.0))
                - p * mean_t,
                0.0,
                c / 2.0,
                xtol=1e-15 * c,
                rtol=4.0 * np.finfo(float).eps,
            )
            uniform = probs @ (w * np.log1p(gamma * price * t_total / 2.0) / LN2)
            uniform -= price * price * mean_t / 4.0
            oracle[i] = uniform / first_best

        ratios = default_sweep.normalized_linear
        gap = np.abs(ratios - oracle)
        print(
            f"[criterion 4b] normalized linear welfare: mean {ratios.mean():.6f}, "
            f"pointwise min {ratios.min():.6f}, pointwise max {ratios.max():.6f}, "
            f"worst gap to oracle {gap.max():.2e}"
        )
        assert np.all(gap <= 1e-7), (
            f"normalized linear welfare departs from the model oracle by up to {gap.max():.3e}"
        )
        assert np.all(ratios >= 0.75), f"pointwise min {ratios.min():.10f} below the 3/4 floor"
        assert np.all(ratios < 1.0), f"pointwise max {ratios.max():.10f} not below 1"
        print(
            f"[criterion 4b] PASS: mean {ratios.mean():.6f}, min {ratios.min():.6f}, "
            f"max {ratios.max():.6f}, worst gap to oracle {gap.max():.2e} <= 1e-7; "
            "3/4 <= ratio < 1 at all grid points"
        )


class TestCriterion05ObjectiveSubstitution:
    def test_reduced_objective_equals_direct_expectation(self):
        rng = np.random.default_rng(505)
        checked = 0
        for n, k in [(2, 2), (2, 5), (3, 3)]:
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.3))
            gamma, w = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)
            for _ in range(100):
                q = rng.uniform(0.0, 2.0, size=k)
                direct = expected_dap_utility(q, reward_recovery(q, profile), profile, gamma, w, n)
                reduced = reduced_objective(q, profile, gamma, w, n)
                assert abs(direct - reduced) <= 1e-10 * max(1.0, abs(direct), abs(reduced))
                checked += 1
        print(
            f"[criterion 5] PASS: reduced objective matches the substituted expectation "
            f"to 1e-10 relative on {checked} random menus"
        )


class TestCriterion06SolverOptimality:
    def test_grid_oracle_bounds_gap(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for k in (1, 2):
            for _ in range(3):
                profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.3, 1.0, k)) + 0.3))
                gamma = rng.uniform(0.4, 1.5)
                n = int(rng.integers(1, 4))
                res = solve(profile, gamma, 1.0, n)
                assert res.converged
                _, oracle_best = brute_force_best_contract(profile, gamma, 1.0, n)
                worst = max(worst, abs(res.objective - oracle_best))
                assert abs(res.objective - oracle_best) <= 1e-3
        print(f"[criterion 6] grid-oracle objective gap at K<=2: worst {worst:.2e} <= 1e-3")

    def test_scalar_closed_form(self):
        # stationarity at W = gamma = theta = N = 1: 2q(1+q) = 1/ln2
        oracle = brentq(lambda q: 2.0 * q * (1.0 + q) - 1.0 / LN2, 0.0, 2.0, xtol=1e-15)
        res = solve(TypeProfile((1.0,)), 1.0, 1.0, 1)
        assert res.converged
        error = abs(res.contract.qs[0] - oracle)
        assert error <= 1e-6, f"scalar optimum off by {error:.2e}"
        print(
            f"[criterion 6] scalar case: solver {res.contract.qs[0]:.8f} vs root "
            f"{oracle:.8f} (|err| {error:.1e} <= 1e-6)"
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(660)
        points = 0
        while points < 50:
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.3))
            gamma, w = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)
            q = rng.uniform(0.05, 2.0, size=k)
            grad = _ReducedProblem(profile, gamma, w, n).evaluate(q)[2]
            for i in range(k):
                h = 1e-6 * max(1.0, abs(q[i]))
                up, down = q.copy(), q.copy()
                up[i] += h
                down[i] -= h
                fd = (
                    reduced_objective(up, profile, gamma, w, n)
                    - reduced_objective(down, profile, gamma, w, n)
                ) / (2.0 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
            points += 1
        print("[criterion 6] PASS: analytic gradient matches central differences at 50 points")


class TestCriterion07CompleteInfoClosedForm:
    def test_lambda_against_numeric_maximization(self):
        rng = np.random.default_rng(707)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.2))
            counts = rng.integers(0, 4, size=k)
            if counts.sum() == 0:
                counts[rng.integers(0, k)] = 1
            gamma, w = rng.uniform(0.2, 3.0), rng.uniform(0.3, 2.0)
            sol = complete_info_contract(counts, profile, gamma, w)
            t_total = float(counts @ profile.as_array())

            def slope(lam):
                return w * gamma * t_total / (LN2 * (1.0 + gamma * lam * t_total)) - 2.0 * lam * t_total

            lam_numeric = brentq(slope, 0.0, w * gamma / (2.0 * LN2) + 1.0, xtol=1e-15)
            assert sol.lam == pytest.approx(lam_numeric, rel=1e-8)
            # full surplus extraction, bit-exact
            assert np.all(sol.pi == sol.q * sol.q / profile.as_array())
        print(
            "[criterion 7] PASS: closed-form multiplier matches numeric maximization to "
            "1e-8 relative on 100 instances; rewards extract the full surplus exactly"
        )


class TestCriterion08ProbabilityMachinery:
    def test_counts_and_normalization(self):
        cases = [(0, 1), (2, 2), (5, 10), (6, 4), (12, 10)]
        for n, k in cases:
            counts, probs = composition_table(n, k)
            assert counts.shape[0] == math.comb(n + k - 1, k - 1)
            assert abs(probs.sum() - 1.0) <= 1e-12, f"(N={n}, K={k}) sums to {probs.sum()!r}"
        assert composition_table(5, 10)[0].shape == (2002, 10)
        print("[criterion 8] enumeration counts and probability normalization verified")

    def test_monte_carlo_agrees_with_enumeration(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        gamma, w = reference_gamma(cfg), bandwidth_mbps(cfg)
        res = solve(profile, gamma, w, cfg.n_eaps)
        estimate, stderr = monte_carlo_expected_welfare(cfg, res.contract, 100_000)
        exact = expected_social_welfare(res.contract.qs, profile, gamma, w, cfg.n_eaps)
        assert abs(estimate - exact) <= 4.0 * stderr, (
            f"MC {estimate:.6e} vs exact {exact:.6e} beyond 4 SE ({stderr:.2e})"
        )
        print(
            f"[criterion 8] PASS: Monte Carlo at 1e5 samples within "
            f"{abs(estimate - exact) / stderr:.2f} SE of the enumerated value"
        )


class TestCriterion09ConstraintReductions:
    def test_local_ic_with_monotonicity_implies_full_ic(self):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            profile, contract = random_local_ic_contract(rng)
            assert np.min(check_ic(contract, profile)) >= -1e-9
        print(
            "[criterion 9] local truth-telling plus monotone rewards imply the full "
            "IC matrix on 1000 generated menus"
        )

    def test_full_ic_with_bottom_ir_implies_all_ir(self):
        rng = np.random.default_rng(919)
        for _ in range(1000):
            profile, contract = random_local_ic_contract(rng)
            ir = check_ir(contract, profile)
            assert np.min(check_ic(contract, profile)) >= -1e-9  # precondition, checked
            assert ir[0] >= -1e-12  # precondition: bottom type participates
            assert np.min(ir) >= -1e-9
        print(
            "[criterion 9] PASS: full IC plus bottom participation imply every "
            "participation constraint on 1000 generated menus"
        )


class TestCriterion10Determinism:
    def test_sweep_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["sweep", "--out", str(out_a)]) == 0
        assert cli_main(["sweep", "--out", str(out_b)]) == 0
        bytes_a = (out_a / "sweep.csv").read_bytes()
        bytes_b = (out_b / "sweep.csv").read_bytes()
        assert bytes_a == bytes_b
        with open(out_a / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9
        print("[criterion 10] PASS: repeated sweep runs produce byte-identical CSV output")
