import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from energy_contracts import baselines
from energy_contracts import (
    Contract,
    ScenarioConfig,
    TypeProfile,
    bandwidth_mbps,
    build_type_ladder,
    complete_info_contract,
    complete_info_lambda,
    composition_table,
    expected_complete_info_welfare,
    expected_social_welfare,
    linear_expected_dap_utility,
    linear_expected_social_welfare,
    linear_pricing_optimize,
    reduced_objective,
    reference_gamma,
    run_sweep,
    social_welfare,
    solve,
)

LN2 = math.log(2.0)


def price_slope(price, profile, gamma, w, n):
    """Central difference of linear_expected_dap_utility at a positive price."""
    h = 1e-6 * price
    up = linear_expected_dap_utility(price + h, profile, gamma, w, n)
    return (up - linear_expected_dap_utility(price - h, profile, gamma, w, n)) / (2.0 * h)


class TestTDistribution:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 5), (10, 10), (20, 8), (300, 3), (1000, 100)])
    def test_fft_pmf_matches_convolution(self, n, k):
        profile = build_type_ladder(ScenarioConfig(n_eaps=n, k_types=k))
        pmf = np.ones(1)
        for _ in range(n):  # the N-fold convolution of the uniform pmf on {0..K-1}
            pmf = np.convolve(pmf, np.full(k, 1.0 / k))
        _, p_atoms = baselines._t_distribution(profile, n)
        assert p_atoms.shape == pmf.shape
        assert np.abs(p_atoms - pmf).max() <= 1e-14
        assert p_atoms.min() >= 0.0  # the transform's negative tails are clipped

    @pytest.mark.parametrize("n,k", [(0, 3), (1, 1), (2, 5), (10, 10)])
    def test_lattice_matches_table(self, n, k):
        profile = build_type_ladder(ScenarioConfig(n_eaps=n, k_types=k))
        t_atoms, p_atoms = baselines._t_distribution(profile, n)
        assert t_atoms.size == n * (k - 1) + 1  # the lattice, not the table
        counts, probs = composition_table(n, k)
        t_rows = counts @ profile.as_array()
        for f in (np.ones_like, lambda t: t, lambda t: t * t, np.log1p, lambda t: 1.0 / (1.0 + t)):
            assert p_atoms @ f(t_atoms) == pytest.approx(probs @ f(t_rows), rel=1e-12)

    def test_a_sweep_builds_one_read_only_pmf(self):
        # four readers at each of the 9 default points share the one distribution of the ladder and N
        cfg = ScenarioConfig(n_eaps=10, k_types=10)
        baselines._t_distribution.cache_clear()
        run_sweep(cfg)
        info = baselines._t_distribution.cache_info()
        assert (info.misses, info.hits) == (1, 35)
        t_atoms, p_atoms = baselines._t_distribution(build_type_ladder(cfg), cfg.n_eaps)
        assert not t_atoms.flags.writeable and not p_atoms.flags.writeable
        uneven = baselines._t_distribution(TypeProfile((0.5, 1.0, 2.0)), 3)
        assert not any(array.flags.writeable for array in uneven)

    def test_uneven_ladder_reads_the_table(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        t_atoms, p_atoms = baselines._t_distribution(profile, 3)
        counts, probs = composition_table(3, 3)
        np.testing.assert_array_equal(t_atoms, counts @ profile.as_array())
        np.testing.assert_array_equal(p_atoms, probs)

    def test_uneven_ladder_forms_no_float_table(self):
        # N=20, K=8 has 888,030 count vectors in uint8: a float64 copy would take 56.8 MB, and atoms
        # concatenated from float64 blocks would peak at twice their own 7.1 MB
        profile = TypeProfile(tuple(0.1 * 1.3 ** np.arange(8)))
        counts, probs = composition_table(20, 8)
        tracemalloc.start()
        try:
            t_atoms, p_atoms = baselines._t_distribution(profile, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(t_atoms, counts.astype(np.float64) @ profile.as_array(), rtol=1e-14)
        assert p_atoms is probs
        assert peak <= 1.25 * t_atoms.nbytes


class TestCompleteInfo:
    def test_unit_lambda_matches_root_oracle(self):
        # lam (1 + lam) = 1 / (2 ln 2) at T = gamma = W = 1
        oracle = brentq(lambda lam: lam * (1 + lam) - 1 / (2 * LN2), 0.0, 2.0, xtol=1e-14)
        assert complete_info_lambda(1.0, 1.0, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_small_gamma_lambda_keeps_its_limit(self):
        # As gamma -> 0 the multiplier tends to W gamma / (2 ln 2). The
        # unrationalized root (sqrt(disc) - 1) / (2 gamma T) cancels to 0 here
        # under the default physics, because 2 gamma^2 T W / ln 2 is below
        # the float resolution of disc.
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        w = bandwidth_mbps(cfg)
        t_total = cfg.n_eaps * profile.as_array().max()
        gamma = 1e-9
        limit = w * gamma / (2.0 * LN2)
        assert complete_info_lambda(t_total, gamma, w) == pytest.approx(limit, rel=1e-12)

    def test_empty_market(self):
        profile = TypeProfile((1.0, 2.0))
        sol = complete_info_contract([0, 0], profile, 1.0, 1.0)
        assert sol.welfare == 0.0
        assert sol.lam == 0.0
        np.testing.assert_array_equal(sol.q, np.zeros(2))

    def test_counts_length_validated(self):
        with pytest.raises(ValueError, match="counts length"):
            complete_info_contract([1, 1, 1], TypeProfile((1.0, 2.0)), 1.0, 1.0)

    def test_quantities_proportional_to_type(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        sol = complete_info_contract([1, 2, 1], profile, 1.3, 0.8)
        np.testing.assert_allclose(sol.q, sol.lam * profile.as_array(), rtol=1e-14)

    def test_full_surplus_extraction_exact(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        sol = complete_info_contract([2, 0, 1], profile, 0.7, 1.1)
        thetas = profile.as_array()
        assert np.all(sol.pi == sol.q * sol.q / thetas)

    def test_welfare_matches_direct_evaluation(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        counts = [1, 3, 2]
        sol = complete_info_contract(counts, profile, 1.3, 0.8)
        contract = Contract.from_arrays(sol.q, sol.pi)
        direct = social_welfare(counts, contract, profile, 1.3, 0.8)
        assert sol.welfare == pytest.approx(direct, rel=1e-12)

    def test_closed_form_matches_numeric_ascent(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.2))
            counts = rng.integers(0, 4, size=k)
            if counts.sum() == 0:
                counts[0] = 1
            gamma, w = rng.uniform(0.2, 3.0), rng.uniform(0.3, 2.0)
            t_total = float(counts @ profile.as_array())

            # stationarity of w*log2(1 + gamma*lam*T) - lam^2*T in lam
            def welfare_slope(lam):
                return w * gamma * t_total / (LN2 * (1.0 + gamma * lam * t_total)) - 2.0 * lam * t_total

            lam_numeric = brentq(welfare_slope, 0.0, w * gamma / (2 * LN2) + 1.0, xtol=1e-14)
            lam_closed = complete_info_lambda(t_total, gamma, w)
            assert lam_closed == pytest.approx(lam_numeric, rel=1e-8)

    def test_dominates_screening_contract_per_realization(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        gamma, w = reference_gamma(cfg), bandwidth_mbps(cfg)
        res = solve(profile, gamma, w, cfg.n_eaps)
        for counts in composition_table(cfg.n_eaps, profile.k)[0]:
            upper = complete_info_contract(counts, profile, gamma, w).welfare
            attained = social_welfare(counts, res.contract, profile, gamma, w)
            assert upper >= attained - 1e-12


class TestExpectedCompleteInfoWelfare:
    def test_empty_market(self):
        profile = TypeProfile((1.0, 2.0))
        assert expected_complete_info_welfare(profile, 1.0, 1.0, 0) == 0.0

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_has_no_welfare(self, gamma):
        assert expected_complete_info_welfare(TypeProfile((1.0, 2.0)), gamma, 1.0, 3) == 0.0

    def test_single_type_equals_direct(self):
        profile = TypeProfile((1.5,))
        n = 3
        expected = expected_complete_info_welfare(profile, 0.9, 1.2, n)
        direct = complete_info_contract([n], profile, 0.9, 1.2).welfare
        assert expected == pytest.approx(direct, rel=1e-14)

    def test_matches_per_composition_oracle(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        n, gamma, w = 3, 1.1, 0.9
        oracle = sum(
            p * complete_info_contract(counts, profile, gamma, w).welfare
            for counts, p in zip(*composition_table(n, profile.k))
        )
        assert expected_complete_info_welfare(profile, gamma, w, n) == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_gamma(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        w = bandwidth_mbps(cfg)
        values = [
            expected_complete_info_welfare(profile, g, w, cfg.n_eaps)
            for g in np.linspace(0.05, 0.5, 8)
        ]
        assert np.all(np.diff(values) >= -1e-12)


class TestLinearPricing:
    def test_zero_gamma_degenerates(self):
        profile = TypeProfile((1.0, 2.0))
        sol = linear_pricing_optimize(profile, 0.0, 1.0, 2)
        assert sol.price == 0.0
        assert sol.expected_dap_utility == 0.0
        np.testing.assert_array_equal(sol.q_response, np.zeros(2))

    def test_best_response_is_seller_optimal(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        sol = linear_pricing_optimize(profile, 1.2, 1.0, 2)
        for theta, q in zip(profile.thetas, sol.q_response):
            surplus = sol.price * q - q * q / theta
            for bump in (1e-4, -1e-4):
                q_alt = q + bump
                assert sol.price * q_alt - q_alt * q_alt / theta < surplus

    def test_derivative_vanishes_at_optimum(self):
        for gamma in (0.125, 0.8, 3.0):
            profile = TypeProfile((0.5, 1.0, 2.0))
            sol = linear_pricing_optimize(profile, gamma, 1.0, 2)
            assert abs(price_slope(sol.price, profile, gamma, 1.0, 2)) <= 1e-6

    def test_price_zeroes_derivative_across_saturation(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        w, n = bandwidth_mbps(cfg), cfg.n_eaps
        mean_t = n / profile.k * profile.as_array().sum()
        counts, probs = composition_table(n, profile.k)
        t_rows = counts @ profile.as_array()
        for factor in np.logspace(-10, 9, 20):
            gamma = factor * reference_gamma(cfg)
            c = w * gamma / LN2
            price = linear_pricing_optimize(profile, gamma, w, n).price
            assert 0.0 < price <= c / 2.0 * (1.0 + 1e-15)  # the root tends to c/2 as gamma -> 0
            assert abs(price_slope(price, profile, gamma, w, n)) <= 1e-6 * (c / 2.0) * mean_t
            # the first-order condition summed over the table's rows, to the Newton stop's precision
            slope = (c / 2.0) * (probs @ (t_rows / (1.0 + gamma * (price / 2.0) * t_rows))) - price * mean_t
            assert abs(slope) <= 1e-12 * (c / 2.0) * mean_t

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(baselines, "_NEWTON_MAX_ITERS", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            linear_pricing_optimize(TypeProfile((1.0, 2.0)), 50.0, 1.0, 2)

    def test_social_welfare_matches_per_composition_oracle(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        n, gamma, w, price = 3, 1.1, 0.9, 0.4
        q = price * profile.as_array() / 2.0
        contract = Contract.from_arrays(q, price * q)
        oracle = sum(
            p * social_welfare(counts, contract, profile, gamma, w)
            for counts, p in zip(*composition_table(n, profile.k))
        )
        value = linear_expected_social_welfare(price, profile, gamma, w, n)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_dap_utility_accounts_full_payment(self):
        # payment is price * response, so utility = social welfare minus the
        # sellers' retained surplus (price^2 theta / 4 each on average)
        profile = TypeProfile((0.5, 1.0, 2.0))
        n, gamma, w, price = 2, 0.9, 1.3, 0.6
        thetas = profile.as_array()
        retained = (n / profile.k) * (price**2 * thetas / 4.0).sum()
        diff = linear_expected_social_welfare(price, profile, gamma, w, n) - linear_expected_dap_utility(
            price, profile, gamma, w, n
        )
        assert diff == pytest.approx(retained, rel=1e-12)


class TestMechanismOrdering:
    def test_reference_scenario_ordering(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        gamma, w, n = reference_gamma(cfg), bandwidth_mbps(cfg), cfg.n_eaps
        res = solve(profile, gamma, w, n)
        assert res.converged
        contract_welfare = expected_social_welfare(res.contract.qs, profile, gamma, w, n)
        complete_welfare = expected_complete_info_welfare(profile, gamma, w, n)
        pricing = linear_pricing_optimize(profile, gamma, w, n)
        linear_welfare = linear_expected_social_welfare(pricing.price, profile, gamma, w, n)
        assert complete_welfare >= contract_welfare - 1e-8
        assert contract_welfare >= linear_welfare - 1e-8


THREE_TYPES = TypeProfile((1.0, 2.0, 3.0))
# each function that sums an expectation over a market, called with (bandwidth_w, n_total) at gamma 1
MARKET_FUNCTIONS = {
    "expected_complete_info_welfare": lambda w, n: expected_complete_info_welfare(THREE_TYPES, 1.0, w, n),
    "linear_pricing_optimize": lambda w, n: linear_pricing_optimize(THREE_TYPES, 1.0, w, n),
    "linear_expected_dap_utility": lambda w, n: linear_expected_dap_utility(0.5, THREE_TYPES, 1.0, w, n),
    "linear_expected_social_welfare": lambda w, n: linear_expected_social_welfare(0.5, THREE_TYPES, 1.0, w, n),
    "reduced_objective": lambda w, n: reduced_objective([0.5] * 3, THREE_TYPES, 1.0, w, n),
    "expected_social_welfare": lambda w, n: expected_social_welfare([0.5] * 3, THREE_TYPES, 1.0, w, n),
}


class TestMarketSizeChecks:
    @pytest.mark.parametrize("name", MARKET_FUNCTIONS)
    @pytest.mark.parametrize("bandwidth_w, n_total", [(1.0, -1), (1.0, 2.5), (-1.0, 2), (math.nan, 2), (math.inf, 2)])
    def test_refused_as_solve_refuses(self, name, bandwidth_w, n_total):
        # -1 raised numpy's FFT error, a nan bandwidth gave nan welfare or a RuntimeError from the uniform
        # price, and 2.5 a TypeError in the objective
        with pytest.raises(ValueError) as refused:
            solve(THREE_TYPES, 1.0, bandwidth_w, n_total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                MARKET_FUNCTIONS[name](bandwidth_w, n_total)
        assert str(caught.value) == str(refused.value)
