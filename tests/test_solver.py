import csv
import math
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from energy_contracts import (
    Contract,
    ScenarioConfig,
    TypeProfile,
    bandwidth_mbps,
    build_type_ladder,
    composition_table,
    expected_dap_utility,
    expected_quadratic_coefficients,
    quadratic_coefficients,
    reduced_objective,
    reference_gamma,
    reward_recovery,
    solve,
)
from energy_contracts import compositions as compositions_module
from energy_contracts.compositions import rate_terms
from energy_contracts import solver as solver_module
from energy_contracts.solver import _ReducedProblem

LN2 = math.log(2.0)
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "bench" / "reference"


@st.composite
def ladders(draw, k_min=1, k_max=5):
    k = draw(st.integers(k_min, k_max))
    gaps = [draw(st.floats(0.1, 1.5)) for _ in range(k)]
    return TypeProfile(tuple(np.cumsum(gaps) + 0.2))


class TestRewardRecovery:
    def test_two_types(self):
        profile = TypeProfile((1.0, 2.0))
        # pi_2 = 1 + 4/2 - 1/2
        np.testing.assert_allclose(reward_recovery([1.0, 2.0], profile), [1.0, 2.5])

    def test_null_menu(self):
        profile = TypeProfile((1.0, 2.0, 3.0))
        np.testing.assert_array_equal(reward_recovery([0.0, 0.0, 0.0], profile), np.zeros(3))

    def test_single_type_binds(self):
        profile = TypeProfile((4.0,))
        np.testing.assert_allclose(reward_recovery([2.0], profile), [1.0])

    @pytest.mark.parametrize("q", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0], [1.0, math.nan, 3.0]])
    def test_one_usable_entry_per_type(self, q):
        # a short q gave 2 rewards for 3 types and a long one an IndexError
        with pytest.raises(ValueError, match="length 3|nonnegative and finite"):
            reward_recovery(q, TypeProfile((1.0, 2.0, 3.0)))

    @given(profile=ladders(), data=st.data())
    @settings(max_examples=150)
    def test_adjacent_indifference_binds(self, profile, data):
        k = profile.k
        q = np.array([data.draw(st.floats(0.0, 2.0)) for _ in range(k)])
        pi = reward_recovery(q, profile)
        thetas = profile.as_array()
        # bottom participation binds exactly
        assert pi[0] - q[0] ** 2 / thetas[0] == 0.0
        for i in range(1, k):
            own = pi[i] - q[i] ** 2 / thetas[i]
            below = pi[i - 1] - q[i - 1] ** 2 / thetas[i]
            assert abs(own - below) <= 1e-12 * max(1.0, abs(own), abs(below))

    @given(profile=ladders(k_min=2), data=st.data())
    @settings(max_examples=150)
    def test_monotone_q_gives_monotone_pi(self, profile, data):
        gaps = [data.draw(st.floats(0.0, 1.0)) for _ in range(profile.k)]
        q = np.cumsum(gaps)
        pi = reward_recovery(q, profile)
        assert np.all(np.diff(pi) >= -1e-12)


class TestQuadraticCoefficients:
    def test_single_type(self):
        profile = TypeProfile((2.0,))
        np.testing.assert_allclose(quadratic_coefficients(profile, [3]), [1.5])

    def test_two_types(self):
        profile = TypeProfile((1.0, 2.0))
        np.testing.assert_allclose(quadratic_coefficients(profile, [1, 1]), [1.5, 0.5])

    def test_matches_reward_bill_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.1, 1.0, k)) + 0.2))
            counts = rng.integers(0, 5, size=k)
            q = rng.uniform(0.0, 2.0, size=k)
            pi = reward_recovery(q, profile)
            bill = float(counts @ pi)
            quad = float(quadratic_coefficients(profile, counts) @ (q * q))
            assert abs(bill - quad) <= 1e-12 * max(1.0, abs(bill))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.1, 1.0, k)) + 0.1))
            counts = rng.integers(0, 4, size=k)
            assert quadratic_coefficients(profile, counts).min() >= 0.0

    def test_expected_matches_enumeration(self):
        profile = TypeProfile((0.7, 1.3, 2.9))
        for n in (1, 2, 4):
            oracle = sum(
                p * quadratic_coefficients(profile, counts)
                for counts, p in zip(*composition_table(n, 3))
            )
            np.testing.assert_allclose(
                expected_quadratic_coefficients(profile, n), oracle, rtol=1e-12
            )


class TestReducedObjective:
    def test_zero_point(self):
        profile = TypeProfile((1.0, 2.0))
        assert reduced_objective([0.0, 0.0], profile, 1.0, 1.0, 2) == 0.0

    def test_single_type_value(self):
        profile = TypeProfile((1.0,))
        value = reduced_objective([0.5], profile, 1.0, 1.0, 1)
        assert value == pytest.approx(math.log2(1.5) - 0.25, rel=1e-14)

    def test_negative_rejected(self):
        profile = TypeProfile((1.0,))
        with pytest.raises(ValueError):
            reduced_objective([-0.1], profile, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            reduced_objective([math.inf], profile, 1.0, 1.0, 1)

    def test_substitution_identity(self):
        rng = np.random.default_rng(17)
        for n, k in [(2, 2), (2, 5), (3, 3)]:
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.3))
            for _ in range(20):
                q = rng.uniform(0.0, 2.0, size=k)
                direct = expected_dap_utility(q, reward_recovery(q, profile), profile, 0.9, 1.2, n)
                reduced = reduced_objective(q, profile, 0.9, 1.2, n)
                assert abs(direct - reduced) <= 1e-10 * max(1.0, abs(direct))


class TestReducedGradient:
    def test_value_at_origin(self):
        profile = TypeProfile((1.0,))
        grad = _ReducedProblem(profile, 1.0, 1.0, 1).evaluate(np.zeros(1))[2]
        assert grad[0] == pytest.approx(1.0 / LN2, rel=1e-14)

    def test_finite_difference_match(self):
        rng = np.random.default_rng(23)
        for n, k in [(1, 1), (2, 3), (3, 2), (2, 5)]:
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.3))
            gamma, w = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)
            for _ in range(5):
                q = rng.uniform(0.1, 2.0, size=k)
                grad = _ReducedProblem(profile, gamma, w, n).evaluate(q)[2]
                for i in range(k):
                    h = 1e-6 * max(1.0, abs(q[i]))
                    up, down = q.copy(), q.copy()
                    up[i] += h
                    down[i] -= h
                    fd = (
                        reduced_objective(up, profile, gamma, w, n)
                        - reduced_objective(down, profile, gamma, w, n)
                    ) / (2 * h)
                    assert grad[i] == pytest.approx(fd, rel=1e-5)


class TestReducedHessian:
    def test_finite_difference_of_gradient(self):
        rng = np.random.default_rng(29)
        for n, k in [(1, 1), (2, 3), (3, 2), (4, 5)]:
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.3))
            gamma, w = rng.uniform(0.3, 20.0), rng.uniform(0.5, 2.0)
            # the split of (4, 5) reads composition_table(4, 4), its 35 rows built in blocks of 16,
            # a partial last block
            with mock.patch.object(compositions_module, "_BLOCK_ROWS", 16):
                problem = _ReducedProblem(profile, gamma, w, n)
            for _ in range(5):
                q = rng.uniform(0.1, 2.0, size=k)
                # at 5 pairs a block, (4, 5) cuts all its sums but the first into blocks, (3, 2)
                # reads its whole table, 4 rows, in one block, and (2, 3) its 6 rows in two
                with mock.patch.object(compositions_module, "_BLOCK_PAIRS", 5):
                    hess = problem.evaluate(q)[3]
                np.testing.assert_allclose(hess, hess.T, rtol=1e-14)
                for i in range(k):
                    h = 1e-6 * max(1.0, abs(q[i]))
                    up, down = q.copy(), q.copy()
                    up[i] += h
                    down[i] -= h
                    fd = (
                        problem.evaluate(up)[2] - problem.evaluate(down)[2]
                    ) / (2 * h)
                    np.testing.assert_allclose(hess[:, i], fd, rtol=1e-5, atol=1e-9 * np.abs(hess).max())

    def test_blocks_cover_every_row(self):
        # N=6, K=5 has 210 count vectors. Its split reads composition_table(6, 4), its 84 rows built
        # in blocks of 64, a partial last block. At 5 pairs a block every sum is cut into blocks,
        # across its b's for the first two and across its a's for the rest, and four of them end
        # in a partial block
        profile = TypeProfile((0.5, 1.0, 1.5, 2.0, 2.5))
        with mock.patch.object(compositions_module, "_BLOCK_ROWS", 64):
            problem = _ReducedProblem(profile, 3.0, 1.0, 6)
        q = np.linspace(0.2, 1.0, 5)
        counts, probs = composition_table(6, 5)
        counts = counts.astype(np.float64)
        s = counts @ q
        rate = float(probs @ np.log1p(3.0 * s)) / LN2
        grad = (3.0 / LN2) * (counts.T @ (probs / (1.0 + 3.0 * s))) - 2.0 * problem.exp_d * q
        weights = probs / (1.0 + 3.0 * s) ** 2
        hess = -(3.0**2 / LN2) * (counts.T @ (counts * weights[:, None]))
        hess -= np.diag(2.0 * problem.exp_d)
        with mock.patch.object(compositions_module, "_BLOCK_PAIRS", 5):
            blocked_rate, _, blocked_grad, blocked_hess = problem.evaluate(q)
        assert blocked_rate == pytest.approx(rate, rel=1e-13)
        np.testing.assert_allclose(blocked_grad, grad, rtol=1e-13)
        np.testing.assert_allclose(blocked_hess, hess, rtol=1e-13)


class TestSolve:
    def test_single_type_matches_root_oracle(self):
        # stationarity at K=N=W=gamma=theta=1: 2q(1+q) = 1/ln2
        oracle = brentq(lambda q: 2 * q * (1 + q) - 1 / LN2, 0.0, 2.0, xtol=1e-14)
        res = solve(TypeProfile((1.0,)), 1.0, 1.0, 1)
        assert res.converged
        assert res.contract.qs[0] == pytest.approx(oracle, abs=1e-6)

    def test_objective_beats_null_menu(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            profile = TypeProfile(tuple(np.cumsum(rng.uniform(0.2, 1.0, k)) + 0.2))
            res = solve(profile, rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), int(rng.integers(1, 4)))
            assert res.converged
            assert res.objective >= 0.0

    def test_kkt_residual_under_tolerance(self):
        res = solve(TypeProfile((0.5, 1.0, 2.0)), 1.2, 1.0, 3)
        assert res.converged
        assert res.kkt_residual <= solver_module._GRAD_TOL
        assert res.monotone

    def test_local_optimality_spot_check(self):
        rng = np.random.default_rng(41)
        profile = TypeProfile((0.5, 1.0, 2.0))
        res = solve(profile, 1.2, 1.0, 3)
        q_star = res.contract.qs
        f_star = reduced_objective(q_star, profile, 1.2, 1.0, 3)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction[q_star <= 0] = abs(direction[q_star <= 0])
            direction /= np.linalg.norm(direction)
            moved = np.maximum(q_star + 1e-4 * direction, 0.0)
            assert reduced_objective(moved, profile, 1.2, 1.0, 3) <= f_star + 1e-8

    def test_empty_market(self):
        res = solve(TypeProfile((1.0, 2.0)), 1.0, 1.0, 0)
        assert res.converged
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.contract.qs, np.zeros(2))

    @pytest.mark.parametrize("multiple", [1.0, 1e2, 1e4, 1e6, 1e10, 1e50, 1e290])
    def test_converges_across_saturation(self, multiple):
        cfg = ScenarioConfig(n_eaps=5, k_types=6)
        res = solve(build_type_ladder(cfg), multiple * reference_gamma(cfg), bandwidth_mbps(cfg), 5)
        assert res.converged
        assert res.kkt_residual <= solver_module._GRAD_TOL
        assert res.contract.qs.min() > 0.0
        assert res.monotone
        assert res.iterations <= 30

    def test_saturated_optimum_matches_reference(self):
        # the solve-saturated benchmark workload: N=10, K=10, gamma 10^3 times the reference;
        # the reference menu was written by the earlier gradient-ascent solver
        cfg = ScenarioConfig(n_eaps=10, k_types=10)
        res = solve(build_type_ladder(cfg), 125.0, bandwidth_mbps(cfg), 10)
        with open(REFERENCE_DIR / "solve-saturated.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        np.testing.assert_allclose(res.contract.qs, [float(r["q"]) for r in rows], rtol=1e-6)
        np.testing.assert_allclose(res.contract.pis, [float(r["pi"]) for r in rows], rtol=1e-6)

    @pytest.mark.parametrize("multiple", [1e-150, 1e-300])
    def test_tiny_gamma_converges_at_the_start(self, multiple):
        # as gamma -> 0 the mean-field start is the maximizer; from q = 1e-3
        # these took 62 and 127 iterations
        cfg = ScenarioConfig()
        res = solve(build_type_ladder(cfg), multiple * reference_gamma(cfg), bandwidth_mbps(cfg), 2)
        assert res.converged
        assert res.iterations == 0
        assert res.contract.qs.min() > 0.0

    def test_underflowing_gamma_gives_the_null_menu(self):
        # with q in mW (a ladder 1e-6 times the uW one) the maximizer at the smallest subnormal gamma
        # underflows to 0, as does the start
        cfg = ScenarioConfig()
        profile = TypeProfile(1e-6 * build_type_ladder(cfg).as_array())
        res = solve(profile, 5e-324, bandwidth_mbps(cfg), 2)
        assert res.converged
        np.testing.assert_array_equal(res.contract.qs, np.zeros(5))
        np.testing.assert_array_equal(res.contract.pis, np.zeros(5))

    def test_overflowing_rate_is_not_converged(self, monkeypatch):
        # an infinite rate is no optimum, whatever its gradient says, and gives the line search
        # no gain to compare: the solve stops there. solve refuses a gamma whose start overflows
        # (below), so the value each pass returns is made to overflow here
        def overflowing(split, q, gamma, derivatives):
            return (math.inf, *rate_terms(split, q, gamma, derivatives)[1:])

        cfg = ScenarioConfig()
        monkeypatch.setattr(solver_module, "rate_terms", overflowing)
        monkeypatch.setattr(solver_module, "_MAX_ITERS", 50)
        res = solve(build_type_ladder(cfg), reference_gamma(cfg), bandwidth_mbps(cfg), 2)
        assert not res.converged
        assert res.iterations == 0

    @pytest.mark.parametrize(
        "gamma, bandwidth_w, n_total, match",
        [
            *(pytest.param(gamma, 1.0, 2, "gamma must be positive and finite", id=str(gamma))
              for gamma in (0.0, -1.0, math.nan, math.inf)),
            # -1 raised 'math domain error' at the start, 2.5 a TypeError in numpy, a nan bandwidth blamed
            # gamma and an infinite one warned 'invalid value encountered in divide'
            pytest.param(1.0, 1.0, -1, "n_total must be nonnegative, got -1", id="n_total--1"),
            pytest.param(1.0, 1.0, 2.5, "n_total 2.5 is not an integer", id="n_total-2.5"),
            pytest.param(1.0, -1.0, 2, "bandwidth_w must be nonnegative, got -1.0", id="bandwidth_w--1"),
            pytest.param(1.0, math.nan, 2, "bandwidth_w nan is not a finite number", id="bandwidth_w-nan"),
            pytest.param(1.0, math.inf, 2, "bandwidth_w inf is not a finite number", id="bandwidth_w-inf"),
        ],
    )
    def test_unusable_gamma_refused(self, monkeypatch, gamma, bandwidth_w, n_total, match):
        # a gamma of 0 divided by zero at the start; -1, nan and inf each ran for over 20 s
        monkeypatch.setattr(solver_module, "split_table", None)  # refused before any table is built
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                solve(TypeProfile((1.0, 2.0, 3.0)), gamma, bandwidth_w, n_total)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("drop, monotone", [(0.5, True), (2.0, False)])
    def test_monotone_flag_is_relative(self, monkeypatch, drop, monotone):
        # the second reward sits below the first by `drop` times _MONO_RTOL of the largest reward
        recover = solver_module.reward_recovery

        def dipped(q, profile):
            pi = recover(q, profile)
            pi[1] = pi[0] - drop * solver_module._MONO_RTOL * pi.max()
            return pi

        monkeypatch.setattr(solver_module, "reward_recovery", dipped)
        res = solve(TypeProfile((0.5, 1.0, 2.0)), 1.2, 1.0, 3)
        assert res.converged and res.monotone is monotone

    def test_worthless_link_gives_the_zero_menu(self):
        # as complete_info_lambda treats W = 0: no rate to buy, so no power is bought
        res = solve(TypeProfile((1.0, 2.0, 3.0)), 1.0, 0.0, 2)
        assert res.converged and res.objective == 0.0
        assert res.contract == Contract.from_arrays([0.0] * 3, [0.0] * 3)

    def test_overflowing_gamma_refused_before_the_table(self, monkeypatch):
        # at gamma 1e308 and W = 1000, gamma N q overflows at the mean-field start: it warned
        # 'overflow encountered in multiply' and ran 10,000 iterations unconverged
        cfg = ScenarioConfig(bandwidth_hz=1e9)
        monkeypatch.setattr(solver_module, "split_table", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                solve(build_type_ladder(cfg), 1e308, bandwidth_mbps(cfg), 2)

    @pytest.mark.parametrize("bandwidth_hz, gamma", [(1e9, 2e307), (1e6, 1e308), (1e6, 1.7e308)])
    def test_gamma_near_the_float_limit_solves(self, bandwidth_hz, gamma):
        # gamma N alone overflows at gamma 1e308 and N = 2; gamma (N q) does not
        cfg = ScenarioConfig(bandwidth_hz=bandwidth_hz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(build_type_ladder(cfg), gamma, bandwidth_mbps(cfg), 2)
        assert res.converged and res.monotone

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        # N=3, K=2 at 10^4 times the reference takes 6 iterations from the mean-field start
        scenario = ScenarioConfig(n_eaps=3, k_types=2)
        monkeypatch.setattr(solver_module, "_GRAD_TOL", 1e-14)
        monkeypatch.setattr(solver_module, "_MAX_ITERS", 1)
        res = solve(build_type_ladder(scenario), 1e4 * reference_gamma(scenario), bandwidth_mbps(scenario), 3)
        assert not res.converged
        assert res.iterations == 1

    @pytest.mark.parametrize("n, k, gamma, passes", [(20, 8, None, 2), (10, 10, 125.0, 4)])
    def test_one_table_pass_per_point(self, monkeypatch, n, k, gamma, passes):
        # solve-large's market takes 1 iteration and solve-saturated's 3: one pass at the
        # start and one per candidate, which gives both its line-search value and the next Newton step.
        # A value pass and a Newton pass apart took 4 and 8
        cfg = ScenarioConfig(n_eaps=n, k_types=k)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rate_terms(*args, **kwargs)

        monkeypatch.setattr(solver_module, "rate_terms", counted)
        res = solve(build_type_ladder(cfg), gamma or reference_gamma(cfg), bandwidth_mbps(cfg), n)
        assert res.converged
        assert (len(calls), res.iterations) == (passes, passes - 1)

    def test_line_search_halves_an_overlong_step(self, monkeypatch):
        # no market the solver serves needs a halving from its exact Newton step, so a Hessian cut to a
        # quarter makes every step 4x Newton's: the line search halves it 7 times over 4 iterations
        profile = TypeProfile((1.0, 2.0, 3.0, 4.0, 5.0))
        exact = solve(profile, 1.0, 1.0, 3)
        evaluate = _ReducedProblem.evaluate
        calls = []

        def quartered(self, q):
            calls.append(q)
            rate, quad, grad, hess = evaluate(self, q)
            return rate, quad, grad, hess / 4.0

        monkeypatch.setattr(_ReducedProblem, "evaluate", quartered)
        res = solve(profile, 1.0, 1.0, 3)
        assert res.converged
        # one evaluate() call at the start and one per line search; each call past those is a halving
        assert len(calls) - 1 - res.iterations == 7
        np.testing.assert_allclose(res.contract.qs, exact.contract.qs, rtol=1e-14)


class TestMemory:
    def test_compact_table_and_block_sized_solve(self):
        # N=20, K=8: the solve reads composition_table(20, 5), 10,626 rows in 138 KB, and reuses it
        # from the cache. A float64 table of all 888,030 count vectors held 63.9 MB, and a solve
        # over it peaked 28.8 MB above it with its row-sized float64 temporaries
        cfg = ScenarioConfig(n_eaps=20, k_types=8)
        profile = build_type_ladder(cfg)
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            composition_table(20, 5)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            res = solve(profile, reference_gamma(cfg), bandwidth_mbps(cfg), 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.converged
        info = composition_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
        assert held < 0.2e6
        assert peak - held < 2e6

    def test_split_table_passes_peak_small(self):
        # N=20, K=8: over the whole table the problem held 14.2 MB and peaked at 14.9 MB; the split
        # table reads composition_table(20, 5), 10,626 rows, in blocks of at most 16,384 pairs
        cfg = ScenarioConfig(n_eaps=20, k_types=8)
        profile = build_type_ladder(cfg)
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            problem = _ReducedProblem(profile, reference_gamma(cfg), bandwidth_mbps(cfg), 20)
            q = np.linspace(0.2, 1.0, 8)
            problem.evaluate(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

