import math
import re
import time

import numpy as np
import pytest

from energy_contracts import (
    Contract,
    ScenarioConfig,
    SweepError,
    TypeProfile,
    bandwidth_mbps,
    build_type_ladder,
    channel_gain,
    default_gamma_grid,
    expected_social_welfare,
    gamma_range,
    monte_carlo_expected_welfare,
    reference_gamma,
    run_sweep,
    solve,
    solver,
    utility_curves,
)

# the path loss of the reference setup: exponent 2, 30 dB at 1 m
PATH_LOSS = (ScenarioConfig().path_loss_alpha, ScenarioConfig().ref_atten_db)


def milliwatt_ladder(cfg: ScenarioConfig) -> TypeProfile:
    """cfg's ladder with q in mW rather than uW: theta = G^2/a scales with the square of the power unit, and the
    SNR slope with its inverse, so the mW slope is 1e3 times the uW one."""
    return TypeProfile(1e-6 * build_type_ladder(cfg).as_array())


class TestChannelGain:
    def test_reference_distance(self):
        # 30 dB attenuation at 1 m
        assert channel_gain(1.0, *PATH_LOSS) == pytest.approx(1e-3, rel=1e-12)

    def test_ten_meters(self):
        assert channel_gain(10.0, *PATH_LOSS) == pytest.approx(1e-5, rel=1e-12)

    def test_five_meters(self):
        assert channel_gain(5.0, *PATH_LOSS) == pytest.approx(4e-5, rel=1e-12)

    def test_inside_reference_rejected(self):
        with pytest.raises(ValueError):
            channel_gain(0.5, *PATH_LOSS)


class TestTypeLadder:
    def test_reference_endpoints_milliwatt_units(self):
        thetas = milliwatt_ladder(ScenarioConfig()).as_array()
        assert thetas[0] == pytest.approx(1e-10, rel=1e-9)
        assert thetas[-1] == pytest.approx(1.6e-8, rel=1e-9)

    def test_reference_endpoints_microwatt_units(self):
        thetas = build_type_ladder(ScenarioConfig()).as_array()
        assert thetas[0] == pytest.approx(1e-4, rel=1e-9)
        assert thetas[-1] == pytest.approx(1.6e-2, rel=1e-9)

    def test_single_type_is_midpoint(self):
        cfg = ScenarioConfig(k_types=1)
        thetas = build_type_ladder(cfg).as_array()
        assert thetas[0] == pytest.approx((1e-4 + 1.6e-2) / 2, rel=1e-9)

    def test_ten_types_evenly_spaced(self):
        cfg = ScenarioConfig(k_types=10)
        thetas = build_type_ladder(cfg).as_array()
        assert thetas.size == 10
        assert np.all(np.diff(thetas) > 0)
        np.testing.assert_allclose(np.diff(thetas), np.diff(thetas)[0], rtol=1e-12)


class TestGammaRange:
    def test_reference_range(self):
        # in mW: the uW slope times 1e3
        lo, hi = (1e3 * gamma for gamma in gamma_range(ScenarioConfig()))
        assert lo == pytest.approx(80.0, rel=1e-12)
        assert hi == pytest.approx(0.5 * (1e-3 / 225.0) / 1e-8, rel=1e-12)

    def test_microwatt_scaling(self):
        # eta * G / N0 with N0 in mW is the slope per mW of q; per uW it is 1e-3 times that
        cfg = ScenarioConfig()
        lo_mw, hi_mw = (cfg.eta * channel_gain(d, *PATH_LOSS) / cfg.noise_mw for d in cfg.d_as_range[::-1])
        lo_uw, hi_uw = gamma_range(cfg)
        assert lo_uw == pytest.approx(lo_mw / 1e3, rel=1e-12)
        assert hi_uw == pytest.approx(hi_mw / 1e3, rel=1e-12)

    def test_no_harvesting_limit(self):
        lo, hi = gamma_range(ScenarioConfig(eta=0.0))
        assert lo == 0.0 and hi == 0.0

    def test_reference_gamma_is_midpoint_distance(self):
        gamma_mw = 1e3 * reference_gamma(ScenarioConfig())
        assert gamma_mw == pytest.approx(0.5 * channel_gain(20.0, *PATH_LOSS) / 1e-8, rel=1e-12)

    def test_bandwidth_reported_in_mbps_units(self):
        assert bandwidth_mbps(ScenarioConfig()) == 1.0


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_types": 0},
            {"n_eaps": -1},
            {"a_range": (1.0, 0.1)},
            {"d_ms_range": (0.0, 10.0)},
            {"path_loss_alpha": 0.0},
            {"eta": 1.5},
            {"noise_mw": 0.0},
            {"eta": True},
            {"a_range": (1e-320, 1.0)},
            {"d_ms_range": (0.5, 10.0)},
            {"ref_atten_db": float("nan")},
            {"bandwidth_hz": float("inf")},
            {"noise_mw": 10**400},
            {"bandwidth_hz": 1e-320},  # positive, but W = bandwidth_hz / 1e6 underflows to 0
            {"k_types": 1, "d_ms_range": (5.0, 1e200)},  # the weakest theta underflows to 0, also at K=1
            {"ref_atten_db": 1580},  # the weakest theta, 1e-314, is subnormal
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"n_eaps": 2.5, "k_types": 3}, "n_eaps 2.5"),
            ({"n_eaps": True}, "n_eaps True"),
            ({"k_types": np.True_}, "k_types"),
            ({"k_types": "3"}, "k_types '3'"),
            ({"rng_seed": 1.5}, "rng_seed 1.5"),
            ({"rng_seed": math.nan}, "rng_seed nan"),
        ],
    )
    def test_counts_must_be_integers(self, kwargs, named):
        # refused on construction, not with a TypeError deep in the table or the ladder; an
        # integral number of any type is kept as an int
        with pytest.raises(ValueError, match=f"^{named}.* is not an integer$"):
            ScenarioConfig(**kwargs)
        cfg = ScenarioConfig(n_eaps=np.int64(3), k_types=3.0, rng_seed=np.uint32(7))
        assert [(type(v), v) for v in (cfg.n_eaps, cfg.k_types, cfg.rng_seed)] == [(int, 3), (int, 3), (int, 7)]


    def test_values_take_their_defaults_types(self):
        # a JSON list is stored as a tuple of floats and an integral number as a float, so the config is hashable
        cfg = ScenarioConfig(a_range=[0.1, 1], bandwidth_hz=10**6)
        assert cfg == ScenarioConfig() and hash(cfg) == hash(ScenarioConfig())
        assert type(cfg.a_range) is tuple and type(cfg.bandwidth_hz) is float
        assert [type(bound) for bound in cfg.a_range] == [float, float]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eta": "x"}, "eta 'x' is not a finite number"),
            ({"bandwidth_hz": None}, "bandwidth_hz None is not a finite number"),
            ({"a_range": 5}, "a_range 5 is not a [low, high] pair"),
            ({"d_as_range": (15.0, 20.0, 25.0)}, "d_as_range must be a finite positive nonempty"),
            # each entry is converted here, not compared as it is against the bounds
            ({"a_range": ["a", 1.0]}, "a_range[0] 'a' is not a finite number"),
            ({"d_ms_range": [5.0, None]}, "d_ms_range[1] None is not a finite number"),
            ({"d_as_range": "12"}, "d_as_range '12' is not a [low, high] pair"),
            # a bool and an int past the float range are numbers, but no real
            ({"path_loss_alpha": True}, "path_loss_alpha True is not a finite number"),
            pytest.param({"ref_atten_db": 10**400}, f"ref_atten_db {10**400} is not a finite number", id="10**400"),
        ],
    )
    def test_unconvertible_values_name_their_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ScenarioConfig(**kwargs)

    def test_default_grid_needs_a_point(self):
        with pytest.raises(ValueError, match="at least 1"):
            default_gamma_grid(ScenarioConfig(), 0)


class TestUnitInvariance:
    def test_solution_invariant_under_power_unit(self):
        cfg = ScenarioConfig()
        gamma_uw = reference_gamma(cfg)
        res_uw = solve(build_type_ladder(cfg), gamma_uw, 1.0, cfg.n_eaps)
        res_mw = solve(milliwatt_ladder(cfg), 1e3 * gamma_uw, 1.0, cfg.n_eaps)
        assert res_uw.converged and res_mw.converged
        assert res_uw.objective == pytest.approx(res_mw.objective, rel=1e-9)
        np.testing.assert_allclose(res_uw.contract.qs, 1e3 * res_mw.contract.qs, rtol=1e-5)
        np.testing.assert_allclose(res_uw.contract.pis, res_mw.contract.pis, rtol=1e-5, atol=1e-18)

    def test_sweep_welfare_invariant_under_power_unit(self):
        grid_steps = 3
        grid = default_gamma_grid(ScenarioConfig(), grid_steps)
        sweep_uw = run_sweep(ScenarioConfig(), grid)
        # run_sweep builds its own ladder: an a 1e6 times dearer scales theta = G^2/a as q in mW would
        cfg_mw = ScenarioConfig(a_range=(1e5, 1e6))
        mw_thetas = milliwatt_ladder(ScenarioConfig()).as_array()
        np.testing.assert_allclose(build_type_ladder(cfg_mw).as_array(), mw_thetas, rtol=1e-15)
        sweep_mw = run_sweep(cfg_mw, 1e3 * grid)
        # iterative searches stop at slightly different points per unit system
        # (absolute tolerances), so iterated quantities agree to ~1e-6 while
        # the closed-form benchmark agrees to full precision
        np.testing.assert_allclose(sweep_uw.welfare_contract, sweep_mw.welfare_contract, rtol=1e-8)
        np.testing.assert_allclose(sweep_uw.welfare_complete, sweep_mw.welfare_complete, rtol=1e-9)
        np.testing.assert_allclose(sweep_uw.welfare_linear, sweep_mw.welfare_linear, rtol=1e-6)


class TestRunSweep:
    def test_reference_sweep_properties(self):
        cfg = ScenarioConfig()
        sweep = run_sweep(cfg, default_gamma_grid(cfg, 5))
        assert all(r.converged for r in sweep.solve_results)
        # upper bound and ordering at every grid point
        assert np.all(sweep.welfare_complete - sweep.welfare_contract >= -1e-8)
        assert np.all(sweep.welfare_contract - sweep.welfare_linear >= -1e-8)
        # all three curves rise with gamma
        for series in (sweep.welfare_contract, sweep.welfare_complete, sweep.welfare_linear):
            assert np.all(np.diff(series) >= -1e-9)
        assert np.all(sweep.normalized_contract <= 1.0 + 1e-9)
        assert np.all(sweep.normalized_linear <= 1.0 + 1e-9)
        assert np.all(sweep.normalized_contract >= 0.0)
        assert np.all(sweep.normalized_linear >= 0.0)

    def test_rows_align_with_arrays(self):
        cfg = ScenarioConfig()
        sweep = run_sweep(cfg, default_gamma_grid(cfg, 3))
        rows = sweep.rows()
        assert len(rows) == 3
        assert rows[1][0] == sweep.gamma_grid[1]
        assert rows[2][4] == sweep.normalized_contract[2]

    def test_deterministic_repeat(self):
        cfg = ScenarioConfig()
        grid = default_gamma_grid(cfg, 3)
        first = run_sweep(cfg, grid)
        second = run_sweep(cfg, grid)
        np.testing.assert_array_equal(first.welfare_contract, second.welfare_contract)
        np.testing.assert_array_equal(first.welfare_linear, second.welfare_linear)

    def test_small_gamma_sweep_keeps_first_best_on_top(self):
        # Far below the default range the full-information multiplier once
        # cancelled to 0, leaving first-best welfare at rounding noise below
        # the uniform-price welfare while the empty-market rule wrote 1.0
        # for both ratios.
        # The uniform price must also be resolved relative to its size there:
        # an absolute price tolerance once left the uniform-price share on
        # both sides of its 3/4 floor (0.7638 at 1e-9, 0.74993 at 1e-7) and
        # its welfare negative at 1e-150.
        sweep = run_sweep(ScenarioConfig(), [1e-9, 1e-7, 1e-5])
        assert np.all(sweep.welfare_complete > 0.0)
        assert np.all(sweep.welfare_complete >= sweep.welfare_contract)
        assert np.all(sweep.welfare_contract >= sweep.welfare_linear)
        for ratios in (sweep.normalized_contract, sweep.normalized_linear):
            assert np.all((ratios > 0.0) & (ratios < 1.0))
        assert np.all(sweep.normalized_linear >= 0.75)
        assert run_sweep(ScenarioConfig(), [1e-150]).welfare_linear[0] > 0.0

    def test_tiny_gamma_menu_stays_between_the_baselines(self):
        # At these gammas every gradient term is below _GRAD_TOL wherever q is,
        # so the gradient norm alone does not pin the menu: a solve stopped on
        # it alone returned q = 0 at 1e-20, and at 1e-12 kept the 1e-20 menu
        # it was warm-started from (contract welfare below uniform pricing)
        sweep = run_sweep(ScenarioConfig(), [1e-20, 1e-12])
        assert np.all(sweep.welfare_complete >= sweep.welfare_contract)
        assert np.all(sweep.welfare_contract >= sweep.welfare_linear)
        assert np.all(sweep.welfare_linear > 0.0)

    def test_underflowing_first_best_aborts_with_gamma(self):
        # at 1e-170 the first-best welfare underflows to 0 in a nonempty
        # market; that is no empty market, so no ratio of 1 is reported
        with pytest.raises(SweepError, match="first-best welfare") as excinfo:
            run_sweep(ScenarioConfig(), [1e-3, 1e-170])
        assert excinfo.value.gamma == 1e-170

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(ScenarioConfig(), [0.0, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        # grid.min() <= 0 let both through to the solve
        start = time.perf_counter()
        with pytest.raises(ValueError, match="finite"):
            run_sweep(ScenarioConfig(), [0.1, bad])
        assert time.perf_counter() - start < 0.1

    def test_empty_market_degenerates_cleanly(self):
        sweep = run_sweep(ScenarioConfig(n_eaps=0), [0.1, 0.2])
        np.testing.assert_array_equal(sweep.welfare_contract, np.zeros(2))
        np.testing.assert_array_equal(sweep.normalized_contract, np.ones(2))
        np.testing.assert_array_equal(sweep.normalized_linear, np.ones(2))

    def test_solver_failure_aborts_with_gamma(self, monkeypatch):
        # from the mean-field start, 10^2 times the reference takes 3 iterations
        cfg = ScenarioConfig()
        grid = np.array([1e2, 1e3, 1e4]) * reference_gamma(cfg)
        monkeypatch.setattr(solver, "_GRAD_TOL", 1e-14)
        monkeypatch.setattr(solver, "_MAX_ITERS", 1)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(cfg, grid)
        assert excinfo.value.gamma == pytest.approx(grid[0])

    def test_non_monotone_menu_aborts_with_gamma(self, monkeypatch):
        # the recovered menu is monotone for every uniform ladder, so the solve is told otherwise
        real_solve = solver.solve
        monkeypatch.setattr(solver, "solve", lambda *args: real_solve(*args)._replace(monotone=False))
        with pytest.raises(SweepError, match="not monotone") as excinfo:
            run_sweep(ScenarioConfig(), [0.125, 0.25])
        assert excinfo.value.gamma == 0.125

    def test_points_solve_independently(self):
        # every point starts from its own mean-field point, so its menu is solve's to the bit
        cfg = ScenarioConfig()
        grid = default_gamma_grid(cfg, 3)
        sweep = run_sweep(cfg, grid)
        profile = build_type_ladder(cfg)
        for gamma, res in zip(grid, sweep.solve_results):
            alone = solve(profile, gamma, bandwidth_mbps(cfg), cfg.n_eaps)
            np.testing.assert_array_equal(res.contract.qs, alone.contract.qs)
            np.testing.assert_array_equal(res.contract.pis, alone.contract.pis)


@pytest.fixture(scope="module")
def ten_type_solution():
    cfg = ScenarioConfig(n_eaps=5, k_types=10)
    profile = build_type_ladder(cfg)
    res = solve(profile, reference_gamma(cfg), bandwidth_mbps(cfg), cfg.n_eaps)
    assert res.converged
    return profile, res.contract


class TestUtilityCurves:

    def test_probe_rows_peak_on_own_item(self, ten_type_solution):
        profile, contract = ten_type_solution
        table = utility_curves(contract, profile, [3, 6, 9])
        for row, probe in zip(table, [3, 6, 9]):
            assert row[probe - 1] >= row.max() - 1e-12

    def test_bottom_type_peak_is_zero(self, ten_type_solution):
        profile, contract = ten_type_solution
        table = utility_curves(contract, profile, [1])
        assert table[0, 0] == 0.0

    def test_all_probes_diagonal_dominance(self, ten_type_solution):
        profile, contract = ten_type_solution
        table = utility_curves(contract, profile, range(1, 11))
        assert table.shape == (10, 10)
        for t in range(10):
            assert table[t, t] >= table[t].max() - 1e-12

    def test_probe_out_of_range(self, ten_type_solution):
        profile, contract = ten_type_solution
        with pytest.raises(ValueError, match="probe type"):
            utility_curves(contract, profile, [11])
        with pytest.raises(ValueError, match="probe type"):
            utility_curves(contract, profile, [0])

    @pytest.mark.parametrize("probe", [1.5, True, "2", math.nan])
    def test_probe_not_an_integer(self, ten_type_solution, probe):
        # 1.5 and True read type 1
        profile, contract = ten_type_solution
        with pytest.raises(ValueError, match="not an integer"):
            utility_curves(contract, profile, [probe])

    def test_contract_length_must_match_the_ladder(self, ten_type_solution):
        # it failed inside numpy: 'cannot reshape array of size 5 into shape (1,3)'
        profile, contract = ten_type_solution
        with pytest.raises(ValueError, match="contract length does not match the type ladder"):
            utility_curves(Contract(contract[:5]), TypeProfile(profile.thetas[:3]), [1])

    def test_integral_probes_of_any_number_type(self, ten_type_solution):
        profile, contract = ten_type_solution
        table = utility_curves(contract, profile, [np.int64(3), 6.0])
        np.testing.assert_array_equal(table, utility_curves(contract, profile, [3, 6]))


class TestMonteCarlo:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig()
        res = solve(build_type_ladder(cfg), reference_gamma(cfg), 1.0, cfg.n_eaps)
        a = monte_carlo_expected_welfare(cfg, res.contract, 500, rng_seed=7)
        b = monte_carlo_expected_welfare(cfg, res.contract, 500, rng_seed=7)
        assert a == b

    def test_single_type_single_sample_exact(self):
        cfg = ScenarioConfig(k_types=1, n_eaps=3)
        profile = build_type_ladder(cfg)
        res = solve(profile, reference_gamma(cfg), 1.0, cfg.n_eaps)
        estimate, stderr = monte_carlo_expected_welfare(cfg, res.contract, 1)
        exact = expected_social_welfare(
            res.contract.qs, profile, reference_gamma(cfg), 1.0, cfg.n_eaps
        )
        assert stderr == 0.0
        assert estimate == pytest.approx(exact, rel=1e-12)

    def test_estimate_within_four_standard_errors(self):
        cfg = ScenarioConfig()
        profile = build_type_ladder(cfg)
        gamma = reference_gamma(cfg)
        res = solve(profile, gamma, 1.0, cfg.n_eaps)
        estimate, stderr = monte_carlo_expected_welfare(cfg, res.contract, 10_000)
        exact = expected_social_welfare(res.contract.qs, profile, gamma, 1.0, cfg.n_eaps)
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_contract_length_validated(self):
        cfg = ScenarioConfig()
        contract = Contract.from_arrays([1.0] * 4, [1.0] * 4)
        with pytest.raises(ValueError, match="does not match"):
            monte_carlo_expected_welfare(cfg, contract, 10)

    def test_empty_market_has_no_welfare(self):
        cfg = ScenarioConfig(n_eaps=0)
        contract = Contract.from_arrays([1.0] * 5, [1.0] * 5)
        assert monte_carlo_expected_welfare(cfg, contract, 10) == (0.0, 0.0)

    def test_sample_count_validated(self):
        cfg = ScenarioConfig()
        res = solve(build_type_ladder(cfg), reference_gamma(cfg), 1.0, cfg.n_eaps)
        with pytest.raises(ValueError):
            monte_carlo_expected_welfare(cfg, res.contract, 0)
