import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from energy_contracts import feasibility
from energy_contracts import (
    Contract,
    TypeProfile,
    brute_force_best_contract,
    check_ic,
    check_ir,
    reduced_objective,
    solve,
    utility_curves,
    verify_contract,
)
from helpers import random_local_ic_contract


@pytest.fixture
def two_type_example():
    # hand-checked: slacks (0, 0.5), LDIC binds, LUIC slack 1.5
    profile = TypeProfile((1.0, 2.0))
    contract = Contract.from_arrays([1.0, 2.0], [1.0, 2.5])
    return profile, contract


class TestCheckIr:
    def test_null_contract(self):
        profile = TypeProfile((1.0, 2.0))
        contract = Contract.from_arrays([0.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(check_ir(contract, profile), np.zeros(2))

    def test_two_type_example(self, two_type_example):
        profile, contract = two_type_example
        np.testing.assert_allclose(check_ir(contract, profile), [0.0, 0.5])

    def test_length_mismatch(self):
        profile = TypeProfile((1.0, 2.0))
        with pytest.raises(ValueError):
            check_ir(Contract.from_arrays([1.0], [1.0]), profile)

    def test_solver_output_binds_bottom(self):
        profile = TypeProfile((0.5, 1.0, 2.0))
        res = solve(profile, 1.2, 1.0, 3)
        slacks = check_ir(res.contract, profile)
        assert slacks[0] == 0.0
        assert np.min(slacks) >= -1e-9


class TestCheckIc:
    def test_two_type_example(self, two_type_example):
        profile, contract = two_type_example
        slacks = check_ic(contract, profile)
        # high type indifferent to the item below; low type strictly prefers own
        assert slacks[1][0] == pytest.approx(0.0, abs=1e-15)
        assert slacks[0][1] == pytest.approx(1.5)

    def test_identical_items_all_zero(self):
        profile = TypeProfile((1.0, 2.0, 3.0))
        contract = Contract.from_arrays([1.0, 1.0, 1.0], [1.5, 1.5, 1.5])
        np.testing.assert_allclose(check_ic(contract, profile), np.zeros((3, 3)), atol=1e-15)

    def test_diagonal_identically_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            profile, contract = random_local_ic_contract(rng)
            assert np.all(np.diagonal(check_ic(contract, profile)) == 0.0)

    def test_utility_curves_reproduce_the_matrix(self):
        # both read one utility row per type: entry [k][j] is U[k][k] - U[k][j], bit for bit
        rng = np.random.default_rng(8)
        for _ in range(30):
            profile, contract = random_local_ic_contract(rng)
            utilities = utility_curves(contract, profile, range(1, profile.k + 1))
            expected = [[row[k] - u for u in row] for k, row in enumerate(utilities.tolist())]
            slacks = np.array(check_ic(contract, profile))
            np.testing.assert_array_equal(slacks.view(np.int64), np.array(expected).view(np.int64))

    def test_solver_output_full_matrix(self):
        profile = TypeProfile(tuple(np.linspace(0.5, 3.0, 6)))
        res = solve(profile, 0.9, 1.0, 4)
        slacks = np.asarray(check_ic(res.contract, profile))
        off_diag = slacks[~np.eye(6, dtype=bool)]
        assert off_diag.min() >= -1e-9
        # adjacent-down entries bind for solver output
        for k in range(1, 6):
            assert abs(slacks[k, k - 1]) <= 1e-12


class TestSelfReveal:
    def test_two_type_example(self, two_type_example):
        profile, contract = two_type_example
        assert all(verify_contract(contract, profile).self_reveal)

    def test_single_type_trivial(self):
        profile = TypeProfile((2.0,))
        contract = Contract.from_arrays([1.0], [0.5])
        assert all(verify_contract(contract, profile).self_reveal)

    def test_detects_violation(self):
        profile = TypeProfile((1.0, 2.0))
        # item 2 strictly dominates item 1 for type 1: 2.5 - 4/1 < 1 - 1 is
        # False, so break it the other way: make item 1 dominate for type 2
        contract = Contract.from_arrays([1.0, 1.0], [2.0, 1.0])
        flags = verify_contract(contract, profile).self_reveal
        assert not flags[1]


class TestVerifyContract:
    def test_feasible_report(self, two_type_example):
        profile, contract = two_type_example
        report = verify_contract(contract, profile)
        assert report.feasible
        assert report.monotone_q and report.monotone_pi
        assert all(report.self_reveal)
        assert report.min_slack == pytest.approx(0.0, abs=1e-15)
        payload = report._asdict()
        assert payload["feasible"] is True
        assert len(payload["ic_slack_matrix"]) == 2

    def test_infeasible_report(self):
        profile = TypeProfile((1.0, 2.0))
        contract = Contract.from_arrays([1.0, 2.0], [0.5, 2.5])  # bottom IR broken
        report = verify_contract(contract, profile)
        assert not report.feasible
        assert report.min_slack == pytest.approx(-0.5)

    def test_single_type_report(self):
        profile = TypeProfile((1.0,))
        report = verify_contract(Contract.from_arrays([1.0], [1.0]), profile)
        assert report.feasible

    def test_builds_the_matrix_once(self, two_type_example, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_ic(*args)

        profile, contract = two_type_example
        monkeypatch.setattr(feasibility, "check_ic", counted)
        verify_contract(contract, profile)
        assert len(calls) == 1

    def test_thousand_type_menu_peak(self):
        # the K x K matrix of Python floats is the peak: 32 MB, 64 MB when it was built twice
        k = 1000
        thetas = np.arange(1.0, k + 1.0)
        q = np.arange(k) / k
        pi = np.cumsum(np.diff(q * q, prepend=0.0) / thetas)  # each type indifferent to the item below
        profile, contract = TypeProfile(tuple(thetas)), Contract.from_arrays(q, pi)
        tracemalloc.start()
        try:
            report = verify_contract(contract, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.feasible and all(report.self_reveal)
        assert peak < 40e6

    @pytest.mark.parametrize(
        "rows",
        [
            [(1e-10, 1e200, 0.0)],  # q^2/theta overflows
            [(1.0, 1.3e154, 0.0), (2.0, 0.0, 1.7e308)],  # finite utilities whose differences overflow
        ],
    )
    def test_non_finite_slack_is_refused(self, rows):
        thetas, q, pi = zip(*rows)
        with pytest.raises(ValueError, match="not finite"):
            verify_contract(Contract.from_arrays(q, pi), TypeProfile(thetas))


def numpy_ir(q: np.ndarray, pi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The numpy participation slacks check_ir computed before it moved to plain floats."""
    return pi - q * q / thetas


def numpy_ic(q: np.ndarray, pi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The numpy truth-telling matrix check_ic computed before it moved to plain floats."""
    utilities = pi[None, :] - q[None, :] ** 2 / thetas[:, None]
    return np.diagonal(utilities)[:, None] - utilities


def numpy_report(q: np.ndarray, pi: np.ndarray, thetas: np.ndarray, tol: float) -> dict:
    """verify_contract's verdict as the numpy version reached it."""
    ir, ic = numpy_ir(q, pi, thetas), numpy_ic(q, pi, thetas)
    k = thetas.size
    off_diag = ic[~np.eye(k, dtype=bool)] if k > 1 else np.array([])
    min_slack = float(min(ir.min(), off_diag.min() if off_diag.size else np.inf))
    return {
        "ir": ir,
        "ic": ic,
        "min_slack": min_slack,
        "feasible": min_slack >= -tol,
        "monotone_q": bool(q.size == 0 or np.all(np.diff(q) >= -tol)),
        "monotone_pi": bool(pi.size == 0 or np.all(np.diff(pi) >= -tol)),
        "self_reveal": tuple(bool(b) for b in ic.min(axis=1) >= -tol),
    }


def bits(values) -> bytes:
    """The float64 bit patterns of values: equal bits, not just equal values, signed zeros included."""
    return np.asarray(values, dtype=np.float64).tobytes()


# a few shared values make ties between items and slacks; -0.0 is a valid reward and power
SHARED = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])


@st.composite
def menus(draw):
    k = draw(st.integers(1, 6))
    thetas = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k, unique=True)))
    values = st.one_of(SHARED, st.floats(0.0, 1e3))
    q = draw(st.lists(values, min_size=k, max_size=k))
    pi = draw(st.lists(values, min_size=k, max_size=k))
    return TypeProfile(tuple(thetas)), Contract.from_arrays(q, pi)


class TestMatchesNumpyOracle:
    """The plain-float checks against the numpy expressions they replaced, bit for bit."""

    @given(menu=menus(), tol=st.sampled_from([0.0, 1e-9, 0.5]))
    @settings(max_examples=300)
    def test_bit_for_bit(self, menu, tol):
        profile, contract = menu
        q, pi, thetas = contract.qs, contract.pis, profile.as_array()
        oracle = numpy_report(q, pi, thetas, tol)
        assert bits(check_ir(contract, profile)) == bits(oracle["ir"])
        assert bits(check_ic(contract, profile)) == bits(oracle["ic"])
        report = verify_contract(contract, profile, tol)
        assert bits(report.ir_slacks) == bits(oracle["ir"])
        assert bits(report.ic_slack_matrix) == bits(oracle["ic"])
        assert report.self_reveal == oracle["self_reveal"]
        assert (report.monotone_q, report.monotone_pi) == (oracle["monotone_q"], oracle["monotone_pi"])
        assert report.feasible is oracle["feasible"]
        assert report.min_slack == oracle["min_slack"]
        # numpy's min reduction returns either of a tied +0.0 and -0.0, by the SIMD lane each falls in;
        # verify_contract returns the first. Every other minimum is the same float, bit for bit.
        if report.min_slack != 0.0:
            assert bits(report.min_slack) == bits(oracle["min_slack"])

    def test_signed_zero_ties_are_covered(self):
        # the tie the bit-for-bit test excuses above: both signs of zero among the slacks
        profile = TypeProfile((1.0, 2.0))
        report = verify_contract(Contract.from_arrays([0.0, 0.0], [-0.0, 0.0]), profile)
        assert bits(report.ir_slacks) == bits([-0.0, 0.0])
        assert math.copysign(1.0, report.min_slack) == -1.0 and report.feasible


class TestBruteForceOracle:
    def test_matches_solver_single_type(self):
        profile = TypeProfile((1.0,))
        res = solve(profile, 1.0, 1.0, 1)
        _, best = brute_force_best_contract(profile, 1.0, 1.0, 1)
        assert abs(res.objective - best) <= 1e-4

    def test_matches_solver_two_types(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            thetas = np.cumsum(rng.uniform(0.3, 1.0, 2)) + 0.3
            profile = TypeProfile(tuple(thetas))
            gamma, w = rng.uniform(0.4, 1.5), 1.0
            res = solve(profile, gamma, w, 2)
            _, best = brute_force_best_contract(profile, gamma, w, 2)
            assert abs(res.objective - best) <= 1e-3

    def test_grid_evaluation_consistent_with_solver_objective(self):
        profile = TypeProfile((0.8, 1.6))
        res = solve(profile, 1.0, 1.0, 2)
        assert reduced_objective(res.contract.qs, profile, 1.0, 1.0, 2) == res.objective

    def test_refuses_large_k(self):
        profile = TypeProfile((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError, match="at most 3"):
            brute_force_best_contract(profile, 1.0, 1.0, 2)



class TestConstraintReductionLemmas:
    """The constraint reductions the solver relies on, validated by direct
    checking on generated menus (100 here, the full batch in acceptance)."""

    def test_local_ic_plus_monotone_implies_full_ic(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            profile, contract = random_local_ic_contract(rng)
            assert np.min(check_ic(contract, profile)) >= -1e-9

    def test_full_ic_plus_bottom_ir_implies_all_ir(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            profile, contract = random_local_ic_contract(rng)
            ic = check_ic(contract, profile)
            ir = check_ir(contract, profile)
            assert np.min(ic) >= -1e-9  # precondition, checked directly
            assert ir[0] >= -1e-12  # precondition: bottom participation holds
            assert np.min(ir) >= -1e-9

    def test_reward_and_power_order_agree_on_solver_output(self):
        # more received power earns more reward, and conversely
        profile = TypeProfile(tuple(np.linspace(0.4, 2.8, 5)))
        res = solve(profile, 1.1, 1.0, 3)
        q, pi = res.contract.qs, res.contract.pis
        for i in range(5):
            for j in range(5):
                if pi[i] > pi[j] + 1e-12:
                    assert q[i] > q[j]
                if q[i] > q[j] + 1e-12:
                    assert pi[i] > pi[j]

    def test_higher_type_earns_weakly_more_on_solver_output(self):
        profile = TypeProfile(tuple(np.linspace(0.4, 2.8, 5)))
        res = solve(profile, 1.1, 1.0, 3)
        pi = res.contract.pis
        assert np.all(np.diff(pi) >= -1e-12)
