import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from energy_contracts import (
    Contract,
    ContractItem,
    TypeProfile,
    check_ir,
    dap_utility,
    eap_utility,
    social_welfare,
    throughput,
)


class TestThroughput:
    def test_zero_power(self):
        assert throughput(0.0, 2.0, 5.0) == 0.0

    def test_unit_case(self):
        assert throughput(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_direct_value(self):
        # 2 * log2(1 + 3) = 4
        assert throughput(1.0, 3.0, 2.0) == pytest.approx(4.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            throughput(-0.1, 1.0, 1.0)

    @given(
        x=st.floats(0.0, 100.0),
        y=st.floats(0.0, 100.0),
        t=st.floats(0.0, 1.0),
        gamma=st.floats(0.01, 10.0),
        w=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200)
    def test_concave(self, x, y, t, gamma, w):
        mid = throughput(t * x + (1 - t) * y, gamma, w)
        chord = t * throughput(x, gamma, w) + (1 - t) * throughput(y, gamma, w)
        assert mid >= chord - 1e-9


class TestEapUtility:
    def test_break_even(self):
        assert eap_utility(ContractItem(1.0, 1.0), 1.0) == 0.0

    def test_positive_surplus(self):
        assert eap_utility(ContractItem(2.0, 2.5), 2.0) == pytest.approx(0.5)

    def test_null_item(self):
        assert eap_utility(ContractItem(0.0, 0.0), 3.7) == 0.0

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            eap_utility(ContractItem(0.0, 0.0), 0.0)

    def test_overflowing_cost_is_minus_infinity_as_verify_finds(self):
        # q**2 of a float raises OverflowError at q = 1e200, where q * q is inf
        item = ContractItem(1e200, 0.0)
        (slack,) = check_ir(Contract([item]), TypeProfile((1.0,)))
        assert eap_utility(item, 1.0) == slack == -math.inf


class TestDapUtility:
    def test_empty_market(self):
        contract = Contract.from_arrays([1.0, 2.0], [1.0, 2.5])
        assert dap_utility([0, 0], contract, 1.0, 1.0) == 0.0

    def test_single_seller(self):
        contract = Contract.from_arrays([1.0], [1.0])
        # log2(2) - 1 = 0
        assert dap_utility([1], contract, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_two_types(self):
        contract = Contract.from_arrays([1.0, 2.0], [1.0, 2.5])
        # log2(4) - 3.5 = -1.5
        assert dap_utility([1, 1], contract, 1.0, 1.0) == pytest.approx(-1.5)

    def test_length_mismatch(self):
        contract = Contract.from_arrays([1.0], [1.0])
        with pytest.raises(ValueError):
            dap_utility([1, 1], contract, 1.0, 1.0)


@st.composite
def market_instances(draw):
    k = draw(st.integers(1, 5))
    gaps = [draw(st.floats(0.1, 2.0)) for _ in range(k)]
    thetas = tuple(np.cumsum(gaps) + 0.1)
    counts = [draw(st.integers(0, 4)) for _ in range(k)]
    q = [draw(st.floats(0.0, 3.0)) for _ in range(k)]
    pi = [draw(st.floats(0.0, 3.0)) for _ in range(k)]
    gamma = draw(st.floats(0.01, 5.0))
    w = draw(st.floats(0.1, 4.0))
    return TypeProfile(thetas), counts, Contract.from_arrays(q, pi), gamma, w


class TestSocialWelfare:
    def test_no_trade(self):
        profile = TypeProfile((1.0, 2.0))
        contract = Contract.from_arrays([0.0, 0.0], [0.0, 0.0])
        assert social_welfare([3, 1], contract, profile, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("counts, thetas", [([1, 1, 1], (1.0, 2.0)), ([1, 1], (1.0,))])
    def test_length_mismatch(self, counts, thetas):
        contract = Contract.from_arrays([1.0, 2.0], [1.0, 2.5])
        with pytest.raises(ValueError, match="equal length"):
            social_welfare(counts, contract, TypeProfile(thetas), 1.0, 1.0)

    def test_single_type(self):
        profile = TypeProfile((1.0,))
        contract = Contract.from_arrays([1.0], [0.3])
        # log2(2) - 1 = 0, independent of pi
        assert social_welfare([1], contract, profile, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    @given(inst=market_instances())
    @settings(max_examples=200)
    def test_rewards_cancel(self, inst):
        profile, counts, contract, gamma, w = inst
        total = social_welfare(counts, contract, profile, gamma, w)
        split = dap_utility(counts, contract, gamma, w) + sum(
            n * eap_utility(item, theta)
            for n, item, theta in zip(counts, contract, profile.thetas)
        )
        scale = max(1.0, abs(total), abs(split))
        assert abs(total - split) <= 1e-12 * scale


class TestDomainTypes:
    def test_type_profile_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TypeProfile((1.0, 1.0))
        with pytest.raises(ValueError):
            TypeProfile((2.0, 1.0))
        with pytest.raises(ValueError):
            TypeProfile(())

    def test_contract_item_nonnegative(self):
        with pytest.raises(ValueError):
            ContractItem(-1.0, 0.0)
        with pytest.raises(ValueError):
            ContractItem(0.0, -1.0)

    def test_contract_arrays_roundtrip(self):
        contract = Contract.from_arrays([0.0, 1.5], [0.0, 2.0])
        assert len(contract) == 2
        np.testing.assert_allclose(contract.qs, [0.0, 1.5])
        np.testing.assert_allclose(contract.pis, [0.0, 2.0])
        with pytest.raises(ValueError):
            Contract.from_arrays([1.0], [1.0, 2.0])
