"""The public records are tuples: immutable, and checked however they are built."""

import math

import numpy as np
import pytest

from energy_contracts import (
    Contract,
    ContractItem,
    ScenarioConfig,
    SolveResult,
    SweepResult,
    TypeProfile,
    complete_info_contract,
    linear_pricing_optimize,
    verify_contract,
)

# (a valid record, a field and a value its checks refuse)
VALIDATED = [
    (TypeProfile((1.0, 2.0)), "thetas", (2.0, 1.0)),
    (TypeProfile((1.0, 2.0)), "thetas", (1.0, math.inf)),
    (ContractItem(1.0, 2.0), "q", -1.0),
    (ContractItem(1.0, 2.0), "pi", math.nan),
    (ScenarioConfig(), "k_types", 0),
    (ScenarioConfig(), "eta", 1.5),
    (ScenarioConfig(), "d_ms_range", (0.5, 10.0)),
]


@pytest.mark.parametrize("record,field,bad", VALIDATED)
class TestValidatedRecords:
    def test_constructor_refuses(self, record, field, bad):
        with pytest.raises(ValueError):
            type(record)(**{**record._asdict(), field: bad})

    def test_make_refuses(self, record, field, bad):
        values = [bad if name == field else value for name, value in zip(record._fields, record)]
        with pytest.raises(ValueError):
            type(record)._make(values)

    def test_replace_refuses(self, record, field, bad):
        with pytest.raises(ValueError):
            record._replace(**{field: bad})


@pytest.mark.parametrize("record", [TypeProfile((1.0, 2.0)), ContractItem(1.0, 2.0), ScenarioConfig()])
def test_every_way_builds_an_equal_record(record):
    assert type(record)(*record) == type(record)._make(record) == record._replace() == record
    assert type(record._replace()) is type(record)


def test_type_profile_holds_floats():
    profile = TypeProfile._make([np.array([1, 2])])
    assert profile.thetas == (1.0, 2.0) and all(type(t) is float for t in profile.thetas)


class TestContract:
    def test_length_is_the_items_iteration_yields(self):
        contract = Contract.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert len(contract) == len(list(contract)) == 3
        assert list(contract) == [ContractItem(0.0, 0.0), ContractItem(1.0, 1.0), ContractItem(2.0, 3.0)]

    def test_items_are_checked(self):
        with pytest.raises(ValueError):
            Contract([ContractItem(1.0, 1.0), (1.0, -1.0)])
        with pytest.raises(ValueError):
            Contract.from_arrays([1.0], [math.inf])

    def test_pairs_become_items(self):
        contract = Contract([(1.0, 2.0)])
        assert type(contract[0]) is ContractItem and contract == Contract.from_arrays([1.0], [2.0])


def records() -> list:
    """One record of each public type."""
    profile = TypeProfile((1.0, 2.0))
    contract = Contract.from_arrays([0.5, 1.0], [0.25, 0.625])
    grid = np.array([1.0])
    return [
        profile,
        ContractItem(1.0, 2.0),
        contract,
        verify_contract(contract, profile),
        ScenarioConfig(),
        SweepResult(grid, grid, grid, grid, grid, grid, []),
        SolveResult(contract, 0.0, 0, True, 0.0, True),
        complete_info_contract([1, 1], profile, 1.0, 1.0),
        linear_pricing_optimize(profile, 1.0, 1.0, 2),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_fields_cannot_be_assigned(record):
    for field in getattr(record, "_fields", ("qs",)):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.no_such_field = 0
