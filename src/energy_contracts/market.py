"""Domain types and closed-form utility formulas for the wireless-charging
energy market: one data collector (the buyer of received power) and N
self-interested charger nodes (the sellers).

All powers are expressed in one linear unit (the scenario carries them in uW,
see ``scenario.UW_PER_MW``), bandwidth in rate units valued at one reward
unit per rate unit, and rewards are a dimensionless scalar.

Only the standard library is imported at module level, so that verify, which
reads these types but sums no expectation, runs without loading numpy; the
functions that return or take arrays import it when called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)


def _integer(value, name: str) -> int:
    """value as an int; ValueError for a bool or a number that is not integral."""
    import numbers  # not loaded by the CLI's import

    integral = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def _real(value, name: str) -> float:
    """value as a float; ValueError for a bool, a string, None or a number that is not finite as a float."""
    import numbers  # not loaded by the CLI's import

    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} {value!r} is not a finite number")
    return float(value)


def _market_size(n_total, bandwidth_w) -> tuple[int, float]:
    """(n_total, bandwidth_w) as a nonnegative int and a nonnegative finite float; ValueError naming the
    argument otherwise. solve, the baselines, reduced_objective and expected_social_welfare check these first."""
    n_total, bandwidth_w = _integer(n_total, "n_total"), _real(bandwidth_w, "bandwidth_w")
    for name, value in (("n_total", n_total), ("bandwidth_w", bandwidth_w)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return n_total, bandwidth_w


class TypeProfile(NamedTuple("TypeProfile", [("thetas", tuple[float, ...])])):
    """Ascending ladder of K seller quality values theta_1 < ... < theta_K.

    A seller's quality is G^2/a, its link gain squared over its energy cost
    coefficient (see scenario.build_type_ladder); it is the only private
    information that matters for contract design. Every seller independently
    has each quality with probability 1/K.
    """

    __slots__ = ()

    def __new__(cls, thetas):
        thetas = tuple(float(t) for t in thetas)
        if len(thetas) < 1:
            raise ValueError("at least one type is required")
        if not all(0.0 < t < math.inf for t in thetas):
            raise ValueError("type values must be positive and finite")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("type values must be strictly increasing")
        return super().__new__(cls, thetas)

    # a namedtuple's own _make, which _replace calls, builds through tuple.__new__ and skips the checks
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def k(self) -> int:
        return len(self.thetas)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.thetas, dtype=float)


class ContractItem(NamedTuple("ContractItem", [("q", float), ("pi", float)])):
    """One menu entry: promised received power q against reward pi.

    The pair (0, 0) encodes non-participation.
    """

    __slots__ = ()

    def __new__(cls, q, pi):
        if not (0.0 <= q < math.inf and 0.0 <= pi < math.inf):
            raise ValueError(f"contract item must be nonnegative and finite, got ({q}, {pi})")
        return super().__new__(cls, q, pi)

    _make = classmethod(lambda cls, values: cls(*values))  # checked, as TypeProfile's


class Contract(tuple):
    """A menu of K items, index-aligned with the type ladder: a tuple whose
    entries are ContractItems, each (q, pi) pair built as one and so checked."""

    __slots__ = ()

    def __new__(cls, items):
        return super().__new__(cls, (ContractItem(*item) for item in items))

    @classmethod
    def from_arrays(cls, q: Sequence[float], pi: Sequence[float]) -> "Contract":
        if len(q) != len(pi):
            raise ValueError("q and pi must have equal length")
        return cls((float(a), float(b)) for a, b in zip(q, pi))

    @property
    def qs(self) -> np.ndarray:
        import numpy as np

        return np.array([item.q for item in self])

    @property
    def pis(self) -> np.ndarray:
        import numpy as np

        return np.array([item.pi for item in self])


def throughput(total_received_q: float, gamma: float, bandwidth_w: float) -> float:
    """Achievable rate W * log2(1 + gamma * q_total).

    Strictly increasing and concave in the total received power.
    """
    if total_received_q < 0.0:
        raise ValueError(f"total received power must be nonnegative, got {total_received_q}")
    return bandwidth_w * math.log2(1.0 + gamma * total_received_q)


def eap_utility(item: ContractItem, theta: float) -> float:
    """Seller surplus pi - q^2/theta when a type-theta seller takes `item`."""
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    return item.pi - item.q * item.q / theta


def dap_utility(counts, contract: Contract, gamma: float, bandwidth_w: float) -> float:
    """Collector surplus for one realized count vector of seller types.

    Throughput value minus rewards paid out (unit reward cost):
    W log2(1 + gamma * sum_k n_k q_k) - sum_k n_k pi_k.
    """
    import numpy as np

    n = np.asarray(counts, dtype=float)
    if n.size != len(contract):
        raise ValueError(f"counts length {n.size} does not match contract length {len(contract)}")
    return throughput(float(n @ contract.qs), gamma, bandwidth_w) - float(n @ contract.pis)


def social_welfare(
    counts, contract: Contract, profile: TypeProfile, gamma: float, bandwidth_w: float
) -> float:
    """Total surplus: throughput value minus aggregate energy cost.

    Reward transfers cancel, so this equals the collector's utility plus the
    sum of all seller utilities.
    """
    import numpy as np

    n = np.asarray(counts, dtype=float)
    if n.size != len(contract) or n.size != profile.k:
        raise ValueError("counts, contract and profile must have equal length")
    q = contract.qs
    cost = float(n @ (q * q / profile.as_array()))
    return throughput(float(n @ q), gamma, bandwidth_w) - cost
