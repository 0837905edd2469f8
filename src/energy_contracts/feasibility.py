"""Independent feasibility verification for contract menus.

Everything here checks the full constraint set by direct evaluation, without
trusting the constraint reductions used inside the solver: all K
participation slacks, the complete K x K truth-telling matrix, menu
monotonicity, and the self-reveal property. The checks are closed-form
algebra on the menu, computed in plain floats, so verify loads no numpy;
q*q, not q**2, rounds exactly as numpy's square does and gives inf rather
than OverflowError. A brute-force grid oracle bounds the solver's optimality
gap on small instances.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .market import LN2, Contract, TypeProfile

DEFAULT_TOL = 1e-9
# Most types a command that writes a K x K table serves: solve and verify write feasibility.json's slack
# matrix, curves its utility table. That file holds 29 MB at 1,000 types and 118 MB at 2,000.
MAX_TYPES = 1_000
# The grid oracle: nodes per axis at each refinement, the grid step it refines down to, and its most refinements
_GRID_POINTS = 21
_GRID_STEP = 1e-3
_GRID_REFINEMENTS = 60


def _matched(contract: Contract, profile: TypeProfile) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The menu's (q, pi), checked to have one item per type (ValueError otherwise)."""
    if len(contract) != profile.k:
        raise ValueError("contract length does not match the type ladder")
    return tuple(item.q for item in contract), tuple(item.pi for item in contract)


def _utility_rows(contract: Contract, profile: TypeProfile, types):
    """For each 1-based type t of `types`, in turn, the list of its utilities pi_j - q_j^2/theta_t under every
    item j. The menu is matched to the ladder at the call; each row is made as it is read, so that check_ic
    holds one list beyond its matrix (a whole utility matrix first doubled verify's peak at 1,000 types)."""
    qs, pis = _matched(contract, profile)
    return ([pi - q * q / theta for q, pi in zip(qs, pis)] for theta in (profile.thetas[t - 1] for t in types))


def check_ir(contract: Contract, profile: TypeProfile) -> tuple[float, ...]:
    """Participation slacks pi_k - q_k^2/theta_k, one per type.

    Nonnegative (within tolerance) means every participating seller at least
    breaks even.
    """
    qs, pis = _matched(contract, profile)
    return tuple(pi - q * q / theta for q, pi, theta in zip(qs, pis, profile.thetas))


def check_ic(contract: Contract, profile: TypeProfile) -> tuple[tuple[float, ...], ...]:
    """Truth-telling slack matrix, one row per type.

    Entry [k][j] is the utility a type-k seller loses by taking item j
    instead of its own: (pi_k - q_k^2/theta_k) - (pi_j - q_j^2/theta_k).
    The diagonal is identically zero; nonnegative off-diagonal entries mean
    no seller gains by imitating another type.
    """
    rows = enumerate(_utility_rows(contract, profile, range(1, profile.k + 1)))
    return tuple(tuple(utilities[k] - u for u in utilities) for k, utilities in rows)


def _nondecreasing(values: Sequence[float], tol: float) -> bool:
    return all(b - a >= -tol for a, b in zip(values, values[1:]))


class FeasibilityReport(NamedTuple):
    """Structured verdict over one menu; its _asdict() is the payload of feasibility.json."""

    ir_slacks: tuple[float, ...]
    ic_slack_matrix: tuple[tuple[float, ...], ...]
    monotone_q: bool
    monotone_pi: bool
    self_reveal: tuple[bool, ...]
    min_slack: float
    feasible: bool
    tol: float


def verify_contract(contract: Contract, profile: TypeProfile, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Run every check off one truth-telling matrix and aggregate the worst violation.

    Feasible means all participation slacks and all off-diagonal
    truth-telling slacks are >= -tol. The worst is the first smallest, the
    participation slacks read first and then the matrix by rows. A type
    self-reveals when no slack in its row is below -tol (an optimal menu
    binds with exact ties). A slack that is not finite raises ValueError.
    """
    ir, ic = check_ir(contract, profile), check_ic(contract, profile)
    if not all(all(map(math.isfinite, row)) for row in (ir, *ic)):
        raise ValueError("the menu's utilities overflow a float, so its slacks are not finite")
    min_slack = min(ir)
    for k, row in enumerate(ic):  # min keeps the first of a tie, as of +0.0 and -0.0
        min_slack = min((min_slack, *row[:k], *row[k + 1 :]))
    qs, pis = _matched(contract, profile)
    return FeasibilityReport(
        ir_slacks=ir,
        ic_slack_matrix=ic,
        monotone_q=_nondecreasing(qs, tol),
        monotone_pi=_nondecreasing(pis, tol),
        self_reveal=tuple(min(row) >= -tol for row in ic),
        min_slack=min_slack,
        feasible=min_slack >= -tol,
        tol=tol,
    )


def brute_force_best_contract(
    profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> tuple[Contract, float]:
    """Exhaustive search over a refined q-grid, rewards from reward_recovery.

    The search starts below 1.05 times the analytic bound theta_k * W * gamma / (2 ln 2), which
    dominates any optimum, and shrinks its window around the incumbent until the grid step is at
    most _GRID_STEP. An intentionally independent oracle for the solver; exponential in K, so
    it refuses anything beyond 3 types.
    """
    import numpy as np

    from .solver import reduced_objective, reward_recovery

    k = profile.k
    if k > 3:
        raise ValueError(f"grid oracle supports at most 3 types, got {k}")

    lo = np.zeros(k)
    hi = np.maximum(profile.as_array() * bandwidth_w * gamma / (2.0 * LN2) * 1.05, 10.0 * _GRID_STEP)
    best_q = np.zeros(k)
    best_val = reduced_objective(best_q, profile, gamma, bandwidth_w, n_total)

    for _ in range(_GRID_REFINEMENTS):
        axes = [np.linspace(lo[i], hi[i], _GRID_POINTS) for i in range(k)]
        mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        values = np.array(
            [reduced_objective(point, profile, gamma, bandwidth_w, n_total) for point in mesh]
        )
        idx = int(values.argmax())
        if values[idx] > best_val:
            best_val = float(values[idx])
            best_q = mesh[idx]
        steps = (hi - lo) / (_GRID_POINTS - 1)
        if steps.max() <= _GRID_STEP:
            break
        lo = np.maximum(best_q - 2.0 * steps, 0.0)
        hi = best_q + 2.0 * steps

    contract = Contract.from_arrays(best_q, reward_recovery(best_q, profile))
    return contract, best_val
