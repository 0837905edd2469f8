"""Screening-contract solver under hidden seller types.

The collector's problem has K participation constraints and K(K-1)
truth-telling constraints. For an ascending type ladder those reduce to two
families of equalities: the bottom type's participation constraint binds, and
each type is exactly indifferent to the item one step below. Substituting the
resulting rewards into the expected utility leaves a smooth, strictly concave
program in the received-power vector q whose maximizer is interior (every
partial derivative is positive at q_k = 0), solved here by damped Newton.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .compositions import per_type, rate_terms, split_table
from .feasibility import _nondecreasing
from .market import LN2, Contract, TypeProfile, _market_size

_MONO_RTOL = 1e-9  # a menu is monotone when no entry falls below the one before by this fraction of the largest
_ARMIJO_C = 1e-4  # sufficient-increase constant of the line search
_TO_BOUNDARY = 0.995  # a cut step travels this fraction of the way to q_k = 0
_RESOLUTION = 1e-13  # relative float resolution of the objective's two parts
_STEP_RTOL = 1e-10  # at convergence the Newton step moves each q_k by less than this fraction
_MIN_STEP = 1e-20  # the line search accepts whatever step it has reached below this
_GRAD_TOL = 1e-8  # at convergence the gradient norm is at most this
_MAX_ITERS = 10_000  # a solve that has not converged after this many Newton steps stops and says so


class SolveResult(NamedTuple):
    """Outcome of one solve.

    kkt_residual is the gradient norm at the returned point;
    monotone records whether the recovered menu has nondecreasing q and pi
    (guaranteed for uniformly distributed types, flagged rather than clamped
    otherwise).
    """

    contract: Contract
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float
    monotone: bool


def reward_recovery(q: Sequence[float], profile: TypeProfile) -> np.ndarray:
    """Rewards pinned by the binding constraint structure:

        pi_1 = q_1^2 / theta_1
        pi_k = pi_{k-1} + (q_k^2 - q_{k-1}^2) / theta_k     for k >= 2

    The bottom type earns zero surplus and every type is indifferent to the
    item one step below. q is refused, with a ValueError, unless it has one nonnegative and finite
    entry per type.
    """
    q = per_type(q, profile)
    thetas = profile.as_array()
    pi = np.empty_like(q)
    pi[0] = q[0] ** 2 / thetas[0]
    for k in range(1, q.size):
        pi[k] = pi[k - 1] + (q[k] ** 2 - q[k - 1] ** 2) / thetas[k]
    return pi


def quadratic_coefficients(profile: TypeProfile, counts: Sequence[float]) -> np.ndarray:
    """Coefficients D_k(n) that turn the reward bill into a quadratic form:
    with rewards from reward_recovery, sum_k n_k pi_k = sum_k D_k q_k^2 where

        D_k = n_k / theta_k + (1/theta_k - 1/theta_{k+1}) * sum_{i>k} n_i
        D_K = n_K / theta_K

    All D_k are nonnegative because the ladder is ascending.
    """
    n = np.asarray(counts, dtype=float)
    thetas = profile.as_array()
    inv = 1.0 / thetas
    above = np.concatenate([np.cumsum(n[::-1])[::-1][1:], [0.0]])  # sum_{i>k} n_i
    coeffs = n * inv
    coeffs[:-1] += (inv[:-1] - inv[1:]) * above[:-1]
    return coeffs


def expected_quadratic_coefficients(profile: TypeProfile, n_total: int) -> np.ndarray:
    """E[D_k] under the uniform type distribution: D is linear in the counts and each E[n_i] = N/K."""
    return (n_total / profile.k) * quadratic_coefficients(profile, np.ones(profile.k))


class _ReducedProblem:
    """Expected-utility objective in q alone, over one split table."""

    def __init__(self, profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int):
        self.split = split_table(n_total, profile.k)
        self.exp_d = expected_quadratic_coefficients(profile, n_total)
        self.gamma = gamma
        self.w = bandwidth_w

    def evaluate(self, q: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(rate, quad, grad, hess) in one pass over the split table: the objective is rate - quad and,
        with a = gamma / (1 + gamma n.q),

            grad = (W / ln 2) E[a n] - 2 E[D] q
            hess = -(W / ln 2) E[a^2 n n^T] - 2 diag(E[D])
        """
        total, cu, cwc = rate_terms(self.split, q, self.gamma, derivatives=True)
        grad = (self.w / LN2) * cu - 2.0 * self.exp_d * q
        hess = -(self.w / LN2) * cwc
        hess[np.diag_indices(q.size)] -= 2.0 * self.exp_d
        return self.w * total / LN2, float(self.exp_d @ (q * q)), grad, hess


def reduced_objective(
    q: Sequence[float], profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> float:
    """Collector's expected utility after eliminating rewards:

        sum_n Phi(n) W log2(1 + gamma n.q)  -  sum_k E[D_k] q_k^2

    Only the log term needs enumeration; the reward bill is linear in counts
    so its expectation is exact in closed form. Equals
    expected_dap_utility(q, reward_recovery(q), ...) for every q >= 0. n_total and bandwidth_w are checked
    as solve checks them.
    """
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    q = per_type(q, profile)
    rate = bandwidth_w * rate_terms(split_table(n_total, profile.k), q, gamma) / LN2
    return rate - float(expected_quadratic_coefficients(profile, n_total) @ (q * q))


def solve(profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int) -> SolveResult:
    """Maximize the reduced objective and recover rewards.

    Damped Newton (Boyd & Vandenberghe, Convex Optimization, 9.5): each step
    solves the K x K Newton system and is halved until it satisfies the
    Armijo condition. A full step that would leave q_k <= 0 is first cut to
    a fraction of the way to the boundary, so every iterate stays positive.
    Once the Newton decrement is below the float resolution of the objective
    the step is taken as-is, since the line search can no longer tell gains
    from rounding. The solve stops when the gradient norm is at most _GRAD_TOL
    and the Newton step would move no q_k by more than _STEP_RTOL of its
    value. The second condition pins q where the first cannot: at tiny gamma
    every gradient term is below _GRAD_TOL wherever q is.

    Monotonicity of the recovered menu is verified, not assumed: a violation
    (possible only off the uniform-type assumption) is flagged in the result
    rather than clamped away.

    ValueError, before any table is built, for a gamma that is not positive and finite, an n_total that is
    not a nonnegative integer or a bandwidth_w that is negative or not finite; bandwidth_w = 0 gives the zero menu.
    """
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    k = profile.k
    if n_total == 0:
        contract = Contract.from_arrays(np.zeros(k), np.zeros(k))
        return SolveResult(contract, 0.0, 0, True, 0.0, True)

    # mean-field start alpha cap: cap_k = (W gamma/ln 2)(N/K)/(2 E[D_k]) bounds the maximizer, is it as gamma -> 0;
    # alpha = 2/(1 + sqrt(1 + 4x)), x = gamma (N/K) sum cap, is divided through by 2 gamma: x overflows near 1e289
    cap_per_gamma = (bandwidth_w / LN2) * (n_total / k) / (2.0 * expected_quadratic_coefficients(profile, n_total))
    half_inv = 0.5 / gamma
    q = cap_per_gamma / (half_inv + math.hypot(half_inv, math.sqrt((n_total / k) * float(cap_per_gamma.sum()))))
    # gamma N q bounds gamma n.q; gamma N alone overflows at gamma = 1e308, N = 2, where the product need not
    if not math.isfinite(gamma * (n_total * float(q.max()))):
        raise ValueError(f"gamma={gamma:g} is too large for this market: gamma N q at the start overflows a float")
    problem = _ReducedProblem(profile, gamma, bandwidth_w, n_total)

    rate, quad, grad, hess = problem.evaluate(q)
    converged = False
    for iterations in range(_MAX_ITERS + 1):
        residual = float(np.linalg.norm(grad))
        step = np.linalg.solve(-hess, grad)
        # an infinite rate (gamma n.q overflowed) is no optimum, whatever the gradient says
        if residual <= _GRAD_TOL and np.all(np.abs(step) <= _STEP_RTOL * q) and math.isfinite(rate):
            converged = True
            break
        if iterations == _MAX_ITERS or not math.isfinite(rate):  # an overflowed rate leaves the line search no gain
            break
        decrement = float(grad @ step)  # lambda^2
        crossing = q + step <= 0.0
        t = _TO_BOUNDARY * float(np.min(q[crossing] / -step[crossing])) if crossing.any() else 1.0
        resolved = 0.5 * decrement <= _RESOLUTION * (abs(rate) + abs(quad))
        while True:  # each candidate's one pass also gives the next step's gradient and Hessian
            candidate = q + t * step
            point = problem.evaluate(candidate)
            gain = (point[0] - point[1]) - (rate - quad)
            if resolved or gain >= _ARMIJO_C * t * decrement or t < _MIN_STEP:
                break
            t *= 0.5
        q, (rate, quad, grad, hess) = candidate, point

    pi = reward_recovery(q, profile)
    contract = Contract.from_arrays(q, pi)
    monotone = all(_nondecreasing(v, _MONO_RTOL * (float(np.abs(v).max()) + 1e-300)) for v in (q, pi))
    return SolveResult(contract, rate - quad, iterations, converged, residual, monotone)
