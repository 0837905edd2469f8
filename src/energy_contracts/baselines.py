"""Benchmark mechanisms flanking the screening contract: the full-information
optimum (upper bound) and a uniform per-unit energy price (lower benchmark).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .compositions import composition_table
from .market import LN2, TypeProfile, _market_size

_NEWTON_MAX_ITERS = 100


@lru_cache(maxsize=1)
def _t_distribution(profile: TypeProfile, n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and probabilities of T = sum_k n_k theta_k over the count vectors, read-only: a sweep
    reads the one distribution of its ladder and N at every point, four times, so the last is cached.

    On an evenly spaced ladder T = N theta_1 + s delta, and s is the sum of N
    independent uniform draws from {0..K-1}: N(K-1)+1 atoms whose pmf is the
    N-th power of the uniform pmf's discrete Fourier transform, transformed
    back. The length N(K-1)+1 holds the whole support, so nothing wraps
    around; the rounding leaves tails of about +-1e-17 (1.5e-15 at most next
    to the N-fold convolution at N=300, K=3), and the negative ones are
    clipped to 0. Any other ladder falls back to one atom per row of the
    composition table.
    """
    thetas = profile.as_array()
    k = thetas.size
    delta = (thetas[-1] - thetas[0]) / (k - 1) if k > 1 else 0.0
    if np.all(np.abs(np.diff(thetas) - delta) <= 1e-12 * delta):
        size = n_total * (k - 1) + 1
        pmf = np.fft.irfft(np.fft.rfft(np.full(k, 1.0 / k), size) ** n_total, size)
        atoms, probs = n_total * thetas[0] + delta * np.arange(size), np.maximum(pmf, 0.0)
    else:
        counts, probs = composition_table(n_total, k)  # einsum casts the narrow counts chunk by chunk
        atoms = np.einsum("ij,j->i", counts, thetas)
    atoms.setflags(write=False)
    probs.setflags(write=False)
    return atoms, probs


class CompleteInfoSolution(NamedTuple):
    """Full-information optimum for one realized count vector.

    Every type contributes q_k = lam * theta_k and is paid exactly its energy
    cost (pi_k = q_k^2/theta_k), so the collector's utility equals the social
    welfare.
    """

    q: np.ndarray
    pi: np.ndarray
    lam: float
    welfare: float


def complete_info_lambda(t_total, gamma: float, bandwidth_w: float) -> np.ndarray:
    """Shared multiplier, elementwise over T: the positive root of

        gamma T lam^2 + lam - W gamma / (2 ln 2) = 0,   T = sum_k n_k theta_k.

    Zero when the market is empty or the link is worthless. The root is
    taken in the rationalized form c / (1 + sqrt(disc)), c = W gamma / ln 2,
    which equals (sqrt(disc) - 1) / (2 gamma T) but does not cancel to zero
    when 2 gamma T c is below the float resolution of disc.
    """
    c = bandwidth_w * max(gamma, 0.0) / LN2
    return np.where(t_total > 0.0, c / (1.0 + np.sqrt(1.0 + 2.0 * gamma * t_total * c)), 0.0)


def complete_info_contract(
    counts, profile: TypeProfile, gamma: float, bandwidth_w: float
) -> CompleteInfoSolution:
    """Welfare-maximizing menu when the collector observes the realized type
    counts. First-order conditions give q_k proportional to theta_k."""
    n = np.asarray(counts, dtype=float)
    thetas = profile.as_array()
    if n.size != thetas.size:
        raise ValueError("counts length does not match the type ladder")
    t_total = float(n @ thetas)
    lam = float(complete_info_lambda(t_total, gamma, bandwidth_w))
    q = lam * thetas
    pi = q * q / thetas
    welfare = bandwidth_w * math.log1p(gamma * lam * t_total) / LN2 - lam * lam * t_total
    return CompleteInfoSolution(q, pi, lam, welfare)


def expected_complete_info_welfare(
    profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> float:
    """Expectation of the per-realization optima: the collector re-optimizes
    for every realized count vector it would observe."""
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    if gamma <= 0.0:
        return 0.0
    t_total, probs = _t_distribution(profile, n_total)
    lam = complete_info_lambda(t_total, gamma, bandwidth_w)
    welfare = bandwidth_w * np.log1p(gamma * lam * t_total) / LN2 - lam * lam * t_total
    return float(probs @ welfare)


class LinearPricingSolution(NamedTuple):
    """Uniform price P per unit received power and the sellers' responses.

    A type-theta seller maximizes P q - q^2/theta, hence q = P theta / 2;
    participation is automatic since the surplus P^2 theta / 4 is nonnegative.
    """

    price: float
    expected_dap_utility: float
    q_response: np.ndarray


def _mean_t(profile: TypeProfile, n_total: int) -> float:
    """E[T] = (N/K) sum_k theta_k: each expected count is N/K."""
    return n_total / profile.k * float(profile.as_array().sum())


def linear_expected_dap_utility(
    price: float, profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> float:
    """Collector's expected utility at price P with best-responding sellers:

        E[ W log2(1 + gamma (P/2) sum_k n_k theta_k) ] - (P^2/2) (N/K) sum_k theta_k
    """
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    t_total, probs = _t_distribution(profile, n_total)
    rate = bandwidth_w * np.log1p(gamma * (price / 2.0) * t_total) / LN2
    return float(probs @ rate) - price * price / 2.0 * _mean_t(profile, n_total)


def linear_expected_social_welfare(
    price: float, profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> float:
    """Expected total surplus at price P: the payment drops out and only half
    of the response cost remains, (P^2/4) (N/K) sum_k theta_k."""
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    t_total, probs = _t_distribution(profile, n_total)
    rate = bandwidth_w * np.log1p(gamma * (price / 2.0) * t_total) / LN2
    return float(probs @ rate) - price * price / 4.0 * _mean_t(profile, n_total)


def linear_pricing_optimize(
    profile: TypeProfile, gamma: float, bandwidth_w: float, n_total: int
) -> LinearPricingSolution:
    """Price the collector would post: the root of its first-order condition

        g(P) = (c/2) E[T / (1 + gamma P T / 2)] - P E[T] = 0,   c = W gamma / ln 2.

    g is strictly decreasing and convex with g(0) > 0 > g(c/2), so Newton's
    method started at P = 0 climbs monotonically to the root. It stops once a
    step is within a few ulps of the price.
    """
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    thetas = profile.as_array()
    if gamma <= 0.0 or n_total == 0:
        return LinearPricingSolution(0.0, 0.0, np.zeros_like(thetas))
    t_total, probs = _t_distribution(profile, n_total)
    mean_t = _mean_t(profile, n_total)
    half_c = bandwidth_w * gamma / (2.0 * LN2)
    price = 0.0
    for _ in range(_NEWTON_MAX_ITERS):
        ratio = t_total / (1.0 + gamma * (price / 2.0) * t_total)
        slope = half_c * float(probs @ ratio) - price * mean_t
        curvature = -half_c * (gamma / 2.0) * float(probs @ (ratio * ratio)) - mean_t
        step = -slope / curvature
        price += step
        if step <= 8.0 * np.finfo(float).eps * price:
            break
    else:
        raise RuntimeError(f"uniform price did not converge in {_NEWTON_MAX_ITERS} Newton steps")
    utility = linear_expected_dap_utility(price, profile, gamma, bandwidth_w, n_total)
    return LinearPricingSolution(price, utility, price * thetas / 2.0)
