"""Exact enumeration of seller-type count vectors and their multinomial
weights, plus the expectation sums built on top of them.

With N sellers and K types the collector only knows the distribution, so its
objective averages over all C(N+K-1, K-1) count vectors. Enumeration is exact
and deterministic (ascending lexicographic order) so sums are bit-reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .market import LN2, TypeProfile


def _composition_tuples(n_total: int, k_types: int) -> Iterator[tuple[int, ...]]:
    if k_types == 1:
        yield (n_total,)
        return
    for head in range(n_total + 1):
        for tail in _composition_tuples(n_total - head, k_types - 1):
            yield (head,) + tail


@lru_cache(maxsize=64)
def composition_table(n_total: int, k_types: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts matrix, probability vector): all C(N+K-1, K-1) count vectors
    of n_total sellers over k_types types, in ascending lexicographic order,
    each with its multinomial probability N! / (n_1! ... n_K! K^N).

    The counts are float64, which holds every count exactly, so the table
    enters float products without a cast. Cached and returned read-only:
    the same table is reused across solver iterations and sweep points.
    """
    if k_types < 1:
        raise ValueError(f"k_types must be at least 1, got {k_types}")
    if n_total < 0:
        raise ValueError(f"n_total must be nonnegative, got {n_total}")
    counts = np.array(list(_composition_tuples(n_total, k_types)), dtype=np.int64)
    counts = counts.reshape(-1, k_types)
    # log-factorial lookup over 0..N keeps this exact and fast for big tables
    lgamma = np.array([math.lgamma(i + 1) for i in range(n_total + 1)])
    log_probs = lgamma[n_total] - lgamma[counts].sum(axis=1) - n_total * math.log(k_types)
    probs = np.exp(log_probs)
    counts = counts.astype(np.float64)
    counts.setflags(write=False)
    probs.setflags(write=False)
    return counts, probs


def expected_dap_utility(
    q: Sequence[float],
    pi: Sequence[float],
    profile: TypeProfile,
    gamma: float,
    bandwidth_w: float,
    n_total: int,
) -> float:
    """Collector's expected utility for a fixed menu (q, pi):

        sum over count vectors n of  Phi(n) * [W log2(1 + gamma n.q) - n.pi]

    The reward part collapses to -(N/K) * sum_k pi_k because each expected
    count is N/K; the enumerated sum is kept as the literal definition.
    """
    q = np.asarray(q, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if q.size != profile.k or pi.size != profile.k:
        raise ValueError(
            f"q and pi must have length {profile.k}, got {q.size} and {pi.size}"
        )
    counts, probs = composition_table(n_total, profile.k)
    rate = bandwidth_w * np.log2(1.0 + gamma * (counts @ q))
    return float(probs @ (rate - counts @ pi))


def expected_social_welfare(
    q: Sequence[float],
    profile: TypeProfile,
    gamma: float,
    bandwidth_w: float,
    n_total: int,
) -> float:
    """Expected total surplus of a menu: rewards cancel, energy costs remain.

    sum over count vectors n of  Phi(n) * [W log2(1 + gamma n.q) - n.(q^2/theta)]
    """
    q = np.asarray(q, dtype=float)
    if q.size != profile.k:
        raise ValueError(f"q must have length {profile.k}, got {q.size}")
    counts, probs = composition_table(n_total, profile.k)
    rate = bandwidth_w * np.log1p(gamma * (counts @ q)) / LN2
    cost = counts @ (q * q / profile.as_array())
    return float(probs @ (rate - cost))
