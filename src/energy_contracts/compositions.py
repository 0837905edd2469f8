"""Exact enumeration of seller-type count vectors and their multinomial
weights, plus the expectation sums built on top of them.

With N sellers and K types the collector only knows the distribution, so its
objective averages over all C(N+K-1, K-1) count vectors. Enumeration is exact
and deterministic (ascending lexicographic order) so sums are bit-reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .market import LN2, TypeProfile


# Largest table composition_table builds: (20, 8) has 888,030 rows; (10, 20), 20,030,010, would take 560 MB.
MAX_TABLE_ROWS = 10_000_000
_BLOCK_ROWS = 4096  # rows per table_blocks block; bounds each pass's temporaries to rows x K


def table_rows(n_total: int, k_types: int) -> int:
    """Row count C(N+K-1, K-1) of the composition table, checked against
    MAX_TABLE_ROWS before anything is allocated (ValueError over it)."""
    if k_types < 1:
        raise ValueError(f"k_types must be at least 1, got {k_types}")
    if n_total < 0:
        raise ValueError(f"n_total must be nonnegative, got {n_total}")
    rows = math.comb(n_total + k_types - 1, k_types - 1)
    if rows > MAX_TABLE_ROWS:
        raise ValueError(
            f"{n_total} sellers over {k_types} types make {rows:,} count vectors, "
            f"over the composition table's budget of {MAX_TABLE_ROWS:,} rows"
        )
    return rows


def _bar_positions(n_total: int, k_types: int, rows: int) -> np.ndarray:
    """(rows, K+1) array whose row i is 0, the K-1 bars of the i-th count
    vector, then N.

    A count vector corresponds to its prefix sums (n_1, n_1+n_2, ...), a
    nondecreasing tuple over 0..N, and lexicographic order carries over. The
    tuples grow one bar per level: a row whose last bar is v has children
    v..N. Each level keeps only its last bars and parent indices, and the
    columns are filled by walking the parents back from the last level.
    """
    dtype = np.min_scalar_type(n_total)
    bars = np.empty((rows, k_types + 1), dtype=dtype)
    bars[:, 0] = 0
    bars[:, -1] = n_total
    levels = [(np.arange(n_total + 1, dtype=dtype), None)]
    for _ in range(k_types - 2):
        last = levels[-1][0]
        widths = n_total + 1 - last.astype(np.intp)
        parent = np.repeat(np.arange(last.size), widths)
        first_child = np.cumsum(widths) - widths
        rank = np.arange(parent.size) - first_child[parent]
        levels.append(((last[parent] + rank).astype(dtype), parent))
    index = slice(None)
    for column in range(k_types - 1, 0, -1):
        last, parent = levels.pop()
        bars[:, column] = last[index]
        if parent is not None:
            index = parent[index]
    return bars


@lru_cache(maxsize=1)
def composition_table(n_total: int, k_types: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts matrix, probability vector): all C(N+K-1, K-1) count vectors
    of n_total sellers over k_types types, in ascending lexicographic order,
    each with its multinomial probability N! / (n_1! ... n_K! K^N).

    The counts are in the narrowest unsigned integer that holds N (uint8 up
    to N=255): widen them, as table_blocks does, before any arithmetic whose
    result can exceed N. Returned read-only, and only the last table is
    cached: a run reuses one (N, K), and each further table kept would pin up
    to the budget's hundreds of megabytes. Tables over MAX_TABLE_ROWS rows
    are refused with a ValueError.
    """
    rows = table_rows(n_total, k_types)
    counts = np.diff(_bar_positions(n_total, k_types, rows), axis=1)
    # log-factorial lookup over 0..N, gathered block by block: no (rows, K) float64 array is formed
    lgamma = np.array([math.lgamma(i + 1) for i in range(n_total + 1)])
    chunks = (counts[lo : lo + _BLOCK_ROWS] for lo in range(0, rows, _BLOCK_ROWS))
    log_denom = np.concatenate([lgamma[chunk].sum(axis=1) for chunk in chunks])
    probs = np.exp(lgamma[n_total] - log_denom - n_total * math.log(k_types))
    counts.setflags(write=False)
    probs.setflags(write=False)
    return counts, probs


def table_blocks(table: tuple[np.ndarray, np.ndarray]):
    """Yield a composition_table pair as (counts, probs) blocks of _BLOCK_ROWS rows, the counts
    widened to float64: the one pass of every expectation. Each counts block is written into one
    reused buffer, so it is valid only until the next one is yielded."""
    counts, probs = table
    wide = np.empty((min(_BLOCK_ROWS, counts.shape[0]), counts.shape[1]))
    for lo in range(0, counts.shape[0], _BLOCK_ROWS):
        block = wide[: min(_BLOCK_ROWS, counts.shape[0] - lo)]
        block[...] = counts[lo : lo + _BLOCK_ROWS]
        yield block, probs[lo : lo + _BLOCK_ROWS]


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
    blocks = table_blocks(composition_table(n_total, profile.k))
    return float(sum(probs @ (bandwidth_w * np.log2(1.0 + gamma * (c @ q)) - c @ pi) for c, probs in blocks))


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
    blocks, unit_cost = table_blocks(composition_table(n_total, profile.k)), q * q / profile.as_array()
    return float(sum(probs @ (bandwidth_w * np.log1p(gamma * (c @ q)) / LN2 - c @ unit_cost) for c, probs in blocks))
