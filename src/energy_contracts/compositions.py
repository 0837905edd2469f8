"""Exact enumeration of seller-type count vectors and their multinomial
weights, plus the expectation sums built on top of them: rate_terms is the one
the solver and the welfare use; expected_dap_utility stays as an oracle.

With N sellers and K types the collector only knows the distribution, so its
objective averages over all C(N+K-1, K-1) count vectors. Enumeration is exact
and deterministic (ascending lexicographic order) so sums are bit-reproducible.
The table is written column by column into its final array, in the narrowest
unsigned integer that holds N: no table-sized intp or float64 array is formed.
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


def table_nbytes(n_total: int, k_types: int) -> int:
    """Bytes composition_table holds, without building it: K narrow counts and a float64 per row."""
    return table_rows(n_total, k_types) * (k_types * np.min_scalar_type(n_total).itemsize + 8)


def _counts(n_total: int, k_types: int, rows: int) -> np.ndarray:
    """(rows, K) count vectors, column by column. Level j lists each prefix (n_1..n_j) by its last
    value and what it leaves, s; a prefix leaving s has children ending in the ramp 0..s. A cumsum
    over ones lays a level's ramps end to end, each ramp's first cell taking back the previous top:
    it wraps in the counts' own type, exactly, as no value exceeds N. Only level-sized arrays are intp."""
    dtype = np.min_scalar_type(n_total)
    counts = np.empty((rows, k_types), dtype=dtype)
    rest = np.array([n_total], dtype=dtype)
    for column in range(k_types - 1):
        widths = rest.astype(np.intp) + 1
        last = column == k_types - 2  # column K-1 is the last level's ramps as they are
        values = counts[:, column] if last else np.empty(widths.sum(), dtype)
        values[...] = 1
        values[0] = 0
        values[np.cumsum(widths[:-1])] = -rest[:-1]
        np.cumsum(values, dtype=dtype, out=values)
        rest = np.repeat(rest, widths) - values
        if not last:  # each value repeats for the C(s+K-j-1, s) rows below it
            below = np.array([math.comb(s + k_types - 2 - column, s) for s in range(n_total + 1)])
            counts[:, column] = np.repeat(values, below[rest])
    counts[:, -1] = rest
    return counts


@lru_cache(maxsize=1)
def composition_table(n_total: int, k_types: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts matrix, probability vector): all C(N+K-1, K-1) count vectors of n_total sellers
    over k_types types, in ascending lexicographic order, each with its multinomial probability
    N! / (n_1! ... n_K! K^N).

    The counts are in the narrowest unsigned integer that holds N (uint8 up to N=255): widen
    them, as table_blocks does, before any arithmetic whose result can exceed N. Returned
    read-only, and only the last table is cached: a run reuses one (N, K), and each further
    table kept would pin up to the budget's hundreds of megabytes. Tables over MAX_TABLE_ROWS
    rows are refused with a ValueError."""
    rows = table_rows(n_total, k_types)
    counts = _counts(n_total, k_types, rows)
    # log-factorial sums and exp block by block into probs: no rows-sized temporary beyond the table
    lgamma = np.array([math.lgamma(i + 1) for i in range(n_total + 1)])
    probs = np.empty(rows)
    for block in (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, rows, _BLOCK_ROWS)):
        np.exp(lgamma[n_total] - lgamma[counts[block]].sum(axis=1) - n_total * math.log(k_types), out=probs[block])
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


def per_type(values: Sequence[float], profile: TypeProfile, name: str = "q") -> np.ndarray:
    """values as a float array, one entry per type of the ladder (ValueError otherwise)."""
    array = np.asarray(values, dtype=float)
    if array.size != profile.k:
        raise ValueError(f"{name} must have length {profile.k}, got {array.size}")
    return array


def rate_terms(table: tuple[np.ndarray, np.ndarray], q: np.ndarray, gamma: float, derivatives: bool = False):
    """The one expectation over the count vectors, in one table_blocks pass over a composition_table
    pair: E[log1p(gamma n.q)], or with derivatives=True the gradient and Hessian terms

        E[a n] and E[a^2 n n^T],   a = gamma / (1 + gamma n.q),

    gamma folded into a so that both stay finite at any finite gamma."""
    if not derivatives:
        return float(sum(probs @ np.log1p(gamma * (counts @ q)) for counts, probs in table_blocks(table)))
    grad = np.zeros(q.size)
    hess = np.zeros((q.size, q.size))
    for counts, probs in table_blocks(table):
        slope = gamma / (1.0 + gamma * (counts @ q))
        u = probs * slope
        grad += counts.T @ u
        hess += counts.T @ (counts * (u * slope)[:, None])
    return grad, hess


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
    count is N/K; the enumerated sum is kept as the literal definition, an
    oracle independent of rate_terms.
    """
    q, pi = per_type(q, profile), per_type(pi, profile, "pi")
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

        E[W log2(1 + gamma n.q)] - (N/K) sum_k q_k^2/theta_k

    The cost is linear in the counts, so its expectation is exact with E[n_k] = N/K.
    """
    q = per_type(q, profile)
    rate = rate_terms(composition_table(n_total, profile.k), q, gamma)
    return bandwidth_w * rate / LN2 - n_total / profile.k * float(q @ (q / profile.as_array()))
