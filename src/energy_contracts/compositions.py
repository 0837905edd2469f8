"""Exact enumeration of seller-type count vectors and their multinomial
weights, plus the expectation sums built on top of them: rate_terms is the one
the solver and the welfare use; expected_dap_utility stays as an oracle.

With N sellers and K types the collector only knows the distribution, so its
objective averages over all C(N+K-1, K-1) count vectors. Enumeration is exact
and deterministic (ascending lexicographic order) so sums are bit-reproducible.
The table is written column by column into its final array, in the narrowest
unsigned integer that holds N: no table-sized intp or float64 array is formed.
rate_terms reads the same sum off a split table: pairs of count vectors over
ceil(K/2) and K - ceil(K/2) types, both read from the table of ceil(K/2)+1 columns.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .market import LN2, TypeProfile


# Most count vectors a market may have: (20, 8) has 888,030; (10, 20), 20,030,010, is refused. It bounds
# each rate_terms pass's evaluations, and the oracle's table, which at (10, 20) would take 560 MB.
MAX_TABLE_ROWS = 10_000_000
# Most bytes a solve may hold in its split table and K x K Newton Hessian: (2, 4000) and (1, 100000) pass
# the row budget with a few million rows but need 36 GB and 102 GB, so it refuses them; (20, 8) needs 648 kB.
MAX_SOLVE_BYTES = 2**29
_BLOCK_ROWS = 4096  # rows per block of a table's log-factorial sums; bounds their temporaries to rows x K
_BLOCK_PAIRS = 16_384  # (a, b) pairs per split-table block; bounds each rate_terms pass's temporaries


def table_rows(n_total: int, k_types: int) -> int:
    """Row count C(N+K-1, K-1) of the composition table, checked against
    MAX_TABLE_ROWS before anything is allocated (ValueError over it).

    The count is C(N+K-1, j), j = min(N, K-1), reached through C(b+i, i),
    i = 1..j, b = N+K-1-j, and the product stops once it passes the budget.
    As b >= j, each factor (b+i)/i at least doubles it: a huge market is
    refused within 24 steps, before its exact count is formed."""
    if k_types < 1:
        raise ValueError(f"k_types must be at least 1, got {k_types}")
    if n_total < 0:
        raise ValueError(f"n_total must be nonnegative, got {n_total}")
    j = min(n_total, k_types - 1)
    b, rows = n_total + k_types - 1 - j, 1
    for i in range(1, j + 1):
        rows = rows * (b + i) // i  # C(b+i, i), exactly
        if rows > MAX_TABLE_ROWS:
            raise ValueError(
                f"{n_total} sellers over {k_types} types make more than {MAX_TABLE_ROWS:,} count vectors, "
                f"the composition table's budget (at least {rows:,})"
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


def _row_blocks(rows: int):
    """Slices of _BLOCK_ROWS rows covering 0..rows."""
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, rows, _BLOCK_ROWS))


@lru_cache(maxsize=1)
def composition_table(n_total: int, k_types: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts matrix, probability vector): all C(N+K-1, K-1) count vectors of n_total sellers
    over k_types types, in ascending lexicographic order, each with its multinomial probability
    N! / (n_1! ... n_K! K^N).

    The counts are in the narrowest unsigned integer that holds N (uint8 up to N=255): widen
    them, or have einsum cast them in its buffered chunks, before any arithmetic whose result
    can exceed N. Returned read-only, and only the last table is cached: a run reuses one (N, K),
    and each further table kept would pin up to the budget's hundreds of megabytes. Tables over
    MAX_TABLE_ROWS rows are refused with a ValueError."""
    rows = table_rows(n_total, k_types)
    counts = _counts(n_total, k_types, rows)
    # log-factorial sums and exp block by block into probs: no rows-sized temporary beyond the table
    lgamma = np.array([math.lgamma(i + 1) for i in range(n_total + 1)])
    probs = np.empty(rows)
    for block in _row_blocks(rows):
        np.exp(lgamma[n_total] - lgamma[counts[block]].sum(axis=1) - n_total * math.log(k_types), out=probs[block])
    counts.setflags(write=False)
    probs.setflags(write=False)
    return counts, probs


def per_type(values: Sequence[float], profile: TypeProfile, name: str = "q") -> np.ndarray:
    """values as a float array, one entry per type of the ladder (ValueError otherwise)."""
    array = np.asarray(values, dtype=float)
    if array.size != profile.k:
        raise ValueError(f"{name} must have length {profile.k}, got {array.size}")
    return array


class Group(NamedTuple):
    """One group's count vectors by the sum r of the a's they pair with: those of r are
    counts[start[r] : start[r] + size[r]], with their weights."""

    counts: np.ndarray  # float64, one column per type of the group
    weights: np.ndarray
    start: np.ndarray
    size: np.ndarray


class SplitTable(NamedTuple):
    """The count vectors of N sellers over K types as pairs (a, b): a counts types 1..m and b types
    m+1..K, m = ceil(K/2). Both are read from one composition_table(N, m+1): its first column is
    the slack N - r of a row whose other columns, an a, sum to r. In the table's order the rows of
    each slack are contiguous, and those with a 0 in column 1 come first. The b's of sum s are the
    a's of sum s, read from their last K-m columns: all of them when K is even, and when K is odd
    the first ones, those with that 0. The weights are probabilities, and
    weight_a(a) weight_b(b) is the multinomial probability of (a, b):

        weight_a = N! / ((N-r)! prod a!) K^-N (K-m)^(N-r)     weight_b = s! / prod b! (K-m)^-s

    The pairs of sum r are the a's of sum r against the b's of sum N-r: both groups are indexed by r.
    """

    a: Group
    b: Group


def _starts(sizes: np.ndarray) -> np.ndarray:
    """First row of each run of rows, for runs of these sizes laid end to end."""
    return np.concatenate([[0], np.cumsum(sizes)])[:-1]


def split_nbytes(n_total: int, k_types: int) -> int:
    """Bytes a split_table holds with the composition_table it reads, without building either: the
    table, and in float64 the a's, a weight per a and per b, and when K is odd the b's own counts.
    Checked before anything is allocated (ValueError over a budget): the market's count vectors
    and the table's C(N+m, m) rows, m = ceil(K/2), against MAX_TABLE_ROWS, and these bytes with
    the 8K^2 of the solver's Newton Hessian against MAX_SOLVE_BYTES. Only at K=1 is the table the
    larger count: N+1 rows weigh the one count vector."""
    table_rows(n_total, k_types)
    m = (k_types + 1) // 2
    rows_a, rows_b = math.comb(n_total + m, m), math.comb(n_total + k_types - m, k_types - m)
    if rows_a > MAX_TABLE_ROWS:
        raise ValueError(
            f"{n_total} sellers need a split table of {rows_a:,} rows, "
            f"over the composition table's budget of {MAX_TABLE_ROWS:,} rows"
        )
    # past the check above, table_rows(N, m+1) = rows_a cannot raise its message of m+1 types
    nbytes = table_nbytes(n_total, m + 1) + 8 * (rows_a * (m + 1) + rows_b * (1 + (k_types - m) * (k_types % 2)))
    if (needed := nbytes + 8 * k_types**2) > MAX_SOLVE_BYTES:
        raise ValueError(
            f"{n_total} sellers over {k_types} types need {needed:,} bytes of split table "
            f"and Newton Hessian, over the solve's budget of {MAX_SOLVE_BYTES:,} bytes"
        )
    return nbytes


def split_table(n_total: int, k_types: int) -> SplitTable:
    """The SplitTable of N sellers over K types, from one composition_table lookup.
    Markets refused by split_nbytes raise its ValueError."""
    split_nbytes(n_total, k_types)
    m = (k_types + 1) // 2
    types_b = k_types - m
    counts = composition_table(n_total, m + 1)[0]
    # count vectors of sum s over j types, s = 0..N, for j = 0..m: each a cumulative sum of the last
    over = [np.eye(1, n_total + 1, dtype=np.intp)[0]]
    for _ in range(m):
        over.append(np.cumsum(over[-1]))
    b_counts = counts[:, 1:] if types_b == m else counts[counts[:, 1] == 0, 2:]
    # log (K-m)^i; K=1 leaves group B no type, and its one b, of sum 0, weight 0^0 = 1
    log_pow = np.zeros(n_total + 1)
    log_pow[1:] = np.arange(1, n_total + 1) * math.log(types_b) if types_b else -np.inf
    lgamma = np.array([math.lgamma(i + 1) for i in range(n_total + 1)])
    weight_a, weight_b = np.empty(counts.shape[0]), np.empty(b_counts.shape[0])
    for block in _row_blocks(counts.shape[0]):
        rest = counts[block, 0].astype(np.intp)
        log_a = lgamma[n_total] - lgamma[rest] - lgamma[counts[block, 1:]].sum(axis=1)
        np.exp(log_a - n_total * math.log(k_types) + log_pow[rest], out=weight_a[block])
    for block in _row_blocks(b_counts.shape[0]):
        s = b_counts[block].sum(axis=1, dtype=np.intp)
        np.exp(lgamma[s] - lgamma[b_counts[block]].sum(axis=1) - log_pow[s], out=weight_b[block])
    # by slack j the table holds the a's of sum N-j, and the b's of sum N-j, both runs in slack order
    a_counts = counts[:, 1:].astype(np.float64)
    b_counts = a_counts if types_b == m else b_counts.astype(np.float64)
    a = Group(a_counts, weight_a, _starts(over[m][::-1])[::-1], over[m])
    b = Group(b_counts, weight_b, _starts(over[types_b][::-1]), over[types_b][::-1])
    return SplitTable(a, b)


def _take(group: Group, r: int, g: int, offset: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts (g, width, types) and weights (g, width) of the group's vectors offset.. of the sums
    r..r+g-1. Past a sum's last vector the counts repeat it and the weights are 0."""
    if g == 1:  # one sum: a slice of its rows
        lo = int(group.start[r]) + offset
        return group.counts[None, lo : lo + width], group.weights[None, lo : lo + width]
    column, size = np.arange(width), group.size[r : r + g, None]
    index = group.start[r : r + g, None] + np.minimum(column, size - 1)
    return np.take(group.counts, index, axis=0), np.where(column < size, np.take(group.weights, index), 0.0)


def _split_blocks(split: SplitTable):
    """Yield (a, weight_a, b, weight_b) blocks of at most _BLOCK_PAIRS (a, b) pairs, each the pairs
    of g sums stacked: a (g, a_len, m) and b (g, b_len, K-m) float64 counts, with their (g, a_len)
    and (g, b_len) weights. A sum with more pairs is cut into blocks of its own. Consecutive smaller
    ones share a block, padded to the most a's and b's among them. As r grows, a's per sum never
    fall and b's never rise, so a block from r pads to g x a.size[r+g-1] x b.size[r]."""
    a_size, b_size = split.a.size, split.b.size
    r = int(np.flatnonzero(b_size)[0])  # K=1: only the sum N has a b
    while r < a_size.size:
        a_len, b_len = int(a_size[r]), int(b_size[r])
        if a_len * b_len > _BLOCK_PAIRS:
            b_step = min(b_len, _BLOCK_PAIRS)
            a_step = _BLOCK_PAIRS // b_step
            for a_off in range(0, a_len, a_step):
                for b_off in range(0, b_len, b_step):
                    a = _take(split.a, r, 1, a_off, min(a_step, a_len - a_off))
                    yield *a, *_take(split.b, r, 1, b_off, min(b_step, b_len - b_off))
            r += 1
            continue
        ahead = a_size[r : r + _BLOCK_PAIRS]
        g = int(np.searchsorted(np.arange(1, ahead.size + 1) * ahead * b_len, _BLOCK_PAIRS, side="right"))
        yield *_take(split.a, r, g, 0, int(ahead[g - 1])), *_take(split.b, r, g, 0, b_len)
        r += g


def rate_terms(split: SplitTable, q: np.ndarray, gamma: float, derivatives: bool = False):
    """The one expectation over the count vectors n = (a, b), in one pass over a split_table:
    E[log1p(gamma n.q)], or with derivatives=True the gradient and Hessian terms

        E[slope n] and E[slope^2 n n^T],   slope = gamma / (1 + gamma n.q),

    gamma folded into the slope so that both stay finite at any finite gamma. Each block sums
    weight_a^T f(a.q + b.q) weight_b over the (a, b) pairs of each of its sums."""
    m = split.a.counts.shape[1]
    qa, qb = q[:m], q[m:]

    def scaled(a, b):  # gamma n.q over the block, (g, a_len, b_len), each step in place
        values = (a @ qa)[:, :, None] + (b @ qb)[:, None, :]
        values *= gamma
        return values

    if not derivatives:
        total = 0.0
        for a, wa, b, wb in _split_blocks(split):
            rate = scaled(a, b)
            np.log1p(rate, out=rate)
            if rate.shape[0] > 1:  # padded pairs, of weight 0, add nothing even where the rate overflowed
                rate[(wa == 0.0)[:, :, None] | (wb == 0.0)[:, None, :]] = 0.0
            total += np.vdot(wa, rate @ wb[:, :, None])
        return float(total)
    grad = np.zeros(q.size)
    hess = np.zeros((q.size, q.size))
    for a, wa, b, wb in _split_blocks(split):
        slope = scaled(a, b)
        slope += 1.0
        np.divide(gamma, slope, out=slope)
        square = np.square(slope)
        # the block's a's and b's, one row each, plain and weighted
        a_rows, b_rows = a.reshape(wa.size, m), b.reshape(wb.size, -1)
        a_weighted, b_weighted = a_rows * wa.reshape(-1, 1), b_rows * wb.reshape(-1, 1)
        grad[:m] += a_weighted.T @ (slope @ wb[:, :, None]).ravel()
        grad[m:] += b_weighted.T @ (wa[:, None, :] @ slope).ravel()
        hess[:m, :m] += a_weighted.T @ (a_rows * (square @ wb[:, :, None]).reshape(-1, 1))
        hess[m:, m:] += b_weighted.T @ (b_rows * (wa[:, None, :] @ square).reshape(-1, 1))
        hess[:m, m:] += a_weighted.T @ (square @ b_weighted.reshape(b.shape)).reshape(wa.size, -1)
    hess[m:, :m] = hess[:m, m:].T
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
    counts, probs = composition_table(n_total, profile.k)  # einsum casts the narrow counts chunk by chunk
    rate = bandwidth_w * np.log2(1.0 + gamma * np.einsum("ij,j->i", counts, q))
    return float(probs @ (rate - np.einsum("ij,j->i", counts, pi)))


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
    rate = rate_terms(split_table(n_total, profile.k), q, gamma)
    return bandwidth_w * rate / LN2 - n_total / profile.k * float(q @ (q / profile.as_array()))
