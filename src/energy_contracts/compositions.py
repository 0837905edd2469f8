"""Exact enumeration of seller-type count vectors and their multinomial
weights, plus the expectation sums built on top of them: rate_terms is the one
the solver and the welfare use; expected_dap_utility stays as an oracle.

With N sellers and K types the collector only knows the distribution, so its
objective averages over all C(N+K-1, K-1) count vectors. Enumeration is exact
and deterministic (ascending lexicographic order) so sums are bit-reproducible.
The table is written column by column into its final array, in the narrowest
unsigned integer that holds N: no table-sized intp or float64 array is formed.
rate_terms reads the same sum off a split table: pairs of count vectors over
ceil(K/2) and K - ceil(K/2) types, both views of the table of ceil(K/2)+1 columns
and weighed by its own probabilities; for K <= 3 the whole table is read instead.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .market import LN2, TypeProfile, _market_size


# Most count vectors a market may have: (20, 8) has 888,030; (10, 20), 20,030,010, is refused. It bounds
# each rate_terms pass's evaluations, and the oracle's table, which at (10, 20) would take 560 MB.
MAX_TABLE_ROWS = 10_000_000
# Most bytes a solve may hold in the table its split reads and the K x K Newton Hessian: (2, 4000) and
# (1, 100000) pass the row budget with a few million rows but need 4.2 and 83 GB; (20, 8) needs 139 kB.
MAX_SOLVE_BYTES = 2**29
_BLOCK_ROWS = 4096  # rows per block of a table's log-factorial sums; bounds their temporaries to rows x K
_BLOCK_PAIRS = 16_384  # (a, b) pairs per split-table block; bounds each rate_terms pass's temporaries


def table_rows(n_total: int, k_types: int) -> int:
    """Row count C(N+K-1, K-1) of the composition table, checked against
    MAX_TABLE_ROWS before anything is allocated (ValueError over it), as is
    N+1, the log-factorials every table is built from.

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
    if n_total >= MAX_TABLE_ROWS:  # only K=1 gets here: its one row is built from N+1 log-factorials
        raise ValueError(
            f"{n_total} sellers need {n_total + 1:,} log-factorials, "
            f"over the composition table's budget of {MAX_TABLE_ROWS:,} rows"
        )
    return rows


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
    lgamma = np.fromiter(map(math.lgamma, range(1, n_total + 2)), float, count=n_total + 1)
    probs = np.empty(rows)
    for block in _row_blocks(rows):
        np.exp(lgamma[n_total] - lgamma[counts[block]].sum(axis=1) - n_total * math.log(k_types), out=probs[block])
    counts.setflags(write=False)
    probs.setflags(write=False)
    return counts, probs


def per_type(values: Sequence[float], profile: TypeProfile, name: str = "q") -> np.ndarray:
    """values as a float array, one nonnegative and finite entry per type of the ladder (ValueError
    otherwise)."""
    array = np.asarray(values, dtype=float)
    if array.size != profile.k:
        raise ValueError(f"{name} must have length {profile.k}, got {array.size}")
    bad = array[~(np.isfinite(array) & (array >= 0.0))]
    if bad.size:
        raise ValueError(f"{name} must be nonnegative and finite, got {bad[0]}")
    return array


class SplitTable(NamedTuple):
    """The count vectors of N sellers over K types as pairs (a, b): a counts types 1..m and b types
    m+1..K, m = ceil(K/2). Both are views of one composition_table(N, m+1): its first column is the
    slack N - r of a row whose other columns, an a, sum to r. In the table's order the rows of each
    slack are contiguous, and those with a 0 in column 1 come first. So the a's of sum r are the rows
    of slack N-r, and the b's of sum s, the last K-m columns, are the first rows of slack N-s: all of
    them when K is even, and when K is odd those with that 0. Both are weighed by the table's own
    probabilities p, and a pair of sum r by one factor more, c_r, so that p(a) p(b) c_r is the
    multinomial probability of (a, b):

        p(a) p(b) = N! C(N, r) / (prod a! prod b!) (m+1)^-2N      c_r = (m+1)^2N / (K^N C(N, r))

    runs holds, for each sum r, the rows of its a's, those of the b's of sum N-r they pair with, and
    c_r. For K <= 3 a is the whole table composition_table(N, K), weighed by its probabilities, and
    one run pairs it with b, the one empty vector, of weight 1, at c = 1.
    """

    a: np.ndarray
    weight_a: np.ndarray
    b: np.ndarray
    weight_b: np.ndarray
    runs: list[tuple[slice, slice, float]]


def split_nbytes(n_total: int, k_types: int) -> int:
    """Bytes of the composition_table a split_table reads, without building either: a narrow count
    per column and a float64 per row of the table of m+1 columns, m = ceil(K/2), or of all K for
    K <= 3; the split holds only views of it and a float per sum. Checked before anything is
    allocated (ValueError over a budget): the market by table_rows, whose count is at least that
    table's, and these bytes with the 8K^2 of the Newton Hessian against MAX_SOLVE_BYTES."""
    table_rows(n_total, k_types)
    cols = k_types if k_types <= 3 else (k_types + 1) // 2 + 1
    nbytes = math.comb(n_total + cols - 1, cols - 1) * (cols * np.min_scalar_type(n_total).itemsize + 8)
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
    if k_types <= 3:
        counts, probs = composition_table(n_total, k_types)
        return SplitTable(counts, probs, counts[:1, k_types:], np.ones(1), [(slice(0, len(counts)), slice(0, 1), 1.0)])
    m = (k_types + 1) // 2
    types_b = k_types - m
    counts, probs = composition_table(n_total, m + 1)
    # a's and b's of sum s, the count vectors of s over m and over K-m types
    size_a, size_b = ([math.comb(s + j - 1, s) for s in range(n_total + 1)] for j in (m, types_b))
    start = list(accumulate(size_a[::-1], initial=0))  # first row of each slack
    # c_r is a ratio of exact integers, rounded once, over the table's total squared: the rounding of
    # lgamma(N+1) - N ln(m+1) is common to every probability, and twice in a pair, unless divided out
    power, k_power, total = (m + 1) ** (2 * n_total), k_types**n_total, float(probs.sum())
    runs = [
        (slice(start[n_total - r], start[n_total - r + 1]), slice(start[r], start[r] + size_b[n_total - r]),
         power / (k_power * math.comb(n_total, r)) / total**2)
        for r in range(n_total + 1)
    ]
    return SplitTable(counts[:, 1:], probs, counts[:, m + 1 - types_b :], probs, runs)


def _blocks(split: SplitTable):
    """(a rows, b rows, c) of at most _BLOCK_PAIRS pairs: each run's a's x b's, cut across its b's
    when it has more b's than that, and across its a's otherwise, with the run's c."""
    for a_rows, b_rows, scale in split.runs:
        b_step = min(b_rows.stop - b_rows.start, _BLOCK_PAIRS)
        a_step = _BLOCK_PAIRS // b_step
        for a_lo in range(a_rows.start, a_rows.stop, a_step):
            a_block = slice(a_lo, min(a_lo + a_step, a_rows.stop))
            for b_lo in range(b_rows.start, b_rows.stop, b_step):
                yield a_block, slice(b_lo, min(b_lo + b_step, b_rows.stop)), scale


def rate_terms(split: SplitTable, q: np.ndarray, gamma: float, derivatives: bool = False):
    """The one expectation over the count vectors n = (a, b), in one pass over a split_table:
    E[log1p(gamma n.q)], and with derivatives=True the triple of it and the gradient and Hessian terms

        E[slope n] and E[slope^2 n n^T],   slope = gamma / (1 + gamma n.q),

    gamma folded into the slope so that both stay finite at any finite gamma. Each block sums
    (c weight_a)^T f(a.q + b.q) weight_b over its (a, b) pairs, both read as slices of the table.
    The value alone forms no slope: at n.q = 0 its square, gamma^2, overflows past gamma ~ 1.3e154."""
    m = split.a.shape[1]
    qa, qb = q[:m], q[m:]
    total, grad, hess = 0.0, np.zeros(q.size), np.zeros((q.size, q.size))
    for a_rows, b_rows, scale in _blocks(split):
        a, wa, b, wb = split.a[a_rows], scale * split.weight_a[a_rows], split.b[b_rows], split.weight_b[b_rows]
        if derivatives:  # the derivatives read each count six times: widen it once
            a, b = a.astype(np.float64), b.astype(np.float64)
        values = np.add.outer(a @ qa, b @ qb)  # gamma n.q over the block, (a's, b's), each step in place
        values *= gamma
        logs = np.log1p(values, out=np.empty_like(values) if derivatives else values)
        total += wa @ (logs @ wb)
        if not derivatives:
            continue
        values += 1.0
        slope = np.divide(gamma, values, out=values)
        square = np.square(slope, out=logs)
        a_weighted, b_weighted = a * wa[:, None], b * wb[:, None]
        grad[:m] += a_weighted.T @ (slope @ wb)
        grad[m:] += b_weighted.T @ (wa @ slope)
        hess[:m, :m] += a_weighted.T @ (a * (square @ wb)[:, None])
        hess[m:, m:] += b_weighted.T @ (b * (wa @ square)[:, None])
        hess[:m, m:] += a_weighted.T @ (square @ b_weighted)
    if not derivatives:
        return float(total)
    hess[m:, :m] = hess[:m, m:].T
    return float(total), grad, hess


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
    n_total, bandwidth_w = _market_size(n_total, bandwidth_w)
    q = per_type(q, profile)
    rate = rate_terms(split_table(n_total, profile.k), q, gamma)
    return bandwidth_w * rate / LN2 - n_total / profile.k * float(q @ (q / profile.as_array()))
