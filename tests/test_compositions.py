import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from energy_contracts import (
    TypeProfile,
    composition_table,
    compositions,
    expected_dap_utility,
    expected_social_welfare,
    social_welfare,
    Contract,
)


def rows_of(n, k):
    return [tuple(int(c) for c in row) for row in composition_table(n, k)[0]]


def prob_of(counts):
    """Table probability of one count vector, found by its row."""
    rows, probs = composition_table(sum(counts), len(counts))
    (index,) = np.flatnonzero((rows == np.asarray(counts)).all(axis=1))
    return probs[index]


class TestEnumeration:
    def test_two_by_two(self):
        assert rows_of(2, 2) == [(0, 2), (1, 1), (2, 0)]

    def test_stars_and_bars_count(self):
        assert len(rows_of(5, 10)) == math.comb(14, 9)

    def test_empty_market(self):
        assert rows_of(0, 3) == [(0, 0, 0)]

    def test_zero_types_rejected(self):
        with pytest.raises(ValueError):
            composition_table(2, 0)

    @given(n=st.integers(0, 6), k=st.integers(1, 5))
    @settings(max_examples=60)
    def test_count_formula_and_totals(self, n, k):
        rows = rows_of(n, k)
        assert len(rows) == math.comb(n + k - 1, k - 1)
        assert all(sum(row) == n for row in rows)
        assert len(set(rows)) == len(rows)

    def test_lexicographic_order(self):
        rows = rows_of(3, 3)
        assert rows == sorted(rows)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            composition_table(-1, 2)


class TestMultinomialProb:
    def test_split_pair(self):
        # direct factorial evaluation: 2! / (1! 1! 0!^3 * 5^2)
        direct = math.factorial(2) / (5**2)
        assert prob_of((1, 1, 0, 0, 0)) == pytest.approx(direct, rel=1e-14)
        assert direct == pytest.approx(0.08)

    def test_concentrated_pair(self):
        assert prob_of((2, 0, 0, 0, 0)) == pytest.approx(0.04, rel=1e-14)

    @pytest.mark.parametrize("n,k", [(0, 1), (3, 2), (5, 4), (7, 3), (8, 6)])
    def test_total_probability(self, n, k):
        total = sum(composition_table(n, k)[1])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_factorial_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            counts = tuple(int(c) for c in rng.integers(0, 5, size=k))
            n = sum(counts)
            oracle = math.factorial(n)
            for c in counts:
                oracle //= math.factorial(c)
            assert prob_of(counts) == pytest.approx(oracle / k**n, rel=1e-12)

    @pytest.mark.parametrize(
        "n, k, row_bound", [(20, 8, 2e-14), (10, 10, 2e-14), (12, 7, 1e-14), (100, 4, 3e-13)]
    )
    def test_whole_tables_match_exact_multinomials(self, n, k, row_bound):
        # each row against N! / (n_1! ... n_K!) / K^N in exact integers, rounded once. The worst rows
        # measured 8.9e-15, 7.4e-15, 4.3e-15 and 1.4e-13 relative: each probability's exp rounds a
        # log of size lgamma(N+1) + N ln K, so the bound grows with N. The split's rate, against
        # the exact probabilities summed by math.fsum, measured at most 4.9e-15, at (20, 8)
        counts, probs = composition_table(n, k)
        factorials, power = [math.factorial(i) for i in range(n + 1)], k**n
        exact = np.array([factorials[n] // math.prod(factorials[c] for c in row) / power for row in counts.tolist()])
        assert math.fsum(exact) == 1.0
        assert (np.abs(probs - exact) / exact).max() <= row_bound
        q, split = np.linspace(0.2, 1.0, k), compositions.split_table(n, k)
        for gamma in (0.125, 125.0):
            oracle = math.fsum(exact * np.log1p(gamma * (counts @ q)))
            assert compositions.rate_terms(split, q, gamma) == pytest.approx(oracle, rel=1e-14)

    def test_large_populations_do_not_overflow(self):
        # 200! overflows float64 outright; the log-space path must not
        exact = math.comb(200, 100) / 2**200  # big-int arithmetic, then one division
        assert prob_of((100, 100)) == pytest.approx(exact, rel=1e-11)
        assert prob_of((170, 5, 0)) > 0.0


class TestCompositionTable:
    def test_matches_enumeration(self):
        counts, probs = composition_table(4, 3)
        listed = sorted(c for c in itertools.product(range(5), repeat=3) if sum(c) == 4)
        assert counts.shape == (len(listed), 3)
        for row, comp, p in zip(counts, listed, probs):
            assert tuple(row) == comp
            oracle = math.factorial(4) / math.prod(math.factorial(c) for c in comp) / 3**4
            assert p == pytest.approx(oracle, rel=1e-13)

    def test_counts_are_narrow_integers(self):
        # the narrowest unsigned integer that holds N
        assert composition_table(3, 4)[0].dtype == np.uint8
        assert composition_table(255, 2)[0].dtype == np.uint8
        assert composition_table(256, 2)[0].dtype == np.uint16
        assert composition_table(65_535, 2)[0].dtype == np.uint16
        assert composition_table(65_536, 2)[0].dtype == np.uint32

    def test_expected_counts_uniform(self):
        counts, probs = composition_table(6, 4)
        np.testing.assert_allclose(probs @ counts, np.full(4, 6 / 4), atol=1e-12)

    def test_read_only(self):
        counts, probs = composition_table(2, 2)
        with pytest.raises(ValueError):
            counts[0, 0] = 5

    def test_cache_keeps_one_table(self):
        held = weakref.ref(composition_table(7, 3)[0])
        assert held() is not None
        composition_table(8, 3)
        gc.collect()
        assert held() is None


class TestVectorisedBuild:
    @staticmethod
    def bar_oracle(n, k):
        """Counts from the nondecreasing bar tuples, enumerated by itertools."""
        # shape (rows, K-1); at K = 1 the one empty tuple gives shape (1, 0)
        bars = np.array(list(itertools.combinations_with_replacement(range(n + 1), k - 1)), dtype=np.int64)
        zeros = np.zeros((bars.shape[0], 1), dtype=np.int64)
        return np.diff(np.hstack([zeros, bars, zeros + n]), axis=1)

    # past N=12: the next-to-last column's wrapping cumsum at each dtype boundary
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(13) for k in range(1, 7)]
        + [(20, 8), (255, 3), (256, 3), (300, 3), (65_535, 2), (70_000, 2)],
    )
    def test_matches_bar_enumeration(self, n, k):
        counts, _ = composition_table(n, k)
        oracle = self.bar_oracle(n, k)
        assert counts.shape == oracle.shape
        assert np.array_equal(counts, oracle)

    @pytest.mark.parametrize("n, k", [(0, 1), (0, 3), (4, 1), (5, 3), (300, 3)])
    def test_float64_and_read_only(self, n, k):
        # float64 probabilities; counts in uint8, or uint16 once N exceeds 255
        counts, probs = composition_table(n, k)
        assert counts.dtype == (np.uint16 if n > 255 else np.uint8)
        assert probs.dtype == np.float64
        for array in (counts, probs):
            assert not array.flags.writeable

    def test_cold_build_peaks_at_the_table(self):
        # N=20, K=8 holds 14.2 MB; a rows-sized intp index array alone would add 7.1 MB to the peak.
        # N=1,000,000, K=2 holds 16 MB and is built from 8 MB of float64 log-factorials, which a
        # list of Python floats held four times over
        for n, k, log_factorials in [(20, 8, 0), (1_000_000, 2, 8_000_008)]:
            composition_table.cache_clear()
            tracemalloc.start()
            try:
                counts, probs = composition_table(n, k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= counts.nbytes + probs.nbytes + log_factorials + 5e6

    @pytest.mark.parametrize("n, k", [(20, 8), (10, 10), (300, 3), (0, 1), (70_000, 2)])
    def test_nbytes_without_building(self, n, k):
        # K narrow counts and a float64 per row, as split_nbytes counts them for the table a split reads
        cols = k if k <= 3 else (k + 1) // 2 + 1
        nbytes = compositions.split_nbytes(n, k)
        counts, probs = composition_table(n, cols)
        assert counts.dtype == np.min_scalar_type(n) and probs.dtype == np.float64
        assert counts.shape == (compositions.table_rows(n, cols), cols)
        assert nbytes == counts.nbytes + probs.nbytes

    def test_over_budget_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="20,030,010"):
                composition_table(10, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("build", ["table", "oracle"])
    def test_one_type_over_budget_refused_before_allocating(self, build):
        # one count vector, but weighed from N+1 log-factorials: 10,000,001 of them peaked at about 100 MB
        n = compositions.MAX_TABLE_ROWS
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"need {n + 1:,} log-factorials"):
                if build == "table":
                    composition_table(n, 1)
                else:
                    expected_dap_utility([0.5], [0.1], TypeProfile((1.0,)), 1.0, 1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert compositions.table_rows(n - 1, 1) == 1


class TestExpectedDapUtility:
    def test_null_menu(self):
        profile = TypeProfile((1.0, 2.0))
        assert expected_dap_utility([0, 0], [0, 0], profile, 1.0, 1.0, 3) == 0.0

    def test_single_type_reduces(self):
        profile = TypeProfile((2.0,))
        q, pi, gamma, w, n = [0.7], [0.3], 1.5, 2.0, 4
        expected = w * math.log2(1 + gamma * n * q[0]) - n * pi[0]
        assert expected_dap_utility(q, pi, profile, gamma, w, n) == pytest.approx(expected, rel=1e-14)

    def test_uniform_q_two_types(self):
        profile = TypeProfile((1.0, 2.0))
        # every count vector sums to 2, so the rate term is log2(3) everywhere
        value = expected_dap_utility([1, 1], [0, 0], profile, 1.0, 1.0, 2)
        assert value == pytest.approx(math.log2(3.0), rel=1e-14)

    def test_reward_part_closed_form(self):
        rng = np.random.default_rng(11)
        profile = TypeProfile((0.5, 1.0, 2.0))
        for n in (1, 2, 5):
            pi = rng.uniform(0.0, 2.0, size=3)
            value = expected_dap_utility(np.zeros(3), pi, profile, 1.0, 1.0, n)
            closed = -(n / 3) * pi.sum()
            assert value == pytest.approx(closed, rel=1e-12, abs=1e-13)

    def test_length_mismatch(self):
        profile = TypeProfile((1.0, 2.0))
        with pytest.raises(ValueError):
            expected_dap_utility([1.0], [1.0], profile, 1.0, 1.0, 2)

    def test_concave_in_q(self):
        rng = np.random.default_rng(3)
        profile = TypeProfile((0.5, 1.5, 3.0))
        pi = np.zeros(3)
        for _ in range(25):
            x = rng.uniform(0, 2, size=3)
            y = rng.uniform(0, 2, size=3)
            t = rng.random()
            mid = expected_dap_utility(t * x + (1 - t) * y, pi, profile, 0.8, 1.3, 3)
            chord = t * expected_dap_utility(x, pi, profile, 0.8, 1.3, 3) + (
                1 - t
            ) * expected_dap_utility(y, pi, profile, 0.8, 1.3, 3)
            assert mid >= chord - 1e-9

    def test_decreasing_in_each_reward(self):
        profile = TypeProfile((0.5, 1.5, 3.0))
        q = np.array([0.1, 0.2, 0.3])
        pi = np.array([0.1, 0.2, 0.3])
        base = expected_dap_utility(q, pi, profile, 1.0, 1.0, 2)
        for k in range(3):
            bumped = pi.copy()
            bumped[k] += 0.05
            assert expected_dap_utility(q, bumped, profile, 1.0, 1.0, 2) < base


def whole_table_terms(n, k, q, gamma):
    """rate_terms' value, gradient and Hessian as whole-table numpy sums over composition_table(n, k)."""
    table = composition_table(n, k)
    counts, probs = table[0].astype(np.float64), table[1]
    s = counts @ q
    a = gamma / (1.0 + gamma * s)
    return probs @ np.log1p(gamma * s), counts.T @ (probs * a), counts.T @ (counts * (probs * a * a)[:, None])


@st.composite
def increasing_ladders(draw, k):
    gaps = [draw(st.floats(0.01, 1.5)) for _ in range(k)]
    return np.cumsum(gaps)


class TestRateTerms:
    """rate_terms is the one expectation on the solver's path; whatever computes it must match
    these whole-table sums."""

    @pytest.mark.parametrize(
        "n,k,gamma",
        [(1, 1, 1.0), (2, 5, 0.125), (6, 5, 3.0), (10, 3, 40.0), (5, 6, 1e-300), (5, 6, 1e290)]
        + [(100, 4, 0.125), (30, 6, 1.0)],
    )
    def test_matches_whole_table_sums(self, monkeypatch, n, k, gamma):
        q = np.linspace(0.2, 1.0, k)
        value, grad, hess = whole_table_terms(n, k, q, gamma)
        # the split reads composition_table(n, ceil(k/2)+1), built in blocks of 64 rows: the 84 rows of
        # (6, 5) end in a partial block. At (100, 4) c_r reaches 1.7e35 and the table's probabilities
        # fall to 1.9e-48; their products, like (30, 6)'s, hold the whole table's sums
        monkeypatch.setattr(compositions, "_BLOCK_ROWS", 64)
        split = compositions.split_table(n, k)
        # 5 pairs a block cut every sum of (6, 5), across its b's or across its a's, four of them
        # into a partial last block, and the 66 rows of (10, 3) into 14 blocks; 64 hold each sum of
        # (6, 5) in one block, and cut (10, 3) into a full and a partial block
        for block in (5, 64):
            monkeypatch.setattr(compositions, "_BLOCK_PAIRS", block)
            split_value = compositions.rate_terms(split, q, gamma)
            assert split_value == pytest.approx(value, rel=1e-12)
            derived_value, split_grad, split_hess = compositions.rate_terms(split, q, gamma, derivatives=True)
            assert derived_value == split_value  # the derivative pass sums the same value in the same order
            np.testing.assert_allclose(split_grad, grad, rtol=1e-12)
            np.testing.assert_allclose(split_hess, hess, rtol=1e-12)

    @pytest.mark.parametrize("n, k", [(300, 3), (2000, 2)])
    def test_many_sums_in_one_block(self, n, k):
        # K <= 3: the whole table is one run, each block of it rows of many sums
        q = np.linspace(0.2, 1.0, k) / n
        value, grad, hess = whole_table_terms(n, k, q, 0.125)
        split = compositions.split_table(n, k)
        split_value, split_grad, split_hess = compositions.rate_terms(split, q, 0.125, derivatives=True)
        assert split_value == compositions.rate_terms(split, q, 0.125) == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(split_grad, grad, rtol=1e-12)
        np.testing.assert_allclose(split_hess, hess, rtol=1e-12)

    def test_overflowing_rate_is_infinite(self):
        # every pair has a positive weight: none adds 0 x inf where gamma n.q overflows
        split = compositions.split_table(5, 3)
        with np.errstate(over="ignore", invalid="raise"):
            assert compositions.rate_terms(split, np.array([1.0, 2.0, 3.0]), 1e308) == math.inf

    # odd K splits into unequal halves, K=1 leaves group B empty; a term below the
    # smallest normal float (a Hessian near gamma = 1e-154) is held only to that float's size
    @given(n=st.integers(0, 12), k=st.integers(1, 9), exponent=st.floats(-300.0, 290.0), data=st.data())
    @settings(max_examples=200)
    def test_matches_whole_table_sums_on_random_ladders(self, n, k, exponent, data):
        q = data.draw(increasing_ladders(k))
        gamma = 0.125 * 10.0**exponent  # the default scenario's reference gamma times 1e-300..1e290
        with np.errstate(over="ignore", invalid="ignore"):  # at N=0 the slope is gamma, and its square can overflow
            value, grad, hess = whole_table_terms(n, k, q, gamma)
        split = compositions.split_table(n, k)
        tiny = np.finfo(float).tiny
        split_value = compositions.rate_terms(split, q, gamma)
        assert split_value == pytest.approx(value, rel=1e-12, abs=tiny)
        if n:
            derived_value, split_grad, split_hess = compositions.rate_terms(split, q, gamma, derivatives=True)
            assert derived_value == split_value
            np.testing.assert_allclose(split_grad, grad, rtol=1e-12, atol=tiny)
            np.testing.assert_allclose(split_hess, hess, rtol=1e-12, atol=tiny)


class TestSplitTable:
    @pytest.mark.parametrize("n, k", [(0, 1), (4, 1), (3, 2), (5, 3), (6, 5), (4, 6), (7, 7), (6, 8)])
    def test_pairs_are_the_count_vectors(self, monkeypatch, n, k):
        # every (a, b) pair of the blocks, read as one count vector, is a row of the whole table
        # with its probability p(a) p(b) c_r, and is met once
        counts, probs = composition_table(n, k)
        expected = {tuple(int(c) for c in row): p for row, p in zip(counts, probs)}
        split = compositions.split_table(n, k)
        for block in (7, 16_384):
            monkeypatch.setattr(compositions, "_BLOCK_PAIRS", block)
            met = {}
            for a_rows, b_rows, scale in compositions._blocks(split):
                pairs = itertools.product(
                    zip(split.a[a_rows], split.weight_a[a_rows]), zip(split.b[b_rows], split.weight_b[b_rows])
                )
                for (row_a, weight_a), (row_b, weight_b) in pairs:
                    row = tuple(int(c) for c in np.concatenate([row_a, row_b]))
                    assert row not in met
                    met[row] = weight_a * weight_b * scale
            assert sorted(met) == sorted(expected)
            for row, p in expected.items():
                assert met[row] == pytest.approx(p, rel=1e-13)

    @pytest.mark.parametrize("n, k", [(20, 8), (10, 10), (12, 7), (0, 1), (300, 3), (5, 2)])
    def test_looks_one_table_up(self, n, k):
        # the table of ceil(K/2)+1 columns, or for K <= 3 the whole table
        composition_table.cache_clear()
        compositions.split_table(n, k)
        composition_table(n, k if k <= 3 else (k + 1) // 2 + 1)
        info = composition_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("n, k", [(20, 8), (10, 10), (12, 7), (3, 4), (0, 1), (4, 2), (300, 3)])
    def test_nbytes_without_building(self, n, k):
        # the split holds views of the table and its probabilities, a float per sum, and for K <= 3
        # the one empty b's weight
        nbytes = compositions.split_nbytes(n, k)
        split = compositions.split_table(n, k)
        counts, probs = composition_table(n, k if k <= 3 else (k + 1) // 2 + 1)
        assert nbytes == counts.nbytes + probs.nbytes
        assert all(view is counts or view.base is counts for view in (split.a, split.b))
        assert split.weight_a is probs
        assert (split.weight_b is probs) if k > 3 else (split.weight_b.tolist() == [1.0])
        assert all(isinstance(scale, float) for _, _, scale in split.runs)

    @pytest.mark.parametrize("n, k", [(0, 1), (4, 1), (0, 2), (5, 3), (300, 2), (300, 3)])
    def test_small_k_reads_the_whole_table(self, n, k):
        # the split is composition_table(N, K) itself, one run against the empty b, and holds nothing more
        counts, probs = composition_table(n, k)
        split = compositions.split_table(n, k)
        assert compositions.split_nbytes(n, k) == counts.nbytes + probs.nbytes
        assert np.shares_memory(split.a, counts) and split.weight_a is probs
        assert split.runs == [(slice(0, counts.shape[0]), slice(0, 1), 1.0)]
        assert split.b.shape == (1, 0) and split.weight_b.tolist() == [1.0]

    def test_small_k_pass_peaks_at_the_table(self):
        # N=2000, K=3: 2,003,001 count vectors in a 28 MB table; the split held float64 copies of
        # them and a weight each beside it, 76 MB in all, and its blocks stacked them through np.take
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            split = compositions.split_table(2000, 3)
            compositions.rate_terms(split, np.linspace(0.2, 1.0, 3) / 2000, 0.125, derivatives=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = compositions.split_nbytes(2000, 3)
        assert nbytes == split.a.nbytes + split.weight_a.nbytes
        assert peak <= nbytes + 3e6

    @pytest.mark.parametrize(
        "n, k, nbytes", [(9_999_999, 2, 160_000_000), (4470, 3, 139_960_184), (20, 8, 138_138), (10, 10, 42_042)]
    )
    def test_largest_markets_fit_the_byte_budget(self, n, k, nbytes):
        # the two widest tables the row budget admits, and the benchmark's markets
        assert compositions.split_nbytes(n, k) == nbytes
        assert nbytes + 8 * k * k <= compositions.MAX_SOLVE_BYTES

    @pytest.mark.parametrize("n, k, needed", [(2, 4000, "4,152,029,009"), (1, 100_000, "82,500,500,009")])
    def test_wide_market_refused_before_allocating(self, n, k, needed):
        # within the row budget, but the split table and the K x K Newton Hessian would take 4 and 83 GB
        composition_table.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{needed} bytes"):
                compositions.split_table(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert composition_table.cache_info()[:2] == (0, 0)
        assert peak < 100_000

    def test_block_bound(self, monkeypatch):
        # at most 7 pairs a block, and all the C(N+K-1, K-1) count vectors, each once
        monkeypatch.setattr(compositions, "_BLOCK_PAIRS", 7)
        for k in (6, 5, 3, 1):
            split = compositions.split_table(9, k)
            sizes = [(a.stop - a.start) * (b.stop - b.start) for a, b, _ in compositions._blocks(split)]
            assert max(sizes) <= 7
            assert sum(sizes) == math.comb(9 + k - 1, k - 1)

    def test_over_budget_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="20,030,010"):
                compositions.split_table(10, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestExpectedSocialWelfare:
    def test_no_trade(self):
        profile = TypeProfile((1.0, 2.0))
        assert expected_social_welfare([0.0, 0.0], profile, 1.0, 1.0, 4) == 0.0

    @pytest.mark.parametrize("q", [[0.5, math.nan], [-0.5, 1.0], [0.5, math.inf]])
    def test_unusable_q_refused(self, q):
        # a NaN or negative q gave NaN with a RuntimeWarning
        profile = TypeProfile((1.0, 2.0))
        with pytest.raises(ValueError, match="q must be nonnegative and finite"):
            expected_social_welfare(q, profile, 1.0, 1.0, 4)
        with pytest.raises(ValueError, match="q must be nonnegative and finite"):
            expected_dap_utility(q, [0.0, 0.0], profile, 1.0, 1.0, 4)

    def test_matches_per_composition_oracle(self):
        profile = TypeProfile((0.5, 1.0, 2.5))
        q = np.array([0.2, 0.5, 0.9])
        contract = Contract.from_arrays(q, np.zeros(3))
        gamma, w, n = 1.3, 0.7, 3
        oracle = sum(
            p * social_welfare(counts, contract, profile, gamma, w)
            for counts, p in zip(*composition_table(n, 3))
        )
        value = expected_social_welfare(q, profile, gamma, w, n)
        assert value == pytest.approx(oracle, rel=1e-12)
