"""Tests for the classical sampling baselines."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qmeanlab.classical import (
    coordinate_median,
    median_of_means,
    sample,
    subgaussian_estimate,
    subgaussian_groups,
)
from qmeanlab.oracles import CostLedger
from qmeanlab.probspace import RandomVariable, moments


def basis_rv(d: int) -> RandomVariable:
    return RandomVariable(prob=np.full(d, 1.0 / d), values=np.eye(d))


class TestSample:
    def test_point_mass_draws_are_constant(self):
        rv = RandomVariable(prob=[1.0], values=[[0.25, -0.5]])
        draws = sample(rv, 17, np.random.default_rng(0))
        assert draws.shape == (17, 2)
        assert np.all(draws == np.array([0.25, -0.5]))

    def test_seed_determinism(self):
        rv = basis_rv(3)
        a = sample(rv, 50, np.random.default_rng(42))
        b = sample(rv, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_ledger_charges_count(self):
        rv = basis_rv(2)
        ledger = CostLedger()
        sample(rv, 33, np.random.default_rng(0), ledger)
        assert ledger.classical_samples == 33.0
        assert ledger.experiments == 0.0

    def test_frequencies_match_probabilities(self):
        # Three-sigma band around each cell of a known distribution.
        prob = np.array([0.5, 0.3, 0.2])
        rv = RandomVariable(prob=prob, values=[[0.0], [1.0], [2.0]])
        n = 100_000
        draws = sample(rv, n, np.random.default_rng(7))
        for k, p in enumerate(prob):
            freq = np.mean(draws[:, 0] == float(k))
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            sample(basis_rv(2), 0, np.random.default_rng(0))

    def test_table_above_2_pow_30_bytes_is_refused_before_it_is_drawn(self):
        # 2^27 draws of a 2-d outcome take 2^31 bytes: refused, with nothing allocated
        tracemalloc.start()
        try:
            wall = r"^draw-table memory wall: \(134217728, 2\) 8-byte draws > 2\^30 bytes$"
            with pytest.raises(ValueError, match=wall):
                sample(basis_rv(2), 2**27, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_draws_read_only(self):
        draws = sample(basis_rv(2), 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draws[0, 0] = 99.0


class TestEmpiricalMean:
    # the empirical mean is median_of_means with one group
    def test_matches_numpy_mean(self):
        draws = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        assert np.allclose(median_of_means(draws, 1), [3.0, 2.0])

    def test_converges_to_true_mean(self):
        rv = basis_rv(4)
        draws = sample(rv, 200_000, np.random.default_rng(3))
        est = median_of_means(draws, 1)
        assert np.linalg.norm(est - moments(rv).mean) < 0.01


class TestCoordinateMedian:
    def test_lower_median_of_three(self):
        est = [(1.0, 5.0), (3.0, 1.0), (2.0, 9.0)]
        assert np.array_equal(coordinate_median(est), [2.0, 5.0])

    def test_even_count_takes_lower(self):
        est = [[1.0], [2.0]]
        assert np.array_equal(coordinate_median(est), [1.0])

    def test_single_estimate_is_identity(self):
        assert np.array_equal(coordinate_median([[4.0, -2.0]]), [4.0, -2.0])

    def test_matches_brute_force_per_coordinate(self):
        rng = np.random.default_rng(11)
        for r in (1, 2, 3, 4, 5, 8, 9):
            arr = rng.normal(size=(r, 3))
            got = coordinate_median(arr)
            for j in range(3):
                col = sorted(arr[:, j])
                k = math.ceil(r / 2)  # k-th smallest, 1-indexed
                assert got[j] == col[k - 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            coordinate_median(np.empty((0, 2)))

    def test_result_owns_its_data(self):
        # a view would pin the whole sorted (40, 2) block behind a 2-vector
        med = coordinate_median(np.random.default_rng(3).normal(size=(40, 2)))
        assert med.base is None and med.flags.owndata and med.shape == (2,)


class TestMedianOfMeans:
    def test_one_group_is_empirical_mean(self):
        draws = sample(basis_rv(3), 40, np.random.default_rng(5))
        assert np.allclose(median_of_means(draws, 1), draws.mean(axis=0), rtol=0, atol=1e-15)
        # exact, not only close, when every draw is the same point
        same = np.full((7, 2), 0.1)
        assert np.array_equal(median_of_means(same, 1), [0.1, 0.1])

    def test_n_groups_is_coordinate_median(self):
        draws = sample(basis_rv(3), 12, np.random.default_rng(6))
        got = median_of_means(draws, draws.shape[0])
        assert np.array_equal(got, coordinate_median(draws))

    def test_remainder_goes_to_last_block(self):
        # 7 draws, 3 groups -> blocks of sizes 2, 2, 3.
        draws = np.arange(7.0).reshape(7, 1)
        got = median_of_means(draws, 3)
        block_means = [0.5, 2.5, 5.0]
        assert got[0] == sorted(block_means)[1]

    def test_resists_planted_outliers(self):
        # One corrupted draw shifts the empirical mean by corruption/n but
        # leaves the block medians untouched when the corrupt block is a
        # minority.
        rng = np.random.default_rng(9)
        clean = rng.uniform(-0.5, 0.5, size=(30, 2))
        corrupted = clean.copy()
        corrupted[0] += 1000.0
        mom_clean = median_of_means(clean, 5)
        mom_bad = median_of_means(corrupted, 5)
        emp_shift = np.linalg.norm(median_of_means(corrupted, 1) - median_of_means(clean, 1))
        mom_shift = np.linalg.norm(mom_bad - mom_clean)
        assert emp_shift > 40.0  # ~ 1000*sqrt(2)/30
        assert mom_shift < emp_shift / 5

    def test_rejects_bad_group_counts(self):
        draws = np.zeros((4, 1))
        with pytest.raises(ValueError, match="groups"):
            median_of_means(draws, 0)
        with pytest.raises(ValueError, match="exceeds"):
            median_of_means(draws, 5)


class TestSubgaussianEstimate:
    def test_point_mass_is_exact(self):
        rv = RandomVariable(prob=[1.0], values=[[0.125, -0.375, 0.0]])
        est, draws = subgaussian_estimate(rv, 16, 0.05, np.random.default_rng(0))
        assert np.array_equal(est, [0.125, -0.375, 0.0])
        assert draws.shape == (16, 3)

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 1.5, float("nan")])
    def test_refuses_delta_outside_the_unit_interval(self, delta):
        ledger = CostLedger()
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            subgaussian_estimate(basis_rv(2), 25, delta, np.random.default_rng(21), ledger)
        assert ledger.classical_samples == 0

    def test_group_count_formula(self):
        # 8 * ceil(log2(2/delta)), clamped to n.
        assert subgaussian_groups(1000, 0.05) == 8 * math.ceil(math.log2(40.0))
        assert subgaussian_groups(1000, 0.05) == 48
        assert subgaussian_groups(10, 0.05) == 10  # clamped by n
        assert subgaussian_groups(1000, 0.5) == 16

    def test_ledger_charges_exactly_n(self):
        ledger = CostLedger()
        subgaussian_estimate(basis_rv(3), 64, 0.1, np.random.default_rng(2), ledger)
        assert ledger.classical_samples == 64.0
        assert ledger.binary_queries == 0.0

    def test_rejects_insufficient_budget(self):
        with pytest.raises(ValueError, match="below"):
            subgaussian_estimate(basis_rv(2), 3, 1e-3, np.random.default_rng(0))

    def test_l2_error_rate_on_basis_distribution(self):
        # Uniform over e_1..e_4: Tr(Cov) = 3/4.  With n = 256 draws the
        # median l2 error over repeated trials stays below 4*sqrt(TrCov/n).
        rv = basis_rv(4)
        tr = moments(rv).cov_trace
        n, trials = 256, 200
        rng = np.random.default_rng(1234)
        errs = []
        for _ in range(trials):
            est, _ = subgaussian_estimate(rv, n, 0.05, rng)
            errs.append(np.linalg.norm(est - moments(rv).mean))
        assert np.median(errs) <= 4.0 * math.sqrt(tr / n)

    def test_determinism_given_seed(self):
        rv = basis_rv(3)
        a, _ = subgaussian_estimate(rv, 50, 0.1, np.random.default_rng(77))
        b, _ = subgaussian_estimate(rv, 50, 0.1, np.random.default_rng(77))
        assert np.array_equal(a, b)
