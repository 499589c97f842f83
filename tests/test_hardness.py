"""Tests for the hard-instance generators.

Moment identities (Tr of covariance, designed means) were verified against
independent brute-force enumeration before the generators were written.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qmeanlab import hardness
from qmeanlab.classical import subgaussian_estimate
from qmeanlab.hardness import (
    SearchParityInstance,
    designed_mean_fractional_phase,
    designed_mean_high_precision,
    designed_mean_low_precision,
    fractional_phase_rv,
    hadamard,
    hard_rv_high_precision,
    hard_rv_low_precision,
    search_parity_instance,
)
from qmeanlab.probspace import mean, moments


def random_bits(count: int, weight: int, rng: np.random.Generator) -> np.ndarray:
    b = np.zeros(count, dtype=np.int64)
    b[rng.choice(count, size=weight, replace=False)] = 1
    return b


class TestHadamard:
    def test_base_cases(self):
        assert np.array_equal(hadamard(1), [[1.0]])
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(hadamard(2), [[r, r], [r, -r]], atol=0, rtol=0)

    def test_orthogonality_up_to_256(self):
        for d in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            h = hadamard(d)
            assert np.max(np.abs(h.T @ h - np.eye(d))) <= 1e-12

    def test_entries_and_first_row_column(self):
        h = hadamard(16)
        assert np.allclose(np.abs(h), 1.0 / 4.0)
        assert np.all(h[0] > 0) and np.all(h[:, 0] > 0)

    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, -2):
            with pytest.raises(ValueError, match="power of two"):
                hadamard(bad)

    def test_sign_rows_match_the_kronecker_build(self):
        # rows on demand, entry (i, j) = (-1)^popcount(i & j), are the
        # leading rows of the Kronecker-built sign matrix for every d <= 1024
        signs = np.array([[1]], dtype=np.int64)
        for k in range(11):
            d = 2**k
            for rows in {1, min(3, d), d}:
                assert np.array_equal(hardness._sylvester_signs(rows, d), signs[:rows])
            signs = np.kron(signs, np.array([[1, 1], [1, -1]], dtype=np.int64))


class TestMemoryWalls:
    """Each family refuses a value table above 2^30 bytes before building anything."""

    @pytest.fixture(autouse=True)
    def no_sign_rows(self, monkeypatch):
        def built(*args):
            raise AssertionError("sign rows were built past the wall")

        monkeypatch.setattr(hardness, "_sylvester_signs", built)

    def test_low_family(self):
        b = np.tile([0, 1], 2**15)
        with pytest.raises(ValueError, match=r"^value table memory wall: 65536 x 2097152 entries > 2\^30 bytes$"):
            hard_rv_low_precision(2**14, 2**21, 1.0, b, 4)

    def test_high_family(self):
        with pytest.raises(ValueError, match=r"^value table memory wall: 32768 x 16384 entries > 2\^30 bytes$"):
            hardness._high_precision_columns(2**15, 2**14, 1)

    def test_fractional_family(self):
        with pytest.raises(ValueError, match=r"^value table memory wall: 131072 x 65536 entries > 2\^30 bytes$"):
            fractional_phase_rv(2**16, 2.0**16, np.zeros(2**16, dtype=int))


class TestSearchParityInstance:
    def test_minimal_two_by_two(self):
        inst = search_parity_instance(2, 2, np.random.default_rng(0))
        weights = inst.A.sum(axis=1)
        assert sorted(weights) == [1, 2]
        assert sorted(inst.b) == [0, 1]

    def test_invariants_hold_for_seeded_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            N = int(rng.integers(1, 65))
            M = int(rng.integers(1, 65))
            inst = search_parity_instance(N, M, np.random.default_rng(int(rng.integers(1 << 32))))
            weights = inst.A.sum(axis=1)
            assert int((weights == M // 2).sum()) == N // 2
            assert int((weights == M // 2 + 1).sum()) == N - N // 2
            assert np.array_equal(inst.b, (weights == M // 2 + 1).astype(np.int64))

    def test_seed_determinism(self):
        a = search_parity_instance(8, 6, np.random.default_rng(7))
        b = search_parity_instance(8, 6, np.random.default_rng(7))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)

    def test_rejects_inconsistent_fields(self):
        inst = search_parity_instance(4, 4, np.random.default_rng(1))
        flipped = inst.b.copy()
        flipped[0] ^= 1
        with pytest.raises(ValueError, match="heavy rows"):
            SearchParityInstance(A=inst.A, b=flipped, N=4, M=4)
        with pytest.raises(ValueError, match="weight"):
            SearchParityInstance(A=np.ones((4, 4), dtype=int), b=np.ones(4, dtype=int), N=4, M=4)


class TestLowPrecisionFamily:
    def test_cov_trace_is_sigma_squared(self):
        rng = np.random.default_rng(3)
        for n, d, alpha, sigma in [(4, 16, 4, 1.0), (8, 64, 4, 0.5), (16, 64, 2, 2.0), (2, 8, 4, 1.0)]:
            b = random_bits(alpha * n, alpha * n // 2, rng)
            rv = hard_rv_low_precision(n, d, sigma, b, alpha)
            assert abs(moments(rv).cov_trace - sigma**2) <= 1e-9

    def test_mean_matches_designed_formula(self):
        rng = np.random.default_rng(4)
        b = random_bits(16, 8, rng)
        rv = hard_rv_low_precision(4, 32, 1.5, b, 4)
        assert np.max(np.abs(mean(rv) - designed_mean_low_precision(4, 32, 1.5, b, 4))) <= 1e-12

    def test_bit_vector_recovered_from_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d, alpha, sigma = 8, 64, 4, 1.0
            b = random_bits(alpha * n, alpha * n // 2, rng)
            rv = hard_rv_low_precision(n, d, sigma, b, alpha)
            rows = hadamard(d)[: alpha * n]
            b_tilde = math.sqrt(n * (alpha**2 * n - alpha) / 2.0) / sigma * (rows @ mean(rv))
            assert np.max(np.abs(b_tilde - b)) <= 1e-9

    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    def test_values_have_the_bits_of_the_whole_product(self, monkeypatch, chunk_rows):
        # the table filled from chunks of sign rows is the one product
        # scale * b * (first alpha*n Sylvester rows / sqrt(d)), entry by entry
        rng = np.random.default_rng(7)
        for n, d, alpha, sigma in [(1, 2, 2, 1.0), (4, 16, 4, 0.3), (8, 64, 2, 2.0), (16, 256, 4, 1.0)]:
            if chunk_rows is not None:
                monkeypatch.setattr(hardness, "_SIGN_CHUNK", chunk_rows * d)
            count = alpha * n
            b = random_bits(count, count // 2, rng)
            scale = alpha * sigma * math.sqrt(n / ((alpha**2 * n - alpha) / 2.0))
            whole = scale * b[:, None] * (hardness._sylvester_signs(count, d) / math.sqrt(d))
            assert np.array_equal(hard_rv_low_precision(n, d, sigma, b, alpha).values, whole), (n, d)

    def test_builder_holds_its_table_and_a_few_sign_rows(self):
        # the 4 MiB (128, 4096) table, taken by the random variable without a
        # copy, and one 2^16-entry chunk of sign rows with its temporaries
        b = np.arange(128) % 2
        tracemalloc.start()
        try:
            hard_rv_low_precision(64, 4096, 1.0, b, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_preconditions(self):
        rng = np.random.default_rng(6)
        good_b = random_bits(16, 8, rng)
        with pytest.raises(ValueError, match="exceeds d"):
            hard_rv_low_precision(4, 8, 1.0, good_b, 4)
        with pytest.raises(ValueError, match="Hamming weight"):
            hard_rv_low_precision(4, 32, 1.0, np.zeros(16, dtype=int), 4)
        with pytest.raises(ValueError, match="power of two"):
            hard_rv_low_precision(4, 24, 1.0, good_b, 4)


class TestHighPrecisionFamily:
    def test_cov_trace_exact_at_d2(self):
        rng = np.random.default_rng(7)
        for n, alpha, sigma in [(2, 2, 1.0), (4, 2, 0.5), (8, 4, 2.0)]:
            inst = search_parity_instance(2, alpha * n // 2, np.random.default_rng(int(rng.integers(1 << 32))))
            rv = hard_rv_high_precision(n, 2, sigma, inst, alpha)
            assert abs(moments(rv).cov_trace - sigma**2) <= 1e-9

    def test_mean_indicates_heavy_rows(self):
        rng = np.random.default_rng(8)
        n, d, alpha, sigma = 8, 4, 4, 1.0  # M = 8
        inst = search_parity_instance(d, alpha * n // d, np.random.default_rng(9))
        rv = hard_rv_high_precision(n, d, sigma, inst, alpha)
        mu = mean(rv)
        designed = designed_mean_high_precision(n, d, sigma, inst, alpha)
        assert np.max(np.abs(mu - designed)) <= 1e-12
        level = 2.0 * sigma / math.sqrt((alpha * n) ** 2 - d**2)
        recovered = (mu > level / 2.0).astype(np.int64)
        assert np.array_equal(recovered, inst.b)
        assert rng is not None

    def test_minimal_instance_hand_enumeration(self):
        # d = 2, M = 2, alpha*n = 4: row with weight 1 contributes +scale and
        # -scale (cancels); row with weight 2 contributes +scale twice.
        inst = search_parity_instance(2, 2, np.random.default_rng(0))
        sigma = 1.0
        rv = hard_rv_high_precision(1, 2, sigma, inst, 4)
        scale = 4.0 * sigma / math.sqrt(16.0 - 4.0)
        expected = np.where(inst.b == 1, scale / 2.0, 0.0)
        assert np.max(np.abs(mean(rv) - expected)) <= 1e-12

    def test_alternative_normalization(self):
        inst = search_parity_instance(2, 2, np.random.default_rng(0))
        rv = hard_rv_high_precision(1, 2, 1.0, inst, 4, normalization="2d2")
        designed = designed_mean_high_precision(1, 2, 1.0, inst, 4, normalization="2d2")
        assert np.max(np.abs(mean(rv) - designed)) <= 1e-12
        # with D = (alpha n)^2 - 2 d^2 the trace identity no longer holds at d=2
        assert abs(moments(rv).cov_trace - ((16.0 - 4.0) / (16.0 - 8.0))) <= 1e-9

    def test_preconditions(self):
        inst = search_parity_instance(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="multiple of d"):
            hard_rv_high_precision(3, 2, 1.0, inst, 1)
        with pytest.raises(ValueError, match="even"):
            hard_rv_high_precision(3, 2, 1.0, inst, 2)  # M = 3 odd
        with pytest.raises(ValueError, match="does not match"):
            hard_rv_high_precision(4, 2, 1.0, inst, 2)  # M = 4 != inst.M
        with pytest.raises(ValueError, match="even"):
            hard_rv_high_precision(4, 3, 1.0, inst, 3)  # odd d
        with pytest.raises(ValueError, match="normalization"):
            hard_rv_high_precision(1, 2, 1.0, inst, 4, normalization="bad")


class TestFractionalPhaseFamily:
    def test_zero_bits_mean_is_exactly_first_basis_eighth(self):
        for d_prime in (1, 2, 4, 8, 16):
            rv = fractional_phase_rv(d_prime, 2 * d_prime, np.zeros(d_prime, dtype=int))
            expected = np.zeros(d_prime)
            expected[0] = 0.125
            assert np.array_equal(mean(rv), expected)

    def test_probabilities_match_trig_formula(self):
        rng = np.random.default_rng(10)
        d_prime, n = 8, 20.0
        b = random_bits(d_prime, 3, rng)
        rv = fractional_phase_rv(d_prime, n, b)
        eps = math.asin(d_prime / n)
        for j in range(d_prime):
            for x in (0, 1):
                trig = math.cos(math.pi / 4.0 + (-1) ** x * eps * b[j] / 2.0) ** 2 / d_prime
                assert abs(rv.prob[2 * j + x] - trig) <= 1e-15

    def test_mean_formula_small_case(self):
        d_prime, n = 4, 8.0
        b = np.array([1, 0, 1, 0])
        rv = fractional_phase_rv(d_prime, n, b)
        assert np.max(np.abs(mean(rv) - designed_mean_fractional_phase(d_prime, n, b))) <= 1e-12

    def test_probabilities_sum_to_one_for_seeded_bits(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            b = rng.integers(0, 2, size=8)
            rv = fractional_phase_rv(8, 16.0, b)
            assert abs(rv.prob.sum() - 1.0) <= 1e-12

    def test_rejects_overlarge_dimension(self):
        with pytest.raises(ValueError, match="exceeds n"):
            fractional_phase_rv(8, 4.0, np.zeros(8, dtype=int))

    @pytest.mark.parametrize("chunk_rows", [8, None])
    def test_designed_mean_has_the_bits_of_the_whole_product(self, monkeypatch, chunk_rows):
        # sign rows in chunks of 8 and of the default size, against the one
        # product with hadamard(d') at every d' up to 2^11
        rng = np.random.default_rng(13)
        for k in range(12):
            d_prime, n = 2**k, 3.0 * 2**k
            if chunk_rows is not None:
                monkeypatch.setattr(hardness, "_SIGN_CHUNK", chunk_rows * d_prime)
            b = rng.integers(0, 2, d_prime)
            whole = math.sqrt(d_prime) / (8.0 * n) * (hadamard(d_prime) @ b.astype(float))
            whole[0] += 0.125
            assert np.array_equal(designed_mean_fractional_phase(d_prime, n, b), whole), d_prime

    @pytest.mark.parametrize(
        "build, bound",
        [
            # hadamard(1024) alone is 8 MiB; the chunks of sign rows stay within half of it
            (designed_mean_fractional_phase, 4 * 2**20),
            # the 16 MiB value table, which the random variable takes without a
            # copy, plus as much again for the chunks, not the 8 MiB sign matrix
            # and its temporaries (42 MiB in all when those were built)
            (fractional_phase_rv, 16 * 2**20 + 4 * 2**20),
        ],
    )
    def test_builders_hold_no_square_sign_table(self, build, bound):
        b = np.arange(1024) % 2
        tracemalloc.start()
        try:
            build(1024, 2048.0, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestClassicalFloor:
    def test_subgaussian_error_floor_on_low_family(self):
        # Tr(Cov) = 1 by construction, so any n-sample estimator's l2 error
        # hovers around sqrt(1/n); the floor 0.1/sqrt(n) sits well below it.
        n, d, alpha = 16, 64, 4
        rng = np.random.default_rng(12)
        b = random_bits(alpha * n, alpha * n // 2, rng)
        rv = hard_rv_low_precision(n, d, 1.0, b, alpha)
        truth = mean(rv)
        errs = []
        for _ in range(100):
            est, _ = subgaussian_estimate(rv, n, 0.05, rng)
            errs.append(float(np.linalg.norm(est - truth)))
        assert np.median(errs) >= 0.1 / math.sqrt(n)
